"""Property tests of the exact engine over random grids, angles and states,
of the RK4 reference stack on small, slow grids, and of the revival
detector against a sample-by-sample loop and numpy's median, of the CSV
writer: its bytes against Python's %.17g, and its read-back, and of the
exact engine's and RK4's runs through ``cli.main`` over the whole
admitted space."""

import math
import os
import struct
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from djcsim import (
    SystemConfig,
    Trajectory,
    build_mode_grid,
    default_step,
    detect_revivals,
    init_atoms_entangled,
    init_fields_entangled,
    run_double,
    run_single,
)
from djcsim.cli import _CSV_BLOCK, _write_csv, main
from djcsim.csvcells import SPEC, format_rows
from djcsim.evolve import comb_spectrum
from djcsim.revivals import _median
from djcsim.single import SingleExcState

# no example database: a run leaves no files behind
checked = settings(max_examples=25, deadline=None, database=None)

thetas = st.floats(0.0, math.pi / 2)
profiles = st.sampled_from(("uniform", "sqrtfreq"))


@st.composite
def grids(draw, max_modes=99):
    """A valid grid: n odd, omega_a and L/lambda_a such that every mode is physical."""
    n = 2 * draw(st.integers(0, (max_modes - 1) // 2)) + 1
    # L/lambda_a > (n - 1) / 2 keeps the lowest mode frequency positive
    length_ratio = (n - 1) / 2 + draw(st.floats(1.0, 5000.0))
    omega_a = draw(st.floats(10.0, 20000.0))
    return build_mode_grid(SystemConfig(omega_a=omega_a, length_ratio=length_ratio,
                                        n_modes=n, coupling_profile=draw(profiles)))


@st.composite
def slow_grids(draw):
    """A grid of at most 9 modes spaced at most 10 apart, so RK4 steps stay cheap."""
    n = 2 * draw(st.integers(0, 4)) + 1
    spacing = draw(st.floats(0.1, 10.0))
    length_ratio = (n - 1) / 2 + draw(st.floats(1.0, 1000.0))
    return build_mode_grid(SystemConfig(omega_a=spacing * length_ratio,
                                        length_ratio=length_ratio, n_modes=n,
                                        coupling_profile=draw(profiles)))


def excited_atom_population(grid, t_max, dt):
    """|u|^2 of one atom started excited in its comb, from a single run."""
    zeros = np.zeros(grid.n)
    start = SingleExcState(c1=1.0, c2=0.0, ca=zeros, cb=zeros)
    return run_single(grid, start, t_max, dt=dt, engine="exact").records["pop1"]


@checked
@given(grids(), thetas)
def test_double_populations_sum_to_the_excited_weight(grid, theta):
    rec = run_double(grid, theta, 3.0, dt=0.05).records
    total = rec["p11"] + rec["p2"] + rec["p3"] + rec["p4"]
    assert np.max(np.abs(total - math.sin(theta) ** 2)) <= 1e-12


@checked
@given(grids(), thetas)
def test_double_concurrence_is_the_x_state_formula(grid, theta):
    p = excited_atom_population(grid, 3.0, 0.05)
    c_ab = run_double(grid, theta, 3.0, dt=0.05).records["c_ab"]
    sin, cos = math.sin(theta), math.cos(theta)
    expected = 2.0 * np.maximum(0.0, sin * cos * p - sin * sin * p * (1.0 - p))
    assert np.max(np.abs(c_ab - expected)) <= 1e-12


def assert_cavities_swapped(rec, swapped):
    pairs = [("c_ab", "c_ab"), ("norm", "norm"), ("pop1", "pop2"), ("pop_cav_a", "pop_cav_b"),
             ("re_c1", "re_c2"), ("im_c1", "im_c2")]
    for left, right in pairs + [(b, a) for a, b in pairs]:
        assert np.max(np.abs(rec[left] - swapped[right])) <= 1e-12, (left, right)


@checked
@given(grids(), thetas, st.sampled_from((init_atoms_entangled, init_fields_entangled)))
def test_complementary_angle_swaps_the_cavities(grid, theta, init):
    rec = run_single(grid, init(theta, grid), 3.0, dt=0.05, engine="exact").records
    swapped = run_single(grid, init(math.pi / 2 - theta, grid), 3.0, dt=0.05,
                         engine="exact").records
    assert_cavities_swapped(rec, swapped)


@checked
@given(slow_grids(), thetas, st.sampled_from((init_atoms_entangled, init_fields_entangled)))
def test_rk4_complementary_angle_swaps_the_cavities(grid, theta, init):
    rec = run_single(grid, init(theta, grid), 3.0, engine="rk4").records
    swapped = run_single(grid, init(math.pi / 2 - theta, grid), 3.0, engine="rk4").records
    assert_cavities_swapped(rec, swapped)


@checked
@given(slow_grids(), thetas, st.sampled_from((init_atoms_entangled, init_fields_entangled)))
def test_rk4_follows_the_exact_engine(grid, theta, init):
    # Both at the default step: RK4 steps it, the exact engine samples it.
    # Where the collective coupling sets the step (spacing below about 2),
    # RK4 at 100 steps per cycle is up to 1.85e-6 off over this window (a
    # scan of 1960 grids), so the bound is 3e-6 rather than 1e-6.
    rk4 = run_single(grid, init(theta, grid), 3.0, engine="rk4")
    exact = run_single(grid, init(theta, grid), 3.0, engine="exact")
    assert np.array_equal(rk4.times, exact.times)
    for name in exact.records:
        assert np.max(np.abs(rk4.records[name] - exact.records[name])) <= 3e-6, name


@checked
@given(grids(max_modes=401))
# weak-coupling grids, spacing far above the coupling, that a bracket-midpoint
# start solves slowly
@example(build_mode_grid(SystemConfig(omega_a=19489.3, length_ratio=224.14, n_modes=5,
                                      coupling_profile="sqrtfreq")))
@example(build_mode_grid(SystemConfig(omega_a=13823.9, length_ratio=292.29, n_modes=37,
                                      coupling_profile="uniform")))
def test_comb_spectrum_checks_hold(grid):
    spectrum = comb_spectrum(grid)
    assert spectrum.residual <= 1e-10
    assert spectrum.orthogonality <= 1e-10
    assert np.all(np.diff(spectrum.eigenvalues) > 0.0)


@st.composite
def exact_argvs(draw):
    """A double run or a theta sweep point over the float64 range of omega_a
    and L/lambda_a, at its default window: SystemConfig admits some, and
    the CLI refuses others with exit 2."""
    def log_uniform():
        return repr(min(10.0 ** draw(st.floats(-307.0, 308.0)), 1.7976931348623157e308))
    initial = draw(st.sampled_from((None, "atoms", "fields", "double")))
    command = ["double"] if initial is None else [
        "sweep", "--axis", "theta", "--values", repr(draw(thetas)), "--initial", initial]
    return [*command, "--modes", str(2 * draw(st.integers(0, 10)) + 1),
            "--omega-a", log_uniform(), "--length-ratio", log_uniform(),
            "--theta", repr(draw(thetas)), "--profile", draw(profiles),
            "--angle-convention", draw(st.sampled_from(("printed", "swapped")))]


# the grids the CLI refused for max|delta| / min g above 1e150
SPREAD_ARGVS = [
    *[["double", "--modes", "3", "--omega-a", omega_a, "--length-ratio", "3", "--tmax", "1e-15",
       "--profile", profile]
      for omega_a in ("1e160", "1e300") for profile in ("uniform", "sqrtfreq")],
    ["sweep", "--axis", "theta", "--values", "0.3", "--modes", "3", "--omega-a", "1e160",
     "--length-ratio", "3", "--tmax", "1e-15"],
]


@settings(max_examples=200, deadline=None, database=None)
@given(exact_argvs())
@example(SPREAD_ARGVS[0])
@example(SPREAD_ARGVS[1])
@example(SPREAD_ARGVS[2])
@example(SPREAD_ARGVS[3])
@example(SPREAD_ARGVS[4])
# omega_a + max|delta| above the largest double
@example(["double", "--modes", "3", "--omega-a", "1.7e308", "--length-ratio", "3"])
# a mode spacing of exactly the exact engine's least, 1e-150
@example(["double", "--modes", "3", "--omega-a", "2e-150", "--length-ratio", "2"])
def test_exact_runs_write_finite_cells_or_exit_2(argv):
    with tempfile.TemporaryDirectory() as folder:
        code = main(argv + ["--out", os.path.join(folder, "run.csv")])
        assert code in (0, 2)
        written = sorted(os.listdir(folder))
        if code == 2:
            assert written == []
        for name in written:
            if name.endswith("_summary.csv"):  # empty cells when nothing dies
                continue
            cells = np.loadtxt(os.path.join(folder, name), delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(cells)), name


@st.composite
def single_argvs(draw):
    """A single (RK4) run over the float64 range of omega_a and L/lambda_a,
    odd n <= 21, whose --tmax is a drawn multiple, at most 500, of the
    grid's default step: no example steps more than 501 times.  A grid that
    SystemConfig refuses keeps the default window; the CLI exits 2 on it."""
    def log_uniform():
        return repr(min(10.0 ** draw(st.floats(-307.0, 308.0)), 1.7976931348623157e308))
    n = 2 * draw(st.integers(0, 10)) + 1
    omega_a, length_ratio = log_uniform(), log_uniform()
    profile = draw(profiles)
    argv = ["single", "--modes", str(n), "--omega-a", omega_a, "--length-ratio", length_ratio,
            "--theta", repr(draw(thetas)), "--profile", profile,
            "--initial", draw(st.sampled_from(("atoms", "fields"))),
            "--angle-convention", draw(st.sampled_from(("printed", "swapped")))]
    multiple = draw(st.integers(1, 500) | st.floats(0.0, 500.0, exclude_min=True))
    try:
        grid = build_mode_grid(SystemConfig(omega_a=float(omega_a),
                                            length_ratio=float(length_ratio),
                                            n_modes=n, coupling_profile=profile))
    except ValueError:
        return argv
    return argv + ["--tmax", repr(multiple * default_step(grid))]


@settings(max_examples=200, deadline=None, database=None)
@given(single_argvs())
def test_rk4_runs_write_finite_cells_or_exit_2(argv):
    with tempfile.TemporaryDirectory() as folder:
        code = main(argv + ["--out", os.path.join(folder, "run.csv")])
        assert code in (0, 2)
        written = os.listdir(folder)
        if code == 2:
            assert written == []
        else:
            cells = np.loadtxt(os.path.join(folder, "run.csv"), delimiter=",", skiprows=1,
                               ndmin=2)
            assert np.all(np.isfinite(cells))


def loop_dead_and_peaks(t, c, floor=1e-6):
    """The detector's dead intervals, revival peak times and onsets, found
    sample by sample: runs at or below the floor joined across blips shorter
    than the gap, local maxima merged within the gap, and each onset the
    first sample above the floor after the last dead interval ending between
    the previous peak and this one, else the minimum since the previous peak."""
    n = len(c)
    gap = min(20.0 * float(np.median(np.diff(t))), (t[-1] - t[0]) / 20.0) if n > 1 else 0.0
    runs, i = [], 0
    while i < n:
        if c[i] <= floor:
            j = i
            while j + 1 < n and c[j + 1] <= floor:
                j += 1
            if runs and t[i] - t[runs[-1][1]] < gap:
                runs[-1] = (runs[-1][0], j)
            else:
                runs.append((i, j))
            i = j + 1
        else:
            i += 1
    dead = [(float(t[i]), float(t[j])) for i, j in runs if t[j] - t[i] >= gap]
    if not any(c[i] > floor and c[i] > c[i - 1] for i in range(1, n)):
        return dead, [], []
    peaks = []
    for i in range(n):
        if c[i] > floor and (i == 0 or c[i] > c[i - 1]) and (i == n - 1 or c[i] >= c[i + 1]):
            if peaks and t[i] - t[peaks[-1]] < gap:
                if c[i] > c[peaks[-1]]:
                    peaks[-1] = i
            else:
                peaks.append(i)
    peaks = [i for i in peaks if not any(a <= t[i] <= b for a, b in dead)]
    onsets, previous = [], -math.inf
    for i in peaks:
        exits = [b for _, b in dead if previous < b < t[i]]
        if exits:
            onset = next(j for j in range(n) if t[j] > exits[-1] and c[j] > floor)
        else:
            # np.argmin's rule: the first NaN, else the first smallest value
            window = [j for j in range(n) if previous < t[j] <= t[i]]
            onset = window[0]
            for j in window:
                if math.isnan(c[j]):
                    onset = j
                    break
                if c[j] < c[onset]:
                    onset = j
        onsets.append(float(t[onset]))
        previous = t[i]
    return dead, [float(t[i]) for i in peaks], onsets


# values at and around the floor, ties, plateaus and NaN (neither dead nor alive)
levels = (st.sampled_from((0.0, 5e-7, 1e-6, 2e-6, 0.1, 0.25, 0.5, 1.0, math.nan))
          | st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from((0.05, 0.1, 0.1, 0.2)), levels),
                min_size=1, max_size=80))
def test_detector_matches_the_sample_loop(samples):
    t = np.cumsum([step for step, _ in samples])
    c = np.array([level for _, level in samples])
    report = detect_revivals(Trajectory(times=t, records={"c_ab": c}))
    dead, peak_times, onsets = loop_dead_and_peaks(t, c)
    assert report.dead_intervals == dead
    assert [ev.peak_time for ev in report.revivals] == peak_times
    assert [ev.onset for ev in report.revivals] == onsets


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats() | st.sampled_from((0.1, 0.2, math.inf, math.nan)),
                min_size=1, max_size=40))
def test_median_is_numpys(values):
    x = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        expected, got = float(np.median(x)), _median(x)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.floats() | st.sampled_from((-0.0, 5e-324, 2.2250738585072009e-308,
                                               1.7976931348623157e308)),
                min_size=1, max_size=200),
       st.integers(1, 4), st.integers(_CSV_BLOCK + 1, 3 * _CSV_BLOCK))
def test_csv_cells_read_back_bit_for_bit(values, columns, rows):
    table = np.resize(np.array(values), (columns + 1, rows))
    records = {f"c{i}": col for i, col in enumerate(table[1:])}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        _write_csv(path, "t", table[0], records)
        with open(path, encoding="ascii") as handle:
            lines = handle.read().splitlines()
    assert lines[0] == ",".join(["t", *records])
    got = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]]).T
    assert got.shape == table.shape
    nan = np.isnan(table)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == table[~nan].tobytes()


@st.composite
def raw_floats(draw):
    """A float64 from a raw 64-bit pattern: subnormals, +-0, +-inf and NaN
    payloads included.  Half the exponent fields lie near that of 1, so that
    most values take the formatter's fast path, 1e-6 < |v| < 1e17."""
    exponent = draw(st.integers(0, 2047) | st.integers(1000, 1080))
    bits = draw(st.integers(0, 1)) << 63 | exponent << 52 | draw(st.integers(0, 2 ** 52 - 1))
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def powers_of_ten_and_neighbours(first, last):
    return [x for e in range(first, last + 1) for p in (float(f"1e{e}"),)
            for x in (np.nextafter(p, -math.inf), p, np.nextafter(p, math.inf))]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(raw_floats(), min_size=1, max_size=60), st.integers(1, 5))
@example(powers_of_ten_and_neighbours(-8, 18), 3)
@example([9.9999999999999995e-5, 1e-5, -9.9999999999999995e-5, -1e-5], 2)
@example([1e16, 1e17, 99999999999999994.0, -99999999999999994.0], 1)
@example([2.0 ** 53, 2.0 ** 53 + 2, -2.0 ** 53], 2)
@example([5e-324, 1.7976931348623157e308, -5e-324, -1.7976931348623157e308], 4)
# every cell formatted by %, its NUL padding deleted, last-column cells included
@example([math.nan, -math.inf, 1e-300, -5e-324, 1e20, 1e-7], 2)
# the point after every digit, and none (x = 16); trailing zeros before it
@example([s * 1.2345678901234567 * 10.0 ** x for x in range(17) for s in (1, -1)]
         + [10.0, 1234.5, 99999999.999999985], 3)
def test_formatted_rows_are_the_spec_byte_for_byte(values, columns):
    table = np.resize(np.array(values), (-(-len(values) // columns), columns))
    expected = "".join(",".join(SPEC % v for v in row) + "\n" for row in table.tolist())
    assert format_rows(table).tobytes() == expected.encode("ascii")


def test_no_fast_value_rounds_up_to_the_next_decade():
    # the largest float below each power of ten inside the fast path lies
    # more than half a unit of the 17th digit below it, so the formatter's
    # 17-digit integer never carries to 10**17
    for e in range(-5, 18):
        below = float(f"1e{e}")
        if Fraction(below) >= Fraction(10) ** e:
            below = math.nextafter(below, 0.0)
        scaled = Fraction(below) * Fraction(10) ** (17 - e)
        assert 10 ** 17 - scaled > 0.5
