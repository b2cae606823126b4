"""Property tests of the exact engine over random grids, angles and states,
of the RK4 reference stack on small, slow grids, and of the revival
detector against a sample-by-sample loop and numpy's median, of the CSV
writer: its bytes against Python's ``SPEC`` (%.16e), and its read-back,
and of the exact engine's, RK4's and the kernel trace's runs through
``cli.main`` over the whole admitted space: sweeps along every axis, drawn
strides and steps, and ``--config`` files against the flags they carry."""

import contextlib
import io
import math
import os
import struct
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from djcsim import (
    SystemConfig,
    Trajectory,
    build_mode_grid,
    concurrence_double_closed,
    default_step,
    detect_revivals,
    expm_oracle,
    init_atoms_entangled,
    init_double,
    init_fields_entangled,
    observables_double,
    run_double,
    run_single,
    stability_limit,
)
from djcsim.cli import main
from djcsim.csvcells import _BLOCK, SPEC, format_rows, write_csv
from djcsim.evolve import comb_spectrum, exact_amplitudes
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
@given(grids(), thetas, st.sampled_from((init_atoms_entangled, init_fields_entangled)))
@example(build_mode_grid(SystemConfig(omega_a=6529.085621924419,
                                      length_ratio=806.1979208216349, n_modes=3,
                                      coupling_profile="uniform")),
         0.809471498388516, init_atoms_entangled)
def test_exact_single_populations_stay_nonnegative_after_the_start(grid, theta, init):
    # just after t = 0 the engine's |c|^2 can round above its block's norm
    rec = run_single(grid, init(theta, grid), 1e-100, dt=1e-100, engine="exact").records
    for name in ("pop1", "pop2", "pop_cav_a", "pop_cav_b"):
        assert np.all(rec[name] >= 0.0), name


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
def oracle_grids(draw, max_modes=21):
    """A grid SystemConfig admits, small enough for quick draws: odd
    n <= max_modes, either profile, omega_a from 1e-3 to 1e8 and L/lambda_a
    from 1 to 1e6, each log-uniform."""
    n = 2 * draw(st.integers(0, (max_modes - 1) // 2)) + 1
    length_ratio = 10.0 ** draw(st.floats(0.0, 6.0))
    assume(length_ratio > (n - 1) / 2)  # the lowest mode stays above 0
    return build_mode_grid(SystemConfig(omega_a=10.0 ** draw(st.floats(-3.0, 8.0)),
                                        length_ratio=length_ratio, n_modes=n,
                                        coupling_profile=draw(profiles)))


@settings(max_examples=200, deadline=None, database=None)
@given(oracle_grids(), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_exact_amplitudes_match_the_oracle(grid, seed, fractions):
    # A random normalised start, at times up to the phase rule's edge, where
    # float64 rounds a phase lam t by 1e-6.  The bound is C u (f t + 1) n,
    # with f the comb's frequency bound and u = 2^-53.  The oracle is the
    # identity at t = 0, where the engine's sum of weights is off the start
    # by up to 4.1 u n on n = 3 grids (150k draws), so C stays 8; at t > 0
    # the two part by up to 2.2 u (f t + 1) n, and 60-digit checks put the
    # oracle within 0.6 and the engine within 0.4 u (f t + 1) n.
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2 * grid.n + 2) + 1j * rng.normal(size=2 * grid.n + 2)
    state = SingleExcState.from_vector(vec / np.linalg.norm(vec), grid.n)
    series, _ = exact_amplitudes(grid, [(state.c1, state.ca), (state.c2, state.cb)])
    u, f = 2.0 ** -53, grid.frequency_bound
    times = np.array(fractions) * (1e-6 / (u * f))
    for t, c1, c2 in zip(times, *series.at(times)):
        ref = expm_oracle(state, grid, t)
        bound = 8.0 * u * (f * t + 1.0) * grid.n
        assert abs(c1 - ref.c1) <= bound
        assert abs(c2 - ref.c2) <= bound


@settings(max_examples=100, deadline=None, database=None)
@given(oracle_grids(), thetas, st.floats(0.0, 1.0), st.integers(1, 4))
def test_double_columns_match_the_oracle(grid, theta, fraction, steps):
    # run_double's columns against expm_oracle on init_double, at samples
    # up to the phase rule's edge.  The bound has the form of
    # test_exact_amplitudes_match_the_oracle's, C u (f t + 1) n.  At t = 0
    # both hold the start exactly.  Just after it the oracle still does,
    # while the run's u is the engine's sum of weights, off the start by up
    # to 4.1 u n, which p11 and c_ab magnify: up to 12.8 u n over 60k draws
    # of n <= 21, and 19 u n, above this C, over 60k of n <= 5 with half
    # the windows below 1e-10 of the edge.  That excess is the engine's,
    # and a dense eigh of the whole generator showed it too.  Elsewhere the
    # columns differed by up to 3.0 u (f t + 1) n.
    u, f = 2.0 ** -53, grid.frequency_bound
    t_max = fraction * (1e-6 / (u * f))
    traj = run_double(grid, theta, t_max, dt=t_max / steps or 1.0)
    state = init_double(theta, grid)
    for i, t in enumerate(traj.times):
        ref = expm_oracle(state, grid, t)
        expected = {"c_ab": concurrence_double_closed(ref), **observables_double(ref)}
        bound = 16.0 * u * (f * t + 1.0) * grid.n
        for name in ("p11", "p2", "p4", "c_ab"):
            assert abs(traj.records[name][i] - expected[name]) <= bound, name


@st.composite
def length_ratios(draw, n, omega_a=1e308):
    """L/lambda_a for n modes, log-uniform over the ratios SystemConfig admits
    with omega_a, or in about one draw in ten just above the least it admits,
    or in about one in ten a ratio it refuses: below 1, or so short that the
    lowest mode frequency is not positive."""
    half_span = (n - 1) // 2
    # 1 rather than 0, which hypothesis draws more often than one in ten
    branch = draw(st.integers(0, 9))
    if branch == 2 and half_span:
        # 1e-16 to 1e-8 relative above the least, where the lowest mode's
        # coupling is smallest: at omega_a above 1e305 the roots lie nearer
        # their modes than float64 resolves
        return repr(half_span * (1.0 + 10.0 ** draw(st.floats(-16.0, -8.0))))
    if branch != 1:
        # omega_a / L above about 1e-307 keeps the round trip 2 pi / spacing finite
        top = max(0.0, min(308.0, math.log10(omega_a) + 306.0))
        return repr(min(half_span + 10.0 ** draw(st.floats(0.0, top)), 1.7976931348623157e308))
    if half_span < 2 or draw(st.booleans()):
        return repr(10.0 ** draw(st.floats(-307.0, 0.0, exclude_max=True)))
    return repr(draw(st.floats(1.0, half_span, exclude_max=True)))


@st.composite
def grid_flags(draw):
    """--modes (odd, at most 21), --length-ratio and --omega-a over the
    float64 range: a grid SystemConfig admits, or in about one draw in ten
    one it refuses (see ``length_ratios``)."""
    n = 2 * draw(st.integers(0, 10)) + 1
    length_ratio = draw(length_ratios(n))
    # omega_a above 1e-307 L, so that the spacing omega_a / L leaves a
    # finite round trip, and in about one draw in five from 1e305 to 1.8e308
    low = max(-307.0, math.log10(float(length_ratio)) - 307.0)
    decades = st.floats(305.0, 308.25) if draw(st.integers(0, 4)) == 1 else st.floats(low, 308.0)
    return ["--modes", str(n), "--omega-a", repr(10.0 ** draw(decades)),
            "--length-ratio", length_ratio]

# a --tmax multiple of the default step: no window takes more than 501 steps
step_multiples = st.integers(1, 500) | st.floats(0.0, 500.0, exclude_min=True)


def argv_grid(argv):
    """The grid of a drawn command line, or None where SystemConfig refuses it."""
    def flag(name):
        return argv[argv.index(name) + 1]
    try:
        return build_mode_grid(SystemConfig(
            omega_a=float(flag("--omega-a")), length_ratio=float(flag("--length-ratio")),
            n_modes=int(flag("--modes")), coupling_profile=flag("--profile")))
    except ValueError:
        return None


@st.composite
def exact_argvs(draw):
    """A double run or a theta sweep point on a ``grid_flags`` grid, at its
    default window: the CLI refuses some grids with exit 2."""
    initial = draw(st.sampled_from((None, "atoms", "fields", "double")))
    command = ["double"] if initial is None else [
        "sweep", "--axis", "theta", "--values", repr(draw(thetas)), "--initial", initial]
    return [*command, *draw(grid_flags()),
            "--theta", repr(draw(thetas)), "--profile", draw(profiles),
            "--angle-convention", draw(st.sampled_from(("printed", "swapped")))]


@st.composite
def explicit_window_argvs(draw):
    """An ``exact_argvs`` command line whose --tmax is a drawn multiple of the
    grid's default step; a grid SystemConfig refuses keeps the default window."""
    argv = draw(exact_argvs())
    grid = argv_grid(argv)
    if grid is None:
        return argv
    return argv + ["--tmax", repr(draw(step_multiples) * default_step(grid))]


@st.composite
def kernel_argvs(draw):
    """A kernel trace on a ``grid_flags`` grid, at its default window of at
    most 1201 taus."""
    return ["kernel", *draw(grid_flags()), "--profile", draw(profiles)]


def run_in_folder(argv):
    """Exit code, stdout and the files by name of ``main(argv)`` writing into
    a fresh folder; the folder's path reads ``<out>`` in stdout."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as folder, contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", os.path.join(folder, "run.csv")])
        files = {}
        for name in os.listdir(folder):
            with open(os.path.join(folder, name), "rb") as handle:
                files[name] = handle.read()
    return code, stdout.getvalue().replace(folder, "<out>"), files


def check_run(argv, runs=1):
    """``main(argv)`` exits 0 or 2, and check_run returns that code.  On 2
    it writes nothing; on 0 it writes its ``runs`` CSVs, every cell finite,
    a default window prints no phase warning (it stops where float64 rounds
    the phases by the tolerance), and a default stride and step print no
    aliasing warning (the stride keeps two samples per period of the
    fastest column)."""
    code, stdout, files = run_in_folder(argv)
    assert code in (0, 2)
    if code == 2:
        assert files == {}
    # a sweep's summary has empty cells when nothing dies
    written = [name for name in files if not name.endswith("_summary.csv")]
    assert len(written) == (runs if code == 0 else 0)
    for name in written:
        cells = np.loadtxt(io.BytesIO(files[name]), delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(cells)), name
    if "--tmax" not in argv:
        assert "phases round" not in stdout
    if "--stride" not in argv and "--dt" not in argv:
        assert "alias" not in stdout
    return code


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
# frequency differences above the largest double: once exit 3, now exit 2
@example(["double", "--modes", "7", "--omega-a", "1e308", "--length-ratio",
          "3.1622776601683795", "--profile", "uniform"])
# a mode spacing of exactly 1e-150, the least before the G^2 / spacing rule
# replaced the floor
@example(["double", "--modes", "3", "--omega-a", "2e-150", "--length-ratio", "2"])
# secular terms up to G^2 / spacing = 21 / 1.2e-307 run, 21 / 1.1e-307 overflow
@example(["double", "--modes", "21", "--omega-a", "1.2e-300", "--length-ratio", "1e7",
          "--tmax", "1"])
@example(["double", "--modes", "21", "--omega-a", "1.1e-300", "--length-ratio", "1e7",
          "--tmax", "1"])
# a mode spacing of 1e-207, which the floor once refused
@example(["double", "--modes", "3", "--omega-a", "1e-200", "--length-ratio", "1e7", "--tmax", "1"])
# roots nearer their modes than float64 resolves: once exit 3, now exit 2
@example(["double", "--modes", "3", "--omega-a", "5.0e307", "--length-ratio",
          "1.0000000000000773"])
# offsets from the poles below the normal range: once exit 3, now exit 0
@example(["double", "--modes", "77", "--omega-a", "7.679692812501078e+307", "--length-ratio",
          "38.00000000902152"])
@example(["double", "--modes", "19", "--omega-a", "7.7e307", "--length-ratio", "9.000000069"])
def test_exact_runs_write_finite_cells_or_exit_2(argv):
    check_run(argv)


@settings(max_examples=200, deadline=None, database=None)
@given(explicit_window_argvs())
# eigenvector components g / (lam - delta) beyond the float range: once exit 3
@example(["double", "--modes", "11", "--omega-a", "1e+308", "--length-ratio", "6.0",
          "--theta", "0.0", "--profile", "sqrtfreq", "--angle-convention", "printed",
          "--tmax", "7.5398223686155e-310"])
def test_exact_runs_with_explicit_windows_write_finite_cells_or_exit_2(argv):
    check_run(argv)


@settings(max_examples=200, deadline=None, database=None)
@given(kernel_argvs())
def test_kernel_runs_write_finite_cells_or_exit_2(argv):
    check_run(argv)


# any positive spacing, as a --dt
spacings = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def kernel_step_argvs(draw):
    """A ``kernel_argvs`` trace with an explicit --dt and a --tmax of at
    most 500 of its steps: at most 501 taus."""
    dt = draw(spacings)
    return draw(kernel_argvs()) + ["--dt", repr(dt), "--tmax", repr(draw(step_multiples) * dt)]


@settings(max_examples=200, deadline=None, database=None)
@given(kernel_step_argvs())
def test_kernel_runs_with_explicit_steps_write_finite_cells_or_exit_2(argv):
    check_run(argv)


@st.composite
def single_grid_argvs(draw):
    """A single (RK4) run on a ``grid_flags`` grid, at its default window
    and step."""
    return ["single", *draw(grid_flags()),
            "--theta", repr(draw(thetas)), "--profile", draw(profiles),
            "--initial", draw(st.sampled_from(("atoms", "fields"))),
            "--angle-convention", draw(st.sampled_from(("printed", "swapped")))]


@st.composite
def single_argvs(draw):
    """A ``single_grid_argvs`` run whose --tmax is a drawn multiple, at most
    500, of the grid's default step: no example steps more than 501 times.
    A grid that SystemConfig refuses keeps the default window; the CLI exits
    2 on it."""
    argv = draw(single_grid_argvs())
    multiple = draw(step_multiples)
    grid = argv_grid(argv)
    if grid is None:
        return argv
    return argv + ["--tmax", repr(multiple * default_step(grid))]


@settings(max_examples=200, deadline=None, database=None)
@given(single_argvs())
def test_rk4_runs_write_finite_cells_or_exit_2(argv):
    check_run(argv)


@st.composite
def explicit_step_argvs(draw):
    """A run with an explicit --dt and a --tmax of at most 500 of its steps:
    a single run at 0.05 to 2 times its grid's RK4 stability limit, or a
    double run or theta sweep point at any positive spacing.  A grid that
    SystemConfig refuses keeps the default window and step."""
    argv = draw(exact_argvs() | single_grid_argvs())
    grid = argv_grid(argv)
    if grid is None:
        return argv
    if argv[0] == "single":
        dt = draw(st.floats(0.05, 2.0)) * stability_limit(grid)
    else:
        dt = draw(spacings)
    return argv + ["--dt", repr(dt), "--tmax", repr(draw(step_multiples) * dt)]


@settings(max_examples=200, deadline=None, database=None)
@given(explicit_step_argvs())
# phases lam t past the float range: once exit 3
@example(["double", "--modes", "3", "--omega-a", "100", "--length-ratio", "10",
          "--dt", "3.4e305", "--tmax", "1.7e308"])
def test_runs_with_explicit_steps_write_finite_cells_or_exit_2(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = check_run(argv)
    grid = argv_grid(argv)
    if argv[0] == "single" and grid is not None:
        dt, t_max = (float(argv[argv.index(flag) + 1]) for flag in ("--dt", "--tmax"))
        # a grid whose frequency differences overflow, or an empty window,
        # is refused before the step is checked
        if dt > stability_limit(grid) and 2.0 * grid.frequency_bound < math.inf and t_max > 0.0:
            assert code == 2
            assert "stability limit" in stderr.getvalue()


@st.composite
def axis_sweep_argvs(draw):
    """A sweep over one to three odd mode counts up to 21, or over one to
    three L/lambda_a values over the float64 range (``length_ratios`` of
    the drawn n and omega_a), at default windows."""
    axis = draw(st.sampled_from(("n_modes", "length_ratio")))
    grid = draw(grid_flags())
    value = (st.integers(0, 10).map(lambda k: str(2 * k + 1)) if axis == "n_modes"
             else length_ratios(int(grid[1]), float(grid[3])))
    values = draw(st.lists(value, min_size=1, max_size=3))
    return ["sweep", "--axis", axis, "--values", ",".join(values),
            "--initial", draw(st.sampled_from(("atoms", "fields", "double"))),
            *grid,
            "--theta", repr(draw(thetas)), "--profile", draw(profiles),
            "--angle-convention", draw(st.sampled_from(("printed", "swapped")))]


@settings(max_examples=100, deadline=None, database=None)
@given(axis_sweep_argvs())
def test_axis_sweeps_write_finite_cells_or_exit_2(argv):
    check_run(argv, runs=len(argv[argv.index("--values") + 1].split(",")))


# a --stride below and beyond the int64 range
strides = st.integers(1, 1000) | st.integers(1, 10 ** 20)


@st.composite
def strided_argvs(draw):
    """An explicit-window exact or RK4 run, at most 501 steps, with a drawn
    --stride."""
    return draw(explicit_window_argvs() | single_argvs()) + ["--stride", str(draw(strides))]


@settings(max_examples=100, deadline=None, database=None)
@given(strided_argvs())
def test_strided_runs_write_finite_cells_or_exit_2(argv):
    check_run(argv)


@settings(max_examples=100, deadline=None, database=None)
@given(explicit_step_argvs(), strides)
def test_strided_runs_with_explicit_steps_write_finite_cells_or_exit_2(argv, stride):
    # single, double and sweep runs of at most 501 steps
    check_run(argv + ["--stride", str(stride)])


@settings(max_examples=100, deadline=None, database=None)
@given(strided_argvs() | axis_sweep_argvs() | kernel_argvs())
def test_config_files_write_what_their_flags_write(argv):
    # every flag after the subcommand as a key=value line of a --config file
    lines = [f"{flag[2:].replace('-', '_')}={value}\n"
             for flag, value in zip(argv[1::2], argv[2::2])]
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "run.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        from_file = run_in_folder([argv[0], "--config", path])
    assert from_file == run_in_folder(argv)


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
       st.integers(1, 4), st.integers(1, 3 * _BLOCK))
# one row, and the block edges: one block, and two
@example([0.5, -0.0, math.nan], 2, 1)
@example([0.5, -0.0, math.nan], 2, _BLOCK)
@example([0.5, -0.0, math.nan], 2, 2 * _BLOCK)
def test_csv_cells_read_back_bit_for_bit(values, columns, rows):
    table = np.resize(np.array(values), (columns + 1, rows))
    records = {f"c{i}": col for i, col in enumerate(table[1:])}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, {"t": table[0], **records})
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
# every cell formatted by %, last-column cells included; nonfinite and
# 3-digit-exponent texts do not fill a cell, and % formats their block whole
@example([math.nan, -math.inf, 1e-300, -5e-324, 1e20, 1e-7], 2)
@example([math.inf, 0.5, -0.0, 1.0], 2)
# % texts of 23 characters fill their cells beside fast ones
@example([1e-50, 0.5, -1e50, -2e-7, 0.0, 1e99], 3)
# the point after every digit, and none (x = 16); trailing zeros before it
@example([s * 1.2345678901234567 * 10.0 ** x for x in range(17) for s in (1, -1)]
         + [10.0, 1234.5, 99999999.999999985], 3)
# the exponent's sign flips at 1 and at 0.1; the leads 10 and 99
@example([1.0, 0.99999999999999989, 0.1, -0.1, 0.099999999999999992, -1.0], 3)
@example([10.0, 99.0, -10.0, 99.999999999999986, 1.0000000000000002e-5], 5)
# mantissas that end in zeros, printed in full; both zeros
@example([0.5, 0.25, 1e16, -0.5, 0.0, -0.0], 2)
# 3-digit exponents, which do not fit a cell's slot, beside fast cells
@example([1e-100, 0.5, -1e-100, 1e100, -3.0, 0.0], 3)
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
