import math
import tracemalloc

import numpy as np
import pytest

import djcsim
import djcsim.double
import djcsim.single
from djcsim import evolve
from djcsim import (
    DoubleExcState,
    IntegrationError,
    concurrence_double_closed,
    concurrence_single_closed,
    observables_double,
    observables_single,
    SystemConfig,
    build_mode_grid,
    default_step,
    detect_revivals,
    expm_oracle,
    init_atoms_entangled,
    init_double,
    init_fields_entangled,
    integrate,
    retardation_time,
    run_double,
    run_single,
    stability_limit,
)
from djcsim.double import flat_derivative as double_derivative
from djcsim.evolve import (
    TIME_BLOCK,
    _GROUP_SUMS,
    _cavity_generator,
    _exact_atoms,
    _secular_roots,
    comb_spectrum,
    exact_amplitudes,
    sample_count,
    sample_times,
    step_count,
)
from djcsim.single import SingleExcState, flat_derivative as single_derivative


def reference_config(n_modes, length_ratio, profile="uniform"):
    return SystemConfig(omega_a=4840.0, length_ratio=length_ratio,
                        n_modes=n_modes, coupling_profile=profile)


def test_default_step_single_scale():
    grid = build_mode_grid(reference_config(1, 670.0))
    assert default_step(grid) == pytest.approx(2 * math.pi / 100.0, rel=1e-15)


@pytest.mark.parametrize(
    "n,length_ratio",
    [(19, 670.0), (99, 3480.0)],
)
def test_default_step_multimode(n, length_ratio):
    grid = build_mode_grid(reference_config(n, length_ratio))
    spacing = 4840.0 / length_ratio
    fastest = max((n - 1) / 2 * spacing, math.sqrt(n))
    assert default_step(grid) == pytest.approx(2 * math.pi / fastest / 100.0, rel=1e-12)


def test_resonant_amplitude_hits_analytic_zero():
    grid = build_mode_grid(reference_config(1, 670.0))
    state = init_atoms_entangled(math.pi / 4, grid)
    traj = run_single(grid, state, t_max=math.pi / 2, dt=1e-3)
    c1 = traj.records["re_c1"][-1] + 1j * traj.records["im_c1"][-1]
    assert traj.times[-1] == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(c1) <= 1e-6


def test_resonant_trajectory_matches_analytic_amplitudes():
    # C1(t) = cos(theta) cos(t), Ca(t) = -cos(theta) sin(t) for all t
    theta = math.pi / 5
    grid = build_mode_grid(reference_config(1, 670.0))
    state = init_atoms_entangled(theta, grid)
    traj = integrate(single_derivative(grid), state.to_vector(), 2.5, dt=1e-3,
                     sample_stride=100, observe=lambda t, y: {"vec": y.copy()})
    for t, vec in zip(traj.times, traj.records["vec"]):
        assert abs(vec[0] - math.cos(theta) * math.cos(t)) < 1e-9
        assert abs(vec[2] + math.cos(theta) * math.sin(t)) < 1e-9
        # cavity b mirrors with the sin(theta) weight
        assert abs(vec[1] - math.sin(theta) * math.cos(t)) < 1e-9
        assert abs(vec[3] + math.sin(theta) * math.sin(t)) < 1e-9


def test_zero_derivative_state_stays_constant():
    grid = build_mode_grid(reference_config(3, 670.0))
    traj = run_double(grid, 0.0, t_max=2.0, dt=1e-2)
    np.testing.assert_allclose(traj.records["p00"], 1.0, atol=0.0)
    np.testing.assert_allclose(traj.records["c_ab"], 0.0, atol=0.0)


def test_norm_conservation_n19_window():
    grid = build_mode_grid(reference_config(19, 670.0))
    state = init_atoms_entangled(math.pi / 4, grid)
    traj = run_single(grid, state, t_max=10.0, sample_stride=25)
    assert np.max(np.abs(traj.records["norm"] - 1.0)) <= 1e-8


def test_sampling_layout():
    grid = build_mode_grid(reference_config(1, 670.0))
    state = init_atoms_entangled(0.3, grid)
    traj = run_single(grid, state, t_max=0.95, dt=0.1, sample_stride=3)
    # samples at 0, every 3rd step, and the final partial step onto t_max
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 0.95], atol=1e-12)
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_argument_validation():
    deriv = lambda y: y
    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="dt"):
        integrate(deriv, y0, 1.0, dt=0.0)
    with pytest.raises(ValueError, match="t_max"):
        integrate(deriv, y0, -1.0, dt=0.1)
    with pytest.raises(ValueError, match="sample_stride"):
        integrate(deriv, y0, 1.0, dt=0.1, sample_stride=0)
    with pytest.raises(ValueError, match="stability"):
        integrate(deriv, y0, 1.0, dt=0.5, max_dt=0.4)


def test_run_rejects_unstable_step():
    grid = build_mode_grid(reference_config(19, 670.0))
    state = init_atoms_entangled(math.pi / 4, grid)
    with pytest.raises(ValueError, match="stability"):
        run_single(grid, state, t_max=1.0, dt=10.0 * stability_limit(grid))


def test_nonfinite_amplitudes_raise():
    exploding = lambda y: 1e200 * y
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="nonfinite"):
            integrate(exploding, np.array([1.0 + 0j]), 1.0, dt=0.5)


def mixed_row(t, y):
    """A record row of every value kind ``observe`` may return."""
    return {"float": float(abs(y[0]) ** 2), "complex": complex(y[1]),
            "float32": np.float32(y[0].real), "int": 3, "int64": np.int64(-7),
            "vector": np.abs(y) ** 2, "block": np.outer(y[:2], y[:2].conj()),
            "time": t}


@pytest.mark.parametrize("t_max,stride", [(0.0, 1), (0.1, 1), (2.37, 3), (2.0, 100)])
def test_integrate_columns_are_the_stacked_rows(t_max, stride):
    # each column is what stacking its key's row values gives: same key
    # order, dtype, shape and bytes; t_max = 0 records the start alone
    grid = build_mode_grid(reference_config(3, 670.0, profile="sqrtfreq"))
    rng = np.random.default_rng(5)
    y0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    rows = []

    def keep(t, y):
        rows.append(mixed_row(t, y))
        return rows[-1]

    traj = integrate(single_derivative(grid), y0, t_max, 0.01, sample_stride=stride,
                     observe=keep)
    assert len(rows) == len(traj.times) == sample_count(t_max, 0.01, stride)
    assert list(traj.records) == list(rows[0])
    for key, column in traj.records.items():
        expected = np.array([row[key] for row in rows])
        assert (column.dtype, column.shape) == (expected.dtype, expected.shape), key
        assert column.tobytes() == expected.tobytes(), key


def test_integrate_raises_part_way_through_its_columns():
    calls = 0

    def fails_later(y):
        nonlocal calls
        calls += 1
        return -1j * y if calls <= 40 else np.full_like(y, math.nan)

    with np.errstate(invalid="ignore"):
        with pytest.raises(IntegrationError, match="nonfinite amplitudes at t=0.12"):
            integrate(fails_later, np.ones(4, dtype=complex), 1.0, 0.01, sample_stride=2,
                      observe=mixed_row)


def test_integrate_memory_is_its_columns():
    # 10 float columns over 20,001 samples hold 1.6 MB, the times 0.16 MB;
    # kept as one dict per row they took about 10 MiB
    samples = 20_001
    keys = [f"x{i}" for i in range(10)]

    def ten_floats(t, y):
        value = float(y[0].real)
        return {key: value + i for i, key in enumerate(keys)}

    tracemalloc.start()
    try:
        traj = integrate(lambda y: -1j * y, np.ones(1, dtype=complex), (samples - 1) * 1e-3,
                         1e-3, observe=ten_floats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == samples
    assert peak <= 2 * 11 * 8 * samples  # twice the columns and times


def test_expm_oracle_identity_at_t_zero():
    grid = build_mode_grid(reference_config(3, 670.0))
    state = init_atoms_entangled(0.4, grid)
    back = expm_oracle(state, grid, 0.0)
    np.testing.assert_allclose(back.to_vector(), state.to_vector(), atol=1e-14)


def test_expm_oracle_resonant_half_period():
    grid = build_mode_grid(reference_config(1, 670.0))
    state = init_atoms_entangled(0.0, grid)
    evolved = expm_oracle(state, grid, math.pi)
    assert evolved.c1 == pytest.approx(-1.0, abs=1e-12)


def test_expm_oracle_dimension_cap():
    # no cap on the dimension: a double state of dimension 2 + 30 + 225 = 257
    # propagates as two 16-dimensional cavities
    cfg = SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=15)
    grid = build_mode_grid(cfg)
    state = init_double(0.5, grid)
    traj = run_double(grid, 0.5, t_max=1.0, dt=0.25)
    for t, p11 in zip(traj.times, traj.records["p11"]):
        assert abs(abs(expm_oracle(state, grid, t).d11) ** 2 - p11) <= 1e-10


def test_expm_oracle_shares_no_code_with_the_engines(monkeypatch):
    # the reference must not reach the secular solver, the phase sums, the
    # RK4 loop or the hand-written derivatives it is checked against
    def refuse(*args, **kwargs):
        raise AssertionError("expm_oracle called an engine")

    for module in (djcsim, evolve):
        for name in ("comb_spectrum", "integrate"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(evolve, "_secular_roots", refuse)
    monkeypatch.setattr(evolve.PhaseSeries, "_sums", refuse)
    monkeypatch.setattr(djcsim.single, "flat_derivative", refuse)
    monkeypatch.setattr(djcsim.double, "flat_derivative", refuse)
    grid = build_mode_grid(reference_config(3, 670.0))
    for state in (init_atoms_entangled(0.4, grid), init_double(0.4, grid)):
        evolved = expm_oracle(state, grid, 1.0)
        assert np.linalg.norm(evolved.to_vector()) == pytest.approx(1.0, abs=1e-12)


def test_expm_oracle_rejects_other_states():
    grid = build_mode_grid(reference_config(1, 670.0))
    state = init_atoms_entangled(0.4, grid)
    with pytest.raises(TypeError, match="^unsupported state type ndarray$"):
        expm_oracle(state.to_vector(), grid, 1.0)


def test_rk4_matches_expm_oracle_n3():
    # an entangled single state, and a random double state, which pins how
    # the oracle lays d11, d2, d3 and d4 out over the two cavities
    grid = build_mode_grid(reference_config(3, 670.0, profile="sqrtfreq"))
    rng = np.random.default_rng(3)
    vec = rng.normal(size=17) + 1j * rng.normal(size=17)  # 2 + 2n + n^2 amplitudes
    starts = ((init_atoms_entangled(math.pi / 4, grid), single_derivative(grid)),
              (DoubleExcState.from_vector(vec / np.linalg.norm(vec), 3), double_derivative(grid)))
    for state, deriv in starts:
        reference = expm_oracle(state, grid, 1.0).to_vector()
        traj = integrate(deriv, state.to_vector(), 1.0, dt=2e-3,
                         sample_stride=10 ** 9, observe=lambda t, y: {"vec": y.copy()})
        end = traj.records["vec"][-1]
        assert np.max(np.abs(end - reference)) <= 1e-6


def test_rk4_order_check():
    # halving dt must shrink the endpoint error by >= 12 (asymptotically 16)
    grid = build_mode_grid(reference_config(3, 670.0))
    state = init_atoms_entangled(math.pi / 4, grid)
    reference = expm_oracle(state, grid, 1.0).to_vector()
    errors = []
    for dt in (4e-3, 2e-3):
        traj = integrate(single_derivative(grid), state.to_vector(), 1.0, dt=dt,
                         sample_stride=10 ** 9, observe=lambda t, y: {"vec": y.copy()})
        errors.append(np.max(np.abs(traj.records["vec"][-1] - reference)))
    assert errors[0] / errors[1] >= 12.0


def test_time_reversal():
    grid = build_mode_grid(reference_config(3, 670.0))
    state = init_atoms_entangled(math.pi / 3, grid)
    deriv = single_derivative(grid)
    forward = integrate(deriv, state.to_vector(), 1.5, dt=2e-3,
                        sample_stride=10 ** 9, observe=lambda t, y: {"vec": y.copy()})
    turned = forward.records["vec"][-1]
    backward = integrate(lambda y: -deriv(y), turned, 1.5, dt=2e-3,
                         sample_stride=10 ** 9, observe=lambda t, y: {"vec": y.copy()})
    assert np.max(np.abs(backward.records["vec"][-1] - state.to_vector())) <= 1e-6


def test_linearity_in_the_initial_state():
    grid = build_mode_grid(reference_config(3, 670.0))
    state = init_atoms_entangled(math.pi / 4, grid)
    deriv = single_derivative(grid)
    full = integrate(deriv, state.to_vector(), 1.0, dt=5e-3,
                     observe=lambda t, y: {"vec": y.copy()})
    half = integrate(deriv, 0.5 * state.to_vector(), 1.0, dt=5e-3,
                     observe=lambda t, y: {"vec": y.copy()})
    np.testing.assert_allclose(half.records["vec"], 0.5 * full.records["vec"],
                               atol=1e-14)


def test_generators_match_derivatives():
    # the hand-written right-hand sides against the oracle's one-cavity
    # generator A on random vectors: applied to each cavity block (atom,
    # photons) of a single state, and as A^T Psi + Psi A to a double state's
    # Psi over [cavity a, cavity b], atom first, with d00 constant
    rng = np.random.default_rng(31)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for n, length_ratio in ((1, 670.0), (3, 670.0), (19, 670.0), (99, 3480.0)):
        for profile in ("uniform", "sqrtfreq"):
            grid = build_mode_grid(reference_config(n, length_ratio, profile=profile))
            a = _cavity_generator(grid)
            d_single = single_derivative(grid)
            d_double = double_derivative(grid)
            for _ in range(5):
                block_a, block_b = normal(n + 1), normal(n + 1)
                v = SingleExcState(block_a[0], block_b[0], block_a[1:], block_b[1:])
                da, db = a @ block_a, a @ block_b
                expected = SingleExcState(da[0], db[0], da[1:], db[1:]).to_vector()
                np.testing.assert_allclose(d_single(v.to_vector()), expected, rtol=0,
                                           atol=1e-13)
                psi = normal(n + 1, n + 1)
                w = DoubleExcState(normal(1)[0], psi[0, 0], psi[0, 1:], psi[1:, 0],
                                   psi[1:, 1:])
                dpsi = a.T @ psi + psi @ a
                expected = DoubleExcState(0.0, dpsi[0, 0], dpsi[0, 1:], dpsi[1:, 0],
                                          dpsi[1:, 1:]).to_vector()
                # rounding scales with the largest entry, which
                # -i (delta_mu + delta_nu) d4 takes to about 300 at n = 99
                np.testing.assert_allclose(d_double(w.to_vector()), expected, rtol=0,
                                           atol=1e-14 * np.max(np.abs(expected)))


def textbook_rk4(deriv, y, t_max, dt, stride):
    """The classic RK4 loop, stage sum written out, sampled like integrate."""
    y = np.array(y, dtype=complex)
    n_steps = math.ceil(t_max / dt - 1e-12)
    samples = [y]
    for i in range(n_steps):
        h = dt if i + 1 < n_steps else t_max - (n_steps - 1) * dt
        k1 = deriv(y)
        k2 = deriv(y + (0.5 * h) * k1)
        k3 = deriv(y + (0.5 * h) * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(y)
    return np.array(samples)


def nested_rk4(deriv, y, t_max, dt, stride):
    """RK4's stability polynomial in nested form, written out and sampled
    like integrate: textbook_rk4 to rounding for a linear, time-independent
    deriv."""
    y = np.array(y, dtype=complex)
    n_steps = math.ceil(t_max / dt - 1e-12)
    samples = [y]
    for i in range(n_steps):
        h = dt if i + 1 < n_steps else t_max - (n_steps - 1) * dt
        y = y + h * deriv(y + (h / 2.0) * deriv(y + (h / 3.0) * deriv(y + (h / 4.0) * deriv(y))))
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            samples.append(y)
    return np.array(samples)


def rk4_case(kind, n):
    """A derivative factory, a random start and the default step on a
    sqrtfreq grid of n modes."""
    grid = build_mode_grid(reference_config(n, 670.0, profile="sqrtfreq"))
    make = single_derivative if kind == "single" else double_derivative
    dim = 2 + 2 * n + (n * n if kind == "double" else 0)
    rng = np.random.default_rng(n)
    y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return lambda: make(grid), y0, default_step(grid)


RK4_GRIDS = [("single", 1), ("single", 19), ("single", 99), ("double", 3)]


@pytest.mark.parametrize("kind,n", RK4_GRIDS)
def test_integrate_is_textbook_rk4_bit_for_bit(kind, n):
    # on a linear, time-independent deriv textbook RK4 is its stability
    # polynomial, which nested_rk4 writes out; the next test ties that to
    # the stage form
    make, y0, dt = rk4_case(kind, n)
    t_max = 200.37 * dt  # the last step is shortened
    traj = integrate(make(), y0, t_max, dt, sample_stride=7,
                     observe=lambda t, y: {"vec": y.copy()})
    expected = nested_rk4(make(), y0, t_max, dt, 7)
    assert traj.records["vec"].tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind,n", RK4_GRIDS)
@pytest.mark.parametrize("steps", [200.37, 2000.37])
def test_integrate_is_textbook_rk4_to_rounding(kind, n, steps):
    # the nested form reorders the stage form's arithmetic; measured at most
    # 1.4e-15 relative at 200.37 steps and 6.9e-15 at 2000.37
    make, y0, dt = rk4_case(kind, n)
    traj = integrate(make(), y0, steps * dt, dt, sample_stride=7,
                     observe=lambda t, y: {"vec": y.copy()})
    expected = textbook_rk4(make(), y0, steps * dt, dt, 7)
    assert traj.records["vec"].shape == expected.shape
    assert np.max(np.abs(traj.records["vec"] - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind,n", [("single", 19), ("double", 3)])
@pytest.mark.parametrize("steps", [0.37, 200.0, 2.0])
@pytest.mark.parametrize("stride", [1, 7])
def test_integrate_is_textbook_rk4_on_every_last_step(kind, n, steps, stride):
    # integrate sets its step operands once for the full steps and again for
    # the last: a lone shortened step, a whole number of steps and two steps
    make, y0, dt = rk4_case(kind, n)
    t_max = steps * dt
    traj = integrate(make(), y0, t_max, dt, sample_stride=stride,
                     observe=lambda t, y: {"vec": y.copy()})
    expected = nested_rk4(make(), y0, t_max, dt, stride)
    assert traj.records["vec"].tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind,n", [("single", 19), ("double", 3)])
def test_integrate_never_writes_into_a_sampled_vector(kind, n):
    # observe keeps each vector as handed out; a later step writing into
    # one of them would change the kept samples
    make, y0, dt = rk4_case(kind, n)
    t_max = 60.5 * dt
    kept = []

    def keep(t, y):
        kept.append(y)
        return {}

    integrate(make(), y0, t_max, dt, sample_stride=1, observe=keep)
    expected = nested_rk4(make(), y0, t_max, dt, 1)
    assert len({id(y) for y in kept}) == len(kept)
    assert np.array(kept).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["single", "double"])
def test_flat_derivatives_return_a_new_array(kind):
    n = 5
    grid = build_mode_grid(reference_config(n, 670.0, profile="sqrtfreq"))
    deriv = (single_derivative if kind == "single" else double_derivative)(grid)
    dim = 2 + 2 * n + (n * n if kind == "double" else 0)
    rng = np.random.default_rng(3)
    y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    before = y.copy()
    first = deriv(y)
    assert not np.shares_memory(first, y)
    assert y.tobytes() == before.tobytes()
    second = deriv(y)
    assert not np.shares_memory(second, first)
    assert second.tobytes() == first.tobytes()


@pytest.mark.parametrize("n,length_ratio", [(1, 670.0), (19, 670.0), (99, 3480.0)])
@pytest.mark.parametrize("start", ["atoms", "fields"])
def test_rk4_columns_are_the_closed_forms_bit_for_bit(n, length_ratio, start):
    grid = build_mode_grid(reference_config(n, length_ratio, profile="sqrtfreq"))
    init = init_atoms_entangled if start == "atoms" else init_fields_entangled
    state = init(0.6, grid)
    dt = default_step(grid)
    t_max = 150.5 * dt
    traj = run_single(grid, state, t_max, dt=dt, sample_stride=3)
    vectors = integrate(single_derivative(grid), state.to_vector(), t_max, dt,
                        sample_stride=3, observe=lambda t, y: {"vec": y.copy()})
    states = [SingleExcState.from_vector(v, n) for v in vectors.records["vec"]]
    expected = {"c_ab": [concurrence_single_closed(st) for st in states]}
    for key in ("pop1", "pop2", "pop_cav_a", "pop_cav_b", "norm"):
        expected[key] = [observables_single(st)[key] for st in states]
    for atom in ("c1", "c2"):
        expected[f"re_{atom}"] = [float(getattr(st, atom).real) for st in states]
        expected[f"im_{atom}"] = [float(getattr(st, atom).imag) for st in states]
    assert list(traj.records) == list(expected)
    for key, values in expected.items():
        assert traj.records[key].tobytes() == np.array(values).tobytes(), key


def test_trajectory_of_length_zero_window():
    grid = build_mode_grid(reference_config(1, 670.0))
    state = init_atoms_entangled(0.7, grid)
    traj = run_single(grid, state, t_max=0.0, dt=1e-2)
    assert len(traj) == 1
    assert traj.times[0] == 0.0
    assert traj.records["norm"][0] == pytest.approx(1.0)


def test_double_run_records_expected_columns():
    grid = build_mode_grid(reference_config(3, 670.0))
    traj = run_double(grid, math.pi / 6, t_max=0.5, dt=1e-3, sample_stride=50)
    assert list(traj.records) == ["c_ab", "p11", "p2", "p3", "p4", "p00", "norm"]
    assert traj.records["p00"][0] == pytest.approx(0.75)


def test_double_populations_stay_in_range_just_after_the_start():
    # At t = 1e-100 u(t) is the sum of the weights, which rounds |u|^2 above
    # 1 on 45 of these 200 grids: unclamped, p2 = p3 reached -1.3e-15 and
    # p11 1 + 2.7e-15.
    rng = np.random.default_rng(5)
    theta = math.pi / 2
    for _ in range(200):
        grid = build_mode_grid(SystemConfig(
            omega_a=10.0 ** rng.uniform(0.0, 6.0), length_ratio=10.0 ** rng.uniform(3.0, 4.0),
            n_modes=3, coupling_profile=("uniform", "sqrtfreq")[rng.integers(2)]))
        columns = run_double(grid, theta, 1e-100, dt=1e-100).records
        assert np.array_equal(columns["p2"], columns["p3"])
        assert np.all(columns["p2"] >= 0.0) and np.all(columns["p4"] >= 0.0)
        assert np.all(columns["p11"] <= math.sin(theta) ** 2)


def test_single_run_records_expected_columns():
    grid = build_mode_grid(reference_config(3, 670.0))
    traj = run_single(grid, init_atoms_entangled(math.pi / 4, grid), t_max=0.5,
                      dt=1e-3, sample_stride=50)
    assert list(traj.records) == [
        "c_ab", "pop1", "pop2", "pop_cav_a", "pop_cav_b", "norm",
        "re_c1", "im_c1", "re_c2", "im_c2",
    ]


def random_single_state(n, rng):
    vec = rng.normal(size=2 + 2 * n) + 1j * rng.normal(size=2 + 2 * n)
    return SingleExcState.from_vector(vec / np.linalg.norm(vec), n)


@pytest.mark.parametrize("n", [1, 3, 19])
@pytest.mark.parametrize("profile", ["uniform", "sqrtfreq"])
def test_exact_single_matches_expm_oracle(n, profile):
    # a generic start sums both cavities' series; the CLI's starts, with
    # cavity b's start a multiple of cavity a's, sum one
    grid = build_mode_grid(reference_config(n, 670.0, profile))
    states = [random_single_state(n, np.random.default_rng(n))] + [
        init(theta, grid) for init in (init_atoms_entangled, init_fields_entangled)
        for theta in (0.0, math.pi / 7, math.pi / 2)]
    for state in states:
        traj = run_single(grid, state, t_max=3.0, dt=0.35, engine="exact")
        assert len(traj) == 10
        rec = traj.records
        for i, t in enumerate(traj.times):
            ref = expm_oracle(state, grid, t)
            assert abs(rec["re_c1"][i] + 1j * rec["im_c1"][i] - ref.c1) <= 1e-10
            assert abs(rec["re_c2"][i] + 1j * rec["im_c2"][i] - ref.c2) <= 1e-10
            assert abs(rec["pop_cav_a"][i] - np.sum(np.abs(ref.ca) ** 2)) <= 1e-10
            assert abs(rec["pop_cav_b"][i] - np.sum(np.abs(ref.cb) ** 2)) <= 1e-10
            assert abs(rec["c_ab"][i] - concurrence_single_closed(ref)) <= 1e-10


def two_series_columns(grid, state, t_max, dt):
    """``run_single``'s exact columns with both cavities' series summed, as
    for any start: the reference for the one-series path."""
    times, (c1, c2), _ = _exact_atoms(grid, [(state.c1, state.ca), (state.c2, state.cb)],
                                      t_max, dt, 1)
    start = observables_single(state)
    block_a = start["pop1"] + start["pop_cav_a"]
    block_b = start["pop2"] + start["pop_cav_b"]
    pop1 = np.minimum(np.abs(c1) ** 2, block_a)
    pop2 = np.minimum(np.abs(c2) ** 2, block_b)
    pop_a, pop_b = block_a - pop1, block_b - pop2
    return times, {"c_ab": 2.0 * np.abs(c1) * np.abs(c2), "pop1": pop1, "pop2": pop2,
                   "pop_cav_a": pop_a, "pop_cav_b": pop_b,
                   "norm": pop1 + pop2 + pop_a + pop_b,
                   "re_c1": c1.real, "im_c1": c1.imag, "re_c2": c2.real, "im_c2": c2.imag}


def test_start_ratio_needs_an_exact_normal_multiple():
    grid = build_mode_grid(reference_config(19, 670.0))
    for init in (init_atoms_entangled, init_fields_entangled):
        for theta in (0.0, math.pi / 7, math.pi / 2):
            state = init(theta, grid)
            a = np.concatenate(([state.c1], state.ca))
            b = np.concatenate(([state.c2], state.cb))
            assert evolve._start_ratio(a, b) == b[np.argmax(np.abs(a))] / np.max(np.abs(a))
    a = np.array([0.6, 0.0, 0.8j])
    assert evolve._start_ratio(a, 0.5 * a) == 0.5
    b = 0.5 * a
    b[1] = 1e-300  # not a multiple
    assert evolve._start_ratio(a, b) is None
    assert evolve._start_ratio(np.zeros(3), a) is None
    # a subnormal pivot, and a quotient past the float range
    assert evolve._start_ratio(np.array([1e-310, 0.0]), np.array([1e-5, 0.0])) is None
    assert evolve._start_ratio(np.array([1e-300, 0.0]), np.array([1e10, 0.0])) is None


@pytest.mark.parametrize("n,length_ratio", [(1, 670.0), (19, 670.0), (99, 3480.0)])
def test_shared_start_sums_one_series(n, length_ratio, monkeypatch):
    grid = build_mode_grid(reference_config(n, length_ratio, "sqrtfreq"))
    t_max, dt = 3.0, default_step(grid)
    u = 2.0 ** -53
    summed = []

    def counted(grid, blocks, *args):
        summed.append(len(blocks))
        return _exact_atoms(grid, blocks, *args)

    monkeypatch.setattr(evolve, "_exact_atoms", counted)

    def bits(columns):
        return {key: column.tobytes() for key, column in columns.items()}

    # a generic start keeps the two-series sum, bit for bit
    state = random_single_state(n, np.random.default_rng(n))
    _, expected = two_series_columns(grid, state, t_max, dt)
    assert bits(run_single(grid, state, t_max, dt, engine="exact").records) == bits(expected)
    assert summed == [2]

    # a shared start sums one series and moves only cavity b's columns: c2
    # is a second evaluation of one amplitude, plus the rounding of r and of
    # r c1, and a population |c|^2 moves by up to twice its amplitude
    cavity_b = ("c_ab", "pop2", "pop_cav_b", "norm", "re_c2", "im_c2")
    for init in (init_atoms_entangled, init_fields_entangled):
        for theta in (0.0, math.pi / 7, 0.6474864616138795, math.pi / 2):
            state = init(theta, grid)
            times, expected = two_series_columns(grid, state, t_max, dt)
            summed.clear()
            got = run_single(grid, state, t_max, dt, engine="exact").records
            assert summed == [1]
            assert list(got) == list(expected)
            bound = 2.0 * (amplitude_bound(grid, times) + 2.0 * u)
            for key in expected:
                if key in cavity_b:
                    assert np.all(np.abs(got[key] - expected[key]) <= bound), (init, theta, key)
                else:
                    assert got[key].tobytes() == expected[key].tobytes(), key
            # the start itself at t = 0
            assert got["re_c2"][0] + 1j * got["im_c2"][0] == state.c2
            assert got["pop_cav_b"][0] == expected["pop_cav_b"][0]
            if theta == 0.0:
                # cavity b is empty: +0 throughout, as the sum of zero weights gives
                for key in ("c_ab", "pop2", "pop_cav_b", "re_c2", "im_c2"):
                    assert not np.any(got[key]) and not np.any(np.signbit(got[key]))


@pytest.mark.parametrize("n", [1, 3, 19, 49])
def test_exact_double_matches_expm_oracle(n):
    # n = 49 is the esd-double benchmark workload's grid
    config = (SystemConfig(omega_a=11100.0, length_ratio=1720.0, n_modes=49) if n == 49
              else reference_config(n, 670.0, "sqrtfreq"))
    grid = build_mode_grid(config)
    state = init_double(1.1, grid)
    traj = run_double(grid, 1.1, t_max=3.0, dt=0.35)
    for i, t in enumerate(traj.times):
        ref = expm_oracle(state, grid, t)
        expected = {"c_ab": concurrence_double_closed(ref), **observables_double(ref)}
        for name, value in expected.items():
            assert abs(traj.records[name][i] - value) <= 1e-10, name


@pytest.mark.parametrize("n,omega_a,length_ratio,profile", [
    (5, 1.06e-3, 2.93e5, "sqrtfreq"),
    (11, 2.05e-3, 1.48e5, "uniform"),
])
def test_exact_amplitudes_match_60_digit_arithmetic(n, omega_a, length_ratio, profile):
    # Two grids at the phase rule's edge, where float64 rounds a phase
    # lam t by 1e-6: the engine against a 60-digit eigendecomposition of the
    # arrowhead, for the atom start and a random one, within its own bound
    # u (f t + 1) n, without the factor the float64 oracle needs.
    mpmath = pytest.importorskip("mpmath")
    grid = build_mode_grid(SystemConfig(omega_a=omega_a, length_ratio=length_ratio,
                                        n_modes=n, coupling_profile=profile))
    state = random_single_state(n, np.random.default_rng(n))
    starts = [(1.0, np.zeros(n)), (state.c1, state.ca)]
    u, f = 2.0 ** -53, grid.frequency_bound
    times = np.linspace(0.0, 1e-6 / (u * f), 9)
    series, _ = exact_amplitudes(grid, starts)
    with mpmath.workdps(60):
        arrow = mpmath.diag([0.0, *grid.detunings.tolist()])
        for k, g in enumerate(grid.couplings.tolist(), start=1):
            arrow[0, k] = arrow[k, 0] = g
        lam, vecs = mpmath.eigsy(arrow)
        for (atom0, photons0), got in zip(starts, series.at(times)):
            # the photons enter with the factor i, as in exact_amplitudes
            start = [complex(atom0), *(1j * photons0).tolist()]
            weights = [vecs[0, j] * mpmath.fsum(vecs[k, j] * start[k] for k in range(n + 1))
                       for j in range(n + 1)]
            for t, value in zip(times.tolist(), got):
                exact = mpmath.fsum(w * mpmath.expj(-lam[j] * t) for j, w in enumerate(weights))
                assert abs(value - complex(exact)) <= u * (f * t + 1.0) * n


@pytest.mark.parametrize("n", [1, 19, 99, 499])
def test_comb_spectrum_matches_eigvalsh(n):
    grid = build_mode_grid(reference_config(n, 3480.0, "sqrtfreq"))
    arrow = np.diag(np.concatenate(([0.0], grid.detunings)))
    arrow[0, 1:] = arrow[1:, 0] = grid.couplings
    spectrum = comb_spectrum(grid)
    np.testing.assert_allclose(spectrum.eigenvalues, np.linalg.eigvalsh(arrow),
                               rtol=0.0, atol=1e-10)
    assert spectrum.residual <= 1e-12
    assert spectrum.orthogonality <= 1e-12
    vectors = np.vstack([spectrum.atom, spectrum.photon.T])
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(n + 1), rtol=0.0, atol=1e-12)
    # every row of A V - V Lambda, the photon rows the run no longer checks too
    lam = spectrum.eigenvalues
    rows = np.max(np.abs(arrow @ vectors - vectors * lam), axis=1)
    assert np.all(rows <= 1e-12 * (1.0 + np.max(np.abs(lam))))


def test_comb_spectrum_peak_memory():
    n = 499
    grid = build_mode_grid(reference_config(n, 3480.0, "sqrtfreq"))
    tracemalloc.start()
    try:
        comb_spectrum(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about four (n+1) x n float64 arrays: the buffer, the overlap and
    # their temporaries
    assert peak <= 5 * (n + 1) * n * 8


def test_comb_spectrum_reports_a_nan_grid():
    grid = build_mode_grid(reference_config(3, 670.0))
    bad = type(grid)(grid.detunings, np.array([1.0, math.nan, 1.0]), grid.spacing)
    assert math.isnan(comb_spectrum(bad).residual)
    with pytest.raises(IntegrationError, match="eigen residual"):
        run_single(bad, init_atoms_entangled(0.3, bad), 1.0, dt=0.1, engine="exact")


def bisected_roots(grid, origin=None):
    """The arrowhead's eigenvalues by plain bisection of every root together,
    each as its pole delta[origin] and its offset from it, until no bracket
    holds another float.  By default an interior root takes the pole on its
    side of the gap's midpoint, where f changes sign.  Every bracket is
    formed as offsets from its pole (the whole gap on the pole's side, or
    the outer roots' reach), so no end rounds onto a pole however wide the
    spacing, and f is evaluated only strictly inside a bracket, never on a
    pole."""
    delta, g2, n = grid.detunings, grid.couplings ** 2, grid.n
    width = np.diff(delta)
    if origin is None:
        half = 0.5 * width
        low_half = (delta[:-1] + half
                    - np.sum(g2 / (half[:, None] - (delta - delta[:-1, None])), axis=1) > 0.0)
        origin = np.concatenate(([0], np.where(low_half, np.arange(n - 1), np.arange(1, n)),
                                 [n - 1]))
    up = origin[1:-1] < np.arange(1, n)  # an interior root above its pole
    reach = grid.collective_coupling
    lo = np.concatenate(([min(0.0, -delta[0]) - reach], np.where(up, 0.0, -width), [0.0]))
    hi = np.concatenate(([0.0], np.where(up, width, 0.0), [max(0.0, -delta[-1]) + reach]))
    pole = delta[origin]
    offsets = delta - pole[:, None]
    while True:
        tau = 0.5 * (lo + hi)
        open_ = np.flatnonzero((lo < tau) & (tau < hi))
        if not open_.size:
            return origin, tau
        t = tau[open_]
        rising = pole[open_] + t - np.sum(g2 / (t[:, None] - offsets[open_]), axis=1) > 0.0
        hi[open_] = np.where(rising, t, hi[open_])
        lo[open_] = np.where(rising, lo[open_], t)


#: The reference comb at every size, two weak-coupling combs whose spacing
#: is far above the coupling, and a strong-coupling comb whose spacing
#: (0.029) is far below it.
SOLVER_GRIDS = [
    *[reference_config(n, 3480.0, profile) for n in (1, 3, 19, 49, 99, 499)
      for profile in ("uniform", "sqrtfreq")],
    SystemConfig(omega_a=19489.3, length_ratio=224.14, n_modes=5, coupling_profile="sqrtfreq"),
    SystemConfig(omega_a=13823.9, length_ratio=292.29, n_modes=37, coupling_profile="uniform"),
    SystemConfig(omega_a=100.0, length_ratio=3480.0, n_modes=99),
]


@pytest.mark.parametrize("config", SOLVER_GRIDS)
def test_comb_spectrum_matches_bisection(config):
    grid = build_mode_grid(config)
    lam = comb_spectrum(grid).eigenvalues
    origin, tau = bisected_roots(grid)
    reference = grid.detunings[origin] + tau
    assert np.all(np.abs(lam - reference) <= 4e-15 * (1.0 + np.abs(reference)))


@pytest.mark.parametrize("config", SOLVER_GRIDS)
def test_scaled_rows_are_the_unscaled_formula_bit_for_bit(config):
    # comb_spectrum divides each row by a power of two before squaring it;
    # that is exact, so every bit is the unscaled formula's on these grids
    grid = build_mode_grid(config)
    delta, g = grid.detunings, grid.couplings
    origin, tau, _ = _secular_roots(delta, g * g, grid.collective_coupling)
    lam = delta[origin] + tau
    gaps = tau[:, None] - (delta - delta[origin][:, None])
    ratio = g / gaps
    norm2 = 1.0 + np.sum(ratio * ratio, axis=1)
    atom = 1.0 / np.sqrt(norm2)
    photon = ratio * atom[:, None]
    secular = np.sum(g * g / gaps, axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 on the diagonal, replaced below
        overlap = np.outer(atom, atom) * (
            1.0 + (secular - secular[:, None]) / (lam[:, None] - lam))
    np.fill_diagonal(overlap, atom * atom * norm2 - 1.0)
    residual = np.max(np.abs(np.sum(g * photon, axis=1) - lam * atom))
    spectrum = comb_spectrum(grid)
    for name, value in [("eigenvalues", lam), ("atom", atom), ("photon", photon),
                        ("residual", residual), ("orthogonality", np.max(np.abs(overlap)))]:
        assert np.asarray(getattr(spectrum, name)).tobytes() == np.asarray(value).tobytes(), name


# Combs far narrower than their coupling, whose outer roots lie within an
# ulp of their brackets' outer ends: the model's step landed on that end,
# fell back to the midpoint, and the solve halved its brackets for 30, 9
# and 9 sweeps.
NARROW_COMBS = [
    SystemConfig(omega_a=3.6391652094255504e-51, length_ratio=28.758439624912537, n_modes=11,
                 coupling_profile="sqrtfreq"),
    SystemConfig(omega_a=1e-93, length_ratio=1e7, n_modes=3, coupling_profile="sqrtfreq"),
    SystemConfig(omega_a=1e-153, length_ratio=1e7, n_modes=3, coupling_profile="sqrtfreq"),
]


@pytest.mark.parametrize("config", SOLVER_GRIDS + NARROW_COMBS)
def test_comb_spectrum_converges_in_few_sweeps(config):
    spectrum = comb_spectrum(build_mode_grid(config))
    assert 1 <= spectrum.sweeps <= 8
    assert spectrum.residual <= 1e-10 and spectrum.orthogonality <= 1e-10


@pytest.mark.parametrize("n,length_ratio,omega_a", [
    (3, 3.0, 1e20), (3, 3.0, 1e50), (3, 3.0, 1e150), (101, 3000.0, 1e149),
    # max|delta| / min g near 1e300, where the squared components overflowed
    (3, 3.0, 1e300), (2001, 1e4, 1e300),
    # components max|delta| / min g near 2e308, which overflowed themselves
    (11, 6.0, 1e308),
    # outer offsets g^2 / |delta| below the normal range, which hold the
    # secular function to fewer bits than its rounding test asked for: the
    # solve bisected for 2093 and 3 sweeps and failed its check
    (77, 38.00000000902152, 7.679692812501078e307),
    (47, 23.24555638193215, 6.281412361132682e307),
])
def test_comb_spectrum_converges_in_few_sweeps_at_wide_spacing(n, length_ratio, omega_a):
    # Roots lie about g^2 / spacing from their poles, far nearer than the
    # bracket's middle: a start there fell back to halving the bracket.
    grid = build_mode_grid(SystemConfig(omega_a=omega_a, length_ratio=length_ratio,
                                        n_modes=n))
    spectrum = comb_spectrum(grid)
    assert spectrum.sweeps <= 8
    assert spectrum.residual <= 1e-10 and spectrum.orthogonality <= 1e-10


@pytest.mark.parametrize("n,length_ratio,omega_a", [
    (3, 3.0, 1e20), (3, 3.0, 1e50), (3, 3.0, 1e150), (101, 3000.0, 1e100), (101, 3000.0, 1e149),
])
def test_comb_spectrum_offsets_match_bisection_at_wide_spacing(n, length_ratio, omega_a):
    # Every root lies within an ulp of its pole, so the eigenvalues round to
    # the poles and only the offsets tell a wrong root from a right one.
    grid = build_mode_grid(SystemConfig(omega_a=omega_a, length_ratio=length_ratio,
                                        n_modes=n))
    origin, tau, _ = _secular_roots(grid.detunings, grid.couplings ** 2,
                                    grid.collective_coupling)
    _, reference = bisected_roots(grid, origin)
    assert np.all(np.abs(tau - reference) <= 4e-15 * np.abs(reference))


def narrow_grid(n, profile, spacing):
    """The reference comb length at a mode spacing far below the coupling."""
    return build_mode_grid(SystemConfig(omega_a=spacing * 3480.0, length_ratio=3480.0,
                                        n_modes=n, coupling_profile=profile))


@pytest.mark.parametrize("spacing", [1e-160, 1e-230, 1e-300])
@pytest.mark.parametrize("n", [3, 19, 99])
@pytest.mark.parametrize("profile", ["uniform", "sqrtfreq"])
def test_comb_spectrum_keeps_its_sweeps_at_narrow_spacing(profile, n, spacing):
    # Below a spacing of about 1e-154 the slope g^2 / (delta - lam)^2 alone
    # overflows; held in units of a power of two near the spacing, the model
    # takes the same sweeps as at 1e-140, not the 49 to 52 of every root
    # halving its bracket.
    grid = narrow_grid(n, profile, spacing)
    origin, tau, sweeps = _secular_roots(grid.detunings, grid.couplings ** 2,
                                         grid.collective_coupling)
    _, reference = bisected_roots(grid, origin)
    assert np.all(np.abs(tau - reference) <= 4e-15 * np.abs(reference))
    assert sweeps == comb_spectrum(narrow_grid(n, profile, 1e-140)).sweeps


@pytest.mark.parametrize("omega_a", [1e16, 3e16, 1e17, 1e20, 1e100])
def test_comb_spectrum_brackets_outer_roots_at_wide_spacing(omega_a):
    # From a spacing of about 1e16, G = 1.7 is within an ulp of the outer
    # poles +-omega_a / 3, so delta_0 - G rounds onto delta_0: the outer
    # brackets must be held as offsets -G and +G from their poles.
    grid = build_mode_grid(SystemConfig(omega_a=omega_a, length_ratio=3.0, n_modes=3))
    spectrum = comb_spectrum(grid)
    assert spectrum.residual <= 1e-10 and spectrum.orthogonality <= 1e-10
    assert spectrum.eigenvalues[0] <= grid.detunings[0] < spectrum.eigenvalues[1]
    assert spectrum.eigenvalues[-2] < grid.detunings[-1] <= spectrum.eigenvalues[-1]


@pytest.mark.parametrize("t_max,dt,stride", [
    (0.95, 0.1, 3), (1.0, 0.1, 1), (1.0, 0.25, 10 ** 9), (0.0, 0.1, 1),
    (22.5887, 0.00092227, 12), (3.0, 0.35, 2),
])
def test_sample_times_match_integrate(t_max, dt, stride):
    traj = integrate(lambda y: 0 * y, np.array([1.0 + 0j]), t_max, dt, sample_stride=stride)
    assert np.array_equal(sample_times(t_max, dt, stride), traj.times)
    # the schedule itself, from Python ints: the start, every stride-th step
    # short of the last one, then t_max
    n_steps = step_count(t_max, dt)
    inner = [k * dt for k in range(stride, n_steps, stride)]
    expected = [0.0] + inner + [t_max] if n_steps else [0.0]
    assert traj.times.tolist() == expected
    assert sample_count(t_max, dt, stride) == len(expected)


def test_sample_times_stay_float_beyond_int64():
    times = sample_times(1.0, 0.1, 2 ** 70)
    assert times.dtype == np.float64
    assert times.tolist() == [0.0, 1.0]
    # 1e20 steps: the multiples of the stride exceed the int64 range
    times = sample_times(1e19, 0.1, 10 ** 17)
    assert times.dtype == np.float64
    assert times[1] == 1e17 * 0.1 and times[-1] == 1e19 and len(times) == 1001


# the starts one vecdot call sums on a sample grid
GROUP = _GROUP_SUMS // TIME_BLOCK


@pytest.mark.parametrize("t_max,dt,stride,samples", [
    (1.0, 0.1, 1, 11),  # one partial block
    (7.9375, 0.0625, 1, TIME_BLOCK),  # one partial block, then t_max
    (8.0, 0.0625, 1, TIME_BLOCK + 1),  # one full block, then t_max
    (6.0, 0.004, 5, 301),  # stride > 1, three blocks
    # one group of blocks summed in one call, then t_max
    (GROUP * TIME_BLOCK * 0.0625, 0.0625, 1, GROUP * TIME_BLOCK + 1),
    # a full group, a second group of two blocks, then a partial block
    ((GROUP + 2) * TIME_BLOCK * 0.0625 + 3.125, 0.0625, 1, (GROUP + 2) * TIME_BLOCK + 51),
    (9.537, 0.01, 3, 319),  # a shortened last step
    (0.05, 0.1, 1, 2),  # t_max < dt: the start and t_max
    (0.0, 0.1, 1, 1),
])
def test_phase_table_matches_the_direct_sum(t_max, dt, stride, samples):
    grid = build_mode_grid(reference_config(19, 670.0, "sqrtfreq"))
    state = random_single_state(19, np.random.default_rng(7))
    blocks = [(state.c1, state.ca), (state.c2, state.cb)]
    times, atoms, _ = _exact_atoms(grid, blocks, t_max, dt, stride)
    assert np.array_equal(times, sample_times(t_max, dt, stride))
    assert len(times) == samples
    spectrum = comb_spectrum(grid)
    phases = np.exp(-1j * np.outer(times, spectrum.eigenvalues))
    for row, (atom0, photons0) in zip(atoms, blocks):
        w = spectrum.atom * (spectrum.atom * atom0 + 1j * (spectrum.photon @ photons0))
        assert np.max(np.abs(row - phases @ w)) <= 1e-12
        assert row[0] == atom0  # the start itself, not V V^T applied to it


def test_exact_engine_memory_is_its_output(monkeypatch):
    # 1e5 samples of n = 99: a phase array over the samples would be 158 MB
    n = 99
    grid = build_mode_grid(reference_config(n, 3480.0, "sqrtfreq"))
    exp = np.exp
    sizes = []

    def spy(x):
        sizes.append(np.size(x))
        return exp(x)

    monkeypatch.setattr(np, "exp", spy)
    tracemalloc.start()
    try:
        times, atoms, _ = _exact_atoms(grid, [(1.0, np.zeros(n))], 99.9995, 0.001, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(times) == 100001
    # the spectrum has n + 1 eigenvalues
    assert sizes and max(sizes) <= TIME_BLOCK * (n + 1)
    # the output, then the phase table as it is built (its real argument,
    # the complex one and their exponential) beside one group of starts and
    # the spectrum
    assert peak <= times.nbytes + atoms.nbytes + 3 * TIME_BLOCK * (n + 1) * 16


@pytest.mark.parametrize("n", [1, 5, 19])
@pytest.mark.parametrize("profile", ["uniform", "sqrtfreq"])
def test_phase_sums_match_the_oracle_between_samples(n, profile):
    config = reference_config(n, 670.0, profile)
    grid = build_mode_grid(config)
    rng = np.random.default_rng(n)
    state = random_single_state(n, rng)
    # random times lie on no sample grid
    times = rng.uniform(0.0, 3.0 * retardation_time(config), 20)
    series, _ = exact_amplitudes(grid, [(state.c1, state.ca), (state.c2, state.cb)])
    for t, c1, c2 in zip(times, *series.at(times)):
        ref = expm_oracle(state, grid, t)
        assert abs(c1 - ref.c1) <= 1e-12
        assert abs(c2 - ref.c2) <= 1e-12


def amplitude_bound(grid, t):
    """How far two evaluations of one exact amplitude may part at time t:
    the rounding of the phases lam t, C u (f t + 1) per mode with f the
    comb's frequency bound, u = 2^-53 and C = 2, over the n modes.  (Against
    ``expm_oracle`` the property test allows C = 8, for the oracle's own
    rounding.)"""
    return 2.0 * 2.0 ** -53 * (grid.frequency_bound * t + 1.0) * grid.n


@pytest.mark.parametrize("n,length_ratio", [(1, 670.0), (19, 670.0), (99, 3480.0)])
@pytest.mark.parametrize("profile", ["uniform", "sqrtfreq"])
def test_series_at_any_time_matches_its_samples(n, length_ratio, profile):
    # the blocked sample grid (starts plus offsets, t_max as an offset)
    # against each time as its own start
    config = reference_config(n, length_ratio, profile)
    grid = build_mode_grid(config)
    state = random_single_state(n, np.random.default_rng(n))
    series, _ = exact_amplitudes(grid, [(state.c1, state.ca), (state.c2, state.cb)])
    times = sample_times(3.0 * retardation_time(config) if n > 1 else 50.0,
                         default_step(grid), 3)
    assert len(times) > 2 * TIME_BLOCK
    sampled, anywhere = series.sample(times), series.at(times)
    assert sampled.shape == anywhere.shape == (2, len(times))
    assert np.all(np.abs(sampled - anywhere) <= amplitude_bound(grid, times))


def test_engines_agree_on_the_sample_grid():
    grid = build_mode_grid(reference_config(19, 670.0, "uniform"))
    state = init_atoms_entangled(0.7, grid)
    exact_single = run_single(grid, state, t_max=2.0, sample_stride=7, engine="exact")
    rk4_single = run_single(grid, state, t_max=2.0, sample_stride=7)

    def observe_double(t, y):
        st = DoubleExcState.from_vector(y, grid.n)
        return {"c_ab": concurrence_double_closed(st), **observables_double(st)}

    exact_double = run_double(grid, 0.7, t_max=2.0, sample_stride=7)
    rk4_double = integrate(double_derivative(grid), init_double(0.7, grid).to_vector(),
                           2.0, 0.5 * default_step(grid), sample_stride=7,
                           observe=observe_double, max_dt=stability_limit(grid))
    for exact, rk4 in ((exact_single, rk4_single), (exact_double, rk4_double)):
        assert np.array_equal(exact.times, rk4.times)
        assert list(exact.records) == list(rk4.records)
        for name in exact.records:
            assert np.max(np.abs(exact.records[name] - rk4.records[name])) <= 1e-6, name


def test_exact_engine_has_no_stability_limit():
    grid = build_mode_grid(reference_config(19, 670.0))
    state = init_atoms_entangled(math.pi / 4, grid)
    dt = 10.0 * stability_limit(grid)
    traj = run_single(grid, state, t_max=1.0, dt=dt, engine="exact")
    assert np.array_equal(traj.times, sample_times(1.0, dt))
    with pytest.raises(ValueError, match="engine"):
        run_single(grid, state, t_max=1.0, engine="euler")


@pytest.mark.parametrize("n,length_ratio,omega_a,theta,double_dies", [
    (99, 3480.0, 4840.0, math.pi / 8, True),  # double 2.799, single 2.888
    (99, 3480.0, 4840.0, math.pi / 4, True),  # 1.516 vs 2.976
    (99, 3480.0, 4840.0, 1.05, True),  # 0.199 vs 2.899
    (49, 1720.0, 11100.0, math.pi / 8, False),
    (49, 1720.0, 11100.0, math.pi / 4, True),  # 1.570, single never dies
    (49, 1720.0, 11100.0, 1.05, True),  # 0.879, single never dies
    (99, 3480.0, 11100.0, math.pi / 8, False),
    (99, 3480.0, 11100.0, math.pi / 4, False),
    (99, 3480.0, 11100.0, 1.05, True),  # 0.439, single never dies
])
def test_doubly_excited_state_dies_first(n, length_ratio, omega_a, theta, double_dies):
    """The paper's "more drastic" decay of cos|gg> + sin|ee>: with the CLI's
    default window, steps (halved for double) and stride, its first dead
    interval starts before that of cos|eg> + sin|ge>; never dying is +inf.

    Both runs follow the same p(t) = |u|^2.  The double run's c_ab is exactly
    zero iff p <= 1 - cot(theta), so only theta > pi/4 gives true sudden
    death.  For theta <= pi/4 its dead interval is a crossing of
    revivals.FLOOR = 1e-6, as the single run's (c_ab = sin(2 theta) p)
    always is.  So the cases up to pi/4 compare the same p(t) at two
    thresholds: below pi/4 the double run's is about 1/(1 - tan(theta))
    times the single run's, and at pi/4, where its c_ab = p^2, it is
    p = 1e-3 against the single run's p = 1e-6.
    """
    config = SystemConfig(omega_a=omega_a, length_ratio=length_ratio, n_modes=n)
    grid = build_mode_grid(config)
    t_r = retardation_time(config)
    t_max, dt = 5.0 * t_r, default_step(grid)

    def stride(step):
        return max(1, step_count(t_max, step) // 2000)

    def first_dead_start(traj):
        dead = detect_revivals(traj).dead_intervals
        return dead[0][0] if dead else math.inf

    double = first_dead_start(
        run_double(grid, theta, t_max, dt=0.5 * dt, sample_stride=stride(0.5 * dt)))
    single = first_dead_start(
        run_single(grid, init_atoms_entangled(theta, grid), t_max, dt=dt,
                   sample_stride=stride(dt), engine="exact"))
    assert math.isfinite(double) == double_dies
    assert double < single if double_dies else single == math.inf
