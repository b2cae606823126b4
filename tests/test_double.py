import math

import numpy as np
import pytest

from djcsim import (
    SystemConfig,
    build_mode_grid,
    expm_oracle,
    init_double,
    integrate,
    observables_double,
)
from djcsim.double import DoubleExcState, flat_derivative


@pytest.fixture
def grid1():
    return build_mode_grid(SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=1))


@pytest.fixture
def grid3():
    return build_mode_grid(
        SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=3,
                     coupling_profile="uniform")
    )


def random_state(grid, rng):
    dim = 2 + 2 * grid.n + grid.n ** 2
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return DoubleExcState.from_vector(vec, grid.n)


def product_state(theta, t):
    """n=1 resonant solution as a tensor product of two independent
    atom-mode blocks evolving under (e, p)' = (-p, +e)."""
    ce, cp = math.cos(t), math.sin(t)
    return DoubleExcState(
        d00=complex(math.cos(theta)),
        d11=complex(math.sin(theta) * ce * ce),
        d2=np.array([math.sin(theta) * ce * cp], dtype=complex),
        d3=np.array([math.sin(theta) * cp * ce], dtype=complex),
        d4=np.array([[math.sin(theta) * cp * cp]], dtype=complex),
    )


@pytest.mark.parametrize(
    "theta,d00,d11",
    [
        (math.pi / 4, 1 / math.sqrt(2), 1 / math.sqrt(2)),
        (0.0, 1.0, 0.0),
        (math.pi / 6, math.sqrt(3) / 2, 0.5),
    ],
)
def test_init_double(grid3, theta, d00, d11):
    state = init_double(theta, grid3)
    assert state.d00 == pytest.approx(d00)
    assert state.d11 == pytest.approx(d11)
    assert np.all(state.d2 == 0) and np.all(state.d3 == 0) and np.all(state.d4 == 0)
    assert observables_double(state)["norm"] == pytest.approx(1.0)


def test_init_double_values():
    grid = build_mode_grid(SystemConfig(omega_a=10.0, length_ratio=5.0))
    state = init_double(math.pi / 6, grid)
    assert state.d00 == pytest.approx(0.86603, abs=1e-5)
    assert state.d11 == pytest.approx(0.5)


def test_deriv_at_initial_state(grid1):
    state = init_double(math.pi / 4, grid1)
    dstate = DoubleExcState.from_vector(flat_derivative(grid1)(state.to_vector()), 1)
    assert dstate.d00 == 0
    assert dstate.d11 == 0
    assert dstate.d2[0] == pytest.approx(1 / math.sqrt(2))
    assert dstate.d3[0] == pytest.approx(1 / math.sqrt(2))
    assert dstate.d4[0, 0] == 0


def test_deriv_two_photon_state(grid1):
    state = DoubleExcState(
        d00=0j, d11=0j,
        d2=np.zeros(1, dtype=complex), d3=np.zeros(1, dtype=complex),
        d4=np.array([[1.0 + 0j]]),
    )
    dstate = DoubleExcState.from_vector(flat_derivative(grid1)(state.to_vector()), 1)
    assert dstate.d2[0] == pytest.approx(-1.0)
    assert dstate.d3[0] == pytest.approx(-1.0)
    assert dstate.d4[0, 0] == 0
    assert dstate.d11 == 0


def test_zero_angle_state_never_evolves(grid3):
    state = init_double(0.0, grid3)
    assert np.all(flat_derivative(grid3)(state.to_vector()) == 0)


def test_from_vector_rejects_wrong_length(grid1, grid3):
    vec = init_double(0.5, grid1).to_vector()
    with pytest.raises(ValueError, match="does not match"):
        DoubleExcState.from_vector(vec, grid3.n)


def test_norm_derivative_vanishes(grid3):
    rng = np.random.default_rng(8)
    deriv = flat_derivative(grid3)
    for _ in range(25):
        vec = random_state(grid3, rng).to_vector()
        overlap = np.vdot(vec, deriv(vec))
        assert abs(overlap.real) < 1e-14


def test_single_mode_trajectory_factorizes(grid1):
    # the n=1 resonant run must equal the tensor product of two
    # independently evolving atom-mode blocks, component by component
    theta = math.pi / 4
    state0 = init_double(theta, grid1)
    traj = integrate(
        flat_derivative(grid1),
        state0.to_vector(),
        t_max=2 * math.pi,
        dt=1e-3,
        sample_stride=250,
        observe=lambda t, y: {"vec": y.copy()},
    )
    for t, vec in zip(traj.times, traj.records["vec"]):
        expected = product_state(theta, t).to_vector()
        assert np.max(np.abs(vec - expected)) < 1e-8


def test_single_mode_populations(grid1):
    # D11(t) = sin(theta) cos^2(t), D4(t) = sin(theta) sin^2(t)
    theta = math.pi / 3
    state0 = init_double(theta, grid1)
    final = expm_oracle(state0, grid1, math.pi / 2)
    obs = observables_double(final)
    assert obs["p11"] == pytest.approx(0.0, abs=1e-12)
    assert obs["p4"] == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


def test_d00_is_frozen(grid3):
    state0 = init_double(math.pi / 4, grid3)
    traj = integrate(
        flat_derivative(grid3),
        state0.to_vector(),
        t_max=5.0,
        dt=1e-3,
        sample_stride=500,
        observe=lambda t, y: {"d00": y[0]},
    )
    drift = np.abs(traj.records["d00"] - state0.d00)
    assert np.max(drift) <= 1e-12


def test_exchange_symmetry(grid3):
    # identical cavities and a swap-symmetric start keep d2 == d3 and d4
    # symmetric for all time
    state0 = init_double(math.pi / 4, grid3)

    def observe(t, y):
        st = DoubleExcState.from_vector(y, grid3.n)
        return {
            "asym23": np.max(np.abs(st.d2 - st.d3)),
            "asym4": np.max(np.abs(st.d4 - st.d4.T)),
        }

    traj = integrate(flat_derivative(grid3), state0.to_vector(),
                     t_max=3.0, dt=1e-3, sample_stride=100, observe=observe)
    assert np.max(traj.records["asym23"]) < 1e-12
    assert np.max(traj.records["asym4"]) < 1e-12


def test_observables(grid3):
    obs = observables_double(init_double(math.pi / 6, grid3))
    assert obs["p00"] == pytest.approx(0.75)
    assert obs["p11"] == pytest.approx(0.25)
    assert obs["p2"] == 0.0 and obs["p3"] == 0.0 and obs["p4"] == 0.0

    zero = DoubleExcState(d00=0j, d11=0j,
                          d2=np.zeros(3, dtype=complex),
                          d3=np.zeros(3, dtype=complex),
                          d4=np.zeros((3, 3), dtype=complex))
    assert all(v == 0.0 for v in observables_double(zero).values())


def test_vector_round_trip(grid3):
    rng = np.random.default_rng(21)
    state = random_state(grid3, rng)
    back = DoubleExcState.from_vector(state.to_vector(), grid3.n)
    assert back.d00 == state.d00 and back.d11 == state.d11
    np.testing.assert_array_equal(back.d2, state.d2)
    np.testing.assert_array_equal(back.d3, state.d3)
    np.testing.assert_array_equal(back.d4, state.d4)
