import math

import numpy as np
import pytest

from djcsim import (
    SystemConfig,
    build_mode_grid,
    init_atoms_entangled,
    init_double,
    init_fields_entangled,
    observables_single,
    run_double,
)
from djcsim.single import SingleExcState, flat_derivative


@pytest.fixture
def grid19():
    return build_mode_grid(
        SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=19,
                     coupling_profile="uniform")
    )


@pytest.fixture
def grid1():
    return build_mode_grid(SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=1))


def random_state(grid, rng):
    vec = rng.normal(size=2 + 2 * grid.n) + 1j * rng.normal(size=2 + 2 * grid.n)
    vec /= np.linalg.norm(vec)
    return SingleExcState.from_vector(vec, grid.n)


@pytest.mark.parametrize(
    "theta,c1,c2",
    [
        (math.pi / 4, 1 / math.sqrt(2), 1 / math.sqrt(2)),
        (0.0, 1.0, 0.0),
        (math.pi / 12, math.cos(math.pi / 12), math.sin(math.pi / 12)),
    ],
)
def test_init_atoms_entangled(grid19, theta, c1, c2):
    state = init_atoms_entangled(theta, grid19)
    assert state.c1 == pytest.approx(c1)
    assert state.c2 == pytest.approx(c2)
    assert np.all(state.ca == 0) and np.all(state.cb == 0)
    assert observables_single(state)["norm"] == pytest.approx(1.0, abs=1e-15)


def test_init_atoms_values():
    grid = build_mode_grid(SystemConfig(omega_a=10.0, length_ratio=5.0))
    state = init_atoms_entangled(math.pi / 12, grid)
    assert state.c1 == pytest.approx(0.96593, abs=1e-5)
    assert state.c2 == pytest.approx(0.25882, abs=1e-5)


def test_init_fields_entangled_single_mode(grid1):
    state = init_fields_entangled(math.pi / 4, grid1)
    assert state.c1 == 0 and state.c2 == 0
    assert state.ca[0] == pytest.approx(1 / math.sqrt(2))
    assert state.cb[0] == pytest.approx(1 / math.sqrt(2))


def test_init_fields_entangled_boundary_angle(grid19):
    state = init_fields_entangled(math.pi / 2, grid19)
    assert np.max(np.abs(state.ca)) < 1e-15  # cos(pi/2) rounds to ~6e-17
    assert state.cb[grid19.central_index] == pytest.approx(1.0)
    assert observables_single(state)["pop_cav_b"] == pytest.approx(1.0)


def test_init_fields_occupies_only_central_mode(grid19):
    state = init_fields_entangled(math.pi / 4, grid19)
    occupied_a = np.flatnonzero(state.ca)
    occupied_b = np.flatnonzero(state.cb)
    assert list(occupied_a) == [grid19.central_index]
    assert list(occupied_b) == [grid19.central_index]


def test_init_rejects_theta_out_of_range(grid1):
    with pytest.raises(ValueError, match="theta"):
        init_atoms_entangled(-0.1, grid1)
    with pytest.raises(ValueError, match="theta"):
        init_fields_entangled(2.0, grid1)
    with pytest.raises(ValueError, match="theta"):
        init_double(2.0, grid1)
    with pytest.raises(ValueError, match="theta"):
        run_double(grid1, 2.0, 1.0)


def test_deriv_at_initial_atom_state(grid1):
    dvec = flat_derivative(grid1)(init_atoms_entangled(math.pi / 4, grid1).to_vector())
    assert dvec[0] == 0
    assert dvec[2] == pytest.approx(-1 / math.sqrt(2))


def test_deriv_single_photon_mode(grid19):
    # photon in the first mode above resonance: detuning +7.2239, coupling 1
    k = grid19.central_index + 1
    state = SingleExcState(c1=0j, c2=0j,
                           ca=np.zeros(19, dtype=complex),
                           cb=np.zeros(19, dtype=complex))
    state.ca[k] = 1.0
    dvec = flat_derivative(grid19)(state.to_vector())
    assert dvec[2 + k] == pytest.approx(-1j * grid19.spacing)
    assert dvec[0] == pytest.approx(grid19.couplings[k])
    assert dvec[1] == 0


def test_deriv_zero_state_is_zero(grid19):
    assert np.all(flat_derivative(grid19)(np.zeros(2 + 2 * grid19.n, dtype=complex)) == 0)


def test_deriv_matches_resonant_closed_form(grid1):
    # C1(t) = cos(theta) cos(t), Ca(t) = -cos(theta) sin(t) solves the
    # resonant single-mode system; its derivative must match flat_derivative.
    theta = math.pi / 5
    for t in (0.0, 0.3, 1.2):
        state = SingleExcState(
            c1=math.cos(theta) * math.cos(t),
            c2=0j,
            ca=np.array([-math.cos(theta) * math.sin(t)], dtype=complex),
            cb=np.zeros(1, dtype=complex),
        )
        dvec = flat_derivative(grid1)(state.to_vector())
        assert dvec[0] == pytest.approx(-math.cos(theta) * math.sin(t), abs=1e-15)
        assert dvec[2] == pytest.approx(-math.cos(theta) * math.cos(t), abs=1e-15)


def test_from_vector_rejects_wrong_length(grid19, grid1):
    vec = init_atoms_entangled(0.3, grid1).to_vector()
    with pytest.raises(ValueError, match="does not match"):
        SingleExcState.from_vector(vec, grid19.n)


def test_norm_derivative_vanishes(grid19):
    # the generator is anti-Hermitian: Re<state, d state/dt> = 0
    rng = np.random.default_rng(42)
    deriv = flat_derivative(grid19)
    for _ in range(25):
        vec = random_state(grid19, rng).to_vector()
        overlap = np.vdot(vec, deriv(vec))
        assert abs(overlap.real) < 1e-14


def test_cavity_blocks_do_not_mix(grid19):
    rng = np.random.default_rng(3)
    state = random_state(grid19, rng)
    other = SingleExcState(c1=state.c1, c2=state.c2 + 0.7j,
                           ca=state.ca.copy(), cb=state.cb + 0.2)
    deriv = flat_derivative(grid19)
    d1, d2 = deriv(state.to_vector()), deriv(other.to_vector())
    assert d1[0] == d2[0]  # c1
    np.testing.assert_array_equal(d1[2:2 + grid19.n], d2[2:2 + grid19.n])  # ca


def test_observables():
    grid = build_mode_grid(SystemConfig(omega_a=10.0, length_ratio=5.0, n_modes=3))
    obs = observables_single(init_atoms_entangled(math.pi / 4, grid))
    assert obs["pop1"] == pytest.approx(0.5)
    assert obs["pop2"] == pytest.approx(0.5)
    assert obs["pop_cav_a"] == 0.0 and obs["pop_cav_b"] == 0.0

    obs = observables_single(init_fields_entangled(math.pi / 6, grid))
    assert obs["pop_cav_a"] == pytest.approx(0.75)
    assert obs["pop_cav_b"] == pytest.approx(0.25)
    assert obs["norm"] == pytest.approx(1.0)


def test_observables_norm_is_homogeneous(grid19):
    state = init_atoms_entangled(math.pi / 3, grid19)
    scaled = SingleExcState(c1=state.c1 / math.sqrt(2), c2=state.c2 / math.sqrt(2),
                            ca=state.ca / math.sqrt(2), cb=state.cb / math.sqrt(2))
    assert observables_single(scaled)["norm"] == pytest.approx(0.5)


def test_vector_round_trip(grid19):
    rng = np.random.default_rng(5)
    state = random_state(grid19, rng)
    back = SingleExcState.from_vector(state.to_vector(), grid19.n)
    assert back.c1 == state.c1 and back.c2 == state.c2
    np.testing.assert_array_equal(back.ca, state.ca)
    np.testing.assert_array_equal(back.cb, state.cb)
