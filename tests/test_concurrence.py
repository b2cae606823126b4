import math

import numpy as np
import pytest

from djcsim import (
    SystemConfig,
    build_mode_grid,
    concurrence_double_closed,
    concurrence_single_closed,
    concurrence_wootters,
    init_atoms_entangled,
    init_double,
    rho_atoms_double,
    rho_atoms_single,
)
from djcsim.double import DoubleExcState
from djcsim.single import SingleExcState


GRID3 = build_mode_grid(SystemConfig(omega_a=10.0, length_ratio=5.0, n_modes=3))


def single_state(c1, c2, pop_fields=None, n=3):
    ca = np.zeros(n, dtype=complex)
    cb = np.zeros(n, dtype=complex)
    if pop_fields:
        ca[0] = math.sqrt(pop_fields / 2)
        cb[0] = math.sqrt(pop_fields / 2)
    return SingleExcState(c1=complex(c1), c2=complex(c2), ca=ca, cb=cb)


def test_rho_single_initial_state():
    rho = rho_atoms_single(init_atoms_entangled(math.pi / 4, GRID3))
    assert rho[1, 1] == pytest.approx(0.5)
    assert rho[2, 2] == pytest.approx(0.5)
    assert rho[1, 2] == pytest.approx(0.5)
    assert rho[3, 3] == 0.0
    assert rho[0, 0] == 0.0


def test_rho_single_all_excitation_in_fields():
    state = single_state(0.0, 0.0, pop_fields=1.0)
    rho = rho_atoms_single(state)
    assert rho[3, 3] == pytest.approx(1.0)
    assert np.count_nonzero(rho) == 1


def test_rho_single_coherence_entry():
    state = single_state(0.6, 0.8j)
    rho = rho_atoms_single(state)
    assert rho[1, 2] == pytest.approx(0.48j)
    assert rho[2, 1] == pytest.approx(-0.48j)


def test_rho_double_initial_state():
    rho = rho_atoms_double(init_double(math.pi / 4, GRID3))
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[3, 3] == pytest.approx(0.5)
    assert rho[0, 3] == pytest.approx(0.5)
    rho0 = rho_atoms_double(init_double(0.0, GRID3))
    assert rho0[3, 3] == pytest.approx(1.0)


def test_rho_double_product_state_populations():
    # n=1 resonant product state at t = pi/4, theta = pi/4
    theta, t = math.pi / 4, math.pi / 4
    ce, cp = math.cos(t), math.sin(t)
    state = DoubleExcState(
        d00=complex(math.cos(theta)),
        d11=complex(math.sin(theta) * ce * ce),
        d2=np.array([math.sin(theta) * ce * cp], dtype=complex),
        d3=np.array([math.sin(theta) * cp * ce], dtype=complex),
        d4=np.array([[math.sin(theta) * cp * cp]], dtype=complex),
    )
    rho = rho_atoms_double(state)
    assert rho[1, 1] == pytest.approx(0.125)
    assert rho[2, 2] == pytest.approx(0.125)


def test_wootters_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = bell[1, 2] = bell[2, 1] = 0.5
    assert concurrence_wootters(bell) == pytest.approx(1.0, abs=1e-12)


def test_wootters_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |e1 g2>
    assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-12)


def test_wootters_matches_single_closed_form():
    state = single_state(0.6, 0.8j)
    assert concurrence_single_closed(state) == pytest.approx(0.96)
    assert concurrence_wootters(rho_atoms_single(state)) == pytest.approx(0.96, abs=1e-12)


def test_single_closed_form_examples():
    assert concurrence_single_closed(init_atoms_entangled(math.pi / 4, GRID3)) \
        == pytest.approx(1.0)
    # double-angle identity: 2 cos sin = sin(2 theta)
    assert concurrence_single_closed(init_atoms_entangled(math.pi / 12, GRID3)) \
        == pytest.approx(0.5)
    # resonant single-mode state at t = pi/2: both atomic amplitudes zero
    state = single_state(0.0, 0.0, pop_fields=1.0)
    assert concurrence_single_closed(state) == 0.0


def test_double_closed_form_examples():
    assert concurrence_double_closed(init_double(math.pi / 4, GRID3)) \
        == pytest.approx(1.0)
    # d11 = 0 makes the coherence term vanish; the clamp keeps it at zero
    state = DoubleExcState(
        d00=complex(0.8), d11=0j,
        d2=np.array([0.3], dtype=complex),
        d3=np.array([0.5], dtype=complex),
        d4=np.zeros((1, 1), dtype=complex),
    )
    assert concurrence_double_closed(state) == 0.0


def test_double_closed_form_product_value():
    # theta = pi/4, t = pi/4: 2 * (sin cos^2 * cos - 0.125) = 0.25
    theta, t = math.pi / 4, math.pi / 4
    ce, cp = math.cos(t), math.sin(t)
    state = DoubleExcState(
        d00=complex(math.cos(theta)),
        d11=complex(math.sin(theta) * ce * ce),
        d2=np.array([math.sin(theta) * ce * cp], dtype=complex),
        d3=np.array([math.sin(theta) * cp * ce], dtype=complex),
        d4=np.array([[math.sin(theta) * cp * cp]], dtype=complex),
    )
    assert concurrence_double_closed(state) == pytest.approx(0.25, abs=1e-12)
    assert concurrence_wootters(rho_atoms_double(state)) == pytest.approx(0.25, abs=1e-10)


def random_single_state(rng, n=3):
    vec = rng.normal(size=2 + 2 * n) + 1j * rng.normal(size=2 + 2 * n)
    vec /= np.linalg.norm(vec)
    return SingleExcState.from_vector(vec, n)


def random_double_state(rng, n=3):
    dim = 2 + 2 * n + n * n
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return DoubleExcState.from_vector(vec, n)


def test_wootters_equals_closed_forms_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = random_single_state(rng)
        diff = abs(concurrence_wootters(rho_atoms_single(s))
                   - concurrence_single_closed(s))
        assert diff <= 1e-10
        d = random_double_state(rng)
        diff = abs(concurrence_wootters(rho_atoms_double(d))
                   - concurrence_double_closed(d))
        assert diff <= 1e-10


def test_concurrence_range_and_monotone_zero():
    rng = np.random.default_rng(23)
    for _ in range(50):
        s = random_single_state(rng)
        c = concurrence_single_closed(s)
        assert 0.0 <= c <= 1.0 + 1e-12
        # killing either atomic amplitude kills the concurrence exactly
        dead = SingleExcState(c1=0j, c2=s.c2, ca=s.ca, cb=s.cb)
        assert concurrence_single_closed(dead) == 0.0


def test_phase_invariance():
    rng = np.random.default_rng(29)
    s = random_single_state(rng)
    phased = SingleExcState(c1=s.c1 * np.exp(0.7j), c2=s.c2, ca=s.ca, cb=s.cb)
    assert concurrence_single_closed(phased) == pytest.approx(
        concurrence_single_closed(s), abs=1e-14)
    d = random_double_state(rng)
    phased_d = DoubleExcState(d00=d.d00 * np.exp(1.3j), d11=d.d11,
                              d2=d.d2, d3=d.d3, d4=d.d4)
    assert concurrence_double_closed(phased_d) == pytest.approx(
        concurrence_double_closed(d), abs=1e-14)
    assert concurrence_wootters(rho_atoms_double(phased_d)) == pytest.approx(
        concurrence_wootters(rho_atoms_double(d)), abs=1e-10)


def test_wootters_rejects_unphysical_matrices():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    bad = rho.copy()
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        concurrence_wootters(bad)
    with pytest.raises(ValueError, match="trace"):
        concurrence_wootters(rho * 1.5)
    indefinite = rho.copy()
    indefinite[0, 0] = -1e-6
    indefinite[1, 1] = 1.0 + 1e-6
    with pytest.raises(ValueError, match="negative eigenvalue"):
        concurrence_wootters(indefinite)
    with pytest.raises(ValueError, match=r"expected a 4x4 density matrix, got shape \(2, 2\)"):
        concurrence_wootters(np.eye(2) / 2)


def test_wootters_accepts_trajectory_norm_budget():
    # along an integrated trajectory the trace equals the norm, which may be
    # off by up to 1e-6; such matrices must still be accepted
    state = single_state(0.6 * (1 + 4e-7), 0.8j)
    assert concurrence_wootters(rho_atoms_single(state)) == pytest.approx(0.96, abs=1e-5)
