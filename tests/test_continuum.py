"""Closed-form oracles of an equally spaced comb.

All are independent of the RK4 stack, of ``expm_oracle`` and of the
secular solve: the memory kernel of n uniformly coupled modes is a
Dirichlet kernel, that of the sqrtfreq profile adds its derivative, and as
n -> infinity the uniform comb's atom amplitude u(t) solves a delay
equation whose solution is a series of Laguerre polynomials.  Before the
first round trip that atom decays as in free space, which times the sudden
death of the doubly excited state.
"""

import math

import numpy as np
import pytest

from djcsim import (SystemConfig, build_mode_grid, memory_kernel, retardation_time, run_double,
                    run_single)
from djcsim.evolve import exact_amplitudes
from djcsim.single import SingleExcState


def uniform_comb(n, length_ratio, omega_a=4840.0):
    config = SystemConfig(omega_a=omega_a, length_ratio=length_ratio, n_modes=n,
                          coupling_profile="uniform")
    return config, build_mode_grid(config)


def laguerre(m_max, x):
    """L_0(x), ..., L_m_max(x) by the three-term recurrence."""
    values = [np.ones_like(x), 1.0 - x]
    for k in range(1, m_max):
        values.append(((2 * k + 1 - x) * values[k] - k * values[k - 1]) / (k + 1))
    return values[:m_max + 1]


def continuum_amplitude(t, t_r):
    """u(t) of the delay equation u' = -(Gamma/2) u - Gamma sum_{m>=1} u(t - m t_r).

    u(t) = sum_m step(t - m t_r) [f_m - f_{m-1}](t - m t_r), with
    f_m(tau) = exp(-Gamma tau / 2) L_m(Gamma tau) and f_{-1} = 0.  The central
    coupling is 1, so Gamma = 2 pi / spacing = t_r.
    """
    gamma = t_r
    u = np.zeros_like(t)
    for m in range(int(t[-1] // t_r) + 1):
        tau = t - m * t_r
        later = tau >= 0.0
        x = gamma * tau[later]
        polys = laguerre(m, x)
        step = polys[m] - polys[m - 1] if m else polys[0]
        u[later] += np.exp(-0.5 * x) * step
    return u


def test_continuum_amplitude_is_the_first_echo_formula_before_2_t_r():
    t_r = 4.5
    t = np.linspace(0.0, 1.99 * t_r, 500)
    tau = t - t_r
    echo = np.where(tau >= 0.0, -t_r * tau * np.exp(-0.5 * t_r * tau), 0.0)
    expected = np.exp(-0.5 * t_r * t) + echo
    np.testing.assert_allclose(continuum_amplitude(t, t_r), expected, rtol=0.0, atol=1e-14)


def test_comb_approaches_the_continuum_as_one_over_n():
    # L = 3480, omega_a = 4840: Gamma t_r = 20.4, so the atom decays well
    # before each echo; five round trips on 4001 samples
    errors = {}
    for n in (99, 399):
        config, grid = uniform_comb(n, 3480.0)
        t_r = retardation_time(config)
        excited = SingleExcState(c1=1.0, c2=0.0, ca=np.zeros(n), cb=np.zeros(n))
        traj = run_single(grid, excited, 5.0 * t_r, dt=5.0 * t_r / 4000, engine="exact")
        assert len(traj) == 4001
        continuum = continuum_amplitude(traj.times, t_r) ** 2
        errors[n] = np.max(np.abs(traj.records["pop1"] - continuum))
    assert errors[99] <= 0.06
    assert errors[399] <= 0.015
    # n grows 4.03-fold
    assert 3.0 <= errors[99] / errors[399] <= 5.0


@pytest.mark.parametrize("n,length_ratio", [(1, 670.0), (19, 670.0), (99, 3480.0)])
def test_uniform_kernel_is_the_dirichlet_kernel(n, length_ratio):
    # sum_{|k| <= (n-1)/2} exp(-i k Delta tau) = sin(n Delta tau / 2) / sin(Delta tau / 2)
    config, grid = uniform_comb(n, length_ratio)
    t_r = retardation_time(config)
    taus = np.sort(np.random.default_rng(n).uniform(0.0, 3.0 * t_r, 400))
    half = 0.5 * grid.spacing * taus
    expected = np.sin(n * half) / np.sin(half)
    values = memory_kernel(grid, taus)
    np.testing.assert_allclose(values.real, expected, rtol=0.0, atol=1e-10 * n)
    np.testing.assert_allclose(values.imag, 0.0, rtol=0.0, atol=1e-10 * n)
    # the rephasing maxima: K(m t_r) = n
    assert memory_kernel(grid, 0.0) == n
    for m in (1, 2):
        assert abs(memory_kernel(grid, m * t_r) - n) <= 1e-9 * n


@pytest.mark.parametrize("n", [19, 99, 1999])
def test_sqrtfreq_kernel_is_the_dirichlet_kernel_and_its_derivative(n):
    # g_k^2 = 1 + delta_k / omega_a, so K = D + (i / omega_a) D' with
    # D = sin(n x) / sin x, x = s tau / 2 and D' = dD/dtau
    omega_a = 4840.0
    config = SystemConfig(omega_a=omega_a, length_ratio=3480.0, n_modes=n)
    grid = build_mode_grid(config)
    taus = np.linspace(0.0, 3.0 * retardation_time(config), 4001)
    x = 0.5 * grid.spacing * taus
    keep = np.abs(np.sin(x)) > 0.05  # away from the rephasing poles of 1/sin x
    taus, x = taus[keep], x[keep]
    dirichlet = np.sin(n * x) / np.sin(x)
    slope = (0.5 * grid.spacing * (n * np.cos(n * x) * np.sin(x) - np.sin(n * x) * np.cos(x))
             / np.sin(x) ** 2)
    values = memory_kernel(grid, taus)
    error = np.max(np.abs(values - (dirichlet + 1j * slope / omega_a)))
    assert error <= 1e-12 * n  # 1.8e-13 at n = 19, 2.4e-10 at n = 1999


def first(mask):
    """The index of the first true entry, or None."""
    hits = np.flatnonzero(mask)
    return hits[0] if len(hits) else None


def markov_death_time(theta, t_r):
    """When exp(-Gamma t) falls to 1 - cot(theta), with Gamma = t_r."""
    return -math.log(1.0 - 1.0 / math.tan(theta)) / t_r


@pytest.mark.parametrize("n,length_ratio,omega_a", [(49, 1720.0, 11100.0), (99, 3480.0, 4840.0)])
def test_sudden_death_is_the_threshold_crossing(n, length_ratio, omega_a):
    # With p = |u|^2, cos(theta)|gg> + sin(theta)|ee> keeps
    # c_ab = 2 sin p max(0, cos - sin (1 - p)), exactly zero iff
    # p <= 1 - cot(theta): sudden death for theta > pi/4 only.  Sampled at
    # every step up to the first round trip; n = 49 is the esd-double
    # benchmark workload's grid.
    config = SystemConfig(omega_a=omega_a, length_ratio=length_ratio, n_modes=n)
    grid = build_mode_grid(config)
    t_r = retardation_time(config)
    series, _ = exact_amplitudes(grid, [(1.0, np.zeros(n))])
    for theta in (0.6, math.pi / 4, 0.85, 1.05, 1.3):
        traj = run_double(grid, theta, t_r)
        dead = first(traj.records["c_ab"] == 0.0)
        if theta <= math.pi / 4:
            assert dead is None, theta
            continue
        p = np.abs(series.sample(traj.times)[0]) ** 2
        assert dead == first(p <= 1.0 - 1.0 / math.tan(theta)), theta
        # a death before t_r wherever the free-space decay puts one there
        assert (dead is not None) == (markov_death_time(theta, t_r) < t_r), theta


def test_sudden_death_time_approaches_the_free_space_decay():
    # n = 1999 modes at L = 3480, omega_a = 4840 (Gamma t_r = 20.4): the
    # first dead sample lies +0.01%, +0.16% and +0.55% after the free-space
    # time, the finite bandwidth's quadratic start of the decay (+0.0%,
    # +3.3% and +8.2% at n = 99)
    config = SystemConfig(omega_a=4840.0, length_ratio=3480.0, n_modes=1999)
    grid = build_mode_grid(config)
    t_r = retardation_time(config)
    for theta in (0.85, 1.05, 1.3):
        markov = markov_death_time(theta, t_r)
        traj = run_double(grid, theta, 1.1 * markov)
        dead = first(traj.records["c_ab"] == 0.0)
        assert dead is not None, theta
        assert abs(traj.times[dead] / markov - 1.0) <= 0.01, theta
