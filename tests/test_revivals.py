import math
import time

import numpy as np
import pytest

from djcsim import (
    SystemConfig,
    Trajectory,
    build_mode_grid,
    detect_revivals,
    first_kernel_echo,
    first_revival_after_death,
    memory_kernel,
    retardation_time,
)
from djcsim.evolve import TIME_BLOCK


def uniform_grid(n, length_ratio=670.0, omega_a=4840.0):
    return build_mode_grid(SystemConfig(omega_a=omega_a, length_ratio=length_ratio,
                                        n_modes=n, coupling_profile="uniform"))


def trace(times, conc):
    times = np.asarray(times, dtype=float)
    conc = np.asarray(conc, dtype=float)
    return Trajectory(times=times, records={"c_ab": conc})


def test_kernel_at_zero_counts_modes():
    grid = uniform_grid(19)
    assert memory_kernel(grid, 0.0) == pytest.approx(19.0)


def test_kernel_rephases_at_round_trip():
    grid = uniform_grid(19)
    t_r = 2 * math.pi / grid.spacing
    assert memory_kernel(grid, t_r) == pytest.approx(19.0 + 0.0j, abs=1e-10)


def test_kernel_half_period_alternating_sum():
    # K(pi/spacing) = sum of (-1)^k over k = -9..9: nine even terms against
    # ten odd ones, giving exactly -1
    grid = uniform_grid(19)
    value = memory_kernel(grid, math.pi / grid.spacing)
    assert value.real == pytest.approx(-1.0, abs=1e-10)
    assert abs(value.imag) < 1e-10


def test_kernel_periodicity_and_bound():
    grid = uniform_grid(19)
    period = 2 * math.pi / grid.spacing
    taus = np.linspace(0.0, period, 257)
    k0 = memory_kernel(grid, taus)
    k1 = memory_kernel(grid, taus + period)
    np.testing.assert_allclose(k0, k1, atol=1e-8)
    assert np.all(np.abs(k0) <= 19.0 + 1e-9)


def test_kernel_is_real_for_uniform_profile():
    grid = uniform_grid(99, length_ratio=3480.0)
    taus = np.linspace(0.0, 10.0, 1001)
    values = memory_kernel(grid, taus)
    assert np.max(np.abs(values.imag)) <= 1e-12 * 99


def test_kernel_scalar_and_array_forms_agree():
    grid = uniform_grid(5)
    taus = np.array([0.0, 0.3, 1.7])
    array_values = memory_kernel(grid, taus)
    for tau, expected in zip(taus, array_values):
        assert memory_kernel(grid, float(tau)) == pytest.approx(expected)
    # an array keeps its shape, zeros included
    assert memory_kernel(grid, np.zeros((2, 3))).shape == (2, 3)
    grid_values = memory_kernel(grid, np.stack([taus, taus[::-1]]))
    np.testing.assert_allclose(grid_values, np.stack([array_values, array_values[::-1]]),
                               rtol=0.0, atol=1e-12)


def test_kernel_phases_are_formed_in_blocks(monkeypatch):
    grid = uniform_grid(19)
    taus = np.linspace(0.0, 10.0, 300)
    exp = np.exp
    reference = (grid.couplings ** 2) @ exp(-1j * np.outer(grid.detunings, taus))
    sizes = []

    def spy(x):
        sizes.append(np.size(x))
        return exp(x)

    monkeypatch.setattr(np, "exp", spy)
    values = memory_kernel(grid, taus)
    # no phase array grows with the number of taus
    assert sizes and max(sizes) <= TIME_BLOCK * grid.n
    assert np.max(np.abs(values - reference)) <= 1e-12


@pytest.mark.parametrize(
    "n,length_ratio,profile",
    [
        (19, 670.0, "uniform"),
        (19, 670.0, "sqrtfreq"),
        (99, 3480.0, "uniform"),
        (99, 3480.0, "sqrtfreq"),
    ],
)
def test_first_kernel_echo_at_round_trip(n, length_ratio, profile):
    cfg = SystemConfig(omega_a=4840.0, length_ratio=length_ratio, n_modes=n,
                       coupling_profile=profile)
    grid = build_mode_grid(cfg)
    t_r = retardation_time(cfg)
    dtau = t_r / 400.0
    assert abs(first_kernel_echo(grid, dtau) - t_r) <= dtau


@pytest.mark.parametrize("dtau", [math.nan, math.inf, 0.0])
def test_first_kernel_echo_checks_the_step(dtau):
    with pytest.raises(ValueError, match="dt"):
        first_kernel_echo(uniform_grid(19), dtau)


def test_first_kernel_echo_needs_a_comb():
    # one mode: |K| = g^2 never leaves its tau = 0 lobe, so there is no echo
    grid = build_mode_grid(SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=1))
    with pytest.raises(ValueError, match="never falls below half"):
        first_kernel_echo(grid, 0.01)


def test_predict_revival_times():
    # revivals are predicted at the multiples of the round-trip time
    cfg = SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=19)
    t_r = retardation_time(cfg)
    assert t_r == pytest.approx(2 * math.pi * 670.0 / 4840.0, rel=1e-12)
    assert t_r == pytest.approx(0.8698, abs=2e-4)

    hi = SystemConfig(omega_a=11100.0, length_ratio=3480.0, n_modes=19)
    assert retardation_time(hi) == pytest.approx(1.9697, abs=2e-4)

    # defined, though without an echo, for a single mode
    single = SystemConfig(omega_a=10.0, length_ratio=5.0, n_modes=1)
    assert retardation_time(single) == pytest.approx(math.pi, rel=1e-12)


def test_detector_on_rabi_trace():
    # sin(2 theta) cos^2(t) touches zero only at isolated points: no dead
    # intervals, peaks of height 1 at t = 0, pi, 2 pi
    t = np.linspace(0.0, 2 * math.pi, 2001)
    report = detect_revivals(trace(t, np.cos(t) ** 2))
    assert report.dead_intervals == []
    peak_times = [ev.peak_time for ev in report.revivals]
    np.testing.assert_allclose(peak_times, [0.0, math.pi, 2 * math.pi], atol=5e-3)
    for ev in report.revivals:
        assert ev.peak_value == pytest.approx(1.0, abs=1e-5)
    onsets = [ev.onset for ev in report.revivals]
    assert all(b > a for a, b in zip(onsets, onsets[1:]))


def test_detector_on_monotone_decay():
    t = np.linspace(0.0, 2.0, 1001)
    c = np.exp(-20.0 * t)
    c[c <= 1e-6] = 0.0
    report = detect_revivals(trace(t, c))
    assert report.revivals == []
    assert len(report.dead_intervals) == 1
    start, end = report.dead_intervals[0]
    assert start == pytest.approx(-math.log(1e-6) / 20.0, abs=5e-3)
    assert end == pytest.approx(2.0)


def test_detector_on_synthetic_echo():
    # decay to zero, a dead stretch, then a gaussian revival at t = 5
    t = np.linspace(0.0, 8.0, 4001)
    c = np.exp(-6.0 * t) + 0.4 * np.exp(-((t - 5.0) ** 2) / 0.05)
    c[c <= 1e-6] = 0.0
    report = detect_revivals(trace(t, c))
    assert len(report.dead_intervals) >= 1
    event = first_revival_after_death(report)
    assert 4.0 < event.onset < 5.0
    assert event.peak_time == pytest.approx(5.0, abs=5e-3)
    assert event.peak_value == pytest.approx(0.4, abs=1e-3)


def test_first_revival_spans_leading_edge_bumps():
    # a faint leading-edge bump belongs to the same revival: the reported
    # peak is the highest maximum before the trace dies again, the onset the
    # first crossing back above the floor
    t = np.linspace(0.0, 8.0, 4001)
    c = (np.exp(-6.0 * t)
         + 1e-3 * np.exp(-((t - 4.5) ** 2) / 0.01)
         + 0.4 * np.exp(-((t - 5.2) ** 2) / 0.05))
    c[c <= 1e-6] = 0.0
    report = detect_revivals(trace(t, c))
    event = first_revival_after_death(report)
    assert event.peak_time == pytest.approx(5.2, abs=5e-3)
    assert event.peak_value == pytest.approx(0.4, abs=2e-3)
    assert event.onset < 4.5


def test_detector_merges_jittered_dips():
    # a brief above-floor blip inside the dead stretch must not split it
    t = np.linspace(0.0, 8.0, 4001)
    c = np.exp(-6.0 * t) + 0.4 * np.exp(-((t - 5.0) ** 2) / 0.05)
    c[c <= 1e-6] = 0.0
    blip = np.argmin(np.abs(t - 3.5))
    c[blip] = 1e-4
    report = detect_revivals(trace(t, c))
    # first dead interval spans the blip; the echo tail forms a second one
    assert len(report.dead_intervals) == 2
    start, end = report.dead_intervals[0]
    assert start < 3.5 < end
    # the blip itself is not reported as a revival
    assert all(not (start <= ev.peak_time <= end) for ev in report.revivals)


def test_detector_drops_isolated_zero_samples():
    t = np.linspace(0.0, 2 * math.pi, 4001)
    c = np.cos(t) ** 2
    c[np.argmin(np.abs(t - math.pi / 2))] = 0.0  # one zero sample
    report = detect_revivals(trace(t, c))
    assert report.dead_intervals == []


_T = np.linspace(0.0, 10.0, 101)


@pytest.mark.parametrize(
    "times,conc,dead,onsets,peak_times",
    [
        pytest.param(_T, np.where(_T < 3.0, 0.0, np.sin(_T - 3.0) ** 2), [(0.0, 3.0)],
                     [3.1, 6.1, 9.3], [4.6, 7.7, 10.0], id="dead-at-start"),
        # a NaN sample is neither dead nor alive: the onset is the live one after it
        pytest.param(_T, np.concatenate((np.zeros(30), [math.nan], np.sin(_T[31:] - 3.0) ** 2)),
                     [(0.0, 2.9)], [3.1, 6.1, 9.3], [4.6, 7.7, 10.0], id="dead-then-nan"),
        pytest.param(_T, np.where(_T > 7.0, 0.0, np.cos(_T) ** 2 + 0.01), [(7.1, 10.0)],
                     [0.0, 1.6, 4.7], [0.0, 3.1, 6.3], id="dead-at-end"),
        # a plateau peaks at its first sample
        pytest.param(np.arange(5.0), [0.1, 0.5, 0.5, 0.2, 0.1], [], [0.0], [1.0],
                     id="plateau"),
        pytest.param(_T, np.zeros(101), [(0.0, 10.0)], [], [], id="all-zeros"),
        pytest.param([0.0], [0.3], [], [], [], id="one-sample-alive"),
        pytest.param([0.0], [0.0], [(0.0, 0.0)], [], [], id="one-sample-dead"),
        # a trace that never rises has no revivals
        pytest.param(_T, np.exp(-_T), [], [], [], id="monotone-decay"),
    ],
)
def test_detector_edge_cases(times, conc, dead, onsets, peak_times):
    report = detect_revivals(trace(times, conc))
    assert report.dead_intervals == [pytest.approx(span, abs=1e-12) for span in dead]
    assert [ev.onset for ev in report.revivals] == pytest.approx(onsets, abs=1e-12)
    assert [ev.peak_time for ev in report.revivals] == pytest.approx(peak_times, abs=1e-12)


def test_detector_is_linear_in_the_samples():
    # peaks at 0, pi, ..., 6000 pi and a dead interval between each two, in
    # 300,000 samples: a scan of the whole trace per peak takes over 10 s
    t = np.linspace(0.0, 6000.0 * math.pi, 300_000)
    c = np.maximum(0.0, np.cos(t) ** 2 - 0.5)
    start = time.perf_counter()
    report = detect_revivals(trace(t, c))
    assert time.perf_counter() - start < 2.0
    assert len(report.revivals) == 6001
    assert len(report.dead_intervals) == 6000


def test_detector_rejects_empty_and_missing_column():
    with pytest.raises(ValueError, match="empty"):
        detect_revivals(Trajectory(times=np.array([]), records={"c_ab": np.array([])}))
    with pytest.raises(ValueError, match="c_ab"):
        detect_revivals(Trajectory(times=np.array([0.0]), records={"norm": np.array([1.0])}))


def test_first_revival_after_death_requires_a_dead_interval():
    t = np.linspace(0.0, 2 * math.pi, 101)
    report = detect_revivals(trace(t, np.cos(t) ** 2 + 0.1))
    with pytest.raises(ValueError, match="never collapsed"):
        first_revival_after_death(report)


def test_echo_window_peak_degrades_with_mode_count():
    # revival transfer degrades as more modes share the excitation: the
    # concurrence maximum in the first round-trip window is strictly lower
    # for the n=99 grid than for the n=19 grid
    from djcsim import init_atoms_entangled, run_single

    peaks = {}
    for n, length_ratio in ((19, 670.0), (99, 3480.0)):
        cfg = SystemConfig(omega_a=4840.0, length_ratio=length_ratio, n_modes=n)
        grid = build_mode_grid(cfg)
        t_r = retardation_time(cfg)
        traj = run_single(grid, init_atoms_entangled(math.pi / 4, grid),
                          t_max=1.6 * t_r, sample_stride=10)
        sel = (traj.times >= 0.5 * t_r) & (traj.times <= 1.5 * t_r)
        peaks[n] = float(np.max(traj.records["c_ab"][sel]))
    assert peaks[99] < peaks[19]


def test_report_invariants_on_synthetic_echo_train():
    # two echoes of decreasing height after the initial decay
    t = np.linspace(0.0, 12.0, 6001)
    c = (np.exp(-6.0 * t)
         + 0.5 * np.exp(-((t - 5.0) ** 2) / 0.05)
         + 0.3 * np.exp(-((t - 10.0) ** 2) / 0.05))
    c[c <= 1e-6] = 0.0
    report = detect_revivals(trace(t, c))
    onsets = [ev.onset for ev in report.revivals]
    assert all(b > a for a, b in zip(onsets, onsets[1:]))
    for ev in report.revivals:
        assert 0.0 < ev.peak_value <= 1.0
    starts = [a for a, _ in report.dead_intervals]
    ends = [b for _, b in report.dead_intervals]
    assert all(a <= b for a, b in report.dead_intervals)
    assert all(e < s for e, s in zip(ends, starts[1:]))  # disjoint, ordered
