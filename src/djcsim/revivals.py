"""Memory kernel, revival detection and round-trip timing.

Eliminating the field amplitudes from the single-excitation equations turns
them into integro-differential equations whose kernel is the mode-summed
coupling correlation

    K(tau) = sum_k g[k]^2 exp(-i delta[k] tau).

On an equally spaced grid the kernel rephases completely every round-trip
time 2*pi / spacing, which is when emitted amplitude returns to the atom and
entanglement can revive.  The detector below turns a sampled concurrence
trace into dead intervals (concurrence at the zero floor) and revival
events (rise to a local peak), which is how the acceptance checks locate
the first echo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .evolve import TIME_BLOCK, Trajectory
from .model import ModeGrid, SystemConfig, retardation_time


@dataclass(frozen=True)
class RevivalEvent:
    """One rise of the concurrence: onset, location and height of the peak."""

    onset: float
    peak_time: float
    peak_value: float


@dataclass
class RevivalReport:
    """Revival structure of one trajectory.

    ``dead_intervals`` are the (start, end) spans where the concurrence sits
    at the floor; ``revivals`` the rise-to-peak events in time order.  The
    onset of an event following a dead interval is the first sample back
    above the floor, which is the observable round-trip echo time.
    """

    predicted_period: float
    revivals: List[RevivalEvent] = field(default_factory=list)
    dead_intervals: List[Tuple[float, float]] = field(default_factory=list)


def memory_kernel(
    grid: ModeGrid, tau: Union[float, np.ndarray]
) -> Union[complex, np.ndarray]:
    """Mode-summed coupling correlation K(tau); accepts scalar or array tau.

    The (modes x taus) phases are formed for at most ``TIME_BLOCK`` taus
    at once and summed with einsum: a BLAS matvec of this size is slower
    under threaded BLAS.
    """
    tau_arr = np.asarray(tau, dtype=float).ravel()
    weights = (grid.couplings ** 2).astype(complex)  # einsum then needs no cast buffer
    k = np.empty(len(tau_arr), dtype=complex)
    for lo in range(0, len(tau_arr), TIME_BLOCK):
        block = tau_arr[lo:lo + TIME_BLOCK]
        k[lo:lo + len(block)] = np.einsum(
            "i,ij->j", weights, np.exp(-1j * np.outer(grid.detunings, block)))
    if np.isscalar(tau) or np.asarray(tau).ndim == 0:
        return complex(k[0])
    return k


def first_kernel_echo(
    grid: ModeGrid, dtau: float, tau_max: Optional[float] = None
) -> float:
    """Location of the first rephasing maximum of |K| after tau = 0.

    Scans |K| on a uniform tau grid and returns the first local maximum
    reaching at least half of |K(0)|, which excludes the low side lobes of
    the mode comb.  Exact to within one tau sample.
    """
    if dtau <= 0.0:
        raise ValueError(f"dtau must be positive, got {dtau!r}")
    if tau_max is None:
        tau_max = 3.0 * 2.0 * math.pi / grid.spacing
    taus = np.arange(0.0, tau_max + 0.5 * dtau, dtau)
    return first_rephasing_maximum(taus, np.abs(memory_kernel(grid, taus)))


def first_rephasing_maximum(taus: np.ndarray, magnitudes: np.ndarray) -> float:
    """First local maximum of |K| sampled on the uniform grid ``taus``
    (starting at 0) that reaches at least half of |K(0)|.

    This is the scan behind ``first_kernel_echo``, for a caller that has
    evaluated the kernel already.
    """
    mag = np.asarray(magnitudes)
    threshold = 0.5 * mag[0]
    for i in range(1, len(mag) - 1):
        if mag[i] >= threshold and mag[i] >= mag[i - 1] and mag[i] >= mag[i + 1]:
            if i > 1:  # skip the shoulder of the tau = 0 lobe
                return float(taus[i])
    raise ValueError("no rephasing maximum found; increase tau_max")


def predict_revival_times(config: SystemConfig, count: int) -> List[float]:
    """The first ``count`` multiples of the round-trip time.

    For a single-mode cavity the values are still defined but the dynamics
    is Rabi-periodic rather than echo-like, so they carry no significance.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    t_r = retardation_time(config)
    return [m * t_r for m in range(1, count + 1)]


def detect_revivals(
    traj: Trajectory,
    floor: float = 1e-6,
    min_gap: Optional[float] = None,
    predicted_period: float = math.nan,
) -> RevivalReport:
    """Locate dead intervals and revival events in a concurrence trace.

    A dead interval is a maximal run of samples at or below ``floor``;
    runs separated by above-floor blips shorter than ``min_gap`` are merged,
    and merged runs spanning less than ``min_gap`` (isolated zeros of an
    oscillatory trace) are discarded.  Revival events are the local maxima
    of the trace above the floor, merged within ``min_gap``; the onset of an
    event is the first crossing above the floor after the preceding dead
    interval, or the preceding local minimum when the trace never died.
    A trace that never rises while above the floor has no revivals.

    ``min_gap`` defaults to 20 median sample spacings, capped at 1/20 of the
    trace span so coarsely sampled traces still resolve their dead stretches.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    if "c_ab" not in traj.records:
        raise ValueError("trajectory has no concurrence column 'c_ab'")
    t = np.asarray(traj.times, dtype=float)
    c = np.asarray(traj.records["c_ab"], dtype=float)
    if min_gap is None:
        spacings = np.diff(t)
        if len(spacings):
            min_gap = min(20.0 * float(np.median(spacings)),
                          (t[-1] - t[0]) / 20.0)
        else:
            min_gap = 0.0

    report = RevivalReport(predicted_period=predicted_period)

    below = c <= floor
    runs = _maximal_runs(below)
    merged = _merge_runs(runs, t, min_gap)
    report.dead_intervals = [
        (float(t[i]), float(t[j])) for i, j in merged if t[j] - t[i] >= min_gap
    ]

    rising = np.flatnonzero((np.diff(c) > 0.0) & (c[1:] > floor))
    if len(rising) == 0:
        return report

    peaks = _merged_peaks(t, c, floor, min_gap)
    # sampling-jitter blips inside a merged dead interval are not revivals
    peaks = [
        i for i in peaks
        if not any(start <= t[i] <= end for start, end in report.dead_intervals)
    ]
    dead_ends = [end for _, end in report.dead_intervals]
    previous_peak = -math.inf
    for idx in peaks:
        onset = _event_onset(t, c, idx, floor, dead_ends, previous_peak)
        report.revivals.append(
            RevivalEvent(onset=onset, peak_time=float(t[idx]), peak_value=float(c[idx]))
        )
        previous_peak = float(t[idx])
    return report


def first_revival_after_death(report: RevivalReport) -> RevivalEvent:
    """The revival that follows the first detected dead interval.

    Its onset is the first crossing back above the floor; its peak is the
    highest maximum before the concurrence dies again (leading-edge side
    lobes of the returning wave packet are part of the same revival).
    """
    if not report.dead_intervals:
        raise ValueError("no dead interval detected; the trace never collapsed")
    first_end = report.dead_intervals[0][1]
    next_start = math.inf
    for start, _ in report.dead_intervals[1:]:
        if start > first_end:
            next_start = start
            break
    segment = [ev for ev in report.revivals
               if first_end <= ev.peak_time <= next_start]
    if not segment:
        raise ValueError("concurrence never returned above the floor after dying")
    best = max(segment, key=lambda ev: ev.peak_value)
    return RevivalEvent(onset=segment[0].onset, peak_time=best.peak_time,
                        peak_value=best.peak_value)


def _maximal_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Index spans [i, j] of maximal True runs."""
    runs = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs


def _merge_runs(
    runs: List[Tuple[int, int]], t: np.ndarray, min_gap: float
) -> List[Tuple[int, int]]:
    """Join below-floor runs separated by above-floor gaps shorter than min_gap."""
    if not runs:
        return []
    merged = [runs[0]]
    for i, j in runs[1:]:
        last_i, last_j = merged[-1]
        if t[i] - t[last_j] < min_gap:
            merged[-1] = (last_i, j)
        else:
            merged.append((i, j))
    return merged


def _merged_peaks(
    t: np.ndarray, c: np.ndarray, floor: float, min_gap: float
) -> List[int]:
    """Local maxima of c above the floor, keeping the highest within min_gap."""
    candidates = []
    n = len(c)
    for i in range(n):
        if c[i] <= floor:
            continue
        left_ok = i == 0 or c[i] > c[i - 1]
        right_ok = i == n - 1 or c[i] >= c[i + 1]
        if left_ok and right_ok:
            candidates.append(i)
    merged: List[int] = []
    for i in candidates:
        if merged and t[i] - t[merged[-1]] < min_gap:
            if c[i] > c[merged[-1]]:
                merged[-1] = i
        else:
            merged.append(i)
    return merged


def _event_onset(
    t: np.ndarray,
    c: np.ndarray,
    peak_idx: int,
    floor: float,
    dead_ends: List[float],
    previous_peak: float,
) -> float:
    """Onset of the event peaking at peak_idx (see detect_revivals)."""
    peak_time = float(t[peak_idx])
    # Most recent dead-interval exit between the previous peak and this one.
    exit_time = None
    for end in dead_ends:
        if previous_peak < end < peak_time:
            exit_time = end
    if exit_time is not None:
        after = np.flatnonzero((t > exit_time) & (c > floor))
        if len(after):
            return float(t[after[0]])
    # Otherwise: local minimum since the previous peak (or the trace start).
    window = np.flatnonzero((t > previous_peak) & (t <= peak_time))
    if len(window) == 0:
        return peak_time
    return float(t[window[np.argmin(c[window])]])
