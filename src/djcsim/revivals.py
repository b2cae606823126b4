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
from typing import List, Tuple, Union

import numpy as np

from .evolve import TIME_BLOCK, Trajectory, check_window
from .model import ModeGrid, SystemConfig, retardation_time

#: Concurrence at or below this counts as dead (zero up to rounding).
FLOOR = 1e-6
#: Round trips in the default kernel window, which ``first_kernel_echo``
#: scans and the ``kernel`` command writes.
KERNEL_ROUND_TRIPS = 3


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
    """Mode-summed coupling correlation K(tau): a complex for a scalar tau,
    else an array in the shape of tau.

    The (modes x taus) phases are formed for at most ``TIME_BLOCK`` taus
    at once and summed over the modes with ``np.vecdot``, as the exact
    engine sums its phases: it runs on the calling thread, where a BLAS
    product of this size starts OpenBLAS's threads.
    """
    tau_arr = np.asarray(tau, dtype=float).ravel()
    weights = grid.couplings[:, None] ** 2  # real, so vecdot's conjugation is moot
    k = np.empty(len(tau_arr), dtype=complex)
    for lo in range(0, len(tau_arr), TIME_BLOCK):
        block = tau_arr[lo:lo + TIME_BLOCK]
        np.vecdot(weights, np.exp(-1j * np.outer(grid.detunings, block)), axis=0,
                  out=k[lo:lo + len(block)])
    if np.ndim(tau) == 0:
        return complex(k[0])
    return k.reshape(np.shape(tau))


def tau_count(tau_max: float, dtau: float) -> int:
    """How many taus k * dtau, k >= 0, the kernel trace of [0, tau_max] samples."""
    check_window(tau_max, dtau)
    return int(math.floor(tau_max / dtau + 1e-9)) + 1


def first_kernel_echo(grid: ModeGrid, dtau: float) -> float:
    """Location of the first rephasing maximum of |K| after tau = 0.

    Scans |K| on the taus the ``kernel`` command writes for its default
    window of ``KERNEL_ROUND_TRIPS`` round trips, and returns the first
    local maximum reaching at least half of |K(0)|, which excludes the low
    side lobes of the mode comb.  Exact to within one tau sample.
    """
    taus = np.arange(tau_count(KERNEL_ROUND_TRIPS * (2.0 * math.pi / grid.spacing), dtau)) * dtau
    return first_rephasing_maximum(taus, np.abs(memory_kernel(grid, taus)))


def first_rephasing_maximum(taus: np.ndarray, magnitudes: np.ndarray) -> float:
    """First local maximum of |K| sampled on the uniform grid ``taus``
    (starting at 0) that reaches at least half of |K(0)|, after |K| has
    first fallen below that half (the end of the tau = 0 lobe).  Raises
    ``ValueError`` if it never falls below half, as on a single-mode grid.

    This is the scan behind ``first_kernel_echo``, for a caller that has
    evaluated the kernel already.
    """
    mag = np.asarray(magnitudes)
    threshold = 0.5 * mag[0]
    below = np.flatnonzero(mag < threshold)
    if not below.size:
        raise ValueError("|K| never falls below half of |K(0)|: no tau = 0 lobe to leave")
    inner = mag[1:-1]  # inner[j] is mag[j + 1]
    maxima = np.flatnonzero(((inner >= threshold) & (inner >= mag[:-2])
                             & (inner >= mag[2:]))[below[0]:])
    if not maxima.size:
        raise ValueError("no rephasing maximum among the sampled taus")
    return float(taus[below[0] + 1 + maxima[0]])


def predict_revival_times(config: SystemConfig, count: int) -> List[float]:
    """The first ``count`` multiples of the round-trip time.

    For a single-mode cavity the values are still defined but the dynamics
    is Rabi-periodic rather than echo-like, so they carry no significance.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    t_r = retardation_time(config)
    return [m * t_r for m in range(1, count + 1)]


def detect_revivals(traj: Trajectory, predicted_period: float = math.nan) -> RevivalReport:
    """Locate dead intervals and revival events in a concurrence trace.

    A dead interval is a maximal run of samples at or below ``FLOOR``;
    runs separated by above-floor blips shorter than the gap are merged,
    and merged runs spanning less than the gap (isolated zeros of an
    oscillatory trace) are discarded.  Revival events are the local maxima
    of the trace above the floor, merged within the gap; the onset of an
    event is the first crossing above the floor after the preceding dead
    interval, or the preceding local minimum when the trace never died.
    A trace that never rises while above the floor has no revivals.

    The gap is 20 median sample spacings, capped at 1/20 of the trace span
    so coarsely sampled traces still resolve their dead stretches.

    Intervals, peaks and onsets are located by sample index, in time linear
    in the number of samples.  The index windows are the time windows above
    when the times strictly increase, as ``sample_times`` makes them.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    if "c_ab" not in traj.records:
        raise ValueError("trajectory has no concurrence column 'c_ab'")
    t = np.asarray(traj.times, dtype=float)
    c = np.asarray(traj.records["c_ab"], dtype=float)
    gap = min(20.0 * _median(np.diff(t)), (t[-1] - t[0]) / 20.0) if len(t) > 1 else 0.0

    report = RevivalReport(predicted_period=predicted_period)

    # Maximal runs at or below the floor, [first, last]; a run joins the
    # previous one when the blip between them is shorter than the gap.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], c <= FLOOR, [False]))))
    first, last = edges[0::2], edges[1::2] - 1
    if len(first):
        split = np.concatenate(([True], ~(t[first[1:]] - t[last[:-1]] < gap)))
        first, last = first[split], last[np.concatenate((split[1:], [True]))]
        kept = t[last] - t[first] >= gap
        first, last = first[kept], last[kept]
    report.dead_intervals = list(zip(t[first].tolist(), t[last].tolist()))

    above = c > FLOOR
    up = c[1:] > c[:-1]
    if not np.any(above[1:] & up):
        return report

    # Peak candidates: above the floor, above the left neighbour and at
    # least the right one.  Each joins the peak kept last when within the
    # gap of it, and replaces it when higher.
    candidates = above & np.concatenate(([True], up)) & np.concatenate((c[:-1] >= c[1:], [True]))
    peaks: List[int] = []
    for i in np.flatnonzero(candidates).tolist():
        if peaks and t[i] - t[peaks[-1]] < gap:
            if c[i] > c[peaks[-1]]:
                peaks[-1] = i
        else:
            peaks.append(i)
    # The last dead sample at or before each peak (-1 if none): a peak at or
    # before it is a sampling-jitter blip inside a merged dead interval.
    last_dead = np.concatenate(([-1], last))[np.searchsorted(first, peaks, "right")]
    alive = np.flatnonzero(above)
    previous = -1
    for peak, dead in zip(peaks, last_dead.tolist()):
        if peak <= dead:
            continue
        if dead > previous:  # first sample back above the floor
            onset = alive[np.searchsorted(alive, dead, "right")]
        else:  # local minimum since the previous peak
            onset = previous + 1 + np.argmin(c[previous + 1:peak + 1])
        report.revivals.append(RevivalEvent(
            onset=float(t[onset]), peak_time=float(t[peak]), peak_value=float(c[peak])))
        previous = peak
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


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty array, to the bit, without the numpy.ma
    import (about 2 MB resident) that its NaN check makes on first use."""
    lo, hi = (len(values) - 1) // 2, len(values) // 2
    part = np.partition(values, [lo, hi, -1])  # NaNs sort last
    return math.nan if math.isnan(part[-1]) else float(np.mean(part[lo:hi + 1]))
