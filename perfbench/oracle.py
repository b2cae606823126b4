"""Exact reference and correctness checks for the benchmark's CSV outputs.

This module shares no code with djcsim and imports only numpy.  It rebuilds
the CLI's default mode comb (sqrt-frequency couplings) from the run
parameters, diagonalises the (n+1)-dimensional Hermitian arrowhead of one
atom coupled to one comb, and predicts every written column from the single
atom amplitude that solve gives.  The two cavities are independent copies,
so the single- and double-excitation scenarios both follow from it:

* atoms entangled:  c1 = cos(theta) u,  c2 = sin(theta) u,
  c_ab = sin(2 theta) |u|^2, with u the atom-initial amplitude;
* fields entangled: the same with the photon-initial (central mode) column;
* one excitation per cavity: p2 = p3 = sin^2(theta) |u|^2 (1 - |u|^2) and
  c_ab = 2 max(0, sin(theta) cos(theta) |u|^2 - p2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: largest allowed deviation of any column from the exact reference
REF_TOL = 1e-6
#: largest allowed |norm - 1|
NORM_TOL = 1e-6
#: largest allowed gap between the Wootters concurrence and the c_ab column
WOOTTERS_TOL = 1e-10
#: rows per file on which the Wootters construction is evaluated
WOOTTERS_ROWS = 256
#: concurrence at or below this value counts as dead
DEAD_FLOOR = 1e-6
#: a collapse must last this share of t_r to count as one
MIN_DEAD_SHARE = 0.1
#: allowed distance of the first revival onset from t_r, as a share of t_r
ONSET_TOL = 0.05
#: the CLI's default window is this many round trips
WINDOW_ROUND_TRIPS = 5

SINGLE_COLUMNS = ("t", "c_ab", "pop1", "pop2", "pop_cav_a", "pop_cav_b", "norm",
                  "re_c1", "im_c1", "re_c2", "im_c2")
DOUBLE_COLUMNS = ("t", "c_ab", "p11", "p2", "p3", "p4", "p00", "norm")


@dataclass(frozen=True)
class RunSpec:
    """What one CLI run computed, as the oracle needs it."""

    kind: str  # "single-atoms", "single-fields" or "double"
    theta: float
    n_modes: int
    length_ratio: float
    omega_a: float
    min_rows: int
    expect: Optional[str] = None  # "revival", "dead" or None


@dataclass
class CheckResult:
    """Outcome of checking one CSV against the reference."""

    failures: List[str] = field(default_factory=list)
    rows: int = 0
    max_ref_err: float = math.nan
    max_norm_dev: float = math.nan
    max_wootters_gap: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.failures


def round_trip_time(length_ratio: float, omega_a: float) -> float:
    return 2.0 * math.pi * length_ratio / omega_a


def comb(n_modes: int, length_ratio: float, omega_a: float):
    """Detunings and sqrt-frequency couplings of the symmetric mode comb."""
    spacing = omega_a / length_ratio
    delta = (np.arange(n_modes) - (n_modes - 1) // 2) * spacing
    return delta, np.sqrt((omega_a + delta) / omega_a)


def atom_amplitude(delta: np.ndarray, g: np.ndarray, times: np.ndarray,
                   start: int) -> np.ndarray:
    """<atom| exp(-i H t) |start> at each time.

    H = [[0, i g], [-i g, diag(delta)]] is i times the generator of the
    amplitude equations; ``start`` 0 is the excited atom, 1 + k a photon in
    mode k.
    """
    h = np.diag(np.concatenate(([0.0], delta))).astype(complex)
    h[0, 1:] = 1j * g
    h[1:, 0] = -1j * g
    lam, vec = np.linalg.eigh(h)
    weights = vec[0] * vec[start].conj()
    out = np.empty(len(times), dtype=complex)
    for lo in range(0, len(times), 4096):
        out[lo:lo + 4096] = np.exp(-1j * np.outer(times[lo:lo + 4096], lam)) @ weights
    return out


def expected_columns(spec: RunSpec, times: np.ndarray) -> Dict[str, np.ndarray]:
    """Every CSV column except t, predicted exactly at the given times."""
    delta, g = comb(spec.n_modes, spec.length_ratio, spec.omega_a)
    start = 1 + (spec.n_modes - 1) // 2 if spec.kind == "single-fields" else 0
    u = atom_amplitude(delta, g, times, start)
    p = np.abs(u) ** 2
    cos, sin = math.cos(spec.theta), math.sin(spec.theta)
    ones = np.ones_like(p)
    if spec.kind == "double":
        one_photon = sin * sin * p * (1.0 - p)
        return {
            "c_ab": 2.0 * np.maximum(0.0, sin * cos * p - one_photon),
            "p11": sin * sin * p * p,
            "p2": one_photon,
            "p3": one_photon,
            "p4": sin * sin * (1.0 - p) ** 2,
            "p00": cos * cos * ones,
            "norm": ones,
        }
    return {
        "c_ab": math.sin(2.0 * spec.theta) * p,
        "pop1": cos * cos * p,
        "pop2": sin * sin * p,
        "pop_cav_a": cos * cos * (1.0 - p),
        "pop_cav_b": sin * sin * (1.0 - p),
        "norm": ones,
        "re_c1": cos * u.real,
        "im_c1": cos * u.imag,
        "re_c2": sin * u.real,
        "im_c2": sin * u.imag,
    }


def wootters(rho: np.ndarray) -> np.ndarray:
    """Concurrence of a stack of two-qubit density matrices, shape (m, 4, 4).

    Uses the singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which
    equal the square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy)
    without taking square roots of rounding-level eigenvalues.
    """
    evals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    flip = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    s = np.linalg.svd(root @ flip @ root.conj(), compute_uv=False)
    return np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])


def reduced_states(kind: str, cols: Dict[str, np.ndarray]) -> np.ndarray:
    """Two-atom density matrices in the basis |ee>, |eg>, |ge>, |gg>."""
    rho = np.zeros((len(cols["c_ab"]), 4, 4), dtype=complex)
    if kind == "double":
        rho[:, 0, 0] = cols["p11"]
        rho[:, 1, 1] = cols["p2"]
        rho[:, 2, 2] = cols["p3"]
        rho[:, 3, 3] = cols["p00"] + cols["p4"]
        rho[:, 0, 3] = rho[:, 3, 0] = np.sqrt(cols["p11"] * cols["p00"])
    else:
        c1 = cols["re_c1"] + 1j * cols["im_c1"]
        c2 = cols["re_c2"] + 1j * cols["im_c2"]
        rho[:, 1, 1] = cols["pop1"]
        rho[:, 2, 2] = cols["pop2"]
        rho[:, 1, 2] = c1.conj() * c2
        rho[:, 2, 1] = c1 * c2.conj()
        rho[:, 3, 3] = cols["pop_cav_a"] + cols["pop_cav_b"]
    return rho


def runs(mask: np.ndarray):
    """(first, last) index of each maximal run of True in a boolean array."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[::2], edges[1::2] - 1))


def revival_onset(times: np.ndarray, conc: np.ndarray, t_r: float) -> Optional[float]:
    """Start of the first lasting rise above the floor after the first collapse.

    A collapse is a dead run of at least MIN_DEAD_SHARE * t_r.  The leading
    edge of a returning echo flickers across the floor sample by sample, so
    a rise counts only once it stays above the floor for 20 sample spacings.
    """
    collapses = [j for i, j in runs(conc <= DEAD_FLOOR)
                 if times[j] - times[i] >= MIN_DEAD_SHARE * t_r]
    if not collapses:
        return None
    min_rise = 20.0 * (times[1] - times[0])
    for i, j in runs(conc > DEAD_FLOOR):
        if i > collapses[0] and times[j] - times[i] >= min_rise:
            return float(times[i])
    return None


def read_csv(path: str):
    """Header and float rows of a CSV; raises ValueError on a malformed file."""
    with open(path, "r", encoding="ascii") as handle:
        header = tuple(handle.readline().rstrip("\n").split(","))
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{data.shape[1]} values per row under {len(header)} headers")
    return header, data


def check_trajectory(path: str, spec: RunSpec) -> CheckResult:
    """Check every row of one trajectory CSV; failures are listed, not raised."""
    result = CheckResult()
    fail = result.failures.append
    try:
        header, data = read_csv(path)
    except (OSError, ValueError) as exc:
        fail(f"unreadable CSV: {exc}")
        return result
    columns = DOUBLE_COLUMNS if spec.kind == "double" else SINGLE_COLUMNS
    if header != columns:
        fail(f"header {header} != {columns}")
        return result
    result.rows = len(data)
    if not np.all(np.isfinite(data)):
        fail("nonfinite values")
        return result
    cols = {name: data[:, i] for i, name in enumerate(header)}
    t = cols["t"]
    t_r = round_trip_time(spec.length_ratio, spec.omega_a)
    if result.rows < spec.min_rows:
        fail(f"{result.rows} rows, expected at least {spec.min_rows}")
        return result
    steps = np.diff(t)
    if (t[0] != 0.0 or abs(t[-1] - WINDOW_ROUND_TRIPS * t_r) > 1e-9 * t_r
            or np.any(steps <= 0.0)
            or np.any(np.abs(steps[:-1] - steps[0]) > 1e-9 * steps[0])):
        fail("sample times are not a uniform grid over the default window")

    errors = {k: float(np.max(np.abs(cols[k] - v))) for k, v in expected_columns(spec, t).items()}
    worst = max(errors, key=errors.get)
    result.max_ref_err = errors[worst]
    if result.max_ref_err > REF_TOL:
        fail(f"reference error {result.max_ref_err:.3e} in column {worst}")
    result.max_norm_dev = float(np.max(np.abs(cols["norm"] - 1.0)))
    if result.max_norm_dev > NORM_TOL:
        fail(f"|norm - 1| = {result.max_norm_dev:.3e}")

    rows = np.unique(np.linspace(0, result.rows - 1, WOOTTERS_ROWS).astype(int))
    subsample = {k: v[rows] for k, v in cols.items()}
    gap = np.abs(wootters(reduced_states(spec.kind, subsample)) - subsample["c_ab"])
    result.max_wootters_gap = float(np.max(gap))
    if result.max_wootters_gap > WOOTTERS_TOL:
        fail(f"Wootters concurrence differs from c_ab by {result.max_wootters_gap:.3e}")

    if spec.expect == "dead" and not any(
            t[j] - t[i] >= MIN_DEAD_SHARE * t_r for i, j in runs(cols["c_ab"] <= DEAD_FLOOR)):
        fail("no dead interval")
    if spec.expect == "revival":
        onset = revival_onset(t, cols["c_ab"], t_r)
        if onset is None:
            fail("no revival after a collapse")
        elif abs(onset - t_r) > ONSET_TOL * t_r:
            fail(f"first revival onset {onset:.4f} is not within {ONSET_TOL:.0%} of t_r={t_r:.4f}")
    return result


def check_summary(path: str, values: List[float]) -> List[str]:
    """Failures of a sweep summary: one row per swept value, in order."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        return [f"unreadable summary: {exc}"]
    if lines[0] != "value,first_revival_peak,first_dead_start" or lines[-1] != "":
        return ["malformed summary"]
    try:
        got = [float(line.split(",")[0]) for line in lines[1:-1]]
    except ValueError as exc:
        return [f"malformed summary: {exc}"]
    return [] if got == list(values) else [f"summary values {got} != {list(values)}"]
