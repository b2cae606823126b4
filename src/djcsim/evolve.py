"""Propagation of the amplitude equations: fixed-step RK4 and an exact engine.

The amplitude equations are linear with a time-independent generator, so a
classic fourth-order Runge-Kutta scheme with an analytically chosen step is
accurate, reproducible and simple.  The step resolves the fastest scale of
the grid (the largest detuning or the collective coupling, whichever is
larger) with 100 steps per cycle, which keeps the norm of every shipped
scenario within 1e-6 of 1 over its full window.

The two cavities are independent copies of one atom coupled to one comb of
modes, so every amplitude the run drivers record follows from that single
(n+1)-dimensional problem.  Its generator is, up to the photon gauge factor
i, the real arrowhead [[0, g], [g, diag(delta)]], whose eigenpairs
``comb_spectrum`` takes from the secular equation.  The exact engine
evaluates the atom amplitudes from them at the sample times, with no step
and no stepping error.  ``run_double`` always uses it; ``run_single`` takes
``engine="exact"`` or ``engine="rk4"``.

A dense eigendecomposition propagator is provided as an independent
cross-check for small systems.  It assembles the generator entry by entry
from the grid and never touches the Runge-Kutta code path.  Together with
``integrate`` over ``double.flat_derivative`` it is the reference for
double-excitation states other than the one ``run_double`` starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import single as _single
# The concurrence_*_closed and observables_* functions are unused here but
# stay importable from this module: the benchmark's tracer patches them by
# name.  run_single's observe takes the same scalar arithmetic inline.
from .concurrence import concurrence_double_closed, concurrence_single_closed
from .double import DoubleExcState, observables_double
from .model import ModeGrid, check_theta
from .single import SingleExcState, observables_single

#: RK4 is stable on the imaginary axis up to |eigenvalue| * dt = 2*sqrt(2).
_RK4_IMAG_STABILITY = 2.0 * math.sqrt(2.0)

#: Hard cap on the matrix-exponential oracle dimension.
_EXPM_MAX_DIM = 200

#: Propagation engines of the run drivers.
ENGINES = ("exact", "rk4")

#: Times the exact engine and the memory kernel evaluate per block, which
#: bounds their (block x modes) phase matrices.
TIME_BLOCK = 128

#: Largest eigen residual and orthogonality error the exact engine accepts.
_SPECTRUM_TOL = 1e-10


class IntegrationError(RuntimeError):
    """A run produced nonfinite amplitudes (blown-up step size), or the
    exact engine's spectrum failed its check."""


@dataclass
class Trajectory:
    """Time-sampled observables of one integration run.

    ``records`` maps column names to arrays aligned with ``times``; the
    insertion order of the keys is the column order written to CSV.
    ``engine`` says how the run was propagated and how far to trust it.
    """

    times: np.ndarray
    records: dict
    engine: str = ""

    def __len__(self) -> int:
        return len(self.times)


def default_step(grid: ModeGrid, steps_per_cycle: int = 100) -> float:
    """Integration step resolving the fastest frequency of the grid.

    The fastest secular scale is max(|largest detuning|, G) with
    G = sqrt(sum of squared couplings) the collective coupling.  The step is
    one steps_per_cycle-th of that period, capped at 1.
    """
    collective = math.sqrt(float(np.sum(grid.couplings ** 2)))
    fastest = max(float(np.max(np.abs(grid.detunings))), collective)
    return min(2.0 * math.pi / fastest / steps_per_cycle, 1.0)


def stability_limit(grid: ModeGrid) -> float:
    """Largest step for which RK4 stays stable on this grid (conservative)."""
    collective = math.sqrt(float(np.sum(grid.couplings ** 2)))
    spectral_bound = 2.0 * (float(np.max(np.abs(grid.detunings))) + collective)
    return _RK4_IMAG_STABILITY / spectral_bound


def check_window(t_max: float, dt: float, sample_stride: int = 1,
                 max_dt: Optional[float] = None) -> None:
    """Reject a window, step or stride that cannot be sampled.

    ``max_dt`` is the stability limit of a stepping engine, if any.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be nonnegative and finite, got {t_max!r}")
    if t_max / dt == math.inf:
        raise ValueError(f"t_max={t_max!r} over dt={dt!r} overflows; raise dt")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride!r}")
    if max_dt is not None and dt > max_dt:
        raise ValueError(
            f"dt={dt!r} exceeds the stability limit {max_dt!r} for this grid"
        )


def step_count(t_max: float, dt: float) -> int:
    """Steps of length dt (the last one shortened) that cover [0, t_max]."""
    return int(math.ceil(t_max / dt - 1e-12)) if t_max > 0.0 else 0


def sample_times(t_max: float, dt: float, sample_stride: int = 1) -> np.ndarray:
    """The times ``integrate`` samples, bit for bit, without stepping.

    0, then k * dt for every multiple k of the stride short of the last
    step, then t_max.
    """
    check_window(t_max, dt, sample_stride)
    n_steps = step_count(t_max, dt)
    if n_steps == 0:
        return np.zeros(1)
    inner = np.arange(sample_stride, n_steps, sample_stride) * dt
    return np.concatenate(([0.0], inner, [t_max]))


def integrate(
    deriv: Callable[[np.ndarray], np.ndarray],
    state0: np.ndarray,
    t_max: float,
    dt: float,
    sample_stride: int = 1,
    observe: Optional[Callable[[float, np.ndarray], dict]] = None,
    max_dt: Optional[float] = None,
) -> Trajectory:
    """Advance a packed amplitude vector with classic RK4 and sample it.

    Parameters
    ----------
    deriv : callable
        Maps a flat complex vector to its time derivative (linear,
        time-independent).  It must return a fresh array on every call:
        the stage sums are accumulated in place in the returned arrays.
    state0 : ndarray
        Initial packed vector.
    t_max, dt : float
        Window length and step.  If t_max is not a multiple of dt the final
        step is shortened so the last sample lands exactly on t_max.
    sample_stride : int
        A sample is recorded every ``sample_stride`` steps, plus the initial
        and final instants.
    observe : callable, optional
        ``observe(t, vector) -> dict`` of record values; defaults to the
        squared norm only.
    max_dt : float, optional
        Reject dt above this bound (used by the run drivers to enforce the
        grid's stability limit).

    Raises
    ------
    IntegrationError
        If any sampled amplitude is nonfinite.
    """
    check_window(t_max, dt, sample_stride, max_dt)
    if observe is None:
        observe = lambda t, y: {"norm": float(np.sum(np.abs(y) ** 2))}

    y = np.array(state0, dtype=complex)
    n_steps = step_count(t_max, dt)

    times = []
    rows = []

    def sample(t: float, vec: np.ndarray) -> None:
        if not np.all(np.isfinite(vec)):
            raise IntegrationError(
                f"nonfinite amplitudes at t={t:.6g}; reduce dt"
            )
        times.append(t)
        rows.append(observe(t, vec))

    sample(0.0, y)
    for i in range(n_steps):
        h = dt if i + 1 < n_steps else t_max - (n_steps - 1) * dt
        half = 0.5 * h
        k1 = deriv(y)
        k2 = deriv(y + half * k1)
        k3 = deriv(y + half * k2)
        k4 = deriv(y + h * k3)
        # k1 + 2 k2 + 2 k3 + k4, summed left to right in place
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        y = y + k2
        if (i + 1) % sample_stride == 0 or i + 1 == n_steps:
            sample(t_max if i + 1 == n_steps else (i + 1) * dt, y)

    records = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return Trajectory(times=np.array(times), records=records,
                      engine=f"rk4 (dt={dt:.6g}, steps={n_steps})")


def generator_single(grid: ModeGrid) -> np.ndarray:
    """Dense generator M of the single-excitation equations, dstate/dt = M state.

    Assembled entry by entry, independently of the vectorized derivative.
    """
    n = grid.n
    dim = 2 + 2 * n
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        ia = 2 + k
        ib = 2 + n + k
        m[0, ia] = grid.couplings[k]
        m[ia, 0] = -grid.couplings[k]
        m[ia, ia] = -1j * grid.detunings[k]
        m[1, ib] = grid.couplings[k]
        m[ib, 1] = -grid.couplings[k]
        m[ib, ib] = -1j * grid.detunings[k]
    return m


def generator_double(grid: ModeGrid) -> np.ndarray:
    """Dense generator M of the double-excitation equations."""
    n = grid.n
    dim = 2 + 2 * n + n * n
    g = grid.couplings
    delta = grid.detunings
    m = np.zeros((dim, dim), dtype=complex)

    def i2(nu):
        return 2 + nu

    def i3(mu):
        return 2 + n + mu

    def i4(mu, nu):
        return 2 + 2 * n + mu * n + nu

    for nu in range(n):
        m[1, i2(nu)] = -g[nu]
        m[i2(nu), 1] = g[nu]
        m[i2(nu), i2(nu)] = -1j * delta[nu]
    for mu in range(n):
        m[1, i3(mu)] = -g[mu]
        m[i3(mu), 1] = g[mu]
        m[i3(mu), i3(mu)] = -1j * delta[mu]
    for mu in range(n):
        for nu in range(n):
            m[i2(nu), i4(mu, nu)] = -g[mu]
            m[i3(mu), i4(mu, nu)] = -g[nu]
            m[i4(mu, nu), i4(mu, nu)] = -1j * (delta[mu] + delta[nu])
            m[i4(mu, nu), i2(nu)] = g[mu]
            m[i4(mu, nu), i3(mu)] = g[nu]
    return m


def expm_oracle(
    state0: Union[SingleExcState, DoubleExcState],
    grid: ModeGrid,
    t: float,
) -> Union[SingleExcState, DoubleExcState]:
    """Propagate a state by exp(M t) through a dense eigendecomposition.

    The generator M is anti-Hermitian, so with (lam, V) = eigh(i M) the
    propagator is V diag(exp(-i lam t)) V^H.  Serves as an
    integrator-independent reference for small systems; the total dimension
    is capped at 200.
    """
    if isinstance(state0, SingleExcState):
        m = generator_single(grid)
        unpack = lambda v: SingleExcState.from_vector(v, grid.n)
    elif isinstance(state0, DoubleExcState):
        m = generator_double(grid)
        unpack = lambda v: DoubleExcState.from_vector(v, grid.n)
    else:
        raise TypeError(f"unsupported state type {type(state0).__name__}")
    if m.shape[0] > _EXPM_MAX_DIM:
        raise ValueError(
            f"oracle dimension {m.shape[0]} exceeds the cap {_EXPM_MAX_DIM}"
        )
    lam, vecs = np.linalg.eigh(1j * m)
    phases = np.exp(-1j * lam * t)
    return unpack(vecs @ (phases * (vecs.conj().T @ state0.to_vector())))


@dataclass(frozen=True)
class CombSpectrum:
    """Eigenpairs of one cavity's real arrowhead A = [[0, g], [g, diag(delta)]].

    Row j holds the eigenvector of ``eigenvalues[j]``: its atom component
    ``atom[j]`` and its photon components ``photon[j]``.  The Hermitian
    i*M of the amplitude equations is D A D^H with D = diag(1, -i, ..., -i),
    so both share the eigenvalues.  ``residual`` is max|A V - V Lambda| and
    ``orthogonality`` is max|V^T V - I|.
    """

    eigenvalues: np.ndarray
    atom: np.ndarray
    photon: np.ndarray
    residual: float
    orthogonality: float


def comb_spectrum(grid: ModeGrid) -> CombSpectrum:
    """Eigenpairs of one cavity's arrowhead from its secular equation.

    The eigenvalues solve lam = sum_k g_k^2 / (lam - delta_k): one below the
    lowest detuning, one between each adjacent pair and one above the
    highest (the detunings increase strictly and the couplings are nonzero,
    as ``build_mode_grid`` makes them).  All roots are bisected together,
    each as the offset tau from the pole it lies closer to, so that
    lam - delta_k keeps full relative accuracy however close the root is to
    that pole.  The eigenvector of lam is a * (1, g_k / (lam - delta_k))
    with a = 1 / sqrt(1 + sum_k g_k^2 / (lam - delta_k)^2).

    Both checks cost O(n^2): with S(lam) = sum_k g_k^2 / (lam - delta_k),
    v_i . v_j = a_i a_j (1 + (S(lam_j) - S(lam_i)) / (lam_i - lam_j)).
    """
    delta = grid.detunings
    g = grid.couplings
    g2 = g * g
    n = grid.n
    roots = np.arange(n + 1)
    # Root j lies between lower[j] and upper[j]; the outer brackets are the
    # spectrum of diag(0, delta) widened by the norm of the coupling column.
    reach = math.sqrt(float(np.sum(g2)))
    lower = np.concatenate(([min(0.0, delta[0]) - reach], delta))
    upper = np.concatenate((delta, [max(0.0, delta[-1]) + reach]))
    mid = 0.5 * (lower + upper)
    # nonfinite intermediates show up in the residual, which the run checks
    with np.errstate(all="ignore"):
        low_half = mid - np.sum(g2 / (mid[:, None] - delta), axis=1) > 0.0
        # the secular function rises between poles: a positive value at the
        # midpoint puts the root in the lower half, next to the lower pole
        origin = np.where(low_half, roots - 1, roots)
        origin[0], origin[-1] = 0, n - 1  # the outer roots have one pole each
        pole = delta[origin]
        lo = np.where(low_half, lower, mid) - pole
        hi = np.where(low_half, mid, upper) - pole
        offsets = delta - pole[:, None]  # delta_k - pole_j, exactly 0 at the pole
        while True:
            tau = 0.5 * (lo + hi)
            open_ = (lo < tau) & (tau < hi)
            if not open_.any():
                break
            rising = pole + tau - np.sum(g2 / (tau[:, None] - offsets), axis=1) > 0.0
            hi = np.where(open_ & rising, tau, hi)
            lo = np.where(open_ & ~rising, tau, lo)

        eigenvalues = pole + tau
        gaps = tau[:, None] - offsets  # lam_j - delta_k
        ratio = g / gaps
        norm2 = 1.0 + np.sum(ratio * ratio, axis=1)
        atom = 1.0 / np.sqrt(norm2)
        photon = ratio * atom[:, None]
        residual = np.maximum(  # atom row, then photon rows (NaN propagates)
            np.max(np.abs(np.sum(g * photon, axis=1) - eigenvalues * atom)),
            np.max(np.abs(g * atom[:, None] - gaps * photon)))
        secular = np.sum(g2 / gaps, axis=1)
        overlap = np.outer(atom, atom) * (
            1.0 + (secular - secular[:, None]) / (eigenvalues[:, None] - eigenvalues))
        overlap[roots, roots] = atom * atom * norm2 - 1.0
    return CombSpectrum(eigenvalues=eigenvalues, atom=atom, photon=photon,
                        residual=float(residual),
                        orthogonality=float(np.max(np.abs(overlap))))


def _exact_atoms(grid: ModeGrid, blocks, times: np.ndarray):
    """Atom amplitudes of cavity blocks started at (atom0, photons0), at every time.

    Each amplitude is u(t) = sum_j exp(-i lam_j t) w_j, the atom row of
    D V exp(-i Lambda t) V^T D^H applied to the start, where D^H gives the
    photons the factor i.  The phases are formed for at most
    ``TIME_BLOCK`` times at once and shared by the blocks, and summed with
    einsum: a BLAS matvec of this size is slower under threaded BLAS.
    Returns the amplitudes, one row per block, and the engine description.
    """
    spectrum = comb_spectrum(grid)
    if not (spectrum.residual <= _SPECTRUM_TOL
            and spectrum.orthogonality <= _SPECTRUM_TOL):
        raise IntegrationError(
            f"exact engine spectrum failed its check: eigen residual "
            f"{spectrum.residual:.3e}, orthogonality error "
            f"{spectrum.orthogonality:.3e} (limit {_SPECTRUM_TOL:.0e})"
        )
    weights = [spectrum.atom * (spectrum.atom * atom0 + 1j * (spectrum.photon @ photons0))
               for atom0, photons0 in blocks]
    out = np.empty((len(weights), len(times)), dtype=complex)
    for lo in range(0, len(times), TIME_BLOCK):
        phase = np.exp(-1j * np.outer(times[lo:lo + TIME_BLOCK], spectrum.eigenvalues))
        for row, w in zip(out, weights):
            row[lo:lo + len(phase)] = np.einsum("ij,j->i", phase, w)
    # The propagator is the identity at t = 0: sample the start itself, as
    # integrate does, rather than V V^T applied to it.
    out[:, times == 0.0] = np.array([[atom0] for atom0, _ in blocks])
    if not np.all(np.isfinite(out)):
        raise IntegrationError("nonfinite amplitudes from the exact engine")
    return out, (f"exact (eigen residual {spectrum.residual:.1e}, "
                 f"orthogonality error {spectrum.orthogonality:.1e})")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


def _single_columns(c1, c2, c_ab, pop1, pop2, pop_cav_a, pop_cav_b) -> dict:
    """The standard single-run columns, in CSV order, from sampled arrays."""
    return {
        "c_ab": c_ab,
        "pop1": pop1,
        "pop2": pop2,
        "pop_cav_a": pop_cav_a,
        "pop_cav_b": pop_cav_b,
        "norm": pop1 + pop2 + pop_cav_a + pop_cav_b,
        "re_c1": c1.real,
        "im_c1": c1.imag,
        "re_c2": c2.real,
        "im_c2": c2.imag,
    }


def run_single(
    grid: ModeGrid,
    state0: SingleExcState,
    t_max: float,
    dt: Optional[float] = None,
    sample_stride: int = 1,
    engine: str = "rk4",
) -> Trajectory:
    """Propagate a single-excitation state, recording the standard columns.

    Columns: c_ab (closed-form concurrence), the four populations, the norm
    and the real/imaginary parts of the two atomic amplitudes.  Both engines
    sample the same times.  ``engine="exact"`` propagates each cavity block
    to its atom amplitude; the photon populations follow from the block's
    conserved norm.
    """
    _check_engine(engine)
    if dt is None:
        dt = default_step(grid)

    if engine == "exact":
        times = sample_times(t_max, dt, sample_stride)
        (c1, c2), description = _exact_atoms(
            grid, [(state0.c1, state0.ca), (state0.c2, state0.cb)], times)
        pop1 = np.abs(c1) ** 2
        pop2 = np.abs(c2) ** 2
        columns = _single_columns(
            c1, c2, 2.0 * np.abs(c1) * np.abs(c2), pop1, pop2,
            abs(state0.c1) ** 2 + float(np.sum(np.abs(state0.ca) ** 2)) - pop1,
            abs(state0.c2) ** 2 + float(np.sum(np.abs(state0.cb) ** 2)) - pop2)
        return Trajectory(times=times, records=columns, engine=description)

    n = grid.n

    def observe(t, y):
        # Scalar abs and ** 2, as concurrence_single_closed and
        # observables_single take them: numpy's array forms differ in the
        # last bit.
        c1, c2 = y[0], y[1]
        pop_a, pop_b = np.sum(np.abs(y[2:].reshape(2, n)) ** 2, axis=1)
        return {"c1": c1, "c2": c2, "c_ab": 2.0 * abs(c1) * abs(c2),
                "pop1": abs(c1) ** 2, "pop2": abs(c2) ** 2,
                "pop_cav_a": pop_a, "pop_cav_b": pop_b}

    traj = integrate(
        _single.flat_derivative(grid),
        state0.to_vector(),
        t_max,
        dt,
        sample_stride=sample_stride,
        observe=observe,
        max_dt=stability_limit(grid),
    )
    return Trajectory(times=traj.times, records=_single_columns(**traj.records),
                      engine=traj.engine)


def run_double(
    grid: ModeGrid,
    theta: float,
    t_max: float,
    dt: Optional[float] = None,
    sample_stride: int = 1,
) -> Trajectory:
    """Propagate cos(theta)|gg> + sin(theta)|ee>, recording the standard columns.

    The start is the state ``init_double(theta, grid)`` holds, but it is
    never formed: each excited atom keeps the amplitude u of one atom in one
    comb, so with p = |u|^2 the populations are p11 = sin^2 p^2,
    p2 = p3 = sin^2 p (1 - p) and p4 = sin^2 (1 - p)^2.  The default dt, the
    sample spacing, is half the grid step.

    Raises
    ------
    ValueError
        If theta lies outside [0, pi/2].
    """
    check_theta(theta)
    if dt is None:
        dt = 0.5 * default_step(grid)
    times = sample_times(t_max, dt, sample_stride)
    (u,), description = _exact_atoms(grid, [(1.0, np.zeros(grid.n))], times)
    p = np.abs(u) ** 2
    d00, d11 = math.cos(theta), math.sin(theta)
    excited = d11 ** 2
    one_photon = excited * p * (1.0 - p)
    p11 = excited * p * p
    p4 = excited * (1.0 - p) ** 2
    p00 = np.full(len(times), d00 ** 2)
    coherence = d11 * p * d00
    records = {
        "c_ab": 2.0 * np.maximum(0.0, coherence - one_photon),
        "p11": p11,
        "p2": one_photon,
        "p3": one_photon,
        "p4": p4,
        "p00": p00,
        "norm": p00 + p11 + one_photon + one_photon + p4,
    }
    return Trajectory(times=times, records=records, engine=description)
