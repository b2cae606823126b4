"""Propagation of the amplitude equations: fixed-step RK4 and an exact engine.

The amplitude equations are linear with a time-independent generator, so a
classic fourth-order Runge-Kutta scheme with an analytically chosen step is
reproducible and simple.  The step resolves the fastest scale of the grid
(the largest detuning or the collective coupling, whichever is larger) with
100 steps per cycle, which keeps the norm of every shipped scenario within
1e-6 of 1 over its full window.  The norm drift understates the amplitude
error: ``single --modes 1`` runs up to 1.6e-6 off the closed-form
concurrence while its norm drifts by only 1.7e-7.

The two cavities are independent copies of one atom coupled to one comb of
modes, so every amplitude the run drivers record follows from that single
(n+1)-dimensional problem.  Its generator is, up to the photon gauge factor
i, the real arrowhead [[0, g], [g, diag(delta)]], whose eigenpairs
``comb_spectrum`` takes from the secular equation, solved by steps of a
rational model inside bisection brackets.  The exact engine
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
# concurrence_double_closed and observables_double are unused here but stay
# importable from this module: the benchmark's tracer patches them by name.
from .concurrence import concurrence_double_closed, concurrence_single_closed
from .double import DoubleExcState, observables_double
from .model import ModeGrid, check_theta
from .single import SingleExcState, observables_single

#: RK4 is stable on the imaginary axis up to |eigenvalue| * dt = 2*sqrt(2).
_RK4_IMAG_STABILITY = 2.0 * math.sqrt(2.0)

#: Hard cap on the matrix-exponential oracle dimension.
_EXPM_MAX_DIM = 200

#: Times the exact engine and the memory kernel evaluate per block, which
#: bounds their (block x modes) phase matrices.
TIME_BLOCK = 128
#: Blocks of samples the exact engine sums in one call.
_BLOCK_GROUP = 16

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


def default_step(grid: ModeGrid, double: bool = False) -> float:
    """Integration step resolving the fastest frequency of the grid.

    The fastest secular scale is max(|largest detuning|, G) with
    G = sqrt(sum of squared couplings) the collective coupling.  The step is
    one hundredth of that period, capped at 1, and half that for a double run.
    """
    fastest = max(grid.max_detuning, grid.collective_coupling)
    return min(2.0 * math.pi / fastest / 100, 1.0) * (0.5 if double else 1.0)


def stability_limit(grid: ModeGrid) -> float:
    """Largest step for which RK4 stays stable on this grid (conservative)."""
    spectral_bound = 2.0 * (grid.max_detuning + grid.collective_coupling)
    return _RK4_IMAG_STABILITY / spectral_bound


def check_window(t_max: float, dt: float, sample_stride: int = 1) -> None:
    """Reject a window, step or stride that cannot be sampled."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be nonnegative and finite, got {t_max!r}")
    if t_max / dt == math.inf:
        raise ValueError(f"t_max={t_max!r} over dt={dt!r} overflows; raise dt")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride!r}")


def step_count(t_max: float, dt: float) -> int:
    """Steps of length dt (the last one shortened) that cover [0, t_max]."""
    return int(math.ceil(t_max / dt - 1e-12)) if t_max > 0.0 else 0


def sample_times(t_max: float, dt: float, sample_stride: int = 1) -> np.ndarray:
    """The times both engines sample: 0, then k * dt for every multiple k
    of the stride short of the last step, then t_max.

    k is formed as a float64 multiple of the stride, so a step count or a
    stride beyond the int64 range still gives float64 times.
    """
    check_window(t_max, dt, sample_stride)
    n_steps = step_count(t_max, dt)
    if n_steps == 0:
        return np.zeros(1)
    inner = np.arange(1, (n_steps - 1) // sample_stride + 1) * float(sample_stride) * dt
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
        Each step's later stages pass it one scratch buffer, reused across
        the stages and steps of the run, so it must neither keep nor
        modify its argument.
    state0 : ndarray
        Initial packed vector.
    t_max, dt : float
        Window length and step.  If t_max is not a multiple of dt the final
        step is shortened so the last sample lands exactly on t_max.
    sample_stride : int
        A sample is recorded every ``sample_stride`` steps, plus the initial
        and final instants: at ``sample_times(t_max, dt, sample_stride)``.
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

    Notes
    -----
    The loop runs ``sample_stride`` steps per sample, then the rest of the
    full steps and the last step.  The stage and sum operands are 0-d
    complex128 arrays: 2 once per run, and 0.5 h, h and h/6 once for the
    full steps and again for the last.  A Python float operand costs numpy
    a conversion to the same complex128 value on every call.  The arithmetic is the textbook
    loop's, in its order, bit for bit.  What is left is numpy call
    overhead: on the 200-dimensional ``--modes 99`` vector a step takes
    about 21 us and a run_single sample about 9.6 us (2-core Xeon VM).
    The CLI's ``single`` runs step here until they move to the exact engine
    together with the benchmark's traced-layer self-test, which expects a
    stepped run.
    """
    times = sample_times(t_max, dt, sample_stride)
    if max_dt is not None and dt > max_dt:
        raise ValueError(
            f"dt={dt!r} exceeds the stability limit {max_dt!r} for this grid"
        )
    if observe is None:
        observe = lambda t, y: {"norm": float(np.sum(np.abs(y) ** 2))}

    y = np.array(state0, dtype=complex)
    n_steps = step_count(t_max, dt)
    rows = []

    def sample(vec: np.ndarray) -> None:
        t = times[len(rows)]
        if not np.isfinite(vec).all():
            raise IntegrationError(
                f"nonfinite amplitudes at t={t:.6g}; reduce dt"
            )
        rows.append(observe(t, vec))

    def operands(h: float) -> tuple:
        """0.5 h, h and h/6 as 0-d complex128 arrays (see Notes)."""
        return tuple(np.array(c, dtype=complex) for c in (0.5 * h, h, h / 6.0))

    stage = np.empty_like(y)  # the input y + (c h) k of each later stage, in turn
    two = np.array(2.0, dtype=complex)

    def advance(y: np.ndarray, steps: int, step_operands: tuple) -> np.ndarray:
        half, h, sixth = step_operands
        for _ in range(steps):
            k1 = deriv(y)
            np.multiply(k1, half, out=stage)
            np.add(stage, y, out=stage)
            k2 = deriv(stage)
            np.multiply(k2, half, out=stage)
            np.add(stage, y, out=stage)
            k3 = deriv(stage)
            np.multiply(k3, h, out=stage)
            np.add(stage, y, out=stage)
            k4 = deriv(stage)
            # k1 + 2 k2 + 2 k3 + k4, summed left to right in place
            k2 *= two
            k2 += k1
            k3 *= two
            k2 += k3
            k2 += k4
            k2 *= sixth
            k2 += y
            y = k2
        return y

    sample(y)
    if n_steps:
        # every step but the last has length dt; a sample follows each
        # sample_stride of them, and the last step
        full = n_steps - 1
        full_step = operands(dt)
        for _ in range(full // sample_stride):
            y = advance(y, sample_stride, full_step)
            sample(y)
        y = advance(y, full % sample_stride, full_step)
        y = advance(y, 1, operands(t_max - full * dt))
        sample(y)

    records = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return Trajectory(times=times, records=records,
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
    so both share the eigenvalues.  ``residual`` is the atom row of
    A V - V Lambda, max_j |sum_k g_k photon[j, k] - lam_j atom[j]| (its
    photon rows vanish by construction of ``photon``), and ``orthogonality``
    is max|V^T V - I|.  ``sweeps`` is the number of evaluations of the
    secular function the slowest root took.
    """

    eigenvalues: np.ndarray
    atom: np.ndarray
    photon: np.ndarray
    residual: float
    orthogonality: float
    sweeps: int


def _model_roots(a, r, g2):
    """The roots below and above 0 of a tau^2 + r tau - g2 = 0 (a, g2 > 0).

    q / a and -g2 / q are the two roots, each formed without cancellation;
    their product -g2 / a is negative, so one lies on each side of 0.
    """
    q = -0.5 * (r + np.copysign(np.hypot(r, 2.0 * np.sqrt(a * g2)), r))
    first, second = q / a, -g2 / q
    return np.minimum(first, second), np.maximum(first, second)


def _pole_line(delta, g2, origin, t, gap, term):
    """The rest of f beside each row's own pole delta[origin], as a line.

    At lam = delta[origin] + t it returns lam + sum_{k != origin}
    g_k^2 / (delta_k - lam), its slope 1 + sum_{k != origin}
    g_k^2 / (delta_k - lam)^2, and sum_{k != origin} |g_k^2 / (delta_k - lam)|,
    with gap and term as (rows x n) buffers.
    """
    pole = delta[origin]
    # delta_k - lam, formed from the exact delta_k - pole
    np.subtract(delta, pole[:, None], out=gap)
    gap -= t[:, None]
    gap[np.arange(len(origin)), origin] = np.inf  # drops the own pole's term
    np.divide(g2, gap, out=term)
    rest = pole + t + term.sum(axis=1)
    np.divide(term, gap, out=gap)  # g_k^2 / (delta_k - lam)^2
    np.abs(term, out=term)
    return rest, 1.0 + gap.sum(axis=1), term.sum(axis=1)


def _secular_roots(delta, g2, reach):
    """Roots of f(lam) = lam + sum_k g_k^2 / (delta_k - lam), each as its
    pole delta[origin] and its offset tau from it, and the number of sweeps
    the slowest root took.

    Root j lies between delta[j-1] and delta[j]; the outer roots lie within
    the spectrum of diag(0, delta) widened by reach, the norm of the
    coupling column.  Every root has one model: its own pole delta_o exact
    and the rest of f the line through its value and slope at the current
    offset t, rest + slope (tau - t) - g_o^2 / tau = 0.  Times tau that is
    a quadratic with one root on each side of the pole, exact for one mode.

    Taken at each pole (t = 0), the models give interior root j two
    estimates, one above pole j-1 and one below pole j.  At most one of
    them leaves the gap of width w: both would take the first model to be
    negative at delta_j and the second positive at delta_{j-1}, but the
    first's value there exceeds the second's by at least
    w + (g_{j-1}^2 + g_j^2) / w.  The root is held as the offset from the
    pole whose estimate lies nearer, so that lam - delta_k keeps full
    relative accuracy however close the root is to that pole, starts at
    that estimate and is bracketed by the whole gap.  The outer roots
    start mid-bracket.

    Each sweep evaluates f, the line and its slope for the roots still
    open, narrows each bracket by the sign of f (it rises between poles)
    and solves the model on the root's side of its pole, else takes the
    bracket's midpoint.  A root stops when |f| is at the rounding level
    8u (|lam| + sum_k |g_k^2 / (delta_k - lam)|), when its step does not
    move it, or when its bracket holds no other float.
    """
    n = len(delta)
    # two (n+1) x n buffers; a sweep uses one row per open root
    gaps = np.empty((n + 1, n))
    terms = np.empty((n + 1, n))
    poles = np.arange(n)
    rest, slope, _ = _pole_line(delta, g2, poles, np.zeros(n), gaps[:n], terms[:n])
    below, above = _model_roots(slope, rest, g2)
    # root j from pole j-1 and from pole j; at least one lies in the gap
    up, down = above[:-1], below[1:]
    nearer_up = up <= -down
    width = np.diff(delta)
    origin = np.concatenate(([0], np.where(nearer_up, poles[:-1], poles[1:]), [n - 1]))
    # one mode puts its roots +-G on the outer ends: admit them
    lo = np.concatenate(([np.nextafter(min(0.0, -delta[0]) - reach, -np.inf)],
                         np.where(nearer_up, 0.0, -width), [0.0]))
    hi = np.concatenate(([0.0], np.where(nearer_up, width, 0.0),
                         [np.nextafter(max(0.0, -delta[-1]) + reach, np.inf)]))
    tau = np.concatenate(([0.5 * lo[0]], np.where(nearer_up, up, down), [0.5 * hi[-1]]))
    side_up = origin < np.arange(n + 1)  # the root lies above its pole
    open_ = np.arange(n + 1)
    sweeps = 0
    while len(open_):
        sweeps += 1
        rows = len(open_)
        t = tau[open_]
        own = origin[open_]
        rest, slope, size = _pole_line(delta, g2, own, t, gaps[:rows], terms[:rows])
        pull = g2[own] / t  # minus the own pole's term
        f = rest - pull
        noise = 8.0 * 2.0 ** -53 * (np.abs(delta[own] + t) + size + np.abs(pull))
        low = lo[open_] = np.where(f < 0.0, t, lo[open_])
        high = hi[open_] = np.where(f > 0.0, t, hi[open_])
        below, above = _model_roots(slope, rest - slope * t, g2[own])
        step = np.where(side_up[open_], above, below)
        step = np.where((low < step) & (step < high), step, 0.5 * (low + high))
        done = ((np.abs(f) <= noise) | (step == t)
                | ~((low < step) & (step < high)))  # NaN ends here
        tau[open_] = np.where(done, t, step)
        open_ = open_[~done]
    return origin, tau, sweeps


def comb_spectrum(grid: ModeGrid) -> CombSpectrum:
    """Eigenpairs of one cavity's arrowhead from its secular equation.

    The eigenvalues solve lam = sum_k g_k^2 / (lam - delta_k): one below the
    lowest detuning, one between each adjacent pair and one above the
    highest (the detunings increase strictly and the couplings are nonzero,
    as ``build_mode_grid`` makes them).  ``_secular_roots`` solves each as
    its offset tau from a pole next to it, starting from a model taken at
    the poles.  The eigenvector of lam is a * (1, g_k / (lam - delta_k))
    with a = 1 / sqrt(1 + sum_k g_k^2 / (lam - delta_k)^2).

    The photon rows of A v - lam v are then zero by construction, and the
    atom row, a * (S(lam) - lam) with S(lam) = sum_k g_k^2 / (lam - delta_k),
    is the residual that tests lam.  The orthogonality check uses
    v_i . v_j = a_i a_j (1 + (S(lam_j) - S(lam_i)) / (lam_i - lam_j)).
    Each row g_k / (lam_j - delta_k) is divided by a power of two above its
    largest entry before a_j and the overlap are formed from it: exact, and
    free of the overflow of its squares on wide combs.  Both checks cost
    O(n^2) time; the peak memory is about three (n+1) x n float64 arrays.
    """
    delta = grid.detunings
    g = grid.couplings
    g2 = g * g
    # nonfinite intermediates show up in the residual, which the run checks
    with np.errstate(all="ignore"):
        origin, tau, sweeps = _secular_roots(delta, g2, grid.collective_coupling)
        pole = delta[origin]
        eigenvalues = pole + tau
        # one (n+1) x n buffer: delta_k - pole_j, the gaps lam_j - delta_k,
        # then g_k / gaps, then the photon components
        photon = np.subtract(delta, pole[:, None])
        np.subtract(tau[:, None], photon, out=photon)
        secular = np.sum(g2 / photon, axis=1)
        np.divide(g, photon, out=photon)
        # row j over 2^e_j > max_k |photon[j, k]|, with scale = 2^-e_j
        _, e = np.frexp(np.maximum(photon.max(axis=1), -photon.min(axis=1)))
        scale = np.ldexp(1.0, -np.maximum(e, 0))
        photon *= scale[:, None]
        norm2 = scale * scale + np.sum(photon * photon, axis=1)
        unit = 1.0 / np.sqrt(norm2)
        atom = scale * unit
        photon *= unit[:, None]
        # the atom row of A V - V Lambda (NaN propagates)
        residual = np.max(np.abs(np.sum(g * photon, axis=1) - eigenvalues * atom))
        # 2^-e_i 2^-e_j (1 + (S_j - S_i) / (lam_i - lam_j)), scaled before dividing
        overlap = (secular - secular[:, None]) * scale[:, None] * scale
        overlap /= np.subtract.outer(eigenvalues, eigenvalues)
        overlap += np.outer(scale, scale)
        overlap *= np.outer(unit, unit)
        np.fill_diagonal(overlap, unit * unit * norm2 - 1.0)
    return CombSpectrum(eigenvalues=eigenvalues, atom=atom, photon=photon,
                        residual=float(residual),
                        orthogonality=float(np.max(np.abs(overlap))), sweeps=sweeps)


def _exact_atoms(grid: ModeGrid, blocks, t_max: float, dt: float, sample_stride: int):
    """Atom amplitudes of cavity blocks started at (atom0, photons0), sampled
    at ``sample_times(t_max, dt, sample_stride)``.

    Each amplitude is u(t) = sum_j exp(-i lam_j t) w_j, the atom row of
    D V exp(-i Lambda t) V^T D^H applied to the start, where D^H gives the
    photons the factor i.  Every sample but the last lies on the uniform
    grid k * stride * dt, so the phases come from one table
    exp(-i lam_j k stride dt), k < ``TIME_BLOCK``, built once per run: the
    block of samples starting at t_b is the table applied to the weights
    exp(-i lam_j t_b) w_j.  The last sample, t_max, is evaluated directly.
    The sums are one ``np.vecdot`` per ``_BLOCK_GROUP`` blocks, which
    conjugates its first argument, so the table holds exp(+i lam_j t).
    vecdot runs on the calling thread; a BLAS product of this size starts
    OpenBLAS's threads, which stall on a busy machine.  Returns the sample
    times, the amplitudes (one row per block) and the engine description.
    """
    times = sample_times(t_max, dt, sample_stride)
    spectrum = comb_spectrum(grid)
    if not (spectrum.residual <= _SPECTRUM_TOL
            and spectrum.orthogonality <= _SPECTRUM_TOL):
        raise IntegrationError(f"exact engine spectrum failed its check: eigen residual "
                               f"{spectrum.residual:.3e}, orthogonality error "
                               f"{spectrum.orthogonality:.3e} (limit {_SPECTRUM_TOL:.0e})")
    lam = spectrum.eigenvalues
    weights = np.array([
        spectrum.atom * (spectrum.atom * atom0
                         + 1j * np.einsum("jk,k->j", spectrum.photon, photons0))
        for atom0, photons0 in blocks])
    out = np.empty((len(weights), len(times)), dtype=complex)
    on_grid = len(times) - 1
    # times[k] = k * stride * dt for k < on_grid, bit for bit
    table = np.exp(1j * np.outer(times[:min(on_grid, TIME_BLOCK)], lam))
    full = on_grid - on_grid % TIME_BLOCK
    for lo in range(0, full, _BLOCK_GROUP * TIME_BLOCK):
        starts = times[lo:min(lo + _BLOCK_GROUP * TIME_BLOCK, full):TIME_BLOCK]
        span = out[:, lo:lo + len(starts) * TIME_BLOCK]
        # (blocks, group, 1, modes) weights against the (TIME_BLOCK, modes) table
        shifted = weights[:, None, None, :] * np.exp(-1j * np.outer(starts, lam))[:, None, :]
        np.vecdot(table, shifted, out=span.reshape(len(weights), len(starts), TIME_BLOCK))
    if full < on_grid:
        np.vecdot(table[:on_grid - full], weights[:, None, :] * np.exp(-1j * times[full] * lam),
                  out=out[:, full:on_grid])
    out[:, -1] = np.vecdot(np.exp(1j * times[-1] * lam), weights)
    # The propagator is the identity at t = 0: sample the start itself, as
    # integrate does, rather than V V^T applied to it.
    out[:, times == 0.0] = np.array([[atom0] for atom0, _ in blocks])
    if not np.all(np.isfinite(out)):
        raise IntegrationError("nonfinite amplitudes from the exact engine")
    return times, out, (f"exact (eigen residual {spectrum.residual:.1e}, "
                        f"orthogonality error {spectrum.orthogonality:.1e}, "
                        f"{spectrum.sweeps} sweeps)")


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
    if engine not in ("exact", "rk4"):
        raise ValueError(f"engine must be 'exact' or 'rk4', got {engine!r}")
    if dt is None:
        dt = default_step(grid)

    if engine == "exact":
        times, (c1, c2), description = _exact_atoms(
            grid, [(state0.c1, state0.ca), (state0.c2, state0.cb)], t_max, dt, sample_stride)
        # the blocks' conserved norms, once per run: called through the
        # single module, as the benchmark's tracer times this module's name
        # per RK4 sample only
        start = _single.observables_single(state0)
        pop1 = np.abs(c1) ** 2
        pop2 = np.abs(c2) ** 2
        pop_a = start["pop1"] + start["pop_cav_a"] - pop1
        pop_b = start["pop2"] + start["pop_cav_b"] - pop2
        records = {"c_ab": 2.0 * np.abs(c1) * np.abs(c2), "pop1": pop1, "pop2": pop2,
                   "pop_cav_a": pop_a, "pop_cav_b": pop_b, "norm": pop1 + pop2 + pop_a + pop_b,
                   "re_c1": c1.real, "im_c1": c1.imag, "re_c2": c2.real, "im_c2": c2.imag}
        return Trajectory(times=times, records=records, engine=description)

    n = grid.n

    def observe(t, y):
        # by this module's names and positionally: the benchmark's tracer
        # wraps both in positional-only timers
        state = SingleExcState(y[0], y[1], y[2:2 + n], y[2 + n:])
        return {"c_ab": concurrence_single_closed(state), **observables_single(state),
                "re_c1": state.c1.real, "im_c1": state.c1.imag,
                "re_c2": state.c2.real, "im_c2": state.c2.imag}

    return integrate(
        _single.flat_derivative(grid),
        state0.to_vector(),
        t_max,
        dt,
        sample_stride=sample_stride,
        observe=observe,
        max_dt=stability_limit(grid),
    )


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
    sample spacing, is ``default_step(grid, double=True)``.

    Raises
    ------
    ValueError
        If theta lies outside [0, pi/2].
    """
    check_theta(theta)
    if dt is None:
        dt = default_step(grid, double=True)
    times, (u,), description = _exact_atoms(grid, [(1.0, np.zeros(grid.n))], t_max, dt,
                                            sample_stride)
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
