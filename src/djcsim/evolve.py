"""Propagation of the amplitude equations: fixed-step RK4 and an exact engine.

The amplitude equations are linear with a time-independent generator, so a
classic fourth-order Runge-Kutta scheme with an analytically chosen step is
reproducible and simple.  For such a generator A, an RK4 step is the
polynomial R(hA) = 1 + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 applied to the
state, which ``integrate`` evaluates in nested (Horner) form; that form is
RK4 only because A is linear and time-independent.  The step resolves the
fastest scale of the grid (the largest detuning or the collective
coupling, whichever is larger) with 100 steps per cycle, which keeps the
norm of every shipped scenario within 1e-6 of 1 over its full window.
The norm drift understates the amplitude error: ``single --modes 1`` runs
up to 1.6e-6 off the closed-form concurrence while its norm drifts by only
1.7e-7.

The two cavities are independent copies of one atom coupled to one comb of
modes, so every amplitude the run drivers record follows from that single
(n+1)-dimensional problem.  Its generator is, up to the photon gauge factor
i, the real arrowhead [[0, g], [g, diag(delta)]], whose eigenpairs
``comb_spectrum`` takes from the secular equation, solved by steps of a
rational model inside bisection brackets.  The exact engine
holds the atom amplitudes as a ``PhaseSeries`` over them, which evaluates
them at the sample times or at any others, with no step and no stepping
error.  ``run_double`` always uses it; ``run_single`` takes
``engine="exact"`` or ``engine="rk4"``.

``expm_oracle`` is the independent cross-check: one cavity's propagator
from a dense eigendecomposition of its generator, applied to each cavity
of a single or double state.  It shares no code with the secular solver,
the phase sums or the Runge-Kutta path.  Together with ``integrate`` over
``double.flat_derivative`` it is the reference for double-excitation
states other than the one ``run_double`` starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

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

#: Samples the exact engine evaluates per block, which bounds its
#: (block x modes) phase table.
TIME_BLOCK = 128
#: Sums one ``np.vecdot`` call of ``PhaseSeries`` forms: 16 starts of a
#: block of offsets.
_GROUP_SUMS = 2048

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
    return _RK4_IMAG_STABILITY / (2.0 * grid.frequency_bound)


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


def sample_count(t_max: float, dt: float, sample_stride: int = 1) -> int:
    """Rows of ``sample_times(t_max, dt, sample_stride)``: the start, one per
    multiple of the stride short of the last step, and the end; the start
    alone when there is no step, as -1 // stride is -1."""
    return (step_count(t_max, dt) - 1) // sample_stride + 2


def sample_times(t_max: float, dt: float, sample_stride: int = 1) -> np.ndarray:
    """The times both engines sample: 0, then k * dt for every multiple k
    of the stride short of the last step, then t_max.

    k is formed as a float64 multiple of the stride, so a step count or a
    stride beyond the int64 range still gives float64 times.
    """
    check_window(t_max, dt, sample_stride)
    count = sample_count(t_max, dt, sample_stride)
    if count <= 2:  # no inner sample, so a stride past the float range is moot
        return np.array([0.0, t_max][:count])
    inner = np.arange(1, count - 1) * float(sample_stride) * dt
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
        Maps a flat complex vector y to A y, with A a fixed matrix (linear,
        time-independent), which the nested step below needs.  It must
        return a fresh array on every call: each step is accumulated in
        place in the returned arrays.  It must neither keep nor modify its
        argument.
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
        squared norm only.  It returns the same keys at every sample.  The
        first sample fixes the records: one array per key, in that
        sample's key order, of ``len(times)`` rows shaped and typed like
        ``np.asarray`` of its value, which every later value is written
        into.
    max_dt : float, optional
        Reject dt above this bound (used by the run drivers to enforce the
        grid's stability limit).

    Raises
    ------
    IntegrationError
        If any sampled amplitude is nonfinite.

    Notes
    -----
    For a linear, time-independent A, classic RK4 is exactly
    y <- R(hA) y with its stability polynomial
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  Each step evaluates it by
    Horner's rule, y + hA(y + h/2 A(y + h/3 A(y + h/4 A y))): four calls
    of ``deriv`` and eight in-place updates of the arrays it returns.  The
    textbook stage form would take thirteen; the two agree to rounding,
    not bit for bit.  The operands h/4, h/3, h/2 and h are 0-d complex128
    arrays, made once for the full steps and again for the last.  A Python
    float operand costs numpy a conversion to the same complex128 value on
    every call.  The loop runs ``sample_stride`` steps per sample, then the
    rest of the full steps and the last step.  What is left is numpy call
    overhead: on the 200-dimensional ``--modes 99`` vector a step takes
    about 11 us and a run_single sample about 5.1 us (2-core AMD EPYC VM).
    On a 2-core Xeon VM a sample took 9.6 us, of which writing its ten
    values into their columns took about 0.9 us.
    No row outlives its sample, so a run holds 8 bytes per sample for its
    time and one row of each column: 80 bytes for run_single's ten
    float64 columns.
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
    records = {}
    written = 0

    def sample(vec: np.ndarray) -> None:
        nonlocal written
        t = times[written]
        if not np.isfinite(vec).all():
            raise IntegrationError(
                f"nonfinite amplitudes at t={t:.6g}; reduce dt"
            )
        row = observe(t, vec)
        if not written:
            for key, value in row.items():
                first = np.asarray(value)
                records[key] = np.empty((len(times),) + first.shape, first.dtype)
        for key, column in records.items():
            column[written] = row[key]
        written += 1

    def operands(h: float) -> tuple:
        """h/4, h/3, h/2 and h as 0-d complex128 arrays (see Notes)."""
        return tuple(np.array(c, dtype=complex) for c in (h / 4.0, h / 3.0, h / 2.0, h))

    def advance(y: np.ndarray, steps: int, step_operands: tuple) -> np.ndarray:
        # y + hA(y + h/2 A(y + h/3 A(y + h/4 A y))), innermost first, in the
        # fresh arrays deriv returns
        for _ in range(steps):
            w = y
            for c in step_operands:
                w = deriv(w)
                w *= c
                w += y
            y = w
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

    assert written == len(times)
    return Trajectory(times=times, records=records,
                      engine=f"rk4 (dt={dt:.6g}, steps={n_steps})")


def _cavity_generator(grid: ModeGrid) -> np.ndarray:
    """Generator of one atom and its comb over (atom, photons): d atom/dt =
    sum_k g_k photon_k and d photon_k/dt = -i delta_k photon_k - g_k atom."""
    a = np.diag(np.concatenate(([0j], -1j * grid.detunings)))
    a[0, 1:], a[1:, 0] = grid.couplings, -grid.couplings
    return a


def expm_oracle(
    state0: Union[SingleExcState, DoubleExcState],
    grid: ModeGrid,
    t: float,
) -> Union[SingleExcState, DoubleExcState]:
    """Propagate a state by one cavity's propagator U = exp(A t), taken from
    a dense eigendecomposition.

    A is ``_cavity_generator(grid)``, anti-Hermitian, so with
    (lam, V) = eigh(i A) the propagator is V diag(exp(-i lam t)) V^H.  It is
    formed as 1 + V diag(expm1(-i lam t)) V^H: exactly the identity at
    t = 0, where V V^H is off it by up to 14 u, and off it by V's rounding
    times |lam| t at small t.

    Each cavity evolves by U on its own: a single state's blocks (atom,
    photons) each go to U times the block.  A double state is the matrix
    Psi over [cavity a, cavity b] states, atom first: Psi[0, 0] = d11,
    Psi[0, 1:] = d2, Psi[1:, 0] = d3 and Psi[1:, 1:] = d4.  The double
    module's gauge is the transposed generator, dPsi/dt = A^T Psi + Psi A,
    so Psi goes to U^T Psi U; d00 is constant.  The reference shares no
    code with the secular solver, the phase sums or the RK4 path.
    """
    if not isinstance(state0, (SingleExcState, DoubleExcState)):
        raise TypeError(f"unsupported state type {type(state0).__name__}")
    lam, vecs = np.linalg.eigh(1j * _cavity_generator(grid))
    prop = np.eye(grid.n + 1) + (vecs * np.expm1(-1j * lam * t)) @ vecs.conj().T
    if isinstance(state0, SingleExcState):
        a = prop @ np.concatenate(([state0.c1], state0.ca))
        b = prop @ np.concatenate(([state0.c2], state0.cb))
        return SingleExcState(c1=a[0], c2=b[0], ca=a[1:], cb=b[1:])
    psi = np.empty((grid.n + 1,) * 2, dtype=complex)
    psi[0, 0], psi[0, 1:], psi[1:, 0], psi[1:, 1:] = (state0.d11, state0.d2, state0.d3,
                                                      state0.d4)
    psi = prop.T @ psi @ prop
    return DoubleExcState(d00=state0.d00, d11=psi[0, 0], d2=psi[0, 1:], d3=psi[1:, 0],
                          d4=psi[1:, 1:])


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


def _pole_line(delta, g2, origin, t, unit, gap, term):
    """The rest of f beside each row's own pole delta[origin], as a line.

    At lam = delta[origin] + t it returns lam + sum_{k != origin}
    g_k^2 / (delta_k - lam), unit^2 times its slope 1 + sum_{k != origin}
    g_k^2 / (delta_k - lam)^2, formed as unit (unit + sum_k unit g_k^2 /
    (delta_k - lam)^2) so that no square overflows, and sum_{k != origin}
    |g_k^2 / (delta_k - lam)|, with gap and term as (rows x n) buffers.
    """
    pole = delta[origin]
    # delta_k - lam, formed from the exact delta_k - pole
    np.subtract(delta, pole[:, None], out=gap)
    gap -= t[:, None]
    gap[np.arange(len(origin)), origin] = np.inf  # drops the own pole's term
    np.divide(g2, gap, out=term)
    rest = pole + t + term.sum(axis=1)
    gap /= unit[:, None]
    np.divide(term, gap, out=gap)  # unit g_k^2 / (delta_k - lam)^2
    np.abs(term, out=term)
    return rest, unit * (unit + gap.sum(axis=1)), term.sum(axis=1)


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
    It is solved for s = tau / unit, (slope unit^2) s^2 + (rest - slope t)
    unit s = g_o^2, unit the largest power of two within 1 and the root's
    bracket width: bit for bit the unscaled model wherever that is finite,
    and finite where its slope, about g^2 / spacing^2, overflows (1e-154).

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
    move it, or when its bracket holds no other float.  A subnormal offset
    t sets the level by its own grain, 2^-1074 / |t| in place of 8u, once
    that is coarser: otherwise the best float misses the level and the
    root halves its bracket away from it.
    """
    n = len(delta)
    # two (n+1) x n buffers; a sweep uses one row per open root
    gaps = np.empty((n + 1, n))
    terms = np.empty((n + 1, n))
    poles = np.arange(n)
    width = np.diff(delta)
    # the outer brackets are at least reach wide; a pole's model serves the
    # roots on both sides of it
    unit = np.ldexp(0.5, np.frexp(np.minimum(np.concatenate(([reach], width, [reach])), 1.0))[1])
    first = np.minimum(unit[:-1], unit[1:])
    rest, slope, _ = _pole_line(delta, g2, poles, np.zeros(n), first, gaps[:n], terms[:n])
    below, above = _model_roots(slope, rest * first, g2)
    # root j from pole j-1 and from pole j; at least one lies in the gap
    up, down = above[:-1] * first[:-1], below[1:] * first[1:]
    nearer_up = up <= -down
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
        u = unit[open_]
        rest, slope, size = _pole_line(delta, g2, own, t, u, gaps[:rows], terms[:rows])
        pull = g2[own] / t  # minus the own pole's term
        f = rest - pull
        # an offset below 2^-1024 holds the pull to only 2^-1074 / |t|
        # relative, coarser than 8u
        noise = (np.maximum(8.0 * 2.0 ** -53, 2.0 ** -1074 / np.abs(t))
                 * (np.abs(delta[own] + t) + size + np.abs(pull)))
        low = lo[open_] = np.where(f < 0.0, t, lo[open_])
        high = hi[open_] = np.where(f > 0.0, t, hi[open_])
        below, above = _model_roots(slope, rest * u - slope * (t / u), g2[own])
        step = np.where(side_up[open_], above, below) * u
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
    largest entry, by scaling the row's gaps before dividing, and a_j and the
    overlap are formed from it: exact, and free of the overflow of its
    entries and their squares on wide combs.  Both checks cost
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
        # row j over 2^e_j > max_k |g_k / gap_jk|, with scale = 2^-e_j, bounded
        # from the exponents: g / gap itself overflows where max|delta| / g
        # does.  A gap that overflows once scaled gives 0 for an entry below
        # 2^-1023.
        e = np.maximum(np.max(np.frexp(g)[1] - np.frexp(photon)[1], axis=1) + 1, 0)
        np.ldexp(photon, e[:, None], out=photon)
        np.divide(g, photon, out=photon)
        scale = np.ldexp(1.0, -e)
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


@dataclass(frozen=True)
class PhaseSeries:
    """The sums sum_j weights[..., j] exp(-i frequencies[j] t), one for each
    leading index of ``weights``, as functions of the time t.

    ``at`` evaluates them at any times, ``sample`` at the times
    ``sample_times`` returns.  Both go through one blocked sum, which
    bounds its phase tables by ``TIME_BLOCK`` times the frequencies.
    """

    frequencies: np.ndarray
    weights: np.ndarray

    def at(self, times) -> np.ndarray:
        """The sums at ``times`` of any shape, in the shape
        ``weights.shape[:-1] + times.shape``: each time is a start with the
        single offset 0."""
        rows = self.weights.shape[:-1]
        out = np.empty(rows + (np.size(times), 1), dtype=complex)
        return self._sums(np.ravel(times), [0.0], out).reshape(rows + np.shape(times))

    def sample(self, times: np.ndarray) -> np.ndarray:
        """The sums at ``times`` as ``sample_times`` returns them, in the
        shape ``weights.shape[:-1] + times.shape``.

        Every time but the last lies on the uniform grid k * step, so they
        are summed in blocks of ``TIME_BLOCK``: each block's first time is
        a start and the first block's times are the offsets.  The last
        block is summed whole and cut.  The last time is the start 0 with
        the single offset ``times[-1]``.  The output is the only array
        that grows with the number of times.
        """
        rows = self.weights.shape[:-1]
        on_grid = len(times) - 1
        # times[k] = k * stride * dt for k < on_grid, bit for bit
        offsets = times[:min(on_grid, TIME_BLOCK)]
        starts = times[:on_grid:TIME_BLOCK]
        # whole blocks and one column more: the last time goes at column
        # on_grid, and the cut drops the rest
        out = np.empty(rows + (len(starts) * len(offsets) + 1,), dtype=complex)
        self._sums(starts, offsets, out[..., :-1].reshape(rows + (len(starts), len(offsets))))
        self._sums([0.0], times[-1:], out[..., on_grid, None, None])
        return out[..., :len(times)]

    def _sums(self, starts, offsets, out):
        """Write the sums at every time s + o into ``out[..., a, b]``, for
        s = starts[a] and o = offsets[b], and return ``out``.

        The offsets' phases are one table exp(+i f o), and each start
        shifts the weights by exp(-i f s).  The sums are one ``np.vecdot``
        per group of starts, which conjugates its first argument, the
        table.  A group holds ``_GROUP_SUMS`` sums over the offsets, but at
        most half a block of starts: on wide combs a larger group's shifted
        weights outgrow the processor's caches.  vecdot runs on the calling
        thread; a BLAS product of this size starts OpenBLAS's threads,
        which stall on a busy machine.
        """
        table = np.exp(1j * np.outer(offsets, self.frequencies))
        group = min(TIME_BLOCK // 2, _GROUP_SUMS // max(len(offsets), 1))
        for lo in range(0, len(starts), group):
            # (..., group, 1, modes) weights against the (offsets, modes) table
            shift = np.exp(-1j * np.outer(starts[lo:lo + group], self.frequencies))[:, None, :]
            np.vecdot(table, self.weights[..., None, None, :] * shift,
                      out=out[..., lo:lo + len(shift), :])
        return out


def exact_amplitudes(grid: ModeGrid, blocks) -> Tuple[PhaseSeries, str]:
    """The atom amplitudes of cavity blocks started at (atom0, photons0), as
    one ``PhaseSeries`` over the checked spectrum, and the engine line.

    Each amplitude is u(t) = sum_j exp(-i lam_j t) w_j, the atom row of
    D V exp(-i Lambda t) V^T D^H applied to the start, where D^H gives the
    photons the factor i.

    Raises
    ------
    IntegrationError
        If the spectrum fails its check.
    """
    spectrum = comb_spectrum(grid)
    if not (spectrum.residual <= _SPECTRUM_TOL
            and spectrum.orthogonality <= _SPECTRUM_TOL):
        raise IntegrationError(f"exact engine spectrum failed its check: eigen residual "
                               f"{spectrum.residual:.3e}, orthogonality error "
                               f"{spectrum.orthogonality:.3e} (limit {_SPECTRUM_TOL:.0e})")
    weights = np.array([
        spectrum.atom * (spectrum.atom * atom0
                         + 1j * np.einsum("jk,k->j", spectrum.photon, photons0))
        for atom0, photons0 in blocks])
    return PhaseSeries(spectrum.eigenvalues, weights), (
        f"exact (eigen residual {spectrum.residual:.1e}, orthogonality error "
        f"{spectrum.orthogonality:.1e}, {spectrum.sweeps} sweeps)")


def _exact_atoms(grid: ModeGrid, blocks, t_max: float, dt: float, sample_stride: int):
    """The ``exact_amplitudes`` of cavity blocks started at (atom0, photons0),
    sampled at ``sample_times(t_max, dt, sample_stride)``: the sample times,
    the amplitudes (one row per block) and the engine line."""
    times = sample_times(t_max, dt, sample_stride)
    series, description = exact_amplitudes(grid, blocks)
    out = series.sample(times)
    # The propagator is the identity at t = 0: sample the start itself, as
    # integrate does, rather than V V^T applied to it.
    out[:, times == 0.0] = np.array([[atom0] for atom0, _ in blocks])
    if not np.all(np.isfinite(out)):
        raise IntegrationError("nonfinite amplitudes from the exact engine")
    return times, out, description


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
    conserved norm.  Each atom population is clamped to that norm, which
    |c|^2 rounds above just after t = 0.
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
        block_a = start["pop1"] + start["pop_cav_a"]
        block_b = start["pop2"] + start["pop_cav_b"]
        pop1 = np.minimum(np.abs(c1) ** 2, block_a)
        pop2 = np.minimum(np.abs(c2) ** 2, block_b)
        pop_a = block_a - pop1
        pop_b = block_b - pop2
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
    p2 = p3 = sin^2 p (1 - p) and p4 = sin^2 (1 - p)^2, with p clamped to 1,
    which |u|^2 rounds above just after t = 0.  The default dt, the
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
    p = np.minimum(np.abs(u) ** 2, 1.0)
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
