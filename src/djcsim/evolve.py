"""Fixed-step integration of the amplitude equations.

The amplitude equations are linear with a time-independent generator, so a
classic fourth-order Runge-Kutta scheme with an analytically chosen step is
accurate, reproducible and simple.  The step resolves the fastest scale of
the grid (the largest detuning or the collective coupling, whichever is
larger) with 100 steps per cycle, which keeps the norm of every shipped
scenario within 1e-6 of 1 over its full window.

A dense eigendecomposition propagator is provided as an independent
cross-check for small systems.  It assembles the generator entry by entry
from the grid and never touches the Runge-Kutta code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import double as _double
from . import single as _single
from .concurrence import concurrence_double_closed, concurrence_single_closed
from .double import DoubleExcState, observables_double
from .model import ModeGrid
from .single import SingleExcState, observables_single

#: RK4 is stable on the imaginary axis up to |eigenvalue| * dt = 2*sqrt(2).
_RK4_IMAG_STABILITY = 2.0 * math.sqrt(2.0)

#: Hard cap on the matrix-exponential oracle dimension.
_EXPM_MAX_DIM = 200


class IntegrationError(RuntimeError):
    """The integration produced nonfinite amplitudes (blown-up step size)."""


@dataclass
class Trajectory:
    """Time-sampled observables of one integration run.

    ``records`` maps column names to arrays aligned with ``times``; the
    insertion order of the keys is the column order written to CSV.
    """

    times: np.ndarray
    records: dict

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
        time-independent).
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
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if t_max < 0.0:
        raise ValueError(f"t_max must be nonnegative, got {t_max!r}")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride!r}")
    if max_dt is not None and dt > max_dt:
        raise ValueError(
            f"dt={dt!r} exceeds the stability limit {max_dt!r} for this grid"
        )
    if observe is None:
        observe = lambda t, y: {"norm": float(np.sum(np.abs(y) ** 2))}

    y = np.array(state0, dtype=complex)
    n_steps = int(math.ceil(t_max / dt - 1e-12)) if t_max > 0.0 else 0

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
        k1 = deriv(y)
        k2 = deriv(y + (0.5 * h) * k1)
        k3 = deriv(y + (0.5 * h) * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % sample_stride == 0 or i + 1 == n_steps:
            sample(t_max if i + 1 == n_steps else (i + 1) * dt, y)

    records = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return Trajectory(times=np.array(times), records=records)


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


def run_single(
    grid: ModeGrid,
    state0: SingleExcState,
    t_max: float,
    dt: Optional[float] = None,
    sample_stride: int = 1,
) -> Trajectory:
    """Integrate a single-excitation state, recording the standard columns.

    Columns: c_ab (closed-form concurrence), the four populations, the norm
    and the real/imaginary parts of the two atomic amplitudes.
    """
    if dt is None:
        dt = default_step(grid)

    def observe(t, y):
        st = SingleExcState.from_vector(y, grid.n)
        rec = {"c_ab": concurrence_single_closed(st)}
        rec.update(observables_single(st))
        rec["re_c1"] = float(st.c1.real)
        rec["im_c1"] = float(st.c1.imag)
        rec["re_c2"] = float(st.c2.real)
        rec["im_c2"] = float(st.c2.imag)
        return rec

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
    state0: DoubleExcState,
    t_max: float,
    dt: Optional[float] = None,
    sample_stride: int = 1,
) -> Trajectory:
    """Integrate a double-excitation state, recording the standard columns.

    The default step is half the grid step: the two-photon sector oscillates
    at pair detunings up to twice the largest single-mode scale.
    """
    if dt is None:
        dt = 0.5 * default_step(grid)

    def observe(t, y):
        st = DoubleExcState.from_vector(y, grid.n)
        rec = {"c_ab": concurrence_double_closed(st)}
        rec.update(observables_double(st))
        return rec

    return integrate(
        _double.flat_derivative(grid),
        state0.to_vector(),
        t_max,
        dt,
        sample_stride=sample_stride,
        observe=observe,
        max_dt=stability_limit(grid),
    )
