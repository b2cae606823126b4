"""Double-excitation amplitude dynamics of the cavity pair.

Each cavity holds one excitation, shared between its atom and its field
modes.  The state carries the amplitudes

    d00        both atoms ground, both fields vacuum (auxiliary state)
    d11        both atoms excited, both fields vacuum
    d2[nu]     atom 1 excited, one photon in mode nu of cavity b
    d3[mu]     atom 2 excited, one photon in mode mu of cavity a
    d4[mu,nu]  one photon in mode mu of cavity a and mode nu of cavity b

and evolves under

    dd00/dt       = 0
    dd11/dt       = -sum_nu g[nu] d2[nu] - sum_mu g[mu] d3[mu]
    dd2[nu]/dt    = -i delta[nu] d2[nu] + g[nu] d11 - sum_mu g[mu] d4[mu,nu]
    dd3[mu]/dt    = -i delta[mu] d3[mu] + g[mu] d11 - sum_nu g[nu] d4[mu,nu]
    dd4[mu,nu]/dt = -i (delta[mu] + delta[nu]) d4[mu,nu]
                    + g[mu] d2[nu] + g[nu] d3[mu]

The auxiliary amplitude d00 is exactly decoupled and stays constant; it is
what allows the atoms to remain entangled once photons appear.  The overall
sign of the couplings here is a gauge choice (photon amplitudes can absorb
it), so populations and concurrence are unaffected by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModeGrid, check_theta


@dataclass
class DoubleExcState:
    """Amplitudes of the double-excitation manifold.

    ``d4`` is an (n, n) matrix indexed as [mu, nu] with mu the cavity-a mode
    and nu the cavity-b mode, matching the ordering of ``d3`` and ``d2``.
    """

    d00: complex
    d11: complex
    d2: np.ndarray
    d3: np.ndarray
    d4: np.ndarray

    @property
    def n(self) -> int:
        return len(self.d2)

    def to_vector(self) -> np.ndarray:
        """Pack as a flat complex vector [d00, d11, d2..., d3..., d4 row-major]."""
        n = self.n
        vec = np.empty(2 + 2 * n + n * n, dtype=complex)
        vec[0] = self.d00
        vec[1] = self.d11
        vec[2:2 + n] = self.d2
        vec[2 + n:2 + 2 * n] = self.d3
        vec[2 + 2 * n:] = self.d4.ravel()
        return vec

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int) -> "DoubleExcState":
        if len(vec) != 2 + 2 * n + n * n:
            raise ValueError(f"vector length {len(vec)} does not match n={n}")
        return cls(
            d00=vec[0],
            d11=vec[1],
            d2=vec[2:2 + n].copy(),
            d3=vec[2 + n:2 + 2 * n].copy(),
            d4=vec[2 + 2 * n:].reshape(n, n).copy(),
        )


def init_double(theta: float, grid: ModeGrid) -> DoubleExcState:
    """Entangled superposition of no excitation and both atoms excited.

    d00 = cos(theta), d11 = sin(theta), all photon amplitudes zero.
    """
    check_theta(theta)
    n = grid.n
    return DoubleExcState(
        d00=complex(math.cos(theta)),
        d11=complex(math.sin(theta)),
        d2=np.zeros(n, dtype=complex),
        d3=np.zeros(n, dtype=complex),
        d4=np.zeros((n, n), dtype=complex),
    )


def flat_derivative(grid: ModeGrid) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side of the double-excitation equations over packed vectors.

    All reductions are plain ordered matrix-vector products, so results are
    bitwise reproducible for a fixed grid.  ``deriv(y)`` returns a new array
    and neither keeps nor modifies ``y``.
    """
    n = grid.n
    delta = grid.detunings
    g = grid.couplings
    pair_detuning = delta[:, None] + delta[None, :]

    def deriv(y: np.ndarray) -> np.ndarray:
        d11 = y[1]
        d2 = y[2:2 + n]
        d3 = y[2 + n:2 + 2 * n]
        d4 = y[2 + 2 * n:].reshape(n, n)
        out = np.empty_like(y)
        out[0] = 0.0
        out[1] = -(g @ d2) - (g @ d3)
        out[2:2 + n] = -1j * delta * d2 + g * d11 - g @ d4
        out[2 + n:2 + 2 * n] = -1j * delta * d3 + g * d11 - d4 @ g
        d4dot = -1j * pair_detuning * d4 + np.outer(g, d2) + np.outer(d3, g)
        out[2 + 2 * n:] = d4dot.ravel()
        return out

    return deriv


def observables_double(state: DoubleExcState) -> dict:
    """Populations of the five amplitude sectors plus the total norm."""
    p00 = abs(state.d00) ** 2
    p11 = abs(state.d11) ** 2
    p2 = float(np.sum(np.abs(state.d2) ** 2))
    p3 = float(np.sum(np.abs(state.d3) ** 2))
    p4 = float(np.sum(np.abs(state.d4) ** 2))
    return {
        "p11": p11,
        "p2": p2,
        "p3": p3,
        "p4": p4,
        "p00": p00,
        "norm": p00 + p11 + p2 + p3 + p4,
    }
