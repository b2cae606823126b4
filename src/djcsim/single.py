"""Single-excitation amplitude dynamics of the cavity pair.

One excitation is shared between the two atoms and the two multimode
fields.  The state is described by the amplitudes

    c1       atom 1 excited, atom 2 ground, both fields in vacuum
    c2       atom 2 excited, atom 1 ground, both fields in vacuum
    ca[mu]   one photon in mode mu of cavity a, atoms ground
    cb[nu]   one photon in mode nu of cavity b, atoms ground

and evolves under

    dc1/dt     =  sum_mu g[mu] * ca[mu]
    dca[mu]/dt = -i * delta[mu] * ca[mu] - g[mu] * c1

with the identical pair of equations for (c2, cb).  Couplings are real, so
no conjugates appear.  The cavity-a block never couples to the cavity-b
block; the two atoms are correlated only through the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModeGrid, check_theta


@dataclass
class SingleExcState:
    """Amplitudes of the single-excitation manifold."""

    c1: complex
    c2: complex
    ca: np.ndarray
    cb: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ca)

    def to_vector(self) -> np.ndarray:
        """Pack as a flat complex vector [c1, c2, ca..., cb...]."""
        n = self.n
        vec = np.empty(2 + 2 * n, dtype=complex)
        vec[0] = self.c1
        vec[1] = self.c2
        vec[2:2 + n] = self.ca
        vec[2 + n:] = self.cb
        return vec

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int) -> "SingleExcState":
        if len(vec) != 2 + 2 * n:
            raise ValueError(f"vector length {len(vec)} does not match n={n}")
        return cls(c1=vec[0], c2=vec[1],
                   ca=vec[2:2 + n].copy(), cb=vec[2 + n:].copy())


def init_atoms_entangled(theta: float, grid: ModeGrid) -> SingleExcState:
    """Atoms entangled, fields in vacuum: c1 = cos(theta), c2 = sin(theta)."""
    check_theta(theta)
    return SingleExcState(
        c1=complex(math.cos(theta)),
        c2=complex(math.sin(theta)),
        ca=np.zeros(grid.n, dtype=complex),
        cb=np.zeros(grid.n, dtype=complex),
    )


def init_fields_entangled(theta: float, grid: ModeGrid) -> SingleExcState:
    """Cavities entangled through their resonant modes, atoms in the ground state.

    The photon occupies the central (zero-detuning) mode of each cavity:
    ca[central] = cos(theta), cb[central] = sin(theta).
    """
    check_theta(theta)
    ca = np.zeros(grid.n, dtype=complex)
    cb = np.zeros(grid.n, dtype=complex)
    ca[grid.central_index] = math.cos(theta)
    cb[grid.central_index] = math.sin(theta)
    return SingleExcState(c1=0j, c2=0j, ca=ca, cb=cb)


def flat_derivative(grid: ModeGrid) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side of the amplitude equations over packed vectors.

    ``deriv(y)`` returns a new array and neither keeps nor modifies ``y``.
    Both atom rows come from one ``vecdot`` over the ``(2, n)`` photon
    block, written into place.  It runs on the calling thread and, with
    OpenBLAS, sums each row to the bit as ``g @`` that row does.
    """
    n = grid.n
    g = grid.couplings.astype(complex)
    # -i delta on the photons, 0 on the atoms, whose entries are overwritten
    rotation = np.concatenate(([0j, 0j], -1j * grid.detunings, -1j * grid.detunings))

    def deriv(y: np.ndarray) -> np.ndarray:
        out = rotation * y
        np.vecdot(g, y[2:].reshape(2, n), out=out[:2])  # g is real: no conjugate
        photons = out[2:].reshape(2, n)
        photons -= y[:2, None] * g
        return out

    return deriv


def observables_single(state: SingleExcState) -> dict:
    """Populations of the atoms and fields, plus the total norm."""
    pop1 = abs(state.c1) ** 2
    pop2 = abs(state.c2) ** 2
    pop_a = float(np.sum(np.abs(state.ca) ** 2))
    pop_b = float(np.sum(np.abs(state.cb) ** 2))
    return {
        "pop1": pop1,
        "pop2": pop2,
        "pop_cav_a": pop_a,
        "pop_cav_b": pop_b,
        "norm": pop1 + pop2 + pop_a + pop_b,
    }
