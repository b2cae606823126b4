"""Dimensionless unit system and discrete cavity mode grids.

Every frequency in this package is expressed in units of the vacuum Rabi
frequency of the resonant (central) cavity mode, and every time in units of
its inverse.  In these units the atom couples to the central mode with
strength exactly 1, and the mode spacing of a cavity of length L follows
from the periodic boundary conditions: adjacent mode frequencies differ by
omega_a * (lambda_a / L), with lambda_a the wavelength of the atomic
transition.  Both cavities of the pair share one grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

COUPLING_PROFILES = ("uniform", "sqrtfreq")


@dataclass(frozen=True)
class SystemConfig:
    """Physical and numerical parameters of one cavity pair.

    Attributes
    ----------
    omega_a : float
        Atomic transition frequency (units of the central-mode vacuum Rabi
        frequency).
    length_ratio : float
        Cavity length over atomic wavelength, L / lambda_a, at least 1.
    n_modes : int
        Number of field modes per cavity, of any integral type.  Must be odd
        so the grid is symmetric about the atomic resonance.
    theta : float
        Mixing angle of the initial entangled state, radians in [0, pi/2].
    coupling_profile : str
        "uniform" (all couplings 1) or "sqrtfreq" (coupling proportional to
        the square root of the mode frequency, normalized to 1 on the
        central mode).
    """

    omega_a: float
    length_ratio: float
    n_modes: int = 1
    theta: float = math.pi / 4
    coupling_profile: str = "sqrtfreq"

    def __post_init__(self):
        if (not isinstance(self.n_modes, numbers.Integral) or self.n_modes < 1
                or self.n_modes % 2 == 0):
            raise ValueError(
                f"n_modes must be a positive odd integer, got {self.n_modes!r}"
            )
        if not 0.0 < self.omega_a < math.inf:
            raise ValueError(f"omega_a must be positive and finite, got {self.omega_a!r}")
        # the cavity must hold one atomic wavelength for the resonant mode to exist
        if not 1.0 <= self.length_ratio < math.inf:
            raise ValueError(
                f"length_ratio must be finite and at least 1, got {self.length_ratio!r}")
        check_theta(self.theta)
        if self.coupling_profile not in COUPLING_PROFILES:
            raise ValueError(
                f"coupling_profile must be one of {COUPLING_PROFILES}, "
                f"got {self.coupling_profile!r}"
            )
        # The lowest mode frequency omega_a - ((n-1)/2) * spacing must stay
        # positive, otherwise the grid would contain unphysical modes.
        half_span = (self.n_modes - 1) // 2
        if self.omega_a - half_span * self.mode_spacing <= 0:
            raise ValueError(
                f"n_modes={self.n_modes} does not fit below resonance: lowest mode "
                f"frequency would be <= 0 (spacing {self.mode_spacing:.6g})"
            )

    @property
    def mode_spacing(self) -> float:
        """Frequency gap between adjacent cavity modes, omega_a / (L/lambda_a)."""
        return self.omega_a / self.length_ratio


def check_theta(theta: float) -> None:
    """Reject a mixing angle outside [0, pi/2] (NaN included)."""
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")


@dataclass(frozen=True)
class ModeGrid:
    """Discrete detunings and couplings of one cavity.

    ``detunings[k]`` is the offset of mode k from the atomic resonance; the
    list is symmetric about zero with the resonant mode in the middle.
    ``couplings[k]`` is the (real, nonnegative) coupling of the atom to mode
    k; the central coupling is 1 by normalization.
    """

    detunings: np.ndarray
    couplings: np.ndarray
    spacing: float

    @property
    def n(self) -> int:
        return len(self.detunings)

    @property
    def central_index(self) -> int:
        """Index of the resonant (zero-detuning) mode."""
        return (self.n - 1) // 2


def build_mode_grid(config: SystemConfig) -> ModeGrid:
    """Construct the symmetric mode grid for one cavity of the pair.

    Detunings are k * spacing for k = -(n-1)/2 ... (n-1)/2.  With the
    "sqrtfreq" profile the coupling to mode k is
    sqrt((omega_a + k * spacing) / omega_a); with "uniform" all couplings
    are exactly 1.
    """
    n = config.n_modes
    spacing = config.mode_spacing
    k = np.arange(n) - (n - 1) // 2
    detunings = k * spacing
    if config.coupling_profile == "uniform":
        couplings = np.ones(n)
    else:
        couplings = np.sqrt((config.omega_a + detunings) / config.omega_a)
    return ModeGrid(detunings=detunings, couplings=couplings, spacing=spacing)


def retardation_time(config: SystemConfig) -> float:
    """Photon round-trip (recurrence) time of the cavity, 2*pi / spacing.

    This is the time after which all mode contributions rephase, so it sets
    the spacing of population jumps and entanglement revivals.  For a
    single-mode cavity the value is still defined but the dynamics is
    Rabi-periodic instead of echo-like.
    """
    return 2.0 * math.pi / config.mode_spacing
