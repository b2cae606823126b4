"""Entanglement dynamics of two independent atom-cavity systems with
multimode fields and photon-round-trip retardation."""

from .concurrence import (
    concurrence_double_closed,
    concurrence_single_closed,
    concurrence_wootters,
    rho_atoms_double,
    rho_atoms_single,
)
from .double import (
    DoubleExcState,
    init_double,
    observables_double,
)
from .evolve import (
    IntegrationError,
    Trajectory,
    comb_spectrum,
    default_step,
    expm_oracle,
    integrate,
    run_double,
    run_single,
    stability_limit,
)
from .model import (
    ModeGrid,
    SystemConfig,
    build_mode_grid,
    retardation_time,
)
from .revivals import (
    RevivalEvent,
    RevivalReport,
    detect_revivals,
    first_kernel_echo,
    first_revival_after_death,
    memory_kernel,
)
from .single import (
    SingleExcState,
    init_atoms_entangled,
    init_fields_entangled,
    observables_single,
)

__version__ = "0.1.0"

__all__ = [
    "DoubleExcState",
    "IntegrationError",
    "ModeGrid",
    "RevivalEvent",
    "RevivalReport",
    "SingleExcState",
    "SystemConfig",
    "Trajectory",
    "build_mode_grid",
    "comb_spectrum",
    "concurrence_double_closed",
    "concurrence_single_closed",
    "concurrence_wootters",
    "default_step",
    "detect_revivals",
    "expm_oracle",
    "first_kernel_echo",
    "first_revival_after_death",
    "init_atoms_entangled",
    "init_double",
    "init_fields_entangled",
    "integrate",
    "memory_kernel",
    "observables_double",
    "observables_single",
    "retardation_time",
    "rho_atoms_double",
    "rho_atoms_single",
    "run_double",
    "run_single",
    "stability_limit",
]
