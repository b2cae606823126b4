"""The benchmark's workloads and their seeded inputs.

Each workload is one CLI invocation per iteration.  The seed draws only the
mixing angles theta, within ranges where every check holds, so the cost of
an iteration does not depend on the seed.  See README.md for why each
workload is in the benchmark.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from oracle import RunSpec

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    kind: str  # RunSpec.kind
    grid: Tuple[int, float, float]  # modes, length ratio, omega_a
    theta_range: Tuple[float, float]
    extra: Tuple[str, ...]
    min_rows: int
    expect: Optional[str] = None
    kernel: str = "single"  # calibrate.KERNELS entry of the same shape and kind of work


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "echo-single",
        "single", "single-atoms", (99, 3480.0, 4840.0), (math.pi / 8, 3 * math.pi / 8),
        (), 1000, "revival"),
    Workload(
        "esd-double",
        "double", "double", (49, 1720.0, 11100.0), (0.95, 1.15),
        (), 1000, "dead", kernel="double"),
    Workload(
        "dense-sweep",
        "sweep", "single-fields", (99, 3480.0, 11100.0), (math.pi / 8, 3 * math.pi / 8),
        ("--axis", "theta", "--initial", "fields", "--stride", "1"), 20000,
        kernel="sampled"),
)}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs: the argv and what each output should hold."""

    argv: List[str]
    specs: Dict[str, RunSpec]  # trajectory CSV file name -> what it computed
    theta: float
    summary: Optional[str] = None  # sweep summary file name


def make_inputs(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Argv for one iteration writing into out_dir, drawn from the seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    theta = rng.uniform(*workload.theta_range)
    modes, length_ratio, omega_a = workload.grid
    argv = [workload.command, "--modes", str(modes), "--length-ratio", repr(length_ratio),
            "--omega-a", repr(omega_a), *workload.extra]

    spec = RunSpec(workload.kind, theta, modes, length_ratio, omega_a,
                   workload.min_rows, workload.expect)
    if workload.command != "sweep":
        argv += ["--theta", repr(theta), "--out", os.path.join(out_dir, "run.csv")]
        return Inputs(argv, {"run.csv": spec}, theta)
    argv += ["--values", repr(theta), "--out", os.path.join(out_dir, "sweep.csv")]
    return Inputs(argv, {"sweep_theta_00.csv": spec}, theta, summary="sweep_summary.csv")
