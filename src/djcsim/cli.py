"""Command-line front end: scenario runs, kernel traces and parameter sweeps.

Subcommands
-----------
single   one- or multi-mode run with a single shared excitation; the initial
         entanglement sits either on the atoms or on the resonant cavity
         modes (--initial atoms|fields)
double   run with one excitation per cavity, starting from the entangled
         superposition of no excitation and both atoms excited
kernel   trace of the mode-summed memory kernel K(tau)
sweep    repeat single/double runs along one parameter axis and summarize

Each run writes one CSV (headers mandatory, '.' decimal separator, LF line
endings) and prints a summary to stdout.  Parameters can also be supplied
as key=value lines in a file passed with --config; keys are the flag names
with underscores, values are checked exactly like flags, and command-line
flags win over file values.  Double runs propagate with the exact
single-comb engine, single runs with RK4 (see _plan).  Exit codes: 0
success, 2 invalid parameters, paths or a run over the work limits, 3
numerical failure (nonfinite amplitudes, or an exact spectrum that fails
its check).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import List, NamedTuple, Optional

import numpy as np

from .evolve import (
    IntegrationError,
    Trajectory,
    check_window,
    default_step,
    run_double,
    run_single,
    stability_limit,
    step_count,
)
from .model import ModeGrid, SystemConfig, build_mode_grid, retardation_time
from .revivals import (
    RevivalReport,
    detect_revivals,
    first_rephasing_maximum,
    first_revival_after_death,
    memory_kernel,
    predict_revival_times,
)
from .single import init_atoms_entangled, init_fields_entangled

#: Sweep axis -> the option destination it sets.
_SWEEP_DESTS = {"theta": "theta", "n_modes": "modes", "length_ratio": "length_ratio",
                "omega_a": "omega_a"}

#: Most samples one run may record (rows of its CSV).
MAX_SAMPLES = 10 ** 6
#: Most steps one RK4 run may take.
MAX_RK4_STEPS = 10 ** 7
#: Most modes per cavity for the exact engine, whose spectrum takes
#: O(n^2) memory (about 0.2 GiB at the limit).
MAX_EXACT_MODES = 2001
#: CSV rows converted to Python floats at once; blocks of 128 rows and
#: more raised the peak memory of a run without writing faster.
_CSV_BLOCK = 32

_PI_EXPR = re.compile(r"^\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_number(text: str) -> float:
    """Parse a float, also accepting 'pi', '3pi/8' or 'pi/4' style values."""
    match = _PI_EXPR.match(text)
    if match:
        value = math.pi * float(match.group(1) or 1.0)
        if match.group(2):
            value /= float(match.group(2))
        return value
    return float(text)


def _parse_values(text: str) -> List[float]:
    items = [item for item in text.split(",") if item.strip()]
    return [parse_number(item) for item in items]


def _config_tokens(path: str, sub: argparse.ArgumentParser) -> List[str]:
    """Turn flat key=value lines into ``sub``'s own option tokens.

    Keys are the option destinations (flag names with underscores); '#'
    starts a comment.  argparse then checks the values exactly like flags.
    """
    flags = {action.dest: action.option_strings[0] for action in sub._actions
             if action.option_strings and action.dest not in ("config", "help")}
    tokens = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in flags:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} for '{sub.prog}'")
            tokens.append(f"{flags[key]}={value.strip()}")
    return tokens


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value parameter file; flags override it")
    sub.add_argument("--theta", type=parse_number, default=math.pi / 4,
                     help="initial mixing angle in radians; accepts pi/4 style (default pi/4)")
    sub.add_argument("--modes", type=int, default=1,
                     help="modes per cavity, odd (default 1)")
    sub.add_argument("--length-ratio", dest="length_ratio", type=float, default=670.0,
                     help="cavity length over atomic wavelength (default 670)")
    sub.add_argument("--omega-a", dest="omega_a", type=float, default=4840.0,
                     help="atomic frequency in vacuum-Rabi units (default 4840)")
    sub.add_argument("--profile", choices=("uniform", "sqrtfreq"), default="sqrtfreq",
                     help="coupling profile across modes (default sqrtfreq)")
    sub.add_argument("--tmax", type=float, default=None,
                     help="window length; default 5 round trips, or two Rabi cycles for 1 mode")
    sub.add_argument("--dt", type=float, default=None,
                     help="integration step (kernel: tau sample step); default derived from the grid")
    sub.add_argument("--stride", type=int, default=None,
                     help="record every Nth step (default: aim for ~2000 rows)")
    sub.add_argument("--out", default=None, help="output CSV path")
    sub.add_argument("--angle-convention", dest="angle_convention",
                     choices=("printed", "swapped"), default="printed",
                     help="role of theta in the initial state: as written, or with "
                          "cos/sin exchanged (default printed)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="djcsim",
        description="Entanglement dynamics of two independent atom-cavity systems "
                    "with multimode fields and round-trip retardation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}

    single = commands.add_parser("single", help="single shared excitation")
    _add_common_flags(single)
    single.add_argument("--initial", choices=("atoms", "fields"), default="atoms",
                        help="where the initial entanglement sits (default atoms)")
    subs["single"] = single

    double = commands.add_parser("double", help="one excitation per cavity")
    _add_common_flags(double)
    subs["double"] = double

    kernel = commands.add_parser("kernel", help="memory kernel trace")
    _add_common_flags(kernel)
    subs["kernel"] = kernel

    sweep = commands.add_parser("sweep", help="runs along one parameter axis")
    _add_common_flags(sweep)
    sweep.add_argument("--initial", choices=("atoms", "fields", "double"),
                       default="atoms",
                       help="scenario swept: single with atoms/fields entangled, "
                            "or the double-excitation run (default atoms)")
    sweep.add_argument("--axis", choices=tuple(_SWEEP_DESTS), default=None,
                       help="parameter to sweep")
    sweep.add_argument("--values", default=None,
                       help="comma-separated axis values (pi expressions allowed)")
    subs["sweep"] = sweep

    return parser, subs


def _make_config(args: argparse.Namespace) -> SystemConfig:
    theta = args.theta
    if args.angle_convention == "swapped":
        theta = math.pi / 2 - theta
    return SystemConfig(
        omega_a=args.omega_a,
        length_ratio=args.length_ratio,
        n_modes=args.modes,
        theta=theta,
        coupling_profile=args.profile,
    )


def _default_tmax(config: SystemConfig) -> float:
    if config.n_modes == 1:
        return 2.0 * 2.0 * math.pi  # two Rabi cycles of the resonant mode
    return 5.0 * retardation_time(config)


def _format(value: float) -> str:
    return repr(float(value))


def _write_csv(path: str, first_column: str, times, records: dict) -> None:
    """Write the columns as rows of ``_format`` values, converting
    ``_CSV_BLOCK`` rows at a time."""
    columns = [times] + list(records.values())
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(",".join([first_column] + list(records)) + "\n")
        for lo in range(0, len(times), _CSV_BLOCK):
            block = [np.asarray(c[lo:lo + _CSV_BLOCK], dtype=float).tolist()
                     for c in columns]
            handle.write("".join(",".join(map(repr, row)) + "\n" for row in zip(*block)))


def _print_summary(config: SystemConfig, traj: Trajectory, report: RevivalReport,
                   out_path: str) -> None:
    conc = traj.records["c_ab"]
    norm = traj.records["norm"]
    print(f"t_r={retardation_time(config):.6f}")
    times = predict_revival_times(config, 3)
    note = "  (single-mode cavity: Rabi-periodic, round-trip times not applicable)" \
        if config.n_modes == 1 else ""
    print("predicted revival times: "
          + ", ".join(f"{t:.6f}" for t in times) + note)
    print(f"initial concurrence: {conc[0]:.6f}")
    print(f"final concurrence:   {conc[-1]:.6f}")
    print(f"max |norm - 1|: {max(abs(norm - 1.0)):.3e}")
    print(f"engine: {traj.engine}")
    if report.dead_intervals:
        spans = ", ".join(f"[{a:.4f}, {b:.4f}]" for a, b in report.dead_intervals[:5])
        more = " ..." if len(report.dead_intervals) > 5 else ""
        print(f"dead intervals: {spans}{more}")
        try:
            first = first_revival_after_death(report)
            print(f"first revival after collapse: onset={first.onset:.4f} "
                  f"peak_t={first.peak_time:.4f} peak={first.peak_value:.6f}")
        except ValueError:
            pass
    else:
        print("dead intervals: none")
    if report.revivals:
        for event in report.revivals[:5]:
            print(f"revival: onset={event.onset:.4f} peak_t={event.peak_time:.4f} "
                  f"peak={event.peak_value:.6f}")
        if len(report.revivals) > 5:
            print(f"({len(report.revivals) - 5} more revivals not shown)")
    else:
        print("revivals: none detected")
    print(f"wrote {out_path}")


class _Run(NamedTuple):
    """One trajectory run, checked and ready to propagate."""

    args: argparse.Namespace
    scenario: str
    config: SystemConfig
    grid: ModeGrid
    t_max: float
    dt: float
    stride: int


def _plan(args: argparse.Namespace, scenario: str) -> _Run:
    """Build and check one run, the work limits included, without running it."""
    config = _make_config(args)
    # run_double is the exact engine alone.  Single runs stay on RK4: the
    # benchmark's traced-layer self-test (perfbench/selftest.py)
    # expects a stepped single run, so switching them waits for the
    # benchmark change that updates it.
    rk4 = scenario != "double"
    if not rk4 and config.n_modes > MAX_EXACT_MODES:
        raise ValueError(f"{config.n_modes} modes exceed the exact engine's limit of "
                         f"{MAX_EXACT_MODES}; lower --modes")
    grid = build_mode_grid(config)
    t_max = args.tmax if args.tmax is not None else _default_tmax(config)
    if not 0 < t_max < math.inf:
        raise ValueError(f"tmax must be positive and finite, got {t_max!r}")
    dt = args.dt
    if dt is None:
        dt = default_step(grid) * (0.5 if scenario == "double" else 1.0)
    check_window(t_max, dt, max_dt=stability_limit(grid) if rk4 else None)
    steps = step_count(t_max, dt)
    stride = args.stride
    if stride is None:
        stride = max(1, math.ceil(t_max / dt) // 2000)
    elif stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")
    if rk4 and steps > MAX_RK4_STEPS:
        raise ValueError(f"{steps:.3g} RK4 steps exceed the limit of {MAX_RK4_STEPS}; "
                         f"lower --tmax or raise --dt")
    samples = (steps - 1) // stride + 2
    if samples > MAX_SAMPLES:
        raise ValueError(f"{samples:.3g} samples exceed the limit of {MAX_SAMPLES}; "
                         f"raise --stride or --dt, or lower --tmax")
    return _Run(args, scenario, config, grid, t_max, dt, stride)


def _run_trajectory(run: _Run) -> RevivalReport:
    args, scenario, config, grid = run.args, run.scenario, run.config, run.grid
    if scenario == "double":
        traj = run_double(grid, config.theta, run.t_max, dt=run.dt, sample_stride=run.stride)
    else:
        if scenario == "single-fields":
            state = init_fields_entangled(config.theta, grid)
        else:
            state = init_atoms_entangled(config.theta, grid)
        traj = run_single(grid, state, run.t_max, dt=run.dt, sample_stride=run.stride)
    out_path = args.out or f"djcsim_{scenario}.csv"
    _write_csv(out_path, "t", traj.times, traj.records)
    report = detect_revivals(traj, predicted_period=retardation_time(config))
    print(f"scenario: {scenario}  modes={config.n_modes} omega_a={config.omega_a} "
          f"length_ratio={config.length_ratio} profile={config.coupling_profile} "
          f"theta={config.theta!r} ({args.angle_convention} convention)")
    _print_summary(config, traj, report, out_path)
    return report


def _run_kernel(args: argparse.Namespace) -> int:
    config = _make_config(args)
    grid = build_mode_grid(config)
    t_r = retardation_time(config)
    tau_max = args.tmax if args.tmax is not None else 3.0 * t_r
    if not 0 < tau_max < math.inf:
        raise ValueError(f"tmax must be positive and finite, got {tau_max!r}")
    dtau = args.dt if args.dt is not None else t_r / 400.0
    check_window(tau_max, dtau)
    count = int(math.floor(tau_max / dtau + 1e-9)) + 1
    if count > MAX_SAMPLES:
        raise ValueError(f"{count:.3g} samples exceed the limit of {MAX_SAMPLES}; "
                         f"raise --dt or lower --tmax")
    taus = np.arange(count) * dtau
    values = memory_kernel(grid, taus)
    records = {
        "re_k": values.real,
        "im_k": values.imag,
        "abs_k": np.abs(values),
    }
    out_path = args.out or "djcsim_kernel.csv"
    _write_csv(out_path, "tau", taus, records)
    print(f"scenario: kernel  modes={config.n_modes} omega_a={config.omega_a} "
          f"length_ratio={config.length_ratio} profile={config.coupling_profile}")
    print(f"t_r={t_r:.6f}  K(0)={values[0].real:.6f}")
    if config.n_modes > 1:
        echo = first_rephasing_maximum(taus, records["abs_k"])
        print(f"first rephasing maximum of |K| at tau={echo:.6f}")
    print(f"wrote {out_path}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if not args.axis:
        raise ValueError("sweep requires --axis")
    if not args.values:
        raise ValueError("sweep requires --values")
    values = _parse_values(args.values)
    if not values:
        raise ValueError("values list is empty")
    stem, ext = os.path.splitext(args.out or "djcsim_sweep.csv")
    ext = ext or ".csv"
    dest = _SWEEP_DESTS[args.axis]
    scenario = "double" if args.initial == "double" else f"single-{args.initial}"

    # Build and check every point, work limits included, before the first
    # run writes a file.
    points = []
    for index, value in enumerate(values):
        run_args = argparse.Namespace(**vars(args))
        if dest == "modes" and not value.is_integer():
            raise ValueError(f"n_modes value must be an integer, got {value!r}")
        setattr(run_args, dest, int(value) if dest == "modes" else value)
        run_args.out = f"{stem}_{args.axis}_{index:02d}{ext}"
        points.append((value, _plan(run_args, scenario)))

    reports = []
    for value, run in points:
        print(f"--- sweep {args.axis}={value!r} ---")
        reports.append((value, _run_trajectory(run)))

    summary_path = f"{stem}_summary{ext}"
    with open(summary_path, "w", encoding="ascii", newline="") as handle:
        handle.write("value,first_revival_peak,first_dead_start\n")
        for value, report in reports:
            peak = dead = ""
            if report.dead_intervals:
                dead = _format(report.dead_intervals[0][0])
                try:
                    peak = _format(first_revival_after_death(report).peak_value)
                except ValueError:
                    pass
            handle.write(f"{_format(value)},{peak},{dead}\n")
    print(f"wrote {summary_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subs = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            tokens = _config_tokens(args.config, subs[args.command])
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # File options go first, so a command-line flag (parsed later) wins.
        args = parser.parse_args(argv[:1] + tokens + argv[1:])

    try:
        if args.command == "kernel":
            return _run_kernel(args)
        if args.command == "sweep":
            return _run_sweep(args)
        scenario = "double" if args.command == "double" else f"single-{args.initial}"
        _run_trajectory(_plan(args, scenario))
        return 0
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
