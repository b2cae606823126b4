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

Every subcommand takes the grid (--modes, --length-ratio, --omega-a,
--profile), the window (--tmax, --dt), --out and --config; only the
trajectory runs take --theta, --stride and --angle-convention.  Each run
writes one CSV (headers mandatory, '.' decimal separator, LF line endings)
and prints a summary to stdout, which warns when --tmax is long enough for
float64 to round the phases by more than 1e-6.  Parameters can also be
supplied as key=value lines in a file passed with --config; keys are the
flag names with underscores, values are checked exactly like flags, and
command-line flags win over file values.  The single subcommand propagates
with RK4, which checks its stability limit before the first step; double
runs and every sweep point use the exact single-comb engine (see _plan).
Every CSV number is written as %.17g, which reads back to the same float64.
The cells are produced in numpy blocks of 512 rows (csvcells), byte for
byte as %.17g writes them: each cell is laid out in 32 bytes, masked to
the bytes it keeps, and the NUL bytes left are deleted.  Python's %
formats only the values outside its fast path (nonfinite, |v| <= 1e-6
and |v| >= 1e17).
Exit codes: 0 success, 2 invalid parameters, paths or a run over the work
limits, 3 numerical failure (nonfinite amplitudes, or an exact spectrum
that fails its check).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .csvcells import SPEC as _CSV_SPEC, format_rows
from .evolve import (
    IntegrationError,
    Trajectory,
    check_window,
    default_step,
    run_double,
    run_single,
    step_count,
)
from .model import COUPLING_PROFILES, ModeGrid, SystemConfig, build_mode_grid, retardation_time
from .revivals import (
    KERNEL_ROUND_TRIPS,
    RevivalReport,
    detect_revivals,
    first_rephasing_maximum,
    first_revival_after_death,
    memory_kernel,
    predict_revival_times,
    tau_count,
)
from .single import init_atoms_entangled, init_fields_entangled

#: Sweep axis -> the option destination it sets.
_SWEEP_DESTS = {"theta": "theta", "n_modes": "modes", "length_ratio": "length_ratio",
                "omega_a": "omega_a"}

#: Most samples one run may record (rows of its CSV).
MAX_SAMPLES = 10 ** 6
#: Most steps one RK4 run may take.
MAX_RK4_STEPS = 10 ** 7
#: Most modes per cavity for every subcommand.  The exact engine's spectrum
#: sets it: it peaks at about four (n+1) x n float64 arrays (122 MiB at
#: n = 1999).  RK4 and the kernel trace cost less per mode, but grow with n
#: unbounded by the other limits.
MAX_MODES = 2001
#: Least mode spacing of a multimode grid for the exact engine: its
#: eigenvector components g_k / (lambda - delta_k) grow as 1 / spacing, and
#: their squares overflow from a spacing of about 1e-154 down (n = 3 to 2001).
MIN_EXACT_SPACING = 1e-150
#: Largest max|delta| / min g of a multimode grid for the exact engine: its
#: outer eigenvector components grow as max|delta| / g, and their squares
#: overflow from about 1e154 up (n = 3 to 401, both profiles).
MAX_EXACT_SPREAD = 1e150
#: Below this Gamma * t_r the atom has not decayed by the first round trip.
_COLLAPSE_REGIME = 5.0
#: Phase rounding (radians) above which a run warns: the column tolerance.
_PHASE_TOL = 1e-6
#: CSV rows formatted at once.  A block costs about 150 us of numpy call
#: overhead whatever its size, and past about 512 rows of 11 columns its
#: arrays outgrow the processor's caches: a dense sweep's 24.5k rows took
#: 52, 42, 52 and 50 ms at 256, 512, 768 and 1024 rows (medians of 21,
#: 2-core Xeon VM, 2 MiB L2 per core).  A 512 x 11 block peaks at 0.55 MiB.
_CSV_BLOCK = 512

_PI_EXPR = re.compile(r"^\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_number(text: str) -> float:
    """Parse a float, also accepting 'pi', '3pi/8' or 'pi/4' style values."""
    match = _PI_EXPR.match(text)
    if match:
        value = math.pi * float(match.group(1) or 1.0)
        if match.group(2):
            denominator = float(match.group(2))
            if denominator == 0.0:
                raise ValueError(f"zero denominator in {text!r}")
            value /= denominator
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
    sub.add_argument("--modes", type=int, default=1,
                     help="modes per cavity, odd (default 1)")
    sub.add_argument("--length-ratio", dest="length_ratio", type=float, default=670.0,
                     help="cavity length over atomic wavelength (default 670)")
    sub.add_argument("--omega-a", dest="omega_a", type=float, default=4840.0,
                     help="atomic frequency in vacuum-Rabi units (default 4840)")
    sub.add_argument("--profile", choices=COUPLING_PROFILES, default="sqrtfreq",
                     help="coupling profile across modes (default sqrtfreq)")
    sub.add_argument("--tmax", type=float, default=None,
                     help="window length; default 5 round trips, or two Rabi cycles for "
                          f"1 mode (kernel: {KERNEL_ROUND_TRIPS} round trips)")
    sub.add_argument("--dt", type=float, default=None,
                     help="integration step (kernel: tau sample step); default derived from the grid")
    sub.add_argument("--out", default=None, help="output CSV path")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """The common flags plus those of the trajectory runs, which kernel lacks."""
    _add_common_flags(sub)
    sub.add_argument("--theta", type=parse_number, default=math.pi / 4,
                     help="initial mixing angle in radians; accepts pi/4 style (default pi/4)")
    sub.add_argument("--stride", type=int, default=None,
                     help="record every Nth step (default: aim for ~2000 rows)")
    sub.add_argument("--angle-convention", dest="angle_convention",
                     choices=("printed", "swapped"), default="printed",
                     help="role of theta in the initial state: as written, or with "
                          "cos/sin exchanged (default printed)")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="djcsim",
        description="Entanglement dynamics of two independent atom-cavity systems "
                    "with multimode fields and round-trip retardation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}

    single = commands.add_parser("single", help="single shared excitation")
    _add_run_flags(single)
    single.add_argument("--initial", choices=("atoms", "fields"), default="atoms",
                        help="where the initial entanglement sits (default atoms)")
    subs["single"] = single

    double = commands.add_parser("double", help="one excitation per cavity")
    _add_run_flags(double)
    double.set_defaults(initial="double")
    subs["double"] = double

    kernel = commands.add_parser("kernel", help="memory kernel trace")
    _add_common_flags(kernel)
    subs["kernel"] = kernel

    sweep = commands.add_parser("sweep", help="runs along one parameter axis")
    _add_run_flags(sweep)
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


def _make_config(args: argparse.Namespace, **theta) -> SystemConfig:
    config = SystemConfig(omega_a=args.omega_a, length_ratio=args.length_ratio,
                          n_modes=args.modes, coupling_profile=args.profile, **theta)
    if config.n_modes > MAX_MODES:
        raise ValueError(f"{config.n_modes} modes exceed the limit of {MAX_MODES}, which the "
                         f"exact engine's spectrum memory sets; lower --modes")
    return config


def _default_periods(config: SystemConfig) -> Tuple[int, float]:
    """The default window as a count of periods: two Rabi cycles of the
    resonant mode for one mode, else five round trips."""
    if config.n_modes == 1:
        return 2, 2.0 * math.pi
    return 5, retardation_time(config)


def _format(value: float) -> str:
    return _CSV_SPEC % float(value)


def _write_csv(path: str, first_column: str, times, records: dict) -> None:
    """Write the columns as rows of ``_CSV_SPEC`` values, formatting
    ``_CSV_BLOCK`` rows at a time in ``csvcells.format_rows``; every cell
    reads back to its float64."""
    columns = [times] + list(records.values())
    block = np.empty((_CSV_BLOCK, len(columns)))
    with open(path, "wb") as handle:
        handle.write((",".join([first_column] + list(records)) + "\n").encode("ascii"))
        for lo in range(0, len(times), _CSV_BLOCK):
            rows = block[:len(times) - lo]
            for j, column in enumerate(columns):
                rows[:, j] = column[lo:lo + _CSV_BLOCK]
            handle.write(format_rows(rows))


def _print_summary(config: SystemConfig, traj: Trajectory, report: RevivalReport,
                   out_path: str) -> None:
    conc = traj.records["c_ab"]
    norm = traj.records["norm"]
    t_r = retardation_time(config)
    print(f"t_r={t_r:.6f}")
    if config.n_modes > 1:
        # the central coupling is 1, so Gamma = 2 pi / spacing = t_r
        regime = t_r * t_r
        warning = (f"  (below {_COLLAPSE_REGIME:g}: no collapse expected before the "
                   f"first round trip)" if regime < _COLLAPSE_REGIME else "")
        print(f"Gamma*t_r={regime:.4g}{warning}")
    times = predict_revival_times(config, 3)
    note = "  (single-mode cavity: Rabi-periodic, round-trip times not applicable)" \
        if config.n_modes == 1 else ""
    print("predicted revival times: "
          + ", ".join(f"{t:.6f}" for t in times) + note)
    print(f"initial concurrence: {conc[0]:.6f}")
    print(f"final concurrence:   {conc[-1]:.6f}")
    print(f"max |norm - 1|: {float(np.max(np.abs(norm - 1.0))):.3e}")
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
    # a peak at the first sample is the initial state, not a revival
    revivals = [event for event in report.revivals if event.peak_time != traj.times[0]]
    if revivals:
        for event in revivals[:5]:
            print(f"revival: onset={event.onset:.4f} peak_t={event.peak_time:.4f} "
                  f"peak={event.peak_value:.6f}")
        if len(revivals) > 5:
            print(f"({len(revivals) - 5} more revivals not shown)")
    else:
        print("revivals: none detected")
    print(f"wrote {out_path}")


def _window(args: argparse.Namespace, periods: int, period: float, dt: float,
            stride=None) -> tuple:
    """--tmax and --dt, or the subcommand's defaults ``periods * period`` and
    ``dt``, checked together with --stride where the subcommand takes one."""
    t_max = periods * period if args.tmax is None else args.tmax
    if args.tmax is None and t_max == math.inf:
        raise ValueError(f"the default --tmax of {periods} round trips of t_r={period:.3g} "
                         f"overflows; raise --omega-a, lower --length-ratio or pass --tmax")
    if not 0 < t_max < math.inf:
        raise ValueError(f"tmax must be positive and finite, got {t_max!r}")
    dt = dt if args.dt is None else args.dt
    check_window(t_max, dt, 1 if stride is None else stride)
    return t_max, dt


def _check_samples(samples: int, remedy: str) -> None:
    if samples > MAX_SAMPLES:
        raise ValueError(f"{samples:.3g} samples exceed the limit of {MAX_SAMPLES}; {remedy}")


class _Run(NamedTuple):
    """One trajectory run, checked and ready to propagate."""

    args: argparse.Namespace
    scenario: str
    config: SystemConfig
    grid: ModeGrid
    t_max: float
    dt: float
    stride: int
    engine: str  # "exact" or "rk4"


def _plan(args: argparse.Namespace) -> _Run:
    """Build and check one run, the work limits included, without running it
    (``run_single`` checks the RK4 stability limit before its first step)."""
    scenario = "double" if args.initial == "double" else f"single-{args.initial}"
    swapped = args.angle_convention == "swapped"
    config = _make_config(args, theta=math.pi / 2 - args.theta if swapped else args.theta)
    # Only the single subcommand steps RK4: the benchmark's traced-layer
    # self-test (perfbench/selftest.py) expects a stepped single run, so
    # switching it waits for the benchmark change that updates the test.
    # Double runs and every sweep point use the exact engine.
    engine = "rk4" if args.command == "single" else "exact"
    rk4 = engine == "rk4"
    grid = build_mode_grid(config)
    t_max, dt = _window(args, *_default_periods(config),
                        default_step(grid) * (0.5 if scenario == "double" else 1.0), args.stride)
    # one mode has no gap between poles: its eigenvector components are +-1
    if not rk4 and config.n_modes > 1 and config.mode_spacing < MIN_EXACT_SPACING:
        raise ValueError(f"--omega-a {config.omega_a:g} over --length-ratio "
                         f"{config.length_ratio:g} gives a mode spacing of "
                         f"{config.mode_spacing:.3g}, below the exact engine's limit of "
                         f"{MIN_EXACT_SPACING:g}; raise --omega-a or lower --length-ratio")
    spread = grid.max_detuning / float(np.min(grid.couplings))
    if not rk4 and spread > MAX_EXACT_SPREAD:
        raise ValueError(f"--omega-a {config.omega_a:g} over --length-ratio "
                         f"{config.length_ratio:g} gives max|delta| / min g = {spread:.3g}, "
                         f"above the exact engine's limit of {MAX_EXACT_SPREAD:g}; lower "
                         f"--omega-a or raise --length-ratio")
    steps = step_count(t_max, dt)
    stride = max(1, steps // 2000) if args.stride is None else args.stride
    if rk4 and steps > MAX_RK4_STEPS:
        raise ValueError(f"{steps:.3g} RK4 steps exceed the limit of {MAX_RK4_STEPS}; "
                         f"lower --tmax or raise --dt")
    _check_samples((steps - 1) // stride + 2, "raise --stride or --dt, or lower --tmax")
    return _Run(args, scenario, config, grid, t_max, dt, stride, engine)


def _phase_rounding(frequency: float, window: float) -> float:
    """Bound u * frequency * window on the rounding of every phase of a run
    whose frequencies are at most ``frequency``; print the warning line when
    it exceeds ``_PHASE_TOL``."""
    rounding = 2.0 ** -53 * window * frequency
    if rounding > _PHASE_TOL:
        print(f"warning: phases round by up to {rounding:.2g} rad at t={window:g}, above "
              f"{_PHASE_TOL:g}: the columns and revivals are noise; lower --tmax")
    return rounding


def _run_trajectory(run: _Run) -> RevivalReport:
    args, scenario, config, grid = run.args, run.scenario, run.config, run.grid
    if scenario == "double":
        traj = run_double(grid, config.theta, run.t_max, dt=run.dt, sample_stride=run.stride)
    else:
        if scenario == "single-fields":
            state = init_fields_entangled(config.theta, grid)
        else:
            state = init_atoms_entangled(config.theta, grid)
        traj = run_single(grid, state, run.t_max, dt=run.dt, sample_stride=run.stride,
                          engine=run.engine)
    out_path = args.out or f"djcsim_{scenario}.csv"
    _write_csv(out_path, "t", traj.times, traj.records)
    report = detect_revivals(traj, predicted_period=retardation_time(config))
    print(f"scenario: {scenario}  modes={config.n_modes} omega_a={config.omega_a} "
          f"length_ratio={config.length_ratio} profile={config.coupling_profile} "
          f"theta={config.theta!r} ({args.angle_convention} convention)")
    # max|delta| + G bounds every |eigenvalue| of the comb (the outer brackets
    # of ``comb_spectrum``), so no spectrum is needed
    _phase_rounding(grid.max_detuning + grid.collective_coupling, run.t_max)
    _print_summary(config, traj, report, out_path)
    return report


def _run_kernel(args: argparse.Namespace) -> int:
    config = _make_config(args)
    grid = build_mode_grid(config)
    t_r = retardation_time(config)
    tau_max, dtau = _window(args, KERNEL_ROUND_TRIPS, t_r, t_r / 400.0)
    count = tau_count(tau_max, dtau)
    _check_samples(count, "raise --dt or lower --tmax")
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
    _phase_rounding(grid.max_detuning, tau_max)
    # the fastest term exp(-i max|delta| tau) needs two samples per period
    if dtau * grid.max_detuning > math.pi:
        print(f"warning: --dt {dtau:g} exceeds pi/max|delta| = "
              f"{math.pi / grid.max_detuning:.3g}: |K| aliases and its rephasing maximum "
              f"is not resolved; lower --dt")
    print(f"t_r={t_r:.6f}  K(0)={values[0].real:.6f}")
    if config.n_modes > 1:
        try:
            echo = f"at tau={first_rephasing_maximum(taus, records['abs_k']):.6f}"
        except ValueError:
            echo = "not reached within --tmax"
        print(f"first rephasing maximum of |K| {echo}")
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

    # Build and check every point, work limits included, before the first
    # run writes a file.
    points = []
    for index, value in enumerate(values):
        run_args = argparse.Namespace(**vars(args))
        if dest == "modes" and not value.is_integer():
            raise ValueError(f"n_modes value must be an integer, got {value!r}")
        setattr(run_args, dest, int(value) if dest == "modes" else value)
        run_args.out = f"{stem}_{args.axis}_{index:02d}{ext}"
        points.append((value, _plan(run_args)))

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
    try:
        if args.config:
            # File options go first, so a command-line flag (parsed later) wins.
            tokens = _config_tokens(args.config, subs[args.command])
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        if args.command == "kernel":
            return _run_kernel(args)
        if args.command == "sweep":
            return _run_sweep(args)
        _run_trajectory(_plan(args))
        return 0
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
