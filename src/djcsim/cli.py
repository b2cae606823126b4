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
and prints a summary to stdout.  Each run is planned whole before any work
(_budget): the work limits, and two rules on the frequencies of its phases,
at most f = max|delta| + G for a trajectory and max|delta| for the kernel
trace.  Float64 rounds a phase by up to u f t, which must stay within 1e-6
over the window.  A column of degree m in the phases oscillates at sums
and differences of m frequencies, up to m f, so samples must lie closer
than pi / (m f): m = 2 for a single run, whose columns are quadratic in the
atom amplitude; m = 4 for a double run, quadratic in its two-excitation
amplitudes, the products of two; m = 1 for the kernel trace, linear in its
phases.  A default window and stride keep both rules; an explicit --tmax,
--stride or --dt that breaks one prints a warning line after the scenario
line.  A run exits 2 where float64 cannot hold a trajectory's frequency
differences, up to 2 f, any run's phase differences over its window, up to
2 f t, or the exact engine's secular terms, up to G^2 / spacing.
Parameters can also be supplied as key=value lines in a file passed with
--config; keys are the flag names with underscores, values are checked
exactly like flags, and command-line flags win over file values.  The
single subcommand propagates with RK4, which checks its stability limit
before the first step; double runs and every sweep point use the exact
single-comb engine (see _plan).
Every CSV number is written as %+.16e, a sign and 17 significant digits
that read back to the same float64; csvcells formats the cells in numpy
blocks of 512 rows, byte for byte, 24 bytes a cell with its separator
wherever the exponent has two digits.
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
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .csvcells import SPEC as _CSV_SPEC, format_rows
from .evolve import (
    _SPECTRUM_TOL,
    IntegrationError,
    Trajectory,
    check_window,
    default_step,
    run_double,
    run_single,
    sample_count,
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
    tau_count,
)
from .single import init_atoms_entangled, init_fields_entangled

#: Sweep axis -> the option destination it sets.
_SWEEP_DESTS = {"theta": "theta", "n_modes": "modes", "length_ratio": "length_ratio",
                "omega_a": "omega_a"}

#: Default window of a multimode trajectory run, in round trips.
ROUND_TRIPS = 5
#: Most samples one run may record (rows of its CSV).  A row's columns and
#: the arrays formed from them peak at about 94 bytes per row on RK4 (a
#: single run), 84 on the exact engine's double runs and 101 on its single
#: sweep points (tracemalloc over whole CLI runs), so about 0.1 GB here.
MAX_SAMPLES = 10 ** 6
#: Most steps one RK4 run may take.
MAX_RK4_STEPS = 10 ** 7
#: Most modes per cavity for every subcommand.  The exact engine's spectrum
#: sets it: it peaks at about three (n+1) x n float64 arrays (92 MiB at
#: n = 1999).  RK4 and the kernel trace cost less per mode, but grow with n
#: unbounded by the other limits.
MAX_MODES = 2001
#: Below this Gamma * t_r the atom has not decayed by the first round trip.
_COLLAPSE_REGIME = 5.0
#: Phase rounding (radians) above which a run warns: the column tolerance.
_PHASE_TOL = 1e-6
#: CSV rows formatted at once.  A block costs about 50 us of numpy call
#: overhead whatever its size, and past about 512 rows of 11 columns glibc
#: returns each block's memory to the system and faults it in again: a
#: dense sweep's 24.5k x 11 cells took 17.3, 15.6, 23.6 and 23.7 ms at 256,
#: 512, 1024 and 2048 rows, and a double run's 2002 x 8 took 1.30, 1.06,
#: 0.96 and 0.92 ms (best of three medians of 21, 2-core Xeon VM).  With
#: glibc's trim and mmap thresholds raised to 256 MiB the dense sweep took
#: 15.6, 14.3 and 13.6 ms at 512, 1024 and 2048 rows.  A 512 x 11 block
#: peaks at 0.55 MiB.
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
                     help=f"window length; default {ROUND_TRIPS} round trips, or two Rabi "
                          f"cycles for 1 mode (kernel: {KERNEL_ROUND_TRIPS} round trips)")
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


def _format(value: float) -> str:
    return _CSV_SPEC % float(value)


def _format_time(t: float, decimals: int = 6) -> str:
    """A summary time: ``decimals`` places where that fits in 16 characters
    and reads back within 10**-decimals relative, else %.7g, which always
    does; so a nonzero time never prints as zero."""
    text = f"{t:.{decimals}f}"
    if len(text) <= 16 and abs(float(text) - t) <= 10.0 ** -decimals * abs(t):
        return text
    return f"{t:.7g}"


def _format_square(x: float) -> str:
    """x * x in %.4g form; where the product overflows float64, from
    2 log10(x), in the same scientific form."""
    square = x * x
    if math.isfinite(square):
        return f"{square:.4g}"
    exponent, fraction = divmod(2.0 * math.log10(x), 1.0)
    digits = f"{10.0 ** fraction:.4g}"
    if digits == "10":
        exponent, digits = exponent + 1.0, "1"
    return f"{digits}e+{exponent:.0f}"


def _write_csv(path: str, first_column: str, times, records: dict) -> None:
    """Write the columns as rows of ``_CSV_SPEC`` values, formatting
    ``_CSV_BLOCK`` rows at a time in ``csvcells.format_rows``, whose buffer
    is written as it is; every cell reads back to its float64."""
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
    print(f"t_r={_format_time(t_r)}")
    if config.n_modes > 1:
        # the central coupling is 1, so Gamma = 2 pi / spacing = t_r
        regime = t_r * t_r
        warning = (f"  (below {_COLLAPSE_REGIME:g}: no collapse expected before the "
                   f"first round trip)" if regime < _COLLAPSE_REGIME else "")
        print(f"Gamma*t_r={_format_square(t_r)}{warning}")
    times = [m * t_r for m in (1, 2, 3)]
    note = "  (single-mode cavity: Rabi-periodic, round-trip times not applicable)" \
        if config.n_modes == 1 else ""
    print("predicted revival times: "
          + ", ".join(_format_time(t) for t in times) + note)
    print(f"initial concurrence: {conc[0]:.6f}")
    print(f"final concurrence:   {conc[-1]:.6f}")
    print(f"max |norm - 1|: {float(np.max(np.abs(norm - 1.0))):.3e}")
    print(f"engine: {traj.engine}")
    if report.dead_intervals:
        spans = ", ".join(f"[{_format_time(a, 4)}, {_format_time(b, 4)}]"
                          for a, b in report.dead_intervals[:5])
        more = " ..." if len(report.dead_intervals) > 5 else ""
        print(f"dead intervals: {spans}{more}")
        try:
            first = first_revival_after_death(report)
            print(f"first revival after collapse: onset={_format_time(first.onset, 4)} "
                  f"peak_t={_format_time(first.peak_time, 4)} peak={first.peak_value:.6f}")
        except ValueError:
            pass
    else:
        print("dead intervals: none")
    # a peak at the first sample is the initial state, not a revival
    revivals = [event for event in report.revivals if event.peak_time != traj.times[0]]
    if revivals:
        for event in revivals[:5]:
            print(f"revival: onset={_format_time(event.onset, 4)} "
                  f"peak_t={_format_time(event.peak_time, 4)} peak={event.peak_value:.6f}")
        if len(revivals) > 5:
            print(f"({len(revivals) - 5} more revivals not shown)")
    else:
        print("revivals: none detected")
    print(f"wrote {out_path}")


class _Run(NamedTuple):
    """One run, checked and ready to propagate or trace."""

    args: argparse.Namespace
    scenario: str
    config: SystemConfig
    grid: ModeGrid
    t_max: float
    dt: float
    stride: int
    engine: str  # "exact" or "rk4"; a kernel trace sums its modes exactly
    notes: Tuple[str, ...]  # lines the run prints after its scenario line


def _budget(args: argparse.Namespace, periods: int, period: float, dt: float,
            fastest: float, order: int, count: Callable[[float, float, int], int],
            stride: Optional[int], knobs: str,
            max_steps: float = math.inf) -> Tuple[float, float, int, Tuple[str, ...]]:
    """A run's window, step and stride, planned within the run budget before
    any work, and the notes the run prints.  The defaults are ``periods *
    period``, ``dt`` and a None ``stride``.  ``fastest`` bounds every
    frequency of the run's phases, ``order`` is the degree of its columns
    in them, ``count(t_max, dt, stride)`` counts its samples, ``knobs``
    names the flags that space them and ``max_steps`` bounds a stepping
    engine's steps.  Float64 rounds a phase by up to u * fastest * t, and
    samples must lie closer than pi / (order * fastest), half a period of
    the fastest column: a default window or stride keeps both, an explicit
    flag past one warns."""
    t_max = periods * period if args.tmax is None else args.tmax
    if args.tmax is None and t_max == math.inf:
        raise ValueError(f"the default --tmax of {periods} round trips of t_r={period:.3g} "
                         f"overflows; raise --omega-a, lower --length-ratio or pass --tmax")
    if not 0 < t_max < math.inf:
        raise ValueError(f"tmax must be positive and finite, got {t_max!r}")
    if 2.0 * (fastest * t_max) == math.inf:  # 2 f alone may overflow (kernel)
        raise ValueError(f"phase differences up to 2 x {fastest:.3g} x t={t_max:.3g} "
                         f"overflow float64; lower --tmax")
    dt = dt if args.dt is None else args.dt
    check_window(t_max, dt, 1 if stride is None else stride)
    notes = []
    rounding = 2.0 ** -53 * fastest  # per unit of time

    def noisy(window: float) -> bool:
        return rounding * window > _PHASE_TOL

    if noisy(t_max) and args.tmax is None:  # the longest default window within it
        longest = _PHASE_TOL / rounding
        while noisy(longest):
            longest = math.nextafter(longest, 0.0)
        notes.append(f"default window shortened from t={t_max:.6g} to t={longest:.6g}, past "
                     f"which float64 rounds the phases by over {_PHASE_TOL:g} rad")
        t_max = longest
    elif noisy(t_max):
        notes.append(f"warning: phases round by up to {rounding * t_max:.2g} rad at "
                     f"t={t_max:g}, above {_PHASE_TOL:g}: the columns and revivals are "
                     f"noise; lower --tmax")
    steps = step_count(t_max, dt)
    if steps > max_steps:
        raise ValueError(f"{steps:.3g} RK4 steps exceed the limit of {max_steps}; "
                         f"lower --tmax or raise --dt")
    if stride is None:  # about 2000 rows, as long as that keeps two per period
        stride = max(1, math.floor(min(steps // 2000, math.pi / order / (dt * fastest))))
    samples = count(t_max, dt, stride)
    if samples > MAX_SAMPLES:
        raise ValueError(f"{samples:.3g} samples exceed the limit of {MAX_SAMPLES}; "
                         f"raise {knobs}, or lower --tmax")
    gap = min(stride, steps) * dt  # the widest gap between samples
    if gap * fastest > math.pi / order:  # order * fastest may overflow
        notes.append(f"warning: samples {gap:.3g} apart exceed {math.pi / order / fastest:.3g}, "
                     f"half a period of the fastest column: the columns and their events "
                     f"alias; lower {knobs}")
    return t_max, dt, stride, tuple(notes)


def _plan(args: argparse.Namespace) -> _Run:
    """Build and check one trajectory run, within the run budget, without
    running it (``run_single`` checks the RK4 stability limit before its
    first step)."""
    scenario = "double" if args.initial == "double" else f"single-{args.initial}"
    swapped = args.angle_convention == "swapped"
    config = _make_config(args, theta=math.pi / 2 - args.theta if swapped else args.theta)
    # Only the single subcommand steps RK4: the benchmark's traced-layer
    # self-test (perfbench/selftest.py) expects a stepped single run, so
    # switching it waits for the benchmark change that updates the test.
    # Double runs and every sweep point use the exact engine.
    engine = "rk4" if args.command == "single" else "exact"
    grid = build_mode_grid(config)
    # The secular terms g_k^2 / (delta_k - lam) reach G^2 / spacing between
    # the poles; one mode has one pole and no spacing.
    coupling2 = grid.collective_coupling ** 2
    if engine == "exact" and config.n_modes > 1 and coupling2 / grid.spacing == math.inf:
        raise ValueError(f"--omega-a {config.omega_a:g}, --length-ratio {config.length_ratio:g} "
                         f"and --modes {config.n_modes} give secular terms up to G^2/spacing = "
                         f"{coupling2:.3g}/{grid.spacing:.3g}, past float64's limit; "
                         f"raise --omega-a, or lower --length-ratio or --modes")
    # the spectrum's check takes differences of eigenvalues, up to 2 f, and
    # the RK4 stability limit divides by 2 f
    if 2.0 * grid.frequency_bound == math.inf:
        raise ValueError(f"--omega-a {config.omega_a:g}, --length-ratio "
                         f"{config.length_ratio:g} and --modes {config.n_modes} give "
                         f"frequencies up to {grid.frequency_bound:.3g}, whose differences "
                         f"float64 cannot hold; lower --omega-a or --modes, or raise "
                         f"--length-ratio")
    # The secular solver holds each root as its offset from a pole, about
    # g_k^2 / |delta_k|, to 2^-1074 at best: the eigenvector's atom row is
    # then off by about 2^-1074 |delta_k| / g_k, which the check bounds.
    if engine == "exact" and np.any(np.ldexp(np.abs(grid.detunings), -1074)
                                    > _SPECTRUM_TOL * grid.couplings):
        raise ValueError(f"--omega-a {config.omega_a!r}, --length-ratio {config.length_ratio!r} "
                         f"and --modes {config.n_modes} put eigenvalues closer to their modes "
                         f"than float64 resolves; lower --omega-a or raise --length-ratio")
    # the default window: two Rabi cycles of the resonant mode for one mode
    window = ((2, 2.0 * math.pi) if config.n_modes == 1
              else (ROUND_TRIPS, retardation_time(config)))
    # the columns' degree in the phases (see the module docstring)
    order = 4 if scenario == "double" else 2
    t_max, dt, stride, notes = _budget(
        args, *window, default_step(grid, double=scenario == "double"),
        grid.frequency_bound, order, sample_count, args.stride,
        "--stride or --dt", MAX_RK4_STEPS if engine == "rk4" else math.inf)
    return _Run(args, scenario, config, grid, t_max, dt, stride, engine, notes)


def _plan_kernel(args: argparse.Namespace) -> _Run:
    """Build and check one kernel trace, within the run budget, without
    evaluating the kernel: its taus are every multiple of --dt up to
    --tmax, and its fastest term is exp(-i max|delta| tau)."""
    config = _make_config(args)
    grid = build_mode_grid(config)
    t_r = retardation_time(config)
    t_max, dt, stride, notes = _budget(
        args, KERNEL_ROUND_TRIPS, t_r, t_r / 400.0, grid.max_detuning, 1,
        lambda tau_max, dtau, stride: tau_count(tau_max, dtau), 1, "--dt")
    return _Run(args, "kernel", config, grid, t_max, dt, stride, "exact", notes)


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
    for note in run.notes:
        print(note)
    _print_summary(config, traj, report, out_path)
    return report


def _run_kernel(run: _Run) -> None:
    config = run.config
    taus = np.arange(tau_count(run.t_max, run.dt)) * run.dt
    values = memory_kernel(run.grid, taus)
    records = {"re_k": values.real, "im_k": values.imag, "abs_k": np.abs(values)}
    out_path = run.args.out or "djcsim_kernel.csv"
    _write_csv(out_path, "tau", taus, records)
    print(f"scenario: kernel  modes={config.n_modes} omega_a={config.omega_a} "
          f"length_ratio={config.length_ratio} profile={config.coupling_profile}")
    for note in run.notes:
        print(note)
    print(f"t_r={_format_time(retardation_time(config))}  K(0)={values[0].real:.6f}")
    if config.n_modes > 1:
        try:
            echo = f"at tau={_format_time(first_rephasing_maximum(taus, records['abs_k']))}"
        except ValueError:
            echo = "not reached within --tmax"
        print(f"first rephasing maximum of |K| {echo}")
    print(f"wrote {out_path}")


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
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "kernel":
            _run_kernel(_plan_kernel(args))
        else:
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
