"""Acceptance suite: one test per shipped criterion, one printed line each.

Run `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.

Criterion 5 is expected to fail on its n=19, L=670 half: at those parameters
the coupling-to-spacing ratio puts the dynamics in a quasi-single-mode Rabi
regime (the concurrence only falls to ~0.47 before the round-trip time and
never collapses), so no floor-crossing revival onset exists near t_r.  The
n=99 half and the kernel half pass.  See the README for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from djcsim import (
    DoubleExcState,
    SingleExcState,
    SystemConfig,
    build_mode_grid,
    concurrence_double_closed,
    concurrence_single_closed,
    concurrence_wootters,
    default_step,
    expm_oracle,
    first_kernel_echo,
    first_revival_after_death,
    detect_revivals,
    init_atoms_entangled,
    init_double,
    init_fields_entangled,
    integrate,
    retardation_time,
    rho_atoms_double,
    rho_atoms_single,
    stability_limit,
)
from djcsim.cli import main as cli_main
from djcsim.double import flat_derivative as double_derivative
from djcsim.single import flat_derivative as single_derivative

GRID_N19_L670 = dict(omega_a=4840.0, length_ratio=670.0, n_modes=19)
GRID_N99_L3480 = dict(omega_a=4840.0, length_ratio=3480.0, n_modes=99)
GRID_N19_L670_HI = dict(omega_a=11100.0, length_ratio=670.0, n_modes=19)
GRID_N99_L3480_HI = dict(omega_a=11100.0, length_ratio=3480.0, n_modes=99)
GRID_N49_L1720_HI = dict(omega_a=11100.0, length_ratio=1720.0, n_modes=49)
SINGLE_MODE = dict(omega_a=4840.0, length_ratio=670.0, n_modes=1)

#: every shipped scenario: name -> (kind, parameters)
SCENARIOS = {
    "single-mode atoms n=1": ("single-atoms", SINGLE_MODE),
    "single-mode double n=1": ("double", SINGLE_MODE),
    "atoms entangled n=19 L=670": ("single-atoms", GRID_N19_L670),
    "atoms entangled n=99 L=3480": ("single-atoms", GRID_N99_L3480),
    "fields entangled n=19 L=670": ("single-fields", GRID_N19_L670_HI),
    "fields entangled n=99 L=3480": ("single-fields", GRID_N99_L3480_HI),
    "double excitation n=49 L=1720": ("double", GRID_N49_L1720_HI),
}


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _default_t_max(cfg):
    if cfg.n_modes == 1:
        return 4.0 * math.pi
    return 5.0 * retardation_time(cfg)


def _run_scenario(kind, cfg, stride=10):
    grid = build_mode_grid(cfg)
    t_max = _default_t_max(cfg)
    if kind == "double":
        state = init_double(cfg.theta, grid)
        deriv = double_derivative(grid)
        d00_ref = state.d00

        def observe(t, y):
            st = DoubleExcState.from_vector(y, grid.n)
            return {
                "c_ab": concurrence_double_closed(st),
                "c_w": concurrence_wootters(rho_atoms_double(st)),
                "norm": float(np.sum(np.abs(y) ** 2)),
                "d00_err": abs(y[0] - d00_ref),
            }
    else:
        if kind == "single-fields":
            state = init_fields_entangled(cfg.theta, grid)
        else:
            state = init_atoms_entangled(cfg.theta, grid)
        deriv = single_derivative(grid)

        def observe(t, y):
            st = SingleExcState.from_vector(y, grid.n)
            return {
                "c_ab": concurrence_single_closed(st),
                "c_w": concurrence_wootters(rho_atoms_single(st)),
                "norm": float(np.sum(np.abs(y) ** 2)),
                "pop1": abs(st.c1) ** 2,
                "pop2": abs(st.c2) ** 2,
            }

    dt = default_step(grid, double=kind == "double")
    traj = integrate(deriv, state.to_vector(), t_max, dt,
                     sample_stride=stride, observe=observe,
                     max_dt=stability_limit(grid))
    return grid, traj


@pytest.fixture(scope="module")
def shipped():
    start = time.perf_counter()
    runs = {}
    for name, (kind, params) in SCENARIOS.items():
        cfg = SystemConfig(theta=math.pi / 4, **params)
        grid, traj = _run_scenario(kind, cfg)
        runs[name] = (kind, cfg, grid, traj)
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_single_mode_closed_form():
    # concurrence = sin(2 theta) cos^2(t), zeros at t = pi/2 and 3 pi/2
    start = time.perf_counter()
    cfg = SystemConfig(theta=math.pi / 4, **SINGLE_MODE)
    grid = build_mode_grid(cfg)
    dt = math.pi / 1000.0
    worst = 0.0
    zero_worst = 0.0
    for theta in (math.pi / 4, math.pi / 6, math.pi / 12):
        state = init_atoms_entangled(theta, grid)

        def observe(t, y):
            return {"c_ab": 2.0 * abs(y[0]) * abs(y[1])}

        traj = integrate(single_derivative(grid), state.to_vector(),
                         2.0 * math.pi, dt, observe=observe)
        exact = math.sin(2.0 * theta) * np.cos(traj.times) ** 2
        worst = max(worst, float(np.max(np.abs(traj.records["c_ab"] - exact))))
        zero_worst = max(zero_worst, traj.records["c_ab"][500],
                         traj.records["c_ab"][1500])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and zero_worst <= 1e-6 and elapsed < 1.0
    _report(1, ok, f"max deviation {worst:.2e} (tol 1e-6), "
                   f"zeros at pi/2 & 3pi/2 <= {zero_worst:.2e}, "
                   f"runtime {elapsed:.2f}s (< 1 s)")


def test_criterion_2_norm_conservation(shipped):
    runs, elapsed = shipped
    worst_norm = 0.0
    worst_d00 = 0.0
    for name, (kind, cfg, grid, traj) in runs.items():
        worst_norm = max(worst_norm, float(np.max(np.abs(traj.records["norm"] - 1.0))))
        if kind == "double":
            worst_d00 = max(worst_d00, float(np.max(traj.records["d00_err"])))
    ok = worst_norm <= 1e-6 and worst_d00 <= 1e-12 and elapsed < 120.0
    _report(2, ok, f"{len(runs)} scenarios: max |norm-1| {worst_norm:.2e} (tol 1e-6), "
                   f"max d00 drift {worst_d00:.2e} (tol 1e-12), "
                   f"runtime {elapsed:.1f}s (< 2 min)")


def test_criterion_3_wootters_equals_closed_forms(shipped):
    runs, _ = shipped
    worst = 0.0
    for name, (kind, cfg, grid, traj) in runs.items():
        diff = np.max(np.abs(traj.records["c_w"] - traj.records["c_ab"]))
        worst = max(worst, float(diff))
    ok = worst <= 1e-10
    _report(3, ok, f"max |wootters - closed| {worst:.2e} over all trajectories "
                   f"(tol 1e-10)")


def test_criterion_4_integrator_oracle():
    cfg = SystemConfig(theta=math.pi / 4, n_modes=3, omega_a=4840.0,
                       length_ratio=670.0)
    grid = build_mode_grid(cfg)
    state = init_atoms_entangled(math.pi / 4, grid)
    reference = expm_oracle(state, grid, 1.0).to_vector()
    errors = []
    for dt in (4e-3, 2e-3):
        traj = integrate(single_derivative(grid), state.to_vector(), 1.0, dt,
                         sample_stride=10 ** 9,
                         observe=lambda t, y: {"vec": y.copy()})
        errors.append(float(np.max(np.abs(traj.records["vec"][-1] - reference))))
    ratio = errors[0] / errors[1]
    ok = errors[0] <= 1e-6 and ratio >= 12.0
    _report(4, ok, f"endpoint error {errors[0]:.2e} (tol 1e-6), "
                   f"halved-step improvement x{ratio:.1f} (>= 12)")


def test_criterion_5_retardation_timing(shipped):
    runs, _ = shipped
    details = []
    ok = True
    for name in ("atoms entangled n=19 L=670", "atoms entangled n=99 L=3480"):
        kind, cfg, grid, traj = runs[name]
        t_r = retardation_time(cfg)
        try:
            report = detect_revivals(traj)
            onset = first_revival_after_death(report).onset
            frac = (onset - t_r) / t_r
            part_ok = abs(frac) <= 0.05
            details.append(f"{name}: onset {onset:.4f} vs t_r {t_r:.4f} "
                           f"({100 * frac:+.1f}%, tol 5%)"
                           + ("" if part_ok else " <- FAIL"))
        except ValueError as exc:
            part_ok = False
            details.append(f"{name}: no revival onset found ({exc}) <- FAIL")
        ok = ok and part_ok
        # kernel half: first rephasing maximum at t_r within one tau sample
        dtau = t_r / 400.0
        echo = first_kernel_echo(grid, dtau)
        kernel_ok = abs(echo - t_r) <= dtau
        details.append(f"{name}: kernel echo {echo:.4f} vs t_r {t_r:.4f} "
                       f"(tol one sample {dtau:.2e})"
                       + ("" if kernel_ok else " <- FAIL"))
        ok = ok and kernel_ok
    _report(5, ok, "; ".join(details))


def test_criterion_6_figure_behaviors(shipped):
    runs, _ = shipped
    kind, cfg, grid, traj = runs["atoms entangled n=99 L=3480"]
    t = traj.times
    c = traj.records["c_ab"]
    pop1 = traj.records["pop1"]
    t_r = retardation_time(cfg)

    report = detect_revivals(traj)
    first = first_revival_after_death(report)
    collapse_floor = float(np.min(c[t < first.onset]))
    a_ok = collapse_floor <= 0.05 and first.peak_value < c[0]

    window_peaks = []
    for m in (1, 2, 3):
        sel = (t >= m * t_r - 0.5 * t_r) & (t <= m * t_r + 0.5 * t_r)
        window_peaks.append(float(np.max(c[sel])))
    b_ok = all(later <= earlier + 0.01
               for earlier, later in zip(window_peaks, window_peaks[1:]))

    sel = (t >= first.onset - 0.25 * t_r) & (t <= first.onset + 0.75 * t_r)
    idx = np.flatnonzero(sel)
    jump_pop = t[idx[np.argmax(np.diff(pop1[idx])) + 1]]
    jump_conc = t[idx[np.argmax(np.diff(c[idx])) + 1]]
    spacing = t[1] - t[0]
    c_ok = abs(jump_pop - jump_conc) <= spacing + 1e-12

    ok = a_ok and b_ok and c_ok
    _report(6, ok,
            f"(a) collapse to {collapse_floor:.1e} (<= 0.05) and first peak "
            f"{first.peak_value:.3f} < initial {c[0]:.3f}: {a_ok}; "
            f"(b) echo peaks {[round(p, 3) for p in window_peaks]} "
            f"non-increasing: {b_ok}; "
            f"(c) population jump at {jump_pop:.4f} vs concurrence jump at "
            f"{jump_conc:.4f} within one stride: {c_ok}")


def test_criterion_7_double_excitation_oracle():
    cfg = SystemConfig(theta=math.pi / 4, **SINGLE_MODE)
    grid = build_mode_grid(cfg)
    theta = math.pi / 4
    state = init_double(theta, grid)

    def observe(t, y):
        return {"vec": y.copy()}

    traj = integrate(double_derivative(grid), state.to_vector(), 2.0 * math.pi,
                     1e-3, sample_stride=50, observe=observe)
    worst_vec = 0.0
    worst_closed = 0.0
    for t, vec in zip(traj.times, traj.records["vec"]):
        ce, cp = math.cos(t), math.sin(t)
        product = np.array([
            math.cos(theta),
            math.sin(theta) * ce * ce,
            math.sin(theta) * ce * cp,
            math.sin(theta) * cp * ce,
            math.sin(theta) * cp * cp,
        ], dtype=complex)
        worst_vec = max(worst_vec, float(np.max(np.abs(vec - product))))
        closed = concurrence_double_closed(DoubleExcState.from_vector(vec, 1))
        formula = 2.0 * max(0.0, math.cos(t) ** 2 * math.sin(theta)
                            * (math.cos(theta) - math.sin(theta) * math.sin(t) ** 2))
        worst_closed = max(worst_closed, abs(closed - formula))
    product_ok = worst_vec <= 1e-8 and worst_closed <= 1e-8

    # angle conventions for theta = pi/6 < pi/4: sudden death only when swapped
    def zero_spans(theta_eff):
        st = init_double(theta_eff, grid)
        tr = integrate(double_derivative(grid), st.to_vector(), 2.0 * math.pi,
                       1e-3, sample_stride=10,
                       observe=lambda t, y: {
                           "c_ab": concurrence_double_closed(
                               DoubleExcState.from_vector(y, 1))})
        cc = tr.records["c_ab"]
        tt = tr.times
        zero = cc == 0.0
        spans = []
        i = 0
        while i < len(cc):
            if zero[i]:
                j = i
                while j + 1 < len(cc) and zero[j + 1]:
                    j += 1
                spans.append(tt[j] - tt[i])
                i = j + 1
            else:
                i += 1
        return spans

    printed_spans = zero_spans(math.pi / 6)
    swapped_spans = zero_spans(math.pi / 2 - math.pi / 6)
    printed_ok = max(printed_spans, default=0.0) < 0.1  # no finite dead interval
    swapped_ok = max(swapped_spans, default=0.0) > 0.5  # clear sudden death
    ok = product_ok and printed_ok and swapped_ok
    _report(7, ok,
            f"product-state match {worst_vec:.2e} and closed form "
            f"{worst_closed:.2e} (tol 1e-8); theta=pi/6 as printed: longest "
            f"zero span {max(printed_spans, default=0.0):.3f} (no sudden death); "
            f"swapped: longest zero span {max(swapped_spans, default=0.0):.3f} "
            f"(finite sudden-death interval)")


def test_criterion_8_determinism(tmp_path):
    jobs = [
        ("single", ["single", "--modes", "19", "--tmax", "2.0",
                    "--theta", "pi/4"]),
        ("kernel", ["kernel", "--modes", "19"]),
        ("sweep", ["sweep", "--axis", "theta", "--values", "pi/4,pi/6",
                   "--modes", "1", "--tmax", "1.0"]),
    ]
    identical = True
    details = []
    for name, args in jobs:
        dirs = []
        for tag in ("a", "b"):
            workdir = tmp_path / f"{name}_{tag}"
            workdir.mkdir()
            out = workdir / "run.csv"
            code = cli_main(args + ["--out", str(out)])
            assert code == 0
            dirs.append(workdir)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        same = files_a == files_b and all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
            for f in files_a
        )
        identical = identical and same
        details.append(f"{name}: {len(files_a)} file(s) byte-identical={same}")
    _report(8, identical, "; ".join(details))
