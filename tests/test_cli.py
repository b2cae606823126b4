import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import djcsim
from djcsim import (IntegrationError, SystemConfig, build_mode_grid, default_step,
                    first_kernel_echo, memory_kernel, retardation_time, run_double)
from djcsim.cli import main, parse_number
from djcsim.evolve import Trajectory, step_count
from djcsim.revivals import detect_revivals, tau_count

SINGLE_HEADER = "t,c_ab,pop1,pop2,pop_cav_a,pop_cav_b,norm,re_c1,im_c1,re_c2,im_c2"
DOUBLE_HEADER = "t,c_ab,p11,p2,p3,p4,p00,norm"
KERNEL_HEADER = "tau,re_k,im_k,abs_k"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, {name: data[:, i] for i, name in enumerate(header)}


def test_parse_number():
    assert parse_number("0.5") == 0.5
    assert parse_number("pi") == pytest.approx(math.pi)
    assert parse_number("pi/4") == pytest.approx(math.pi / 4)
    assert parse_number("3pi/8") == pytest.approx(3 * math.pi / 8)
    with pytest.raises(ValueError):
        parse_number("two")
    for text in ("pi/0", "3pi/0.0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_number(text)


@pytest.mark.parametrize("argv,named", [
    (["single", "--theta", "pi/0"], "--theta"),
    (["sweep", "--axis", "theta", "--values", "pi/0"], "zero denominator"),
    # a mode spacing that underflows leaves no finite round trip
    (["single", "--modes", "1", "--omega-a", "1e-300", "--length-ratio", "1e300"],
     "length_ratio"),
    (["double", "--modes", "3", "--omega-a", "1e-300", "--length-ratio", "1e300"],
     "length_ratio"),
    (["kernel", "--modes", "1", "--omega-a", "1e-300", "--length-ratio", "1e300"],
     "length_ratio"),
    # the first point is fine; the second underflows and stops the sweep
    # before the first point writes
    (["sweep", "--axis", "length_ratio", "--values", "670,1e300", "--modes", "1",
      "--omega-a", "1e-300"], "omega_a"),
])
def test_unusable_numbers_exit_2_before_writing(tmp_path, capsys, argv, named):
    try:
        code = main(argv + ["--out", str(tmp_path / "run.csv")])
    except SystemExit as exc:  # argparse rejects a flag value itself
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_single_mode_run_matches_closed_form(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["single", "--modes", "1", "--theta", "pi/4",
                 "--tmax", repr(2 * math.pi), "--stride", "1",
                 "--out", str(out)])
    assert code == 0
    header, cols = read_csv(out)
    assert ",".join(header) == SINGLE_HEADER
    exact = math.sin(math.pi / 2) * np.cos(cols["t"]) ** 2
    assert np.max(np.abs(cols["c_ab"] - exact)) <= 1e-6
    assert np.max(np.abs(cols["norm"] - 1.0)) <= 1e-6
    assert cols["t"][0] == 0.0


def test_single_fields_initial_state(tmp_path):
    out = tmp_path / "fields.csv"
    code = main(["single", "--initial", "fields", "--modes", "3",
                 "--theta", "pi/6", "--tmax", "0.5", "--out", str(out)])
    assert code == 0
    _, cols = read_csv(out)
    assert cols["pop_cav_a"][0] == pytest.approx(0.75)
    assert cols["pop_cav_b"][0] == pytest.approx(0.25)
    assert cols["c_ab"][0] == 0.0


def test_double_run_columns_and_summary(tmp_path, capsys):
    out = tmp_path / "double.csv"
    code = main(["double", "--modes", "1", "--theta", "pi/4",
                 "--tmax", "3.0", "--out", str(out)])
    assert code == 0
    header, cols = read_csv(out)
    assert ",".join(header) == DOUBLE_HEADER
    assert cols["c_ab"][0] == pytest.approx(1.0)
    captured = capsys.readouterr().out
    assert "initial concurrence: 1.000000" in captured
    assert "Rabi-periodic" in captured  # single-mode note on predicted times


def test_summary_lists_no_revival_at_the_first_sample(tmp_path, capsys):
    # the sudden-death benchmark run: its trace starts at a local maximum
    out = tmp_path / "esd.csv"
    code = main(["double", "--modes", "49", "--length-ratio", "1720.0",
                 "--omega-a", "11100.0", "--theta", "0.9708804880432356",
                 "--out", str(out)])
    assert code == 0
    printed = re.findall(r"^revival: onset=\S+ peak_t=(\S+) peak=(\S+)$",
                         capsys.readouterr().out, re.MULTILINE)
    _, cols = read_csv(out)
    report = detect_revivals(Trajectory(cols["t"], {"c_ab": cols["c_ab"]}))
    # the library still reports the t = 0 peak; only the summary drops it
    assert report.revivals[0].peak_time == 0.0
    expected = [(f"{e.peak_time:.4f}", f"{e.peak_value:.6f}") for e in report.revivals[1:6]]
    assert printed == expected
    assert len(expected) == 3


def test_angle_convention_controls_sudden_death(tmp_path):
    # theta = pi/6 < pi/4: the as-printed state never dies suddenly; the
    # swapped convention produces finite zero intervals
    printed = tmp_path / "printed.csv"
    swapped = tmp_path / "swapped.csv"
    for conv, out in (("printed", printed), ("swapped", swapped)):
        code = main(["double", "--modes", "1", "--theta", "pi/6",
                     "--tmax", repr(2 * math.pi), "--stride", "1",
                     "--angle-convention", conv, "--out", str(out)])
        assert code == 0
    _, cols_printed = read_csv(printed)
    _, cols_swapped = read_csv(swapped)
    assert np.all(cols_printed["c_ab"] > 0.0)
    zeros = cols_swapped["c_ab"] == 0.0
    assert zeros.any()
    # longest zero run spans a finite interval, not an isolated sample
    spans = np.flatnonzero(np.diff(np.concatenate(([0], zeros.view(np.int8), [0]))))
    longest = max(b - a for a, b in zip(spans[::2], spans[1::2]))
    t = cols_swapped["t"]
    assert longest * (t[1] - t[0]) > 0.5


def test_kernel_csv_maxima_at_round_trips(tmp_path):
    out = tmp_path / "kernel.csv"
    code = main(["kernel", "--modes", "19", "--profile", "uniform",
                 "--out", str(out)])
    assert code == 0
    header, cols = read_csv(out)
    assert ",".join(header) == KERNEL_HEADER
    t_r = 2 * math.pi * 670.0 / 4840.0
    mag = cols["abs_k"]
    taus = cols["tau"]
    assert mag[0] == pytest.approx(19.0)
    assert taus.tolist() == [i * taus[1] for i in range(len(taus))]
    big = mag >= 0.5 * mag[0]
    # rephasing maxima at 0, t_r, 2 t_r and the boundary sample at 3 t_r
    clusters = taus[big]
    for m in range(4):
        assert np.min(np.abs(clusters - m * t_r)) <= taus[1] + 1e-12


def test_kernel_run_evaluates_the_kernel_once(tmp_path, monkeypatch, capsys):
    import djcsim.cli as cli
    import djcsim.revivals as revivals

    calls = []
    kernel = revivals.memory_kernel

    def counted(grid, tau):
        calls.append(len(tau))
        return kernel(grid, tau)

    monkeypatch.setattr(cli, "memory_kernel", counted)
    monkeypatch.setattr(revivals, "memory_kernel", counted)
    assert main(["kernel", "--modes", "19", "--profile", "uniform",
                 "--out", str(tmp_path / "kernel.csv")]) == 0
    assert calls == [1201]
    assert "first rephasing maximum of |K| at tau=0.869780" in capsys.readouterr().out


def test_kernel_window_short_of_the_first_echo(tmp_path, capsys):
    # a window that ends before t_r = 0.87 is a valid trace without an echo
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--modes", "19", "--tmax", "0.5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "\nfirst rephasing maximum of |K| not reached within --tmax\n" in printed
    assert printed.endswith(f"\nwrote {out}\n")
    header, cols = read_csv(out)
    assert ",".join(header) == KERNEL_HEADER
    taus = cols["tau"]
    assert taus.tolist() == [i * taus[1] for i in range(230)]  # 0.5 / dtau = 229.95


@pytest.mark.parametrize("modes,length_ratio", [(19, 670.0), (99, 3480.0)])
@pytest.mark.parametrize("profile", ["uniform", "sqrtfreq"])
# 3 t_r / dtau = 1200 (the default dtau) and 1200.6
@pytest.mark.parametrize("per_trip", [400.0, 400.2])
def test_first_kernel_echo_scans_the_kernel_trace(tmp_path, capsys, monkeypatch, modes,
                                                  length_ratio, profile, per_trip):
    import djcsim.revivals as revivals

    config = SystemConfig(omega_a=4840.0, length_ratio=length_ratio, n_modes=modes,
                          coupling_profile=profile)
    dtau = retardation_time(config) / per_trip
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--modes", str(modes), "--length-ratio", repr(length_ratio),
                 "--profile", profile, "--dt", repr(dtau), "--out", str(out)]) == 0
    scanned = []
    kernel = revivals.memory_kernel
    monkeypatch.setattr(revivals, "memory_kernel",
                        lambda grid, taus: scanned.append(taus) or kernel(grid, taus))
    echo = first_kernel_echo(build_mode_grid(config), dtau)
    assert f"\nfirst rephasing maximum of |K| at tau={echo:.6f}\n" in capsys.readouterr().out
    # the same taus, bit for bit, and none past 3 t_r
    _, cols = read_csv(out)
    assert scanned[0].tolist() == cols["tau"].tolist()
    assert len(scanned[0]) == 1201


@pytest.mark.parametrize("flag,value", [("theta", "2"), ("stride", "3"),
                                        ("angle_convention", "swapped")])
def test_kernel_takes_no_run_flags(tmp_path, capsys, flag, value):
    out = str(tmp_path / "k.csv")
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--modes", "19", "--" + flag.replace("_", "-"), value, "--out", out])
    assert exc.value.code == 2
    cfg = tmp_path / "k.cfg"
    cfg.write_text(f"{flag}={value}\n")
    assert main(["kernel", "--modes", "19", "--config", str(cfg), "--out", out]) == 2
    assert f"unknown key {flag!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.cfg"]


def test_kernel_options_are_the_ones_it_reads():
    import djcsim.cli as cli

    _, subs = cli._build_parser()
    options = {action.option_strings[-1] for action in subs["kernel"]._actions
               if action.dest != "help"}
    assert options == {"--config", "--modes", "--length-ratio", "--omega-a", "--profile",
                       "--tmax", "--dt", "--out"}


def test_csv_rows_are_17_significant_digits_of_each_value(tmp_path):
    import djcsim.cli as cli

    rows = 2500  # more than two blocks
    times = np.arange(rows) * 0.1
    special = np.array([-0.0, 1e-300, math.inf, -math.inf, math.nan, 0.1 + 0.2,
                        5e-324, 1.7976931348623157e308])
    records = {
        "x": np.resize(special, rows),
        "y": np.sin(times) * 1e-17,
        "k": np.arange(rows) - 7,  # an integer column is written as floats
    }
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), "t", times, records)
    columns = [times, *records.values()]
    expected = "t,x,y,k\n" + "".join(
        ",".join("%.17g" % float(c[i]) for c in columns) + "\n" for i in range(rows))
    assert out.read_bytes() == expected.encode("ascii")
    # every cell reads back to the float64 it was written from, -0.0 and NaN included
    header, cells = read_csv(out)
    for name, written in zip(header, columns):
        want = np.asarray(written, dtype=float)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(cells[name]), nan)
        assert cells[name][~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("values", [
    [1e-300, 1e20, math.nan, -math.inf],  # every cell formatted by %
    [1e-300, 0.5, 1e20, -0.0, math.nan, 1.2345e-6, -math.inf, 0.0, 1e-6, 1e17],  # mixed
])
def test_csv_cells_outside_the_fast_path_are_the_spec(tmp_path, values):
    import djcsim.cli as cli

    rows = 2 * cli._CSV_BLOCK + 3  # not a multiple of the block
    table = np.resize(np.array(values), (4, rows))
    records = {f"c{i}": column for i, column in enumerate(table[1:])}
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), "t", table[0], records)
    expected = "t,c0,c1,c2\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in table.T.tolist())
    assert out.read_bytes() == expected.encode("ascii")


def test_csv_writer_peak_memory(tmp_path):
    import djcsim.cli as cli

    def peak(rows):
        # a dense sweep's columns: times, amplitudes of either sign, and a
        # norm that is exactly 1
        times = np.linspace(0.0, 9.8, rows)
        records = {f"c{i}": np.sin(times * (i + 1)) * 0.7 for i in range(9)}
        records["norm"] = np.ones(rows)
        tracemalloc.start()
        try:
            cli._write_csv(str(tmp_path / "rows.csv"), "t", times, records)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the formatter's tables, built once per process
    block = peak(cli._CSV_BLOCK)
    # about 100 bytes a cell of one block: the mantissas' products, then
    # the layouts, their keys and the joined bytes
    assert block <= 150 * 11 * cli._CSV_BLOCK
    # and no more for 40 blocks than for one
    assert peak(20000) <= block + 16384


def test_double_csv_holds_run_double_exactly(tmp_path):
    out = tmp_path / "double.csv"
    assert main(["double", "--modes", "49", "--length-ratio", "1720", "--omega-a", "11100",
                 "--theta", "1.05", "--out", str(out)]) == 0
    config = SystemConfig(omega_a=11100.0, length_ratio=1720.0, n_modes=49)
    grid = build_mode_grid(config)
    # the CLI's defaults for double: five round trips, half the RK4 step,
    # a stride leaving about 2000 samples
    t_max = 5.0 * retardation_time(config)
    dt = 0.5 * default_step(grid)
    traj = run_double(grid, 1.05, t_max, dt=dt,
                      sample_stride=max(1, step_count(t_max, dt) // 2000))
    header, cols = read_csv(out)
    assert header == DOUBLE_HEADER.split(",")
    assert cols["t"].tobytes() == traj.times.tobytes()
    for name in header[1:]:
        assert cols[name].tobytes() == traj.records[name].tobytes(), name


def test_kernel_csv_holds_memory_kernel_exactly(tmp_path):
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--modes", "19", "--out", str(out)]) == 0
    config = SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=19)
    grid = build_mode_grid(config)
    # the CLI's kernel window: three round trips in steps of t_r / 400
    t_r = retardation_time(config)
    taus = np.arange(tau_count(3.0 * t_r, t_r / 400.0)) * (t_r / 400.0)
    values = memory_kernel(grid, taus)
    header, cols = read_csv(out)
    assert header == KERNEL_HEADER.split(",")
    for name, want in (("tau", taus), ("re_k", values.real), ("im_k", values.imag),
                       ("abs_k", np.abs(values))):
        assert cols[name].tobytes() == want.tobytes(), name


def test_sweep_summary_holds_the_swept_values_exactly(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--axis", "theta", "--values", "0.7,pi/8,pi/6", "--modes", "1",
                 "--out", str(out)]) == 0
    lines = (tmp_path / "s_summary.csv").read_text().splitlines()[1:]
    got = np.array([float(line.split(",")[0]) for line in lines])
    assert got.tobytes() == np.array([0.7, math.pi / 8, math.pi / 6]).tobytes()


def test_single_run_keeps_the_traced_rk4_layers(tmp_path, monkeypatch):
    # perfbench/worker.py (Tracer) times a default `single` run as calls to
    # evolve.integrate with a derivative from djcsim.single, four per step,
    # and one observe call per CSV row.
    import djcsim.evolve as evolve

    seen = {"deriv": 0, "observe": 0}
    integrate = evolve.integrate

    def traced(deriv, state0, t_max, dt, *args, observe=None, **kwargs):
        seen["module"] = deriv.__module__
        seen["steps"] = evolve.step_count(t_max, dt)

        def counted_deriv(y):
            seen["deriv"] += 1
            return deriv(y)

        def counted_observe(t, y):
            seen["observe"] += 1
            return observe(t, y)

        return integrate(counted_deriv, state0, t_max, dt, *args,
                         observe=counted_observe, **kwargs)

    monkeypatch.setattr(evolve, "integrate", traced)
    out = tmp_path / "run.csv"
    assert main(["single", "--modes", "19", "--tmax", "2.0", "--out", str(out)]) == 0
    assert seen["module"] == "djcsim.single"
    assert seen["deriv"] == 4 * seen["steps"] > 0
    assert seen["observe"] == len(out.read_text().splitlines()) - 1


@pytest.mark.parametrize("argv,written,per_row", [
    (["single", "--modes", "19", "--tmax", "2.0"], "run.csv", True),
    (["double", "--modes", "19", "--tmax", "2.0"], "run.csv", False),
    (["sweep", "--axis", "theta", "--values", "0.3", "--modes", "19", "--tmax", "2.0"],
     "run_theta_00.csv", False),
])
def test_single_columns_come_from_the_traced_library_functions(tmp_path, monkeypatch, argv,
                                                              written, per_row):
    # perfbench/worker.py (Tracer) times these two evolve names with
    # positional-only wrappers, nested in evolve.observe: a stepped single
    # run calls each once per CSV row, and the exact engine calls neither.
    import djcsim.evolve as evolve

    calls = {}
    for name in ("observables_single", "concurrence_single_closed"):
        def counted(*args, name=name, function=getattr(evolve, name)):
            calls[name] = calls.get(name, 0) + 1
            return function(*args)
        monkeypatch.setattr(evolve, name, counted)
    assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 0
    rows = len((tmp_path / written).read_text().splitlines()) - 1
    expected = rows if per_row else 0
    assert calls.get("observables_single", 0) == expected
    assert calls.get("concurrence_single_closed", 0) == expected


def test_sweep_theta_initial_concurrences(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "theta", "--values", "pi/4,pi/6,pi/12",
                 "--modes", "1", "--tmax", "1.0", "--out", str(out)])
    assert code == 0
    expected = [1.0, math.sin(math.pi / 3), 0.5]
    for index, value in enumerate(expected):
        _, cols = read_csv(tmp_path / f"sweep_theta_{index:02d}.csv")
        assert cols["c_ab"][0] == pytest.approx(value, abs=1e-12)
        # sweep points run on the exact engine: on the closed form
        # sin(2 theta) cos^2(t), which RK4 misses by about 1.6e-6
        closed_form = value * np.cos(cols["t"]) ** 2
        assert np.max(np.abs(cols["c_ab"] - closed_form)) <= 1e-12
    summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "value,first_revival_peak,first_dead_start"
    assert len(summary) == 4


def test_sweep_double_scenario(tmp_path):
    out = tmp_path / "dsweep.csv"
    code = main(["sweep", "--initial", "double", "--axis", "theta",
                 "--values", "pi/4", "--modes", "1", "--tmax", "1.0",
                 "--out", str(out)])
    assert code == 0
    header, cols = read_csv(tmp_path / "dsweep_theta_00.csv")
    assert ",".join(header) == DOUBLE_HEADER
    assert cols["c_ab"][0] == pytest.approx(1.0)


def test_sweep_fields_scenario(tmp_path):
    out = tmp_path / "fsweep.csv"
    code = main(["sweep", "--initial", "fields", "--axis", "length_ratio",
                 "--values", "670,1340", "--modes", "3", "--tmax", "0.5",
                 "--out", str(out)])
    assert code == 0
    _, cols = read_csv(tmp_path / "fsweep_length_ratio_01.csv")
    assert cols["pop_cav_a"][0] == pytest.approx(0.5)


def test_sweep_requires_axis_and_values(tmp_path, capsys):
    assert main(["sweep", "--values", "1,2"]) == 2
    assert "axis" in capsys.readouterr().err
    assert main(["sweep", "--axis", "theta"]) == 2
    assert "values" in capsys.readouterr().err
    assert main(["sweep", "--axis", "theta", "--values", " , "]) == 2
    assert "empty" in capsys.readouterr().err


def test_sweep_rejects_fractional_mode_count(capsys):
    assert main(["sweep", "--axis", "n_modes", "--values", "3.5"]) == 2
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("axis,values", [("n_modes", "3,3.5"), ("theta", "pi/4,3.0")])
def test_sweep_checks_every_value_before_the_first_run(tmp_path, axis, values):
    assert main(["sweep", "--axis", axis, "--values", values, "--tmax", "0.5",
                 "--out", str(tmp_path / "part.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_sweep_output_in_dotted_directory(tmp_path):
    out_dir = tmp_path / "run.v2"
    out_dir.mkdir()
    assert main(["sweep", "--axis", "theta", "--values", "pi/4", "--modes", "1",
                 "--tmax", "0.5", "--out", str(out_dir / "sweep")]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "sweep_summary.csv", "sweep_theta_00.csv"]


def test_invalid_parameters_exit_2(tmp_path, capsys):
    assert main(["single", "--modes", "4", "--out", str(tmp_path / "x.csv")]) == 2
    assert "n_modes" in capsys.readouterr().err
    assert main(["single", "--theta", "3.0"]) == 2
    assert "theta" in capsys.readouterr().err
    for dt in ("0", "nan", "1e-320"):
        assert main(["single", "--modes", "1", "--dt", dt]) == 2
        assert "dt" in capsys.readouterr().err
    assert main(["single", "--modes", "1", "--dt", "5.0",
                 "--out", str(tmp_path / "y.csv")]) == 2
    assert "stability" in capsys.readouterr().err
    # double runs use the exact engine, which has no step, so the same --dt
    # only sets the sample grid
    assert main(["double", "--modes", "1", "--dt", "5.0",
                 "--out", str(tmp_path / "y.csv")]) == 0


@pytest.mark.parametrize("argv,named", [
    (["double", "--modes", "3", "--tmax", "1e9", "--stride", "1"],
     ["samples", "1000000", "--stride", "--dt", "--tmax"]),
    (["single", "--modes", "3", "--tmax", "1e9"],
     ["RK4 steps", "10000000", "--dt", "--tmax"]),
    (["double", "--modes", "2003", "--length-ratio", "3480", "--tmax", "1.0"],
     ["2003 modes", "exact engine", "2001", "--modes"]),
    # one mode limit for every subcommand, RK4 and the kernel trace included
    *[([command, "--modes", "2003", "--length-ratio", "3480"],
       ["2003 modes", "2001", "--modes"]) for command in ("single", "kernel")],
    (["kernel", "--tmax", "1e300"], ["samples", "1000000", "--dt", "--tmax"]),
    (["kernel", "--modes", "19", "--tmax", "inf"], ["tmax"]),
    (["kernel", "--dt", "inf"], ["dt"]),
    (["kernel", "--dt", "nan"], ["dt"]),
    (["kernel", "--tmax", "1e300", "--dt", "1e-10"], ["overflows", "dt"]),
    # a cavity shorter than one atomic wavelength has no resonant mode
    (["single", "--modes", "1", "--length-ratio", "1e-320"], ["length_ratio"]),
    # counts of about 1e302 are printed in %.3g form
    (["double", "--modes", "3", "--tmax", "1e300", "--stride", "1"], ["e+302 samples"]),
    (["single", "--modes", "3", "--tmax", "1e300"], ["e+302 RK4 steps"]),
    # a default window that overflows names the grid flags, not a --tmax never passed
    *[([command, "--modes", "3", "--omega-a", "1e-300", "--length-ratio", "1e7"],
       ["default --tmax", "overflows", "--omega-a", "--length-ratio", "--tmax"])
      for command in ("single", "double", "kernel")],
    # a spacing whose squared eigenvector components overflow in the exact engine
    *[(["double", "--modes", "3", "--omega-a", omega_a, "--length-ratio", "1e7", "--tmax", "1"],
       ["--omega-a", "--length-ratio", "1e-150"]) for omega_a in ("1e-200", "1e-150")],
    # the window boundaries of every subcommand
    (["single", "--modes", "3", "--tmax", "0"], ["tmax"]),
    (["double", "--modes", "3", "--tmax", "-1"], ["tmax"]),
    (["sweep", "--axis", "theta", "--values", "0.3", "--modes", "3", "--tmax", "0"], ["tmax"]),
    (["kernel", "--tmax", "0"], ["tmax"]),
    (["kernel", "--tmax", "-1"], ["tmax"]),
    (["single", "--modes", "3", "--stride", "0"], ["stride"]),
    (["double", "--modes", "3", "--stride", "-2"], ["stride"]),
    (["sweep", "--axis", "theta", "--values", "0.3", "--modes", "3", "--stride", "0"],
     ["stride"]),
    # a spread max|delta| / min g whose squared eigenvector components overflow
    *[(["double", "--modes", "3", "--omega-a", omega_a, "--length-ratio", "3", "--tmax", "1e-15",
        "--profile", profile], ["--omega-a", "--length-ratio", "1e+150"])
      for omega_a in ("1e160", "1e300") for profile in ("uniform", "sqrtfreq")],
    (["sweep", "--axis", "theta", "--values", "0.3", "--modes", "3", "--omega-a", "1e160",
      "--length-ratio", "3", "--tmax", "1e-15"], ["--omega-a", "--length-ratio", "1e+150"]),
])
def test_work_limits_exit_2_before_writing(tmp_path, capsys, argv, named):
    assert main(argv + ["--out", str(tmp_path / "big.csv")]) == 2
    err = capsys.readouterr().err
    for text in named:
        assert text in err
    assert len(err) < 200
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,written", [
    (["double", "--modes", "3", "--tmax", "1e17"], "run.csv"),
    (["double", "--modes", "3", "--stride", "99999999999999999999"], "run.csv"),
    (["single", "--modes", "3", "--stride", "99999999999999999999"], "run.csv"),
    (["sweep", "--axis", "theta", "--values", "0.3", "--modes", "3", "--tmax", "1e19"],
     "run_theta_00.csv"),
])
def test_step_counts_and_strides_beyond_int64(tmp_path, argv, written):
    assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 0
    if "--tmax" in argv:
        t_max = float(argv[argv.index("--tmax") + 1])
    else:  # the default window, five round trips
        t_max = 5.0 * retardation_time(SystemConfig(omega_a=4840.0, length_ratio=670.0,
                                                    n_modes=3))
    _, cols = read_csv(tmp_path / written)
    assert cols["t"][-1] == t_max


def test_exact_engine_ignores_the_step_count_limit(tmp_path):
    # 1e9 time units at the default ~2000 rows: too many RK4 steps, few samples
    out = tmp_path / "long.csv"
    assert main(["double", "--modes", "3", "--tmax", "1e9", "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert cols["t"][-1] == 1e9
    assert np.max(np.abs(cols["norm"] - 1.0)) <= 1e-12


def test_default_stride_counts_the_steps_taken(tmp_path):
    # t_max / dt lies within 1e-12 above 3999, so the run takes 3999 steps
    # and the default stride is 3999 // 2000 = 1: every step is a sample
    out = tmp_path / "run.csv"
    assert main(["single", "--modes", "1", "--tmax", "3999.000000000001", "--dt", "1",
                 "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert len(cols["t"]) == 4000
    assert np.array_equal(cols["t"][:-1], np.arange(3999.0))


@pytest.mark.parametrize("omega_a", ["3e16", "1e17", "1e150"])
@pytest.mark.parametrize("command", [["double"], ["sweep", "--axis", "theta", "--values", "0.5"]])
def test_wide_spacing_runs_or_exits_2(tmp_path, omega_a, command):
    # a mode spacing of 1e16 and more once rounded the spectrum's outer
    # brackets onto their poles and failed its check with exit 3; at 1e150
    # max|delta| / min g is about 4e149, inside MAX_EXACT_SPREAD
    code = main([*command, "--modes", "3", "--omega-a", omega_a, "--length-ratio", "3",
                 "--tmax", "1e-15", "--out", str(tmp_path / "run.csv")])
    assert code == 0 if omega_a == "1e150" else code in (0, 2)
    written = sorted(tmp_path.iterdir())
    if code == 2:
        assert written == []
    for path in written:
        if path.name.endswith("_summary.csv"):  # empty cells when nothing dies
            continue
        _, cells = read_csv(path)
        assert all(np.all(np.isfinite(column)) for column in cells.values())


@pytest.mark.parametrize("extra", [
    # sweep points run on the exact engine, so its mode limit holds for
    # the atoms and fields scenarios too
    ["--axis", "n_modes", "--values", "3,2003", "--length-ratio", "3480", "--tmax", "1.0"],
    # the second point's default window needs more samples than the limit
    ["--initial", "double", "--axis", "length_ratio", "--values", "670,1e9", "--modes", "3",
     "--stride", "1"],
    # the second point has more modes than the exact engine takes
    ["--initial", "double", "--axis", "n_modes", "--values", "3,2003", "--length-ratio", "3480",
     "--tmax", "1.0"],
    # the second point's spacing is below the exact engine's limit
    ["--axis", "omega_a", "--values", "4840,1e-150", "--modes", "3", "--length-ratio", "1e7",
     "--tmax", "1.0"],
])
def test_sweep_checks_work_limits_before_the_first_run(tmp_path, capsys, extra):
    assert main(["sweep", *extra, "--out", str(tmp_path / "p.csv")]) == 2
    assert "limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,engine", [("single", "rk4"), ("double", "exact"),
                                            ("sweep", "exact")])
def test_summary_names_the_engine(tmp_path, capsys, command, engine):
    extra = ["--axis", "theta", "--values", "pi/4"] if command == "sweep" else []
    assert main([command, "--modes", "3", "--tmax", "1.0", *extra,
                 "--out", str(tmp_path / "run.csv")]) == 0
    assert f"\nengine: {engine} (" in capsys.readouterr().out
    for path in tmp_path.iterdir():
        assert "engine" not in path.read_text()


@pytest.mark.parametrize("command", ["double", "sweep"])
def test_exact_engine_line_reports_its_sweeps(tmp_path, capsys, command):
    extra = ["--axis", "theta", "--values", "pi/4"] if command == "sweep" else []
    assert main([command, "--modes", "19", "--tmax", "1.0", *extra,
                 "--out", str(tmp_path / "run.csv")]) == 0
    line = re.search(r"^engine: exact \(eigen residual \S+, orthogonality error \S+, "
                     r"(\d+) sweeps\)$", capsys.readouterr().out, re.MULTILINE)
    assert line and 1 <= int(line.group(1)) <= 8


@pytest.mark.parametrize("initial", ["atoms", "fields"])
def test_sweep_points_step_no_rk4(tmp_path, monkeypatch, initial):
    import djcsim.evolve as evolve

    def forbidden(*args, **kwargs):
        raise AssertionError("evolve.integrate called")

    monkeypatch.setattr(evolve, "integrate", forbidden)
    assert main(["sweep", "--initial", initial, "--axis", "theta", "--values", "pi/4,pi/6",
                 "--modes", "19", "--tmax", "2.0", "--out", str(tmp_path / "s.csv")]) == 0


@pytest.mark.parametrize("initial", ["atoms", "fields"])
def test_sweep_point_matches_the_single_run(tmp_path, initial):
    # same sample times bit for bit; the columns differ by RK4's error only
    args = ["--initial", initial, "--modes", "19", "--theta", "pi/6", "--tmax", "2.0"]
    assert main(["single", *args, "--out", str(tmp_path / "single.csv")]) == 0
    assert main(["sweep", *args, "--axis", "theta", "--values", "pi/6",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    header, rk4 = read_csv(tmp_path / "single.csv")
    _, exact = read_csv(tmp_path / "sweep_theta_00.csv")
    assert rk4["t"].tobytes() == exact["t"].tobytes()
    for name in header[1:]:
        assert np.max(np.abs(rk4[name] - exact[name])) <= 1e-6, name


@pytest.mark.parametrize("command,modes,length_ratio,regime,warns", [
    ("single", "19", "670", "Gamma*t_r=0.7565", True),
    ("double", "99", "3480", "Gamma*t_r=20.41", False),
    ("single", "1", "670", None, False),
])
def test_summary_names_the_regime(tmp_path, capsys, command, modes, length_ratio,
                                  regime, warns):
    out = tmp_path / "run.csv"
    assert main([command, "--modes", modes, "--length-ratio", length_ratio, "--tmax", "1.0",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    if regime is None:  # a single mode has no round trip to collapse before
        assert "Gamma*t_r" not in printed
    else:
        assert f"\n{regime}" in printed
    assert ("no collapse expected before the first round trip" in printed) == warns
    assert "Gamma" not in out.read_text()


def test_default_runs_call_no_numpy_linalg(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for command in ("single", "double"):
        assert main([command, "--modes", "19", "--tmax", "2.0",
                     "--out", str(tmp_path / f"{command}.csv")]) == 0


def test_nan_spectrum_exits_3(tmp_path, monkeypatch, capsys):
    import dataclasses
    import djcsim.cli as cli

    build = cli.build_mode_grid

    def nan_grid(config):
        grid = build(config)
        couplings = grid.couplings.copy()
        couplings[0] = math.nan
        return dataclasses.replace(grid, couplings=couplings)

    monkeypatch.setattr(cli, "build_mode_grid", nan_grid)
    code = main(["double", "--modes", "3", "--tmax", "1.0", "--out", str(tmp_path / "n.csv")])
    assert code == 3
    assert "eigen residual nan" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exits_2(capsys):
    code = main(["single", "--modes", "1", "--tmax", "0.5",
                 "--out", "/nonexistent-dir/run.csv"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    import djcsim.cli as cli

    def blow_up(*args, **kwargs):
        raise IntegrationError("nonfinite amplitudes at t=1")

    monkeypatch.setattr(cli, "run_single", blow_up)
    code = main(["single", "--modes", "1", "--out", str(tmp_path / "z.csv")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=pi/6\nmodes=3\ntmax=0.5\n# a comment\n")
    out1 = tmp_path / "a.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out1)]) == 0
    _, cols = read_csv(out1)
    assert cols["c_ab"][0] == pytest.approx(math.sin(math.pi / 3))
    # the flag overrides the file value
    out2 = tmp_path / "b.csv"
    assert main(["single", "--config", str(cfg), "--theta", "pi/4",
                 "--out", str(out2)]) == 0
    _, cols = read_csv(out2)
    assert cols["c_ab"][0] == pytest.approx(1.0)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume=11\n")
    assert main(["single", "--config", str(cfg)]) == 2
    assert "volume" in capsys.readouterr().err
    # a key of another subcommand is unknown here
    cfg.write_text("initial=atoms\n")
    assert main(["double", "--config", str(cfg)]) == 2
    assert "initial" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("single", "angle_convention", "swaped"),
    ("single", "initial", "bogus"),
    ("sweep", "axis", "bogus"),
])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    flag = "--" + key.replace("_", "-")
    for argv in ([command, flag, value], [command, "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--modes", "1", "--tmax", "0.5", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# perfbench/worker.py (Tracer.install) patches these names to time each
# layer.  The default test run does not collect perfbench/selftest.py, so
# this is what notices a rename or a removal.
@pytest.mark.parametrize("module,name", [
    ("cli", "build_mode_grid"), ("cli", "run_single"), ("cli", "run_double"),
    ("cli", "detect_revivals"), ("evolve", "integrate"),
    ("evolve", "concurrence_single_closed"), ("evolve", "concurrence_double_closed"),
    ("evolve", "observables_single"), ("evolve", "observables_double"),
])
def test_names_the_benchmark_tracer_patches_resolve(module, name):
    import importlib
    assert callable(getattr(importlib.import_module(f"djcsim.{module}"), name))


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(djcsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import djcsim.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["single", "--modes", "19", "--profile", "uniform",
            "--tmax", "2.0", "--theta", "pi/4"]
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def readme_commands():
    """The ``djcsim ...`` commands of README.md: its CLI block, then its
    reference scenario table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    table = text.split("## Reference scenarios", 1)[1].split("\n## ", 1)[0]
    return ([line for line in block.splitlines() if line.startswith("djcsim ")],
            re.findall(r"`(djcsim [^`]*)`", table))


def test_readme_library_snippet_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(snippet, {})
    printed = capsys.readouterr().out
    assert re.fullmatch(r"RevivalEvent\(onset=4\.4346\d*, .*\)\n", printed)


def test_readme_lists_its_commands():
    block, table = readme_commands()
    assert len(block) >= 5 and len(table) >= 7


@pytest.mark.parametrize("command", [c for part in readme_commands() for c in part])
def test_readme_command_runs(tmp_path, command):
    # a short window keeps each run quick; every output goes under tmp_path
    argv = shlex.split(command)[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    else:
        argv += ["--out", str(tmp_path / "run.csv")]
    try:
        code = main(argv + ["--tmax", "1.0"])
    except SystemExit as exc:  # argparse rejected the command line
        pytest.fail(f"argparse exited {exc.code}")
    assert code == 0


@pytest.mark.parametrize("argv,warns", [
    pytest.param(["double", "--modes", "3", "--tmax", "1e17"], True, id="double-1e17"),
    pytest.param(["double", "--modes", "3", "--tmax", "1e9"], False, id="double-1e9"),
    pytest.param(["kernel", "--modes", "19", "--tmax", "1e17", "--dt", "1e12"], True,
                 id="kernel-1e17"),
    pytest.param(["kernel", "--modes", "19", "--tmax", "1e8", "--dt", "1000"], False,
                 id="kernel-1e8"),
])
def test_phase_rounding_warns_past_the_float64_window(tmp_path, capsys, argv, warns):
    # u * largest frequency * window: the double run's max|lambda| bound gives
    # 99 rad at 1e17 and 9.9e-7 at 1e9; the kernel's max|delta| gives 722 rad
    # at 1e17 and 7.2e-7 at 1e8
    out = tmp_path / "run.csv"
    assert main(argv + ["--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "phases round" in line]
    assert len(lines) == int(warns)
    if warns:
        assert "--tmax" in lines[0]
    assert out.exists()


@pytest.mark.parametrize("argv,warns", [
    pytest.param(["--modes", "19", "--tmax", "1e8", "--dt", "1000"], True, id="dt-1000"),
    pytest.param(["--modes", "403"], True, id="modes-403"),
    pytest.param(["--modes", "19"], False, id="modes-19"),
])
def test_kernel_warns_when_dt_aliases_the_trace(tmp_path, capsys, argv, warns):
    # dtau * max|delta| against pi: 6.5e4 rad at --dt 1000; the default
    # dtau = t_r/400 gives m * 2pi/400 with m = (n-1)/2, past pi from n = 403
    out = tmp_path / "kernel.csv"
    assert main(["kernel", *argv, "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "aliases" in line]
    assert len(lines) == int(warns)
    if warns:
        assert lines[0].startswith("warning: --dt") and "pi/max|delta|" in lines[0]
    assert out.exists()


@pytest.mark.parametrize("command", [c for part in readme_commands() for c in part])
def test_readme_commands_stay_below_the_phase_warning(tmp_path, monkeypatch, command):
    # each trajectory command's own window, planned but not run (the scenario
    # sets only the default dt, which the bound does not use); kernel traces
    # are cheap, so the kernel command runs and reports its bound
    import djcsim.cli as cli

    parser, _ = cli._build_parser()
    args = parser.parse_args(shlex.split(command)[1:])
    phase_rounding = cli._phase_rounding
    if args.command == "kernel":
        calls = []
        monkeypatch.setattr(cli, "_phase_rounding", lambda *a: calls.append(a))
        args.out = str(tmp_path / "kernel.csv")
        assert cli._run_kernel(args) == 0
        (frequency_window,) = calls
    else:
        run = cli._plan(args)
        frequency_window = (run.grid.max_detuning + run.grid.collective_coupling, run.t_max)
    assert phase_rounding(*frequency_window) < 1e-12  # at most 2e-13
