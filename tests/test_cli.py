import math
import os
import subprocess
import sys

import numpy as np
import pytest

import djcsim
from djcsim import IntegrationError
from djcsim.cli import main, parse_number

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


def test_csv_rows_are_the_repr_of_each_value(tmp_path):
    import djcsim.cli as cli

    rows = 2500  # more than two blocks
    times = np.arange(rows) * 0.1
    special = np.array([-0.0, 1e-300, math.inf, -math.inf, math.nan, 0.1 + 0.2])
    records = {
        "x": np.resize(special, rows),
        "y": np.sin(times) * 1e-17,
        "k": np.arange(rows) - 7,  # an integer column is written as floats
    }
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), "t", times, records)
    expected = "t,x,y,k\n" + "".join(
        ",".join(repr(float(v)) for v in (times[i], *(c[i] for c in records.values())))
        + "\n" for i in range(rows))
    assert out.read_bytes() == expected.encode("ascii")


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


def test_sweep_theta_initial_concurrences(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "theta", "--values", "pi/4,pi/6,pi/12",
                 "--modes", "1", "--tmax", "1.0", "--out", str(out)])
    assert code == 0
    expected = [1.0, math.sin(math.pi / 3), 0.5]
    for index, value in enumerate(expected):
        _, cols = read_csv(tmp_path / f"sweep_theta_{index:02d}.csv")
        assert cols["c_ab"][0] == pytest.approx(value, abs=1e-12)
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
])
def test_work_limits_exit_2_before_writing(tmp_path, capsys, argv, named):
    assert main(argv + ["--out", str(tmp_path / "big.csv")]) == 2
    err = capsys.readouterr().err
    for text in named:
        assert text in err
    assert len(err) < 200
    assert list(tmp_path.iterdir()) == []


def test_exact_engine_ignores_the_step_count_limit(tmp_path):
    # 1e9 time units at the default ~2000 rows: too many RK4 steps, few samples
    out = tmp_path / "long.csv"
    assert main(["double", "--modes", "3", "--tmax", "1e9", "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert cols["t"][-1] == 1e9
    assert np.max(np.abs(cols["norm"] - 1.0)) <= 1e-12


@pytest.mark.parametrize("extra", [
    # the second point's step is above its RK4 stability limit
    ["--axis", "omega_a", "--values", "4840,1e6", "--modes", "19",
     "--tmax", "0.05", "--dt", "0.001"],
    # the second point's default window needs more samples than the limit
    ["--initial", "double", "--axis", "length_ratio", "--values", "670,1e9", "--modes", "3",
     "--stride", "1"],
    # the second point has more modes than the exact engine takes
    ["--initial", "double", "--axis", "n_modes", "--values", "3,2003", "--length-ratio", "3480",
     "--tmax", "1.0"],
])
def test_sweep_checks_work_limits_before_the_first_run(tmp_path, capsys, extra):
    assert main(["sweep", *extra, "--out", str(tmp_path / "p.csv")]) == 2
    assert "limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,engine", [("single", "rk4"), ("double", "exact")])
def test_summary_names_the_engine(tmp_path, capsys, command, engine):
    out = tmp_path / "run.csv"
    assert main([command, "--modes", "3", "--tmax", "1.0", "--out", str(out)]) == 0
    assert f"\nengine: {engine} (" in capsys.readouterr().out
    assert "engine" not in out.read_text()


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
