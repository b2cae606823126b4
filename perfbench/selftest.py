"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the package's own test run.
"""

import json
import math
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Inputs, make_inputs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SMALL = dict(n_modes=5, length_ratio=50.0, omega_a=100.0)


def test_oracle_matches_expm_oracle_on_a_small_grid():
    from djcsim import (SystemConfig, build_mode_grid, expm_oracle, init_atoms_entangled,
                        init_double, init_fields_entangled)

    theta = 0.6
    grid = build_mode_grid(SystemConfig(theta=theta, **SMALL))
    delta, g = oracle.comb(**SMALL)
    np.testing.assert_allclose(delta, grid.detunings, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g, grid.couplings, rtol=0, atol=1e-12)
    times = np.array([0.0, 0.37, 1.9, 4.2])
    for kind, init in (("single-atoms", init_atoms_entangled),
                       ("single-fields", init_fields_entangled)):
        expected = oracle.expected_columns(oracle.RunSpec(kind, theta, min_rows=1, **SMALL), times)
        for i, t in enumerate(times):
            st = expm_oracle(init(theta, grid), grid, t)
            assert abs(st.c1.real - expected["re_c1"][i]) < 1e-10
            assert abs(st.c2.imag - expected["im_c2"][i]) < 1e-10
            assert abs(np.sum(np.abs(st.ca) ** 2) - expected["pop_cav_a"][i]) < 1e-10
    small = dict(SMALL, n_modes=3)
    grid = build_mode_grid(SystemConfig(theta=theta, **small))
    expected = oracle.expected_columns(oracle.RunSpec("double", theta, min_rows=1, **small), times)
    for i, t in enumerate(times):
        st = expm_oracle(init_double(theta, grid), grid, t)
        assert abs(abs(st.d11) ** 2 - expected["p11"][i]) < 1e-10
        assert abs(np.sum(np.abs(st.d2) ** 2) - expected["p2"][i]) < 1e-10
        assert abs(np.sum(np.abs(st.d4) ** 2) - expected["p4"][i]) < 1e-10


def _write_exact_csv(path, spec):
    t_r = oracle.round_trip_time(spec.length_ratio, spec.omega_a)
    times = np.linspace(0.0, oracle.WINDOW_ROUND_TRIPS * t_r, 401)
    cols = {"t": times, **oracle.expected_columns(spec, times)}
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(cols) + "\n")
        for i in range(len(times)):
            handle.write(",".join(repr(float(v[i])) for v in cols.values()) + "\n")


def _corrupt_value(lines):
    fields = lines[200].split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    lines[200] = ",".join(fields)


@pytest.mark.parametrize("corrupt", [
    _corrupt_value,
    lambda lines: lines.__setitem__(150, lines[150].replace(",", ",x", 1)),
    lambda lines: lines.pop(120),
])
def test_corrupted_row_is_a_failed_operation(tmp_path, corrupt):
    spec = oracle.RunSpec("single-atoms", 0.5, min_rows=100, **SMALL)
    keep = tmp_path / "first"
    keep.mkdir()
    path = keep / "run.csv"
    _write_exact_csv(path, spec)
    inputs = Inputs(argv=[], specs={"run.csv": spec}, theta=spec.theta)
    iterations = [{"exit": 0, "error": None, "outputs": worker.digest(str(keep))}] * 2
    assert oracle.check_trajectory(str(path), spec).ok
    assert run.check_outputs(inputs, str(keep), iterations)[:2] == (2, 0)

    lines = path.read_text(encoding="ascii").split("\n")
    corrupt(lines)
    path.write_text("\n".join(lines), encoding="ascii")
    assert not oracle.check_trajectory(str(path), spec).ok
    assert run.check_outputs(inputs, str(keep), iterations)[:2] == (2, 2)


def test_outputs_that_change_between_iterations_fail(tmp_path):
    spec = oracle.RunSpec("double", 1.0, min_rows=100, **SMALL)
    keep = tmp_path / "first"
    keep.mkdir()
    _write_exact_csv(keep / "run.csv", spec)
    inputs = Inputs(argv=[], specs={"run.csv": spec}, theta=spec.theta)
    first = {"exit": 0, "error": None, "outputs": worker.digest(str(keep))}
    changed = {"exit": 0, "error": None,
               "outputs": {"run.csv": dict(first["outputs"]["run.csv"], sha256="0")}}
    assert run.check_outputs(inputs, str(keep), [first, changed])[:2] == (2, 1)


def test_metric_and_workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in names + list(WORKLOADS):
        assert NAME.match(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)


def test_seed_draws_only_the_angles():
    for workload in WORKLOADS.values():
        a = make_inputs(workload, 1, "out")
        b = make_inputs(workload, 2, "out")
        assert a == make_inputs(workload, 1, "out")
        assert a.theta != b.theta
        low, high = workload.theta_range
        assert low <= a.theta <= high and low <= b.theta <= high
        differ = [i for i, (x, y) in enumerate(zip(a.argv, b.argv)) if x != y]
        assert len(a.argv) == len(b.argv) and len(differ) == 1
        assert a.argv[differ[0] - 1] in ("--theta", "--values")


def test_import_split_attributes_each_module_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       pickle",
        "import time:       100 |        110 |     numpy.core",
        "import time:        50 |        160 |   numpy",
        "import time:         5 |          5 |       numpy.linalg",
        "import time:        20 |         25 |     scipy",
        "import time:         7 |          7 |     argparse",
        "import time:         3 |        195 |   djcsim.evolve",
        "import time:         1 |        356 | djcsim",
    ])
    split = run.import_split(text)
    assert split == pytest.approx({"numpy": 165e-6, "scipy": 20e-6, "djcsim": 11e-6})


def test_traced_layers_partition_the_wall_time(tmp_path):
    from djcsim import cli, evolve

    tracer = worker.Tracer()
    tracer.install(cli, evolve, 0)
    try:
        argv = ["single", "--modes", "3", "--length-ratio", "30", "--omega-a", "100",
                "--out", str(tmp_path / "run.csv")]
        assert tracer.span("cli.main", cli.main)(argv) == 0
    finally:
        tracer.uninstall()
    assert evolve.integrate.__module__ == "djcsim.evolve"
    layers = tracer.layers(0)
    parts = ("model.grid_s", "evolve.run_self_s", "evolve.integrate_self_s", "single.deriv_s",
             "evolve.observe_s", "revivals.detect_s", "cli.self_s")
    assert sum(layers[p] for p in parts) == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["single.deriv_calls"] == 4 * layers["evolve.rk4_steps"] > 0
    assert layers["evolve.state_dim"] == 8 and layers["double.deriv_calls"] == 0
    rows = len((tmp_path / "run.csv").read_text().splitlines()) - 1
    assert layers["evolve.samples"] == layers["revivals.samples_scanned"] == rows
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())


def test_each_workload_is_calibrated_by_a_kernel_of_its_shape():
    for workload in WORKLOADS.values():
        modes, steps, reference = calibrate.KERNELS[workload.kernel]
        assert modes == workload.grid[0] and steps > 0 and reference > 0
    for name in calibrate.KERNELS:
        assert 0 < calibrate.run_kernel(name) < 60


def test_normalise_scales_each_iteration_by_the_kernels_around_it():
    reference = calibrate.KERNELS["single"][2]
    kernel_s = [reference, 2 * reference, 4 * reference]
    assert calibrate.normalise([3.0, 6.0], kernel_s, "single") == pytest.approx([2.0, 2.0])
