"""djcsim benchmark: timed CLI workloads checked against an exact reference.

Run from the root of a djcsim checkout:

    python3 perfbench/run.py --workload echo-single --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off:

  setup_s      median time for a fresh interpreter to import djcsim.cli
  wall_ref_s   median in-process time of one iteration (one cli.main call),
               scaled to reference machine speed by calibrate.py
  peak_rss_mb  peak resident memory of the child that ran the iterations

With --trace 1 it reports the per-layer metrics instead (see README.md).
Either way every output file is checked against oracle.py; a failed check
or a nonzero exit fails that operation (one CLI run or one sweep point).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Records are kept under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import calibrate
import oracle
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs

#: thread pinning for every child: the load is one single-threaded caller
CHILD_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
IMPORT_CLI = "import djcsim.cli"
#: fresh-interpreter imports timed for setup_s before the iterations and again after
#: them, so that the samples span the run; -X importtime imports when tracing
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
#: a run times at least this many iterations, more while --seconds lasts
MIN_ITERATIONS = {False: 3, True: 4}
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_djcsim_s": "s",
    "model.grid_s": "s",
    "evolve.run_self_s": "s",
    "evolve.integrate_self_s": "s",
    "evolve.rk4_steps": "count",
    "evolve.samples": "count",
    "evolve.state_dim": "count",
    "evolve.bytes_moved_computed": "B",
    "single.deriv_s": "s",
    "single.deriv_calls": "count",
    "double.deriv_s": "s",
    "double.deriv_calls": "count",
    "evolve.observe_s": "s",
    "concurrence.closed_s": "s",
    "single.observables_s": "s",
    "double.observables_s": "s",
    "revivals.detect_s": "s",
    "revivals.detect_calls": "count",
    "revivals.samples_scanned": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "cli.rows_written": "count",
    "evolve.max_norm_dev": "1",
    "evolve.max_ref_err": "1",
    "trace.overhead_ratio": "ratio",
}
#: the layer split each workload was designed for: name -> (layers, least share of trace.wall_s)
DESIGNED_SPLIT = {
    "echo-single": (("single.deriv_s", "evolve.integrate_self_s"), 0.90),
    "esd-double": (("double.deriv_s",), 0.70),
    "dense-sweep": (("evolve.observe_s", "cli.self_s", "revivals.detect_s"), 0.20),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env(src):
    env = dict(os.environ, PYTHONPATH=src, **CHILD_THREADS)
    env.pop("PYTHONHOME", None)
    return env


def run_child(argv, env, timeout=60):
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} ... exited {proc.returncode}:\n{proc.stderr}")
    return proc


def time_setup(env, count):
    """Seconds for each of count fresh interpreters to import djcsim.cli."""
    run_child([sys.executable, "-c", IMPORT_CLI], env)  # fill bytecode and file caches
    times = []
    for _ in range(count):
        start = time.perf_counter()
        run_child([sys.executable, "-c", IMPORT_CLI], env)
        times.append(time.perf_counter() - start)
    return times


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| ( *)(\S+)$")


def import_split(stderr):
    """Import seconds owned by numpy, scipy and djcsim in -X importtime output.

    Each module's self time goes to the innermost enclosing import (itself
    included) that belongs to one of the three packages, so a standard
    library module numpy pulls in counts for numpy, and nothing counts twice.
    """
    owned = {"numpy": 0, "scipy": 0, "djcsim": 0}
    owner_at_depth = {}
    # importtime prints a module after its children; reversed, parents come first
    for line in reversed(stderr.splitlines()):
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        depth = len(match.group(2)) // 2
        package = match.group(3).split(".")[0]
        owner = package if package in owned else owner_at_depth.get(depth - 1)
        owner_at_depth[depth] = owner
        if owner:
            owned[owner] += int(match.group(1))
    return {name: us * 1e-6 for name, us in owned.items()}


def measure_import_split(env):
    runs = [import_split(run_child([sys.executable, "-X", "importtime", "-c", IMPORT_CLI],
                                   env).stderr)
            for _ in range(IMPORTTIME_RUNS)]
    return {f"setup.import_{name}_s": statistics.median(r[name] for r in runs)
            for name in ("numpy", "scipy", "djcsim")}


def run_worker(root, env, plan):
    argv = [sys.executable, os.path.join(root, "perfbench", "worker.py"), json.dumps(plan)]
    run_child(argv, env, timeout=CHILD_TIMEOUT_S)
    with open(plan["result"], "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(inputs, keep_dir, iterations):
    """Count operations and failures; check the first iteration's files in full.

    Later iterations must reproduce the first one's files byte for byte, so
    the full check of the first covers them.  An operation is one trajectory
    CSV; a bad sweep summary fails every operation of its iteration.
    """
    checks = {name: oracle.check_trajectory(os.path.join(keep_dir, name), spec)
              for name, spec in inputs.specs.items()}
    failures = [f"{name}: {msg}" for name, c in checks.items() for msg in c.failures]
    summary_ok = True
    if inputs.summary:
        problems = oracle.check_summary(os.path.join(keep_dir, inputs.summary), [inputs.theta])
        failures += [f"{inputs.summary}: {msg}" for msg in problems]
        summary_ok = not problems
    first = iterations[0]["outputs"]
    expected_files = set(inputs.specs) | ({inputs.summary} if inputs.summary else set())
    attempted = failed = 0
    for k, it in enumerate(iterations):
        outputs = it["outputs"]
        if it["exit"] != 0:
            failures.append(f"iteration {k}: exit {it['exit']} {it['error'] or ''}".strip())
        if set(outputs) != expected_files:
            failures.append(f"iteration {k}: wrote {sorted(outputs)}")
        same = all(outputs.get(n, {}).get("sha256") == first.get(n, {}).get("sha256")
                   for n in expected_files)
        if not same:
            failures.append(f"iteration {k}: outputs differ from iteration 0")
        for name in inputs.specs:
            attempted += 1
            ok = (it["exit"] == 0 and same and summary_ok and name in outputs
                  and checks[name].ok)
            failed += not ok
    return attempted, failed, checks, failures


def environment(seed, workload, trace):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "child_env": CHILD_THREADS,
        "load": "closed loop, one caller: one single-threaded process, one iteration after another",
    }


def measure(args, root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "djcsim", "cli.py")):
        raise BenchError(f"no src/djcsim/cli.py under {root}: run from the root of a checkout")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    state_dir = os.path.join(root, ".perfbench")
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(state_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    env = child_env(src)
    record = {"environment": environment(args.seed, workload.name, args.trace)}
    try:
        metrics = measure_import_split(env) if trace else {}
        setup = [] if trace else time_setup(env, SETUP_IMPORTS)
        out_dir = os.path.join(work, "out")
        inputs = make_inputs(workload, args.seed, out_dir)
        plan = {
            "argv": inputs.argv, "out_dir": out_dir, "keep_dir": os.path.join(work, "first"),
            "seconds": args.seconds, "min_iterations": MIN_ITERATIONS[trace], "trace": trace,
            "kernel": workload.kernel,
            "result": os.path.join(work, "result.json"),
            "trace_file": os.path.join(state_dir, f"trace-{tag}.json"),
        }
        child = run_worker(root, env, plan)
        if not trace:
            setup += time_setup(env, SETUP_IMPORTS)
            record["setup_samples_s"] = setup
            metrics["setup_s"] = statistics.median(setup)
        if not os.path.realpath(child["djcsim_file"]).startswith(os.path.realpath(src) + os.sep):
            raise BenchError(f"child imported djcsim from {child['djcsim_file']}, not {src}")
        iterations = child["iterations"]
        attempted, failed, checks, failures = check_outputs(inputs, plan["keep_dir"], iterations)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [it["wall_s"] for it in iterations if not it["traced"]]
    scaled = calibrate.normalise([it["wall_s"] for it in iterations], child["kernel_s"],
                                 workload.kernel)
    plain_ref = [w for w, it in zip(scaled, iterations) if not it["traced"]]
    if trace:
        traced = [it for it in iterations if it["traced"]]
        for name, first in traced[0]["layers"].items():  # counts repeat exactly
            metrics[name] = (statistics.median(it["layers"][name] for it in traced)
                             if name.endswith("_s") else first)
        outputs = iterations[0]["outputs"].values()
        metrics["cli.csv_bytes"] = sum(o["bytes"] for o in outputs)
        metrics["cli.rows_written"] = sum(o["rows"] for o in outputs)
        metrics["evolve.max_norm_dev"] = max(c.max_norm_dev for c in checks.values())
        metrics["evolve.max_ref_err"] = max(c.max_ref_err for c in checks.values())
        traced_ref = [w for w, it in zip(scaled, iterations) if it["traced"]]
        metrics["trace.overhead_ratio"] = (statistics.median(traced_ref)
                                           / statistics.median(plain_ref))
        layers, least = DESIGNED_SPLIT[workload.name]
        record["designed_split"] = {
            "layers": layers, "least_share": least,
            "share": sum(metrics[n] for n in layers) / metrics["trace.wall_s"]}
    else:
        metrics["wall_ref_s"] = statistics.median(plain_ref)
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
    record.update(wall_samples_s=plain, wall_ref_samples_s=plain_ref, kernel=workload.kernel,
                  kernel_samples_s=child["kernel_s"],
                  checks={n: vars(c) for n, c in checks.items()},
                  failures=failures, attempted=attempted, failed=failed, metrics=metrics)
    with open(os.path.join(state_dir, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    return record


def report(record, trace):
    env = record["environment"]
    print(f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"machine: nproc {env['nproc']}, {env['cpu']}; child env "
          + " ".join(f"{k}={v}" for k, v in env["child_env"].items()))
    print(f"load: {env['load']}")
    for msg in record["failures"]:
        print(f"FAILED {msg}")
    for name in ("wall_samples_s", "wall_ref_samples_s", "kernel_samples_s"):
        walls = record[name]
        print(f"{name[:-10]}_s samples: n={len(walls)}, median {statistics.median(walls):.4f} s, "
              f"max {max(walls):.4f} s (too few samples for a tail percentile)")
    if "setup_samples_s" in record:
        setup = record["setup_samples_s"]
        print(f"setup_s samples: n={len(setup)}, median {statistics.median(setup):.4f} s, "
              f"max {max(setup):.4f} s")
    print(f"fail_ratio: {record['failed']}/{record['attempted']} operations")
    if "designed_split" in record:
        split = record["designed_split"]
        print(f"designed split: {' + '.join(split['layers'])} = {split['share']:.1%} of the "
              f"traced wall time (designed: at least {split['least_share']:.0%})")
    units = PER_LAYER if trace else END_TO_END
    for name, unit in units.items():
        print(f"  {name:30s} {record['metrics'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    try:
        record = measure(args, os.getcwd())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
