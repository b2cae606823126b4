"""Child process of the benchmark: runs and times workload iterations.

Usage: python3 perfbench/worker.py '<plan as JSON>'   (run.py writes the plan)

The load is a closed loop with one caller: this single process makes one
djcsim.cli.main(argv) call per iteration, one after another, until the time
budget is spent.  Only that call is timed.  A block of calibration kernel
calls runs before the first iteration and after each one, so that run.py
can scale each iteration by the machine's speed around it.  Hashing the
outputs and all bookkeeping happen between iterations.  In trace mode
every second iteration runs with djcsim's entry points wrapped by a
Tracer, so the untraced iterations of the same process give the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

from calibrate import run_kernel

#: Full-length complex vectors one RK4 step reads or writes at the numpy
#: expression level in evolve.integrate: 5 for each of the three stage
#: inputs y + (c h) k, 18 for the final weighted update, and one read plus
#: one write per derivative call.  Temporaries inside the derivatives are
#: not counted, so bytes computed from it are a lower bound.
RK4_VECTORS_PER_STEP = 3 * 5 + 18 + 4 * 2
#: a calibration block lasts at least this share of the iteration before it;
#: the block before the first iteration lasts at least KERNEL_FIRST_S
KERNEL_SHARE = 0.3
KERNEL_FIRST_S = 1.0


class Tracer:
    """Spans and counts around djcsim's public entry points, held in memory.

    Calls made a few times per iteration (cli.main, grid build, run_single
    or run_double, integrate, revival detection) become spans with start,
    end and parent.
    Callbacks that integrate makes tens of thousands of times (derivative,
    observe, and what observe calls) are tallied per iteration as total
    seconds and calls under the name of the layer they run in.
    """

    def __init__(self):
        self.spans = []
        self.tallies = []
        self.counts = []
        self.iteration = None
        self._open = []
        self._patches = []

    def span(self, name, fn):
        def wrapped(*args, **kwargs):
            record = {"name": name, "iteration": self.iteration, "id": len(self.spans),
                      "parent": self._open[-1]["id"] if self._open else None}
            self.spans.append(record)
            self._open.append(record)
            record["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()
        return wrapped

    def tally(self, name, within, fn):
        record = {"name": name, "within": within, "iteration": self.iteration,
                  "seconds": 0.0, "calls": 0}
        self.tallies.append(record)

        def wrapped(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                record["seconds"] += time.perf_counter() - start
                record["calls"] += 1
        wrapped.record = record
        return wrapped

    def count(self, name, value):
        self.counts.append({"name": name, "iteration": self.iteration, "value": value})

    def install(self, cli, evolve, iteration):
        """Wrap the entry points for one iteration; uninstall() undoes it."""
        self.iteration = iteration
        integrate = evolve.integrate
        detect = cli.detect_revivals

        def traced_integrate(deriv, state0, *args, observe=None, **kwargs):
            layer = deriv.__module__.rsplit(".", 1)[-1]  # "single" or "double"
            deriv = self.tally(f"{layer}.deriv", "evolve.integrate", deriv)
            if observe is not None:
                observe = self.tally("evolve.observe", "evolve.integrate", observe)
            traj = integrate(deriv, state0, *args, observe=observe, **kwargs)
            steps = deriv.record["calls"] // 4
            self.count("evolve.rk4_steps", steps)
            self.count("evolve.state_dim", len(state0))
            self.count("evolve.bytes_moved_computed",
                       16 * len(state0) * steps * RK4_VECTORS_PER_STEP)
            return traj

        def counted_detect(traj, *args, **kwargs):
            self.count("revivals.detect_calls", 1)
            self.count("revivals.samples_scanned", len(traj))
            return detect(traj, *args, **kwargs)

        self._patch(cli, "build_mode_grid", self.span("model.build_mode_grid", cli.build_mode_grid))
        self._patch(cli, "run_single", self.span("evolve.run_single", cli.run_single))
        self._patch(cli, "run_double", self.span("evolve.run_double", cli.run_double))
        self._patch(cli, "detect_revivals", self.span("revivals.detect_revivals", counted_detect))
        self._patch(evolve, "integrate", self.span("evolve.integrate", traced_integrate))
        for attr, layer in (("concurrence_single_closed", "concurrence.closed"),
                            ("concurrence_double_closed", "concurrence.closed"),
                            ("observables_single", "single.observables"),
                            ("observables_double", "double.observables")):
            self._patch(evolve, attr, self.tally(layer, "evolve.observe", getattr(evolve, attr)))

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def layers(self, iteration):
        """Per-layer times and counts of one traced iteration.

        Self times partition the cli.main span: cli.self_s, model.grid_s,
        evolve.run_self_s, evolve.integrate_self_s, the derivative times,
        evolve.observe_s (which includes concurrence.closed_s and the
        observables times) and revivals.detect_s add up to trace.wall_s.
        """
        def span_s(name):
            return sum(s["end"] - s["start"] for s in self.spans
                       if s["iteration"] == iteration and s["name"] == name)

        def tally(name, key="seconds"):
            return sum(t[key] for t in self.tallies
                       if t["iteration"] == iteration and t["name"] == name)

        def count(name, combine=sum):
            return combine([c["value"] for c in self.counts
                            if c["iteration"] == iteration and c["name"] == name] or [0])

        wall = span_s("cli.main")
        grid = span_s("model.build_mode_grid")
        runs = span_s("evolve.run_single") + span_s("evolve.run_double")
        integrate = span_s("evolve.integrate")
        detect = span_s("revivals.detect_revivals")
        deriv = tally("single.deriv") + tally("double.deriv")
        observe = tally("evolve.observe")
        return {
            "trace.wall_s": wall,
            "model.grid_s": grid,
            "evolve.run_self_s": runs - integrate,
            "evolve.integrate_self_s": integrate - deriv - observe,
            "evolve.rk4_steps": count("evolve.rk4_steps"),
            "evolve.samples": tally("evolve.observe", "calls"),
            "evolve.state_dim": count("evolve.state_dim", max),
            "evolve.bytes_moved_computed": count("evolve.bytes_moved_computed"),
            "single.deriv_s": tally("single.deriv"),
            "single.deriv_calls": tally("single.deriv", "calls"),
            "double.deriv_s": tally("double.deriv"),
            "double.deriv_calls": tally("double.deriv", "calls"),
            "evolve.observe_s": observe,
            "concurrence.closed_s": tally("concurrence.closed"),
            "single.observables_s": tally("single.observables"),
            "double.observables_s": tally("double.observables"),
            "revivals.detect_s": detect,
            "revivals.detect_calls": count("revivals.detect_calls"),
            "revivals.samples_scanned": count("revivals.samples_scanned"),
            "cli.self_s": wall - grid - runs - detect,
        }


def digest(out_dir):
    """SHA-256, size and data rows (lines after the header) of each output file."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        sha, size, lines = hashlib.sha256(), 0, 0
        with open(os.path.join(out_dir, name), "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
                size += len(block)
                lines += block.count(b"\n")
        found[name] = {"sha256": sha.hexdigest(), "bytes": size, "rows": lines - 1}
    return found


def kernel_block(name, seconds):
    """Mean seconds per kernel call over calls made until seconds have passed (at least one)."""
    calls = [run_kernel(name)]
    while sum(calls) < seconds:
        calls.append(run_kernel(name))
    return sum(calls) / len(calls)


def main(plan):
    from djcsim import cli, evolve

    out_dir, keep_dir = plan["out_dir"], plan["keep_dir"]
    tracer = Tracer() if plan["trace"] else None
    iterations = []
    run_kernel(plan["kernel"])  # warm-up, not counted
    kernel_s = [kernel_block(plan["kernel"], KERNEL_FIRST_S)]
    deadline = time.perf_counter() + plan["seconds"]
    cycle = 0.0  # seconds the last iteration and the calibration block after it took
    # start another iteration only while at least half a cycle is left, so
    # that a run ends, on average, when its time budget does
    while (len(iterations) < plan["min_iterations"]
           or time.perf_counter() + cycle / 2 < deadline):
        cycle_start = time.perf_counter()
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        os.makedirs(out_dir)
        call = cli.main
        if traced:
            tracer.install(cli, evolve, index)
            call = tracer.span("cli.main", cli.main)
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = call(plan["argv"])
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception:  # a crash fails this iteration's operations, not the run
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        record = {"traced": traced, "wall_s": wall, "exit": code, "error": error,
                  "outputs": digest(out_dir)}
        if traced:
            record["layers"] = tracer.layers(index)
        iterations.append(record)
        if index == 0:
            os.rename(out_dir, keep_dir)
        else:
            shutil.rmtree(out_dir)
        kernel_s.append(kernel_block(plan["kernel"], KERNEL_SHARE * wall))
        cycle = time.perf_counter() - cycle_start

    result = {
        "iterations": iterations,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "djcsim_file": cli.__file__,
    }
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer is not None:
        with open(plan["trace_file"], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "tallies": tracer.tallies,
                       "counts": tracer.counts}, handle)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
