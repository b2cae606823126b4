"""Record what the README runs and the benchmark workloads write and print.

    PYTHONPATH=src python tests/make_reference.py

runs every ``djcsim ...`` command of README.md (its CLI block, then its
reference-scenario table), the README library snippet and the benchmark's
three workload argvs at seed 1, each in a fresh temporary directory.  It
writes ``reference_outputs.json`` next to this file: for each CSV column
its row count, 32 evenly spaced values, min, max and sum, and for each run
the numbers its stdout prints, as printed.  It prints the sha256 of every
CSV file and of every run's stdout, for the change log.

``test_reference.py`` reruns the list and compares: RK4 runs (``single``,
and the snippet's ``run_single``) to within 1e-6, the column bar of
"keeps the outputs", and exact-engine runs to within 1e-12.  sha256 is not
the gate, since numpy builds may sum in another order.  Regenerating the
record changes test data: say which columns moved, and by how much.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).resolve().with_name("reference_outputs.json")
SNIPPET = "README library snippet"
#: The benchmark workloads' argvs at seed 1 (perfbench/workloads.py).
WORKLOADS = [
    "djcsim single --modes 99 --length-ratio 3480.0 --omega-a 4840.0 "
    "--theta 1.0770162658873024",
    "djcsim double --modes 49 --length-ratio 1720.0 --omega-a 11100.0 "
    "--theta 0.9708804880432356",
    "djcsim sweep --modes 99 --length-ratio 3480.0 --omega-a 11100.0 --axis theta "
    "--initial fields --stride 1 --values 0.6474864616138795",
]
#: Values recorded per column, at evenly spaced rows.
SAMPLED_ROWS = 32
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def readme_commands() -> Tuple[List[str], List[str]]:
    """The ``djcsim ...`` commands of README.md: its CLI block, then its
    reference scenario table."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    table = text.split("## Reference scenarios", 1)[1].split("\n## ", 1)[0]
    return ([line for line in block.splitlines() if line.startswith("djcsim ")],
            re.findall(r"`(djcsim [^`]*)`", table))


def readme_snippet() -> str:
    """The README's one Python block."""
    (snippet,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return snippet


def runs() -> List[str]:
    """Every recorded run: the README commands, the snippet, the workloads."""
    block, table = readme_commands()
    return block + table + [SNIPPET] + WORKLOADS


def tolerance(name: str) -> float:
    """How far a rerun of ``name`` may move: RK4 runs by its column bar,
    exact-engine runs by rounding."""
    rk4 = name == SNIPPET or shlex.split(name)[1] == "single"
    return 1e-6 if rk4 else 1e-12


def _column(cells: List[str]) -> dict:
    """One column's record; a nonfinite or empty cell is kept as its text
    and left out of the statistics."""
    values = np.array([float(c) if c else math.nan for c in cells])
    finite = values[np.isfinite(values)]
    rows = np.unique(np.linspace(0, len(cells) - 1, SAMPLED_ROWS).round().astype(int))
    stats = ({"min": float(finite.min()), "max": float(finite.max()),
              "sum": float(finite.sum())} if finite.size
             else {"min": None, "max": None, "sum": None})
    sampled = [float(values[i]) if math.isfinite(values[i]) else cells[i] for i in rows]
    return {"rows": len(cells), "values": sampled, **stats}


def run(name: str, workdir: str) -> Tuple[dict, Dict[str, str]]:
    """Run ``name`` in ``workdir``: its record and the sha256 of its stdout
    and of each file it wrote."""
    from djcsim.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            if name == SNIPPET:
                exec(readme_snippet(), {})
            elif main(shlex.split(name)[1:]) != 0:
                raise RuntimeError(f"{name!r} failed")
    finally:
        os.chdir(cwd)
    printed = stdout.getvalue()
    files, hashes = {}, {"stdout": hashlib.sha256(printed.encode()).hexdigest()}
    for path in sorted(Path(workdir).iterdir()):
        data = path.read_bytes()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
        header, *lines = data.decode("ascii").splitlines()
        table = list(zip(*(line.split(",") for line in lines)))
        files[path.name] = {key: _column(list(cells))
                            for key, cells in zip(header.split(","), table)}
    return {"stdout": _NUMBER.findall(printed), "files": files}, hashes


def _close(ref, got, tol: float, count: int = 1) -> bool:
    """Recorded and rerun value within tol (relative above 1; times count
    for a sum of count terms); a text or None matches itself only."""
    if isinstance(ref, float) and isinstance(got, float):
        return math.isclose(ref, got, rel_tol=tol, abs_tol=tol * count)
    return ref == got


def _last_place(text: str) -> float:
    """The place value of the last digit a printed number shows: how far
    rounding to it can move the number.  0 for an integer."""
    mantissa, _, exponent = text.lower().partition("e")
    if "." not in mantissa and not exponent:
        return 0.0
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare(name: str, ref: dict, got: dict) -> List[str]:
    """How a rerun of ``name`` differs from its record, one line per difference."""
    tol = tolerance(name)
    problems = []
    if len(ref["stdout"]) != len(got["stdout"]):
        problems.append(f"stdout prints {len(got['stdout'])} numbers, "
                        f"recorded {len(ref['stdout'])}")
    else:
        for i, (a, b) in enumerate(zip(ref["stdout"], got["stdout"])):
            rounding = max(_last_place(a), _last_place(b))
            if not abs(float(a) - float(b)) <= tol * max(1.0, abs(float(a))) + rounding:
                problems.append(f"stdout number {i}: {b}, recorded {a}")
    if sorted(ref["files"]) != sorted(got["files"]):
        return problems + [f"files {sorted(got['files'])}, recorded {sorted(ref['files'])}"]
    for file, columns in ref["files"].items():
        if list(columns) != list(got["files"][file]):
            problems.append(f"{file}: header {list(got['files'][file])}, recorded {list(columns)}")
            continue
        for key, column in columns.items():
            fresh = got["files"][file][key]
            where = f"{file} {key}"
            if column["rows"] != fresh["rows"]:
                problems.append(f"{where}: {fresh['rows']} rows, recorded {column['rows']}")
                continue
            for i, (a, b) in enumerate(zip(column["values"], fresh["values"])):
                if not _close(a, b, tol):
                    problems.append(f"{where} sampled value {i}: {b!r}, recorded {a!r}")
            for stat in ("min", "max", "sum"):
                count = column["rows"] if stat == "sum" else 1
                if not _close(column[stat], fresh[stat], tol, count):
                    problems.append(f"{where} {stat}: {fresh[stat]!r}, "
                                    f"recorded {column[stat]!r}")
    return problems


def main() -> int:
    record = {}
    for name in runs():
        with tempfile.TemporaryDirectory() as workdir:
            record[name], hashes = run(name, workdir)
        for file, digest in hashes.items():
            print(f"{digest}  {name} :: {file}")
    text = json.dumps(record, indent=1)
    # each list on one line
    RECORD.write_text(re.sub(r"\[[^][{}]*\]", lambda m: " ".join(m[0].split()), text) + "\n")
    print(f"wrote {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
