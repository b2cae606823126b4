"""The README runs and the benchmark workloads against their committed
record, ``reference_outputs.json`` (see ``make_reference.py``)."""

import json

import pytest

from make_reference import RECORD, compare, run, runs

RECORDED = json.loads(RECORD.read_text())


def test_record_holds_every_run():
    assert list(RECORDED) == runs()


@pytest.mark.parametrize("name", runs())
def test_run_matches_its_record(tmp_path, name):
    fresh, _ = run(name, str(tmp_path))
    assert compare(name, RECORDED[name], fresh) == []
