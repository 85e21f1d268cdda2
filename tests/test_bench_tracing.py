"""The benchmark's tracing targets must name live code, and its reference
reports must match the library's output.

`bench/tracing.py` wraps functions by "module:qualname" and names one span
metric per verify criterion; a rename in `src/` that it does not follow
would surface only in a traced benchmark run.  Likewise the `conjugation`
workload compares each report's SHA-256 with `bench/reference/expected.json`,
and the `group-balls` window jobs check the closures' sizes and memberships,
so a report whose bytes change, or a closure type the check cannot read,
fails here first.  The bench modules are imported read-only: no bytecode is
written under `bench/`.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from ybe_growth import verification
from ybe_growth.cli import main
from ybe_growth.oracle import reflection_orbit_closure

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _import_bench(name):
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def tracing():
    return _import_bench("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _import_bench("workloads")


def test_every_target_resolves(tracing):
    targets = {t for names in tracing.LAYERS.values() for t in names} | set(tracing.COUNTERS)
    for target in sorted(targets):
        owner, fn = tracing._resolve(target)
        assert callable(fn), target


def test_criterion_ids_match_verification(tracing):
    # tracing.CRITERIA is the tuple bench/workloads.py declares
    assert tracing.CRITERIA == tuple(cid for cid, _ in verification.CRITERIA)


def test_conjugation_reports_match_reference(workloads, capsys):
    digests = workloads._expected()["reports_sha256"]
    assert sorted(digests) == sorted(slug for slug, _ in workloads.CONJUGATION)
    for slug, command in workloads.CONJUGATION:
        assert main(list(workloads._argv(command))) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[slug], slug


@pytest.mark.parametrize("length", ["3", "4", "5"])
def test_window_closures_pass_the_window_check(workloads, length):
    cases = [(tuple(json.loads(word)), states) for word, states in workloads._expected()["window"][length].items()]
    closures = [reflection_orbit_closure(word, margin=workloads.WINDOW_MARGIN) for word, _ in cases]
    assert workloads.check_window(cases)(closures) is None
