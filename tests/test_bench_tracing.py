"""The benchmark's tracing targets must name live code.

`bench/tracing.py` wraps functions by "module:qualname" and names one span
metric per verify criterion; a rename in `src/` that it does not follow
would surface only in a traced benchmark run.  The bench modules are
imported read-only: no bytecode is written under `bench/`.
"""

import importlib
import sys
from pathlib import Path

import pytest

from ybe_growth import verification

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def test_every_target_resolves(tracing):
    targets = {t for names in tracing.LAYERS.values() for t in names} | set(tracing.COUNTERS)
    for target in sorted(targets):
        owner, fn = tracing._resolve(target)
        assert callable(fn), target


def test_criterion_ids_match_verification(tracing):
    # tracing.CRITERIA is the tuple bench/workloads.py declares
    assert tracing.CRITERIA == tuple(cid for cid, _ in verification.CRITERIA)
