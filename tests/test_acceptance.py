"""Acceptance suite: every criterion runs at its stated tolerance (exact
integer equality throughout) and prints one pass/fail line."""

import time

import pytest

from ybe_growth.verification import CRITERIA, run_criteria

TIME_LIMITS = {
    "1": 5.0,
    "2": 30.0,
    "3": 1.0,
    "4": 30.0,
    "5": 10.0,
    "6": 300.0,
    "6s": 300.0,
    "7": 120.0,
    "8": 30.0,
    "9": 120.0,
    "10": 180.0,
    "11": 120.0,
    "12": 10.0,
}


@pytest.mark.parametrize("cid,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(cid, check):
    start = time.monotonic()
    result = check()
    elapsed = time.monotonic() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {cid}: {result.name} ({elapsed:.1f}s)")
    assert result.passed, f"criterion {cid} failed: {result.details}"
    assert elapsed < TIME_LIMITS[cid], f"criterion {cid} exceeded its time budget"


def test_all_criteria_have_time_limits():
    assert {c[0] for c in CRITERIA} == set(TIME_LIMITS)


def test_verify_all_runner():
    results = run_criteria()
    assert all(r.passed for r in results if r.gating)
