"""Criteria 10 and 12 check every row of their boxes themselves: a wrong row
that skips the library's own checks must still fail the criterion."""

import numpy as np

from ybe_growth import reflection_monoid, verification


def _wrong_in_one_row(monkeypatch, name, row_of, wrong):
    """Patch verification's `name` to return the true answers with `wrong`
    written into the rows that `row_of(*args)` selects, unchecked."""
    true_form = getattr(reflection_monoid, name)
    changed = []

    def patched(*args):
        answers = true_form(*args)
        rows = row_of(*args)
        answers[rows] = wrong
        changed.append(int(np.count_nonzero(rows)))
        return answers

    monkeypatch.setattr(verification, name, patched)
    result = verification.check_constructive_lemmas()
    assert sum(changed) == 1
    assert result.details["triple_cases"] == 136120
    assert result.details["lift_cases"] == 128394
    return result


def test_wrong_witness_fails_criterion_12(monkeypatch):
    # (1, 3, 1) has the witness 2; n = 1 gives gcd(2, 4) = 2, not 1
    result = _wrong_in_one_row(
        monkeypatch,
        "gcd_witnesses",
        lambda a, b, c, parity: (a == 1) & (b == 3) & (c == 1) & (parity is None),
        1,
    )
    assert result.details["triple_gcd_ok"] is False
    assert result.details["lift_ok"] is True
    assert result.passed is False


def test_wrong_lift_fails_criterion_12(monkeypatch):
    # (2, 4) with d = 1 lifts by (0, 1); offsets (0, 0) leave gcd(2, 4) = 2, not 1
    def row_of(values, d, force_odd):
        if d != 1 or force_odd or values.shape[1] != 2:
            return np.zeros(len(values), dtype=bool)
        return (values == (2, 4)).all(axis=1)

    result = _wrong_in_one_row(monkeypatch, "coprime_lifts", row_of, 0)
    assert result.details["lift_ok"] is False
    assert result.details["triple_gcd_ok"] is True
    assert result.passed is False


def _criterion_10(monkeypatch, name, patched):
    monkeypatch.setattr(verification, name, patched)
    result = verification.check_invariant_completeness()
    assert result.details["move_cases"] == 19600
    assert result.passed is False
    return result.details


def test_merged_invariant_classes_fail_criterion_10(monkeypatch):
    # odd forced to 0 merges classes at even levels, which only d = 4 and 6 have
    true_body = reflection_monoid.invariant_columns

    def merged(columns, d):
        weight, density, anchor, even, odd = true_body(columns, d)
        return weight, density, anchor, even + odd, odd * 0

    details = _criterion_10(monkeypatch, "invariant_columns", merged)
    assert [row["invariant_classes_match"] for row in details["rows"]] == [True, False, True, False]
    assert all(row["normal_forms_in_orbit"] for row in details["rows"])
    assert details["push_through_ok"] is True
    assert details["squares_centrality_ok"] is True


def test_push_off_by_one_fails_criterion_10(monkeypatch):
    changed = []

    def off_by_one(columns, a, d=None):
        b = reflection_monoid.push_columns(columns, a, d)
        if len(columns) == 2:
            b[17] += 1
            changed.append(1)
        return b

    details = _criterion_10(monkeypatch, "push_columns", off_by_one)
    assert changed == [1]
    assert details["push_through_ok"] is False
    assert details["squares_centrality_ok"] is True
    assert all(row["invariant_classes_match"] for row in details["rows"])


def test_broken_push_square_fails_criterion_10(monkeypatch):
    true_moves = verification._push_square

    def broken(a, word):
        moved = true_moves(a, word)
        moved[-1] = moved[-1].copy()
        moved[-1][5] -= 1
        return moved

    details = _criterion_10(monkeypatch, "_push_square", broken)
    assert details["squares_centrality_ok"] is False
    assert details["push_through_ok"] is True
