"""Criterion 12 checks every answer of the lemma boxes itself: a wrong row
that skips the lemmas' own checks must still fail the criterion."""

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
