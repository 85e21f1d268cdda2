"""The formula-vs-oracle verification matrix.

Every criterion compares closed-form output against an independent route:
breadth-first Cayley balls for groups, braiding-orbit counts for monoids,
element-level enumeration for defects, or constructive checks over fixed
boxes for the arithmetic lemmas and the braiding identities.  Nothing is
sampled: each check enumerates its whole box, and the box bounds and case
counts are reported in the criterion's details.  Each criterion returns a
structured, deterministic result so the CLI can emit stable JSON and the
test suite can assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Callable, Optional

import numpy as np

from .algebra import (
    make_dihedral_group,
    make_symmetric_group,
    dihedral_reflections,
    symmetric_transpositions,
    reflection_solution,
    transposition_solution,
    generic_length_series,
    Permutation,
)
from .group_growth import (
    as_full_conjugation_gf,
    as_reflections_group_gf,
    as_transpositions_group_gf,
    defect_series,
    solomon_series,
)
from .oracle import (
    conjugation_ball_series,
    full_conjugation_spheres,
    monoid_orbit_enumerate,
)
from .reflection_monoid import (
    ReflectionWord,
    coprime_lifts,
    gcd_witnesses,
    invariant_columns,
    monoid_growth_reflections,
    normal_form as reflection_normal_form,
    push_columns,
)
from .series import ONE, ONE_MINUS_T, ONE_PLUS_T, Polynomial, RationalGF, T, expand_rational
from .transposition_monoid import (
    TranspositionWord,
    egf_column,
    egf_transposition_monoids,
    fts_embed,
    fts_image_membership,
    monoid_growth_transpositions,
    word_partition,
)

GEOM = RationalGF(ONE_PLUS_T, ONE_MINUS_T)  # (1+t)/(1-t)

# The boxes criteria 10 and 12 enumerate in full.
MOVE_LETTERS = range(-3, 4)  # letters of the moved words, and the moved letter
MOVE_LENGTHS = range(1, 5)
TRIPLE_BOX = range(-20, 21)  # a, b and c of the gcd witness
LIFT_BOXES = (  # (arities, values, moduli) of the coprime lifts
    ((2, 3), range(-6, 7), range(1, 25)),
    ((4,), range(-3, 4), range(1, 13)),
)


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    gating: bool = True
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "passed": self.passed,
            "gating": self.gating,
            "details": self.details,
        }


def verdict(oracle, formula) -> Optional[bool]:
    """The rule behind every formula-vs-oracle comparison: False when the
    oracle's counts differ from the formula's on the orders the oracle
    reached, None when it reached fewer orders than the formula or none at
    all, True otherwise.  An empty or truncated comparison is never a pass."""
    oracle, formula = list(oracle), list(formula)
    if oracle != formula[: len(oracle)]:
        return False
    return True if oracle and len(oracle) >= len(formula) else None


def _row(fields: dict, *checks) -> dict:
    """A details row: `fields`, passed when every check is true (a verdict of
    None is not)."""
    return {**fields, "passed": all(checks)}


def _result(cid: str, name: str, rows: list, **flags) -> CriterionResult:
    """A criterion over `rows` and whole-criterion boolean `flags`, both kept
    in its details; it passes when it has rows and every row and flag passes."""
    passed = bool(rows) and all(row["passed"] for row in rows) and all(flags.values())
    return CriterionResult(cid, name, passed, details={"rows": rows, **flags})


def check_solomon() -> CriterionResult:
    rows = []
    for d in range(2, 7):
        group = make_symmetric_group(d)
        gf = solomon_series(d)
        order = gf.num.degree
        series, covered = generic_length_series(group, symmetric_transpositions(group), order)
        expected = expand_rational(gf, order).integer_coefficients()
        actual = series.integer_coefficients()
        fields = {"d": d, "expected": expected, "actual": actual}
        rows.append(_row(fields, covered, verdict(actual, expected)))
    return _result("1", "Solomon product vs Cayley BFS on S_d", rows)


def check_transposition_group() -> CriterionResult:
    known_forms = {
        2: GEOM,
        3: RationalGF(Polynomial([1, 1]) * Polynomial([1, 4, -2]), ONE_MINUS_T),
        4: RationalGF(Polynomial([1, 1]) * Polynomial([1, 10, 13, -12]), ONE_MINUS_T),
    }
    rows = []
    for d, known in known_forms.items():
        group = make_symmetric_group(d)
        gf = as_transpositions_group_gf(d)
        spheres = conjugation_ball_series(group, symmetric_transpositions(group), 6)
        expansion = expand_rational(gf, 6).integer_coefficients()
        closed_ok = gf == known
        fields = {
            "d": d, "oracle": spheres, "expansion": expansion, "closed_form_matches": closed_ok
        }
        rows.append(_row(fields, closed_ok, verdict(spheres, expansion)))
    return _result("2", "As(T_d) closed forms vs ball oracle", rows)


def check_recursion() -> CriterionResult:
    rows = []
    for d in range(2, 8):
        lhs = as_transpositions_group_gf(d + 1)
        rhs = RationalGF(Polynomial([1, d])) * as_transpositions_group_gf(d) + RationalGF(
            Polynomial([0, d])
        ) * solomon_series(d)
        rows.append(_row({"d": d}, lhs == rhs))
    return _result("3", "Recursion for As(T_d) growth series", rows)


def check_reflection_group() -> CriterionResult:
    rows = []
    for d in range(3, 8):
        group = make_dihedral_group(d)
        spheres = conjugation_ball_series(group, dihedral_reflections(group), 6)
        expansion = expand_rational(as_reflections_group_gf(d), 6).integer_coefficients()
        fields = {"d": d, "oracle": spheres, "expansion": expansion}
        rows.append(_row(fields, verdict(spheres, expansion)))
    return _result("4", "As(R_d) closed forms vs ball oracle", rows)


def check_defect_engine() -> CriterionResult:
    # (group, expected classification, expected closed form or, for D9, the
    # element whose class carries an axis ray of defect 6 on both parities:
    # the rotation by 3, at element index 3)
    table = (
        (make_symmetric_group(3), "finite", RationalGF(Polynomial([2, 2]))),
        (
            make_symmetric_group(4),
            "finite-plus-axis-rays",
            RationalGF(Polynomial([11, 50, 4])) + RationalGF(Polynomial([0, 0, 32]), ONE_MINUS_T),
        ),
        (make_dihedral_group(5), "finite", RationalGF(Polynomial([4, 12, 12, 4]))),
        (make_dihedral_group(9), "finite-plus-axis-rays", 3),
    )
    rows = []
    for group, classification, expected in table:
        result = defect_series(group, 8)
        fields = {"group": group.name, "classification": result.classification}
        if isinstance(expected, RationalGF):
            good = result.closed_form == expected
        else:
            ray_class = group.conjugacy_classes().class_of[expected]
            good = fields["ray_defect_6_along_order3_rotations"] = any(
                ray.class_index == ray_class and ray.even_defect == 6 and ray.odd_defect == 6
                for ray in result.axis_rays
            )
        rows.append(_row(fields, result.classification == classification, good))
    return _result("5", "Defect series engine", rows)


def check_full_conjugation() -> CriterionResult:
    # (group, expected closed form, whether the ball oracle runs); S4's series
    # has no closed form and is checked through its truncated defect only
    table = (
        (
            make_symmetric_group(3),
            RationalGF(Polynomial([3])) * GEOM**3 - 2 * RationalGF(ONE_PLUS_T**3),
            True,
        ),
        (
            make_dihedral_group(5),
            RationalGF(Polynomial([5])) * GEOM**4 - 4 * RationalGF(ONE_PLUS_T**5),
            True,
        ),
        (
            make_dihedral_group(7),
            RationalGF(Polynomial([7])) * GEOM**5
            - 6 * RationalGF(ONE_PLUS_T**7)
            + RationalGF(Polynomial([6]).shift(3) * ONE_PLUS_T**3),
            False,
        ),
        (make_symmetric_group(4), None, True),
    )
    rows = []
    for group, known, with_oracle in table:
        result = as_full_conjugation_gf(group, 5)
        fields, checks = {"group": group.name}, []
        if known is None:
            fields["group"] += " (via truncated defect)"
        else:
            fields["closed_form_matches"] = result.closed_form == known
            checks.append(fields["closed_form_matches"])
        if with_oracle:
            fields["oracle"] = full_conjugation_spheres(group, 5)
            fields["expansion"] = result.truncated.integer_coefficients()
            checks.append(verdict(fields["oracle"], fields["expansion"]))
        rows.append(_row(fields, *checks))
    return _result("6", "Full conjugation growth (S_3, S_4, D_5, D_7)", rows)


def check_s5_numerator() -> CriterionResult:
    """Stretch: the published numerator of the As(S_5) series over (1-t)^7."""
    published = Polynomial(
        [1, 233, 3086, -1200, 2050, 7150, -4760, -980, 3505, -1455, -46, 92, 4]
    )
    result = as_full_conjugation_gf(make_symmetric_group(5), 4)
    good = (
        result.defect.classification == "finite"
        and result.closed_form == RationalGF(published, ONE_MINUS_T**7)
    )
    return CriterionResult(
        "6s",
        "Stretch: published As(S_5) numerator",
        good,
        gating=False,
        details={"classification": result.defect.classification},
    )


def check_transposition_monoid() -> CriterionResult:
    rows = []
    for d, max_len in ((2, 7), (3, 7), (4, 6)):
        sol = transposition_solution(d)
        counts = monoid_orbit_enumerate(sol, max_len).counts
        expansion = expand_rational(monoid_growth_transpositions(d), max_len).integer_coefficients()
        fields = {"d": d, "oracle": counts, "expansion": expansion}
        rows.append(_row(fields, verdict(counts, expansion)))
    known_g3 = RationalGF(Polynomial([1, 1]) * Polynomial([1, 1, 1]), ONE_MINUS_T)
    t_over = RationalGF(T, ONE_MINUS_T)
    known_g4 = (
        RationalGF(ONE)
        + 6 * t_over
        + 4 * RationalGF(Polynomial([0, 0, 2, 1]), ONE_MINUS_T)
        + RationalGF(Polynomial([0, 0, 0, 6, 5, 1]), ONE_MINUS_T)
        + 3 * t_over**2
    )
    closed_ok = (
        monoid_growth_transpositions(3) == known_g3 and monoid_growth_transpositions(4) == known_g4
    )
    return _result(
        "7", "Transposition monoid growth vs orbit oracle", rows, closed_forms_match=closed_ok
    )


def check_egf() -> CriterionResult:
    egf = egf_transposition_monoids(8, 4)
    rows = []
    for d in range(5):
        via_egf = egf_column(egf, d)
        direct = expand_rational(monoid_growth_transpositions(d), 8)
        fields = {"d": d, "coefficients": direct.integer_coefficients()}
        rows.append(_row(fields, verdict(via_egf.coeffs, direct.coeffs)))
    return _result("8", "EGF columns vs per-d monoid growth", rows)


def check_reflection_monoid() -> CriterionResult:
    rows = []
    for d in range(2, 9):
        counts = monoid_orbit_enumerate(reflection_solution(d), 5).counts
        expansion = expand_rational(monoid_growth_reflections(d), 5).integer_coefficients()
        fields = {"d": d, "oracle": counts, "expansion": expansion}
        rows.append(_row(fields, verdict(counts, expansion)))
    # the divisor formula and the level-decomposition route are asserted equal
    # inside monoid_growth_reflections; exercise both for d <= 30
    routes_ok = True
    for d in range(1, 31):
        try:
            monoid_growth_reflections(d)
        except AssertionError:
            routes_ok = False
    return _result(
        "9",
        "Reflection monoid growth vs orbit oracle; route agreement d <= 30",
        rows,
        routes_agree_upto_30=routes_ok,
    )


def _apply_push_moves(word: list, a) -> list:
    """Move a trailing letter a to the front by length-many braiding moves, on
    letter columns."""
    current = word + [a]
    for pos in range(len(word) - 1, -1, -1):
        x, y = current[pos], current[pos + 1]
        current[pos], current[pos + 1] = 2 * x - y, x
    return current


def _push_square(a, word: list) -> list:
    """Move a leading square e_a e_a to the back, two braiding moves per
    letter, on letter columns."""
    current = [a, a] + word
    for i in range(2, len(current)):
        x = current[i]
        s = current[i - 1]
        current[i - 1], current[i] = 2 * s - x, s
        s2 = current[i - 2]
        current[i - 2], current[i - 1] = 2 * s2 - current[i - 1], s2
    return current


def _letter_columns(letters: range, n: int) -> list[np.ndarray]:
    """Column i holds letter i of every word in letters^n, the words in
    lexicographic (itertools.product) order.  int8 keeps the boxes small and
    holds every value criterion 10 computes from them: at most 27 in absolute
    value, reached by the push-through letter of the move box."""
    box = np.indices((len(letters),) * n, dtype=np.int8).reshape(n, -1)
    return list(box + np.int8(letters[0]))


def _bounds(box: range) -> list[int]:
    return [box[0], box[-1]]


def check_invariant_completeness() -> CriterionResult:
    rows = []
    ok = True
    for d in (3, 4, 5, 6):
        sol = reflection_solution(d)
        enum = monoid_orbit_enumerate(sol, 6)
        classes_ok = nf_ok = True
        for n in range(1, 7):
            fields = invariant_columns(_letter_columns(range(d), n), d)
            # weight, density, anchor, essential even and odd lengths; a field
            # out of its bound raises rather than colliding with another key
            keys = np.ravel_multi_index(fields, (d, d + 1, d, n + 1, n + 1))
            classes_ok &= len(np.unique(keys)) == enum.counts[n]
            nf_ok &= all(
                enum.same_orbit(rep, reflection_normal_form(ReflectionWord(rep, d)).word.letters)
                for rep in enum.representatives[n]
            )
        ok &= classes_ok and nf_ok
        rows.append(
            {
                "d": d,
                "orbits_by_length": enum.counts[1:7],
                "invariant_classes_match": classes_ok,
                "normal_forms_in_orbit": nf_ok,
            }
        )
    push_ok = centrality_ok = True
    move_cases = 0
    for n in MOVE_LENGTHS:
        *word, a = _letter_columns(MOVE_LETTERS, n + 1)
        move_cases += len(a)
        push_ok &= np.array_equal(_apply_push_moves(word, a), [push_columns(word, a)] + word)
        centrality_ok &= np.array_equal(_push_square(a, word), word + [a, a])
    ok &= push_ok and centrality_ok
    return CriterionResult(
        "10",
        "Invariant completeness, normal forms, squares centrality, push-through",
        ok,
        details={
            "rows": rows,
            "move_box": {"letters": _bounds(MOVE_LETTERS), "lengths": _bounds(MOVE_LENGTHS)},
            "move_cases": move_cases,
            "push_through_ok": push_ok,
            "squares_centrality_ok": centrality_ok,
        },
    )


def check_fts_embedding() -> CriterionResult:
    rows = []
    for d in (3, 4):
        sol = transposition_solution(d)
        pair_of = dict(enumerate(sol.labels))
        enum = monoid_orbit_enumerate(sol, 7)
        group = make_symmetric_group(d)
        perms = [Permutation(p) for p in group.images.tolist()]
        for n in range(1, 8):
            full_reps = [
                rep
                for rep in enum.representatives[n]
                if word_partition(TranspositionWord([pair_of[k] for k in rep], d)).is_full()
            ]
            images = {
                (fts_embed(TranspositionWord([pair_of[k] for k in rep], d)).perm.images, n)
                for rep in full_reps
            }
            member_count = sum(1 for p in perms if fts_image_membership(p, n, d))
            injective = len(images) == len(full_reps)
            members_ok = all(
                fts_image_membership(Permutation(img), m, d) for img, m in images
            )
            good = injective and members_ok and len(images) == member_count
            if not good or n == 7:  # every failing row is kept
                fields = {
                    "d": d, "length": n, "full_orbits": len(full_reps), "image_pairs": member_count
                }
                rows.append(_row(fields, good))
    return _result("11", "Full transposition words biject with (g, m) image pairs", rows)


def check_constructive_lemmas() -> CriterionResult:
    # Each box is checked a slice at a time (one per value of a and parity,
    # one per d, arity and force_odd): the whole triple box as one array
    # raised verify's peak memory by about 11%.
    box = np.array(TRIPLE_BOX)
    b_box, c_box = (x.ravel() for x in np.meshgrid(box, box, indexing="ij"))
    gcd_ok = True
    triple_cases = 0
    for a in TRIPLE_BOX:
        # a parity can be asked for only when a and b differ in parity
        for parity in (None, 0, 1):
            rows = b_box != a if parity is None else (b_box - a) % 2 == 1
            b, c = b_box[rows], c_box[rows]
            n = gcd_witnesses(np.full_like(b, a), b, c, parity)
            triple_cases += len(n)
            witnessed = (n >= 1) & (np.gcd(a + n * c, b + n * c) == np.gcd(np.gcd(a, b), c))
            gcd_ok &= bool(witnessed.all()) and (parity is None or bool((n % 2 == parity).all()))
    lift_ok = True
    lift_cases = 0
    for arities, value_box, moduli in LIFT_BOXES:
        tuples = {k: np.array(list(iproduct(value_box, repeat=k))) for k in arities}
        for d, k in iproduct(moduli, arities):
            values = tuples[k]
            # odd lifts can be forced only for odd d
            for force_odd in (False, True) if d % 2 else (False,):
                lift_cases += len(values)
                final = values + coprime_lifts(values, d, force_odd) * d
                lifted_gcd = np.gcd.reduce(final, axis=1)
                lift_ok &= bool((lifted_gcd == np.gcd(d, np.gcd.reduce(values, axis=1))).all())
                lift_ok &= not (force_odd and (final % 2 == 0).any())
    return CriterionResult(
        "12",
        "Constructive gcd witness and coprime lifting lemmas",
        gcd_ok and lift_ok,
        details={
            "triple_box": {"abc": _bounds(TRIPLE_BOX), "parities": [None, 0, 1]},
            "triple_cases": triple_cases,
            "triple_gcd_ok": gcd_ok,
            "lift_boxes": [
                {"arities": list(arities), "values": _bounds(values), "moduli": _bounds(moduli)}
                for arities, values, moduli in LIFT_BOXES
            ],
            "lift_cases": lift_cases,
            "lift_ok": lift_ok,
        },
    )


CRITERIA: list[tuple[str, Callable[[], CriterionResult]]] = [
    ("1", check_solomon),
    ("2", check_transposition_group),
    ("3", check_recursion),
    ("4", check_reflection_group),
    ("5", check_defect_engine),
    ("6", check_full_conjugation),
    ("6s", check_s5_numerator),
    ("7", check_transposition_monoid),
    ("8", check_egf),
    ("9", check_reflection_monoid),
    ("10", check_invariant_completeness),
    ("11", check_fts_embedding),
    ("12", check_constructive_lemmas),
]


def run_criteria(ids: Optional[list[str]] = None) -> list[CriterionResult]:
    selected = [c for c in CRITERIA if ids is None or c[0] in ids]
    if ids is not None:
        unknown = set(ids) - {c[0] for c in CRITERIA}
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
    return [fn() for _, fn in selected]
