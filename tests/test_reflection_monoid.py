import json
import math
import random
from itertools import permutations as iterperms, product as iproduct

import numpy as np
import pytest

from ybe_growth.algebra import reflection_solution
from ybe_growth.oracle import (
    monoid_orbit_enumerate,
    reflection_orbit_closure,
    reflection_orbit_equal_infinite,
)
from ybe_growth import reflection_monoid
from ybe_growth.cli import _invariants_json
from ybe_growth.verification import MOVE_LENGTHS, MOVE_LETTERS, _letter_columns
from ybe_growth.reflection_monoid import (
    InvariantTuple,
    ReflectionWord,
    coprime_lifts,
    density_of_product,
    divisor_count,
    divisors,
    elements_equal,
    essentialise,
    euler_phi,
    frs_embed,
    frs_growth_gf,
    frs_image_contains,
    gcd_witnesses,
    invariant_columns,
    invariants,
    lift_to_coprime,
    monoid_growth_reflections,
    normal_form,
    push_columns,
    push_through,
    triple_gcd_witness,
)
from ybe_growth.series import ONE, Polynomial, RationalGF, T, expand_rational

ONE_MINUS_T = ONE - T


def w(letters, d=None):
    return ReflectionWord(tuple(letters), d)


class TestReflectionWord:
    def test_letter_range(self):
        with pytest.raises(ValueError):
            w((0, 5), 5)  # a letter equal to the modulus
        with pytest.raises(ValueError):
            w((-1, 2), 5)
        assert w((), 5).letters == ()
        assert w((4, 0), 5).letters == (4, 0)


class TestInvariantTuple:
    def test_value_semantics(self):
        inv = invariants(w((1, -1, 1)))
        same = InvariantTuple(None, 3, 2, 1, 2, 1, 3)
        assert inv == same and hash(inv) == hash(same)
        assert len({inv, same, invariants(w((1, 1, -1)))}) == 2
        assert repr(inv) == (
            "InvariantTuple(modulus=None, weight=3, density=2, anchor=1, "
            "essential_even=2, essential_odd=1, length=3)"
        )
        with pytest.raises(AttributeError):
            inv.weight = 0

    def test_level(self):
        assert invariants(w((1, -1))).level is None
        assert invariants(w((0, 2), 4)).level == 2
        assert invariants(w((), 6)).level == 1

    def test_essential_weight_is_weight_of_essentialisation(self):
        for letters in iproduct(range(-3, 4), repeat=3):
            word = w(letters)
            if invariants(word).density:
                assert invariants(word).essential_weight() == invariants(essentialise(word)).weight
        for d in (4, 6, 9):
            for letters in iproduct(range(d), repeat=3):
                word = w(letters, d)
                assert invariants(word).essential_weight() == invariants(essentialise(word)).weight
        with pytest.raises(ValueError):
            invariants(w((2, 2))).essential_weight()


class TestInvariants:
    @pytest.mark.parametrize(
        "letters, weight, density, anchor",
        [
            ((1, 1), 0, 0, 1),
            ((0, -1), 1, 1, 0),
            ((1, -1), 2, 2, 1),
            ((1, -1, 1), 3, 2, 1),
            ((-6, -2, -2), -6, 4, 2),
        ],
    )
    def test_known_invariant_table(self, letters, weight, density, anchor):
        inv = invariants(w(letters))
        assert (inv.weight, inv.density, inv.anchor) == (weight, density, anchor)

    def test_essential_lengths(self):
        assert invariants(w((1, -1))).essential_even == 1
        assert invariants(w((1, -1))).essential_odd == 1
        assert invariants(w((1, -1, 1))).essential_even == 2
        assert invariants(w((-6, -2, -2))).essential_even == 1
        assert invariants(w((-6, -2, -2))).essential_odd == 2

    def test_lengths_sum(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(1, 6)
            word = w([rng.randint(-9, 9) for _ in range(n)])
            inv = invariants(word)
            assert inv.essential_even + inv.essential_odd == inv.length == n

    def test_finite_density_divides(self):
        rng = random.Random(1)
        for _ in range(300):
            d = rng.randint(1, 12)
            n = rng.randint(1, 6)
            inv = invariants(w([rng.randrange(d) for _ in range(n)], d))
            assert d % inv.density == 0 and inv.density >= 1
            assert 0 <= inv.anchor < inv.density

    def test_invariance_under_random_moves(self):
        rng = random.Random(2)
        for _ in range(500):
            n = rng.randint(1, 6)
            word = w([rng.randint(-8, 8) for _ in range(n)])
            inv = invariants(word)
            current = word
            for _ in range(30):
                if n >= 2:
                    current = current.apply_move(
                        rng.randrange(n - 1), inverse=rng.random() < 0.5
                    )
            assert invariants(current) == inv

    def test_finite_invariance_under_moves(self):
        rng = random.Random(3)
        for _ in range(500):
            d = rng.choice([3, 4, 5, 6])
            n = rng.randint(2, 6)
            word = w([rng.randrange(d) for _ in range(n)], d)
            inv = invariants(word)
            current = word
            for _ in range(30):
                current = current.apply_move(rng.randrange(n - 1), inverse=rng.random() < 0.5)
            assert invariants(current) == inv


class TestEssentialise:
    def test_known_examples(self):
        assert essentialise(w((1, -1))).letters == (0, -1)
        assert essentialise(w((1, -1, 1))).letters == (0, -1, 0)
        assert essentialise(w((-6, -2, -2))).letters == (-2, -1, -1)

    def test_density_one_fixed_point(self):
        word = w((0, 1, 3))
        assert essentialise(word).letters == word.letters

    def test_frozen_rejected_over_integers(self):
        with pytest.raises(ValueError):
            essentialise(w((3, 3)))

    def test_finite_level_map(self):
        word = w((1, 3, 5), 6)  # density 2, anchor 1, level 3
        ess = essentialise(word)
        assert ess.modulus == 3 and ess.letters == (0, 1, 2)

    def test_result_has_density_one(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(2, 6)
            word = w([rng.randint(-8, 8) for _ in range(n)])
            if invariants(word).density == 0:
                continue
            assert invariants(essentialise(word)).density == 1


class TestPushThrough:
    def test_examples(self):
        assert push_through(w((9,)), 4) == 2 * 9 - 4
        assert push_through(w(()), 7) == 7
        assert push_through(w((0, 1)), 5) == 3

    def test_matches_explicit_moves(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(0, 6)
            letters = tuple(rng.randint(-8, 8) for _ in range(n))
            a = rng.randint(-8, 8)
            current = list(letters) + [a]
            for pos in range(n - 1, -1, -1):
                x, y = current[pos], current[pos + 1]
                current[pos], current[pos + 1] = 2 * x - y, x
            assert current[0] == push_through(w(letters), a)
            assert tuple(current[1:]) == letters

    def test_finite(self):
        assert push_through(w((0, 1), 5), 0) == 3  # (-1)^2*0 + 2*(0-1) mod 5

    @pytest.mark.parametrize("d", [None, 5, 6])
    def test_matches_invariant_weight(self, d):
        letters = range(-3, 4) if d is None else range(d)
        for n in range(4):
            for word_letters in iproduct(letters, repeat=n):
                word = w(word_letters, d)
                for a in letters:
                    b = (-1) ** n * a + 2 * invariants(word).weight
                    assert push_through(word, a) == (b if d is None else b % d)


# criterion 10's word sets, then moduli of density d at length 1 (d = 1, 2,
# 7, 12), odd levels (d = 7, and 12 at density 4) and a larger alphabet
COLUMN_BOXES = [(d, n) for d in (3, 4, 5, 6) for n in range(1, 7)] + [
    (d, n) for d in (1, 2, 7, 12) for n in range(1, 5)
]


class TestLetterColumns:
    @pytest.mark.parametrize("d, n", COLUMN_BOXES)
    def test_box_rows_equal_invariants(self, d, n):
        fields = invariant_columns(_letter_columns(range(d), n), d)
        rows = np.stack(fields, axis=1).tolist()
        words = list(iproduct(range(d), repeat=n))
        assert len(rows) == len(words) == d**n
        assert rows == [list(invariants(w(word, d))[1:6]) for word in words]

    def test_box_covers_single_letters_and_odd_levels(self):
        density = invariant_columns(_letter_columns(range(12), 3), 12)[1]
        assert (invariant_columns(_letter_columns(range(7), 1), 7)[1] == 7).all()
        assert {12 // int(g) % 2 for g in np.unique(density)} == {0, 1}

    @pytest.mark.parametrize("d", [1, 2, 5, 6, 12])
    def test_fields_are_plain_ints(self, d):
        for n in range(4):
            for word in iproduct(range(d), repeat=n):
                inv = invariants(w(word, d))
                assert all(type(field) is int for field in inv)
                json.dumps(_invariants_json(inv))

    def test_push_columns_on_the_move_box(self):
        for n in MOVE_LENGTHS:
            *word, a = _letter_columns(MOVE_LETTERS, n + 1)
            scalar = [
                push_through(w(letters), x) for *letters, x in iproduct(MOVE_LETTERS, repeat=n + 1)
            ]
            assert push_columns(word, a).tolist() == scalar

    @pytest.mark.parametrize("d", [5, 6])
    def test_push_columns_mod_d(self, d):
        for n in range(1, 4):
            *word, a = _letter_columns(range(d), n + 1)
            scalar = [
                push_through(w(letters, d), x) for *letters, x in iproduct(range(d), repeat=n + 1)
            ]
            assert push_columns(word, a, d).tolist() == scalar


class TestNormalForm:
    def test_length3(self):
        nf = normal_form(w((1, -1, 1)))
        assert nf.shape == "length3" and nf.word.letters == (5, 5, 3)

    def test_frozen(self):
        nf = normal_form(w((7, 7, 7)))
        assert nf.shape == "frozen-power" and nf.word.letters == (7, 7, 7)

    def test_empty(self):
        assert normal_form(w(())).shape == "empty"

    def test_length2_canonical(self):
        nf = normal_form(w((1, 0)))
        assert nf.word.letters == (0, -1)

    def test_standard_shape_infinite(self):
        word = w((0, 1, 0, 3))
        nf = normal_form(word)
        assert nf.shape == "standard"
        assert elements_equal(word, nf.word)
        assert reflection_orbit_equal_infinite(word.letters, nf.word.letters)

    def test_fixpoint(self):
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randint(0, 6)
            word = w([rng.randint(-6, 6) for _ in range(n)])
            nf = normal_form(word)
            assert normal_form(nf.word).word == nf.word

    def test_finite_odd_level_unique_presentation(self):
        # R_5 full words of length 4: canonical form e_0^k e_1 e_c
        sol = reflection_solution(5)
        enum = monoid_orbit_enumerate(sol, 4)
        for rep in enum.representatives[4]:
            word = w(rep, 5)
            if invariants(word).density != 1:
                continue
            nf = normal_form(word)
            assert nf.shape == "standard"
            k, l, c = nf.params
            assert l == 1
            assert enum.same_orbit(rep, nf.word.letters)

    def test_finite_orbit_membership(self):
        rng = random.Random(7)
        for d in (3, 4, 5, 6):
            sol = reflection_solution(d)
            enum = monoid_orbit_enumerate(sol, 6)
            for _ in range(150):
                n = rng.randint(1, 6)
                letters = tuple(rng.randrange(d) for _ in range(n))
                nf = normal_form(w(letters, d))
                assert enum.same_orbit(letters, nf.word.letters)

    def test_canonical_on_whole_orbits(self):
        # every word of an orbit produces the identical canonical word
        for d in (3, 4, 5):
            for n in (2, 3, 4, 5):
                forms = {}
                for letters in iproduct(range(d), repeat=n):
                    word = w(letters, d)
                    key = invariants(word)
                    nf_word = normal_form(word).word.letters
                    forms.setdefault(key, set()).add(nf_word)
                assert all(len(reps) == 1 for reps in forms.values())

    def test_infinite_orbit_membership(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            word = w([rng.randint(-3, 3) for _ in range(n)])
            nf = normal_form(word)
            closure = reflection_orbit_closure(word.letters, margin=12)
            assert nf.word.letters in closure
            checked += 1
        assert checked == 60


class TestEquality:
    def test_examples(self):
        assert elements_equal(w((0, -1)), w((1, 0)))
        assert not elements_equal(w((1, 1)), w((2, 2)))
        word = w((2, 0, 1, 4))
        assert elements_equal(word, normal_form(word).word)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            elements_equal(w((1,)), w((1,), 5))

    def test_matches_orbit_oracle_finite(self):
        for d in (3, 4, 5, 6):
            sol = reflection_solution(d)
            enum = monoid_orbit_enumerate(sol, 5)
            rng = random.Random(d)
            for _ in range(400):
                n = rng.randint(1, 5)
                u = tuple(rng.randrange(d) for _ in range(n))
                v = tuple(rng.randrange(d) for _ in range(n))
                assert elements_equal(w(u, d), w(v, d)) == enum.same_orbit(u, v)

    def test_completeness_per_length(self):
        for d in (3, 4, 5, 6):
            enum = monoid_orbit_enumerate(reflection_solution(d), 6)
            for n in range(1, 7):
                keys = {
                    invariants(w(word, d)) for word in iproduct(range(d), repeat=n)
                }
                assert len(keys) == enum.counts[n]

    def test_squares_central(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 5)
            letters = [rng.randint(-6, 6) for _ in range(n)]
            a = rng.randint(-6, 6)
            left = w([a, a] + letters)
            right = w(letters + [a, a])
            assert elements_equal(left, right)

    def test_powers_lemma_desk_scale(self):
        # orbit-equal words with same-parity exponents stay orbit-equal after
        # powering, up to permuting the exponents
        rng = random.Random(10)
        for _ in range(60):
            base = w([rng.randint(-3, 3) for _ in range(3)])
            word = base
            for _ in range(4):
                if len(word) >= 2:
                    word = word.apply_move(rng.randrange(len(word) - 1))
            exps = [rng.choice([1, 3]) for _ in range(3)]
            powered_base = w(
                [a for letter, k in zip(base.letters, exps) for a in [letter] * k]
            )
            found = False
            for sigma in iterperms(range(3)):
                powered_other = w(
                    [
                        a
                        for letter, k in zip(word.letters, [exps[s] for s in sigma])
                        for a in [letter] * k
                    ]
                )
                if elements_equal(powered_base, powered_other):
                    found = True
                    break
            assert found


class TestDensityOfProduct:
    def test_examples(self):
        t1 = InvariantTuple(None, 0, 4, 2, 1, 1, 2)
        t2 = InvariantTuple(None, 0, 6, 0, 1, 1, 2)
        assert density_of_product(t1, t2) == 2
        assert density_of_product(t1, t1) == 4

    def test_full_absorbs(self):
        full = invariants(w((0, 1, 3)))
        other = invariants(w((5, 9)))
        assert density_of_product(full, other) == 1

    def test_matches_concatenation(self):
        rng = random.Random(11)
        for _ in range(400):
            nu = rng.randint(1, 4)
            nv = rng.randint(1, 4)
            u = w([rng.randint(-8, 8) for _ in range(nu)])
            v = w([rng.randint(-8, 8) for _ in range(nv)])
            assert density_of_product(invariants(u), invariants(v)) == invariants(u * v).density

    def test_matches_concatenation_finite(self):
        rng = random.Random(12)
        for _ in range(400):
            d = rng.randint(2, 12)
            u = w([rng.randrange(d) for _ in range(rng.randint(1, 4))], d)
            v = w([rng.randrange(d) for _ in range(rng.randint(1, 4))], d)
            assert density_of_product(invariants(u), invariants(v)) == invariants(u * v).density


@pytest.fixture
def unfactored(monkeypatch):
    """Patch out the factoring the lemmas' congruences come from, and yield
    the function that undoes the patch."""
    monkeypatch.setattr(reflection_monoid, "_prime_factors", lambda n: ())
    yield monkeypatch.undo


class TestArithmeticLemmas:
    def test_witness_examples(self):
        n = triple_gcd_witness(2, 4, 3)
        assert math.gcd(2 + 3 * n, 4 + 3 * n) == 1
        n = triple_gcd_witness(1, 4, 2, parity=0)
        assert n % 2 == 0 and math.gcd(1 + 2 * n, 4 + 2 * n) == 1
        assert triple_gcd_witness(3, 7, 0) >= 1

    def test_witness_preconditions(self):
        with pytest.raises(ValueError):
            triple_gcd_witness(2, 2, 1)
        with pytest.raises(ValueError):
            triple_gcd_witness(1, 3, 5, parity=0)  # same parity a, b

    def test_lift_examples(self):
        m = lift_to_coprime([2, 4], 5, force_odd=True)
        values = [2 + 5 * m[0], 4 + 5 * m[1]]
        assert all(v % 2 == 1 for v in values) and math.gcd(*values) == 1
        assert lift_to_coprime([1, 1], 9) is not None
        m = lift_to_coprime([0, 3], 9)
        assert math.gcd(0 + 9 * m[0], 3 + 9 * m[1]) == 3

    @pytest.mark.parametrize(
        "anchor, d",
        [(4, 4), (12, 2), (8, 6), (9, 3), (18, 12), (20, 5), (27, 9), (25, 15)],
    )
    def test_lift_repeated_prime_anchors(self, anchor, d):
        # anchors with p^2 | x, or with p | gcd but p still dividing x / gcd
        box = range(-12, 13)
        boxes = [[(anchor, v) for v in box], [(anchor, u, v) for u, v in iproduct(box, repeat=2)]]
        for force_odd in (False, True) if d % 2 else (False,):
            for rows in boxes:  # one box call per arity
                offsets = coprime_lifts(np.array(rows), d, force_odd).tolist()
                for values, m in zip(rows, offsets):
                    final = [v + mi * d for v, mi in zip(values, m)]
                    assert math.gcd(*final) == math.gcd(d, *values)
                    assert not force_odd or all(v % 2 for v in final)

    def test_witness_checks_its_answer(self, unfactored):
        # without the prime constraints the CRT answer n = 1 gives gcd(2, 4) = 2
        with pytest.raises(AssertionError):
            triple_gcd_witness(1, 3, 1)
        with pytest.raises(AssertionError):  # one failing row among good ones
            gcd_witnesses([2, 1, 2], [7, 3, 7], [1, 1, 1])

    def test_lift_checks_its_answer(self, unfactored):
        # without the prime constraints the lift keeps gcd(2, 4) = 2
        with pytest.raises(AssertionError):
            lift_to_coprime([2, 4], 1)
        with pytest.raises(AssertionError):
            coprime_lifts([[0, 0], [2, 4], [0, 0]], 1)
        with pytest.raises(AssertionError):
            triple_gcd_witness(1, 3, 1)
        unfactored()
        # with the factoring back, the same calls solve and pass their checks
        assert lift_to_coprime([2, 4], 1) == [0, 1]
        assert coprime_lifts([[0, 0], [2, 4], [0, 0]], 1).tolist() == [[1, 1], [0, 1], [1, 1]]
        n = triple_gcd_witness(1, 3, 1)
        assert math.gcd(1 + n, 3 + n) == 1

    def test_every_row_is_checked(self, monkeypatch):
        # solvers that answer wrongly and check nothing: the rows catch them
        monkeypatch.setattr(reflection_monoid, "_reduced_witness", lambda ar, br, parity: 1)
        monkeypatch.setattr(reflection_monoid, "_pair_lift", lambda x, v, step: 0)
        with pytest.raises(AssertionError):
            gcd_witnesses([2, 1, 2], [7, 3, 7], [1, 1, 1])
        with pytest.raises(AssertionError):
            coprime_lifts([[0, 0], [2, 4], [0, 0]], 1)
        with pytest.raises(AssertionError):
            triple_gcd_witness(1, 3, 1)
        with pytest.raises(AssertionError):
            lift_to_coprime([2, 4], 1)

    def test_lift_preconditions(self):
        with pytest.raises(ValueError):
            lift_to_coprime([1], 3)
        with pytest.raises(ValueError):
            lift_to_coprime([1, 2], 4, force_odd=True)

    def test_randomized(self):
        rng = random.Random(13)
        for _ in range(2000):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            if a == b:
                continue
            c = rng.randint(-40, 40)
            parity = rng.randint(0, 1) if (a - b) % 2 else None
            n = triple_gcd_witness(a, b, c, parity)
            assert n >= 1
            assert math.gcd(math.gcd(abs(a + n * c), abs(b + n * c)), 0) == math.gcd(
                math.gcd(abs(a), abs(b)), abs(c)
            )
            if parity is not None:
                assert n % 2 == parity


def _mixed_triples(parity):
    box = range(-6, 7)
    rows = [
        (a, b, c)
        for a, b, c in iproduct(box, box, (-5, 0, 1, 4))
        if a != b and (parity is None or (a - b) % 2)
    ]
    return rows + rows[::7]  # repeated rows


def _mixed_lifts(k):
    rows = list(iproduct(range(-2, 3), repeat=k))  # holds the all-zero row
    return rows + [(0,) * k, (6,) * k] + rows[::5]


class TestBoxForms:
    @pytest.mark.parametrize("parity", [None, 0, 1])
    def test_witnesses_match_one_row_calls(self, parity):
        rows = _mixed_triples(parity)
        n = gcd_witnesses(*np.array(rows).T, parity)
        assert n.dtype == np.int64
        assert n.tolist() == [triple_gcd_witness(a, b, c, parity) for a, b, c in rows]

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize(
        "d, force_odd",
        [(-3, False), (-3, True), (0, False), (1, False), (1, True), (9, False), (9, True)],
    )
    def test_lifts_match_one_row_calls(self, d, force_odd, k):
        rows = _mixed_lifts(k)
        m = coprime_lifts(np.array(rows), d, force_odd)
        assert m.dtype == np.int64 and m.shape == (len(rows), k)
        assert m.tolist() == [lift_to_coprime(values, d, force_odd) for values in rows]

    def test_empty_boxes(self):
        assert gcd_witnesses([], [], [], 1).tolist() == []
        assert coprime_lifts(np.zeros((0, 3), dtype=int), 5, True).shape == (0, 3)

    def test_one_offending_row_raises(self):
        rows = np.array(_mixed_triples(1)).T
        a, b, c = (x.copy() for x in rows)
        a[5] = b[5]
        with pytest.raises(ValueError, match="a != b"):
            gcd_witnesses(a, b, c)
        a, b, c = (x.copy() for x in rows)
        b[5] = a[5] + 2
        with pytest.raises(ValueError, match="different parity"):
            gcd_witnesses(a, b, c, 0)
        with pytest.raises(ValueError, match="0 or 1"):
            gcd_witnesses(*rows, 2)
        with pytest.raises(ValueError, match="0 or 1"):
            triple_gcd_witness(1, 2, 3, -1)
        with pytest.raises(ValueError, match="two values"):
            coprime_lifts(np.arange(6).reshape(6, 1), 5)
        with pytest.raises(ValueError, match="two values"):
            coprime_lifts(np.arange(6), 5)
        with pytest.raises(ValueError, match="odd d"):
            coprime_lifts(np.array(_mixed_lifts(3)), 0, force_odd=True)
        with pytest.raises(ValueError, match="odd d"):
            coprime_lifts(np.array(_mixed_lifts(3)), -4, force_odd=True)
        with pytest.raises(TypeError):  # as math.gcd refuses a float
            triple_gcd_witness(2.5, 4, 3)
        with pytest.raises(TypeError):
            gcd_witnesses(np.array([2.5, 1.0]), [4, 3], [3, 3])


class TestLemmasPastInt64:
    """Inputs whose intermediates leave int64 take the object-dtype path; its
    answers are recomputed here with math.gcd on Python ints."""

    TRIPLES = [
        # a + n c = 2**64 + 3 for the witness n = 3
        (2**62, 2**62 + 3, 2**62 + 1),
        (2**70, 2**70 + 15, 2**70 - 1),
        (2**62 + 1, 2**62 - 4, -(2**62)),
        (-(2**70), -(2**70) + 9, 3),
    ]
    # only the anchor (the first nonzero lifted value) is factored, so each
    # anchor has small prime factors; as a list, the third would read as
    # float64 through np.asarray
    LIFTS = [
        ([3**44, 2**70, 2**62 + 5], 2**62 + 1, False),
        ([3**44, 2**70, 2**62 + 5], 2**62 + 1, True),
        ([2**70, 3, -(2**62)], 2**70 + 6, False),
        ([0, 3 * 2**62, 2**62 + 2], 3**39, False),
        ([0, 3 * 2**62, 2**62 + 2], 3**39, True),
        ([3**40, 2**62 - 1], 9, False),
        ([3**40, 2**62 - 1], 9, True),
    ]

    def test_overflow_case_is_real(self):
        a, b, c = self.TRIPLES[0]
        assert triple_gcd_witness(a, b, c) == 3 and a + 3 * c >= 2**63

    def test_numpy_integer_inputs(self):
        # int64 scalars and uint64 arrays past the bound are read as ints,
        # so a + n c does not wrap around
        a, b, c = self.TRIPLES[0]
        assert triple_gcd_witness(np.int64(a), np.int64(b), np.int64(c)) == 3
        n = gcd_witnesses(np.array([a], dtype=np.uint64), [b], [c])
        assert n.dtype == object and n.tolist() == [3]
        values = np.array([[3**40, 2**63]], dtype=np.uint64)
        m = coprime_lifts(values, 9, force_odd=True)
        final = [int(v) + 9 * mi for v, mi in zip(values[0], m[0])]
        assert math.gcd(*final) == 1 and all(v % 2 for v in final)

    @pytest.mark.parametrize("parity", [None, 0, 1])
    def test_witnesses(self, parity):
        a, b, c = (np.array(x, dtype=object) for x in zip(*self.TRIPLES))
        box = gcd_witnesses(a, b, c, parity)
        assert box.dtype == object
        for (a, b, c), n in zip(self.TRIPLES, box.tolist()):
            assert n == triple_gcd_witness(a, b, c, parity) and n >= 1
            assert math.gcd(a + n * c, b + n * c) == math.gcd(a, b, c)
            assert parity in (None, n % 2)

    @pytest.mark.parametrize("values, d, force_odd", LIFTS)
    def test_lifts(self, values, d, force_odd):
        rows = [values, values, values[:1] * len(values)]
        box = coprime_lifts(rows, d, force_odd)
        assert box.dtype == object
        for row, m in zip(rows, box.tolist()):
            assert m == lift_to_coprime(row, d, force_odd)
            final = [v + mi * d for v, mi in zip(row, m)]
            assert math.gcd(*final) == math.gcd(d, *row)
            assert not force_odd or all(v % 2 for v in final)

    def test_int64_up_to_the_bound(self):
        bound = reflection_monoid._INT64_BOUND
        rows = [(bound, -bound + 1, bound), (-bound, bound - 3, -bound)]
        n = gcd_witnesses(*np.array(rows).T)
        assert n.dtype == np.int64
        for (a, b, c), w in zip(rows, n.tolist()):
            assert math.gcd(a + w * c, b + w * c) == math.gcd(a, b, c)
        assert gcd_witnesses([bound + 1], [0], [1]).dtype == object


class TestFRS:
    def test_embed_odd(self):
        image = frs_embed(w((0, 1), 5))
        assert image == (4, 2)
        assert frs_image_contains(5, image)

    def test_embed_even(self):
        image = frs_embed(w((0, 1), 6))
        assert image == (5, 1, 1)
        assert frs_image_contains(6, image)

    def test_non_full_rejected(self):
        with pytest.raises(ValueError, match="not full"):
            frs_embed(w((0, 2), 4))

    def test_length2_weights_are_units(self):
        for d in range(2, 13):
            units = set()
            for a in range(d):
                for b in range(d):
                    word = w((a, b), d)
                    if invariants(word).density == 1:
                        units.add(invariants(word).weight)
            assert units == {m for m in range(d) if math.gcd(m, d) == 1}

    def test_full_count_length2_is_phi(self):
        for d in range(2, 13):
            count = sum(
                1
                for a in range(d)
                for b in range(d)
                if invariants(w((a, b), d)).density == 1
            )
            # phi(d) orbits, each of size d (the first letter is free)
            assert count == euler_phi(d) * d

    def test_image_counts_match_oracle(self):
        for d in (3, 4, 5, 6):
            enum = monoid_orbit_enumerate(reflection_solution(d), 5)
            for n in range(2, 6):
                full_orbits = sum(
                    1
                    for rep in enum.representatives[n]
                    if invariants(w(rep, d)).density == 1
                )
                if d % 2 == 0:
                    members = sum(
                        1
                        for m in range(d)
                        for k in range(1, n)
                        if frs_image_contains(d, (m, k, n - k))
                    )
                else:
                    members = sum(1 for m in range(d) if frs_image_contains(d, (m, n)))
                assert full_orbits == members

    def test_growth_small(self):
        assert frs_growth_gf(1) == RationalGF(T, ONE_MINUS_T)
        assert expand_rational(frs_growth_gf(5), 5).integer_coefficients() == [0, 0, 4, 5, 5, 5]
        expected2 = RationalGF(Polynomial([0, 0, 1])) + RationalGF(
            Polynomial([0, 0, 0, 2, -1]), ONE_MINUS_T**2
        )
        assert frs_growth_gf(2) == expected2


class TestMonoidGrowth:
    def test_small_cases(self):
        assert monoid_growth_reflections(1) == RationalGF(ONE, ONE_MINUS_T)
        assert monoid_growth_reflections(2) == RationalGF(ONE, ONE_MINUS_T**2)
        assert expand_rational(monoid_growth_reflections(5), 4).integer_coefficients() == [
            1, 5, 9, 10, 10,
        ]

    def test_matches_oracle(self):
        for d in range(2, 9):
            counts = monoid_orbit_enumerate(reflection_solution(d), 5).counts
            expansion = expand_rational(monoid_growth_reflections(d), 5)
            assert counts == expansion.integer_coefficients()

    def test_route_agreement_up_to_30(self):
        for d in range(1, 31):
            monoid_growth_reflections(d)  # raises if the two routes disagree

    def test_helpers(self):
        assert euler_phi(9) == 6 and euler_phi(1) == 1
        assert divisor_count(12) == 6
        from fractions import Fraction

        assert divisor_count(Fraction(5, 2)) == 0
        assert divisor_count(Fraction(12, 1)) == divisor_count(12.0) == 6
        assert divisor_count(2.5) == divisor_count(0) == divisor_count(-4) == 0
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_totient_and_divisor_count_by_brute_force(self):
        for n in range(1, 3001):
            k = np.arange(1, n + 1)
            assert euler_phi(n) == np.count_nonzero(np.gcd(k, n) == 1)
            assert divisor_count(n) == np.count_nonzero(n % k == 0)
            assert divisors(n) == k[n % k == 0].tolist()


class TestGroupInvariantExtension:
    def test_signed_words_respect_relations(self):
        # the weight/even/odd triple extends to signed words via the
        # semidirect product Z x| (Z x Z); defining relations are preserved
        def gen_image(a, sign):
            vec = (a, 1, 0) if a % 2 == 0 else (a, 0, 1)
            if sign < 0:
                m, k, l = vec
                s = -1 if (k + l) % 2 else 1
                return (s * -m, -k, -l)
            return vec

        def mul(p, q):
            s = -1 if (p[1] + p[2]) % 2 else 1
            return (p[0] + s * q[0], p[1] + q[1], p[2] + q[2])

        rng = random.Random(14)
        for _ in range(1000):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            lhs = mul(gen_image(x, 1), gen_image(y, 1))
            rhs = mul(gen_image(2 * x - y, 1), gen_image(x, 1))
            assert lhs == rhs
            # inverted relation: e_y^-1 e_x^-1 = e_x^-1 e_{x>y}^-1
            lhs_inv = mul(gen_image(y, -1), gen_image(x, -1))
            rhs_inv = mul(gen_image(x, -1), gen_image(2 * x - y, -1))
            assert lhs_inv == rhs_inv
