import itertools
import math
import random

import pytest

from ybe_growth.algebra import Permutation, transposition_solution
from ybe_growth.oracle import monoid_orbit_enumerate
from ybe_growth.series import ONE, Polynomial, RationalGF, T, expand_rational
from ybe_growth.transposition_monoid import (
    TranspositionWord,
    egf_column,
    egf_transposition_monoids,
    fts_embed,
    fts_growth_gf,
    fts_image_membership,
    fts_normal_form,
    min_transposition_factorization,
    monoid_growth_transpositions,
    word_partition,
)

ONE_MINUS_T = ONE - T


def tw(pairs, d):
    return TranspositionWord(pairs, d)


class TestWordPartition:
    def test_known_examples(self):
        a = tw([(0, 1), (1, 2), (3, 4), (0, 1)], 5)
        assert word_partition(a).blocks == ((0, 1, 2), (3, 4))
        b = tw([(1, 2), (0, 4), (1, 4), (2, 3), (0, 1)], 5)
        assert word_partition(b).is_full()

    def test_empty_word(self):
        assert word_partition(tw([], 3)).blocks == ((0,), (1,), (2,))

    def test_constant_on_orbits(self):
        sol = transposition_solution(3)
        pair_of = dict(enumerate(sol.labels))
        enum = monoid_orbit_enumerate(sol, 5)
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 5)
            letters = tuple(rng.randrange(3) for _ in range(n))
            base = word_partition(tw([pair_of[k] for k in letters], 3))
            length, oid = enum.orbit_id(letters)
            rep = next(
                r for r in enum.representatives[n] if enum.orbit_id(r) == (length, oid)
            )
            assert word_partition(tw([pair_of[k] for k in rep], 3)) == base

    def test_single_moves_preserve_partition(self):
        sol = transposition_solution(4)
        pair_of = dict(enumerate(sol.labels))
        rng = random.Random(2)
        for _ in range(5000):
            n = rng.randint(2, 7)
            letters = list(rng.randrange(6) for _ in range(n))
            pos = rng.randrange(n - 1)
            moved = list(letters)
            moved[pos], moved[pos + 1] = sol.apply(letters[pos], letters[pos + 1]), letters[pos]
            before = word_partition(tw([pair_of[k] for k in letters], 4))
            after = word_partition(tw([pair_of[k] for k in moved], 4))
            assert before == after

    def test_matches_component_search(self):
        rng = random.Random(5)
        for _ in range(2000):
            d = rng.randint(2, 8)
            pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
            word = tw([rng.choice(pairs) for _ in range(rng.randint(0, 2 * d))], d)
            assert word_partition(word).blocks == _bfs_components(word.letters, d)

    def test_product_partition_is_join(self):
        rng = random.Random(2)
        for _ in range(100):
            d = rng.randint(2, 6)
            pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
            u = tw([rng.choice(pairs) for _ in range(rng.randint(0, 4))], d)
            v = tw([rng.choice(pairs) for _ in range(rng.randint(0, 4))], d)
            assert word_partition(u * v) == word_partition(u).join(word_partition(v))


def _bfs_components(letters, d):
    """Reference partition: breadth-first search from each unseen point."""
    neighbours = [set() for _ in range(d)]
    for i, j in letters:
        neighbours[i].add(j)
        neighbours[j].add(i)
    blocks, seen = [], set()
    for start in range(d):
        if start in seen:
            continue
        block, frontier = {start}, [start]
        while frontier:
            frontier = [y for x in frontier for y in neighbours[x] if y not in block]
            block.update(frontier)
        seen |= block
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


class TestEmbedding:
    def test_single_letter(self):
        image = fts_embed(tw([(0, 1)], 2))
        assert image.perm == Permutation.transposition(2, 0, 1) and image.length == 1

    def test_square(self):
        image = fts_embed(tw([(0, 1), (0, 1)], 2))
        assert image.perm == Permutation.identity(2) and image.length == 2

    def test_composite_three_cycle(self):
        image = fts_embed(tw([(0, 1), (1, 2)], 3))
        assert image.perm.cycle_type() == (3,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fts_embed(tw([], 3))

    def test_constant_on_orbits(self):
        sol = transposition_solution(4)
        pair_of = dict(enumerate(sol.labels))
        enum = monoid_orbit_enumerate(sol, 5)
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 5)
            letters = tuple(rng.randrange(6) for _ in range(n))
            word = tw([pair_of[k] for k in letters], 4)
            moved_pos = rng.randint(0, n - 2) if n >= 2 else None
            if moved_pos is None:
                continue
            x, y = letters[moved_pos], letters[moved_pos + 1]
            moved = (
                letters[:moved_pos]
                + (sol.apply(x, y), x)
                + letters[moved_pos + 2 :]
            )
            moved_word = tw([pair_of[k] for k in moved], 4)
            assert fts_embed(word) == fts_embed(moved_word)


class TestMembership:
    @pytest.mark.parametrize(
        "perm, m, d, expected",
        [
            ((0, 1, 2), 2, 3, False),
            ((0, 1, 2), 4, 3, True),
            ((1, 0, 2), 1, 3, False),
            ((1, 0, 2), 3, 3, True),
            ((1, 0), 1, 2, True),
        ],
    )
    def test_examples(self, perm, m, d, expected):
        assert fts_image_membership(Permutation(perm), m, d) is expected

    @pytest.mark.parametrize("d,max_len", [(3, 8), (4, 8)])
    def test_against_orbit_oracle(self, d, max_len):
        sol = transposition_solution(d)
        pair_of = dict(enumerate(sol.labels))
        enum = monoid_orbit_enumerate(sol, max_len, budget=3 * 10**6)
        perms = [Permutation(p) for p in itertools.permutations(range(d))]
        for n in range(1, max_len + 1):
            full_images = {
                fts_embed(tw([pair_of[k] for k in rep], d)).perm.images
                for rep in enum.representatives[n]
                if word_partition(tw([pair_of[k] for k in rep], d)).is_full()
            }
            for p in perms:
                assert (p.images in full_images) == fts_image_membership(p, n, d)


class TestNormalForm:
    def test_frozen_powers(self):
        nf = fts_normal_form(Permutation.identity(2), 4, 2)
        assert nf.letters == ((0, 1),) * 4

    def test_known_examples(self):
        nf = fts_normal_form(Permutation.transposition(3, 0, 1), 3, 3)
        assert nf.letters == ((1, 2), (1, 2), (0, 1))
        nf = fts_normal_form(Permutation.identity(3), 4, 3)
        assert nf.letters == ((0, 1), (0, 1), (1, 2), (1, 2))

    def test_outside_image_rejected(self):
        with pytest.raises(ValueError):
            fts_normal_form(Permutation.identity(3), 2, 3)

    def test_embed_of_normal_form_is_identity(self):
        rng = random.Random(4)
        for _ in range(200):
            d = rng.randint(2, 5)
            group_perms = [Permutation(p) for p in _random_perms(rng, d, 1)]
            g = group_perms[0]
            l = g.transposition_length()
            m = 2 * (d - 1) - l + 2 * rng.randint(0, 3)
            if m < 1:
                continue
            word = fts_normal_form(g, m, d)
            image = fts_embed(word)
            assert image.perm == g and image.length == m
            assert word_partition(word).is_full()

    def test_idempotent(self):
        g = Permutation((1, 0, 3, 2))
        word = fts_normal_form(g, 8, 4)
        again = fts_normal_form(fts_embed(word).perm, fts_embed(word).length, 4)
        assert word == again

    def test_matches_greedy_reference(self):
        # every (perm, m) of the image for 2 <= d <= 6 and m <= 2d + 5
        words = 0
        for d in range(2, 7):
            for images in itertools.permutations(range(d)):
                perm = Permutation(images)
                for m in range(1, 2 * d + 6):
                    if fts_image_membership(perm, m, d):
                        assert fts_normal_form(perm, m, d).letters == _greedy_normal_form(perm, m, d)
                        words += 1
        assert words == 5174

    def test_orbit_equal_to_other_representatives(self):
        sol = transposition_solution(3)
        pair_of = dict(enumerate(sol.labels))
        index_of = {pair: k for k, pair in pair_of.items()}
        enum = monoid_orbit_enumerate(sol, 6)
        for n in range(1, 7):
            for rep in enum.representatives[n]:
                word = tw([pair_of[k] for k in rep], 3)
                if not word_partition(word).is_full():
                    continue
                image = fts_embed(word)
                nf = fts_normal_form(image.perm, image.length, 3)
                encoded = tuple(index_of[p] for p in nf.letters)
                assert enum.same_orbit(rep, encoded)


def _greedy_normal_form(perm, m, d):
    """Reference normal form: a union-find over the canonical factorization,
    then one square e_(i,i+1)^2 for each i whose join to i + 1 merges two
    components, in order of i."""
    suffix = min_transposition_factorization(perm)
    squares = (m - perm.transposition_length()) // 2
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in suffix:
        parent[find(j)] = find(i)
    prefix = []
    for i in range(d - 1):
        if find(i) != find(i + 1):
            parent[find(i + 1)] = find(i)
            prefix += [(i, i + 1)] * 2
    prefix += [(d - 2, d - 1)] * (2 * squares - len(prefix))
    return tuple(prefix + suffix)


def _random_perms(rng, d, count):
    out = []
    for _ in range(count):
        images = list(range(d))
        rng.shuffle(images)
        out.append(tuple(images))
    return out


class TestFactorization:
    def test_cycle_factorization(self):
        g = Permutation((1, 2, 0, 4, 3))  # (1 2 3)(4 5)
        assert min_transposition_factorization(g) == [(0, 1), (1, 2), (3, 4)]

    def test_length_matches(self):
        rng = random.Random(5)
        for _ in range(100):
            d = rng.randint(2, 6)
            g = Permutation(_random_perms(rng, d, 1)[0])
            factors = min_transposition_factorization(g)
            assert len(factors) == g.transposition_length()
            prod = Permutation.identity(d)
            for i, j in factors:
                prod = prod * Permutation.transposition(d, i, j)
            assert prod == g


class TestGrowth:
    def test_small_closed_forms(self):
        assert fts_growth_gf(2) == RationalGF(T, ONE_MINUS_T)
        assert fts_growth_gf(3) == RationalGF(Polynomial([0, 0, 2, 1]), ONE_MINUS_T)
        assert expand_rational(fts_growth_gf(4), 6).integer_coefficients() == [
            0, 0, 0, 6, 11, 12, 12,
        ]

    def test_stable_coefficient_is_half_factorial(self):
        for d in (3, 4, 5):
            series = expand_rational(fts_growth_gf(d), 2 * d)
            coeffs = series.integer_coefficients()
            for n in range(2 * d - 3, 2 * d + 1):
                assert coeffs[n] == math.factorial(d) // 2

    def test_coefficients_count_image_pairs(self):
        # coefficient n of the full-part series counts pairs (g, n) in the
        # image of the embedding into S_d x N
        for d in (3, 4):
            perms = [Permutation(p) for p in itertools.permutations(range(d))]
            coeffs = expand_rational(fts_growth_gf(d), 8).integer_coefficients()
            for n in range(1, 9):
                members = sum(1 for p in perms if fts_image_membership(p, n, d))
                assert coeffs[n] == members

    def test_monoid_growth_small(self):
        assert monoid_growth_transpositions(2) == RationalGF(ONE, ONE_MINUS_T)
        expected3 = RationalGF(Polynomial([1, 1]) * Polynomial([1, 1, 1]), ONE_MINUS_T)
        assert monoid_growth_transpositions(3) == expected3
        assert expand_rational(monoid_growth_transpositions(3), 5).integer_coefficients() == [
            1, 3, 5, 6, 6, 6,
        ]

    def test_monoid_growth_d4_display(self):
        t_over = RationalGF(T, ONE_MINUS_T)
        expected = (
            RationalGF(ONE)
            + 6 * t_over
            + 4 * RationalGF(Polynomial([0, 0, 2, 1]), ONE_MINUS_T)
            + RationalGF(Polynomial([0, 0, 0, 6, 5, 1]), ONE_MINUS_T)
            + 3 * t_over**2
        )
        assert monoid_growth_transpositions(4) == expected

    def test_monoid_growth_matches_oracle(self):
        for d, max_len in ((2, 7), (3, 7), (4, 6)):
            counts = monoid_orbit_enumerate(transposition_solution(d), max_len).counts
            expansion = expand_rational(monoid_growth_transpositions(d), max_len)
            assert counts == expansion.integer_coefficients()

    def test_guard(self):
        with pytest.raises(ValueError):
            monoid_growth_transpositions(13)


class TestEGF:
    def test_columns_match_per_d_formulas(self):
        egf = egf_transposition_monoids(8, 4)
        for d in range(5):
            assert egf_column(egf, d) == expand_rational(
                monoid_growth_transpositions(d), 8
            )

    def test_columns_match_through_d6(self):
        egf = egf_transposition_monoids(10, 6)
        for d in (5, 6):
            assert egf_column(egf, d) == expand_rational(
                monoid_growth_transpositions(d), 10
            )

    def test_columns_match_through_d12_at_order_40(self):
        egf = egf_transposition_monoids(40, 12)
        for d in range(13):
            assert egf_column(egf, d) == expand_rational(
                monoid_growth_transpositions(d), 40
            )

    def test_columns_past_the_per_d_formulas(self):
        # d = 13, 14 lie past monoid_growth_transpositions' d <= 12 guard
        egf = egf_transposition_monoids(5, 14)
        columns = [egf_column(egf, d).integer_coefficients() for d in range(15)]
        assert columns[13] == [1, 78, 2795, 60996, 906269, 9711780]
        assert columns[14] == [1, 91, 3822, 98280, 1730911, 22135295]

    def test_x0_column_is_one(self):
        egf = egf_transposition_monoids(5, 2)
        assert egf.coefficient_of_x(0).integer_coefficients() == [1, 0, 0, 0, 0, 0]

    def test_x1_column_is_trivial_monoid(self):
        egf = egf_transposition_monoids(5, 2)
        assert egf_column(egf, 1).integer_coefficients() == [1, 0, 0, 0, 0, 0]
