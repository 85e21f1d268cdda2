import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from ybe_growth import oracle
from ybe_growth.algebra import (
    FiniteGroupTable,
    Permutation,
    QuandleSolution,
    conjugation_solution,
    dihedral_reflections,
    generic_length_series,
    make_dihedral_group,
    make_symmetric_group,
    reflection_solution,
    symmetric_transpositions,
    transposition_solution,
)
from ybe_growth.oracle import (
    BudgetExceededError,
    WindowOrbit,
    class_quotient_spheres,
    conjugation_ball_generators,
    conjugation_ball_series,
    group_ball_enumerate,
    monoid_orbit_enumerate,
    orbit_equal,
    reflection_orbit_closure,
    reflection_orbit_equal_infinite,
)
from ybe_growth.reflection_monoid import monoid_growth_reflections
from ybe_growth.series import expand_rational
from ybe_growth.transposition_monoid import monoid_growth_transpositions


class TestOrbitEnumeration:
    def test_single_generator_free_monoid(self):
        counts = monoid_orbit_enumerate(transposition_solution(2), 4).counts
        assert counts == [1, 1, 1, 1, 1]

    def test_t3_counts(self):
        counts = monoid_orbit_enumerate(transposition_solution(3), 4).counts
        assert counts == [1, 3, 5, 6, 6]

    def test_r5_counts(self):
        counts = monoid_orbit_enumerate(reflection_solution(5), 3).counts
        assert counts == [1, 5, 9, 10]

    def test_budget_cutoff_is_flagged(self):
        enum = monoid_orbit_enumerate(transposition_solution(3), 6, budget=100)
        assert enum.truncated
        assert enum.max_length < 6
        assert len(enum.counts) == enum.max_length + 1

    def test_representatives_are_lex_minimal(self):
        enum = monoid_orbit_enumerate(reflection_solution(3), 3)
        for n in range(len(enum.counts)):
            reps = enum.representatives[n]
            assert reps == sorted(reps)
            for rep in reps:
                assert enum.same_orbit(rep, rep)

    @pytest.mark.parametrize("word", [(0, 3), (0, -1), (3,), (1, 0.5)])
    def test_letters_outside_the_solution_are_refused(self, word):
        # (0, 3) used to share the code of (1, 0), and (0, -1) to wrap to (2, 2)
        enum = monoid_orbit_enumerate(reflection_solution(3), 2)
        with pytest.raises(ValueError, match="outside 0..2"):
            enum.orbit_id(word)
        with pytest.raises(ValueError, match="outside 0..2"):
            enum.same_orbit(word[:1] * len(word), word)

    def test_orbit_counts_invariant_under_relabeling(self):
        # cyclic relabeling of R_d is a quandle automorphism
        d = 5
        base = reflection_solution(d)
        shift = lambda x: (x + 1) % d
        op = [[shift(base.op[(x - 1) % d][(y - 1) % d]) for y in range(d)] for x in range(d)]
        relabeled = QuandleSolution(op)
        assert (
            monoid_orbit_enumerate(base, 4).counts
            == monoid_orbit_enumerate(relabeled, 4).counts
        )

    def test_involutory_left_translations(self):
        # these solutions satisfy x > (x > y) = y, so the derived pair map
        # (x, y) -> (x, x > y) is an involution and forward/backward moves at
        # a position are mutually inverse
        for sol in (reflection_solution(7), transposition_solution(4)):
            for x in range(sol.size):
                for y in range(sol.size):
                    assert sol.apply(x, sol.apply(x, y)) == y
                    u, v = sol.apply(x, y), x  # forward move
                    assert (v, sol.apply(v, u)) == (x, y)  # backward move


class TestOrbitEqual:
    def test_reflexive(self):
        sol = transposition_solution(3)
        assert orbit_equal(sol, (0, 1), (0, 1))

    def test_single_move(self):
        sol = transposition_solution(3)
        # e_(1,2) e_(1,3) -> e_(2,3) e_(1,2): labels (0,1),(0,2),(1,2)
        assert orbit_equal(sol, (0, 1), (2, 0))

    def test_frozen_squares_distinct(self):
        sol = reflection_solution(5)
        assert not orbit_equal(sol, (1, 1), (2, 2))

    def test_length_mismatch(self):
        sol = reflection_solution(5)
        assert not orbit_equal(sol, (1,), (1, 1))

    def test_budget(self):
        sol = reflection_solution(5)
        with pytest.raises(BudgetExceededError):
            orbit_equal(sol, (0,) * 9, (1,) * 9, budget=10)

    def test_budget_counts_words_of_every_length(self):
        # (0, 1) -> (2, 0) is one move at the first position
        sol = transposition_solution(3)
        w1, w2 = (0, 1, 0, 0), (2, 0, 0, 0)
        total = sum(3**n for n in range(5))
        assert orbit_equal(sol, w1, w2, budget=total)
        with pytest.raises(BudgetExceededError):
            orbit_equal(sol, w1, w2, budget=total - 1)

    def test_letters_checked_before_any_shortcut(self):
        sol = reflection_solution(3)
        for w1, w2 in (((0, 7), (0, 7)), ((0, 7), (1, 0)), ((1, 0), (0, 7)), ((0, -1), (0,))):
            with pytest.raises(ValueError, match="letters outside 0..2"):
                orbit_equal(sol, w1, w2)


class TestBallEnumeration:
    def test_as_t2_is_z(self):
        group = make_symmetric_group(2)
        ball = group_ball_enumerate([(1, (1,))], group, 6)
        assert ball.sphere_sizes == [1, 2, 2, 2, 2, 2, 2]

    def test_as_t3_spheres(self):
        group = make_symmetric_group(3)
        spheres = conjugation_ball_series(group, symmetric_transpositions(group), 5)
        assert spheres == [1, 6, 8, 6, 6, 6]

    def test_as_s3_identity_free_part(self):
        group = make_symmetric_group(3)
        nontrivial = [x for x in group.elements() if x != 0]
        spheres = conjugation_ball_series(group, nontrivial, 4)
        # gamma ((1+t)/(1-t))^2 + (t^2-1)(2+2t) expanded
        assert spheres == [1, 10, 26, 38, 48]

    def test_spheres_eventually_constant_at_group_order(self):
        # for a finite group embedded with rank 1, spheres stabilise at |G|
        from ybe_growth.algebra import dihedral_reflections

        group = make_dihedral_group(5)
        spheres = conjugation_ball_series(group, dihedral_reflections(group), 6)
        assert spheres == [1, 10, 14, 10, 10, 10, 10]
        assert all(s <= 10 for s in spheres[3:])

    def test_budget(self):
        group = make_symmetric_group(3)
        with pytest.raises(BudgetExceededError):
            conjugation_ball_series(group, symmetric_transpositions(group), 8, budget=5)


class TestInfiniteReflectionOrbits:
    def test_closure_contains_normal_form(self):
        closure = reflection_orbit_closure((1, -1, 1), margin=8)
        assert (5, 5, 3) in closure

    def test_orbit_equal_positive(self):
        assert reflection_orbit_equal_infinite((0, -1), (1, 0))

    def test_orbit_equal_negative_frozen(self):
        assert not reflection_orbit_equal_infinite((1, 1), (2, 2))

    def test_window_stabilisation_reports_unequal(self):
        # different weights: never connected, detected by window stabilisation
        assert not reflection_orbit_equal_infinite((0, 1), (2, 1))
        # one braiding move apart: found immediately
        assert reflection_orbit_equal_infinite((1, 2), (0, 1))


# -- plain-Python references, sharing no code with the oracle kernels ---------


def _reference_orbits(op, length):
    """Orbits of the words of one length: a search over tuples along every
    move (x, y) -> (x > y, x) and its inverse, sorted by minimal word."""
    n = len(op)
    # inverse move: (u, x) -> (x, y) with x > y = u
    solve = {(x, op[x][y]): y for x in range(n) for y in range(n)}
    seen = set()
    orbits = []
    for word in itertools.product(range(n), repeat=length):
        if word in seen:
            continue
        orbit = {word}
        stack = [word]
        while stack:
            w = stack.pop()
            for i in range(length - 1):
                a, b = w[i], w[i + 1]
                for pair in ((op[a][b], a), (b, solve[b, a])):
                    moved = w[:i] + pair + w[i + 2 :]
                    if moved not in orbit:
                        orbit.add(moved)
                        stack.append(moved)
        seen |= orbit
        orbits.append(orbit)
    return sorted(orbits, key=min)


def full_conjugation_solution(group):
    return conjugation_solution(group, group.elements())


def _relabelled(sol, seed):
    perm = list(range(sol.size))
    random.Random(seed).shuffle(perm)
    op = [[0] * sol.size for _ in range(sol.size)]
    for x in range(sol.size):
        for y in range(sol.size):
            op[perm[x]][perm[y]] = perm[sol.op[x][y]]
    return QuandleSolution(op)


ORBIT_CASES = {
    "S3-full": (lambda: full_conjugation_solution(make_symmetric_group(3)), 5),
    "S4-full": (lambda: full_conjugation_solution(make_symmetric_group(4)), 3),
    "D5-full": (lambda: full_conjugation_solution(make_dihedral_group(5)), 4),
    "R7-relabelled": (lambda: _relabelled(reflection_solution(7), 11), 5),
    "trivial-4": (lambda: QuandleSolution([list(range(4)) for _ in range(4)]), 6),
    "T4": (lambda: transposition_solution(4), 5),
}


class TestOrbitsAgainstReference:
    @pytest.mark.parametrize("case", sorted(ORBIT_CASES))
    def test_counts_representatives_and_labels(self, case):
        make, max_length = ORBIT_CASES[case]
        sol = make()
        enum = monoid_orbit_enumerate(sol, max_length)
        assert enum.max_length == max_length and not enum.truncated
        for n in range(max_length + 1):
            orbits = _reference_orbits(sol.op, n)
            assert enum.counts[n] == len(orbits)
            assert enum.representatives[n] == [min(orbit) for orbit in orbits]
            for index, orbit in enumerate(orbits):
                for word in orbit:
                    assert enum.orbit_id(word) == (n, index)

    def test_non_involutory_cases_are_non_involutory(self):
        for case in ("S3-full", "S4-full", "D5-full"):
            op = ORBIT_CASES[case][0]().op
            assert any(op[x][op[x][y]] != y for x in range(len(op)) for y in range(len(op)))

    def test_orbit_equal_matches_reference(self):
        sol = full_conjugation_solution(make_symmetric_group(3))
        orbits = _reference_orbits(sol.op, 4)
        rng = random.Random(5)
        for _ in range(40):
            first, second = rng.choice(orbits), rng.choice(orbits)
            w1, w2 = rng.choice(sorted(first)), rng.choice(sorted(second))
            assert orbit_equal(sol, w1, w2) == (first is second)

    def test_budget_edge(self):
        sol = transposition_solution(3)
        total = sum(3**n for n in range(6))
        enum = monoid_orbit_enumerate(sol, 5, budget=total)
        assert not enum.truncated and enum.max_length == 5
        enum = monoid_orbit_enumerate(sol, 5, budget=total - 1)
        assert enum.truncated and enum.max_length == 4


class TestQuotientReach:
    """The kernel holds no array with one entry per word, so it reaches
    lengths whose word spaces overflow int64."""

    @pytest.mark.parametrize(
        "sol, growth, length",
        [
            (transposition_solution(4), monoid_growth_transpositions(4), 25),
            (reflection_solution(12), monoid_growth_reflections(12), 20),
        ],
        ids=["T4", "R12"],
    )
    def test_counts_match_closed_forms(self, sol, growth, length):
        enum = monoid_orbit_enumerate(sol, length, budget=sol.size ** (length + 1))
        assert not enum.truncated
        assert enum.counts == expand_rational(growth, length).integer_coefficients()

    def test_t4_representatives_past_int64(self):
        sol, length = transposition_solution(4), 25
        assert sol.size**length > 2**63
        enum = monoid_orbit_enumerate(sol, length, budget=sol.size ** (length + 1))
        reps = enum.representatives[length]
        assert all(len(rep) == length and set(rep) <= set(range(sol.size)) for rep in reps)
        assert all(a < b for a, b in zip(reps, reps[1:]))
        for k, rep in enumerate(reps):
            assert enum.orbit_id(rep) == (length, k)


def _reference_spheres(generators, mul, inv, radius):
    """Sphere sizes by BFS over a Python set of (element, vector) states."""
    moves = set()
    for g, vec in generators:
        moves.add((g, tuple(vec)))
        moves.add((inv(g), tuple(-c for c in vec)))
    start = (0, (0,) * len(generators[0][1]))
    seen = {start}
    frontier = [start]
    spheres = [1]
    for _ in range(radius):
        nxt = []
        for g, v in frontier:
            for s, w in moves:
                state = (mul(g, s), tuple(a + b for a, b in zip(v, w)))
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        spheres.append(len(nxt))
        frontier = nxt
    return spheres


def _table_ops(group):
    table = group.to_json()["mult"]
    inverse = {a: b for a in range(group.size) for b in range(group.size) if table[a][b] == 0}
    return (lambda a, b: table[a][b]), inverse.__getitem__


def _permutation_ops(group):
    perms = [Permutation(p) for p in itertools.permutations(range(group.images.shape[1]))]
    index = {p.images: i for i, p in enumerate(perms)}
    return (
        lambda a, b: index[(perms[a] * perms[b]).images],
        lambda a: index[perms[a].inverse().images],
    )


def _cyclic_lattice():
    """Z2 with 40 generators (1, e_i): codes over 40 coordinates overflow int64."""
    group = FiniteGroupTable(2, table=[[0, 1], [1, 0]], name="Z2")
    gens = [(1, tuple(int(i == j) for j in range(40))) for i in range(40)]
    return group, gens


def _conjugation(make, d, subset):
    group = make(d)
    return group, conjugation_ball_generators(group, subset(group))


def _rank_zero(make, d, subset):
    """Generators (x, ()) in G x Z^0: the Cayley graph of G itself."""
    group = make(d)
    return group, [(x, ()) for x in subset(group)]


def _level_dtypes(monkeypatch) -> set:
    """The dtypes of every BFS level from here on, in a set that fills as
    the oracles run."""
    dtypes = set()
    search = oracle._bfs_levels

    def spy(*args, **kwargs):
        for level in search(*args, **kwargs):
            dtypes.add(level.dtype)
            yield level

    monkeypatch.setattr(oracle, "_bfs_levels", spy)
    return dtypes


BALL_CASES = {
    "D10-full": (lambda: _conjugation(make_dihedral_group, 10, lambda g: range(1, g.size)), 4, _table_ops),
    "S4-full": (lambda: _conjugation(make_symmetric_group, 4, lambda g: range(1, g.size)), 4, _table_ops),
    "S6-transpositions": (
        lambda: _conjugation(make_symmetric_group, 6, symmetric_transpositions), 5, _table_ops
    ),
    "D12-reflections": (
        lambda: _conjugation(make_dihedral_group, 12, dihedral_reflections), 12, _table_ops
    ),
    "S7-transpositions": (
        lambda: _conjugation(make_symmetric_group, 7, symmetric_transpositions), 3, _permutation_ops
    ),
    "Z2-rank40": (_cyclic_lattice, 2, _table_ops),
    # rank 0, past the diameter 4 of S5's transposition graph
    "S5-transpositions-rank0": (
        lambda: _rank_zero(make_symmetric_group, 5, symmetric_transpositions), 6, _table_ops
    ),
    # rank 0, one reflection of D7: a subgroup of order 2
    "D7-one-reflection-rank0": (
        lambda: _rank_zero(make_dihedral_group, 7, lambda g: dihedral_reflections(g)[:1]), 3, _table_ops
    ),
}


class TestBallsAgainstReference:
    @pytest.mark.parametrize("case", sorted(BALL_CASES))
    def test_spheres(self, case):
        make, radius, ops = BALL_CASES[case]
        group, gens = make()
        ball = group_ball_enumerate(gens, group, radius)
        assert ball.sphere_sizes == _reference_spheres(gens, *ops(group), radius)
        assert ball.states == sum(ball.sphere_sizes)

    def test_cases_cover_both_group_stores_and_the_overflow_fallback(self):
        group, _ = BALL_CASES["S7-transpositions"][0]()
        with pytest.raises(ValueError, match="too large"):
            group.to_json()  # S7 keeps permutation images, not a table
        group, gens = _cyclic_lattice()
        radius = BALL_CASES["Z2-rank40"][1]
        assert group.size * (2 * radius + 1) ** len(gens[0][1]) >= 2**63

    def test_overflow_codes_are_python_ints(self, monkeypatch):
        dtypes = _level_dtypes(monkeypatch)
        make, radius, _ = BALL_CASES["Z2-rank40"]
        group, gens = make()
        group_ball_enumerate(gens, group, radius)
        assert dtypes == {np.dtype(object)}

    @pytest.mark.parametrize(
        "case, covered", [("S5-transpositions-rank0", True), ("D7-one-reflection-rank0", False)]
    )
    def test_rank_zero_length_series(self, case, covered):
        make, radius, ops = BALL_CASES[case]
        group, gens = make()
        series, reached = generic_length_series(group, [x for x, _ in gens], radius)
        assert list(series.coeffs) == _reference_spheres(gens, *ops(group), radius)
        assert series.coeffs[-2:] == (0, 0)  # the radius passes the diameter
        assert reached is covered

    @pytest.mark.parametrize("case", ["D10-full", "Z2-rank40"])
    def test_budget_edge(self, case):
        make, radius, _ = BALL_CASES[case]
        group, gens = make()
        total = group_ball_enumerate(gens, group, radius).states
        assert group_ball_enumerate(gens, group, radius, budget=total).states == total
        with pytest.raises(BudgetExceededError):
            group_ball_enumerate(gens, group, radius, budget=total - 1)


# conjugation balls for the class quotient, each checked against the element
# search: the conjugation cases above, S5 on all its classes, and D60 on all
# its classes, whose codes overflow int64 in both searches
QUOTIENT_CASES = {
    **{
        case: BALL_CASES[case][:2]
        for case in ("D10-full", "S4-full", "S6-transpositions", "D12-reflections", "S7-transpositions")
    },
    "S5-full": (lambda: _conjugation(make_symmetric_group, 5, lambda g: range(1, g.size)), 3),
    "D60-full": (lambda: _conjugation(make_dihedral_group, 60, lambda g: range(1, g.size)), 2),
}


class TestClassQuotient:
    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_equals_element_search(self, case):
        make, radius = QUOTIENT_CASES[case]
        group, gens = make()
        spheres = group_ball_enumerate(gens, group, radius).sphere_sizes
        assert class_quotient_spheres(gens, group, radius) == spheres

    def test_overflow_codes_are_python_ints(self, monkeypatch):
        dtypes = _level_dtypes(monkeypatch)
        make, radius = QUOTIENT_CASES["D60-full"]
        group, gens = make()
        class_quotient_spheres(gens, group, radius)
        assert dtypes == {np.dtype(object)}

    def test_generators_must_be_whole_classes(self):
        group = make_symmetric_group(4)
        transpositions = symmetric_transpositions(group)
        with pytest.raises(ValueError, match="union of conjugacy classes"):
            conjugation_ball_series(group, transpositions[:1], 3)
        # the whole class, with one member on another vector
        gens = [(x, (1 + (x == transpositions[0]),)) for x in transpositions]
        with pytest.raises(ValueError, match="union of conjugacy classes"):
            class_quotient_spheres(gens, group, 3)

    @pytest.mark.parametrize("case", ["D10-full", "D60-full"])
    def test_budget_counts_elements(self, case):
        make, radius = QUOTIENT_CASES[case]
        group, gens = make()
        total = group_ball_enumerate(gens, group, radius).states
        assert sum(class_quotient_spheres(gens, group, radius, budget=total)) == total
        with pytest.raises(BudgetExceededError):
            class_quotient_spheres(gens, group, radius, budget=total - 1)


def _reference_closure(word, margin):
    """The window orbit by depth-first search over tuples, along the moves
    (x, y) -> (2x - y, x) and (x, y) -> (y, 2y - x) that keep every letter in
    [min - margin, max + margin]."""
    start = tuple(word)
    if not start:
        return {start}
    lo, hi = min(start) - margin, max(start) + margin
    closure = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for pos in range(len(w) - 1):
            x, y = w[pos], w[pos + 1]
            for pair in ((2 * x - y, x), (y, 2 * y - x)):
                if lo <= min(pair) and max(pair) <= hi:
                    moved = w[:pos] + pair + w[pos + 2 :]
                    if moved not in closure:
                        closure.add(moved)
                        stack.append(moved)
    return closure


WINDOW_WORDS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference" / "expected.json").read_text()
)["window"]
# words of 16 and 20 letters whose codes overflow int64 at these margins; the
# search codes all letters but the last, which fit int64 for the 16-letter word
# (16^15 = 2^60) and overflow it for the 20-letter one (25^19 > 2^63)
LONG_WORDS = [((0, 15) * 7 + (7, 8), 0), ((3,) * 20, 12)]


def _no_iteration(self):
    raise AssertionError("the closure was iterated")


def _assert_view_matches(closure, ref, monkeypatch, stride=1):
    """The view holds exactly the words of `ref`: its length, the membership
    of every `stride`-th word of `ref` and of the words one letter step from
    it (members or not) are read without iterating the view, and equality
    holds in both directions."""
    with monkeypatch.context() as m:
        m.setattr(WindowOrbit, "__iter__", _no_iteration)
        assert len(closure) == len(ref)
        for word in itertools.islice(ref, 0, None, stride):
            assert word in closure
            for pos in range(len(word)):
                for step in (-1, 1):
                    near = word[:pos] + (word[pos] + step,) + word[pos + 1 :]
                    assert (near in closure) == (near in ref), near
    assert closure == ref and ref == closure


class TestWindowClosureAgainstReference:
    @pytest.mark.parametrize("length", ["3", "4", "5"])
    def test_recorded_window_words(self, length, monkeypatch):
        for text, size in WINDOW_WORDS[length].items():
            word = tuple(json.loads(text))
            closure = reflection_orbit_closure(word, margin=12)
            assert isinstance(closure, WindowOrbit)
            ref = _reference_closure(word, 12)
            assert len(ref) == size
            _assert_view_matches(closure, ref, monkeypatch, stride=len(ref) // 200 + 1)

    def test_random_words(self, monkeypatch):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(0, 5)
            margin = rng.randint(0, 6 if n < 5 else 2)
            word = tuple(rng.randint(-4, 4) for _ in range(n))
            closure, ref = reflection_orbit_closure(word, margin), _reference_closure(word, margin)
            _assert_view_matches(closure, ref, monkeypatch, stride=len(ref) // 50 + 1)
            # iteration decodes every word once, in code (= lexicographic) order
            assert list(closure) == sorted(ref)

    @pytest.mark.parametrize("word, margin", [((0, 2, 1), 3), ((1, -1, 1), 2), ((4, 4), 1), ((2,), 2)])
    def test_every_word_of_the_window(self, word, margin):
        # every non-member whose code is next to a member's code is covered
        closure, ref = reflection_orbit_closure(word, margin), _reference_closure(word, margin)
        window = range(min(word) - margin, max(word) + margin + 1)
        for other in itertools.product(window, repeat=len(word)):
            assert (other in closure) == (other in ref), other

    @pytest.mark.parametrize("word, margin", [((0, 2, 1), 3), ((1, -1, 1), 2)] + LONG_WORDS)
    def test_non_words_are_not_members(self, word, margin):
        closure = reflection_orbit_closure(word, margin)
        lo, hi = min(word) - margin, max(word) + margin
        rest = word[1:]
        assert word in closure and (np.int64(word[0]),) + rest in closure
        # words of the wrong length
        assert word[:-1] not in closure and word + word[:1] not in closure
        # letters outside the window
        assert (lo - 1,) + rest not in closure and word[:-1] + (hi + 1,) not in closure
        assert (10**30,) + rest not in closure and (-(10**30),) + rest not in closure
        # a word whose offsets from lo spell the code of `word`, with a carry
        assert word[:-2] + (word[-2] - 1, word[-1] + hi - lo + 1) not in closure
        # letters that are not integers, and queries that are not words
        for letter in (float(word[0]), str(word[0]), None, (word[0],)):
            assert (letter,) + rest not in closure
        for query in (None, word[0], str(word), list(word)[:-1]):
            assert query not in closure

    def test_set_operations_return_plain_sets(self):
        closure = reflection_orbit_closure((0, 2, 1), 3)
        ref = _reference_closure((0, 2, 1), 3)
        for result, expected in (
            (closure & {(0, 2, 1), (9, 9, 9)}, {(0, 2, 1)}),
            (closure | {(9, 9, 9)}, ref | {(9, 9, 9)}),
            (closure - {(0, 2, 1)}, ref - {(0, 2, 1)}),
        ):
            assert type(result) is set and result == expected

    @pytest.mark.parametrize("word, margin", [((0, 2, 1), 3), ((1, -1, 1), 2), ((4, 4), 1)] + LONG_WORDS)
    def test_budget_edge(self, word, margin):
        size = len(_reference_closure(word, margin))
        assert len(reflection_orbit_closure(word, margin, max_states=size)) == size
        if size > 1:
            with pytest.raises(BudgetExceededError):
                reflection_orbit_closure(word, margin, max_states=size - 1)
        else:
            # a word is always in its own closure
            assert reflection_orbit_closure(word, margin, max_states=0) == {word}

    @pytest.mark.parametrize("word", [(), (0,), (-7,), (12,)])
    def test_words_without_moves(self, word, monkeypatch):
        for margin, max_states in itertools.product((0, 5), (500000, 0)):
            closure = reflection_orbit_closure(word, margin, max_states)
            _assert_view_matches(closure, {word}, monkeypatch)
            assert list(closure) == [word]
            for other in {word[:-1], word + (0,)} - {word}:
                assert other not in closure

    @pytest.mark.parametrize("word, margin", LONG_WORDS)
    def test_row_membership_matches_a_scan(self, word, margin):
        # the binary search over Python-int codes answers as a scan of every
        # decoded word
        closure = reflection_orbit_closure(word, margin)
        assert closure._states.dtype == object
        words = list(closure)
        for member in words[:: len(words) // 50 + 1]:
            for pos in range(len(member)):
                for step in (-1, 0, 1):
                    query = member[:pos] + (member[pos] + step,) + member[pos + 1 :]
                    assert (query in closure) == (query in words)

    @pytest.mark.parametrize("word, margin", LONG_WORDS)
    def test_long_words_take_the_python_int_path(self, word, margin, monkeypatch):
        width = max(word) - min(word) + 2 * margin + 1
        assert width ** len(word) >= 2**63
        closure, ref = reflection_orbit_closure(word, margin), _reference_closure(word, margin)
        _assert_view_matches(closure, ref, monkeypatch, stride=len(ref) // 100 + 1)

    def test_long_word_search_dtypes(self, monkeypatch):
        # both closures hold Python-int words; only the 20-letter word also
        # searches on Python ints
        for (word, margin), dtype in zip(LONG_WORDS, (np.int64, object)):
            with monkeypatch.context() as m:
                dtypes = _level_dtypes(m)
                assert reflection_orbit_closure(word, margin)._states.dtype == object
            assert dtypes == {np.dtype(dtype)}

    @pytest.mark.parametrize("word", [(0, 5), (2,), ()])
    def test_negative_margins_are_refused(self, word):
        for margin in (-1, -3):
            with pytest.raises(ValueError, match="margin"):
                reflection_orbit_closure(word, margin)
        with pytest.raises(ValueError, match="margin"):
            reflection_orbit_equal_infinite(word, word, margin=-5)
        with pytest.raises(ValueError, match="margin"):
            reflection_orbit_equal_infinite((0, 1), (1, 2), margin=-5)
        # not integers: True would pass operator.index as 1
        for margin in (1.5, True, "3"):
            with pytest.raises(ValueError, match="margin"):
                reflection_orbit_closure(word, margin)
            with pytest.raises(ValueError, match="margin"):
                reflection_orbit_equal_infinite(word, word, margin=margin)
            with pytest.raises(ValueError, match="margin"):
                reflection_orbit_equal_infinite((0, 1), (1, 2), margin=margin)

    def test_benchmark_sizes_keep_int64_codes(self, monkeypatch):
        # the recorded window words at margin 12, and the D10 ball, stay on
        # the int64 path
        dtypes = _level_dtypes(monkeypatch)
        for words in WINDOW_WORDS.values():
            for text in words:
                assert reflection_orbit_closure(json.loads(text), margin=12)._states.dtype == np.int64
        make, radius, _ = BALL_CASES["D10-full"]
        group, gens = make()
        group_ball_enumerate(gens, group, radius)
        assert dtypes == {np.dtype(np.int64)}


def _captured_search(monkeypatch, run) -> tuple:
    """The arguments of the one `_bfs_levels` call that `run()` makes."""
    calls = []
    search = oracle._bfs_levels

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return search(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_bfs_levels", spy)
        run()
    (call,) = calls
    return call


class TestDedupeStrategies:
    # a recorded window word, read up to its first empty level, and two balls
    # read through their radius; D10-full at radius 2 spans 20 * 5^7 codes
    @pytest.mark.parametrize(
        "case, radius, dense", [("window", None, True), ("S4-full", 4, True), ("D10-full", 2, False)]
    )
    def test_dense_and_sorted_levels_agree(self, case, radius, dense, monkeypatch):
        if case == "window":
            word = json.loads(next(iter(WINDOW_WORDS["4"])))
            run, count = (lambda: reflection_orbit_closure(word, margin=12)), None
        else:
            group, gens = BALL_CASES[case][0]()
            run, count = (lambda: group_ball_enumerate(gens, group, radius)), radius + 1
        (start, advance, budget, what), kwargs = _captured_search(monkeypatch, run)
        space = kwargs["space"]
        assert (space <= oracle._DENSE_CODES) is dense

        def levels(limit, budget):
            """The levels read with the dense limit set to `limit`, and
            whether the budget ran out."""
            monkeypatch.setattr(oracle, "_DENSE_CODES", limit)
            read = []
            try:
                search = oracle._bfs_levels(start, advance, budget, what, **kwargs)
                for level in itertools.islice(search, count):
                    read.append(level)
                    if not len(level):
                        break
            except BudgetExceededError:
                return read, True
            return read, False

        # a limit of 0 keeps the search sorted; a limit of `space` makes it
        # dense.  The whole search, then a budget one state short of it
        total = sum(map(len, levels(0, budget)[0]))
        for allowance, runs_out in ((total, False), (total - 1, True)):
            (sorted_levels, sorted_out), (dense_levels, dense_out) = (
                levels(limit, allowance) for limit in (0, space)
            )
            assert sorted_out is dense_out is runs_out
            assert len(sorted_levels) == len(dense_levels) > 1
            for a, b in zip(sorted_levels, dense_levels):
                assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
