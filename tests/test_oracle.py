import itertools
import json
import random
from pathlib import Path

import pytest

from ybe_growth.algebra import (
    FiniteGroupTable,
    QuandleSolution,
    dihedral_reflections,
    full_conjugation_solution,
    make_dihedral_group,
    make_symmetric_group,
    reflection_solution,
    symmetric_transpositions,
    transposition_solution,
)
from ybe_growth.oracle import (
    BudgetExceededError,
    conjugation_ball_generators,
    conjugation_ball_series,
    group_ball_enumerate,
    monoid_orbit_enumerate,
    orbit_equal,
    reflection_orbit_closure,
    reflection_orbit_equal_infinite,
)


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
    perms = group.permutations
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

    @pytest.mark.parametrize("case", ["D10-full", "Z2-rank40"])
    def test_budget_edge(self, case):
        make, radius, _ = BALL_CASES[case]
        group, gens = make()
        total = group_ball_enumerate(gens, group, radius).states
        assert group_ball_enumerate(gens, group, radius, budget=total).states == total
        with pytest.raises(BudgetExceededError):
            group_ball_enumerate(gens, group, radius, budget=total - 1)


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
# words of 16 and 20 letters whose codes overflow int64 at these margins
LONG_WORDS = [((0, 15) * 7 + (7, 8), 0), ((3,) * 20, 12)]


class TestWindowClosureAgainstReference:
    @pytest.mark.parametrize("length", ["3", "4", "5"])
    def test_recorded_window_words(self, length):
        for text, size in WINDOW_WORDS[length].items():
            word = tuple(json.loads(text))
            closure = reflection_orbit_closure(word, margin=12)
            assert len(closure) == size
            assert closure == _reference_closure(word, 12)

    def test_random_words(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(0, 5)
            margin = rng.randint(0, 6 if n < 5 else 2)
            word = tuple(rng.randint(-4, 4) for _ in range(n))
            assert reflection_orbit_closure(word, margin) == _reference_closure(word, margin)

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
    def test_words_without_moves(self, word):
        for margin in (0, 5):
            assert reflection_orbit_closure(word, margin) == {word}
            assert reflection_orbit_closure(word, margin, max_states=0) == {word}

    @pytest.mark.parametrize("word, margin", LONG_WORDS)
    def test_long_words_take_the_row_path(self, word, margin):
        width = max(word) - min(word) + 2 * margin + 1
        assert width ** len(word) >= 2**63
        assert reflection_orbit_closure(word, margin) == _reference_closure(word, margin)
