"""Brute-force ground truth: word-orbit enumeration for structure monoids,
sphere counting for structure groups embedded in (finite group) x Z^k, and
window orbit closures over the integer reflection solution.

Every oracle keeps its states as sorted int64 codes (a word is a base-|X|
integer, so numeric order equals lexicographic order), deduplicated by sort
and binary search.  Orbits of length n+1 are the connected components of a
quotient graph on (length-n orbit, last letter) pairs, joined only by the
move at the last position, and are numbered by their minimal encoded word.
The ball BFS and the window closure run through one level-synchronous
traversal, `_bfs_levels`: both move sets are closed under inverses, so a new
level is deduplicated against the two before it only.  Where a code would
overflow int64, states are rows instead, deduplicated row-wise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import FiniteGroupTable, QuandleSolution

DEFAULT_WORD_BUDGET = 10**7
DEFAULT_STATE_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its state budget."""


def _places(radices: Sequence[int]) -> np.ndarray:
    """Place values of the mixed-radix codes of digit rows below `radices`
    (most significant first); where those codes would overflow int64, the
    identity matrix, so that `rows @ places` keeps states as rows."""
    if math.prod(radices) >= 2**63:
        return np.eye(len(radices), dtype=np.int64)
    return np.array([math.prod(radices[i + 1 :]) for i in range(len(radices))], dtype=np.int64)


def _digit_rows(states: np.ndarray, places: np.ndarray, radices) -> np.ndarray:
    """The digit rows of states: codes decoded, rows as they are."""
    return states if states.ndim == 2 else states[:, None] // places % radices


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, ascending."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _new_codes(candidates: np.ndarray, before: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The distinct candidate codes in neither of the two sorted levels, ascending."""
    codes = _sorted_unique(candidates)
    for level in (before, frontier):
        if len(level):
            found = np.minimum(np.searchsorted(level, codes), len(level) - 1)
            codes = codes[level[found] != codes]
    return codes


def _new_rows(candidates: np.ndarray, before: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """`_new_codes` for rows, sorted so that old rows precede their copies."""
    rows = np.concatenate([before, frontier, candidates])
    is_new = np.arange(len(rows)) >= len(before) + len(frontier)
    order = np.lexsort((is_new, *rows.T[::-1]))
    rows, is_new = rows[order], is_new[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first & is_new]


def _bfs_levels(start: np.ndarray, advance, budget: int, what: str):
    """Yield the BFS levels from `start` (codes or rows): `advance` maps a
    level to its neighbours, of which those in the two levels before are
    dropped.  Raises BudgetExceededError past `budget` states."""
    new = _new_rows if start.ndim == 2 else _new_codes
    before, frontier, states = start[:0], start, len(start)
    while True:
        yield frontier
        before, frontier = frontier, new(advance(frontier), before, frontier)
        states += len(frontier)
        if states > budget:
            raise BudgetExceededError(f"{what} exceeded {budget} states")


def _component_roots(n_nodes: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component, for the undirected
    edges a[i] - b[i]: each round hooks the larger root of every edge whose
    ends still have different roots under the smaller one, then jumps
    pointers until every node points at its root."""
    parent = np.arange(n_nodes, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        live = ra != rb
        if not live.any():
            return parent
        # edges whose ends share a root keep sharing one; drop them
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _orbit_labels(
    sol: QuandleSolution, length: int, shorter: Optional[tuple] = None
) -> tuple[np.ndarray, int, np.ndarray]:
    """Orbit labels of all words of one length under braiding moves, the
    orbit count, and each orbit's minimal code (ascending: orbits are
    numbered by their minimal codes).

    `shorter` is this function's result for length - 1.  A word of the new
    length is u + x (u of length - 1 letters, last letter x); its node in the
    quotient graph is (label of u, x).  For u ending in y, the move at the
    last position sends u + x to u' + y, with u' = u whose last letter is
    replaced by y > x, and that move is the quotient's only kind of edge.
    """
    base = sol.size
    if length < 2 or not base:
        codes = np.arange(base**length, dtype=np.int64)
        return codes, len(codes), codes
    labels, count, mins = shorter
    op = np.asarray(sol.op, dtype=np.int64)
    nodes = count * base
    codes = np.arange(len(labels), dtype=np.int64)
    last = codes % base
    keys = []
    for x in range(base):
        a = labels * base + x
        b = labels[codes + op[last, x] - last] * base + last
        keys.append(_sorted_unique(np.minimum(a, b) * nodes + np.maximum(a, b)))
    keys = _sorted_unique(np.concatenate(keys))
    roots = _component_roots(nodes, keys // nodes, keys % nodes)
    # node ids order like minimal codes, since mins ascends: the smallest
    # node of a component holds its minimal code
    firsts, node_label = np.unique(roots, return_inverse=True)
    # row u of the node table holds the labels of the words u + x
    new_labels = node_label.reshape(count, base)[labels].ravel()
    return new_labels, len(firsts), mins[firsts // base] * base + firsts % base


@dataclass
class OrbitEnumeration:
    """Orbit counts and canonical representatives of words per length."""

    solution: QuandleSolution
    requested_length: int
    max_length: int  # last length actually enumerated
    counts: list[int] = field(default_factory=list)
    representatives: list[list[tuple[int, ...]]] = field(default_factory=list)
    _labels: list[np.ndarray] = field(default_factory=list)
    truncated: bool = False

    def orbit_id(self, word: Sequence[int]) -> tuple[int, int]:
        """(length, orbit index) of a word; orbits are per-length."""
        n = len(word)
        if n > self.max_length:
            raise ValueError(f"length {n} beyond enumerated range {self.max_length}")
        code = np.array(word, dtype=np.int64) @ _places([self.solution.size] * n)
        return n, int(self._labels[n][code])

    def same_orbit(self, w1: Sequence[int], w2: Sequence[int]) -> bool:
        if len(w1) != len(w2):
            return False
        return self.orbit_id(w1) == self.orbit_id(w2)


def monoid_orbit_enumerate(
    sol: QuandleSolution, max_length: int, budget: int = DEFAULT_WORD_BUDGET
) -> OrbitEnumeration:
    """Count braiding-move orbits of words of each length up to max_length.

    Words of a fixed length are merged under moves (..., x, y, ...) <->
    (..., x>y, x, ...) at every position.  Stops early (flagging the result
    as truncated) once the cumulative word count would exceed the budget.
    """
    result = OrbitEnumeration(sol, max_length, max_length)
    base = sol.size
    spent = 0
    shorter = None
    for n in range(max_length + 1):
        spent += base**n
        if spent > budget:
            result.truncated = True
            break
        labels, n_orbits, mins = shorter = _orbit_labels(sol, n, shorter)
        result.counts.append(n_orbits)
        result._labels.append(labels)
        digits = _digit_rows(mins, _places([base] * n), base)
        result.representatives.append(list(map(tuple, digits.tolist())))
    result.max_length = len(result.counts) - 1
    return result


def orbit_equal(
    sol: QuandleSolution,
    w1: Sequence[int],
    w2: Sequence[int],
    budget: int = DEFAULT_WORD_BUDGET,
) -> bool:
    """Whether two words are related by braiding moves (always false across
    different lengths, since moves preserve length)."""
    if len(w1) != len(w2):
        return False
    if tuple(w1) == tuple(w2):
        return True
    if sol.size ** len(w1) > budget:
        raise BudgetExceededError(f"word space {sol.size}^{len(w1)} exceeds budget {budget}")
    return monoid_orbit_enumerate(sol, len(w1), math.inf).same_orbit(w1, w2)


@dataclass
class BallEnumeration:
    """Sphere sizes of the subgroup generated inside (group) x Z^rank."""

    generators: list[tuple[int, tuple[int, ...]]]
    radius: int
    sphere_sizes: list[int]
    states: int


def group_ball_enumerate(
    generators: Iterable[tuple[int, Sequence[int]]],
    group: FiniteGroupTable,
    radius: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> BallEnumeration:
    """BFS sphere sizes from the identity, using generators and inverses.

    Each generator is a pair (group element, lattice vector); its inverse is
    (inverse element, negated vector).  A state (g, v) is one int64 code,
    g * (2r+1)^rank + the base-(2r+1) code of v shifted by r, where r bounds
    every coordinate inside the ball (the radius, for unit vectors), or the
    row (g, v + r) where that code would overflow.
    """
    pairs = [(int(g), tuple(int(c) for c in vec)) for g, vec in generators]
    # each generator and its inverse, in order of first occurrence
    gens = list(dict.fromkeys(p for g, v in pairs for p in ((g, v), (group.inv(g), tuple(-c for c in v)))))
    rank = len(gens[0][1]) if gens else 0
    if any(len(v) != rank for _, v in gens):
        raise ValueError("lattice vectors have mismatched ranks")
    elems = np.array([g for g, _ in gens], dtype=np.int64)
    steps = np.array([v for _, v in gens], dtype=np.int64).reshape(len(gens), rank)
    # a state within `radius` steps has every coordinate in [-reach, reach]
    reach = max(radius, 0) * int(np.abs(steps).max(initial=0))
    # state: the row (element, vector + reach), or its mixed-radix code
    places = _places([group.size] + [2 * reach + 1] * rank)
    shifts = steps @ places[1:]

    def advance(states):
        g = states[:, 0] if states.ndim == 2 else states // places[0]
        jump = group.products(g[:, None], elems) - g[:, None]
        moved = states[:, None] + np.multiply.outer(jump, places[0]) + shifts
        return moved.reshape(-1, *states.shape[1:])

    start = np.array([0] + [reach] * rank, dtype=np.int64) @ places
    levels = _bfs_levels(start[None], advance, budget, "ball enumeration")
    spheres = [len(level) for level in itertools.islice(levels, max(radius, 0) + 1)]
    return BallEnumeration(list(gens), radius, spheres, sum(spheres))


def conjugation_ball_generators(
    group: FiniteGroupTable, subset: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """Generators (x, unit vector of the conjugacy class of x) for the
    structure group of the conjugation solution on the subset."""
    class_of = group.conjugacy_classes().class_of
    coord = {c: i for i, c in enumerate(sorted({class_of[x] for x in subset}))}
    units = np.eye(len(coord), dtype=int).tolist()
    return [(int(x), tuple(units[coord[class_of[x]]])) for x in subset]


def conjugation_ball_series(
    group: FiniteGroupTable,
    subset: Sequence[int],
    radius: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> list[int]:
    """Sphere sizes of the structure group of a conjugation solution."""
    gens = conjugation_ball_generators(group, subset)
    return group_ball_enumerate(gens, group, radius, budget).sphere_sizes


def full_conjugation_spheres(
    group: FiniteGroupTable, radius: int, budget: int = DEFAULT_STATE_BUDGET
) -> list[int]:
    """Sphere sizes of As(G), the structure group of the conjugation solution
    on all of G: the identity generates a central Z factor (spheres 1, 2, 2,
    ...), convolved with the ball of the identity-free part in G x Z^(c-1)."""
    nontrivial = [x for x in group.elements() if x != 0]
    part = conjugation_ball_series(group, nontrivial, radius, budget)
    z = [1] + [2] * radius
    return [sum(z[k] * part[n - k] for k in range(n + 1)) for n in range(radius + 1)]


# -- orbits over the infinite reflection solution ------------------------------


def reflection_orbit_closure(
    word: Sequence[int], margin: int = 8, max_states: int = 500000
) -> set[tuple[int, ...]]:
    """Braiding orbit of a word over the integers, restricted to the letter
    window [min - margin, max + margin]; raises BudgetExceededError when it
    has more than max_states words.  A word is the base-(window width) code of
    its letters' offsets from the window's lower end, or the row of those
    offsets where the code would overflow int64."""
    start = tuple(int(a) for a in word)
    n = len(start)
    if n < 2:
        return {start}
    lo = min(start) - margin
    width = max(start) + margin - lo + 1
    places = _places([width] * n)
    units = places[:-1] + places[1:]  # adds one to the letters at pos, pos + 1

    def advance(states):
        rows = _digit_rows(states, places, width)
        moved = []
        for pos in range(n - 1):
            x, y = rows[:, pos], rows[:, pos + 1]
            # (x, y) -> (2x - y, x) and its inverse (x, y) -> (y, 2y - x)
            # add +-(x - y) to both letters; one new letter may leave the window
            for shift, end in ((x - y, 2 * x - y), (y - x, 2 * y - x)):
                ok = (end >= 0) & (end < width)
                moved.append(states[ok] + np.multiply.outer(shift[ok], units[pos]))
        return np.concatenate(moved)

    # one int object per letter, shared by every decoded word
    letters = np.arange(lo, lo + width).astype(object)
    closure = set()
    first = (np.array(start, dtype=np.int64) - lo) @ places
    # a word is always in its own closure, whatever max_states
    levels = _bfs_levels(first[None], advance, max(max_states, 1), "reflection orbit closure")
    for level in itertools.takewhile(len, levels):
        closure.update(zip(*letters[_digit_rows(level, places, width).T].tolist()))
    return closure


def reflection_orbit_equal_infinite(
    w1: Sequence[int], w2: Sequence[int], margin: int = 8, max_states: int = 500000
) -> bool:
    """Window-limited orbit equality over the integers.

    The orbit of the pair is closed inside a letter window which is doubled
    until the two-orbit verdict has stabilised twice; stability is reported,
    not proven (a connecting path could in principle need letters beyond the
    widest window tried).
    """
    a, b = tuple(int(x) for x in w1), tuple(int(x) for x in w2)
    if len(a) != len(b):
        return False
    if a == b:
        return True
    window = margin + max(abs(x) for x in b)
    for _ in range(3):  # initial window plus two stability confirmations
        closure = reflection_orbit_closure(a, window, max_states)
        if b in closure:
            return True
        window *= 2
    return False
