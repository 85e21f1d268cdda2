"""Brute-force ground truth: word-orbit enumeration for structure monoids and
sphere counting for structure groups embedded in (finite group) x Z^k.

Orbits are computed per word length (braiding moves preserve length), with
words encoded as base-|X| integers so that numeric order equals lexicographic
order.  The orbits of length n+1 are built from those of length n: moves
inside the first n letters are already merged by the length-n orbits, so the
length-(n+1) orbits are the connected components of a quotient graph on
(length-n orbit, last letter) pairs, joined only by the move at the last
position.  Components are numbered by their minimal encoded word, which is
also each orbit's representative, so every result is schedule-independent.

The ball BFS keeps each sphere as a sorted numpy array of encoded states
(group element, lattice vector) and deduplicates a new sphere against the
two before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import FiniteGroupTable, QuandleSolution

DEFAULT_WORD_BUDGET = 10**7
DEFAULT_STATE_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its state budget."""


def encode_word(word: Sequence[int], base: int) -> int:
    code = 0
    for letter in word:
        code = code * base + letter
    return code


def decode_word(code: int, base: int, length: int) -> tuple[int, ...]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        code, out[pos] = divmod(code, base)
    return tuple(out)


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
        keys.append(np.unique(np.minimum(a, b) * nodes + np.maximum(a, b)))
    keys = np.unique(np.concatenate(keys))
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
    _labels: list[Optional[np.ndarray]] = field(default_factory=list)
    truncated: bool = False

    def orbit_id(self, word: Sequence[int]) -> tuple[int, int]:
        """(length, orbit index) of a word; orbits are per-length."""
        n = len(word)
        if n > self.max_length:
            raise ValueError(f"length {n} beyond enumerated range {self.max_length}")
        labels = self._labels[n]
        if labels is None:
            return n, encode_word(word, self.solution.size)
        return n, int(labels[encode_word(word, self.solution.size)])

    def same_orbit(self, w1: Sequence[int], w2: Sequence[int]) -> bool:
        if len(w1) != len(w2):
            return False
        return self.orbit_id(w1) == self.orbit_id(w2)

    def series_coefficients(self) -> list[int]:
        return list(self.counts)


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
    reached = -1
    shorter = None
    for n in range(max_length + 1):
        word_count = base**n
        if spent + word_count > budget:
            result.truncated = True
            break
        spent += word_count
        shorter = _orbit_labels(sol, n, shorter)
        labels, n_orbits, mins = shorter
        result.counts.append(n_orbits)
        result._labels.append(labels if n >= 2 else None)
        result.representatives.append([decode_word(int(c), base, n) for c in mins])
        reached = n
    result.max_length = reached
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
    shorter = None
    for n in range(len(w1) + 1):
        shorter = _orbit_labels(sol, n, shorter)
    labels, base = shorter[0], sol.size
    return bool(labels[encode_word(w1, base)] == labels[encode_word(w2, base)])


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
    every coordinate inside the ball (the radius, for unit vectors); when
    that code would overflow, states are rows (g, v) deduplicated row-wise.
    """
    gens = []
    seen_gens = set()
    for g, vec in generators:
        for elem, v in ((int(g), tuple(int(c) for c in vec)), (group.inv(int(g)), tuple(-int(c) for c in vec))):
            if (elem, v) not in seen_gens:
                seen_gens.add((elem, v))
                gens.append((elem, v))
    rank = len(gens[0][1]) if gens else 0
    if any(len(v) != rank for _, v in gens):
        raise ValueError("lattice vectors have mismatched ranks")
    elems = np.array([g for g, _ in gens], dtype=np.int64)
    steps = np.array([v for _, v in gens], dtype=np.int64).reshape(len(gens), rank)
    # a state within `radius` steps has every coordinate in [-reach, reach]
    reach = max(radius, 0) * int(np.abs(steps).max(initial=0))
    digit = 2 * reach + 1
    span = digit**rank
    if group.size * span < 2**63:
        # state code: element * span + lattice code (coordinates shifted by reach)
        place = digit ** np.arange(rank - 1, -1, -1, dtype=np.int64)
        shifts = steps @ place

        def advance(states):
            g, lattice = np.divmod(states, span)
            return (group.products(g[:, None], elems) * span + lattice[:, None] + shifts).ravel()

        def fresh(candidates, old):
            codes = np.unique(candidates)
            return codes[~np.isin(codes, old, assume_unique=True)]

        start = np.array([reach * int(place.sum())], dtype=np.int64)
    else:
        # codes would overflow int64: keep states as rows (element, vector)

        def advance(states):
            g = group.products(states[:, :1], elems).ravel()
            return np.column_stack([g, (states[:, None, 1:] + steps).reshape(-1, rank)])

        def fresh(candidates, old):
            rows, inverse = np.unique(
                np.concatenate([old, candidates]), axis=0, return_inverse=True
            )
            inverse = inverse.ravel()
            return rows[np.setdiff1d(inverse[len(old):], inverse[: len(old)])]

        start = np.zeros((1, rank + 1), dtype=np.int64)
    # generators are closed under inverses, so a sphere's neighbours lie in
    # it and in the spheres just before and after it
    before, frontier = start[:0], start
    spheres = [1]
    states = 1
    for _ in range(radius):
        before, frontier = frontier, fresh(advance(frontier), np.concatenate([before, frontier]))
        states += len(frontier)
        if states > budget:
            raise BudgetExceededError(f"ball enumeration exceeded {budget} states")
        spheres.append(len(frontier))
    return BallEnumeration(list(gens), radius, spheres, states)


def conjugation_ball_generators(
    group: FiniteGroupTable, subset: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """Generators (x, unit vector of the conjugacy class of x) for the
    structure group of the conjugation solution on the subset."""
    dec = group.conjugacy_classes()
    classes = sorted({dec.class_of[x] for x in subset})
    coord = {c: i for i, c in enumerate(classes)}
    rank = len(classes)
    gens = []
    for x in subset:
        vec = [0] * rank
        vec[coord[dec.class_of[x]]] = 1
        gens.append((int(x), tuple(vec)))
    return gens


def conjugation_ball_series(
    group: FiniteGroupTable,
    subset: Sequence[int],
    radius: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> list[int]:
    """Sphere sizes of the structure group of a conjugation solution."""
    gens = conjugation_ball_generators(group, subset)
    ball = group_ball_enumerate(gens, group, radius, budget)
    return ball.sphere_sizes


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


def _reflection_moves(word: tuple[int, ...], lo: int, hi: int):
    for pos in range(len(word) - 1):
        x, y = word[pos], word[pos + 1]
        fwd = 2 * x - y
        if lo <= fwd <= hi:
            yield word[:pos] + (fwd, x) + word[pos + 2 :]
        back = 2 * y - x
        if lo <= back <= hi:
            yield word[:pos] + (y, back) + word[pos + 2 :]


def reflection_orbit_closure(
    word: Sequence[int], margin: int = 8, max_states: int = 500000
) -> set[tuple[int, ...]]:
    """Braiding orbit of a word over the integers, restricted to the letter
    window [min - margin, max + margin]."""
    start = tuple(int(a) for a in word)
    if not start:
        return {start}
    lo, hi = min(start) - margin, max(start) + margin
    closure = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for moved in _reflection_moves(w, lo, hi):
            if moved not in closure:
                if len(closure) >= max_states:
                    raise BudgetExceededError("reflection orbit closure exceeded state cap")
                closure.add(moved)
                stack.append(moved)
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
