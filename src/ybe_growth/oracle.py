"""Brute-force ground truth: word-orbit enumeration for structure monoids,
sphere counting for structure groups embedded in (finite group) x Z^k, and
window orbit closures over the integer reflection solution.

The word-orbit oracle works on the orbit quotient and never holds one entry
per word.  The orbits of length n are the connected components of a graph on
the nodes (length-(n-1) orbit, last letter), joined only by the move at the
last position.  That move's two ends depend on the word before the last two
letters only through its orbit, so the edges of length n come from the
triples (orbit of length n-2, letter, letter), read off the previous
length's orbit table.  Orbits are numbered by their minimal word, which is
built by extending the minimal word of the node's shorter orbit by one
letter.

The sphere oracle is one BFS over (block, lattice vector) states, for a
partition of G such that word length in G x Z^k is constant on each set
B x {v}.  Its moves from (B, v) are read at one member of B, and sphere n
is the sum of |B| over its states at distance n.  Single elements fit any
generators (`group_ball_enumerate`; over G x Z^0, the Cayley-graph length
series).  Conjugacy classes fit a conjugation solution
(`class_quotient_spheres`), whose structure group embeds in G x Z^k with
generators (x, e_C) for x in a class C: conjugation by any h in G is an
automorphism of G x Z^k that fixes the root and maps each generator
(x, e_C) to the generator (h x h^-1, e_C), so word length is constant on
each set C x {v}.

The ball BFS and the window closure keep each BFS level as one sorted 1-D
array of mixed-radix codes (int64, or Python ints in an object array where
a code would overflow int64; the same lines serve both).  Both run through
one level-synchronous traversal, `_bfs_levels`, which is told the number of
possible codes.  When there are at most 2^20 (`_DENSE_CODES`), it marks the
codes seen in a dense bool array of at most 1 MiB and keeps the unmarked
ones; otherwise it deduplicates by sort and binary search against the two
levels before the new one only, which is exact because both move sets are
closed under inverses.  Both rules give the same levels.

The window closure searches the weight hyperplane of its word: a move adds
the same shift to two neighbouring letters, one at an even and one at an
odd position, so the alternating sum of the letters is constant on the
orbit, and the first n - 1 letters fix the last one.  The search codes
those n - 1 letters only (31^4 codes instead of 31^5 for five letters in a
31-letter window).  The closure stays in code form: it returns a
`WindowOrbit`, a read-only set view whose length and membership are read off
the sorted codes of whole words, and which decodes words to tuples only when
iterated.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Set
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_STATE_BUDGET,
    DEFAULT_WORD_BUDGET,
    BudgetExceededError,
    FiniteGroupTable,
    QuandleSolution,
)


def _places(radices: Sequence[int]) -> np.ndarray:
    """Place values of the mixed-radix codes of digit rows below `radices`
    (most significant first): int64, or Python ints in an object array where
    those codes would overflow int64."""
    dtype = np.int64 if math.prod(radices) < 2**63 else object
    return np.array([math.prod(radices[i + 1 :]) for i in range(len(radices))], dtype=dtype)


def _digit_rows(states: np.ndarray, places: np.ndarray, radices) -> np.ndarray:
    """The int64 digit rows of codes."""
    return (states[:, None] // places % radices).astype(np.int64, copy=False)


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of a code array, ascending."""
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


_DENSE_CODES = 1 << 20  # code spaces up to this size are deduplicated in a bool array


def _bfs_levels(start: np.ndarray, advance, budget: int, what: str, *, space: int, weight=len):
    """Yield the BFS levels, sorted code arrays, from the codes `start`:
    `advance` maps a level to its neighbours' codes, all in range(space), of
    which those already reached are dropped.  Raises BudgetExceededError once
    the levels weigh more than `budget` states in all, where `weight` weighs
    one level (by default its number of codes).

    A space of at most `_DENSE_CODES` = 2^20 codes (so int64 codes) is
    deduplicated against a dense bool array of the codes seen, of at most
    1 MiB: a new level is the sorted distinct neighbours not yet marked.  A
    larger space, and so every object-dtype one, is deduplicated by sort and
    binary search against the two levels before the new one only: the moves
    are closed under inverses, so a neighbour of level k lies in level
    k - 1, k or k + 1.  Both give the same levels."""
    seen = np.zeros(space, dtype=bool) if space <= _DENSE_CODES else None
    if seen is not None:
        seen[start] = True
    before, frontier, states = start[:0], start, weight(start)
    while True:
        yield frontier
        moved = advance(frontier)
        if seen is None:
            before, frontier = frontier, _new_codes(moved, before, frontier)
        else:
            frontier = _sorted_unique(moved[~seen[moved]])
            seen[frontier] = True
        del moved  # not held across the yield
        states += weight(frontier)
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
) -> tuple[np.ndarray, int, list[tuple[int, ...]]]:
    """The orbit table of one length under braiding moves, the orbit count,
    and each orbit's minimal word (ascending: orbits are numbered by their
    minimal words).

    `shorter` is this function's result for length - 1.  Row p, column x of
    the table is the orbit of the words u + x for u in orbit p of length - 1;
    (p, x) is a node of the quotient graph.  For u = v + y, the move at the
    last position joins (orbit of v + y, x) to (orbit of v + (y > x), y), and
    it is the quotient's only kind of edge.  Both orbits are entries of the
    shorter table in the row of v's orbit, so the edges come from the triples
    (orbit of v, y, x), not from the words: every orbit is non-empty, so the
    triples give the same edges as the words would.
    """
    base = sol.size
    if length == 0:
        return np.zeros((0, base), dtype=np.int64), 1, [()]
    table, count, reps = shorter
    nodes = np.arange(count * base, dtype=np.int64)
    roots = nodes
    if length > 1:
        op = np.asarray(sol.op, dtype=np.int64).reshape(base, base)
        letters = np.arange(base, dtype=np.int64)
        # entry [p, y, x] is the node of v + y + x, or of its move, for v in orbit p
        a = table[:, :, None] * base + letters  # (orbit of v + y, x)
        b = table[:, op] * base + letters[:, None]  # (orbit of v + (y > x), y)
        roots = _component_roots(len(nodes), a.ravel(), b.ravel())
    # nodes order like their minimal words, since reps ascend: the smallest
    # node of a component is its root and holds its minimal word
    is_root = roots == nodes
    firsts = np.flatnonzero(is_root)
    new_table = (np.cumsum(is_root) - 1)[roots].reshape(count, base)
    orbit, letter = np.divmod(firsts, base)
    new_reps = [reps[p] + (x,) for p, x in zip(orbit.tolist(), letter.tolist())]
    return new_table, len(firsts), new_reps


def _check_letters(word: Sequence[int], size: int) -> None:
    if not all(a in range(size) for a in word):
        raise ValueError(f"word {tuple(word)} has letters outside 0..{size - 1}")


@dataclass
class OrbitEnumeration:
    """Orbit counts and canonical representatives of words per length."""

    solution: QuandleSolution
    requested_length: int
    max_length: int  # last length actually enumerated
    counts: list[int] = field(default_factory=list)
    representatives: list[list[tuple[int, ...]]] = field(default_factory=list)
    _tables: list[np.ndarray] = field(default_factory=list)  # per length, from _orbit_labels
    truncated: bool = False

    def orbit_id(self, word: Sequence[int]) -> tuple[int, int]:
        """(length, orbit index) of a word; orbits are per-length.  Raises
        ValueError for a word longer than the enumeration or with a letter
        outside 0..size-1."""
        n, size = len(word), self.solution.size
        if n > self.max_length:
            raise ValueError(f"length {n} beyond enumerated range {self.max_length}")
        _check_letters(word, size)
        orbit = 0  # the empty word's
        for table, letter in zip(self._tables[1:], word):
            orbit = table[orbit, letter]
        return n, int(orbit)

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
        table, n_orbits, reps = shorter = _orbit_labels(sol, n, shorter)
        result.counts.append(n_orbits)
        result._tables.append(table)
        result.representatives.append(reps)
    result.max_length = len(result.counts) - 1
    return result


def orbit_equal(
    sol: QuandleSolution,
    w1: Sequence[int],
    w2: Sequence[int],
    budget: int = DEFAULT_WORD_BUDGET,
) -> bool:
    """Whether two words are related by braiding moves (always false across
    different lengths, since moves preserve length).  Raises ValueError for a
    letter outside 0..size-1, whatever the words, and BudgetExceededError
    when the enumeration through their length would exceed `budget` words,
    counted as in monoid_orbit_enumerate."""
    _check_letters(w1, sol.size)
    _check_letters(w2, sol.size)
    if len(w1) != len(w2):
        return False
    if tuple(w1) == tuple(w2):
        return True
    enum = monoid_orbit_enumerate(sol, len(w1), budget)
    if enum.truncated:
        raise BudgetExceededError(f"orbits of length {len(w1)} exceed the budget of {budget} words")
    return enum.same_orbit(w1, w2)


@dataclass
class BallEnumeration:
    """Sphere sizes of the subgroup generated inside (group) x Z^rank, and their sum."""

    sphere_sizes: list[int]
    states: int


def _block_spheres(
    generators: Iterable, group: FiniteGroupTable, radius: int, budget: int, block_of: np.ndarray
) -> list[int]:
    """Sphere sizes of the ball of `radius` around the root of (group) x
    Z^rank, for the generators (x, w) and their inverses (x^-1, -w), by a
    BFS over (block, lattice vector) states.  block_of[g] numbers the block
    of g, a single element or a conjugacy class, and the generators must be
    a union of sets B x {w} (always so for single elements), else ValueError;
    then word length is constant on each set B x {v}.

    A state is one code: the block above the coordinates of v, each shifted
    by a bound r on every coordinate inside the ball (the radius, for unit
    vectors).  The moves from (B, v) are read at the first member b of B,
    for all blocks from one `products` call: (b x, v + w) lands in (block of
    b x, v + w), and moves that land alike are kept once.  Sphere n, and the
    budget, count the elements of the blocks at distance n.
    """
    pairs = list(generators)
    rank = len(pairs[0][1]) if pairs else 0
    if any(len(w) != rank for _, w in pairs):
        raise ValueError("lattice vectors have mismatched ranks")
    elems = np.array([x for x, _ in pairs] + [group.inv(x) for x, _ in pairs], dtype=np.int64)
    steps = np.array([w for _, w in pairs], dtype=np.int64).reshape(len(pairs), rank)
    steps = np.concatenate([steps, -steps])
    # a move (x, w) as one code: x above the coordinates of w, each shifted by `span`
    span = int(np.abs(steps).max(initial=0))
    unit = _places([group.size] + [2 * span + 1] * rank)
    lattice = (steps + span).astype(unit.dtype) @ unit[1:]
    distinct = np.unique(elems.astype(unit.dtype) * unit[0] + lattice, return_index=True)[1]
    elems, steps, lattice = elems[distinct], steps[distinct], lattice[distinct]
    firsts = np.unique(block_of, return_index=True)[1]
    sizes, count = np.bincount(block_of), len(firsts)
    held, counts = np.unique(block_of[elems].astype(unit.dtype) * unit[0] + lattice, return_counts=True)
    if (counts != sizes[(held // unit[0]).astype(np.int64)]).any():
        raise ValueError("the generators are not a union of conjugacy classes")
    # a state within `radius` steps has every coordinate in [-reach, reach]
    reach = max(radius, 0) * span
    places = _places([count] + [2 * reach + 1] * rank)
    shifts = steps.astype(places.dtype, copy=False) @ places[1:]
    root = np.array([[int(block_of[0])] + [reach] * rank], dtype=places.dtype) @ places
    # row b: the code jumps of the moves from block b, each kept once
    targets = block_of[group.products(firsts[:, None], elems)] - np.arange(count)[:, None]
    jumps = np.sort(targets.astype(places.dtype, copy=False) * places[0] + shifts, axis=1)
    keep = np.ones(jumps.shape, dtype=bool)
    keep[:, 1:] = jumps[:, 1:] != jumps[:, :-1]
    flat, degree = jumps[keep], keep.sum(axis=1)
    first = np.cumsum(degree) - degree  # where row b starts in `flat`

    def block_index(states):
        return (states // places[0]).astype(np.int64, copy=False)

    def advance(states):
        b = block_index(states)
        deg = degree[b]
        # candidate i of state s takes jump first[b_s] + (i - where s's candidates start)
        index = np.repeat(first[b] - np.cumsum(deg) + deg, deg)
        index += np.arange(len(index))
        moved = flat[index]
        del index  # one candidate-sized array less at the peak
        moved += np.repeat(states, deg)
        return moved

    def weight(level):
        return int(sizes[block_index(level)].sum())

    space = count * int(places[0])
    levels = _bfs_levels(root, advance, budget, "ball enumeration", space=space, weight=weight)
    return [weight(level) for level in itertools.islice(levels, max(radius, 0) + 1)]


def group_ball_enumerate(
    generators: Iterable[tuple[int, Sequence[int]]],
    group: FiniteGroupTable,
    radius: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> BallEnumeration:
    """BFS sphere sizes from the identity, using generators and inverses.

    Each generator is a pair (group element, lattice vector); its inverse is
    (inverse element, negated vector).  This is `_block_spheres` over single
    elements, so any generators are accepted.  Rank 0 is the Cayley graph of
    the group itself.  The move table, one product per element and distinct
    move, is built for all of G before the search starts, whatever the
    radius: the budget bounds the states reached, not that table.
    """
    spheres = _block_spheres(generators, group, radius, budget, np.arange(group.size))
    return BallEnumeration(spheres, sum(spheres))


def class_quotient_spheres(
    generators: Iterable[tuple[int, Sequence[int]]],
    group: FiniteGroupTable,
    radius: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> list[int]:
    """The sphere sizes of `group_ball_enumerate`, from `_block_spheres`
    over the conjugacy classes: one state per (class, lattice vector).

    The generators must be closed under conjugation, taken with their
    inverses: every (x, v) comes with (h x h^-1, v) for every h; otherwise
    ValueError.  Conjugation by h then fixes the root and permutes the
    generators, so word length is constant on each set C x {v}.
    """
    return _block_spheres(generators, group, radius, budget, np.array(group.conjugacy_classes().class_of))


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
    """Sphere sizes of the structure group of a conjugation solution on a
    subset that is a union of conjugacy classes (else ValueError)."""
    gens = conjugation_ball_generators(group, subset)
    return class_quotient_spheres(gens, group, radius, budget)


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


_DECODE_CHUNK = 1 << 14  # codes decoded per step of a WindowOrbit iteration


class WindowOrbit(Set):
    """The words of a window orbit closure as a read-only set of tuples.

    The words are held as one ascending array of their codes (the
    base-`width` code of each letter's offset from `lo`, with place values
    `places`): int64, or Python ints in an object array where those codes
    would overflow int64.  `len` and membership never decode (membership
    binary-searches the codes); iteration decodes tuples chunk by chunk, in
    code order.  Set operations return plain sets.
    """

    __slots__ = ("lo", "width", "places", "length", "_states")

    def __init__(self, states: np.ndarray, lo: int, width: int, places: np.ndarray, length: int):
        self._states = states
        self.lo, self.width, self.places, self.length = lo, width, places, length

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, word) -> bool:
        # a word of the wrong length, with a letter outside the window or a
        # letter that is not an integer is no member
        try:
            offsets = [operator.index(a) - self.lo for a in word]
        except TypeError:
            return False
        if len(offsets) != self.length or not all(0 <= x < self.width for x in offsets):
            return False
        states = self._states
        code = sum(map(operator.mul, offsets, self.places.tolist()))
        i = states.searchsorted(code)
        return bool(i < len(states) and states[i] == code)

    def __iter__(self):
        # one int object per letter, shared by every decoded word
        letters = np.arange(self.lo, self.lo + self.width).astype(object)
        for i in range(0, len(self._states), _DECODE_CHUNK):
            rows = _digit_rows(self._states[i : i + _DECODE_CHUNK], self.places, self.width)
            yield from map(tuple, letters[rows].tolist())

    @classmethod
    def _from_iterable(cls, words) -> set:
        return set(words)


def _window_margin(margin) -> int:
    """margin as a Python int; ValueError unless it is a non-negative integer
    (True, 1.5 and "3" are refused, numpy integers accepted)."""
    try:
        value = operator.index(margin)
    except TypeError:
        value = -1
    if isinstance(margin, bool) or value < 0:
        raise ValueError(f"window margin must be a non-negative integer, got {margin!r}")
    return value


def reflection_orbit_closure(word: Sequence[int], margin: int = 8, max_states: int = 500000) -> WindowOrbit:
    """Braiding orbit of a word over the integers, restricted to the letter
    window [min - margin, max + margin], as a read-only `WindowOrbit` set of
    letter tuples; raises BudgetExceededError when it has more than
    max(max_states, 1) words, and ValueError for a margin that is not a
    non-negative integer.  A word is the base-(window width) code of its
    letters' offsets from the window's lower end, a Python int where the
    codes would overflow int64.

    The search runs on the weight hyperplane of the word.  A move adds the
    same shift +-(x - y) to two neighbouring letters, one at an even and one
    at an odd position, so the alternating sum S of the offsets o_0..o_(n-1)
    is constant on the orbit.  The search codes only o_0..o_(n-2), as the
    hyper code h in base width, over width^(n-1) codes (dense dedupe up to
    2^20 of them, `_bfs_levels`).  As width = -1 modulo width + 1, h is
    (-1)^n times the alternating sum of those offsets modulo width + 1, so
    o_(n-1) = (h + (-1)^(n-1) S) mod (width + 1); the code of the whole word
    is h * width + o_(n-1), which orders the words as h does.
    """
    margin = _window_margin(margin)
    start = tuple(int(a) for a in word)
    n = len(start)
    lo = min(start, default=0) - margin
    width = max(start, default=0) + margin - lo + 1
    places = _places([width] * n)
    offsets = [a - lo for a in start]
    if n < 2:  # no moves: the word alone
        code = sum(map(operator.mul, offsets, places.tolist()))
        return WindowOrbit(np.array([code], dtype=places.dtype), lo, width, places, n)
    hyper_places = _places([width] * (n - 1))
    # a move at pos shifts the letters at pos and pos + 1; the last is not coded
    units = hyper_places.copy()
    units[:-1] += hyper_places[1:]
    # (h + turn) mod (width + 1) is the last offset of the word with hyper code h
    turn = (-1) ** (n - 1) * sum(o if i % 2 == 0 else -o for i, o in enumerate(offsets))

    def advance(states):
        # the offsets of each word, decoded once per level
        letters = [None] * n
        rest = states
        for pos in range(n - 2, 0, -1):
            rest, letters[pos] = rest // width, rest % width
        letters[0], letters[-1] = rest, (states + turn) % (width + 1)
        letters = [x.astype(np.int64, copy=False) for x in letters]  # also from Python-int codes
        moved = []
        for pos in range(n - 1):
            x, y = letters[pos], letters[pos + 1]
            # (x, y) -> (2x - y, x) and its inverse (x, y) -> (y, 2y - x)
            # add +-(x - y) to both letters; one new letter may leave the window
            diff = x - y
            for shift, end in ((diff, x + diff), (-diff, y - diff)):
                ok = (end >= 0) & (end < width)
                step = shift[ok].astype(states.dtype, copy=False)
                step *= units[pos]
                step += states[ok]
                moved.append(step)
        return np.concatenate(moved)

    first = np.array([sum(map(operator.mul, offsets, hyper_places.tolist()))], dtype=hyper_places.dtype)
    # a word is always in its own closure, whatever max_states
    space = width ** (n - 1)
    levels = _bfs_levels(first, advance, max(max_states, 1), "reflection orbit closure", space=space)
    # the levels are disjoint, so one sort of all of them orders the orbit
    states = np.concatenate(list(itertools.takewhile(len, levels))).astype(places.dtype, copy=False)
    states.sort()
    for i in range(0, len(states), _DECODE_CHUNK):
        chunk = states[i : i + _DECODE_CHUNK]  # a view: converted in place
        last = (chunk + turn) % (width + 1)
        chunk *= width
        chunk += last
    return WindowOrbit(states, lo, width, places, n)


def reflection_orbit_equal_infinite(
    w1: Sequence[int], w2: Sequence[int], margin: int = 8, max_states: int = 500000
) -> bool:
    """Window-limited orbit equality over the integers.

    The orbit of w1 is closed with window margins m, 2m and 4m, for
    m = margin + max |letter of w2|, stopping at the first closure that holds
    w2.  True is exact: a path of moves was found.  False is not a proof: it
    means only that no path stays inside the widest window, and a connecting
    path could in principle need letters beyond it.
    """
    margin = _window_margin(margin)
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
