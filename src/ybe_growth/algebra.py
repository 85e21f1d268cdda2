"""Finite groups as multiplication tables, conjugacy-class machinery,
quandle-type Yang-Baxter solutions, and set partitions.

Groups keep element 0 as the identity.  Small groups (n <= DENSE_LIMIT)
materialise the full multiplication table as a numpy array; larger symmetric
groups multiply by gathering permutation images.  Each group caches one
ClassAlgebra: its classes, class product table and commutator masks.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .series import TruncatedSeries

DENSE_LIMIT = 2100
# largest quandle accepted: validation checks all n^3 triples
MAX_SOLUTION_SIZE = 512


class Permutation:
    """Permutation of {0..d-1}; composition applies the right factor first."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation: {images!r}")
        self.images = imgs

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(d))

    @classmethod
    def transposition(cls, d: int, i: int, j: int) -> "Permutation":
        imgs = list(range(d))
        imgs[i], imgs[j] = imgs[j], imgs[i]
        return cls(imgs)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(self.images[x] for x in other.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def inverse(self) -> "Permutation":
        imgs = [0] * len(self.images)
        for i, x in enumerate(self.images):
            imgs[x] = i
        return Permutation(imgs)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        """Number of cycles, fixed points included."""
        return len(self.cycles(include_fixed=True))

    def transposition_length(self) -> int:
        """Minimal number of transpositions: d - (number of cycles)."""
        return len(self.images) - self.cycle_count()

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True))

    def is_transposition(self) -> bool:
        cyc = self.cycles()
        return len(cyc) == 1 and len(cyc[0]) == 2

    def label(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "e"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cyc)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


@dataclass(frozen=True)
class ConjugacyDecomposition:
    """Conjugacy classes of a group: class 0 = {identity}, the rest ordered
    by (size, minimal element index)."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    inverse_class: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def class_containing(self, element: int) -> int:
        return self.class_of[element]


class FiniteGroupTable:
    """A finite group given by its multiplication structure.

    Either a dense numpy table is stored, or the permutation images of the
    elements (one row per element), multiplied by gathering images and ranking
    the result; the latter keeps S_7 and S_8 free of an n x n table.

    class_keys, when given, is a complete conjugacy invariant per element
    (such as the cycle type in S_d): elements are conjugate exactly when their
    keys are equal, and the conjugacy classes are read off the keys.
    """

    def __init__(
        self,
        size: int,
        *,
        table: Optional[np.ndarray] = None,
        images: Optional[np.ndarray] = None,
        class_keys: Optional[Sequence] = None,
        inverses: Optional[Sequence[int]] = None,
        labels: Optional[Sequence[str]] = None,
        name: str = "G",
        validate: bool = True,
    ):
        if size <= 0:
            raise ValueError("group size must be positive")
        if table is None and images is None:
            raise ValueError("need a multiplication table or permutation images")
        self.size = size
        self.name = name
        self._table = None if table is None else np.asarray(table, dtype=np.int64)
        self._images = None if images is None else np.asarray(images, dtype=np.int64)
        self._rank = None if images is None else _image_ranker(self._images)
        self._class_keys = class_keys
        self.labels = list(labels) if labels is not None else [str(i) for i in range(size)]
        if len(self.labels) != size:
            raise ValueError("label count does not match group size")
        if inverses is not None:
            self._inv = list(int(x) for x in inverses)
        else:
            self._inv = self._compute_inverses()
        self._classes: Optional[ConjugacyDecomposition] = None
        self._algebra: Optional[ClassAlgebra] = None
        if validate:
            self._validate()

    # -- core operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return int(self._table[a, b])
        return int(self._rank(self._images[a][self._images[b]]))

    def row(self, a: int) -> np.ndarray:
        """a * b for every element b."""
        if self._table is not None:
            return self._table[a]
        # (p_a * p_b)(i) = p_a[p_b[i]]: gather p_a through every image row
        return self._rank(self._images[a][self._images])

    def products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b elementwise over broadcast arrays of elements."""
        if self._table is not None:
            return self._table[a, b]
        a, b = np.broadcast_arrays(a, b)
        return self._rank(np.take_along_axis(self._images[a], self._images[b], axis=-1))

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conjugate(self, a: int, b: int) -> int:
        """a b a^-1."""
        return self.mul(self.mul(a, b), self._inv[a])

    def elements(self) -> range:
        return range(self.size)

    def label(self, a: int) -> str:
        return self.labels[a]

    # -- construction helpers ----------------------------------------------

    def _compute_inverses(self) -> list[int]:
        inv = [-1] * self.size
        for a in range(self.size):
            if inv[a] >= 0:
                continue
            row = self.row(a)
            hits = np.flatnonzero(row == 0)
            if len(hits) != 1:
                raise ValueError(f"element {a} has {len(hits)} right inverses")
            b = int(hits[0])
            inv[a] = b
            inv[b] = a
        return inv

    def _validate(self) -> None:
        if self.mul(0, 0) != 0:
            raise ValueError("element 0 is not idempotent, cannot be the identity")
        n = self.size
        probe = range(n) if n <= 64 else random.Random(0).sample(range(n), 48)
        for a in probe:
            if self.mul(a, 0) != a or self.mul(0, a) != a:
                raise ValueError("element 0 is not a two-sided identity")
            b = self._inv[a]
            if self.mul(a, b) != 0 or self.mul(b, a) != 0:
                raise ValueError(f"inverse table wrong at element {a}")
        if self._table is not None:
            ident = np.arange(n)
            for a in range(n):
                row = self._table[a]
                if row.min() < 0 or row.max() >= n:
                    raise ValueError("table entry out of range")
                if not np.array_equal(np.sort(row), ident):
                    raise ValueError(f"row {a} is not a permutation of the group")
            col_sorted = np.sort(self._table, axis=0)
            if not np.array_equal(col_sorted, np.tile(ident[:, None], (1, n))):
                raise ValueError("some column is not a permutation of the group")
        # Associativity: full check only for tiny groups, sampled otherwise.
        rng = random.Random(1)
        if n <= 24:
            triples = itertools.product(range(n), repeat=3)
        else:
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(2000))
        for a, b, c in triples:
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise ValueError(f"associativity fails at ({a},{b},{c})")

    # -- conjugacy and commutators ------------------------------------------

    def conjugacy_classes(self) -> ConjugacyDecomposition:
        if self._classes is None:
            self._classes = self._decompose()
        return self._classes

    def _decompose(self) -> ConjugacyDecomposition:
        n = self.size
        if self._class_keys is not None:
            by_key: dict = {}
            for x, key in enumerate(self._class_keys):
                by_key.setdefault(key, []).append(x)
            raw = list(by_key.values())
        else:
            raw = []
            seen = [False] * n
            for start in range(n):
                if not seen[start]:
                    orbit = sorted({self.conjugate(h, start) for h in range(n)})
                    for x in orbit:
                        seen[x] = True
                    raw.append(orbit)
        ident = next(c for c in raw if c[0] == 0)
        rest = sorted((c for c in raw if c is not ident), key=lambda c: (len(c), c[0]))
        classes = [tuple(ident)] + [tuple(c) for c in rest]
        class_of = [-1] * n
        for ci, members in enumerate(classes):
            for x in members:
                class_of[x] = ci
        return ConjugacyDecomposition(
            classes=tuple(classes),
            class_of=tuple(class_of),
            inverse_class=tuple(class_of[self._inv[c[0]]] for c in classes),
        )

    def class_algebra(self) -> "ClassAlgebra":
        """The group's class-level algebra, built on first use and cached."""
        if self._algebra is None:
            self._algebra = ClassAlgebra(self)
        return self._algebra

    def commutator_subgroup(self) -> tuple[int, ...]:
        """[G,G], the closure of all commutators [a,b] under multiplication."""
        algebra = self.class_algebra()
        return tuple(algebra.members(algebra.commutator_mask))

    def commutator_set(self) -> set[int]:
        """All single commutators a b a^-1 b^-1."""
        algebra = self.class_algebra()
        return set(algebra.members(algebra.single_commutator_mask))

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> dict:
        if self._table is None:
            raise ValueError(f"group {self.name} is too large to serialise as a table")
        return {
            "name": self.name,
            "size": self.size,
            "labels": self.labels,
            "mult": self._table.tolist(),
            "inv": list(self._inv),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroupTable":
        return cls(
            int(data["size"]),
            table=np.asarray(data["mult"], dtype=np.int64),
            inverses=data.get("inv"),
            labels=data.get("labels"),
            name=data.get("name", "G"),
        )

    def __repr__(self):
        return f"FiniteGroupTable({self.name}, size={self.size})"


def class_product_table(
    group: FiniteGroupTable, dec: ConjugacyDecomposition
) -> list[list[int]]:
    """Bitmask table: entry (i,j) marks the classes meeting C_i * C_j.

    Since class products are conjugation-invariant, the classes meeting
    rep * C_j for one fixed representative of C_i already give all of them,
    so each row of the table needs one group row, rep * G.
    """
    c = dec.count
    class_of = np.asarray(dec.class_of)
    table = []
    for members in dec.classes:
        meets = np.zeros((c, c), dtype=bool)
        # meets[j, k]: some y in C_j has rep * y in C_k
        meets[class_of, class_of[group.row(members[0])]] = True
        bits = np.packbits(meets, axis=1, bitorder="little")
        table.append([int.from_bytes(r.tobytes(), "little") for r in bits])
    for i in range(c):
        for j in range(c):
            if table[i][j] != table[j][i]:
                raise AssertionError("class product table is not symmetric")
    return table


def _bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of a class mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClassAlgebra:
    """Class-level data of a finite group, shared by every routine that works
    with unions of conjugacy classes; get it from `group.class_algebra()`.

    A union of classes is an int bitmask over class indices, and the class
    product table multiplies such masks.  For a in C_i the commutators
    [a, b] = a (b a^-1 b^-1) over all b form a C_i^-1, so the single
    commutators are the union of the products C_i C_i^-1, and [G,G] is that
    mask closed under mask products.
    """

    def __init__(self, group: FiniteGroupTable):
        self.dec = group.conjugacy_classes()
        self.table = class_product_table(group, self.dec)
        self.count = self.dec.count
        self.sizes = self.dec.sizes
        self.inverse_class = self.dec.inverse_class
        self.self_inverse = all(self.inverse_class[i] == i for i in range(self.count))
        single = 0
        for i in range(self.count):
            single |= self.table[i][self.inverse_class[i]]
        self.single_commutator_mask = single
        # the identity class is in the mask, so squaring only grows it, and a
        # square-closed set of a finite group is a subgroup
        closed = single
        while (grown := self.mask_product(closed, closed)) != closed:
            closed = grown
        self.commutator_mask = closed
        self.commutator_size = self.mask_size(closed)

    def mask_times_class(self, mask: int, cls: int) -> int:
        out = 0
        row = self.table
        i = 0
        while mask:
            if mask & 1:
                out |= row[i][cls]
            mask >>= 1
            i += 1
        return out

    def mask_product(self, left: int, right: int) -> int:
        out = 0
        for j in _bits(right):
            out |= self.mask_times_class(left, j)
        return out

    def mask_size(self, mask: int) -> int:
        total = 0
        i = 0
        while mask:
            if mask & 1:
                total += self.sizes[i]
            mask >>= 1
            i += 1
        return total

    def members(self, mask: int) -> list[int]:
        """The elements of the classes in mask, ascending."""
        return sorted(x for i in _bits(mask) for x in self.dec.classes[i])

    def defect_of_mask(self, mask: int) -> int:
        """|[G,G]| minus the number of elements in the classes of mask."""
        defect = self.commutator_size - self.mask_size(mask)
        if defect < 0:
            raise AssertionError("class product exceeded the commutator subgroup size")
        return defect

    def chain(self, mask: int, cls: int):
        """Masks mask * C^k for k = 0,1,2,... plus the 2-periodic stabilisation
        point: returns (prefix list m_0..m_{s+1}, s) with m_{k+2} = m_k for all
        k >= s.  Stabilisation is guaranteed: multiplying twice by a
        self-inverse class only grows the mask."""
        masks = [mask]
        while True:
            masks.append(self.mask_times_class(masks[-1], cls))
            n = len(masks)
            if n >= 4 and masks[-1] == masks[-3] and masks[-2] == masks[-4]:
                return masks[:-2], n - 4
            if n > 4 * self.count + 8:
                raise AssertionError("class power chain failed to stabilise")


# -- standard groups ---------------------------------------------------------


def _image_ranker(images: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Rank function of a list of permutations of {0..d-1}, given as an n x d
    image matrix: maps image rows (an array of any leading shape) to their
    indices in the list, by looking up base-d codes."""
    d = images.shape[1]
    radix = d ** np.arange(d - 1, -1, -1, dtype=np.int64)
    codes = images @ radix
    order = np.argsort(codes)
    sorted_codes = codes[order]

    def rank(rows: np.ndarray) -> np.ndarray:
        return order[np.searchsorted(sorted_codes, rows @ radix)]

    return rank


def make_symmetric_group(d: int) -> FiniteGroupTable:
    """S_d with elements sorted by image tuple (identity first).

    Groups up to S_6 (n <= DENSE_LIMIT) store the multiplication table; S_7
    and S_8 keep the permutation images.  Classes are read off cycle types.
    """
    if not 1 <= d <= 8:
        raise ValueError("symmetric group supported for 1 <= d <= 8")
    perms = [Permutation(p) for p in itertools.permutations(range(d))]
    n = len(perms)
    images = np.array([p.images for p in perms], dtype=np.int64)
    rank = _image_ranker(images)
    table = None
    if n <= DENSE_LIMIT:
        # composition (p_a * p_b)(i) = p_a[p_b[i]]: image rows images[a][images[b]]
        table = np.stack([rank(images[a][images]) for a in range(n)])
    group = FiniteGroupTable(
        n,
        table=table,
        images=images if table is None else None,
        class_keys=[p.cycle_type() for p in perms],
        inverses=rank(np.argsort(images, axis=1)).tolist(),
        labels=[p.label() for p in perms],
        name=f"S{d}",
        validate=table is not None,
    )
    group.permutations = perms
    return group


def symmetric_transpositions(group: FiniteGroupTable) -> tuple[int, ...]:
    """Indices of the transpositions inside a group built by make_symmetric_group."""
    return tuple(i for i, p in enumerate(group.permutations) if p.is_transposition())


def make_dihedral_group(d: int) -> FiniteGroupTable:
    """D_d with rotations at indices 0..d-1 and reflections at d..2d-1.

    Reflection s_i is the reflection fixing vertex i (odd d); for even d the
    indices follow the same abstract rule s_i s_j = rho^(i-j), under which
    conjugation acts as s_i > s_j = s_{2i-j} for every d.
    """
    if not 1 <= d <= 1000:
        raise ValueError("dihedral group supported for 1 <= d <= 1000")
    n = 2 * d
    idx = np.arange(d)
    table = np.empty((n, n), dtype=np.int64)
    # rotation * rotation, rotation * reflection, reflection * rotation, refl * refl
    table[:d, :d] = (idx[:, None] + idx[None, :]) % d
    table[:d, d:] = d + (idx[None, :] + idx[:, None]) % d
    table[d:, :d] = d + (idx[:, None] - idx[None, :]) % d
    table[d:, d:] = (idx[:, None] - idx[None, :]) % d
    labels = ["e"] + [f"r{k}" for k in range(1, d)] + [f"s{i}" for i in range(d)]
    return FiniteGroupTable(n, table=table, labels=labels, name=f"D{d}")


def dihedral_reflections(group: FiniteGroupTable) -> tuple[int, ...]:
    d = group.size // 2
    return tuple(range(d, 2 * d))


# -- quandle solutions --------------------------------------------------------


class QuandleSolution:
    """A finite quandle (X, >) presented as the YBE solution (x,y) -> (x>y, x).

    Validation runs on construction: left translations must be bijections,
    the operation idempotent, and self-distributivity must hold on every
    triple, which costs n^3 table lookups; tables with more than
    MAX_SOLUTION_SIZE elements are refused.
    """

    __slots__ = ("op", "labels")

    def __init__(self, op: Sequence[Sequence[int]], labels: Optional[Sequence] = None):
        table = tuple(tuple(int(v) for v in row) for row in op)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("operation table is not square")
        self.op = table
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise ValueError("label count does not match solution size")
        self._validate()

    @property
    def size(self) -> int:
        return len(self.op)

    def apply(self, x: int, y: int) -> int:
        return self.op[x][y]

    def _validate(self) -> None:
        n = self.size
        if n > MAX_SOLUTION_SIZE:
            raise ValueError(f"solution of size {n} exceeds the validation limit {MAX_SOLUTION_SIZE}")
        full = set(range(n))
        for x in range(n):
            if set(self.op[x]) != full:
                raise ValueError(f"left translation by {x} is not a bijection")
            if self.op[x][x] != x:
                raise ValueError(f"idempotence fails at {x}")
        op = np.array(self.op, dtype=np.intp).reshape(n, n)
        flat = op.ravel()
        for x, row in enumerate(op):
            # x > (y > z) against (x > y) > (x > z), over all (y, z) at once
            bad = row[op] != flat[(row * n)[:, None] + row]
            if bad.any():
                y, z = np.argwhere(bad)[0]
                raise ValueError(f"self-distributivity fails at ({x},{y},{z})")

    def yang_baxter_map(self, x: int, y: int) -> tuple[int, int]:
        return self.op[x][y], x

    def to_json(self) -> dict:
        return {"size": self.size, "op": [list(r) for r in self.op], "labels": list(map(str, self.labels))}

    @classmethod
    def from_json(cls, data) -> "QuandleSolution":
        """Build from {"op": [[...]], "labels": [...]}; malformed data raises
        ValueError with a one-line reason."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "op" not in data:
            raise ValueError('solution JSON must be an object with an "op" table')
        op, labels = data["op"], data.get("labels")
        if not isinstance(op, list) or not all(isinstance(row, list) for row in op):
            raise ValueError('"op" must be a list of rows')
        if not all(type(v) is int for row in op for v in row):
            raise ValueError('"op" entries must be integers')
        if labels is not None and not isinstance(labels, list):
            raise ValueError('"labels" must be a list')
        return cls(op, labels=labels)

    def __repr__(self):
        return f"QuandleSolution(size={self.size})"


def conjugation_solution(group: FiniteGroupTable, subset: Iterable[int]) -> QuandleSolution:
    """The conjugation quandle x > y = x y x^-1 on a conjugation-closed subset."""
    elems = sorted(set(int(x) for x in subset))
    pos = {x: i for i, x in enumerate(elems)}
    op = []
    for x in elems:
        row = []
        for y in elems:
            z = group.conjugate(x, y)
            if z not in pos:
                raise ValueError(f"subset not closed under conjugation: {x} > {y} = {z}")
            row.append(pos[z])
        op.append(row)
    return QuandleSolution(op, labels=[group.label(x) for x in elems])


def reflection_solution(d: int) -> QuandleSolution:
    """The dihedral rule x > y = 2x - y on Z_d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    op = [[(2 * x - y) % d for y in range(d)] for x in range(d)]
    return QuandleSolution(op, labels=list(range(d)))


def transposition_solution(d: int) -> QuandleSolution:
    """Conjugation quandle on the transpositions of S_d, letters = sorted pairs."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    pos = {p: k for k, p in enumerate(pairs)}

    def act(p, q):
        i, j = p
        a, b = q
        swap = lambda x: j if x == i else i if x == j else x
        u, v = swap(a), swap(b)
        return (u, v) if u < v else (v, u)

    op = [[pos[act(p, q)] for q in pairs] for p in pairs]
    return QuandleSolution(op, labels=pairs)


def full_conjugation_solution(group: FiniteGroupTable) -> QuandleSolution:
    return conjugation_solution(group, group.elements())


# -- word length BFS ----------------------------------------------------------


def generic_length_series(
    group: FiniteGroupTable, generators: Iterable[int], max_order: int
) -> tuple[TruncatedSeries, bool]:
    """Sphere sizes of the Cayley graph w.r.t. generators and their inverses.

    Returns (series, covered): coefficient n counts elements at distance
    exactly n; covered is False when the generators fail to reach the whole
    group within max_order.
    """
    gens = sorted({g for x in generators for g in (int(x), group.inv(int(x)))})
    dist = {0: 0}
    frontier = [0]
    counts = [1] + [0] * max_order
    for n in range(1, max_order + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = group.mul(g, s)
                if h not in dist:
                    dist[h] = n
                    nxt.append(h)
        counts[n] = len(nxt)
        frontier = nxt
        if not frontier:
            break
    covered = len(dist) == group.size
    return TruncatedSeries(Fraction(c) for c in counts), covered


# -- set partitions -----------------------------------------------------------


@dataclass(frozen=True)
class SetPartition:
    """Partition of {0..n-1}; blocks sorted by minimum, elements ascending."""

    blocks: tuple[tuple[int, ...], ...]
    ground_size: int

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], ground_size: int) -> "SetPartition":
        norm = tuple(sorted((tuple(sorted(set(b))) for b in blocks if b), key=lambda b: b[0]))
        seen = [x for b in norm for x in b]
        if sorted(seen) != list(range(ground_size)):
            raise ValueError("blocks do not partition the ground set")
        return cls(norm, ground_size)

    @classmethod
    def singletons(cls, ground_size: int) -> "SetPartition":
        return cls(tuple((i,) for i in range(ground_size)), ground_size)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        """Sizes as a descending integer partition of the ground size."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def block_of(self, x: int) -> int:
        for i, b in enumerate(self.blocks):
            if x in b:
                return i
        raise KeyError(x)

    def is_full(self) -> bool:
        return self.block_count == 1

    def join(self, other: "SetPartition") -> "SetPartition":
        """Finest common coarsening (gluing intersecting blocks)."""
        if self.ground_size != other.ground_size:
            raise ValueError("partitions live on different ground sets")
        parent = list(range(self.ground_size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for part in (self.blocks, other.blocks):
            for b in part:
                for x in b[1:]:
                    union(b[0], x)
        groups: dict[int, list[int]] = {}
        for x in range(self.ground_size):
            groups.setdefault(find(x), []).append(x)
        return SetPartition.from_blocks(groups.values(), self.ground_size)

    def __str__(self):
        return "{" + ", ".join("{" + ",".join(str(x + 1) for x in b) + "}" for b in self.blocks) + "}"


def enumerate_set_partitions(d: int) -> Iterable[SetPartition]:
    """All set partitions of {0..d-1}, generated in restricted-growth order."""
    if d == 0:
        yield SetPartition((), 0)
        return

    def rec(i: int, blocks: list[list[int]]):
        if i == d:
            yield SetPartition.from_blocks([list(b) for b in blocks], d)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def integer_partitions(d: int) -> Iterable[tuple[int, ...]]:
    """Partitions of d as descending tuples."""
    if d == 0:
        yield ()
        return

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(d, d, ())


def integer_partition_multiplicity(lam: Sequence[int], d: int) -> int:
    """Number of set partitions of a d-set whose block sizes form lam."""
    lam = tuple(sorted(lam, reverse=True))
    if sum(lam) != d:
        raise ValueError(f"{lam} is not a partition of {d}")
    count = math.factorial(d)
    for part in lam:
        count //= math.factorial(part)
    for mult in _multiplicities(lam).values():
        count //= math.factorial(mult)
    return count


def _multiplicities(lam: Sequence[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in lam:
        out[part] = out.get(part, 0) + 1
    return out
