"""Finite groups as multiplication tables, conjugacy-class machinery,
quandle-type Yang-Baxter solutions, and set partitions.

Groups keep element 0 as the identity.  A group is given either by its
multiplication table or, for S_d, by its image matrix (one row of images per
permutation), which it multiplies by gathering images and ranking the result,
with no table built.  Each group caches one ClassAlgebra: its
classes, class product table and commutator masks.  `SymmetricClasses` holds
the ClassAlgebra of S_d computed from partitions and characters instead, with
no group element, for d past the reach of the element tables.

numpy is imported inside the functions that build or read element arrays
(group tables, image matrices, quandle validation); the class algebra of S_d
from partitions needs none.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .series import TruncatedSeries

if TYPE_CHECKING:  # annotations only; the array code imports numpy where it runs
    import numpy as np

# largest group serialised as a multiplication table by `to_json`
DENSE_LIMIT = 2100
# largest quandle accepted: validation checks all n^3 triples
MAX_SOLUTION_SIZE = 512
# largest S_d built element by element (8! = 40,320 image rows)
MAX_ELEMENTS_D = 8
# the oracles' default budgets: words of every length for the orbit oracle,
# states for the ball BFS
DEFAULT_WORD_BUDGET = 10**7
DEFAULT_STATE_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its state budget."""


def _cycles(images: Sequence[int]) -> list[list[int]]:
    """The cycles of length > 1 of the permutation i -> images[i], each
    written from its smallest point, in order of that point."""
    seen = [False] * len(images)
    cycles = []
    for start, x in enumerate(images):
        if x == start or seen[start]:
            continue
        cycle = [start]
        while x != start:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        cycles.append(cycle)
    return cycles


def _cycle_notation(cycles: list[list[int]], names: Sequence[str]) -> str:
    """The cycles written with point x named names[x]; "e" if there are none."""
    return "".join(["(" + " ".join(map(names.__getitem__, cycle)) + ")" for cycle in cycles]) or "e"


def cycle_label(images: Sequence[int]) -> str:
    """Cycle notation of the permutation i -> images[i] of {0..d-1}: points
    written 1-based, cycles in order of their smallest point, fixed points
    left out, and "e" for the identity."""
    return _cycle_notation(_cycles(images), [str(x + 1) for x in range(len(images))])


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

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of length > 1, each written from its smallest point, in
        order of that point."""
        return [tuple(cycle) for cycle in _cycles(self.images)]

    def cycle_count(self) -> int:
        """Number of cycles, fixed points included."""
        cycles = _cycles(self.images)
        return len(cycles) + len(self.images) - sum(map(len, cycles))

    def transposition_length(self) -> int:
        """Minimal number of transpositions: d - (number of cycles)."""
        return len(self.images) - self.cycle_count()

    def cycle_type(self) -> tuple[int, ...]:
        lengths = sorted(map(len, _cycles(self.images)), reverse=True)
        return tuple(lengths) + (1,) * (len(self.images) - sum(lengths))

    def label(self) -> str:
        return cycle_label(self.images)

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


class FiniteGroupTable:
    """A finite group given by exactly one of two multiplication structures.

    table= is a dense n x n numpy table.  images= is an n x d matrix whose
    rows are the d! permutations of {0..d-1}, that is all of S_d, which is a
    group; (p_a * p_b)(i) = p_a[p_b[i]].  An image group keeps only its
    image rows, for every d: it multiplies by gathering images and ranking
    the result, and never builds an n x n table.  Labels of image groups are
    their cycle notation, made when asked for.

    Construction checks the group axioms on every element, for every n: the
    identity and two-sided inverses (the 0 in each table row, or the inverse
    permutations) in vectorised passes over all n elements, and
    associativity of a given table by Light's test on a generating set read
    off the table (two n x n gathers per generator).  Image rows compose
    permutations, so an image group is associative by construction.
    """

    def __init__(
        self,
        size: int,
        *,
        table: Optional[np.ndarray] = None,
        images: Optional[np.ndarray] = None,
        labels: Optional[Sequence[str]] = None,
        name: str = "G",
    ):
        if size <= 0:
            raise ValueError("group size must be positive")
        if (table is None) == (images is None):
            raise ValueError("need exactly one of a multiplication table or permutation images")
        import numpy as np

        self.size = size
        self.name = name
        self._table = None if table is None else np.asarray(table, dtype=np.int64)
        self.images = None if images is None else np.asarray(images, dtype=np.int64)
        self._rank = None if images is None else _image_ranker(self.images)
        self._columns = None if images is None else np.ascontiguousarray(self.images.T)
        self.labels = None if labels is None else list(labels)
        if labels is not None and len(self.labels) != size:
            raise ValueError("label count does not match group size")
        self._classes: Optional[ConjugacyDecomposition] = None
        self._algebra: Optional[ClassAlgebra] = None
        self._inv = self._validate()

    # -- core operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return int(self._table[a, b])
        return int(self._rank(self.images[a][self.images[b]]))

    def row(self, a: int) -> np.ndarray:
        """a * b for every element b."""
        import numpy as np

        return self.products(a, np.arange(self.size))

    def products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b elementwise over broadcast arrays of elements."""
        if self._table is not None:
            return self._table[a, b]
        import numpy as np

        # (p_a * p_b)(i) = p_a[p_b[i]], gathered from the flat image matrix one
        # column i at a time into the base-d code the ranker looks up, so no
        # array of whole image rows is held
        d = len(self._columns)
        flat, starts = self.images.ravel(), np.asarray(a) * d
        code = flat[starts + self._columns[0][b]]
        for column in self._columns[1:]:
            code *= d
            code += flat[starts + column[b]]
        return self._rank(code, coded=True)

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conjugate(self, a: int, b: int) -> int:
        """a b a^-1."""
        return self.mul(self.mul(a, b), self._inv[a])

    def elements(self) -> range:
        return range(self.size)

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        if self.images is not None:
            return cycle_label(self.images[a].tolist())
        return str(a)

    # -- construction helpers ----------------------------------------------

    def _validate(self) -> list[int]:
        """Check the group axioms on every element: element 0 is a two-sided
        identity, every element has a two-sided inverse, and a given table is
        associative.  Returns the inverses."""
        import numpy as np

        n = self.size
        every = np.arange(n)
        table, images = self._table, self.images
        if images is not None:
            # d! distinct permutations of {0..d-1} are all of S_d: closed,
            # associative, and every product has a rank
            d = images.shape[1]
            perms = np.array_equal(np.sort(images, axis=1), np.broadcast_to(np.arange(d), (n, d)))
            if n != math.factorial(d) or not perms or not np.array_equal(self._rank(images), every):
                raise ValueError(f"the {n} image rows are not the elements of S_{d}")
        elif table.shape != (n, n) or table.min() < 0 or table.max() >= n:
            raise ValueError("table entry out of range")
        if (np.stack([self.products(0, every), self.products(every, 0)]) != every).any():
            raise ValueError("element 0 is not a two-sided identity")
        if images is not None:  # the inverse permutations
            inv = self._rank(np.argsort(images, axis=1))
        else:  # where each row holds the identity, checked on both sides
            inv = np.argmax(table == 0, axis=1)
        wrong = np.flatnonzero((self.products(every, inv) != 0) | (self.products(inv, every) != 0))
        if wrong.size:
            raise ValueError(f"element {wrong[0]} has no two-sided inverse")
        if images is not None:
            return inv.tolist()
        # Light's test: the a with (x a) y = x (a y) for all x, y are closed
        # under products, so a generating set suffices.  Each generator is the
        # smallest element not yet reached; the reached set is then closed by
        # squaring it.  The identity passes, so it starts reached.  The
        # gathers run on the narrowest dtype that holds the entries.
        table = table.astype(np.min_scalar_type(n - 1))
        reached = every == 0
        while not reached.all():
            a = int(np.argmin(reached))
            left, right = table[table[:, a]], table[:, table[a]]
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                raise ValueError(f"associativity fails at ({x},{a},{y})")
            reached[a] = True
            members = np.flatnonzero(reached)
            while members.size < n:
                reached[table[np.ix_(members, members)]] = True
                grown = np.flatnonzero(reached)
                if grown.size == members.size:
                    break
                members = grown
        return inv.tolist()

    # -- conjugacy and commutators ------------------------------------------

    def conjugacy_classes(self) -> ConjugacyDecomposition:
        if self._classes is None:
            self._classes = self._decompose()
        return self._classes

    def _decompose(self) -> ConjugacyDecomposition:
        """Classes one at a time: the smallest element x without a class yet
        has the class {h x h^-1 : h in G}, taken with one gather per factor."""
        import numpy as np

        n = self.size
        every, inv = np.arange(n), np.asarray(self._inv)
        raw = []
        unclassed = np.ones(n, dtype=bool)
        while unclassed.any():
            x = int(np.argmax(unclassed))
            orbit = self.products(self.products(every, x), inv)  # h x h^-1 for every h
            in_class = np.zeros(n, dtype=bool)
            in_class[orbit] = True
            members = np.flatnonzero(in_class)
            unclassed[members] = False
            raw.append(members)
        ident, *rest = raw  # x = 0 comes first
        classes = [ident] + sorted(rest, key=lambda c: (len(c), c[0]))
        class_of = np.empty(n, dtype=np.int64)
        for ci, members in enumerate(classes):
            class_of[members] = ci
        return ConjugacyDecomposition(
            classes=tuple(tuple(c.tolist()) for c in classes),
            class_of=tuple(class_of.tolist()),
            inverse_class=tuple(int(class_of[inv[c[0]]]) for c in classes),
        )

    def class_algebra(self) -> "ClassAlgebra":
        """The group's class-level algebra, built on first use and cached."""
        if self._algebra is None:
            self._algebra = ClassAlgebra.of_group(self)
        return self._algebra

    def class_labels(self) -> list[list[str]]:
        """The labels of the members of each class, in class order."""
        return [[self.label(x) for x in c] for c in self.conjugacy_classes().classes]

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
        """{"name", "size", "labels", "mult"}: the multiplication table, built
        row by row for an image group, which is refused past DENSE_LIMIT
        elements."""
        if self._table is not None:
            mult = self._table.tolist()
        elif self.size <= DENSE_LIMIT:
            mult = [self.row(a).tolist() for a in self.elements()]
        else:
            raise ValueError(f"group {self.name} is too large to serialise as a table")
        return {
            "name": self.name,
            "size": self.size,
            "labels": [self.label(a) for a in self.elements()],
            "mult": mult,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroupTable":
        """Build from {"size": n, "mult": [[...]], "labels": [...], "name": ...};
        "size", "labels" and "name" are optional.  A size that is not an
        integer or not the table's row count raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("mult"), list):
            raise ValueError('group JSON must be an object with a "mult" table')
        size = data.get("size", len(data["mult"]))
        if type(size) is not int:
            raise ValueError('"size" must be an integer')
        if size != len(data["mult"]):
            raise ValueError(f'"size" is {size} but "mult" has {len(data["mult"])} rows')
        return cls(
            size,
            table=data["mult"],
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
    import numpy as np

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


def mask_bits(mask: int) -> Iterable[int]:
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

    Two constructors fill it: `of_group` reads the classes and the product
    table off a group's elements, and `symmetric` computes those of S_d from
    the partitions of d and the characters of S_d, with no group element.
    `dec` (the classes as element lists) exists on the first route only.

    `mask_times_class` and `mask_size` are memoised in one dict each, keyed
    by (mask, class) and by mask.  The memo lives as long as the algebra, so
    every caller on one group (power chains, the [G,G] closure, the defect
    recursion and its truncated check, defect measures and the defect-table
    listing) shares it; the walks meet few distinct masks but multiply them
    many times.
    """

    def __init__(
        self,
        table: list[list[int]],
        sizes: Sequence[int],
        inverse_class: Sequence[int],
        dec: Optional[ConjugacyDecomposition] = None,
    ):
        self._products: dict[tuple[int, int], int] = {}
        self._sizes: dict[int, int] = {}
        self.dec = dec
        self.table = table
        self.count = len(sizes)
        self.sizes = tuple(sizes)
        self.inverse_class = tuple(inverse_class)
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

    @classmethod
    def of_group(cls, group: FiniteGroupTable) -> "ClassAlgebra":
        """The classes of a group's elements and their product table."""
        dec = group.conjugacy_classes()
        return cls(class_product_table(group, dec), dec.sizes, dec.inverse_class, dec)

    @classmethod
    def symmetric(cls, d: int) -> "ClassAlgebra":
        """The class algebra of S_d from partitions: class k is the k-th cycle
        type of `symmetric_cycle_types(d)`, of size d!/z_lambda, and C_k meets
        C_i C_j exactly when sum_chi chi(i) chi(j) chi(k) / chi(1) != 0 (every
        character of S_d is real and every class self-inverse, so the sum is
        symmetric in i, j, k and is taken for i <= j <= k only).  The
        characters come from the Murnaghan-Nakayama rule, in exact integers.
        """
        types = symmetric_cycle_types(d)
        chars = _symmetric_characters(types)
        # chi(1) divides d!, so the weights d!/chi(1) keep the sums integral
        weights = [math.factorial(d) // degree for degree in chars[0]]
        count = len(types)
        table = [[0] * count for _ in range(count)]
        for i in range(count):
            weighted = list(map(operator.mul, weights, chars[i]))
            for j in range(i, count):
                pair = list(map(operator.mul, weighted, chars[j]))
                for k in range(j, count):
                    if sum(map(operator.mul, pair, chars[k])):
                        for x, y, z in itertools.permutations((i, j, k)):
                            table[x][y] |= 1 << z
        sizes = [_class_size(lam) for lam in types]
        return cls(table, sizes, range(count))

    def mask_times_class(self, mask: int, cls: int) -> int:
        key = (mask, cls)
        out = self._products.get(key)
        if out is None:
            out = 0
            for i in mask_bits(mask):
                out |= self.table[i][cls]
            self._products[key] = out
        return out

    def mask_product(self, left: int, right: int) -> int:
        out = 0
        for j in mask_bits(right):
            out |= self.mask_times_class(left, j)
        return out

    def mask_size(self, mask: int) -> int:
        total = self._sizes.get(mask)
        if total is None:
            total = sum(self.sizes[i] for i in mask_bits(mask))
            self._sizes[mask] = total
        return total

    def members(self, mask: int) -> list[int]:
        """The elements of the classes in mask, ascending."""
        return sorted(x for i in mask_bits(mask) for x in self.dec.classes[i])

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
    image matrix: maps image rows (an array of any leading shape), or with
    coded=True their base-d codes, to their indices in the list."""
    import numpy as np

    d = images.shape[1]
    radix = d ** np.arange(d - 1, -1, -1, dtype=np.int64)
    codes = images @ radix
    order = np.argsort(codes)
    sorted_codes = codes[order]

    def rank(rows: np.ndarray, coded: bool = False) -> np.ndarray:
        return order[np.searchsorted(sorted_codes, rows if coded else rows @ radix)]

    return rank


def make_symmetric_group(d: int) -> FiniteGroupTable:
    """S_d as its image matrix: element k is the k-th tuple of
    itertools.permutations(range(d)), so elements are sorted by image tuple
    and the identity comes first."""
    if not 1 <= d <= MAX_ELEMENTS_D:
        raise ValueError(f"symmetric group supported for 1 <= d <= {MAX_ELEMENTS_D}")
    import numpy as np

    images = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
    return FiniteGroupTable(len(images), images=images, name=f"S{d}")


def symmetric_transpositions(group: FiniteGroupTable) -> tuple[int, ...]:
    """Indices of the transpositions of S_d: the image rows that move exactly
    two points."""
    import numpy as np

    moved = (group.images != np.arange(group.images.shape[1])).sum(axis=1)
    return tuple(np.flatnonzero(moved == 2).tolist())


# -- S_d from partitions --------------------------------------------------------


def _class_size(lam: tuple[int, ...]) -> int:
    """d!/z_lambda, the number of permutations of cycle type lam."""
    z = 1
    for part, mult in _multiplicities(lam).items():
        z *= part**mult * math.factorial(mult)
    return math.factorial(sum(lam)) // z


def _smallest_images(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The smallest image tuple of cycle type lam: its cycles on consecutive
    points, shortest first, each as (a a+1 ... b).  Choosing each image as
    small as possible, point by point, closes the open cycle as soon as the
    parts left allow it, and otherwise extends it by the next free point."""
    images: list[int] = []
    for part in sorted(lam):
        start = len(images)
        images.extend(range(start + 1, start + part))
        images.append(start)
    return tuple(images)


def symmetric_cycle_types(d: int) -> list[tuple[int, ...]]:
    """The cycle types of S_d, as descending partitions of d, in the class
    order of `make_symmetric_group(d)`: the identity first, then by (class
    size, smallest image tuple of the type)."""
    if d < 1:
        raise ValueError("symmetric group needs d >= 1")
    identity, *rest = reversed(list(integer_partitions(d)))
    return [identity] + sorted(rest, key=lambda lam: (_class_size(lam), _smallest_images(lam)))


def _symmetric_characters(types: list[tuple[int, ...]]) -> list[list[int]]:
    """chars[k][m]: the irreducible character of S_d indexed by the m-th
    partition of `types` at the k-th cycle type, by the Murnaghan-Nakayama
    rule on beta-sets, memoised over (beta-set, cycles left).

    A partition mu is the beta-set of d beads at mu_i + d - 1 - i, an int
    bitmask.  Removing a rim hook of length r moves one bead from b to an
    empty b - r, with sign (-1)^(beads strictly between); a cycle type's
    parts are removed largest first."""
    d = sum(types[0])
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def chi(beads: int, cycles: tuple[int, ...]) -> int:
        if not cycles:
            return 1
        key = (beads, cycles)
        value = memo.get(key)
        if value is None:
            r, rest = cycles[0], cycles[1:]
            value = 0
            movable = beads & ~(beads << r) & ~((1 << r) - 1)
            while movable:
                low = movable & -movable
                movable ^= low
                b = low.bit_length() - 1
                between = (beads >> (b - r + 1) & ((1 << (r - 1)) - 1)).bit_count()
                term = chi(beads ^ low ^ (1 << (b - r)), rest)
                value += -term if between & 1 else term
            memo[key] = value
        return value

    betas = [
        sum(1 << (part + d - 1 - i) for i, part in enumerate(mu + (0,) * (d - len(mu))))
        for mu in types
    ]
    return [[chi(beads, lam) for beads in betas] for lam in types]


class SymmetricClasses:
    """S_d through its conjugacy classes alone, for any d >= 1: the `name`
    and the cached `class_algebra()` that the defect engine reads, built by
    `ClassAlgebra.symmetric` with no group element.  Class k holds the
    permutations of cycle type `cycle_types[k]`.  `make_symmetric_group`
    builds the elements instead; its class algebra is equal, in the same
    class order, for every d it supports."""

    def __init__(self, d: int):
        self.d = d
        self.name = f"S{d}"
        self.cycle_types = symmetric_cycle_types(d)
        self._algebra: Optional[ClassAlgebra] = None

    def class_algebra(self) -> ClassAlgebra:
        if self._algebra is None:
            self._algebra = ClassAlgebra.symmetric(self.d)
        return self._algebra

    def class_labels(self) -> list[list[str]]:
        """The cycle notation of the members of each class, each class in
        the order of its members' image tuples (that of their indices in
        `make_symmetric_group`): one pass over all d! permutations."""
        names = [str(x + 1) for x in range(self.d)]
        # a cycle type is known by its parts > 1, ascending
        index = {tuple(sorted(p for p in lam if p > 1)): k for k, lam in enumerate(self.cycle_types)}
        labels: list[list[str]] = [[] for _ in self.cycle_types]
        for images in itertools.permutations(range(self.d)):
            cycles = _cycles(images)
            labels[index[tuple(sorted(map(len, cycles)))]].append(_cycle_notation(cycles, names))
        return labels


def make_dihedral_group(d: int) -> FiniteGroupTable:
    """D_d with rotations at indices 0..d-1 and reflections at d..2d-1.

    Reflection s_i is the reflection fixing vertex i (odd d); for even d the
    indices follow the same abstract rule s_i s_j = rho^(i-j), under which
    conjugation acts as s_i > s_j = s_{2i-j} for every d.
    """
    if not 1 <= d <= 1000:
        raise ValueError("dihedral group supported for 1 <= d <= 1000")
    import numpy as np

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
        import numpy as np

        op = np.array(self.op, dtype=np.intp).reshape(n, n)
        flat = op.ravel()
        for x, row in enumerate(op):
            # x > (y > z) against (x > y) > (x > z), over all (y, z) at once
            bad = row[op] != flat[(row * n)[:, None] + row]
            if bad.any():
                y, z = np.argwhere(bad)[0]
                raise ValueError(f"self-distributivity fails at ({x},{y},{z})")

    def to_json(self) -> dict:
        return {"size": self.size, "op": [list(r) for r in self.op], "labels": list(map(str, self.labels))}

    @classmethod
    def from_json(cls, data) -> "QuandleSolution":
        """Build from {"size": n, "op": [[...]], "labels": [...]}, where
        "size" and "labels" are optional; malformed data, or a size that is
        not the table's, raises ValueError with a one-line reason."""
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
        size = data.get("size", len(op))
        if type(size) is not int:
            raise ValueError('"size" must be an integer')
        if size != len(op):
            raise ValueError(f'"size" is {size} but "op" has {len(op)} rows')
        return cls(op, labels=labels)

    def __repr__(self):
        return f"QuandleSolution(size={self.size})"


def conjugation_solution(group: FiniteGroupTable, subset: Iterable[int]) -> QuandleSolution:
    """The conjugation quandle x > y = x y x^-1 on a conjugation-closed subset."""
    elems = sorted(set(int(x) for x in subset))
    if len(elems) > MAX_SOLUTION_SIZE:  # refused before |X|^2 conjugations
        raise ValueError(f"solution of size {len(elems)} exceeds the validation limit {MAX_SOLUTION_SIZE}")
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


# -- word length BFS ----------------------------------------------------------


def generic_length_series(
    group: FiniteGroupTable, generators: Iterable[int], max_order: int
) -> tuple[TruncatedSeries, bool]:
    """Sphere sizes of the Cayley graph w.r.t. generators and their inverses.

    Returns (series, covered): coefficient n counts elements at distance
    exactly n; covered is False when the generators fail to reach the whole
    group within max_order.  The ball oracle's search over G x Z^0.
    """
    from .oracle import group_ball_enumerate  # oracle imports this module

    ball = group_ball_enumerate([(x, ()) for x in generators], group, max_order)
    return TruncatedSeries(ball.sphere_sizes), ball.states == group.size


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
    def from_edges(cls, edges: Iterable[tuple[int, int]], ground_size: int) -> "SetPartition":
        """Connected components of the graph on {0..n-1} with these edges,
        singletons included."""
        parent = list(range(ground_size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in edges:
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)
        blocks: dict[int, list[int]] = {}
        for x in range(ground_size):
            blocks.setdefault(find(x), []).append(x)
        return cls.from_blocks(blocks.values(), ground_size)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        """Sizes as a descending integer partition of the ground size."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def is_full(self) -> bool:
        return self.block_count == 1

    def join(self, other: "SetPartition") -> "SetPartition":
        """Finest common coarsening (gluing intersecting blocks)."""
        if self.ground_size != other.ground_size:
            raise ValueError("partitions live on different ground sets")
        edges = [(b[0], x) for part in (self.blocks, other.blocks) for b in part for x in b[1:]]
        return SetPartition.from_edges(edges, self.ground_size)

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
