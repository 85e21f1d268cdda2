"""Structure monoid of the transposition solution: partition invariant,
embedding of the full part into S_d x N, normal forms, and growth series
(per d and as a single bivariate exponential generating function)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import (
    Permutation,
    SetPartition,
    integer_partition_multiplicity,
    integer_partitions,
)
from .series import (
    ONE,
    ONE_MINUS_T2,
    BivariateSeries,
    Polynomial,
    RationalGF,
    TruncatedSeries,
    bivariate_binomial,
    geometric_series,
)


class TranspositionWord:
    """Word in the letters e_{(i,j)} with unordered pairs over {0..d-1}."""

    __slots__ = ("letters", "d")

    def __init__(self, letters: Iterable[Sequence[int]], d: int):
        norm = []
        for pair in letters:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ValueError(f"degenerate pair ({i},{j})")
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"pair ({i},{j}) out of range for d={d}")
            norm.append((min(i, j), max(i, j)))
        self.letters = tuple(norm)
        self.d = d

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, TranspositionWord)
            and self.letters == other.letters
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.letters, self.d))

    def __mul__(self, other: "TranspositionWord") -> "TranspositionWord":
        if self.d != other.d:
            raise ValueError("words over different alphabets")
        return TranspositionWord(self.letters + other.letters, self.d)

    def __str__(self):
        # 1-based labels for reports
        return "".join(f"e({i + 1},{j + 1})" for i, j in self.letters) or "1"

    def __repr__(self):
        return f"TranspositionWord({self.letters}, d={self.d})"


def word_partition(word: TranspositionWord, d: int | None = None) -> SetPartition:
    """Connected components of the word's graph, singletons included."""
    return SetPartition.from_edges(word.letters, word.d if d is None else d)


@dataclass(frozen=True)
class FTSImage:
    """Image of a full word in S_d x N: the permutation and the word length."""

    perm: Permutation
    length: int


def fts_embed(word: TranspositionWord) -> FTSImage:
    """Product of the letters as a permutation, paired with the word length.

    Constant on braiding-move orbits; injective on full words.
    """
    if len(word) == 0:
        raise ValueError("the embedding is defined on nonempty words")
    perm = Permutation.identity(word.d)
    for i, j in word.letters:
        perm = perm * Permutation.transposition(word.d, i, j)
    return FTSImage(perm, len(word))


def fts_image_membership(perm: Permutation, m: int, d: int) -> bool:
    """Whether (perm, m) lies in the image of the full part: m at least
    2(d-1) - l(perm) and of the same parity as l(perm)."""
    if m < 1:
        raise ValueError("length must be positive")
    if len(perm.images) != d:
        raise ValueError("permutation degree mismatch")
    l = perm.transposition_length()
    return m >= 2 * (d - 1) - l and (m - l) % 2 == 0


def min_transposition_factorization(perm: Permutation) -> list[tuple[int, int]]:
    """Canonical minimal-length factorization: cycles ordered by minimal
    element, each cycle (a1 a2 ... ak) with a1 minimal written as
    (a1,a2)(a2,a3)...(a_{k-1},a_k)."""
    return [(min(a, b), max(a, b)) for cyc in perm.cycles() for a, b in zip(cyc, cyc[1:])]


def fts_normal_form(perm: Permutation, m: int, d: int) -> TranspositionWord:
    """Canonical full word mapping to (perm, m): a prefix of squared chain
    letters e_(k-1,k)^2, one for each block minimum k > 0 of the canonical
    factorization's partition (joining k - 1 to k for k = 1, 2, ... connects
    exactly these), excess length absorbed as powers of e_(d-1,d)^2,
    followed by that factorization."""
    if not fts_image_membership(perm, m, d):
        raise ValueError(f"({perm}, {m}) is outside the full image for d={d}")
    suffix = min_transposition_factorization(perm)
    squares = (m - perm.transposition_length()) // 2
    minima = [b[0] for b in SetPartition.from_edges(suffix, d).blocks[1:]]
    prefix = [(k - 1, k) for k in minima for _ in range(2)]
    prefix += [(d - 2, d - 1)] * (2 * (squares - len(minima)))
    word = TranspositionWord(prefix + suffix, d)
    image = fts_embed(word)
    if image.perm != perm or image.length != m:
        raise AssertionError("normal form does not reproduce its image")
    if not word_partition(word).is_full():
        raise AssertionError("normal form is not a full word")
    return word


def fts_growth_gf(d: int) -> RationalGF:
    """Restricted growth series of the full part: t^{d-2}/(1-t^2) times
    prod_{k=0}^{d-1} (t+k) for d >= 2, and 1 for the trivial d=1 part."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d == 1:
        return RationalGF(ONE)
    num = ONE
    for k in range(d):
        num = num * Polynomial([k, 1])
    return RationalGF(num.shift(d - 2), ONE_MINUS_T2)


def monoid_growth_transpositions(d: int) -> RationalGF:
    """Growth series of the whole structure monoid: sum over integer
    partitions of d of (number of set partitions with those block sizes)
    times the product of full-part series of the blocks."""
    if not 0 <= d <= 12:
        raise ValueError("supported for 0 <= d <= 12 (partition enumeration guard)")
    total_num = Polynomial()
    max_power = d  # every term's denominator divides (1-t^2)^d
    for lam in integer_partitions(d):
        mult = integer_partition_multiplicity(lam, d)
        num = Polynomial([mult])
        power = 0
        for part in lam:
            if part == 1:
                continue
            gf = fts_growth_gf(part)
            num = num * gf.num
            power += 1
        total_num = total_num + num * ONE_MINUS_T2 ** (max_power - power)
    return RationalGF(total_num, ONE_MINUS_T2**max_power)


def egf_transposition_monoids(order_t: int, order_x: int) -> BivariateSeries:
    """The exponential generating function sum_d G_d^+(t) x^d / d!, computed
    as exp(((1-tx)^(-t) - 1 - t^4 x) / (t^2 (1-t^2))) at the truncation."""
    if order_t < 0 or order_x < 0:
        raise ValueError("orders must be non-negative")
    binom = bivariate_binomial(order_t + 2, order_x)
    rows = [list(r) for r in binom.rows]
    rows[0][0] -= 1
    if order_x >= 1 and order_t + 2 >= 4:
        rows[4][1] -= 1  # subtract t^4 x
    shifted = BivariateSeries(rows).shift_down_t(2)  # checked division by t^2
    geom = geometric_series(order_t, step=2)
    geom_bi = BivariateSeries([[geom[i]] + [0] * order_x for i in range(order_t + 1)])
    inner = shifted.truncate(order_t, order_x) * geom_bi
    return inner.exp()


def egf_column(egf: BivariateSeries, d: int) -> TruncatedSeries:
    """d! times the x^d coefficient: the growth series of the d-th monoid."""
    return egf.coefficient_of_x(d) * math.factorial(d)
