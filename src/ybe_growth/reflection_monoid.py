"""Structure monoids of reflection solutions: the numeric invariants (weight,
density, anchor, essential even/odd lengths), essentialisation, canonical
normal forms, the embedding of full parts into semidirect products, and the
growth series, over both the integers and Z_d.

Conventions.  Words over the integers ("infinite modulus") keep signed
weights; over Z_d the weight and all letters are least non-negative residues
and the density of a single letter is d rather than 0.  For a finite word
whose essential level d/density is odd, letter parity is not well defined, so
the essential even length is fixed to the whole length by convention; the
invariant tuple remains complete because at odd level the weight and length
already separate elements.

A single word takes plain integer arithmetic; numpy is imported only by the
box forms, which take many words at once as arrays.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .series import ONE, ONE_MINUS_T, Polynomial, RationalGF, T

if TYPE_CHECKING:  # annotations only; the box forms import numpy where they run
    import numpy as np


@dataclass(frozen=True)
class ReflectionWord:
    """Word in the letters e_a over the integers (modulus None) or Z_d."""

    letters: tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self):
        letters = tuple(map(int, self.letters))
        if self.modulus is not None:
            if self.modulus < 1:
                raise ValueError("modulus must be at least 1")
            if letters and (min(letters) < 0 or max(letters) >= self.modulus):
                raise ValueError("letters out of range for the modulus")
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "ReflectionWord") -> "ReflectionWord":
        if self.modulus != other.modulus:
            raise ValueError("words over different moduli")
        return ReflectionWord(self.letters + other.letters, self.modulus)

    def apply_move(self, pos: int, inverse: bool = False) -> "ReflectionWord":
        """One braiding move at pos: (x, y) -> (2x-y, x), or its inverse."""
        x, y = self.letters[pos], self.letters[pos + 1]
        pair = (y, 2 * y - x) if inverse else (2 * x - y, x)
        if self.modulus is not None:
            pair = (pair[0] % self.modulus, pair[1] % self.modulus)
        return ReflectionWord(self.letters[:pos] + pair + self.letters[pos + 2 :], self.modulus)

    def __str__(self):
        return ",".join(str(a) for a in self.letters)


class InvariantTuple(NamedTuple):
    """The complete invariant of a reflection-monoid element."""

    modulus: Optional[int]
    weight: int
    density: int
    anchor: int
    essential_even: int
    essential_odd: int
    length: int

    @property
    def level(self) -> Optional[int]:
        """Essential level d / density (None over the integers)."""
        if self.modulus is None:
            return None
        return self.modulus // self.density

    def essential_weight(self) -> int:
        """Weight of the essentialisation (mod the level when finite)."""
        adjust = self.anchor if self.length % 2 == 1 else 0
        if self.modulus is None:
            if self.density == 0:
                raise ValueError("frozen words have no essentialisation")
            return (self.weight - adjust) // self.density
        return ((self.weight - adjust) % self.modulus) // self.density % self.level


def _weight(columns):
    """Alternating letter sum a_1 - a_2 + a_3 - ..., unreduced, over letter
    columns (see `invariant_columns`)."""
    return sum(columns[0::2]) - sum(columns[1::2])


def _gcd_of_arrays(*values):
    import numpy as np

    return functools.reduce(np.gcd, values)


def invariants(word: ReflectionWord) -> InvariantTuple:
    """All five invariants of a word; constant on braiding orbits."""
    letters = word.letters
    n = len(letters)
    d = word.modulus
    if n == 0:
        return InvariantTuple(d, 0, 0 if d is None else d, 0, 0, 0, 0)
    if d is None and letters.count(letters[0]) == n:
        # frozen: density 0, and the one letter's parity is every letter's
        even = n if letters[0] % 2 == 0 else 0
        return InvariantTuple(d, _weight(letters), 0, letters[0], even, n - even, n)
    return InvariantTuple(d, *invariant_columns(letters, d), n)


def invariant_columns(columns, d: Optional[int]) -> tuple:
    """(weight, density, anchor, essential even length, essential odd length)
    of words given by their letter columns: columns[i] holds letter i, as an
    int for one word, or as an int array with one entry per word of a box.
    Over the integers (d None) no word may be frozen; over Z_d the letters
    are least residues.

    One word takes math.gcd and a box np.gcd; the formulas are the same, so
    a box's row equals the tuple of its word.  A box's dtype must hold the
    alternating letter sums.
    """
    first = columns[0]
    gcd = math.gcd if isinstance(first, int) else _gcd_of_arrays
    weight = _weight(columns)
    # the differences from the first letter span the same lattice as the
    # differences of neighbours
    density = gcd(d or 0, *[x - first for x in columns])
    even_level = True
    if d is not None:
        weight %= d
        # parity collapses at odd level d/density: every essential letter
        # counts as even, by convention
        even_level = d // density % 2 == 0
    # every letter is anchor + density * (essential letter) with 0 <= anchor
    # < density, so a // density is the essential letter
    odd = sum([a // density & 1 for a in columns]) * even_level
    return weight, density, first % density, len(columns) - odd, odd


def essentialise(word: ReflectionWord) -> ReflectionWord:
    """Divide out the density through the affine letter map x -> (x-anchor)/density."""
    inv = invariants(word)
    if word.modulus is None:
        if inv.density == 0:
            raise ValueError("frozen words over the integers have no essentialisation")
        return ReflectionWord(
            tuple((a - inv.anchor) // inv.density for a in word.letters), None
        )
    return ReflectionWord(
        tuple(((a - inv.anchor) % word.modulus) // inv.density for a in word.letters),
        word.modulus // inv.density,
    )


def push_through(word: ReflectionWord, a: int) -> int:
    """The letter b with word * e_a = e_b * word."""
    return push_columns(word.letters, a, word.modulus)


def push_columns(columns, a, d: Optional[int] = None):
    """`push_through` over letter columns, each an int for one word or an int
    array for a box, with a an int or a column: (-1)^len * a + 2 * weight,
    reduced mod d when d is given."""
    b = (-1) ** len(columns) * a + 2 * _weight(columns)
    return b if d is None else b % d


@dataclass(frozen=True)
class NormalForm:
    """Canonical representative of a reflection-monoid element.

    Shapes: empty; frozen-power e_a^n; length2 e_a e_b; length3 e_x^2 e_y;
    standard e_0^k e_1^l e_c rescaled by (density, anchor).
    """

    shape: str
    word: ReflectionWord
    density: int
    anchor: int
    params: tuple

    def __str__(self):
        return str(self.word)


def normal_form(word: ReflectionWord) -> NormalForm:
    inv = invariants(word)
    d = word.modulus
    n = inv.length
    nf = _normal_form_impl(word, inv)
    if invariants(nf.word) != inv:
        raise AssertionError(f"normal form of {word} does not preserve invariants")
    if len(nf.word) != n:
        raise AssertionError("normal form changed the length")
    return nf


def _normal_form_impl(word: ReflectionWord, inv: InvariantTuple) -> NormalForm:
    d = word.modulus
    n = inv.length
    if n == 0:
        return NormalForm("empty", word, inv.density, 0, ())
    frozen = inv.density == 0 if d is None else inv.density == d
    if frozen:
        a = word.letters[0]
        return NormalForm(
            "frozen-power", ReflectionWord((a,) * n, d), inv.density, inv.anchor, (a, n)
        )
    if n == 2:
        first = inv.anchor
        second = first - inv.weight if d is None else (first - inv.weight) % d
        return NormalForm(
            "length2", ReflectionWord((first, second), d), inv.density, inv.anchor, (first, second)
        )
    if n == 3:
        x = inv.weight + inv.density if d is None else (inv.weight + inv.density) % d
        y = inv.weight
        return NormalForm(
            "length3", ReflectionWord((x, x, y), d), inv.density, inv.anchor, (x, y)
        )
    k, p, c = _standard_parameters(inv)
    deg, anchor = inv.density, inv.anchor
    if d is None:
        letters = (anchor,) * k + (deg + anchor,) * p + (deg * c + anchor,)
    else:
        letters = ((anchor,) * k + ((deg + anchor) % d,) * p + ((deg * c + anchor) % d,))
    return NormalForm("standard", ReflectionWord(letters, d), deg, anchor, (k, p, c))


def _standard_parameters(inv: InvariantTuple) -> tuple[int, int, int]:
    """Exponents (k, l, c) of the essential word e_0^k e_1^l e_c.

    At even level (and over the integers) an element with both essential
    lengths at least 2 has exactly two presentations, one per parity of the
    final letter; the canonical choice is the even one.  At odd level the
    presentation with l = 1 is the unique canonical one.
    """
    level = inv.level  # None over the integers
    omega = inv.essential_weight()
    n = inv.length
    if level is not None and level % 2 == 1:
        k, p = n - 2, 1
        c = _solve_final_letter(omega, k, p)
        return k, p, c % level
    l0, l1 = inv.essential_even, inv.essential_odd
    if l0 < 1 or l1 < 1:
        raise AssertionError("full word at even level missing a parity class")
    if l1 == 1 or (l0 >= 2 and l1 >= 2):
        k, p = l0 - 1, l1  # final letter even
        want_parity = 0
    else:  # l0 == 1: final letter odd is the only option
        k, p = l0, l1 - 1
        want_parity = 1
    c = _solve_final_letter(omega, k, p)
    if level is not None:
        c %= level
    if c % 2 != want_parity:
        raise AssertionError("final-letter parity disagrees with the chosen presentation")
    return k, p, c


def _solve_final_letter(omega: int, k: int, p: int) -> int:
    """c with weight(e_0^k e_1^p e_c) = omega: the alternating sum gives
    omega = [p odd](-1)^k + (-1)^{k+p} c."""
    base = (-1) ** k if p % 2 == 1 else 0
    return (-1) ** (k + p) * (omega - base)


def elements_equal(w1: ReflectionWord, w2: ReflectionWord) -> bool:
    """Monoid-element equality, decided by the complete invariant tuple."""
    if w1.modulus != w2.modulus:
        raise ValueError("cannot compare words over different moduli")
    return invariants(w1) == invariants(w2)


def density_of_product(t1: InvariantTuple, t2: InvariantTuple) -> int:
    """Density of a product from the factors' densities and anchors."""
    if t1.modulus != t2.modulus:
        raise ValueError("tuples from different moduli")
    return math.gcd(t1.density, t2.density, t1.anchor - t2.anchor)


# -- constructive arithmetic lemmas --------------------------------------------


def _factorisation(n: int) -> dict[int, int]:
    """Prime -> exponent for |n|, primes ascending, by trial division."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def _prime_factors(n: int) -> list[int]:
    return list(_factorisation(n))


def _crt(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = r (mod m) for pairwise coprime moduli; returns (x, lcm)."""
    x, m = 0, 1
    for r, mod in congruences:
        try:
            inv_m = pow(m, -1, mod)
        except ValueError:
            raise ValueError("moduli not coprime") from None
        x += m * ((r - x) * inv_m % mod)
        m *= mod
    return x % m, m


# Inputs at most M in absolute value keep every intermediate of the box forms
# inside int64 when M is at most this bound: a + n c and v + m step stay
# below 4 M**2 + 2 M, and a key code below (4 M + 1)**2.
_INT64_BOUND = 2**29


@functools.cache
def _as_int():
    """The ufunc applying operator.index to each entry of an object array."""
    import numpy as np

    return np.frompyfunc(operator.index, 1, 1)


def _exact(*boxes) -> list[np.ndarray]:
    """The boxes as int64 arrays when no intermediate can overflow int64, else
    as object arrays of Python ints.  Anything but an integer array is read
    entry by entry, as numpy would read ints past int64 as uint64 or even
    float64; an entry that is not an integer raises TypeError."""
    import numpy as np

    arrays = [
        x if isinstance(x, np.ndarray) and x.dtype.kind in "iu" else _as_int()(np.array(x, dtype=object))
        for x in boxes
    ]
    bound = max((abs(int(v)) for x in arrays if x.size for v in (x.min(), x.max())), default=0)
    dtype = np.int64 if bound <= _INT64_BOUND else object
    return [x.astype(dtype) for x in arrays]


def _distinct(x: np.ndarray, y: np.ndarray) -> tuple[list, list, np.ndarray]:
    """The distinct pairs (x[i], y[i]) in ascending order, as two lists of
    ints, and each pair's position among them.

    Each pair is taken as one integer code.  When the codes are int64 and
    their space is at most four times their number, they are marked in a bool
    array of that space, and a running count of the marks numbers them: a
    bool array and an int64 count, each the size of the space, so at most 36
    bytes per pair.  Larger spaces and object codes are sorted
    (`np.unique`).  Both give the same pairs in the same order."""
    import numpy as np

    low_x, low_y = x.min(initial=0), y.min(initial=0)
    width = y.max(initial=0) - low_y + 1
    code = (x - low_x) * width + (y - low_y)
    space = (x.max(initial=0) - low_x + 1) * width
    if code.dtype != object and space <= 4 * len(code):
        seen = np.zeros(space, dtype=bool)
        seen[code] = True
        keys = np.flatnonzero(seen)
        inverse = np.cumsum(seen)[code] - 1
    else:
        keys, inverse = np.unique(code, return_inverse=True)
    return (keys // width + low_x).tolist(), (keys % width + low_y).tolist(), inverse


def triple_gcd_witness(a: int, b: int, c: int, parity: Optional[int] = None) -> int:
    """n >= 1 with gcd(a + n c, b + n c) = gcd(a, b, c), of the requested
    parity when asked (which needs a, b of different parity).

    With g = gcd(a, b, c), a common prime of a/g + n c/g and b/g + n c/g
    divides (b - a)/g.  For each such prime p, take n = 1 (mod p) where p
    divides a/g (then p divides b/g, so not c/g) and n = 0 (mod p)
    elsewhere; either way p does not divide a/g + n c/g.  These, plus the
    parity mod 2, are solved by the Chinese remainder theorem; the moduli
    are coprime, as a parity needs b - a odd.
    """
    return int(gcd_witnesses([a], [b], [c], parity)[0])


def gcd_witnesses(a, b, c, parity: Optional[int] = None) -> np.ndarray:
    """`triple_gcd_witness` over a box: the witness of each row (a[i], b[i],
    c[i]) of three 1-D integer arrays, every row under the one parity.

    Each distinct reduced pair (a/g, b/g) is solved once per call, and
    every row's answer is checked.  The pairs are found in a bool array over
    their code space when it is at most four times the number of rows, and
    by sorting otherwise (`_distinct`); the bool array and its int64
    running count hold at most four entries per row each.  The result is
    int64, or object when the inputs are too large for int64 to hold every
    intermediate.
    """
    import numpy as np

    a, b, c = _exact(a, b, c)
    if (a == b).any():
        raise ValueError("requires a != b")
    if parity is not None:
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if ((a - b) % 2 == 0).any():
            raise ValueError("parity constraint needs a, b of different parity")
    g = np.gcd(np.gcd(a, b), c)
    ar, br = a // g, b // g
    xs, ys, inverse = _distinct(ar, br)
    solved = [_reduced_witness(x, y, parity) for x, y in zip(xs, ys)]
    n = np.array(solved, dtype=a.dtype)[inverse]
    if (np.gcd(a + n * c, b + n * c) != g).any() or (parity is not None and (n % 2 != parity).any()):
        raise AssertionError("gcd witness failed verification")
    return n


def _reduced_witness(ar: int, br: int, parity: Optional[int]) -> int:
    """Least n >= 1 solving the witness congruences for the reduced pair
    (a/g, b/g); c never enters them."""
    congruences = [(0 if ar % p else 1, p) for p in _prime_factors(br - ar)]
    if parity is not None:
        congruences.append((parity, 2))
    n, mod = _crt(congruences)
    return n if n >= 1 else n + mod


def _pair_lift(x: int, a: int, d: int) -> int:
    """m with gcd(x, a + m d) = gcd(d, x, a), for x != 0."""
    g = math.gcd(d, x, a)
    xr, ar, dr = x // g, a // g, d // g
    congruences = []
    for p in _prime_factors(xr):
        # only primes of x/g constrain m; one that also divides d/g cannot
        # divide a/g, so any m works mod it
        if dr % p:
            congruences.append(((1 - ar) * pow(dr, -1, p) % p, p))
    m = _crt(congruences)[0]
    if math.gcd(x, a + m * d) != g:
        raise AssertionError("pairwise lift failed verification")
    return m


def lift_to_coprime(values: Sequence[int], d: int, force_odd: bool = False) -> list[int]:
    """Offsets m with gcd_i(values_i + m_i d) = gcd(d, values...); with
    force_odd (d odd) every lifted value is odd."""
    return coprime_lifts([list(map(int, values))], d, force_odd)[0].tolist()


def coprime_lifts(values, d: int, force_odd: bool = False) -> np.ndarray:
    """`lift_to_coprime` over a box: the offsets of each row of an (N, k)
    integer array, every row under the one d and force_odd.

    Each distinct (anchor, value) pair is solved once per call, and every
    row's lifted values are checked.  The pairs are found in a bool array
    over their code space when it is at most four times the number of
    values, and by sorting otherwise (`_distinct`); the bool array and its
    int64 running count hold at most four entries per value each.  The
    result is int64, or object when the inputs are too large for int64 to
    hold every intermediate.
    """
    import numpy as np

    values = _exact(values, [d])[0]
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError("need at least two values")
    if force_odd and d % 2 == 0:
        raise ValueError("force_odd requires odd d")
    d = int(d)
    if d == 0:
        return np.zeros_like(values)
    step = d
    lifted = values
    if force_odd:  # even values move up by d, and later steps keep the parity
        step = 2 * d
        lifted = np.where(values % 2 == 1, values, values + d)
    # the first nonzero value of a row anchors its pairwise lifts; the
    # anchor's own lift is solved and dropped.  A row with no anchor (all
    # zero, not forced odd) moves every value by d.
    nonzero = lifted != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    anchor_at = nonzero[rows].argmax(axis=1)
    paired = lifted[rows]
    anchors = np.repeat(paired[np.arange(len(rows)), anchor_at], paired.shape[1])
    xs, vs, inverse = _distinct(anchors, paired.ravel())
    solved = [_pair_lift(x, v, step) for x, v in zip(xs, vs)]
    m = np.ones_like(values)
    m[rows] = np.array(solved, dtype=values.dtype)[inverse].reshape(paired.shape)
    m[rows, anchor_at] = 0
    final = lifted + m * step
    if (_gcd_of_arrays(*final.T) != _gcd_of_arrays(d, *values.T)).any():
        raise AssertionError("coprime lift failed verification")
    if force_odd and (final % 2 == 0).any():
        raise AssertionError("coprime lift failed the parity requirement")
    return (final - values) // d


# -- the full reflection semigroups and growth ---------------------------------


def frs_embed(word: ReflectionWord):
    """Image of a full finite word under the structure embedding: (weight,
    even length, odd length) for even d, (weight, length) for odd d > 1, and
    (length,) for d = 1."""
    d = word.modulus
    if d is None:
        raise ValueError("finite modulus required")
    inv = invariants(word)
    if inv.density != 1:
        raise ValueError(f"word of density {inv.density} is not full")
    if d == 1:
        return (inv.length,)
    if d % 2 == 0:
        even = sum(1 for a in word.letters if a % 2 == 0)
        return (inv.weight, even, inv.length - even)
    return (inv.weight, inv.length)


def frs_image_contains(d: int, image: tuple) -> bool:
    """Membership predicate for the stated images of the full-part embeddings."""
    if d == 1:
        (l,) = image
        return l >= 1
    if d % 2 == 0:
        m, k, l = image
        if not (0 <= m < d and k >= 1 and l >= 1):
            return False
        if (l - m) % 2 != 0:
            return False
        if k + l > 2:
            return True
        return math.gcd(m, d) == 1
    m, l = image
    if not 0 <= m < d:
        return False
    if l >= 3:
        return True
    return l == 2 and math.gcd(m, d) == 1


def euler_phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def divisor_count(x) -> int:
    """Number of divisors, with tau(x) = 0 for non-integers."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return 0
        x = x.numerator
    if x != int(x):
        return 0
    x = int(x)
    if x < 1:
        return 0
    return math.prod(e + 1 for e in _factorisation(x).values())


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending."""
    out = [1]
    for p, e in _factorisation(n).items():
        out = [c * p**j for c in out for j in range(e + 1)]
    return sorted(out)


def frs_growth_gf(d: int) -> RationalGF:
    """Restricted growth series of the level-d full reflection semigroup."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d == 1:
        return RationalGF(T, ONE_MINUS_T)
    phi = euler_phi(d)
    if d % 2 == 1:
        num = Polynomial([phi]).shift(2) * ONE_MINUS_T + Polynomial([d]).shift(3)
        return RationalGF(num, ONE_MINUS_T)
    num = Polynomial([phi]).shift(2) * ONE_MINUS_T**2 + Fraction(d, 2) * (
        Polynomial([2, -1]).shift(3)
    )
    return RationalGF(num, ONE_MINUS_T**2)


def monoid_growth_reflections(d: int) -> RationalGF:
    """Growth series of the structure monoid of the size-d reflection solution.

    Assembled from the divisor formula (totient convolution at t^2, divisor
    counts at the geometric tails) and checked against the level decomposition
    sum over divisors; the two must agree as rational functions.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    levels = divisors(d)
    s2 = sum(Fraction(euler_phi(c), c) for c in levels)
    tau_d = divisor_count(d)
    tau_half = divisor_count(Fraction(d, 2))
    head = ONE + Polynomial([d]).shift(1) + Polynomial([d * s2]).shift(2)
    num = (
        head * ONE_MINUS_T**2
        + Polynomial([d * tau_d]).shift(3) * ONE_MINUS_T
        + Polynomial([Fraction(d * tau_half, 2)]).shift(4)
    )
    formula = RationalGF(num, ONE_MINUS_T**2)
    via_levels = RationalGF(ONE)
    for c in levels:
        via_levels = via_levels + RationalGF(Polynomial([d // c])) * frs_growth_gf(c)
    if formula != via_levels:
        raise AssertionError(f"the two reflection-monoid growth routes disagree at d={d}")
    return formula
