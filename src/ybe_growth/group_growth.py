"""Growth series of structure groups: the class-2 lift, Solomon's product,
closed forms for transposition and reflection solutions, and the defect engine
(measures, the nonzero-defect listing, the series) for full conjugation solutions.

The defect engine works with class-index bitmasks throughout: the group's
cached ClassAlgebra holds the pairwise class product table, after which a
product of conjugacy classes is an O(c) bitmask fold, memoised on the algebra.
The engine reads only `group.class_algebra()` and `group.name`, so it takes a
`FiniteGroupTable` or S_d as `SymmetricClasses` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebra import ClassAlgebra, FiniteGroupTable
from .series import (
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T2,
    ONE_PLUS_T,
    ONE_PLUS_T2,
    Polynomial,
    RationalGF,
    T,
    TruncatedSeries,
    expand_rational,
)
from .oracle import BudgetExceededError

DEFAULT_DEFECT_BUDGET = 10**6


def class2_lift(
    small: Union[RationalGF, TruncatedSeries],
) -> Union[RationalGF, TruncatedSeries]:
    """Turn the growth series of (G, C) into the growth series of As(C), for a
    class-2 conjugation presentation: (1+t^2)/(1-t^2) * G + t * G'."""
    if isinstance(small, RationalGF):
        n, d = small.num, small.den
        deriv_num = n.derivative() * d - n * d.derivative()
        num = ONE_PLUS_T2 * n * d + (deriv_num * ONE_MINUS_T2).shift(1)
        return RationalGF(num, ONE_MINUS_T2 * d * d)
    if isinstance(small, TruncatedSeries):
        if small.order < 1:
            raise ValueError("class-2 lift needs truncation order at least 1")
        factor = expand_rational(RationalGF(ONE_PLUS_T2, ONE_MINUS_T2), small.order)
        # t * d/dt at full order: coefficient n is n * c_n
        t_deriv = TruncatedSeries(n * small[n] for n in range(small.order + 1))
        return factor * small + t_deriv
    raise TypeError("expected a RationalGF or TruncatedSeries")


def solomon_series(d: int) -> RationalGF:
    """prod_{k=1}^{d-1} (1 + k t): the length generating polynomial of S_d
    over transpositions; satisfies G_{d+1} = (1 + d t) G_d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    poly = ONE
    for k in range(1, d):
        poly = poly * Polynomial([1, k])
    return RationalGF(poly)


def as_transpositions_group_gf(d: int) -> RationalGF:
    """Growth series of the structure group of the transposition solution,
    assembled over the common denominator (1 - t)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    prod_from_2 = ONE
    for k in range(2, d):
        prod_from_2 = prod_from_2 * Polynomial([1, k])
    weighted = Polynomial()
    for k in range(1, d):
        term = Polynomial([k])
        for j in range(1, d):
            if j != k:
                term = term * Polynomial([1, j])
        weighted = weighted + term
    num = prod_from_2 * ONE_PLUS_T2 + (weighted * ONE_MINUS_T).shift(1)
    return RationalGF(num, ONE_MINUS_T)


def as_reflections_group_gf(d: int) -> RationalGF:
    """Growth series of the structure group of the size-d reflection solution."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if d % 2 == 1:
        num = Polynomial([2 * d]).shift(1) + ONE_MINUS_T * (ONE + Polynomial([d - 1]).shift(2))
        return RationalGF(num, ONE_MINUS_T)
    half = d // 2
    num = half * ONE_PLUS_T**2 + (half - 1) * (T**2 - ONE) * ONE_MINUS_T**2
    return RationalGF(num, ONE_MINUS_T**2)


# -- defect machinery ----------------------------------------------------------


@dataclass(frozen=True)
class DefectRecord:
    """Size data of one product of conjugacy-class powers."""

    exponents: tuple[int, ...]
    product_class_mask: int
    product_size: int
    defect: int


def defect_measure(group: FiniteGroupTable, kbar: Sequence[int]) -> DefectRecord:
    """delta_G(kbar) = |[G,G]| - |prod C_i^{k_i}|, via bitmask products.

    kbar has one entry per nontrivial class (classes 1..c-1 in decomposition
    order); negative exponents use the elementwise inverse class.
    """
    algebra = group.class_algebra()
    if len(kbar) != algebra.count - 1:
        raise ValueError(f"expected {algebra.count - 1} exponents, got {len(kbar)}")
    mask = 1  # the identity class
    for i, k in enumerate(kbar):
        cls = i + 1
        if k < 0:
            cls = algebra.inverse_class[cls]
            k = -k
        for _ in range(k):
            mask = algebra.mask_times_class(mask, cls)
    size = algebra.mask_size(mask)
    return DefectRecord(
        tuple(int(k) for k in kbar), mask, size, algebra.commutator_size - size
    )


def nonzero_defects(
    group: FiniteGroupTable, order: int, state_budget: int = DEFAULT_DEFECT_BUDGET
) -> list[DefectRecord]:
    """The records of every non-negative kbar with |kbar| <= order and a
    nonzero defect, sorted by (|kbar|, kbar).  Each row is one budgeted
    state; past state_budget rows the listing raises BudgetExceededError.

    Each kbar is visited once, its support growing class by class with the
    product mask carried along.  A run of powers of one class stops at its
    first mask of |[G,G]| elements: a class, hence a product of classes,
    lies in one coset of [G,G], which that mask and its extensions fill.
    """
    algebra = group.class_algebra()
    target, count = algebra.commutator_size, algebra.count
    out, kbar = [], [0] * (count - 1)

    def visit(start: int, used: int, mask: int) -> None:
        if len(out) >= state_budget:
            raise BudgetExceededError(f"defect listing exceeded {state_budget} rows")
        size = algebra.mask_size(mask)
        out.append(DefectRecord(tuple(kbar), mask, size, target - size))
        for i in range(start, count):
            power = mask
            for k in range(1, order - used + 1):
                power = algebra.mask_times_class(power, i)
                if algebra.mask_size(power) == target:
                    break
                kbar[i - 1] = k
                visit(i + 1, used + k, power)
            kbar[i - 1] = 0

    if algebra.mask_size(1) != target:
        visit(1, 0, 1)
    out.sort(key=lambda record: (sum(record.exponents), record.exponents))
    return out


@dataclass(frozen=True)
class AxisRay:
    """A line of eventually constant defect along one class axis (others 0)."""

    class_index: int
    start: int
    even_defect: int
    odd_defect: int


@dataclass
class DefectSeriesResult:
    truncated: TruncatedSeries
    closed_form: Optional[RationalGF]
    classification: str  # finite | finite-plus-axis-rays | truncated-only
    polynomial_part: Optional[Polynomial] = None
    tail_numerator: Optional[Polynomial] = None  # over 1 - t^2
    axis_rays: tuple[AxisRay, ...] = ()
    diagnostic: Optional[str] = None


def defect_series(
    group: FiniteGroupTable, order: int, state_budget: int = DEFAULT_DEFECT_BUDGET
) -> DefectSeriesResult:
    """Defect series Delta_G(t) = sum over kbar of delta(kbar) t^{|kbar|}.

    When every class is self-inverse the series is computed exactly as a
    rational function by a memoised suffix recursion over the classes (each
    class-power chain of bitmasks is 2-periodic past a provable stabilisation
    point).  The closed form is emitted when the support is finite or finite
    plus axis-parallel rays; richer support falls back to truncated-only.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    data = group.class_algebra()
    if not data.self_inverse:
        truncated = _defect_truncated_signed(data, order, state_budget)
        return DefectSeriesResult(
            truncated,
            None,
            "truncated-only",
            diagnostic="classes are not all self-inverse; no closed-form extraction",
        )

    ops = [0]

    def spend(n: int) -> None:
        ops[0] += n
        if ops[0] > state_budget:
            raise BudgetExceededError("defect closed-form extraction exceeded state budget")

    # suffix(i, mask) is an integer polynomial (ascending coefficients) over
    # (1 - t^2)^(count - i): each class contributes one factor, through its
    # tail, so denominators never compound.  Memo lists are shared: never
    # mutate one.
    memo: dict[tuple[int, int], list[int]] = {}

    def add_shifted(total: list[int], k: int, num: list[int]) -> None:
        """total += 2 t^k num, in place."""
        if len(total) < k + len(num):
            total.extend([0] * (k + len(num) - len(total)))
        for j, c in enumerate(num, k):
            total[j] += 2 * c

    def suffix(i: int, mask: int) -> list[int]:
        if i == data.count:
            return [data.defect_of_mask(mask)]
        key = (i, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        prefix, s = data.chain(mask, i)
        spend(len(prefix))
        total = list(suffix(i + 1, prefix[0]))  # k = 0, weight 1
        for k in range(1, len(prefix)):
            add_shifted(total, k, suffix(i + 1, prefix[k]))
        # tail: masks alternate between prefix[s] and prefix[s+1] from k = s+2
        # on, a series in t^2, so the finite part takes one more (1 - t^2)
        total.extend((0, 0))
        for j in range(len(total) - 1, 1, -1):
            total[j] -= total[j - 2]
        add_shifted(total, s + 2, suffix(i + 1, prefix[s]))
        add_shifted(total, s + 3, suffix(i + 1, prefix[s + 1]))
        memo[key] = total
        return total

    try:
        num, den_power = Polynomial(suffix(1, 1)), data.count - 1
    except BudgetExceededError as exc:
        truncated = _defect_truncated_signed(data, order, state_budget * 10)
        return DefectSeriesResult(
            truncated, None, "truncated-only", diagnostic=str(exc)
        )

    while den_power > 0:
        q, r = num.divmod(ONE_MINUS_T2)
        if not r.is_zero():
            break
        num = q
        den_power -= 1

    truncated = expand_rational(RationalGF(num, ONE_MINUS_T2**den_power), order)
    check = _defect_truncated_signed(data, order, state_budget * 10)
    if truncated != check:
        raise AssertionError("closed-form defect series disagrees with direct enumeration")

    rays = _axis_rays(data)
    if den_power == 0:
        return DefectSeriesResult(
            truncated,
            RationalGF(num, ONE),
            "finite",
            polynomial_part=num,
            axis_rays=rays,
        )
    if den_power == 1:
        poly_part, tail = num.divmod(ONE_MINUS_T2)
        return DefectSeriesResult(
            truncated,
            RationalGF(num, ONE_MINUS_T2),
            "finite-plus-axis-rays",
            polynomial_part=poly_part,
            tail_numerator=tail,
            axis_rays=rays,
        )
    return DefectSeriesResult(
        truncated,
        None,
        "truncated-only",
        axis_rays=rays,
        diagnostic="defect support is richer than axis-parallel rays",
    )


def _axis_rays(data: ClassAlgebra) -> tuple[AxisRay, ...]:
    """Per-class pure power chains C_i^k: the eventually constant defects along
    each axis through the origin."""
    rays = []
    for cls in range(1, data.count):
        prefix, s = data.chain(1, cls)
        even = data.defect_of_mask(prefix[s] if s % 2 == 0 else prefix[s + 1])
        odd = data.defect_of_mask(prefix[s + 1] if s % 2 == 0 else prefix[s])
        if even or odd:
            rays.append(AxisRay(cls, s, even, odd))
    return tuple(rays)


def _defect_truncated_signed(
    data: ClassAlgebra, order: int, state_budget: int
) -> TruncatedSeries:
    """Direct truncated enumeration over signed exponent tuples, memoised by
    (class position, reachable mask).  Valid with or without self-inverse
    classes; used both as the general fallback and as the closed-form check."""
    ops = [0]
    memo: dict[tuple[int, int], list[int]] = {}

    def suffix(i: int, mask: int) -> list[int]:
        if i == data.count:
            out = [0] * (order + 1)
            out[0] = data.defect_of_mask(mask)
            return out
        key = (i, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        ops[0] += 1
        if ops[0] > state_budget:
            raise BudgetExceededError("defect enumeration exceeded state budget")
        total = list(suffix(i + 1, mask))
        for inverse in (False, True):
            m = mask
            cls = data.inverse_class[i] if inverse else i
            for k in range(1, order + 1):
                m = data.mask_times_class(m, cls)
                sub = suffix(i + 1, m)
                for j in range(k, order + 1):
                    total[j] += sub[j - k]
        memo[key] = total
        return total

    coeffs = suffix(1, 1)
    return TruncatedSeries(coeffs)


def is_commutator_length_one(group: FiniteGroupTable) -> bool:
    """Whether every element of [G,G] is a single commutator, decided
    exhaustively on class masks: the single commutators are the union of the
    class products C_i C_i^-1."""
    algebra = group.class_algebra()
    return algebra.single_commutator_mask == algebra.commutator_mask


@dataclass
class ConjugationGrowthResult:
    """Growth data of the structure group of the full conjugation solution."""

    truncated: TruncatedSeries
    closed_form: Optional[RationalGF]
    defect: DefectSeriesResult
    commutator_size: int
    class_count: int


def as_full_conjugation_gf(
    group: FiniteGroupTable, order: int, state_budget: int = DEFAULT_DEFECT_BUDGET
) -> ConjugationGrowthResult:
    """Growth series of As(G) for the conjugation solution on all of G:
    |[G,G]| ((1+t)/(1-t))^c - (1+t)^2 Delta_G(t).

    Requires commutator length 1, asserted exhaustively over [G,G].
    """
    if not is_commutator_length_one(group):
        raise ValueError(
            f"group {group.name} has an element of [G,G] that is not a single "
            "commutator; the defect formula does not apply"
        )
    defect = defect_series(group, order, state_budget)
    algebra = group.class_algebra()
    c, gamma = algebra.count, algebra.commutator_size
    free_part = expand_rational(RationalGF(ONE_PLUS_T**c, ONE_MINUS_T**c), order)
    square = expand_rational(RationalGF(ONE_PLUS_T**2), order)
    truncated = gamma * free_part - square * defect.truncated
    closed = None
    if defect.closed_form is not None:
        closed = (
            RationalGF(Polynomial([gamma]) * ONE_PLUS_T**c, ONE_MINUS_T**c)
            - RationalGF(ONE_PLUS_T**2) * defect.closed_form
        )
    return ConjugationGrowthResult(truncated, closed, defect, gamma, c)
