"""Exact formal power series and rational generating functions over Q.

Everything in this module is exact: truncation orders are always explicit
and no floating point is used anywhere.  This is the one module that decides
how a coefficient is held: an `int` when the value is integral and a reduced
`Fraction` otherwise.  Every constructor normalises to that form, so callers
pass plain ints, or a `Fraction` for a value that is not integral, and growth
series, whose coefficients are integers, stay on int arithmetic.
`TruncatedSeries.integer_coefficients` is the checked conversion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]


def _frac(x) -> Scalar:
    """The canonical form of an exact rational: its int when integral, else
    the reduced Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b in canonical form."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _frac(Fraction(a, b))


class Polynomial:
    """Univariate polynomial over Q, coefficients stored degree-ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, n: int) -> Scalar:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce_poly(other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        other = _coerce_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "Polynomial":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Polynomial([0] * k + list(self.coeffs))

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [0] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = _div(rem[i + len(other.coeffs) - 1], lead)
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    def __call__(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _frac(acc)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence) -> "Polynomial":
        return cls(Fraction(str(c)) for c in data)


def _coerce_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial([x])
    raise TypeError(f"cannot use {x!r} as a polynomial")


ZERO = Polynomial()
ONE = Polynomial([1])
T = Polynomial([0, 1])
ONE_MINUS_T = ONE - T
ONE_PLUS_T = ONE + T
ONE_MINUS_T2 = ONE - T**2
ONE_PLUS_T2 = ONE + T**2


def format_polynomial(p: Polynomial, var: str = "t") -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            body = mag + (var if i == 1 else f"{var}^{i}")
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


class RationalGF:
    """Quotient of two polynomials, used as an exact generating function.

    No gcd normalisation is performed; equality is decided by
    cross-multiplication so unreduced representations compare correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational GF with zero denominator")
        self.num = num
        self.den = den

    def __add__(self, other) -> "RationalGF":
        other = coerce_gf(other)
        return RationalGF(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self.num, self.den)

    def __sub__(self, other) -> "RationalGF":
        return self + (-coerce_gf(other))

    def __rsub__(self, other) -> "RationalGF":
        return coerce_gf(other) - self

    def __mul__(self, other) -> "RationalGF":
        other = coerce_gf(other)
        return RationalGF(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalGF":
        other = coerce_gf(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero GF")
        return RationalGF(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalGF":
        if n < 0:
            return RationalGF(self.den, self.num) ** (-n)
        return RationalGF(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalGF(other)
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalGF is unhashable (equality is cross-multiplicative)")

    def derivative(self) -> "RationalGF":
        return RationalGF(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self):
        if self.den == ONE:
            return f"RationalGF({format_polynomial(self.num)!r})"
        return f"RationalGF(({format_polynomial(self.num)}) / ({format_polynomial(self.den)}))"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalGF":
        return cls(Polynomial.from_json(data["num"]), Polynomial.from_json(data["den"]))


def coerce_gf(x) -> RationalGF:
    if isinstance(x, RationalGF):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return RationalGF(x)
    raise TypeError(f"cannot use {x!r} as a rational GF")


class TruncatedSeries:
    """Power series truncated at an explicit order (inclusive).

    Arithmetic never silently extends past the truncation: binary operations
    return a series at the smaller of the two orders.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(_frac(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Scalar:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation from {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    def _common(self, other) -> tuple["TruncatedSeries", "TruncatedSeries"]:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected a TruncatedSeries, got {other!r}")
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries((self.coeffs[0] + other,) + self.coeffs[1:])
        a, b = self._common(other)
        return TruncatedSeries(x + y for x, y in zip(a.coeffs, b.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-c for c in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        a, b = self._common(other)
        return TruncatedSeries(x - y for x, y in zip(a.coeffs, b.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(c * other for c in self.coeffs)
        a, b = self._common(other)
        n = a.order
        out = [0] * (n + 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j in range(n + 1 - i):
                    out[i + j] += x * b.coeffs[j]
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dt; the order drops by one."""
        if self.order < 1:
            raise ValueError("derivative undefined at this truncation")
        return TruncatedSeries((i + 1) * self.coeffs[i + 1] for i in range(self.order))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, keeping the same order."""
        return TruncatedSeries(([0] * k + list(self.coeffs))[: self.order + 1])

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def integer_coefficients(self) -> list[int]:
        for i, c in enumerate(self.coeffs):
            if type(c) is not int:
                raise ValueError(f"coefficient of t^{i} is not an integer: {c}")
        return list(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coeffs]}, order={self.order})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        s = cls(Fraction(str(c)) for c in data["coeffs"])
        if s.order != data["order"]:
            raise ValueError("inconsistent series order in JSON")
        return s


def expand_rational(gf: RationalGF, order: int) -> TruncatedSeries:
    """Expand num/den as a power series at t = 0, through t^order.

    The result is the unique series s with den * s == num modulo t^(order+1).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    d0 = gf.den[0]
    if d0 == 0:
        raise ZeroDivisionError("not expandable at origin: denominator constant term is zero")
    out = []
    for n in range(order + 1):
        acc = gf.num[n]
        for k in range(1, min(n, gf.den.degree) + 1):
            acc -= gf.den[k] * out[n - k]
        out.append(_div(acc, d0))
    return TruncatedSeries(out)


def geometric_series(order: int, step: int = 1) -> TruncatedSeries:
    """1/(1 - t^step) truncated at the given order."""
    return expand_rational(RationalGF(ONE, ONE - T**step), order)


def verdict(oracle, formula) -> Optional[bool]:
    """The rule behind every formula-vs-oracle comparison: False when the
    oracle's counts differ from the formula's on the orders the oracle
    reached, None when it reached fewer orders than the formula or none at
    all, True otherwise.  An empty or truncated comparison is never a pass."""
    oracle, formula = list(oracle), list(formula)
    if oracle != formula[: len(oracle)]:
        return False
    return True if oracle and len(oracle) >= len(formula) else None


class BivariateSeries:
    """Truncated series in two variables t and x with exact coefficients.

    Coefficient of t^i x^j sits at rows[i][j]; the matrix is rectangular with
    shape (order_t + 1) x (order_x + 1).
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(_frac(c) for c in row) for row in rows)
        if not mat or not mat[0]:
            raise ValueError("bivariate series needs at least the constant entry")
        width = len(mat[0])
        if any(len(r) != width for r in mat):
            raise ValueError("ragged coefficient matrix")
        self.rows = mat

    @property
    def order_t(self) -> int:
        return len(self.rows) - 1

    @property
    def order_x(self) -> int:
        return len(self.rows[0]) - 1

    @classmethod
    def zero(cls, order_t: int, order_x: int) -> "BivariateSeries":
        return cls([[0] * (order_x + 1) for _ in range(order_t + 1)])

    @classmethod
    def constant(cls, value, order_t: int, order_x: int) -> "BivariateSeries":
        rows = [[0] * (order_x + 1) for _ in range(order_t + 1)]
        rows[0][0] = value
        return cls(rows)

    def _common(self, other):
        if not isinstance(other, BivariateSeries):
            raise TypeError(f"expected a BivariateSeries, got {other!r}")
        nt = min(self.order_t, other.order_t)
        nx = min(self.order_x, other.order_x)
        return self.truncate(nt, nx), other.truncate(nt, nx)

    def truncate(self, order_t: int, order_x: int) -> "BivariateSeries":
        if order_t > self.order_t or order_x > self.order_x:
            raise ValueError("cannot extend a bivariate truncation")
        return BivariateSeries(row[: order_x + 1] for row in self.rows[: order_t + 1])

    def __add__(self, other):
        a, b = self._common(other)
        return BivariateSeries(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
        )

    def __neg__(self):
        return BivariateSeries(tuple(-c for c in row) for row in self.rows)

    def __sub__(self, other):
        a, b = self._common(other)
        return BivariateSeries(
            tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariateSeries(tuple(c * other for c in row) for row in self.rows)
        a, b = self._common(other)
        nt, nx = a.order_t, a.order_x
        out = [[0] * (nx + 1) for _ in range(nt + 1)]
        for i in range(nt + 1):
            for j in range(nx + 1):
                c = a.rows[i][j]
                if not c:
                    continue
                for k in range(nt + 1 - i):
                    rb = b.rows[k]
                    for l in range(nx + 1 - j):
                        if rb[l]:
                            out[i + k][j + l] += c * rb[l]
        return BivariateSeries(out)

    __rmul__ = __mul__

    def coefficient_of_x(self, j: int) -> TruncatedSeries:
        """The x^j coefficient as a series in t (order = order_t)."""
        return TruncatedSeries(row[j] for row in self.rows)

    def shift_down_t(self, k: int) -> "BivariateSeries":
        """Divide by t^k; every entry below degree k must vanish."""
        for i in range(min(k, self.order_t + 1)):
            if any(self.rows[i]):
                raise ValueError(f"not divisible by t^{k}: nonzero entry at t^{i}")
        rows = list(self.rows[k:])
        if not rows:
            rows = [(0,) * (self.order_x + 1)]
        return BivariateSeries(rows)

    def exp(self) -> "BivariateSeries":
        """exp(f) at this truncation; needs zero constant term.

        The exponential formula over x-columns, scaled by n!: with
        f_k = k! [x^k] f and e_n = n! [x^n] exp(f), e_0 is the t-series
        exp(f_0) (m a_m = sum_i i f_0[i] a_(m-i)) and
        e_n = sum_(k=1..n) C(n-1, k-1) f_k e_(n-k), every product truncated
        at order_t; each entry of e_n is divided by n! once, at the end.
        When every f_k has integer coefficients, as for the EGF of the
        transposition monoids, the recurrence is int arithmetic only.
        """
        if self.rows[0][0] != 0:
            raise ValueError("exp undefined: nonzero constant term")
        nt, nx = self.order_t, self.order_x
        f = [[_frac(row[k] * math.factorial(k)) for row in self.rows] for k in range(nx + 1)]
        e0 = [1] + [0] * nt
        for m in range(1, nt + 1):
            e0[m] = _div(sum(i * f[0][i] * e0[m - i] for i in range(1, m + 1)), m)
        e = [e0]
        for n in range(1, nx + 1):
            acc = [0] * (nt + 1)
            for k in range(1, n + 1):
                c, g = math.comb(n - 1, k - 1), e[n - k]
                for i, a in enumerate(f[k]):
                    if a:
                        a *= c
                        for j in range(nt + 1 - i):
                            acc[i + j] += a * g[j]
            e.append(acc)
        return BivariateSeries(
            [_div(e[n][i], math.factorial(n)) for n in range(nx + 1)] for i in range(nt + 1)
        )

    def __eq__(self, other):
        return isinstance(other, BivariateSeries) and self.rows == other.rows

    def __repr__(self):
        return f"BivariateSeries(order_t={self.order_t}, order_x={self.order_x})"


def bivariate_binomial(order_t: int, order_x: int) -> BivariateSeries:
    """(1 - tx)^(-t) as a formal binomial series, truncated.

    The x^n coefficient is the polynomial (-1)^n t^n binom(-t, n), of degree
    at most 2n in t.
    """
    if order_t < 0 or order_x < 0:
        raise ValueError("orders must be non-negative")
    rows = [[0] * (order_x + 1) for _ in range(order_t + 1)]
    binom = ONE  # binom(-t, 0)
    for n in range(order_x + 1):
        if n > 0:
            # binom(-t, n) = binom(-t, n-1) * (-t - (n-1)) / n
            binom = binom * Polynomial([-(n - 1), -1]) * Fraction(1, n)
        col = (binom * ((-1) ** n)).shift(n)
        for i in range(min(col.degree, order_t) + 1):
            rows[i][n] = col[i]
    return BivariateSeries(rows)
