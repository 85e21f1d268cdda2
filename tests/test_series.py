import itertools
from fractions import Fraction

import numpy as np
import pytest

from ybe_growth.series import (
    ONE,
    BivariateSeries,
    Polynomial,
    RationalGF,
    T,
    TruncatedSeries,
    bivariate_binomial,
    expand_rational,
    geometric_series,
)

ONE_MINUS_T = ONE - T
GEOM = RationalGF(ONE + T, ONE_MINUS_T)


def coeffs(series):
    return series.integer_coefficients()


class TestPolynomial:
    def test_trailing_zeros_normalised(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Polynomial([0, 0]).degree == -1

    def test_arithmetic(self):
        p = Polynomial([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).is_zero()
        assert (p**3)[2] == 3

    def test_divmod(self):
        num = Polynomial([1, 0, -1])  # (1-t)(1+t)
        q, r = num.divmod(Polynomial([1, -1]))
        assert r.is_zero() and q == Polynomial([1, 1])
        q, r = Polynomial([1, 1, 1]).divmod(Polynomial([1, 1]))
        assert q * Polynomial([1, 1]) + r == Polynomial([1, 1, 1])

    def test_derivative(self):
        assert Polynomial([5, 1, 3]).derivative() == Polynomial([1, 6])


class TestExpandRational:
    def test_ball_sizes_of_z(self):
        assert coeffs(expand_rational(GEOM, 4)) == [1, 2, 2, 2, 2]

    def test_z3_ball_sizes(self):
        series = expand_rational(GEOM**3, 8)
        assert coeffs(series) == [1] + [4 * n * n + 2 for n in range(1, 9)]

    def test_long_division_example(self):
        gf = RationalGF(Polynomial([1, 1]) * Polynomial([1, 4, -2]), ONE_MINUS_T)
        assert coeffs(expand_rational(gf, 5)) == [1, 6, 8, 6, 6, 6]

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError, match="not expandable"):
            expand_rational(RationalGF(ONE, T), 3)

    def test_den_times_series_reproduces_num(self):
        gf = RationalGF(Polynomial([2, -1, 5]), Polynomial([3, 1, -2, 1]))
        s = expand_rational(gf, 12)
        den_series = expand_rational(RationalGF(gf.den), 12)
        assert (den_series * s).coeffs == expand_rational(RationalGF(gf.num), 12).coeffs


class TestDerivative:
    def test_termwise(self):
        s = TruncatedSeries([1, 3, 2])
        assert s.derivative().coeffs == (3, 4)

    def test_constant(self):
        assert TruncatedSeries([5, 0, 0]).derivative().coeffs == (0, 0)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="derivative undefined"):
            TruncatedSeries([7]).derivative()

    def test_matches_symbolic(self):
        poly = Polynomial([1, 3, 2])  # (1+t)(1+2t)
        series = expand_rational(RationalGF(poly), 4)
        assert series.derivative().coeffs == expand_rational(
            RationalGF(poly.derivative()), 3
        ).coeffs


class TestRationalGF:
    def test_cross_multiplication_equality(self):
        a = RationalGF(Polynomial([1, 1]), Polynomial([1, -1]))
        b = RationalGF(Polynomial([2, 2]), Polynomial([2, -2]))
        assert a == b
        assert a != a * a

    def test_product_expansion_homomorphism(self):
        f = RationalGF(Polynomial([1, 2]), Polynomial([1, 1, 1]))
        g = RationalGF(Polynomial([3, 0, 1]), Polynomial([1, -1]))
        lhs = expand_rational(f * g, 9)
        assert lhs.coeffs == (expand_rational(f, 9) * expand_rational(g, 9)).coeffs

    def test_expansion_multiplicative_property(self):
        # every pair of numerators with coefficients in [-2, 2], of length 1 or 2
        numerators = [list(c) for k in (1, 2) for c in itertools.product(range(-2, 3), repeat=k)]
        for a, b in itertools.product(numerators, repeat=2):
            fa = RationalGF(Polynomial(a), Polynomial([1, -1, 2]))
            fb = RationalGF(Polynomial(b), Polynomial([2, 1]))
            lhs = expand_rational(fa * fb, 6).coeffs
            rhs = (expand_rational(fa, 6) * expand_rational(fb, 6)).coeffs
            assert lhs == rhs

    def test_json_round_trip(self):
        gf = RationalGF(Polynomial([1, Fraction(1, 2)]), Polynomial([1, -1]))
        again = RationalGF.from_json(gf.to_json())
        assert again == gf


class TestTruncatedSeries:
    def test_binary_ops_truncate_to_smaller_order(self):
        a = TruncatedSeries([1, 2, 3, 4])
        b = TruncatedSeries([1, 1])
        assert (a + b).order == 1
        assert (a * b).coeffs == (1, 3)

    def test_integer_coefficients_raises_on_fraction(self):
        with pytest.raises(ValueError, match="not an integer"):
            TruncatedSeries([Fraction(1, 2)]).integer_coefficients()

    def test_json_round_trip(self):
        s = TruncatedSeries([1, Fraction(5, 3), 0])
        assert TruncatedSeries.from_json(s.to_json()) == s


class TestBivariate:
    def test_binomial_low_columns(self):
        b = bivariate_binomial(6, 3)
        assert b.coefficient_of_x(0).coeffs[:3] == (1, 0, 0)
        col1 = b.coefficient_of_x(1)
        assert [str(c) for c in col1.coeffs[:4]] == ["0", "0", "1", "0"]  # t^2
        col2 = b.coefficient_of_x(2)
        assert col2.coeffs[3] == Fraction(1, 2) and col2.coeffs[4] == Fraction(1, 2)

    def test_exp_of_zero(self):
        z = BivariateSeries.zero(3, 3)
        assert z.exp() == BivariateSeries.constant(1, 3, 3)

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError, match="exp undefined"):
            BivariateSeries.constant(1, 2, 2).exp()

    def test_free_abelian_monoid_egf(self):
        # exp(x/(1-t)): coefficient of x^d is (1/d!) (1/(1-t))^d
        order_t, order_x = 6, 3
        geom = geometric_series(order_t)
        inner = BivariateSeries(
            [[0, geom[i]] + [0] * (order_x - 1) for i in range(order_t + 1)]
        )
        e = inner.exp()
        import math

        for d in range(order_x + 1):
            expected = expand_rational(RationalGF(ONE, ONE_MINUS_T**d), order_t)
            got = e.coefficient_of_x(d) * Fraction(math.factorial(d))
            assert got == expected

    def test_exp_of_x_coefficient(self):
        inner = BivariateSeries([[0, 1, 0, 0]])
        e = inner.exp()
        assert e.rows[0][3] == Fraction(1, 6)

    def test_exp_multiplicative(self):
        import random

        rng = random.Random(3)
        for _ in range(10):
            f = BivariateSeries(
                [[0 if (i, j) == (0, 0) else rng.randint(-2, 2) for j in range(4)] for i in range(4)]
            )
            g = BivariateSeries(
                [[0 if (i, j) == (0, 0) else rng.randint(-2, 2) for j in range(4)] for i in range(4)]
            )
            assert (f + g).exp() == f.exp() * g.exp()

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_exp_equals_power_sum_on_a_box(self, shape):
        # every f of this shape with entries in {-1, 0, 1/2, 1} and zero
        # constant term, the x^0 column included
        rows, cols = shape
        values = (-1, 0, Fraction(1, 2), 1)
        for entries in itertools.product(values, repeat=rows * cols - 1):
            flat = (0,) + entries
            f = BivariateSeries([flat[i * cols : (i + 1) * cols] for i in range(rows)])
            assert f.exp() == _power_sum_exp(f), flat

    def test_shift_down_checks_divisibility(self):
        with pytest.raises(ValueError, match="not divisible"):
            BivariateSeries([[0, 1], [0, 0], [1, 0]]).shift_down_t(2)


def _power_sum_exp(f):
    """exp(f) as the sum of f^n / n!, which is finite at any truncation
    because f^n has total degree at least n."""
    result = BivariateSeries.constant(1, f.order_t, f.order_x)
    term = BivariateSeries.constant(1, f.order_t, f.order_x)
    for n in range(1, f.order_t + f.order_x + 1):
        term = term * f * Fraction(1, n)
        result = result + term
    return result


def _all_int(values):
    return all(type(c) is int for c in values)


class TestCanonicalForm:
    """A coefficient is held as an int when integral, else as a reduced Fraction."""

    def test_integral_values_are_ints(self):
        assert Polynomial([3, Fraction(4, 2), -1]).coeffs == (3, 2, -1)
        assert _all_int(Polynomial([3, Fraction(4, 2), -1]).coeffs)
        assert _all_int(TruncatedSeries([1, Fraction(6, 3), 0]).coeffs)
        bi = BivariateSeries([[1, Fraction(2, 1)], [0, Fraction(-8, 4)]])
        assert all(_all_int(row) for row in bi.rows)
        assert type(BivariateSeries.constant(Fraction(4, 2), 1, 1).rows[0][0]) is int

    def test_non_integral_stays_reduced_fraction(self):
        c = Polynomial([Fraction(2, 4)]).coeffs[0]
        assert type(c) is Fraction and (c.numerator, c.denominator) == (1, 2)

    def test_arithmetic_renormalises(self):
        half = Polynomial([Fraction(1, 2)])
        assert _all_int((half + half).coeffs) and (half + half) == ONE
        assert _all_int((Polynomial([1, 1]) * 2).coeffs)
        s = TruncatedSeries([Fraction(1, 3), Fraction(2, 3)])
        assert _all_int((s * 3).coeffs) and _all_int((s + s + s).coeffs)

    def test_expand_rational_keeps_ints(self):
        assert _all_int(expand_rational(GEOM, 20).coeffs)
        assert _all_int(geometric_series(12, step=3).coeffs)

    def test_expand_rational_non_integral(self):
        s = expand_rational(RationalGF(ONE, Polynomial([2, -1])), 3)
        assert s.coeffs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
        assert all(type(c) is Fraction for c in s.coeffs)

    def test_divmod_is_exact(self):
        q, r = Polynomial([1, 0, 1]).divmod(Polynomial([0, 2]))
        assert q == Polynomial([0, Fraction(1, 2)]) and r == ONE
        assert q * Polynomial([0, 2]) + r == Polynomial([1, 0, 1])
        assert _all_int(r.coeffs)
        q, r = Polynomial([2, 0, -2]).divmod(Polynomial([2, 2]))
        assert q == Polynomial([1, -1]) and r.is_zero() and _all_int(q.coeffs)

    def test_evaluation(self):
        assert type(Polynomial([1, 2])(Fraction(1, 2))) is int
        assert Polynomial([1, 2])(Fraction(1, 4)) == Fraction(3, 2)

    @pytest.mark.parametrize("bad", [1.0, 0.5, "1", np.int64(1)])
    def test_inexact_coefficient_rejected(self, bad):
        with pytest.raises(TypeError):
            Polynomial([1, bad])
        with pytest.raises(TypeError):
            TruncatedSeries([bad])
        with pytest.raises(TypeError):
            BivariateSeries([[bad]])

    def test_growth_series_hold_ints(self):
        from ybe_growth.algebra import make_dihedral_group
        from ybe_growth.group_growth import as_full_conjugation_gf
        from ybe_growth.reflection_monoid import monoid_growth_reflections

        gf = monoid_growth_reflections(6)
        assert _all_int(gf.num.coeffs) and _all_int(gf.den.coeffs)
        assert _all_int(expand_rational(gf, 10).coeffs)
        result = as_full_conjugation_gf(make_dihedral_group(24), 6)
        assert _all_int(result.truncated.coeffs) and _all_int(result.defect.truncated.coeffs)
        # D6 has a closed form, with a defect tail over 1 - t^2
        result = as_full_conjugation_gf(make_dihedral_group(6), 6)
        for gf in (result.closed_form, result.defect.closed_form):
            assert _all_int(gf.num.coeffs) and _all_int(gf.den.coeffs)
