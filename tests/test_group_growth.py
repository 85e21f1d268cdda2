import itertools
import math
import tracemalloc

import pytest

from test_algebra import _commutator_length_two_group
from ybe_growth.algebra import (
    Permutation,
    SymmetricClasses,
    dihedral_reflections,
    make_dihedral_group,
    make_symmetric_group,
    symmetric_transpositions,
)
from ybe_growth.cli import MAX_PERMUTATIONS_D
from ybe_growth.group_growth import (
    DEFAULT_DEFECT_BUDGET,
    _defect_truncated_signed,
    as_full_conjugation_gf,
    as_reflections_group_gf,
    as_transpositions_group_gf,
    class2_lift,
    defect_measure,
    defect_series,
    is_commutator_length_one,
    nonzero_defects,
    solomon_series,
)
from ybe_growth.oracle import conjugation_ball_series, full_conjugation_spheres
from ybe_growth.series import (
    ONE,
    Polynomial,
    RationalGF,
    T,
    TruncatedSeries,
    expand_rational,
)

ONE_MINUS_T = ONE - T
GEOM = RationalGF(ONE + T, ONE_MINUS_T)
DEEP_GROUPS = [(make_dihedral_group, d) for d in range(3, 25)] + [
    (make_symmetric_group, d) for d in range(3, 7)
]


class TestClass2Lift:
    def test_z2(self):
        assert class2_lift(RationalGF(Polynomial([1, 1]))) == GEOM

    def test_s3_closed_form(self):
        lifted = class2_lift(solomon_series(3))
        assert lifted == RationalGF(Polynomial([1, 1]) * Polynomial([1, 4, -2]), ONE_MINUS_T)

    def test_d5_reflections(self):
        small = RationalGF(Polynomial([1, 5, 4]))
        expected = RationalGF(Polynomial([0, 10]), ONE_MINUS_T) + RationalGF(
            Polynomial([1, 0, 4])
        )
        assert class2_lift(small) == expected

    def test_truncated_branch_matches_symbolic(self):
        gf = solomon_series(4)
        series = expand_rational(gf, 8)
        lifted_series = class2_lift(series)
        assert lifted_series.coeffs == expand_rational(class2_lift(gf), 8).coeffs

    def test_truncated_needs_order_one(self):
        with pytest.raises(ValueError):
            class2_lift(TruncatedSeries([1]))

    def test_eventual_constancy(self):
        # all but finitely many coefficients equal the group order
        for d, size in ((3, 6), (4, 24)):
            series = expand_rational(class2_lift(solomon_series(d)), 12)
            coeffs = series.integer_coefficients()
            assert coeffs[-3:] == [size] * 3


class TestSolomon:
    def test_small_cases(self):
        assert solomon_series(1) == RationalGF(ONE)
        assert solomon_series(3) == RationalGF(Polynomial([1, 3, 2]))
        assert solomon_series(4) == RationalGF(Polynomial([1, 6, 11, 6]))

    def test_recursion(self):
        for d in range(1, 7):
            assert solomon_series(d + 1) == RationalGF(Polynomial([1, d])) * solomon_series(d)

    def test_matches_bfs(self):
        from ybe_growth.algebra import generic_length_series

        for d in (2, 3, 4, 5):
            group = make_symmetric_group(d)
            series, covered = generic_length_series(
                group, symmetric_transpositions(group), d - 1
            )
            assert covered
            assert series.coeffs == expand_rational(solomon_series(d), d - 1).coeffs


class TestTranspositionGroupSeries:
    def test_known_closed_forms(self):
        assert as_transpositions_group_gf(2) == GEOM
        assert as_transpositions_group_gf(3) == RationalGF(
            Polynomial([1, 1]) * Polynomial([1, 4, -2]), ONE_MINUS_T
        )
        assert as_transpositions_group_gf(4) == RationalGF(
            Polynomial([1, 1]) * Polynomial([1, 10, 13, -12]), ONE_MINUS_T
        )

    def test_matches_class2_lift(self):
        for d in (2, 3, 4, 5, 6):
            assert as_transpositions_group_gf(d) == class2_lift(solomon_series(d))

    def test_expansion_matches_ball_oracle(self):
        for d in (2, 3, 4):
            group = make_symmetric_group(d)
            spheres = conjugation_ball_series(group, symmetric_transpositions(group), 6)
            expansion = expand_rational(as_transpositions_group_gf(d), 6)
            assert spheres == expansion.integer_coefficients()

    def test_d_guard(self):
        with pytest.raises(ValueError):
            as_transpositions_group_gf(1)


class TestReflectionGroupSeries:
    def test_odd_formula(self):
        assert as_reflections_group_gf(5) == RationalGF(
            Polynomial([0, 10]), ONE_MINUS_T
        ) + RationalGF(Polynomial([1, 0, 4]))

    def test_even_formula(self):
        expected = 2 * GEOM**2 + RationalGF(Polynomial([-1, 0, 1]))
        assert as_reflections_group_gf(4) == expected

    def test_expansions(self):
        assert expand_rational(as_reflections_group_gf(3), 4).integer_coefficients() == [
            1, 6, 8, 6, 6,
        ]

    def test_matches_ball_oracle(self):
        for d in (3, 4, 5, 6, 7):
            group = make_dihedral_group(d)
            spheres = conjugation_ball_series(group, dihedral_reflections(group), 6)
            expansion = expand_rational(as_reflections_group_gf(d), 6)
            assert spheres == expansion.integer_coefficients()


def _class_index_by_cycle_type(group, cycle_type):
    perms = list(itertools.permutations(range(group.images.shape[1])))
    dec = group.conjugacy_classes()
    for i, members in enumerate(dec.classes):
        if Permutation(perms[members[0]]).cycle_type() == cycle_type:
            return i
    raise LookupError(cycle_type)


class TestDefectMeasure:
    def test_s3_values(self):
        group = make_symmetric_group(3)
        dec = group.conjugacy_classes()
        trans = _class_index_by_cycle_type(group, (2, 1))
        zero = [0] * (dec.count - 1)
        assert defect_measure(group, zero).defect == 2
        one_cycletype = [0] * (dec.count - 1)
        one_cycletype[_class_index_by_cycle_type(group, (3,)) - 1] = 1
        assert defect_measure(group, one_cycletype).defect == 1
        one_trans = [0] * (dec.count - 1)
        one_trans[trans - 1] = 1
        assert defect_measure(group, one_trans).defect == 0

    def test_s4_transposition_and_four_cycle(self):
        group = make_symmetric_group(4)
        dec = group.conjugacy_classes()
        kbar = [0] * (dec.count - 1)
        kbar[_class_index_by_cycle_type(group, (2, 1, 1)) - 1] = 1
        kbar[_class_index_by_cycle_type(group, (4,)) - 1] = 1
        record = defect_measure(group, kbar)
        assert record.defect == 1 and record.product_size == 11

    def test_sign_invariance(self):
        group = make_symmetric_group(4)
        assert (
            defect_measure(group, [1, -2, 0, 1]).defect
            == defect_measure(group, [1, 2, 0, 1]).defect
        )

    def test_defects_nonnegative(self):
        group = make_dihedral_group(7)
        dec = group.conjugacy_classes()
        import itertools

        for kbar in itertools.product(range(3), repeat=dec.count - 1):
            assert defect_measure(group, kbar).defect >= 0

    @pytest.mark.parametrize(
        "make",
        [lambda: make_symmetric_group(5), lambda: make_dihedral_group(9),
         lambda: _cyclic_group(6), _commutator_length_two_group],
        ids=["S5", "D9", "Z6", "F2^4.F2^6"],
    )
    def test_listing_matches_measure(self, make):
        # the listing's walk and defect_measure's product loop are two routes
        # to each record, and every kbar the listing leaves out has defect 0
        group = make()
        listed = {record.exponents: record for record in nonzero_defects(group, 2)}
        width = group.class_algebra().count - 1
        for size in range(3):
            for classes in itertools.combinations_with_replacement(range(width), size):
                kbar = [0] * width
                for i in classes:
                    kbar[i] += 1
                record = defect_measure(group, kbar)
                assert listed.pop(record.exponents, None) == (record if record.defect else None)
        assert not listed


class TestDefectSeries:
    def test_s3(self):
        result = defect_series(make_symmetric_group(3), 8)
        assert result.classification == "finite"
        assert result.closed_form == RationalGF(Polynomial([2, 2]))

    def test_s4(self):
        result = defect_series(make_symmetric_group(4), 10)
        expected = RationalGF(Polynomial([11, 50, 4])) + RationalGF(
            Polynomial([0, 0, 32]), ONE_MINUS_T
        )
        assert result.classification == "finite-plus-axis-rays"
        assert result.closed_form == expected
        assert result.truncated.integer_coefficients()[:4] == [11, 50, 36, 32]

    def test_d5(self):
        result = defect_series(make_dihedral_group(5), 8)
        assert result.classification == "finite"
        assert result.closed_form == RationalGF(Polynomial([4, 12, 12, 4]))

    def test_d7_matches_its_closed_form(self):
        # Delta must satisfy the published As(D_7) expression
        result = defect_series(make_dihedral_group(7), 8)
        expected = 6 * RationalGF((ONE + T) ** 5) - RationalGF(
            Polynomial([6]).shift(3) * (ONE + T)
        )
        assert result.closed_form == expected

    def test_d9_ray(self):
        group = make_dihedral_group(9)
        result = defect_series(group, 8)
        assert result.classification == "finite-plus-axis-rays"
        rho3 = group.conjugacy_classes().class_of[3]
        ray = next(r for r in result.axis_rays if r.class_index == rho3)
        assert ray.even_defect == 6 and ray.odd_defect == 6 and ray.start == 2

    def test_d9_low_coefficients(self):
        # element-level enumeration gives 8, 56, 168, 254 (checked independently)
        result = defect_series(make_dihedral_group(9), 3)
        assert result.truncated.integer_coefficients() == [8, 56, 168, 254]

    def test_closed_form_expansion_matches_truncation(self):
        for make, d in ((make_symmetric_group, 4), (make_dihedral_group, 9)):
            result = make(d)
            res = defect_series(result, 12)
            assert res.closed_form is not None
            assert (
                expand_rational(res.closed_form, 12).coeffs == res.truncated.coeffs
            )

    @pytest.mark.parametrize(
        "make, d", DEEP_GROUPS, ids=[f"{m.__name__[5].upper()}{d}" for m, d in DEEP_GROUPS]
    )
    def test_recursion_matches_enumeration_to_order_30(self, make, d):
        # deeper than the engine's own self-check, which stops at the requested order
        group = make(d)
        deep = _defect_truncated_signed(group.class_algebra(), 30, DEFAULT_DEFECT_BUDGET * 10)
        result = defect_series(group, 6)
        if result.closed_form is not None:
            assert expand_rational(result.closed_form, 30) == deep
        else:
            # no closed form is emitted; at order 30 the engine expands the
            # recursion's rational function and checks it against enumeration
            assert result.classification == "truncated-only"
            assert defect_series(group, 30).truncated == deep

    def test_repeated_calls_agree(self):
        for group in (make_dihedral_group(12), make_dihedral_group(13), make_symmetric_group(5)):
            assert defect_series(group, 8) == defect_series(group, 8)


def _element_level_defect_coefficients(group, order):
    """Independent oracle: defect coefficients via actual element-set
    products, enumerating signed exponent tuples of total size <= order."""
    dec = group.conjugacy_classes()
    gamma = len(group.commutator_subgroup())
    coeffs = [0] * (order + 1)

    def product_size(kbar):
        current = {0}
        for i, k in enumerate(kbar):
            members = dec.classes[i + 1]
            if k < 0:
                members = [group.inv(x) for x in members]
            for _ in range(abs(k)):
                current = {group.mul(a, b) for a in current for b in members}
        return len(current)

    def rec(i, kbar, used):
        if i == dec.count:
            coeffs[used] += gamma - product_size(kbar)
            return
        for k in range(-(order - used), order - used + 1):
            rec(i + 1, kbar + [k], used + abs(k))

    rec(1, [], 0)
    return coeffs


class TestElementLevelOracle:
    def test_bitmask_engine_matches_element_products(self):
        for group, order in ((make_symmetric_group(4), 4), (make_dihedral_group(7), 4)):
            engine = defect_series(group, order).truncated.integer_coefficients()
            oracle = _element_level_defect_coefficients(group, order)
            assert engine == oracle


def _cyclic_group(n):
    from ybe_growth.algebra import FiniteGroupTable

    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroupTable(n, table=table, name=f"Z{n}")


def _frobenius_21():
    """7:3, the maps x -> ax + b mod 7 with a in {1, 2, 4}; the identity first.
    Classes of sizes 1, 3, 3, 7, 7: two pairs of mutually inverse classes."""
    from ybe_growth.algebra import FiniteGroupTable

    maps = [(a, b) for a in (1, 2, 4) for b in range(7)]
    index = {m: n for n, m in enumerate(maps)}
    table = [[index[(a * c % 7, (a * e + b) % 7)] for c, e in maps] for a, b in maps]
    return FiniteGroupTable(21, table=table, name="F21")


def _list_truncated_signed(data, order):
    """The self-check as coefficient lists: the reference the packed ints
    must decode to."""
    memo = {}

    def suffix(i, mask):
        if i == data.count:
            return [data.defect_of_mask(mask)] + [0] * order
        key = (i, mask)
        if key not in memo:
            total = list(suffix(i + 1, mask))
            for cls in (i, data.inverse_class[i]):
                m = mask
                for k in range(1, order + 1):
                    m = data.mask_times_class(m, cls)
                    sub = suffix(i + 1, m)
                    for j in range(k, order + 1):
                        total[j] += sub[j - k]
            memo[key] = total
        return memo[key]

    return TruncatedSeries(suffix(1, 1))


class TestNonSelfInverseClasses:
    def test_cyclic_defect_is_truncated_only(self):
        # Z_3 has mutually inverse singleton classes; every defect vanishes
        # but no closed form is claimed without the sign symmetry
        result = defect_series(_cyclic_group(3), 6)
        assert result.classification == "truncated-only"
        assert result.truncated.integer_coefficients() == [0] * 7

    def test_cyclic_group_growth_is_free_abelian(self):
        # the trivial conjugation solution on Z_n has structure group Z^n
        for n in (3, 6):
            group = _cyclic_group(n)
            result = as_full_conjugation_gf(group, 4)
            expected = expand_rational(RationalGF((ONE + T) ** n, ONE_MINUS_T**n), 4)
            assert result.truncated.coeffs == expected.coeffs
            assert full_conjugation_spheres(group, 4) == result.truncated.integer_coefficients()

    def test_frobenius_21_matches_element_products(self):
        # the only fixture whose self-check walks two directions with nonzero defects
        group = _frobenius_21()
        data = group.class_algebra()
        assert data.sizes == (1, 3, 3, 7, 7)
        assert sum(data.inverse_class[i] != i for i in range(data.count)) == 4
        oracle = _element_level_defect_coefficients(group, 4)
        assert oracle == [6, 16, 6, 0, 0]
        result = defect_series(group, 4)
        assert result.classification == "truncated-only"
        assert result.truncated.integer_coefficients() == oracle

    def test_frobenius_21_growth(self):
        group = _frobenius_21()
        result = as_full_conjugation_gf(group, 4)
        coeffs = result.truncated.integer_coefficients()
        assert coeffs[:4] == [1, 42, 306, 1162]
        assert (result.class_count, result.commutator_size) == (5, 7)
        assert full_conjugation_spheres(group, 4) == coeffs


class TestPackedSelfCheck:
    @pytest.mark.parametrize(
        "make, order",
        [(lambda: make_dihedral_group(6), 300), (lambda: SymmetricClasses(5), 20),
         (_frobenius_21, 12)],
        ids=["D6", "S5", "F21"],
    )
    def test_matches_list_form(self, make, order):
        # the field width must hold every coefficient: a carry would show here
        data = make().class_algebra()
        packed = _defect_truncated_signed(data, order, DEFAULT_DEFECT_BUDGET)
        assert packed == _list_truncated_signed(data, order)


class TestFullConjugation:
    def test_commutator_length_one_check(self):
        # Ore (1951): every element of A_d = [S_d, S_d] is a single commutator
        for d in range(1, 9):
            assert is_commutator_length_one(make_symmetric_group(d))
        for d in (3, 5, 7, 9):
            assert is_commutator_length_one(make_dihedral_group(d))

    def test_commutator_length_one_from_partitions(self):
        # Ore's theorem again, on the class algebras built from partitions,
        # through the largest S_d the group command accepts
        for d in range(1, MAX_PERMUTATIONS_D + 1):
            group = SymmetricClasses(d)
            assert is_commutator_length_one(group)
            assert group.class_algebra().commutator_size == max(1, math.factorial(d) // 2)

    def test_s9_from_partitions(self):
        # past the element route's cap: 30 classes, |A_9| = 181440
        result = as_full_conjugation_gf(SymmetricClasses(9), 4)
        assert result.truncated.integer_coefficients() == [
            1, 725760, 277819739, 6457496700, 98143588402
        ]
        assert result.defect.classification == "finite"
        assert (result.class_count, result.commutator_size) == (30, 181440)

    def test_s10_memory(self):
        # per-entry denominators keep the recursion's memo entries short
        tracemalloc.start()
        try:
            as_full_conjugation_gf(SymmetricClasses(10), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 9, 10])
    def test_symmetric_defect_support(self, d):
        # Delta_{S_d} is a polynomial of degree d - 2, except for S_4's rays
        result = defect_series(SymmetricClasses(d), 2)
        if d == 4:
            assert result.classification == "finite-plus-axis-rays"
        else:
            assert result.classification == "finite"
            assert result.polynomial_part.degree == d - 2

    def test_s3_closed_form(self):
        result = as_full_conjugation_gf(make_symmetric_group(3), 5)
        assert result.closed_form == 3 * GEOM**3 - 2 * RationalGF((ONE + T) ** 3)

    def test_d5_closed_form(self):
        result = as_full_conjugation_gf(make_dihedral_group(5), 5)
        assert result.closed_form == 5 * GEOM**4 - 4 * RationalGF((ONE + T) ** 5)

    def test_d7_closed_form(self):
        result = as_full_conjugation_gf(make_dihedral_group(7), 5)
        expected = (
            7 * GEOM**5
            - 6 * RationalGF((ONE + T) ** 7)
            + RationalGF(Polynomial([6]).shift(3) * (ONE + T) ** 3)
        )
        assert result.closed_form == expected

    def test_s5_published_numerator(self):
        published = Polynomial(
            [1, 233, 3086, -1200, 2050, 7150, -4760, -980, 3505, -1455, -46, 92, 4]
        )
        result = as_full_conjugation_gf(make_symmetric_group(5), 3)
        assert result.closed_form == RationalGF(published, ONE_MINUS_T**7)

    def test_s6_published_numerator(self):
        published = Polynomial(
            [1, 1429, 51480, -41778, 214699, 339579, -368178, 530288, 339031,
             -728893, 467324, 93174, -294051, 172997, -42306, 1836, 640, 8]
        )
        result = as_full_conjugation_gf(make_symmetric_group(6), 3)
        assert result.defect.classification == "finite"
        assert result.closed_form == RationalGF(published, ONE_MINUS_T**11)

    def test_s7_published_numerator(self):
        published = Polynomial(
            [1, 10065, 775906, -1720204, 11546372, -3556516, 11652920, 47903548,
             -38168278, 44917674, 35195992, -65892060, 55843840, -7980432,
             -22726364, 23927860, -12219475, 3616477, -604186, 59768, -9052,
             1500, 4]
        )
        result = as_full_conjugation_gf(make_symmetric_group(7), 3)
        assert result.closed_form == RationalGF(published, ONE_MINUS_T**15)

    def test_expansion_matches_oracle(self):
        for make, d in ((make_symmetric_group, 3), (make_symmetric_group, 4)):
            group = make(d)
            result = as_full_conjugation_gf(group, 5)
            assert full_conjugation_spheres(group, 5) == result.truncated.integer_coefficients()

    @pytest.mark.parametrize(
        "d, radius, expected",
        [
            (6, 5, [1, 1440, 67265, 619102, 3562516, 16100632]),
            (7, 4, [1, 10080, 927001, 11126866, 85699292]),
        ],
    )
    def test_oracle_past_the_element_search(self, d, radius, expected):
        # the class-quotient oracle against the partition route, at radii
        # where the element search would hold 10^7 to 10^8 codes per level
        result = as_full_conjugation_gf(SymmetricClasses(d), radius)
        assert result.truncated.integer_coefficients() == expected
        assert full_conjugation_spheres(make_symmetric_group(d), radius) == expected

    def test_even_dihedral_matches_oracle(self):
        # the engine only requires commutator length 1; the sphere oracle
        # confirms the resulting series for even d as well
        for d in (4, 6):
            group = make_dihedral_group(d)
            result = as_full_conjugation_gf(group, 5)
            assert full_conjugation_spheres(group, 5) == result.truncated.integer_coefficients()

    def test_trivial_group(self):
        # the conjugation solution on the one-element group has structure
        # group Z: series (1+t)/(1-t)
        result = as_full_conjugation_gf(make_symmetric_group(1), 5)
        assert result.closed_form == GEOM
        assert result.truncated.integer_coefficients() == [1, 2, 2, 2, 2, 2]
