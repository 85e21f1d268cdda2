import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybe_growth.algebra import (
    MAX_SOLUTION_SIZE,
    FiniteGroupTable,
    Permutation,
    QuandleSolution,
    SetPartition,
    class_product_table,
    conjugation_solution,
    dihedral_reflections,
    enumerate_set_partitions,
    generic_length_series,
    integer_partition_multiplicity,
    integer_partitions,
    make_dihedral_group,
    make_symmetric_group,
    reflection_solution,
    symmetric_transpositions,
    transposition_solution,
)


class TestPermutation:
    def test_composition_applies_right_first(self):
        p = Permutation.transposition(3, 0, 1) * Permutation.transposition(3, 1, 2)
        assert p.cycles() == [(0, 1, 2)]

    def test_transposition_length(self):
        assert Permutation.identity(4).transposition_length() == 0
        assert Permutation((1, 2, 3, 0)).transposition_length() == 3

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        assert (p * p.inverse()).images == (0, 1, 2)


class TestGroups:
    def test_s3_classes(self):
        dec = make_symmetric_group(3).conjugacy_classes()
        assert dec.sizes == (1, 2, 3)  # identity, 3-cycles, transpositions

    def test_s4_classes(self):
        dec = make_symmetric_group(4).conjugacy_classes()
        assert sorted(dec.sizes) == [1, 3, 6, 6, 8]
        assert dec.sizes[0] == 1

    def test_trivial_group(self):
        group = make_symmetric_group(1)
        assert group.size == 1
        assert group.conjugacy_classes().count == 1

    def test_d5_classes(self):
        dec = make_dihedral_group(5).conjugacy_classes()
        assert sorted(dec.sizes) == [1, 2, 2, 5]

    def test_d7_class_count(self):
        assert make_dihedral_group(7).conjugacy_classes().count == (7 + 3) // 2

    def test_size_guards(self):
        with pytest.raises(ValueError):
            make_symmetric_group(9)
        with pytest.raises(ValueError):
            make_dihedral_group(1001)

    def test_commutators(self):
        assert len(make_symmetric_group(3).commutator_subgroup()) == 3
        assert len(make_symmetric_group(4).commutator_subgroup()) == 12
        for d in (2, 3, 4, 5):
            assert len(make_symmetric_group(d).commutator_subgroup()) == max(
                1, __import__("math").factorial(d) // 2
            )
        # abelian: D_1 = Z_2
        assert make_dihedral_group(1).commutator_subgroup() == (0,)

    def test_cycle_type_classes_match_conjugation_orbits(self):
        for d in (3, 4, 5, 6):
            group = make_symmetric_group(d)
            table = np.array([group.row(a) for a in group.elements()])
            plain = FiniteGroupTable(group.size, table=table)  # no cycle types
            assert plain.conjugacy_classes() == group.conjugacy_classes()

    def test_lazy_group_matches_dense_products(self):
        s7 = make_symmetric_group(7)
        perms = s7.permutations
        for a, b in [(1, 2), (100, 200), (3000, 44)]:
            assert perms[s7.mul(a, b)] == perms[a] * perms[b]

    def test_broadcast_products_match_permutation_products(self):
        rng = np.random.default_rng(3)
        for group in (make_symmetric_group(4), make_symmetric_group(7)):
            perms = group.permutations
            a = rng.integers(group.size, size=(5, 1))
            b = rng.integers(group.size, size=4)
            out = group.products(a, b)
            assert out.shape == (5, 4)
            for i in range(5):
                for j in range(4):
                    assert perms[out[i, j]] == perms[a[i, 0]] * perms[b[j]]

    def test_json_round_trip(self):
        group = make_dihedral_group(4)
        again = FiniteGroupTable.from_json(group.to_json())
        assert again.size == 8
        assert again.mul(1, 2) == group.mul(1, 2)

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroupTable(2, table=[[0, 1], [1, 1]])


class TestClassProducts:
    def test_s3_transposition_square(self):
        group = make_symmetric_group(3)
        dec = group.conjugacy_classes()
        table = class_product_table(group, dec)
        trans = dec.class_of[symmetric_transpositions(group)[0]]
        cycles = next(
            i for i in range(dec.count) if i not in (0, trans)
        )
        # transposition * transposition covers identity and 3-cycles
        assert table[trans][trans] == (1 << 0) | (1 << cycles)

    def test_identity_row(self):
        group = make_symmetric_group(4)
        dec = group.conjugacy_classes()
        table = class_product_table(group, dec)
        for j in range(dec.count):
            assert table[0][j] == 1 << j

    def test_s4_transposition_times_four_cycle(self):
        group = make_symmetric_group(4)
        dec = group.conjugacy_classes()
        table = class_product_table(group, dec)
        by_type = {group.permutations[c[0]].cycle_type(): i for i, c in enumerate(dec.classes)}
        trans, four = by_type[(2, 1, 1)], by_type[(4,)]
        expected = (1 << by_type[(2, 2)]) | (1 << by_type[(3, 1)])
        assert table[trans][four] == expected


def _cyclic_group(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroupTable(n, table=table, name=f"Z{n}")


def _element_commutators(group):
    """Reference: all n^2 commutators a b a^-1 b^-1 from the full table, and
    their closure under multiplication, element by element."""
    table = np.array([group.row(a) for a in group.elements()])
    inv = np.array([group.inv(a) for a in group.elements()])
    singles = set(table[table, inv[table.T]].ravel().tolist())
    gens = sorted(singles)
    closure, frontier = {0}, [0]
    while frontier:
        for y in table[frontier.pop(), gens].tolist():
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return singles, tuple(sorted(closure))


def _element_class_product_table(group, dec):
    """Reference: the classes meeting rep * C_j, one element product at a
    time (permutation products for symmetric groups)."""
    perms = getattr(group, "permutations", None)
    if perms is not None:
        index = {p: i for i, p in enumerate(perms)}
        mul = lambda a, b: index[perms[a] * perms[b]]
    else:
        mul = group.mul
    table = [[0] * dec.count for _ in range(dec.count)]
    for i in range(dec.count):
        rep = dec.classes[i][0]
        for j in range(dec.count):
            for y in dec.classes[j]:
                table[i][j] |= 1 << dec.class_of[mul(rep, y)]
    return table


class TestClassLevelAgainstElements:
    GROUPS = (
        [make_symmetric_group(d) for d in range(1, 7)]
        + [make_dihedral_group(d) for d in range(1, 13)]
        + [_cyclic_group(n) for n in (5, 6)]
    )

    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
    def test_commutators(self, group):
        singles, closure = _element_commutators(group)
        assert group.commutator_set() == singles
        assert group.commutator_subgroup() == closure

    @pytest.mark.parametrize(
        "group",
        [make_symmetric_group(d) for d in range(3, 8)]
        + [make_dihedral_group(d) for d in range(5, 13)]
        # classes of S_d and D_d are self-inverse; Z_n also checks the others
        + [_cyclic_group(n) for n in (5, 6)],
        ids=lambda g: g.name,
    )
    def test_class_product_table(self, group):
        dec = group.conjugacy_classes()
        assert class_product_table(group, dec) == _element_class_product_table(group, dec)


class TestSolutions:
    def test_transposition_solution_matches_conjugation(self):
        group = make_symmetric_group(3)
        conj = conjugation_solution(group, symmetric_transpositions(group))
        direct = transposition_solution(3)
        # relabel via pair labels: conjugation labels are cycle strings
        pair_of_label = {"(1 2)": (0, 1), "(1 3)": (0, 2), "(2 3)": (1, 2)}
        relabel = [direct.labels.index(pair_of_label[lab]) for lab in conj.labels]
        for x in range(3):
            for y in range(3):
                assert relabel[conj.apply(x, y)] == direct.apply(relabel[x], relabel[y])

    def test_d5_reflections_isomorphic_to_reflection_solution(self):
        group = make_dihedral_group(5)
        conj = conjugation_solution(group, dihedral_reflections(group))
        direct = reflection_solution(5)
        # reflection s_i corresponds to residue i
        for x in range(5):
            for y in range(5):
                assert conj.apply(x, y) == direct.apply(x, y)

    def test_full_group_solution(self):
        sol = conjugation_solution(make_symmetric_group(4), range(24))
        assert sol.size == 24

    def test_reflection_solution_values(self):
        sol = reflection_solution(5)
        assert sol.apply(1, 4) == 3
        assert reflection_solution(3).op[0] == (0, 2, 1)
        # d=2 is the trivial solution
        assert reflection_solution(2).op == ((0, 1), (0, 1))

    def test_not_closed_subset_rejected(self):
        group = make_symmetric_group(3)
        trans = symmetric_transpositions(group)
        with pytest.raises(ValueError, match="not closed"):
            conjugation_solution(group, trans[:2])

    def test_validation_rejects_non_quandle(self):
        with pytest.raises(ValueError):
            QuandleSolution([[0, 0], [1, 1]])  # not bijective rows
        with pytest.raises(ValueError, match="idempotence"):
            QuandleSolution([[1, 0], [1, 0]])

    def test_swapped_row_entries_rejected_beyond_64(self):
        # the row stays a bijection and the diagonal is untouched, so only
        # self-distributivity fails, on about 10n of the n^3 triples
        n = 101
        op = [list(row) for row in reflection_solution(n).op]
        op[1][2], op[1][3] = op[1][3], op[1][2]
        first = next(
            (x, y, z)
            for x, y, z in itertools.product(range(n), repeat=3)
            if op[x][op[y][z]] != op[op[x][y]][op[x][z]]
        )
        with pytest.raises(ValueError, match=r"self-distributivity fails at \(%d,%d,%d\)" % first):
            QuandleSolution(op)

    def test_size_cap(self):
        assert reflection_solution(MAX_SOLUTION_SIZE).size == MAX_SOLUTION_SIZE
        n = MAX_SOLUTION_SIZE + 1
        with pytest.raises(ValueError, match="exceeds the validation limit"):
            QuandleSolution([list(range(n))] * n)

    def test_quandle_axioms_exhaustive(self):
        for sol in (reflection_solution(7), transposition_solution(4)):
            n = sol.size
            for x in range(n):
                assert sorted(sol.op[x]) == list(range(n))
                assert sol.apply(x, x) == x
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        assert sol.apply(x, sol.apply(y, z)) == sol.apply(
                            sol.apply(x, y), sol.apply(x, z)
                        )

    def test_json_round_trip(self):
        sol = reflection_solution(6)
        again = QuandleSolution.from_json(sol.to_json())
        assert again.op == sol.op


class TestLengthSeries:
    def test_s3_over_transpositions(self):
        group = make_symmetric_group(3)
        series, covered = generic_length_series(group, symmetric_transpositions(group), 4)
        assert covered and series.integer_coefficients() == [1, 3, 2, 0, 0]

    def test_d5_over_reflections(self):
        group = make_dihedral_group(5)
        series, covered = generic_length_series(group, dihedral_reflections(group), 3)
        assert covered and series.integer_coefficients() == [1, 5, 4, 0]

    def test_z2(self):
        group = make_symmetric_group(2)
        series, covered = generic_length_series(group, [1], 2)
        assert covered and series.integer_coefficients() == [1, 1, 0]

    def test_partial_coverage_flag(self):
        group = make_dihedral_group(6)
        series, covered = generic_length_series(group, [6], 3)  # one reflection only
        assert not covered
        assert sum(series.integer_coefficients()) < group.size

    def test_sum_is_group_order(self):
        for d in (3, 4, 5):
            group = make_symmetric_group(d)
            series, covered = generic_length_series(group, symmetric_transpositions(group), d)
            assert covered
            assert sum(series.integer_coefficients()) == group.size


small_partitions = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )
)


def partition_from_labels(n, labels):
    blocks = {}
    for x, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(x)
    return SetPartition.from_blocks(blocks.values(), n)


class TestPartitions:
    def test_join_example(self):
        p = SetPartition.from_blocks([[0, 1], [2]], 3)
        q = SetPartition.from_blocks([[0], [1, 2]], 3)
        assert p.join(q).blocks == ((0, 1, 2),)

    @given(small_partitions, small_partitions, small_partitions)
    @settings(max_examples=80, deadline=None)
    def test_join_laws(self, a, b, c):
        n = a[0]
        p = partition_from_labels(n, a[1])
        q = partition_from_labels(n, b[1][: n] if len(b[1]) >= n else (b[1] * n)[:n])
        r = partition_from_labels(n, c[1][: n] if len(c[1]) >= n else (c[1] * n)[:n])
        assert p.join(q) == q.join(p)
        assert p.join(p) == p
        assert p.join(q).join(r) == p.join(q.join(r))

    def test_enumeration_counts(self):
        # Bell numbers
        assert sum(1 for _ in enumerate_set_partitions(4)) == 15
        assert sum(1 for _ in enumerate_set_partitions(5)) == 52

    def test_multiplicities(self):
        assert integer_partition_multiplicity((2, 2), 4) == 3
        assert integer_partition_multiplicity((2, 1), 3) == 3
        counted = {}
        for p in enumerate_set_partitions(5):
            counted[p.block_sizes()] = counted.get(p.block_sizes(), 0) + 1
        for lam, count in counted.items():
            assert integer_partition_multiplicity(lam, 5) == count

    def test_integer_partitions(self):
        assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
