import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ybe_growth.algebra import (
    MAX_SOLUTION_SIZE,
    _symmetric_characters,
    FiniteGroupTable,
    Permutation,
    QuandleSolution,
    SetPartition,
    SymmetricClasses,
    class_product_table,
    conjugation_solution,
    cycle_label,
    dihedral_reflections,
    enumerate_set_partitions,
    generic_length_series,
    integer_partition_multiplicity,
    integer_partitions,
    make_dihedral_group,
    make_symmetric_group,
    reflection_solution,
    symmetric_cycle_types,
    symmetric_transpositions,
    transposition_solution,
)
from ybe_growth.group_growth import as_full_conjugation_gf, is_commutator_length_one


def _cyclic_group(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroupTable(n, table=table, name=f"Z{n}")


def _symmetric_reference(d):
    """S_d as Permutation objects in the documented element order of
    make_symmetric_group: that of itertools.permutations(range(d))."""
    return [Permutation(p) for p in itertools.permutations(range(d))]


def _element_orbits(group):
    """Reference: the orbits {h x h^-1 : h in G}, one mul/inv at a time."""
    seen, orbits = set(), []
    for x in group.elements():
        if x not in seen:
            orbit = {group.mul(group.mul(h, x), group.inv(h)) for h in group.elements()}
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def _assert_classes(group, partition):
    """The decomposition holds exactly the blocks of partition, the identity
    class first and the rest ordered by (size, smallest element), with
    class_of and inverse_class consistent with the classes."""
    dec = group.conjugacy_classes()
    assert sorted(dec.classes) == sorted(partition)
    assert dec.classes[0] == (0,)
    assert list(dec.classes[1:]) == sorted(dec.classes[1:], key=lambda c: (len(c), c[0]))
    for i, members in enumerate(dec.classes):
        assert all(dec.class_of[x] == i for x in members)
        assert dec.inverse_class[i] == dec.class_of[group.inv(members[0])]


def _commutator_length_two_group():
    """Pairs (v, w), v in F_2^4 and w in F_2^6 indexed by the pairs i < j, at
    index v + 16 w, with (v,w)(v',w') = (v+v', w+w'+beta(v,v')) and
    beta(v,v')_ij = v_i v'_j.  The commutators are the bivectors v ^ v': the
    35 nonzero decomposable ones of 63, and zero, while [G,G] holds all 64."""
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    beta = sum((bits[:, None, i] & bits[None, :, j]) << p for p, (i, j) in enumerate(pairs))
    v, w = np.arange(1024) % 16, np.arange(1024) // 16
    table = (v[:, None] ^ v) + 16 * (w[:, None] ^ w ^ beta[v[:, None], v])
    return FiniteGroupTable(1024, table=table, name="F2^4.F2^6")


def _swapped_cyclic_table(n):
    """Z_n (n even, at least 8) with the intercalate of 3 and 3 + n/2 in rows
    1, 1 + n/2 and columns 2, 2 + n/2 swapped: a Latin square with identity 0
    and two-sided inverses that is not associative."""
    h = n // 2
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    for x, y in ((1, 2), (1 + h, 2 + h), (1, 2 + h), (1 + h, 2)):
        table[x, y] = 3 + h if table[x, y] == 3 else 3
    return table


def _is_group_by_brute_force(table):
    """Reference: identity 0, two-sided inverses and all n^3 triples."""
    n = len(table)
    if any(table[0][x] != x or table[x][0] != x for x in range(n)):
        return False
    if any(not any(table[x][y] == 0 == table[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x, y, z in itertools.product(range(n), repeat=3)
    )


class TestPermutation:
    def test_composition_applies_right_first(self):
        p = Permutation.transposition(3, 0, 1) * Permutation.transposition(3, 1, 2)
        assert p.cycles() == [(0, 1, 2)]

    def test_transposition_length(self):
        assert Permutation.identity(4).transposition_length() == 0
        assert Permutation((1, 2, 3, 0)).transposition_length() == 3

    def test_fixed_points_counted_but_not_listed(self):
        p = Permutation((5, 1, 0, 4, 3, 2, 6))  # (0 5 2)(3 4), fixing 1 and 6
        assert p.cycles() == [(0, 5, 2), (3, 4)]
        assert p.cycle_count() == 4
        assert p.cycle_type() == (3, 2, 1, 1)
        assert Permutation.identity(3).cycle_type() == (1, 1, 1)

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        assert (p * p.inverse()).images == (0, 1, 2)

    def test_cycle_label(self):
        # cycles in order of their smallest point, each written from it, 1-based
        assert cycle_label(()) == cycle_label((0, 1, 2)) == "e"
        assert cycle_label((1, 0, 3, 4, 2)) == "(1 2)(3 4 5)"
        assert cycle_label((2, 0, 1)) == "(1 3 2)"
        assert cycle_label((5, 1, 0, 4, 3, 2, 6)) == "(1 6 3)(4 5)"
        assert cycle_label(tuple(range(9, -1, -1))) == "(1 10)(2 9)(3 8)(4 7)(5 6)"


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

    def test_symmetric_classes_are_cycle_types(self):
        for d in range(1, 9):
            by_type = {}
            for x, p in enumerate(_symmetric_reference(d)):
                by_type.setdefault(p.cycle_type(), []).append(x)
            _assert_classes(make_symmetric_group(d), [tuple(c) for c in by_type.values()])

    @pytest.mark.parametrize(
        "group",
        [make_dihedral_group(d) for d in range(1, 31)] + [_cyclic_group(n) for n in (5, 6)],
        ids=lambda g: g.name,
    )
    def test_table_group_classes_are_element_orbits(self, group):
        _assert_classes(group, _element_orbits(group))

    def test_symmetric_labels(self):
        # cycle notation rebuilt from Permutation.cycles, 1-based, "e" for the identity
        for d in range(1, 9):
            group, perms = make_symmetric_group(d), _symmetric_reference(d)
            labels = [
                "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in p.cycles()) or "e"
                for p in perms
            ]
            assert [group.label(a) for a in group.elements()] == labels
            assert [p.label() for p in perms] == labels

    def test_symmetric_transpositions(self):
        for d in range(1, 9):
            perms = _symmetric_reference(d)
            expected = tuple(i for i, p in enumerate(perms) if p.transposition_length() == 1)
            assert symmetric_transpositions(make_symmetric_group(d)) == expected
            assert len(expected) == d * (d - 1) // 2

    def test_table_and_images_are_exclusive(self):
        images = np.array(list(itertools.permutations(range(3))))
        table = make_symmetric_group(3).to_json()["mult"]
        with pytest.raises(ValueError, match="exactly one"):
            FiniteGroupTable(6, table=table, images=images)
        with pytest.raises(ValueError, match="exactly one"):
            FiniteGroupTable(6)

    @pytest.mark.parametrize("d", [4, 6, 7])
    def test_lazy_group_matches_dense_products(self, d):
        group, perms = make_symmetric_group(d), _symmetric_reference(d)
        for a, b in [(1, 2), (100, 200), (3000, 44)]:
            a, b = a % group.size, b % group.size
            assert perms[group.mul(a, b)] == perms[a] * perms[b]
            assert perms[group.row(a)[b]] == perms[a] * perms[b]
            assert perms[group.conjugate(a, b)] == perms[a] * perms[b] * perms[a].inverse()

    def test_broadcast_products_match_permutation_products(self):
        rng = np.random.default_rng(3)
        for d in (4, 7):
            group, perms = make_symmetric_group(d), _symmetric_reference(d)
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
        assert [again.inv(a) for a in again.elements()] == [group.inv(a) for a in group.elements()]

    def test_symmetric_json_round_trip_keeps_labels(self):
        data = make_symmetric_group(4).to_json()
        assert data["labels"] == [p.label() for p in _symmetric_reference(4)]
        assert FiniteGroupTable.from_json(data).to_json() == data

    def test_symmetric_json_table_is_the_permutation_product_table(self):
        perms = _symmetric_reference(5)
        index = {p: i for i, p in enumerate(perms)}
        assert make_symmetric_group(5).to_json()["mult"] == [[index[p * q] for q in perms] for p in perms]

    def test_symmetric_group_builds_no_table(self):
        # S_6 keeps its 720 image rows only; a 720 x 720 int64 table is 4.1 MB
        make_symmetric_group(3)
        tracemalloc.start()
        try:
            make_symmetric_group(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize(
        "size, message",
        [(2.7, '"size" must be an integer'), ("x", '"size" must be an integer'),
         (True, '"size" must be an integer'), (3, '"size" is 3 but "mult" has 2 rows')],
    )
    def test_from_json_rejects_a_bad_size(self, size, message):
        data = {"size": size, "mult": [[0, 1], [1, 0]]}
        with pytest.raises(ValueError, match=message):
            FiniteGroupTable.from_json(data)
        del data["size"]
        assert FiniteGroupTable.from_json(data).size == 2

    def test_from_json_needs_a_table(self):
        for data in ([[0]], {"size": 1}, {"mult": "x"}):
            with pytest.raises(ValueError, match='"mult" table'):
                FiniteGroupTable.from_json(data)

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroupTable(2, table=[[0, 1], [1, 1]])

    def test_families_construct(self):
        for d in range(1, 9):
            assert make_symmetric_group(d).size == math.factorial(d)
        for d in range(1, 31):
            assert make_dihedral_group(d).size == 2 * d
        for n in (1, 2, 5, 6, 100):
            assert _cyclic_group(n).size == n

    def test_swapped_intercalate_rejected_beyond_24(self):
        table = _swapped_cyclic_table(100)
        ident = np.arange(100)
        assert (np.sort(table, axis=0) == ident[:, None]).all()
        assert (np.sort(table, axis=1) == ident).all()
        with pytest.raises(ValueError, match=r"associativity fails at \(1,1,1\)"):
            FiniteGroupTable(100, table=table)

    def test_associativity_failure_past_the_first_generator(self):
        # Z_2 x L with element (i, l) at index i + 2 l: the generator 1 =
        # (1, e) lies in the nucleus, so only the next generator, 2 = (0, 1),
        # sees that L is not associative
        def z2_times(loop):
            i, l = np.arange(2 * len(loop)) % 2, np.arange(2 * len(loop)) // 2
            return (i[:, None] + i) % 2 + 2 * loop[l[:, None], l]

        cyclic = np.add.outer(np.arange(8), np.arange(8)) % 8
        assert FiniteGroupTable(16, table=z2_times(cyclic)).size == 16
        with pytest.raises(ValueError, match=r"associativity fails at \(\d+,2,\d+\)"):
            FiniteGroupTable(16, table=z2_times(_swapped_cyclic_table(8)))

    def test_identity_must_be_element_0(self):
        table = np.add.outer(np.arange(3), np.arange(3) + 2) % 3  # identity is 1
        with pytest.raises(ValueError, match="not a two-sided identity"):
            FiniteGroupTable(3, table=table)

    @pytest.mark.parametrize(
        "group",
        # Z4 and D2 swaps give groups again; the others give non-groups
        [_cyclic_group(n) for n in (4, 6, 8)] + [make_dihedral_group(d) for d in (2, 3, 4)],
        ids=lambda g: g.name,
    )
    def test_intercalate_swaps_agree_with_brute_force(self, group):
        """Every Latin square one intercalate swap away from the group's
        table is accepted exactly when it is a group by an n^3 check."""
        n = group.size
        base = np.array([group.row(a) for a in group.elements()])
        cells = itertools.product(range(1, n), repeat=4)
        swaps = [
            (x, y, u, v)
            for x, y, u, v in cells
            if x < u and y < v and base[x, y] == base[u, v] and base[x, v] == base[u, y]
        ]
        assert swaps
        for x, y, u, v in swaps:
            table = base.copy()
            table[x, y], table[x, v] = table[x, v], table[x, y]
            table[u, v], table[u, y] = table[u, y], table[u, v]
            expected = _is_group_by_brute_force(table.tolist())
            try:
                FiniteGroupTable(n, table=table)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, (x, y, u, v)

    def test_missing_inverses_rejected(self):
        # Z5 with 4 * 1 = 4: 1 * 4 = 0 but 4 * 1 is not 0, and row 4 holds no 0
        table = np.add.outer(np.arange(5), np.arange(5)) % 5
        table[4, 1] = 4
        with pytest.raises(ValueError, match="element 1 has no two-sided inverse"):
            FiniteGroupTable(5, table=table)

    def test_bad_image_rows_rejected(self):
        s7 = make_symmetric_group(7)
        images = np.array(list(itertools.permutations(range(7))))
        group = FiniteGroupTable(s7.size, images=images)
        assert [group.inv(a) for a in group.elements()] == [s7.inv(a) for a in s7.elements()]
        repeated = images.copy()
        repeated[5] = repeated[6]
        with pytest.raises(ValueError, match="not the elements of S_7"):
            FiniteGroupTable(s7.size, images=repeated)
        # the reversal with its 0 made -1: the row's inverse by argsort is the
        # reversal, which is no longer stored and outranks every stored row
        reversal = images.tolist().index(list(range(6, -1, -1)))
        negative = images.copy()
        negative[reversal, 6] = -1
        with pytest.raises(ValueError, match="not the elements of S_7"):
            FiniteGroupTable(s7.size, images=negative)
        with pytest.raises(ValueError, match="not a two-sided identity"):
            FiniteGroupTable(s7.size, images=np.roll(images, 1, axis=0))
        # S_6 inside S_7: permutations of 7 points, but not all of them
        fixing = np.array([p + (6,) for p in itertools.permutations(range(6))])
        with pytest.raises(ValueError, match="not the elements of S_7"):
            FiniteGroupTable(len(fixing), images=fixing)


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
        perms = _symmetric_reference(4)
        by_type = {perms[c[0]].cycle_type(): i for i, c in enumerate(dec.classes)}
        trans, four = by_type[(2, 1, 1)], by_type[(4,)]
        expected = (1 << by_type[(2, 2)]) | (1 << by_type[(3, 1)])
        assert table[trans][four] == expected


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
    if group.images is not None:
        perms = _symmetric_reference(group.images.shape[1])
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


class TestSymmetricClassesFromPartitions:
    """The class algebra of S_d from partitions and characters against the
    one read off the elements."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_equals_element_route(self, d):
        group, perms = make_symmetric_group(d), _symmetric_reference(d)
        by_elements = group.class_algebra()
        classes = SymmetricClasses(d)
        by_partitions = classes.class_algebra()
        dec = by_elements.dec
        assert classes.cycle_types == [perms[c[0]].cycle_type() for c in dec.classes]
        for attr in ("sizes", "table", "inverse_class", "single_commutator_mask",
                     "commutator_mask", "commutator_size"):
            assert getattr(by_partitions, attr) == getattr(by_elements, attr), attr
        assert classes.class_labels() == [[perms[x].label() for x in c] for c in dec.classes]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_class_labels_group_cycle_labels_by_type(self, d):
        classes = SymmetricClasses(d)
        by_type = {lam: [] for lam in classes.cycle_types}
        for images in itertools.permutations(range(d)):
            by_type[Permutation(images).cycle_type()].append(cycle_label(images))
        assert classes.class_labels() == [by_type[lam] for lam in classes.cycle_types]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_character_orthogonality(self, d):
        # columns: sum_chi chi(i) chi(j) = z_lambda if i == j, else 0;
        # rows: sum_k |C_k| chi(k)^2 = d!, with |C_k| = d!/z_lambda
        types = symmetric_cycle_types(d)
        chars = _symmetric_characters(types)
        sizes = SymmetricClasses(d).class_algebra().sizes
        for i, lam in enumerate(types):
            z = math.prod(p ** lam.count(p) * math.factorial(lam.count(p)) for p in set(lam))
            assert sizes[i] * z == math.factorial(d)
            for j in range(len(types)):
                assert sum(map(int.__mul__, chars[i], chars[j])) == (z if i == j else 0)
        for m in range(len(types)):
            assert sum(size * row[m] ** 2 for size, row in zip(sizes, chars)) == math.factorial(d)


class TestCommutatorLengthTwo:
    """A group whose [G,G] holds elements that are not single commutators,
    so the class algebra's [G,G] closure loop does real work."""

    group = _commutator_length_two_group()

    def test_classes(self):
        assert self.group.conjugacy_classes().count == 184

    def test_commutators_against_elements(self):
        singles, closure = _element_commutators(self.group)
        assert self.group.commutator_set() == singles and len(singles) == 36
        assert self.group.commutator_subgroup() == closure and len(closure) == 64
        assert not is_commutator_length_one(self.group)

    def test_defect_formula_refused(self):
        with pytest.raises(ValueError, match="not a single commutator"):
            as_full_conjugation_gf(self.group, 2)


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

    def test_first_unclosed_pair_is_named(self):
        group = make_symmetric_group(4)
        subset = [1, 2, 5, 9]
        x, y, z = next(
            (x, y, group.conjugate(x, y))
            for x in subset
            for y in subset
            if group.conjugate(x, y) not in subset
        )
        with pytest.raises(ValueError, match=rf"^subset not closed under conjugation: {x} > {y} = {z}$"):
            conjugation_solution(group, reversed(subset))

    def test_oversized_subset_is_refused_before_multiplying(self, monkeypatch):
        group = make_symmetric_group(7)

        def refuse(*args):
            raise AssertionError("multiplied")

        monkeypatch.setattr(group, "products", refuse)
        monkeypatch.setattr(group, "mul", refuse)
        with pytest.raises(ValueError, match=f"of size {MAX_SOLUTION_SIZE + 1} exceeds the validation limit"):
            conjugation_solution(group, range(MAX_SOLUTION_SIZE + 1))

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

    def test_join_laws(self):
        # every triple of set partitions of {0..n-1} for n <= 4 (3,509 triples),
        # each partition built from a labelling rather than by the enumeration
        for n in range(1, 5):
            parts = {
                partition_from_labels(n, labels)
                for labels in itertools.product(range(n), repeat=n)
            }
            for p, q, r in itertools.product(parts, repeat=3):
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
