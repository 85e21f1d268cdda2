import ast
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybe_growth
from test_algebra import _commutator_length_two_group, _cyclic_group
from ybe_growth import algebra, cli, oracle
from ybe_growth.algebra import MAX_SOLUTION_SIZE, make_dihedral_group, make_symmetric_group
from ybe_growth.cli import main
from ybe_growth.group_growth import as_full_conjugation_gf, nonzero_defects
from ybe_growth.oracle import BudgetExceededError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse(*args, **kwargs):
    raise ValueError("the element route was taken")


def assert_budget_usage_error(result, source):
    code, out, err = result
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and source in err


class TestGroupCommand:
    def test_transpositions_with_verify(self, capsys):
        code, out, _ = run_cli(
            ["group", "--solution", "transpositions", "--d", "3", "--order", "5",
             "--verify", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["expansion"]["coefficients"] == [1, 6, 8, 6, 6, 6]
        assert report["oracle"]["passed"] is True

    def test_reflections_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["group", "--solution", "reflections", "--d", "5", "--order", "4",
             "--closed-form", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["expansion"]["coefficients"] == [1, 10, 14, 10, 10]
        assert "closed_form" in report

    def test_permutations_defect_tail(self, capsys):
        code, out, _ = run_cli(
            ["group", "--solution", "permutations", "--d", "4", "--order", "4",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["defect"]["classification"] == "finite-plus-axis-rays"

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(
            ["group", "--solution", "transpositions", "--d", "1", "--order", "3"], capsys
        )
        assert code == 2 and "d >= 2" in err

    def test_budget_exceeded_exit_code(self, capsys):
        code, _, err = run_cli(
            ["group", "--solution", "permutations", "--d", "4", "--order", "6",
             "--verify", "--budget-states", "10"],
            capsys,
        )
        assert code == 3

    def test_budget_bounds_the_defect_engine(self, capsys):
        # without --verify the budget still bounds the defect recursion
        for family, d in (("dihedral", "30"), ("permutations", "6")):
            code, out, err = run_cli(
                ["group", "--solution", family, "--d", d, "--order", "6", "--budget-states", "10"],
                capsys,
            )
            assert code == 3 and out == ""
            assert err == "budget exceeded: defect enumeration exceeded state budget\n"

    @pytest.mark.parametrize("message", ["Unable to allocate 388. GiB for an array", ""])
    def test_memory_error_exit_code(self, capsys, monkeypatch, message):
        # an oracle allocation numpy cannot satisfy
        def _exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(oracle, "full_conjugation_spheres", _exhausted)
        code, out, err = run_cli(
            ["group", "--solution", "permutations", "--d", "4", "--order", "2", "--verify"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err == f"out of memory: {message or 'allocation failed'}\n"

    def test_negative_budget_is_usage_error(self, capsys, monkeypatch):
        args = ["group", "--solution", "transpositions", "--d", "3", "--order", "3", "--verify"]
        assert_budget_usage_error(run_cli(args + ["--budget-states", "-1"], capsys),
                                  "--budget-states")
        monkeypatch.setenv("YBE_GROWTH_BUDGET", "-1")
        assert_budget_usage_error(run_cli(args, capsys), "YBE_GROWTH_BUDGET")

    def test_permutations_d8(self, capsys):
        from math import factorial

        from ybe_growth.algebra import make_symmetric_group
        from ybe_growth.group_growth import DEFAULT_DEFECT_BUDGET, _defect_truncated_signed
        from ybe_growth.series import ONE, Polynomial, T

        code, out, _ = run_cli(
            ["group", "--solution", "permutations", "--d", "8", "--order", "3",
             "--closed-form", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["defect"]["classification"] == "finite"
        # S_8 has p(8) = 22 conjugacy classes
        assert Polynomial.from_json(report["closed_form"]["den"]) == (ONE - T) ** 22
        # every element of S_8 is a generator, taken with its inverse
        assert report["expansion"]["coefficients"][1] == 2 * factorial(8)
        # the reported defect series is the closed form's expansion; it must
        # equal the direct signed enumeration the engine checks it against
        signed = _defect_truncated_signed(
            make_symmetric_group(8).class_algebra(), 3, DEFAULT_DEFECT_BUDGET
        )
        assert report["defect"]["series"] == signed.to_json()

    def test_permutations_d9_is_usage_error(self, capsys):
        # group reaches S_12 from partitions; defect-table lists every element
        for command, d, cap in ((["group", "--order", "3"], "13", 12), (["defect-table"], "9", 8)):
            code, out, err = run_cli(
                command + ["--solution", "permutations", "--d", d], capsys
            )
            assert code == 2 and out == ""
            assert err == f"error: permutations supported for 1 <= d <= {cap}\n"

    @pytest.mark.parametrize("family", ["transpositions", "permutations"])
    def test_verify_past_element_cap_is_usage_error(self, capsys, monkeypatch, family):
        # refused before any work: the ball oracle needs the elements of S_9
        monkeypatch.setattr(cli, "expand_rational", _refuse)
        monkeypatch.setattr(cli, "as_full_conjugation_gf", _refuse)
        code, out, err = run_cli(
            ["group", "--solution", family, "--d", "9", "--order", "3", "--verify"], capsys
        )
        assert code == 2 and out == ""
        assert err == f"error: --verify on {family} supported for d <= 8\n"

    def test_verify_s7_to_order_4_in_bounded_memory(self):
        # the sphere oracle on class states: the element search was killed
        # for memory here; the child reports its own peak RSS
        script = (
            "import resource, sys\n"
            "from ybe_growth.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        argv = ["group", "--solution", "permutations", "--d", "7", "--order", "4", "--verify",
                "--format", "json"]
        src = str(Path(ybe_growth.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["oracle"] == {
            "passed": True, "spheres": [1, 10080, 927001, 11126866, 85699292]
        }
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        peak_mb = int(proc.stderr) / (2**20 if sys.platform == "darwin" else 2**10)
        assert peak_mb < 400

    def test_permutations_build_no_elements(self, capsys, monkeypatch):
        # the class algebra of S_d comes from partitions, and defect-table
        # labels the members without a group: only --verify builds it
        monkeypatch.setattr(cli, "make_symmetric_group", _refuse)
        monkeypatch.setattr(algebra, "make_symmetric_group", _refuse)
        code, out, _ = run_cli(
            ["group", "--solution", "permutations", "--d", "6", "--order", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        coeffs = json.loads(out)["expansion"]["coefficients"]
        result = as_full_conjugation_gf(algebra.SymmetricClasses(6), 4)
        assert result.truncated.integer_coefficients() == coeffs
        assert result.defect.classification == "finite"
        code, _, _ = run_cli(["defect-table", "--solution", "permutations", "--d", "6"], capsys)
        assert code == 0
        code, _, err = run_cli(
            ["group", "--solution", "permutations", "--d", "6", "--order", "4", "--verify"], capsys
        )
        assert code == 2 and err == "error: the element route was taken\n"

    def test_deterministic_json(self, capsys):
        args = ["group", "--solution", "dihedral", "--d", "5", "--order", "4",
                "--closed-form", "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestMonoidCommand:
    def test_reflections_verify(self, capsys):
        code, out, _ = run_cli(
            ["monoid", "--solution", "reflections", "--d", "5", "--order", "4",
             "--verify", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["expansion"]["coefficients"] == [1, 5, 9, 10, 10]
        assert report["oracle"]["passed"] is True

    def test_transpositions(self, capsys):
        code, out, _ = run_cli(
            ["monoid", "--solution", "transpositions", "--d", "4", "--order", "5",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["expansion"]["coefficients"] == [1, 6, 17, 30, 38, 42]

    @pytest.mark.parametrize("family, d", [("transpositions", 4), ("reflections", 5)])
    def test_closed_form_builds_no_quandle(self, capsys, monkeypatch, family, d):
        # only --verify reads the quandle's table
        monkeypatch.setattr(cli, "reflection_solution", _refuse)
        monkeypatch.setattr(cli, "transposition_solution", _refuse)
        code, out, _ = run_cli(["monoid", "--solution", family, "--d", str(d), "--order", "4"], capsys)
        assert code == 0 and "coefficients (orders 0..4)" in out

    def test_closed_form_past_the_table_limit(self, capsys):
        argv = ["monoid", "--solution", "reflections", "--d", "600", "--order", "4", "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["expansion"]["coefficients"] == [1, 600, 6500, 14400, 19800]
        assert run_cli(argv + ["--verify"], capsys) == (
            2, "", f"error: solution of size 600 exceeds the validation limit {MAX_SOLUTION_SIZE}\n"
        )

    def test_custom_json(self, tmp_path, capsys):
        from ybe_growth.algebra import reflection_solution

        path = tmp_path / "sol.json"
        path.write_text(json.dumps(reflection_solution(3).to_json()))
        code, out, _ = run_cli(
            ["monoid", "--solution", "custom-json", "--input", str(path),
             "--order", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["oracle"]["counts"] == [1, 3, 5, 6, 6]
        assert "no closed form" in report["note"]


    def test_budget_zero_is_incomplete_not_pass(self, capsys):
        args = ["monoid", "--solution", "reflections", "--d", "5", "--order", "4",
                "--verify", "--budget-states", "0"]
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 3
        oracle = json.loads(out)["oracle"]
        assert oracle["counts"] == [] and oracle["checked_through"] == -1
        assert oracle["passed"] is None and oracle["truncated"] is True
        code, out, _ = run_cli(args, capsys)
        assert code == 3
        assert "INCOMPLETE" in out and "PASS" not in out

    def test_budget_five_checks_a_prefix_only(self, capsys):
        # T_3 has 3 letters: lengths 0 and 1 use 4 of the 5 words, length 2 needs 9
        code, out, _ = run_cli(
            ["monoid", "--solution", "transpositions", "--d", "3", "--order", "6",
             "--verify", "--budget-states", "5", "--format", "json"],
            capsys,
        )
        assert code == 3
        oracle = json.loads(out)["oracle"]
        assert oracle["counts"] == [1, 3] and oracle["checked_through"] == 1
        assert oracle["passed"] is None

    def test_negative_budget_is_usage_error(self, capsys, monkeypatch):
        args = ["monoid", "--solution", "reflections", "--d", "5", "--order", "4", "--verify"]
        assert_budget_usage_error(run_cli(args + ["--budget-states", "-1"], capsys),
                                  "--budget-states")
        monkeypatch.setenv("YBE_GROWTH_BUDGET", "-5")
        assert_budget_usage_error(run_cli(args, capsys), "YBE_GROWTH_BUDGET")

    def test_complete_verify_reports_checked_through(self, capsys):
        code, out, _ = run_cli(
            ["monoid", "--solution", "transpositions", "--d", "3", "--order", "4",
             "--verify", "--format", "json"],
            capsys,
        )
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["checked_through"] == 4 and oracle["passed"] is True


def _custom_json(path, capsys):
    return run_cli(
        ["monoid", "--solution", "custom-json", "--input", str(path), "--order", "2"], capsys
    )


def _assert_input_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestMalformedCustomJson:
    def test_missing_file(self, tmp_path, capsys):
        _assert_input_error(*_custom_json(tmp_path / "absent.json", capsys))

    def test_directory_as_input(self, tmp_path, capsys):
        _assert_input_error(*_custom_json(tmp_path, capsys))

    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "sol.json"
        path.write_text('{"op": [[0, 1], [1')
        _assert_input_error(*_custom_json(path, capsys))

    def test_missing_op(self, tmp_path, capsys):
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"size": 2, "labels": ["a", "b"]}))
        _assert_input_error(*_custom_json(path, capsys))

    def test_json_string_document(self, tmp_path, capsys):
        # a valid table serialised twice is a JSON string, not an object
        path = tmp_path / "sol.json"
        path.write_text(json.dumps(json.dumps({"op": [[0]]})))
        _assert_input_error(*_custom_json(path, capsys))

    @pytest.mark.parametrize("size", [5, "x", 2.0, True, None])
    def test_size_disagrees_with_table(self, tmp_path, capsys, size):
        # a valid 2-element table whose "size" is not the integer 2
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"size": size, "op": [[0, 1], [0, 1]]}))
        code, out, err = _custom_json(path, capsys)
        _assert_input_error(code, out, err)
        assert '"size"' in err

    def test_null_entries(self, tmp_path, capsys):
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"op": [[0, None], [1, 1]]}))
        _assert_input_error(*_custom_json(path, capsys))

    def test_table_over_size_cap(self, tmp_path, capsys):
        n = MAX_SOLUTION_SIZE + 1
        path = tmp_path / "sol.json"
        path.write_text(json.dumps({"op": [list(range(n))] * n}))
        code, out, err = _custom_json(path, capsys)
        _assert_input_error(code, out, err)
        assert "validation limit" in err

    @staticmethod
    def _malformed():
        """Every malformed table for n <= 3: each non-square shape with row
        lengths up to n + 1, each cell holding each non-integer value type or
        each out-of-range value, and each document without an "op" key."""
        bad_values = [None, False, True, 1.0, "0", [0], {"a": 0}]
        for n in range(1, 4):
            for lengths in itertools.product(range(n + 2), repeat=n):
                if any(length != n for length in lengths):
                    yield {"op": [[j % n for j in range(length)] for length in lengths]}
            for cell in range(n * n):
                for value in bad_values + [-1, n, -(10**12), 10**12]:
                    op = [list(range(n)) for _ in range(n)]
                    op[cell // n][cell % n] = value
                    yield {"op": op}
        keys = ["size", "labels", "ops", "table"]
        for k in range(len(keys) + 1):
            for chosen in itertools.combinations(keys, k):
                yield {key: 1 for key in chosen}
        yield from ([], [[0]], 0, "op", None)

    def test_fuzzed_tables_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sol.json"
        for table in self._malformed():
            path.write_text(json.dumps(table))
            _assert_input_error(*_custom_json(path, capsys))


class TestDefectTable:
    def test_s3_text(self, capsys):
        code, out, _ = run_cli(
            ["defect-table", "--solution", "permutations", "--d", "3"], capsys
        )
        assert code == 0
        assert "defect series [finite]: [2, 2" in out

    def test_d5_nonzero_defects(self, capsys):
        code, out, _ = run_cli(
            ["defect-table", "--solution", "dihedral", "--d", "5", "--order", "4",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        defects = {tuple(row["kbar"]): row["defect"] for row in report["nonzero_defects"]}
        assert defects[(0, 0, 0)] == 4
        # one element from each rotation-pair class (reflections are class 3 here)
        assert defects[(1, 1, 0)] == 1

    def test_bad_budget_is_usage_error(self, capsys, monkeypatch):
        args = ["defect-table", "--solution", "permutations", "--d", "3"]
        assert_budget_usage_error(run_cli(args + ["--budget-states", "-3"], capsys),
                                  "--budget-states")
        for value in ("-3", "many", "1.5"):
            monkeypatch.setenv("YBE_GROWTH_BUDGET", value)
            assert_budget_usage_error(run_cli(args, capsys), "YBE_GROWTH_BUDGET")

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            ["defect-table", "--solution", "permutations", "--d", "3",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "kbar,product_size,defect"

    @pytest.mark.parametrize(
        "command",
        [
            ["group", "--solution", "permutations", "--d", "9"],
            ["monoid", "--solution", "reflections", "--d", "3"],
            ["egf"],
            ["normal-form", "--word", "1,2", "--d", "3"],
            ["invariants", "--word", "1,2", "--d", "3"],
            ["verify"],
        ],
        ids=lambda command: command[0],
    )
    def test_csv_refused_outside_defect_table(self, capsys, command):
        # refused before any work: S_9 at the default order 8 would otherwise
        # run the defect engine on its 30 classes
        code, out, err = run_cli(command + ["--format", "csv"], capsys)
        assert code == 2 and out == ""
        assert err == "error: --format csv is supported by defect-table only\n"

    def test_listing_budget(self, capsys):
        # D30 at order 6 lists 25,177 rows, one budgeted state each
        args = ["defect-table", "--solution", "dihedral", "--d", "30", "--format", "json"]
        for budget in (10000, 25176):
            code, out, err = run_cli(args + ["--budget-states", str(budget)], capsys)
            assert code == 3 and out == ""
            assert err == f"budget exceeded: defect listing exceeded {budget} rows\n"
        code, out, _ = run_cli(args + ["--budget-states", "25177"], capsys)
        assert code == 0 and len(json.loads(out)["nonzero_defects"]) == 25177

    def test_listing_runs_before_the_series(self, capsys, monkeypatch):
        # a budget too short for the listing fails before the defect series
        def series(*args):
            raise AssertionError("the defect series ran before the listing")

        monkeypatch.setattr(cli, "defect_series", series)
        code, out, err = run_cli(
            ["defect-table", "--solution", "dihedral", "--d", "30", "--budget-states", "100"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err == "budget exceeded: defect listing exceeded 100 rows\n"

    def test_s7_walk_size(self):
        # one walk node per row: 141 rows, where the unpruned walk makes 116,280
        group = make_symmetric_group(7)
        with pytest.raises(BudgetExceededError):
            nonzero_defects(group, 6, 140)
        assert len(nonzero_defects(group, 6, 141)) == 141


def _reference_walk(algebra, order):
    """Reference listing: every kbar with |kbar| <= order, unpruned, each
    visited once as its support grows class by class, and each product ORed
    from the class product table with no memo."""
    rows, kbar = [], [0] * (algebra.count - 1)

    def rec(start, used, mask):
        size = sum(algebra.sizes[j] for j in _set_bits(mask))
        if size != algebra.commutator_size:
            rows.append({"kbar": list(kbar), "product_size": size,
                         "defect": algebra.commutator_size - size})
        for i in range(start, algebra.count):
            power = mask
            for k in range(1, order - used + 1):
                power = _fresh_product(algebra, power, i)
                kbar[i - 1] = k
                rec(i + 1, used + k, power)
            kbar[i - 1] = 0

    rec(1, 0, 1)
    rows.sort(key=lambda row: (sum(row["kbar"]), row["kbar"]))
    return rows


def _rows(group, order):
    """The listing as the rows of the `defect-table` report."""
    return [
        {"kbar": list(r.exponents), "product_size": r.product_size, "defect": r.defect}
        for r in nonzero_defects(group, order)
    ]


def _set_bits(mask):
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _fresh_product(algebra, mask, cls):
    out = 0
    for j in _set_bits(mask):
        out |= algebra.table[j][cls]
    return out


# (id, group maker, the listing orders checked against the reference)
WALK_GROUPS = (
    [(f"S{d}", lambda d=d: make_symmetric_group(d), range(7)) for d in range(1, 8)]
    + [(f"D{d}", lambda d=d: make_dihedral_group(d), range(7)) for d in range(1, 31)]
    + [(f"Z{n}", lambda n=n: _cyclic_group(n), range(7)) for n in (5, 6)]
    + [("F2^4.F2^6", _commutator_length_two_group, (2,))]
)


@pytest.fixture(scope="module", params=WALK_GROUPS, ids=[name for name, _, _ in WALK_GROUPS])
def walked(request):
    """A fresh group's class algebra and its listing at every checked order."""
    _, make, orders = request.param
    group = make()
    listings = {order: _rows(group, order) for order in orders}
    return group.class_algebra(), listings


class TestDefectWalk:
    def test_matches_unpruned_reference(self, walked):
        algebra, listings = walked
        reference = _reference_walk(algebra, max(listings))
        for order, listing in listings.items():
            assert listing == [row for row in reference if sum(row["kbar"]) <= order]

    def test_memo_matches_fresh_products(self, walked):
        algebra, _ = walked
        assert algebra._products
        for (mask, cls), product in algebra._products.items():
            assert product == _fresh_product(algebra, mask, cls)
        for mask, size in algebra._sizes.items():
            assert size == sum(algebra.sizes[j] for j in _set_bits(mask))

    def test_saturated_masks_stay_saturated(self, walked):
        # a whole coset of [G,G] times a class is a whole coset
        algebra, _ = walked
        full = algebra.commutator_size
        reached = set(algebra._products.values()) | {mask for mask, _ in algebra._products}
        for mask in reached:
            if algebra.mask_size(mask) == full:
                for cls in range(algebra.count):
                    assert algebra.mask_size(_fresh_product(algebra, mask, cls)) == full

    @pytest.mark.parametrize(
        "make",
        [lambda: make_symmetric_group(3), lambda: make_symmetric_group(4),
         lambda: make_dihedral_group(4), lambda: make_dihedral_group(5),
         lambda: _cyclic_group(6)],
        ids=["S3", "S4", "D4", "D5", "Z6"],
    )
    def test_masks_match_element_products(self, make):
        group = make()
        algebra = group.class_algebra()
        classes = [set(c) for c in algebra.dec.classes]

        def met(elements):
            return sum(1 << cls for cls in {algebra.dec.class_of[x] for x in elements})

        rows = _rows(group, 4)
        for (mask, cls), product in algebra._products.items():
            members = algebra.members(mask)
            assert product == met(group.mul(x, y) for x in members for y in classes[cls])
        expected = {}
        for kbar in itertools.product(range(5), repeat=algebra.count - 1):
            if sum(kbar) > 4:
                continue
            elements = {0}
            for cls, k in enumerate(kbar, 1):
                for _ in range(k):
                    elements = {group.mul(x, y) for x in elements for y in classes[cls]}
            if len(elements) != algebra.commutator_size:
                expected[kbar] = len(elements)
        assert {tuple(row["kbar"]): row["product_size"] for row in rows} == expected


class TestOtherCommands:
    def test_egf(self, capsys):
        code, out, _ = run_cli(
            ["egf", "--order", "6", "--order-x", "3", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["cross_check_passed"] is True
        assert report["columns"][3]["coefficients"] == [1, 3, 5, 6, 6, 6, 6]

    def test_egf_columns_past_the_cross_check_are_unchecked(self, capsys):
        code, out, _ = run_cli(["egf", "--order", "4", "--order-x", "14", "--format", "json"], capsys)
        assert code == 0
        verdicts = [c["matches_direct_formula"] for c in json.loads(out)["columns"]]
        assert verdicts == [True] * 13 + [None, None]
        code, out, _ = run_cli(["egf", "--order", "4", "--order-x", "13"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == (
            "cross-check against per-d formulas (d <= 12; d = 13 unchecked): PASS"
        )

    def test_normal_form(self, capsys):
        code, out, _ = run_cli(
            ["normal-form", "--word", "1,-1,1", "--infinite", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["normal_form"] == {"shape": "length3", "word": "5,5,3"}

    def test_invariants(self, capsys):
        code, out, _ = run_cli(
            ["invariants", "--word", "0,1,3", "--d", "5", "--format", "json"], capsys
        )
        assert code == 0
        inv = json.loads(out)["invariants"]
        assert inv == {
            "modulus": 5,
            "weight": 2,
            "density": 1,
            "anchor": 0,
            "essential_even_length": 3,
            "essential_odd_length": 0,
            "length": 3,
        }

    def test_negative_first_letter_needs_the_equals_form(self, capsys):
        code, out, _ = run_cli(["invariants", "--word=-6,-2,-2", "--infinite", "--format", "json"], capsys)
        assert code == 0
        inv = json.loads(out)["invariants"]
        assert (inv["weight"], inv["density"], inv["anchor"]) == (-6, 4, 2)
        # with a space, argparse reads the letters as an option
        with pytest.raises(SystemExit) as exit_info:
            main(["invariants", "--word", "-6,-2,-2", "--infinite"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "error: argument --word: expected one argument\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["monoid", "--solution", "dihedral", "--d", "3"], "error: argument --solution: invalid choice"),
            (["verify", "--threads", "0"], "error: --threads must be at least 1"),
        ],
    )
    def test_usage_errors_are_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(message)

    def test_word_requires_modulus_or_infinite(self, capsys):
        code, _, err = run_cli(["invariants", "--word", "1,2"], capsys)
        assert code == 2

    def test_modulus_and_infinite_exclude_each_other(self, capsys):
        for command in ("invariants", "normal-form"):
            result = run_cli([command, "--word", "1,2", "--d", "5", "--infinite"], capsys)
            assert result == (2, "", "error: --d and --infinite exclude each other\n")

    def test_zero_modulus_is_usage_error(self, capsys):
        for command in ("invariants", "normal-form"):
            for d in ("0", "-3"):
                result = run_cli([command, "--word", "0,1", "--d", d], capsys)
                assert result == (2, "", "error: modulus must be at least 1\n")

    def test_verify_report_does_not_depend_on_seed(self, capsys):
        reports = []
        for seed in ("1", "2"):
            code, out, _ = run_cli(
                ["verify", "--criteria", "10,12", "--format", "json", "--seed", seed], capsys
            )
            assert code == 0
            reports.append(json.loads(out))
        assert [r["config"].pop("seed") for r in reports] == [1, 2]
        assert reports[0] == reports[1]
        moves, lemmas = (c["details"] for c in reports[0]["criteria"])
        assert moves["move_box"] == {"letters": [-3, 3], "lengths": [1, 4]}
        assert moves["move_cases"] == 19600
        assert lemmas["triple_cases"] == 136120 and lemmas["lift_cases"] == 128394

    def test_verify_subset(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--criteria", "3,12", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert [c["id"] for c in report["criteria"]] == ["3", "12"]

    def test_verify_unknown_criterion(self, capsys):
        code, _, err = run_cli(["verify", "--criteria", "99"], capsys)
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ybe_growth.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ybe_growth.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_closed_pipe_exits_quietly(self):
        # the reader stops after 20 of the listing's ~340 kB, as `| head -c 20` does
        src = str(Path(ybe_growth.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ybe_growth.cli", "defect-table", "--solution", "dihedral",
             "--d", "18", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(20) == b'{\n  "class_product_t'
        proc.stdout.close()
        code = proc.wait(timeout=120)
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert code == 141
        assert "Traceback" not in err and "Error" not in err, err
        # started with stdout closed, there is no stream to flush: exit 0, as print does
        closed = subprocess.run(
            ["sh", "-c", 'exec "$0" -m ybe_growth.cli group --solution permutations --d 4 --order 3 >&-',
             sys.executable],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (closed.returncode, closed.stderr) == (0, "")

    def test_closed_pipe_on_csv_exits_141(self):
        # the ~240 kB listing outgrows the pipe, which takes a single large
        # write only in part: the closed pipe must still show, as exit 141
        src = str(Path(ybe_growth.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ybe_growth.cli", "defect-table", "--solution", "dihedral",
             "--d", "24", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(20) == b"kbar,product_size,de"
        proc.stdout.close()
        code = proc.wait(timeout=120)
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert (code, err) == (141, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [["group", "--solution", "permutations", "--d", "4", "--order", "3"], ["verify", "--criteria", "3"]],
    )
    def test_full_disk_is_one_line_exit_2(self, argv):
        src = str(Path(ybe_growth.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ybe_growth.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        assert (proc.returncode, proc.stderr) == (2, "error: cannot write output: No space left on device\n")

    def test_package_sources_are_ascii(self):
        sources = sorted(Path(ybe_growth.__file__).parent.glob("*.py"))
        assert len(sources) > 1
        for path in sources:
            for number, line in enumerate(path.read_bytes().splitlines(), 1):
                assert line.isascii(), f"{path.name}:{number} is not ASCII"

    def test_package_api(self, capsys, monkeypatch):
        for name in ybe_growth.__all__:
            getattr(ybe_growth, name)
        namespace = {}
        exec("from ybe_growth import *", namespace)
        assert set(ybe_growth.__all__) <= set(namespace)
        with pytest.raises(AttributeError):
            ybe_growth.no_such_name
        # the oracle's names, exported lazily, are the oracle's own objects
        assert ybe_growth.group_ball_enumerate is oracle.group_ball_enumerate
        assert ybe_growth.BudgetExceededError is oracle.BudgetExceededError

        def _over_budget(*args, **kwargs):
            raise oracle.BudgetExceededError("over")

        monkeypatch.setattr(oracle, "full_conjugation_spheres", _over_budget)
        code, out, err = run_cli(
            ["group", "--solution", "permutations", "--d", "3", "--order", "2", "--verify"], capsys
        )
        assert (code, out, err) == (3, "", "budget exceeded: over\n")

    def test_closed_forms_load_no_numpy(self):
        # one fresh interpreter: importing the CLI and running every closed-form
        # command leaves numpy unloaded; an oracle run then loads it
        argvs = [
            ["group", "--solution", family, "--d", "5", "--order", "4"]
            for family in ("permutations", "transpositions", "reflections")
        ] + [
            ["monoid", "--solution", family, "--d", "5", "--order", "5"]
            for family in ("transpositions", "reflections")
        ] + [
            [command, "--word", "1,2,3,5", *modulus]
            for command in ("normal-form", "invariants")
            for modulus in (["--d", "6"], ["--infinite"])
        ] + [
            ["egf", "--order", "8", "--order-x", "4"],
            ["defect-table", "--solution", "permutations", "--d", "5"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from ybe_growth.cli import main\n"
            "def run(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        return main(argv)\n"
            "imported = 'numpy' in sys.modules\n"
            "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
            "closed = 'numpy' in sys.modules\n"
            "verified = run(['group', '--solution', 'reflections', '--d', '3', '--order', '3', '--verify'])\n"
            "print(json.dumps([imported, codes, closed, verified, 'numpy' in sys.modules]))\n"
        )
        src = str(Path(ybe_growth.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        imported, codes, closed, verified, loaded = json.loads(proc.stdout)
        assert codes == [0] * len(argvs)
        assert not imported and not closed
        assert verified == 0 and loaded

    def test_package_imports_no_random(self):
        for path in sorted(Path(ybe_growth.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                assert all(m.split(".")[0] != "random" for m in modules), (
                    f"{path.name}:{node.lineno} imports random"
                )
