import json
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ybe_growth
from ybe_growth.algebra import MAX_SOLUTION_SIZE
from ybe_growth.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        for command in (["group", "--order", "3"], ["defect-table"]):
            code, out, err = run_cli(
                command + ["--solution", "permutations", "--d", "9"], capsys
            )
            assert code == 2 and out == ""
            assert err == "error: permutations supported for 1 <= d <= 8\n"

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
        """Tables that are non-square, hold a non-integer or out-of-range
        entry, or lack the "op" key."""
        size = st.integers(1, 5)

        def trivial(n):
            return [list(range(n)) for _ in range(n)]

        def replace(n, cell, value):
            op = trivial(n)
            op[cell // n][cell % n] = value
            return {"op": op}

        non_square = size.flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=0, max_size=6), min_size=n, max_size=n
            )
            .filter(lambda rows: any(len(row) != n for row in rows))
            .map(lambda rows: {"op": rows})
        )
        bad_value = st.one_of(
            st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
            st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers()),
        )
        non_integer = size.flatmap(
            lambda n: st.tuples(st.integers(0, n * n - 1), bad_value).map(lambda cv: replace(n, *cv))
        )
        out_of_range = size.flatmap(
            lambda n: st.tuples(
                st.integers(0, n * n - 1),
                st.one_of(st.integers(-(10**12), -1), st.integers(n, 10**12)),
            ).map(lambda cv: replace(n, *cv))
        )
        missing_keys = st.one_of(
            st.dictionaries(st.sampled_from(["size", "labels", "ops", "table"]), st.integers(0, 3)),
            st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3),
            st.integers(),
            st.text(max_size=5),
            st.none(),
        )
        return st.one_of(non_square, non_integer, out_of_range, missing_keys)

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_tables_exit_2(self, data, tmp_path, capsys):
        table = data.draw(self._malformed())
        path = tmp_path / "sol.json"
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


class TestOtherCommands:
    def test_egf(self, capsys):
        code, out, _ = run_cli(
            ["egf", "--order", "6", "--order-x", "3", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["cross_check_passed"] is True
        assert report["columns"][3]["coefficients"] == [1, 3, 5, 6, 6, 6, 6]

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

    def test_word_requires_modulus_or_infinite(self, capsys):
        code, _, err = run_cli(["invariants", "--word", "1,2"], capsys)
        assert code == 2

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

    def test_package_sources_are_ascii(self):
        sources = sorted(Path(ybe_growth.__file__).parent.glob("*.py"))
        assert len(sources) > 1
        for path in sources:
            for number, line in enumerate(path.read_bytes().splitlines(), 1):
                assert line.isascii(), f"{path.name}:{number} is not ASCII"
