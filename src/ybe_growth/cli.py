"""Command-line front end: parses arguments and formats library results.

Subcommands: group, monoid, defect-table, egf, normal-form, invariants,
verify.  Output is deterministic: two runs with the same configuration
produce byte-identical JSON (timings are therefore printed only in text
mode).  Exit codes: 0 ok, 1 verification failure, 2 usage error or malformed
input or a failed write to stdout (such as a full disk), 3 budget exceeded
(including a verification the budget cut short) or memory exhausted, 141 the
reader closed the output pipe (128 + SIGPIPE).

Only the commands that build arrays import numpy: `group` and `defect-table`
on dihedral groups, every `--verify`, `monoid --solution custom-json` and
`verify`.  The closed forms (`group` on permutations, transpositions and
reflections, `monoid` on transpositions and reflections, `egf`,
`normal-form`, `invariants` and `defect-table --solution permutations`) run
without it, so this module imports the oracle and the verification matrix
only inside the commands that use them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .algebra import (
    DEFAULT_STATE_BUDGET,
    DEFAULT_WORD_BUDGET,
    MAX_ELEMENTS_D,
    BudgetExceededError,
    QuandleSolution,
    SymmetricClasses,
    make_dihedral_group,
    make_symmetric_group,
    mask_bits,
    dihedral_reflections,
    symmetric_transpositions,
    reflection_solution,
    transposition_solution,
)
from .group_growth import (
    DEFAULT_DEFECT_BUDGET,
    as_full_conjugation_gf,
    as_reflections_group_gf,
    as_transpositions_group_gf,
    defect_series,
    nonzero_defects,
)
from .reflection_monoid import (
    ReflectionWord,
    invariants,
    monoid_growth_reflections,
    normal_form,
)
from .series import expand_rational, verdict
from .transposition_monoid import (
    egf_column,
    egf_transposition_monoids,
    monoid_growth_transpositions,
)

# largest S_d of `group --solution permutations`, whose class algebra comes
# from partitions: S_12 (77 classes) takes about 6 s at order 4, most of it in
# the defect recursion
MAX_PERMUTATIONS_D = 12
GROUP_FAMILIES = ("transpositions", "permutations", "reflections", "dihedral")
MONOID_FAMILIES = ("transpositions", "reflections", "custom-json")
# the text word and exit code of each formula-vs-oracle verdict
OUTCOMES = {True: ("PASS", 0), False: ("FAIL", 1), None: ("INCOMPLETE", 3)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line `error: <message>`, exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _budget(args, default: int = DEFAULT_STATE_BUDGET) -> int:
    if args.budget_states is not None:
        source, budget = "--budget-states", args.budget_states
    else:
        env = os.environ.get("YBE_GROWTH_BUDGET")
        if not env:
            return default
        source = "YBE_GROWTH_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"{source} must be an integer, got {env!r}") from None
    if budget < 0:
        raise UsageError(f"{source} must be non-negative, got {budget}")
    return budget


def _base_report(args, command: str) -> dict:
    config = {
        "command": command,
        "threads": args.threads,
        "seed": args.seed,
    }
    for key in ("solution", "d", "order", "closed_form", "verify"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    return {"version": __version__, "config": config}


class OutputError(Exception):
    """Writing or flushing stdout failed; the OSError is the cause."""


def _json_text(value, pad: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, with
    every line after the first indented by `pad`.  Only ints, strs, dicts
    with str keys, and lists and tuples are written here, and a list of ints
    or of strs in one join; every other value, empty containers included,
    goes to `json.dumps` itself, so it is written, or refused with TypeError,
    as `json.dumps` would.  (`json.dumps` with an indent runs the
    pure-Python encoder, one call per scalar.)"""
    kind = type(value)  # a bool or an int subclass is no int here
    if kind is int:
        return str(value)
    if kind is str:
        return json.encoder.encode_basestring_ascii(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict and value and all(type(key) is str for key in value):
        encode = json.encoder.encode_basestring_ascii
        body = sep.join([f"{encode(key)}: {_json_text(value[key], inner)}" for key in sorted(value)])
        return f"{{\n{inner}{body}\n{pad}}}"
    if (kind is list or kind is tuple) and value:
        if all(type(x) is int for x in value):
            body = sep.join(map(str, value))
        elif all(type(x) is str for x in value):
            body = sep.join(map(json.encoder.encode_basestring_ascii, value))
        else:
            body = sep.join([_json_text(x, inner) for x in value])
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _emit(report: dict, args, csv_rows=None, text_lines=None) -> None:
    if args.format == "json":
        text = _json_text(report) + "\n"
    elif args.format == "csv":
        out = io.StringIO()
        csv.writer(out).writerows(csv_rows)
        text = out.getvalue()
    else:
        text = "".join(f"{line}\n" for line in text_lines)
    if sys.stdout is None:  # started with stdout closed: nothing to write to, as for print
        return
    try:
        # in pieces the stream buffers whole: one larger write that the file
        # takes only in part returns short, and the error that cut it is lost
        for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
            sys.stdout.write(text[i : i + io.DEFAULT_BUFFER_SIZE])
        sys.stdout.flush()  # a closed pipe or a full disk shows here, not at interpreter exit
    except OSError as exc:
        raise OutputError from exc


def cmd_group(args) -> int:
    family, d, order = args.solution, args.d, args.order
    report = _base_report(args, "group")
    text = [f"growth series of the structure group ({family}, d={d})"]
    if family == "permutations" and not 1 <= d <= MAX_PERMUTATIONS_D:
        raise UsageError(f"permutations supported for 1 <= d <= {MAX_PERMUTATIONS_D}")
    if args.verify and family in ("transpositions", "permutations") and d > MAX_ELEMENTS_D:
        raise UsageError(f"--verify on {family} supported for d <= {MAX_ELEMENTS_D}")
    # (closed form, group builder, generating subset) of the transposition
    # and reflection quandles
    forms = {
        "transpositions": (
            as_transpositions_group_gf, make_symmetric_group, symmetric_transpositions
        ),
        "reflections": (as_reflections_group_gf, make_dihedral_group, dihedral_reflections),
    }
    if family in forms:
        closed_form, build, generators = forms[family]
        if d < 2:
            raise UsageError(f"{family} need d >= 2")
        closed = closed_form(d)
        expansion = expand_rational(closed, order)
        if args.verify:
            from .oracle import conjugation_ball_series

            group = build(d)
            oracle = conjugation_ball_series(group, generators(group), order, _budget(args))
    else:
        if family == "permutations":
            group = SymmetricClasses(d)
        else:
            group = make_dihedral_group(d)
        result = as_full_conjugation_gf(group, order, _budget(args, DEFAULT_DEFECT_BUDGET))
        closed = result.closed_form
        expansion = result.truncated
        report["defect"] = {
            "classification": result.defect.classification,
            "series": result.defect.truncated.to_json(),
        }
        if result.defect.closed_form is not None:
            report["defect"]["closed_form"] = result.defect.closed_form.to_json()
        if result.defect.diagnostic:
            report["defect"]["diagnostic"] = result.defect.diagnostic
            text.append(f"warning: {result.defect.diagnostic}")
        if args.verify:
            from .oracle import full_conjugation_spheres

            if family == "permutations":
                group = make_symmetric_group(d)
            oracle = full_conjugation_spheres(group, order, _budget(args))
    coeffs = expansion.integer_coefficients()
    report["expansion"] = {"order": order, "coefficients": coeffs}
    text.append(f"coefficients (orders 0..{order}): {coeffs}")
    if closed is not None and args.closed_form:
        report["closed_form"] = closed.to_json()
        text.append(f"closed form: {closed!r}")
    exit_code = 0
    if args.verify:
        passed = verdict(oracle, coeffs)
        report["oracle"] = {"spheres": list(oracle), "passed": passed}
        outcome, exit_code = OUTCOMES[passed]
        text.append(f"oracle spheres: {list(oracle)} -> {outcome}")
    _emit(report, args, text_lines=text)
    return exit_code


def cmd_monoid(args) -> int:
    family, d, order = args.solution, args.d, args.order
    report = _base_report(args, "monoid")
    text = [f"growth series of the structure monoid ({family}, d={d})"]
    # (closed form, quandle builder) of the shipped families
    forms = {
        "transpositions": (monoid_growth_transpositions, transposition_solution),
        "reflections": (monoid_growth_reflections, reflection_solution),
    }
    if family in forms:
        closed_form, build = forms[family]
        closed = closed_form(d)
        coeffs = expand_rational(closed, order).integer_coefficients()
        if args.verify:  # only the oracle reads the quandle's table
            sol = build(d)
    else:
        if not args.input:
            raise UsageError("custom-json needs --input pointing at an operation table")
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read --input {args.input}: {exc.strerror}") from None
        except ValueError as exc:
            raise UsageError(f"--input {args.input} is not JSON: {exc}") from None
        if not isinstance(data, dict):  # from_json would decode a string again
            raise UsageError(f'--input {args.input} must hold a JSON object with an "op" table')
        sol = QuandleSolution.from_json(data)
        coeffs = None
        report["note"] = "no closed form for custom solutions; oracle counts only"
        text.append("no closed form for custom solutions; oracle counts only")
    exit_code = 0
    if coeffs is not None:
        report["expansion"] = {"order": order, "coefficients": coeffs}
        text.append(f"coefficients (orders 0..{order}): {coeffs}")
        if args.closed_form:
            report["closed_form"] = closed.to_json()
            text.append(f"closed form: {closed!r}")
    if args.verify or coeffs is None:
        from .oracle import monoid_orbit_enumerate

        enum = monoid_orbit_enumerate(sol, order, _budget(args, DEFAULT_WORD_BUDGET))
        counts = enum.counts
        report["oracle"] = {
            "counts": counts,
            "enumerated_to": enum.max_length,
            "truncated": enum.truncated,
        }
        text.append(f"oracle orbit counts: {counts}")
        if enum.truncated:
            text.append(f"oracle truncated at length {enum.max_length} (budget)")
        if coeffs is not None:
            # a comparison stopped by the budget passes nothing: it either
            # fails on the checked prefix or is incomplete (exit 3)
            checked = enum.max_length
            report["oracle"]["checked_through"] = checked
            report["oracle"]["passed"] = passed = verdict(counts, coeffs)
            outcome, exit_code = OUTCOMES[passed]
            text.append(f"oracle comparison: {outcome} (checked through length {checked} of {order})")
    _emit(report, args, text_lines=text)
    return exit_code


def cmd_defect_table(args) -> int:
    family, d, order = args.solution, args.d, args.order
    if family == "permutations":
        # the report lists every element
        if not 1 <= d <= MAX_ELEMENTS_D:
            raise UsageError(f"permutations supported for 1 <= d <= {MAX_ELEMENTS_D}")
        group = SymmetricClasses(d)
    elif family == "dihedral":
        group = make_dihedral_group(d)
    else:
        raise UsageError("defect-table supports permutations or dihedral")
    budget = _budget(args, DEFAULT_DEFECT_BUDGET)
    nonzero = nonzero_defects(group, order, budget)
    result = defect_series(group, order, budget)
    if args.format == "csv":
        rows = ([" ".join(map(str, r.exponents)), r.product_size, r.defect] for r in nonzero)
        _emit(None, args, csv_rows=[["kbar", "product_size", "defect"], *rows])
        return 0
    report = _base_report(args, "defect-table")
    classes = [
        {"index": i, "size": len(members), "members": members}
        for i, members in enumerate(group.class_labels())
    ]
    mult_table = [[list(mask_bits(cell)) for cell in row] for row in group.class_algebra().table]
    report["classes"] = classes
    report["class_product_table"] = mult_table
    report["defect_series"] = {
        "classification": result.classification,
        "series": result.truncated.to_json(),
    }
    if result.closed_form is not None:
        report["defect_series"]["closed_form"] = result.closed_form.to_json()
        if result.polynomial_part is not None:
            report["defect_series"]["polynomial_part"] = result.polynomial_part.to_json()
        if result.tail_numerator is not None:
            report["defect_series"]["geometric_tails_over_1_minus_t2"] = (
                result.tail_numerator.to_json()
            )
    if result.diagnostic:
        report["defect_series"]["diagnostic"] = result.diagnostic
    if args.format == "json":
        report["nonzero_defects"] = [
            {"kbar": r.exponents, "product_size": r.product_size, "defect": r.defect}
            for r in nonzero
        ]
        del nonzero  # the records need not outlive their rows while the report is serialised
        _emit(report, args)
        return 0
    text = [f"conjugacy classes of {group.name}:"]
    for c in classes:
        text.append(f"  C_{c['index']} (size {c['size']}): {' '.join(c['members'])}")
    text.append("class product table (indices of classes in C_i * C_j):")
    for i, row in enumerate(mult_table):
        text.append(f"  {i}: " + "  ".join(",".join(map(str, cell)) for cell in row))
    text.append(f"defect series [{result.classification}]: {result.truncated.integer_coefficients()}")
    text.append(f"nonzero defects up to |kbar| = {order}: {len(nonzero)} entries")
    _emit(report, args, text_lines=text)
    return 0


def cmd_egf(args) -> int:
    order_t, order_x = args.order, args.order_x
    egf = egf_transposition_monoids(order_t, order_x)
    report = _base_report(args, "egf")
    report["config"]["order_x"] = order_x
    rows = []
    all_ok = True
    for d in range(order_x + 1):
        series = egf_column(egf, d)
        coeffs = series.integer_coefficients()
        entry = {"d": d, "coefficients": coeffs, "matches_direct_formula": None}
        if d <= 12:
            direct = expand_rational(monoid_growth_transpositions(d), order_t)
            entry["matches_direct_formula"] = verdict(series.coeffs, direct.coeffs)
            all_ok &= entry["matches_direct_formula"] is True
        rows.append(entry)
    report["columns"] = rows
    report["cross_check_passed"] = all_ok
    text = [f"EGF columns d! [x^d] through t^{order_t}:"]
    for entry in rows:
        text.append(f"  d={entry['d']}: {entry['coefficients']}")
    scope = ""
    if order_x > 12:
        unchecked = "13" if order_x == 13 else f"13..{order_x}"
        scope = f" (d <= 12; d = {unchecked} unchecked)"
    text.append(f"cross-check against per-d formulas{scope}: {'PASS' if all_ok else 'FAIL'}")
    _emit(report, args, text_lines=text)
    return 0 if all_ok else 1


def _parse_word(args) -> ReflectionWord:
    if args.word is None:
        raise UsageError("need --word with comma-separated letters")
    text = str(args.word)
    letters = []
    for letter in text.split(",") if text.strip() else []:  # blank: the empty word
        if not letter.strip():
            raise UsageError(f"--word has an empty letter: {text!r}")
        try:
            letters.append(int(letter))
        except ValueError:
            raise UsageError(f"--word letters must be integers, got {letter!r}") from None
    if args.infinite:
        if args.d is not None:
            raise UsageError("--d and --infinite exclude each other")
        return ReflectionWord(tuple(letters), None)
    if args.d is None:
        raise UsageError("need --d (or --infinite) for reflection words")
    if args.d < 1:
        raise UsageError("modulus must be at least 1")
    return ReflectionWord(tuple(a % args.d for a in letters), args.d)


def cmd_normal_form(args) -> int:
    word = _parse_word(args)
    nf = normal_form(word)
    inv = invariants(word)
    report = _base_report(args, "normal-form")
    report["word"] = str(word)
    report["invariants"] = _invariants_json(inv)
    report["normal_form"] = {"shape": nf.shape, "word": str(nf.word)}
    text = [
        f"word: {word}",
        f"invariants: {_invariants_text(inv)}",
        f"normal form [{nf.shape}]: {nf.word}",
    ]
    _emit(report, args, text_lines=text)
    return 0


def cmd_invariants(args) -> int:
    word = _parse_word(args)
    inv = invariants(word)
    report = _base_report(args, "invariants")
    report["word"] = str(word)
    report["invariants"] = _invariants_json(inv)
    _emit(report, args, text_lines=[f"word: {word}", f"invariants: {_invariants_text(inv)}"])
    return 0


def _invariants_json(inv) -> dict:
    return {
        "modulus": inv.modulus,
        "weight": inv.weight,
        "density": inv.density,
        "anchor": inv.anchor,
        "essential_even_length": inv.essential_even,
        "essential_odd_length": inv.essential_odd,
        "length": inv.length,
    }


def _invariants_text(inv) -> str:
    return (
        f"weight={inv.weight} density={inv.density} anchor={inv.anchor} "
        f"essential lengths=({inv.essential_even},{inv.essential_odd}) length={inv.length}"
    )


def cmd_verify(args) -> int:
    from .verification import run_criteria

    ids = args.criteria.split(",") if args.criteria else None
    t0 = time.monotonic()
    results = run_criteria(ids)
    elapsed = time.monotonic() - t0
    report = _base_report(args, "verify")
    report["criteria"] = [r.to_json() for r in results]
    gating_failures = [r.cid for r in results if r.gating and not r.passed]
    report["passed"] = not gating_failures
    text = []
    for r in results:
        tag = "PASS" if r.passed else ("FAIL" if r.gating else "fail (non-gating)")
        text.append(f"[{tag}] criterion {r.cid}: {r.name}")
    text.append(f"overall: {'PASS' if not gating_failures else 'FAIL'} ({elapsed:.1f}s)")
    _emit(report, args, text_lines=text)
    return 0 if not gating_failures else 1


def build_parser() -> argparse.ArgumentParser:
    # subparsers take the same class, so each usage error is one line
    parser = _Parser(
        prog="ybe-growth",
        description=(
            "Growth series of structure groups and monoids of conjugation-quandle "
            "Yang-Baxter solutions, with brute-force verification."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument(
        "--budget-states",
        type=int,
        default=None,
        help=(
            "budget override, in each command's unit: for monoid, words of every "
            "length through the last one enumerated (default 10^7); for group "
            "--verify, ball states (10^8); for the defect engine behind group and "
            "defect-table, memo states (10^6); for the defect-table listing, rows (10^6)"
        ),
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="echoed into the report's config; no computation uses it",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="echoed into the report's config; no check uses it"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", parents=[common], help="structure-group growth series")
    p.add_argument("--solution", choices=GROUP_FAMILIES, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--verify", action="store_true", help="compare against the ball oracle")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("monoid", parents=[common], help="structure-monoid growth series")
    p.add_argument("--solution", choices=MONOID_FAMILIES, required=True)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--input", help="JSON operation table for custom-json")
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--verify", action="store_true", help="compare against the orbit oracle")
    p.set_defaults(fn=cmd_monoid)

    p = sub.add_parser("defect-table", parents=[common], help="conjugacy-class products and defects")
    p.add_argument("--solution", choices=("permutations", "dihedral"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--order", type=int, default=6, help="max |kbar| for the defect listing")
    p.set_defaults(fn=cmd_defect_table)

    p = sub.add_parser("egf", parents=[common], help="bivariate EGF of transposition monoids")
    p.add_argument("--order", type=int, default=8, help="truncation order in t")
    p.add_argument("--order-x", type=int, default=4, help="truncation order in x")
    p.set_defaults(fn=cmd_egf)

    word_help = "comma-separated letters; a negative first letter needs the = form, --word=-6,-2,-2"
    for name, fn, help_text in (
        ("normal-form", cmd_normal_form, "canonical form of a reflection word"),
        ("invariants", cmd_invariants, "invariants of a reflection word"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--word", required=True, help=word_help)
        p.add_argument("--d", type=int)
        p.add_argument("--infinite", action="store_true")
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance matrix")
    p.add_argument("--criteria", help="comma-separated criterion ids (default: all)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        if args.format == "csv" and args.fn is not cmd_defect_table:
            raise UsageError("--format csv is supported by defect-table only")
        return args.fn(args)
    except OutputError as exc:
        # send what is still buffered to devnull, as the signal module's docs
        # advise for a closed pipe, so the exit-time flush writes nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        error = exc.__cause__
        if isinstance(error, BrokenPipeError):  # the reader went away: exit as SIGPIPE would
            return 141
        print(f"error: cannot write output: {error.strerror or error}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
