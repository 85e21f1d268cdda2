"""The benchmark's workloads: job lists, generated inputs and output checks.

Every job is a `ybe-growth` command run in-process through
`ybe_growth.cli.main(argv)` with stdout captured, except the window-closure
jobs, which call `ybe_growth.oracle.reflection_orbit_closure` directly
because no command exposes it.  A check returns None when the output is
right and a one-line reason otherwise.

The seed picks only the relabelling of the custom-json quandles and the
symmetric images of the window words, never an input size, so every seed
does the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"


@dataclass(frozen=True)
class Job:
    slug: str
    kind: str  # "cli": argv is run through cli.main; "window": words are closed
    check: Callable[[object], Optional[str]]
    argv: tuple = ()
    words: tuple = ()


# -- checks --------------------------------------------------------------------


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"report is not JSON: {exc}") from None


def _full(values, order: int, what: str) -> Optional[str]:
    if not isinstance(values, list) or len(values) != order + 1:
        return f"{what} does not cover orders 0..{order}"
    return None


def check_reference(digest: str):
    """The report must be byte-identical to the reference report, kept as its
    SHA-256 in reference/expected.json."""

    def check(text: str) -> Optional[str]:
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != digest:
            return "report differs from the reference"
        return None

    return check


def check_group_oracle(order: int):
    """Ball oracle ran, passed, and compared every coefficient through `order`."""

    def check(text: str) -> Optional[str]:
        report = _json(text)
        oracle, coeffs = report.get("oracle", {}), report.get("expansion", {}).get("coefficients")
        reason = _full(coeffs, order, "expansion") or _full(oracle.get("spheres"), order, "oracle")
        if reason:
            return reason
        if oracle.get("passed") is not True or oracle["spheres"] != coeffs:
            return "oracle spheres differ from the expansion"
        return None

    return check


def check_monoid_oracle(order: int, expected: Optional[list] = None):
    """Orbit oracle enumerated every length through `order`, and its counts
    equal the closed-form expansion (the report's own, or `expected` for
    custom-json inputs, which carry no closed form)."""

    def check(text: str) -> Optional[str]:
        report = _json(text)
        oracle = report.get("oracle", {})
        if oracle.get("truncated") is not False or oracle.get("enumerated_to") != order:
            return "orbit oracle did not enumerate every length"
        reason = _full(oracle.get("counts"), order, "oracle")
        if reason:
            return reason
        if expected is None:
            coeffs = report.get("expansion", {}).get("coefficients")
            if _full(coeffs, order, "expansion") or oracle.get("passed") is not True:
                return "oracle comparison missing or failed"
        else:
            coeffs = expected
        if oracle["counts"] != coeffs:
            return "orbit counts differ from the closed-form expansion"
        return None

    return check


def check_egf(order_t: int, order_x: int):
    """Every column through x^order_x is complete and matches its per-d formula."""

    def check(text: str) -> Optional[str]:
        report = _json(text)
        columns = report.get("columns", [])
        if [c.get("d") for c in columns] != list(range(order_x + 1)):
            return "EGF columns missing"
        for c in columns:
            if _full(c.get("coefficients"), order_t, f"column {c['d']}"):
                return f"column {c['d']} is truncated"
            if c.get("matches_direct_formula") is not True:
                return f"column {c['d']} differs from its per-d formula"
        if report.get("cross_check_passed") is not True:
            return "cross-check failed"
        return None

    return check


_PAIRS = (("oracle", "expansion"), ("actual", "expected"))
# criterion ids of `ybe-growth verify`, in report order
CRITERIA = ("1", "2", "3", "4", "5", "6", "6s", "7", "8", "9", "10", "11", "12")


def check_verify(seed: int):
    """Every criterion ran and passed, and every oracle/formula pair in its
    rows is non-empty and equal."""

    def check(text: str) -> Optional[str]:
        report = _json(text)
        if report.get("config", {}).get("seed") != seed:
            return "report does not echo the seed"
        criteria = report.get("criteria", [])
        if tuple(c.get("id") for c in criteria) != CRITERIA:
            return "criterion list differs from the acceptance matrix"
        if report.get("passed") is not True:
            return "overall verdict is not PASS"
        for c in criteria:
            if c.get("passed") is not True:
                return f"criterion {c.get('id')} failed"
            for row in c.get("details", {}).get("rows", []):
                if row.get("passed", True) is not True:
                    return f"criterion {c['id']} has a failing row"
                for a, b in _PAIRS:
                    if a in row and (not row[a] or row[a] != row.get(b)):
                        return f"criterion {c['id']}: {a} and {b} differ or are empty"
        return None

    return check


def check_window(cases: list):
    """Each closure holds its word and the word's normal form, and has the
    size its base word has (the seed's symmetries preserve orbit sizes)."""

    def check(result) -> Optional[str]:
        from ybe_growth.reflection_monoid import ReflectionWord, normal_form

        for (word, states), closure in zip(cases, result, strict=True):
            if word not in closure:
                return f"closure of {word} misses the word"
            if normal_form(ReflectionWord(word)).word.letters not in closure:
                return f"closure of {word} misses its normal form"
            if len(closure) != states:
                return f"closure of {word} has {len(closure)} states, expected {states}"
        return None

    return check


# -- generated inputs ----------------------------------------------------------


def reflection_table(d: int) -> list:
    """R_d: x > y = 2x - y mod d."""
    return [[(2 * x - y) % d for y in range(d)] for x in range(d)]


def transposition_table(d: int) -> list:
    """T_d: conjugation of transpositions of S_d, letters = sorted pairs."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    pos = {p: k for k, p in enumerate(pairs)}

    def swap(p, x):
        return p[1] if x == p[0] else p[0] if x == p[1] else x

    return [[pos[tuple(sorted((swap(p, q[0]), swap(p, q[1]))))] for q in pairs] for p in pairs]


def relabelled(table: list, rng: random.Random) -> dict:
    """The same quandle with its letters permuted: x -> perm[x]."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    op = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            op[perm[x]][perm[y]] = perm[table[x][y]]
    labels = [""] * n
    for x in range(n):
        labels[perm[x]] = f"x{x}"
    return {"size": n, "op": op, "labels": labels}


def window_image(word: tuple, rng: random.Random) -> tuple:
    """An image of `word` under reversal, negation and translation, with
    letters kept in -3..3.  These maps send braiding orbits of the integer
    reflection quandle onto orbits of the same size, since the closure
    window [min - margin, max + margin] moves with the word."""
    letters = list(reversed(word)) if rng.random() < 0.5 else list(word)
    if rng.random() < 0.5:
        letters = [-a for a in letters]
    shift = rng.randint(-3 - min(letters), 3 - max(letters))
    return tuple(a + shift for a in letters)


# -- workloads -----------------------------------------------------------------


def _expected() -> dict:
    return json.loads((REFERENCE / "expected.json").read_text(encoding="utf-8"))


# No oracle runs here: classes, class tables and commutators (algebra) and the
# defect recursion (group_growth, series) do the work.  S7 is the commutator
# target; the dihedral jobs are dominated by Polynomial arithmetic.
CONJUGATION = (
    ("group-perm-d6-o4", "group --solution permutations --d 6 --order 4"),
    ("defect-perm-d6", "defect-table --solution permutations --d 6"),
    ("defect-perm-d7", "defect-table --solution permutations --d 7"),
    ("group-dih-d24-o6", "group --solution dihedral --d 24 --order 6"),
    ("defect-dih-d18", "defect-table --solution dihedral --d 18"),
)
# The orbit-labelling oracle over 6^8 and 8^7 word spaces; sets peak memory.
MONOIDS = (
    ("monoid-trans-d4-o8", "monoid --solution transpositions --d 4 --order 8", 8),
    ("monoid-refl-d8-o7", "monoid --solution reflections --d 8 --order 7", 7),
    ("monoid-refl-d6-o8", "monoid --solution reflections --d 6 --order 8", 8),
)
CUSTOM_ORDER = 7
CUSTOM = (
    ("custom-refl-d7-o7", lambda: reflection_table(7)),
    ("custom-trans-d4-o7", lambda: transposition_table(4)),
)
EGF = ("egf-t20-x8", 20, 8)
# Ball BFS and integer-window closures: the oracle as Python-set traversals.
GROUPS = (
    ("group-dih-d10-o6-verify", "group --solution dihedral --d 10 --order 6", 6),
    ("group-perm-d4-o6-verify", "group --solution permutations --d 4 --order 6", 6),
    ("group-trans-d6-o6-verify", "group --solution transpositions --d 6 --order 6", 6),
    ("group-refl-d12-o12-verify", "group --solution reflections --d 12 --order 12", 12),
)
WINDOW_LENGTHS = (3, 4, 5)
WINDOW_MARGIN = 12

SLUGS = {
    "conjugation": [slug for slug, _ in CONJUGATION],
    "monoid-orbits": [s[0] for s in MONOIDS] + [s[0] for s in CUSTOM] + [EGF[0]],
    "group-balls": [s[0] for s in GROUPS] + [f"window-len{n}" for n in WINDOW_LENGTHS],
    "verify": ["verify"],
}
WORKLOADS = tuple(SLUGS)


def _argv(command: str, *extra: str) -> tuple:
    return tuple(command.split()) + extra + ("--format", "json")


def build_jobs(workload: str, seed: int, workdir: Path) -> list:
    """The workload's job list for this seed; inputs are written to workdir."""
    if workload == "conjugation":
        digests = _expected()["reports_sha256"]
        return [
            Job(slug, "cli", argv=_argv(cmd), check=check_reference(digests[slug]))
            for slug, cmd in CONJUGATION
        ]
    if workload == "monoid-orbits":
        jobs = [
            Job(slug, "cli", argv=_argv(cmd, "--verify"), check=check_monoid_oracle(order))
            for slug, cmd, order in MONOIDS
        ]
        expected = _expected()["custom"]
        for slug, table in CUSTOM:
            path = workdir / f"{slug}.json"
            data = relabelled(table(), random.Random(f"{seed}:{slug}"))
            path.write_text(json.dumps(data), encoding="utf-8")
            argv = _argv(f"monoid --solution custom-json --order {CUSTOM_ORDER}", "--input", str(path))
            jobs.append(Job(slug, "cli", argv=argv, check=check_monoid_oracle(CUSTOM_ORDER, expected[slug])))
        slug, order_t, order_x = EGF
        argv = _argv(f"egf --order {order_t} --order-x {order_x}")
        return jobs + [Job(slug, "cli", argv=argv, check=check_egf(order_t, order_x))]
    if workload == "group-balls":
        jobs = [
            Job(slug, "cli", argv=_argv(cmd, "--verify"), check=check_group_oracle(order))
            for slug, cmd, order in GROUPS
        ]
        rng = random.Random(f"{seed}:window")
        windows = _expected()["window"]
        for length in WINDOW_LENGTHS:
            cases = [
                (window_image(tuple(json.loads(word)), rng), states)
                for word, states in windows[str(length)].items()
            ]
            words = tuple(word for word, _ in cases)
            jobs.append(Job(f"window-len{length}", "window", words=words, check=check_window(cases)))
        return jobs
    if workload == "verify":
        argv = ("verify", "--format", "json", "--seed", str(seed))
        return [Job("verify", "cli", argv=argv, check=check_verify(seed))]
    raise ValueError(f"unknown workload {workload!r}")


# (job, path to one integer in its JSON report) corrupted by the self-check
CORRUPT = {
    "conjugation": ("group-dih-d24-o6", ("expansion", "coefficients", 3)),
    "monoid-orbits": ("custom-refl-d7-o7", ("oracle", "counts", 5)),
    "group-balls": ("group-dih-d10-o6-verify", ("oracle", "spheres", 4)),
    "verify": ("verify", ("criteria", 1, "details", "rows", 2, "oracle", 3)),
}


def corrupt(text: str, path: tuple) -> str:
    """The report with one coefficient increased by one, printed the way the
    CLI prints JSON."""
    report = json.loads(text)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
