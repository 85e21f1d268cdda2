"""Span tracing around the public functions of each ybe_growth layer.

The wrapping is done from the benchmark's side: `Tracer.install` replaces
every binding of a listed function (module globals, `from .x import f`
copies, class attributes and their aliases such as `__radd__ = __add__`)
with a wrapper that records a span.  Nothing under `src/` changes.

A span is (metric, parent span index, start, end).  Spans stay in memory
and are written out once the pass ends.  A metric's value is the summed self
time of its spans: span duration minus the part covered by child spans, so
the self times of every span in a job add up to the job's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

from workloads import CRITERIA

# metric -> "module:qualname" of the functions whose spans it sums
LAYERS = {
    "algebra.group_build_s": ["algebra:make_symmetric_group", "algebra:make_dihedral_group"],
    "algebra.classes_s": ["algebra:FiniteGroupTable.conjugacy_classes"],
    "algebra.class_table_s": ["algebra:class_product_table"],
    "algebra.commutator_s": [
        "algebra:FiniteGroupTable.commutator_set",
        "algebra:FiniteGroupTable.commutator_subgroup",
    ],
    "algebra.solution_build_s": [
        "algebra:QuandleSolution.__init__",
        "algebra:conjugation_solution",
        "algebra:reflection_solution",
        "algebra:transposition_solution",
    ],
    "algebra.length_series_s": ["algebra:generic_length_series"],
    "group_growth.closed_forms_s": [
        "group_growth:class2_lift",
        "group_growth:solomon_series",
        "group_growth:as_transpositions_group_gf",
        "group_growth:as_reflections_group_gf",
    ],
    "group_growth.full_conjugation_s": ["group_growth:as_full_conjugation_gf"],
    "group_growth.commutator_check_s": ["group_growth:is_commutator_length_one"],
    "group_growth.defect_series_s": ["group_growth:defect_series"],
    "group_growth.defect_measure_s": ["group_growth:defect_measure"],
    "series.self_s": [
        "series:Polynomial.__add__",
        "series:Polynomial.__sub__",
        "series:Polynomial.__mul__",
        "series:Polynomial.__pow__",
        "series:Polynomial.divmod",
        "series:RationalGF.__add__",
        "series:RationalGF.__sub__",
        "series:RationalGF.__mul__",
        "series:RationalGF.__truediv__",
        "series:RationalGF.__pow__",
        "series:RationalGF.__eq__",
        "series:TruncatedSeries.__add__",
        "series:TruncatedSeries.__sub__",
        "series:TruncatedSeries.__mul__",
        "series:BivariateSeries.__mul__",
        "series:BivariateSeries.exp",
        "series:expand_rational",
        "series:bivariate_binomial",
    ],
    "oracle.orbit_labels_s": [
        "oracle:monoid_orbit_enumerate",
        "oracle:_orbit_labels",
        "oracle:orbit_equal",
    ],
    "oracle.ball_bfs_s": [
        "oracle:group_ball_enumerate",
        "oracle:conjugation_ball_series",
        "oracle:conjugation_ball_generators",
    ],
    "oracle.window_closure_s": [
        "oracle:reflection_orbit_closure",
        "oracle:reflection_orbit_equal_infinite",
    ],
    "transposition_monoid.growth_s": [
        "transposition_monoid:monoid_growth_transpositions",
        "transposition_monoid:fts_growth_gf",
        "transposition_monoid:egf_transposition_monoids",
        "transposition_monoid:egf_column",
    ],
    "transposition_monoid.fts_s": [
        "transposition_monoid:word_partition",
        "transposition_monoid:fts_embed",
        "transposition_monoid:fts_image_membership",
        "transposition_monoid:fts_normal_form",
    ],
    "reflection_monoid.growth_s": [
        "reflection_monoid:monoid_growth_reflections",
        "reflection_monoid:frs_growth_gf",
    ],
    "reflection_monoid.invariants_s": [
        "reflection_monoid:invariants",
        "reflection_monoid:essentialise",
        "reflection_monoid:push_through",
        "reflection_monoid:normal_form",
        "reflection_monoid:elements_equal",
        "reflection_monoid:frs_embed",
        "reflection_monoid:frs_image_contains",
    ],
    "reflection_monoid.lemmas_s": [
        "reflection_monoid:triple_gcd_witness",
        "reflection_monoid:lift_to_coprime",
    ],
}

def _calls(args, kwargs, result):
    return 1


# "module:qualname" -> [(counter, measure(args, kwargs, result))], counted at
# the same boundaries as the spans
COUNTERS = {
    "algebra:FiniteGroupTable.commutator_set": [("algebra.commutator_set_calls", _calls)],
    "series:Polynomial.__add__": [("series.polynomial_ops", _calls)],
    "series:Polynomial.__mul__": [("series.polynomial_ops", _calls)],
    "series:Polynomial.divmod": [("series.polynomial_ops", _calls)],
    "oracle:_orbit_labels": [
        ("oracle.words", lambda a, k, r: a[0].size ** a[1]),
        ("oracle.orbits", lambda a, k, r: r[1]),
    ],
    "oracle:group_ball_enumerate": [("oracle.ball_states", lambda a, k, r: r.states)],
    "oracle:reflection_orbit_closure": [("oracle.window_states", lambda a, k, r: len(r))],
}

COUNTER_NAMES = tuple(sorted({name for specs in COUNTERS.values() for name, _ in specs}))
SPAN_METRICS = tuple(LAYERS) + tuple(f"verification.criterion.{cid}_s" for cid in CRITERIA)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"ybe_growth.{module_name}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, vars(owner)[attr]


class Tracer:
    """Records spans and counters while `recording` is true."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []

    def wrap(self, fn, metric: str, counters=()):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (metric, parent, start, clock())
                stack.pop()
            for name, measure in counters:
                counts[name] += measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS, and each verify criterion."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ybe_growth"]
        for metric, targets in LAYERS.items():
            for target in targets:
                owner, fn = _resolve(target)
                wrapper = self.wrap(fn, metric, COUNTERS.get(target, ()))
                holders = modules if isinstance(owner, types.ModuleType) else [owner]
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
        verification = importlib.import_module("ybe_growth.verification")
        verification.CRITERIA[:] = [
            (cid, self.wrap(fn, f"verification.criterion.{cid}_s"))
            for cid, fn in verification.CRITERIA
        ]

    @contextmanager
    def job(self, slug: str):
        """Root span of one job; layer spans are recorded only inside it."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (f"cli.job.{slug}_s", -1, start, time.perf_counter())
            self.recording = False
            self._stack.pop()

    def summary(self) -> dict:
        """Self time per span metric, overall and per job (a job's own self
        time is its `cli.unattributed_s`), and each job's duration."""
        covered = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for index, (metric, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += end - start
                root[index] = root[parent]
        by_job: dict = {}
        jobs: dict = {}
        for index, (metric, parent, start, end) in enumerate(self.spans):
            if parent < 0:
                jobs[metric] = end - start
                metric = "cli.unattributed_s"
            job = by_job.setdefault(self.spans[root[index]][0], Counter())
            job[metric] += end - start - covered[index]
        total: Counter = Counter()
        for job in by_job.values():
            total.update(job)
        return {
            "self": dict(total),
            "jobs": jobs,
            "by_job": {name: dict(job) for name, job in by_job.items()},
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """Spans as [name index, parent, start, end] rows plus the name table."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[m], p, round(s, 9), round(e, 9)] for m, p, s, e in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
