"""Benchmark of the ybe-growth command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from `src/`,
never from an installed copy.  Each pass runs the workload's whole job list
in one fresh single-threaded worker process (`bench/worker.py`); passes
repeat until `--seconds` is used up.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: `wall_s` (median over passes of
the job list's time after set-up), `setup_s` (median over fresh interpreters
of start to `import ybe_growth.cli` done) and `peak_rss_mb` (median over
passes of the worker's peak resident memory).  --trace 1 runs one untraced
and one traced pass and reports the per-layer metrics of `tracing.py`, the
tracing overhead and the import-time breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNTER_NAMES, SPAN_METRICS
from workloads import SLUGS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # every pass must end within this many seconds of the start
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
JOB_METRICS = tuple(f"cli.job.{slug}_s" for name in WORKLOADS for slug in SLUGS[name])
PER_LAYER = (
    SPAN_METRICS
    + ("cli.unattributed_s",)
    + JOB_METRICS
    + COUNTER_NAMES
    + ("oracle.orbits_per_word", "cli.fail_ratio", "selfcheck.fail_ratio")
    + ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans")
    + ("setup.numpy_s", "setup.scipy_sparse_s", "setup.ybe_growth_s")
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("ratio") or metric.endswith("per_word"):
        return "ratio"
    return "count"


def child_env() -> dict:
    """src first on the path, one BLAS/OpenMP thread, and bytecode caching on,
    as an installed package has it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds(env: dict) -> float:
    """Fresh interpreter start to `import ybe_growth.cli` completed.  Linux's
    monotonic clock is shared by all processes, so the child's reading can be
    subtracted from the parent's."""
    code = "import time, ybe_growth.cli; print(time.monotonic())"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1]) - start


def import_breakdown(env: dict) -> dict:
    """numpy's, scipy's and the package's own share of `import ybe_growth.cli`,
    from `python -X importtime`.  A module's self time goes to the outermost
    numpy or scipy import above it, else to ybe_growth if that is above it, so
    scipy's share is what dropping scipy would save."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ybe_growth.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-300:]}")
    pending: list = []  # (depth, package, self microseconds, children); parents print last
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip().split(".")[0], int(self_us), children))
    totals = {"numpy": 0, "scipy": 0, "ybe_growth": 0}
    stack = [(node, None) for node in pending]
    while stack:
        (_, package, self_us, children), owner = stack.pop()
        if owner in (None, "ybe_growth") and package in totals:
            owner = package
        if owner is not None:
            totals[owner] += self_us
        stack.extend((child, owner) for child in children)
    return {
        "setup.numpy_s": totals["numpy"] / 1e6,
        "setup.scipy_sparse_s": totals["scipy"] / 1e6,
        "setup.ybe_growth_s": totals["ybe_growth"] / 1e6,
    }


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, env: dict, timeout: float) -> dict:
    """One fresh worker process running the workload's job list."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(
            cmd + (["--trace"] if trace else []),
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def pass_wall(result: dict) -> float:
    return sum(job["seconds"] for job in result["jobs"])


def report_failures(result: dict) -> int:
    failed = 0
    for job in result["jobs"]:
        if job["error"] is not None:
            failed += 1
            print(f"FAILED {job['slug']}: {job['error']}", file=sys.stderr)
    return failed


def measure(workload: str, seed: int, seconds: float, env: dict, started: float) -> dict:
    setup = [setup_seconds(env) for _ in range(SETUP_REPEATS)]
    passes, durations = [], []
    measuring = time.monotonic()
    while True:
        begin = time.monotonic()
        passes.append(run_pass(workload, seed, False, env, started + RUN_LIMIT_S - begin))
        durations.append(time.monotonic() - begin)
        if time.monotonic() + statistics.median(durations) > measuring + seconds:
            break
    metrics = {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {"passes": passes, "metrics": metrics}


def print_layers(by_job: dict) -> None:
    """Per-job self time of each layer metric, largest first, to stderr."""
    for job, layers in by_job.items():
        total = sum(layers.values())
        print(f"{job}  {total:.3f} s", file=sys.stderr)
        for metric, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            if seconds >= 0.0005:
                print(f"    {metric:40s} {seconds:8.3f} s  {seconds / total:6.1%}", file=sys.stderr)


def measure_traced(workload: str, seed: int, env: dict, started: float) -> dict:
    untraced = run_pass(workload, seed, False, env, started + RUN_LIMIT_S - time.monotonic())
    traced = run_pass(workload, seed, True, env, started + RUN_LIMIT_S - time.monotonic())
    trace = traced["trace"]
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(trace["self"])
    metrics.update(trace["jobs"])
    metrics.update(trace["counts"])
    metrics.update(import_breakdown(env))
    words = metrics["oracle.words"]
    metrics["oracle.orbits_per_word"] = metrics["oracle.orbits"] / words if words else 0
    traced_wall = sum(trace["jobs"].values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = pass_wall(untraced)
    metrics["trace.overhead_s"] = traced_wall - pass_wall(untraced)
    metrics["trace.spans"] = trace["spans"]
    # the traced pass's fail ratio, and what it becomes with the self-check's
    # corrupted report in place of the real one
    failed = sum(job["error"] is not None for job in traced["jobs"])
    caught = bool(traced["corrupted_report_caught"])
    metrics["cli.fail_ratio"] = failed / len(traced["jobs"])
    metrics["selfcheck.fail_ratio"] = (failed + caught) / len(traced["jobs"])
    print_layers(trace["by_job"])
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise PassFailed(f"trace produced metrics outside the benchmark's list: {sorted(unknown)}")
    attributed = sum(trace["self"].values())
    if abs(attributed - traced_wall) > 1e-6 * max(1.0, traced_wall):
        raise PassFailed(f"self times add up to {attributed} s, traced wall is {traced_wall} s")
    return {"passes": [untraced, traced], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the ybe-growth command line.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "ybe_growth" / "cli.py").is_file():
        print(f"error: no ybe_growth sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup_seconds(env)  # fills the bytecode caches, which users do not pay for on every run
        if args.trace:
            run = measure_traced(args.workload, args.seed, env, started)
        else:
            run = measure(args.workload, args.seed, args.seconds, env, started)
    except (PassFailed, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        jobs = len(SLUGS[args.workload])
        print(json.dumps({"correct": False, "attempted": jobs, "failed": jobs, "metrics": {}}))
        return 0
    passes = run["passes"]
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(report_failures(p) for p in passes)
    # None: the job to corrupt failed for real, which `failed` already counts
    caught = all(p["corrupted_report_caught"] is not False for p in passes)
    if not caught:
        print("error: a report with one corrupted coefficient passed its check", file=sys.stderr)
    metrics = run["metrics"]
    result = {
        "correct": failed == 0 and caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
