"""One pass of a workload: its whole job list in this single process.

    python3 bench/worker.py --workload NAME --seed N [--trace]

`bench/run.py` starts one fresh worker per pass, with `src` on PYTHONPATH and
BLAS/OpenMP pinned to one thread.  The last line of stdout is a JSON object:
per-job seconds and failure reasons, peak resident memory, the self-check
result and, with --trace, the per-layer span summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from workloads import BENCH, CORRUPT, OUT, WINDOW_MARGIN, WORKLOADS, build_jobs, corrupt


def run_job(job, cli, oracle):
    """(exit code, captured stderr, output) of one job; the output is the
    captured stdout, or the closures of a window job."""
    if job.kind == "window":
        return 0, "", [oracle.reflection_orbit_closure(w, margin=WINDOW_MARGIN) for w in job.words]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job.argv))
    return code, err.getvalue(), out.getvalue()


def failure(job, code, stderr, output):
    """None if the job succeeded, else why it failed."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    try:
        return job.check(output)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"check rejected the output: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import ybe_growth
    from ybe_growth import cli, oracle

    source = Path(ybe_growth.__file__).resolve()
    if BENCH.parent / "src" not in source.parents:
        print(f"ybe_growth imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    OUT.mkdir(exist_ok=True)
    corrupt_slug, corrupt_path = CORRUPT[args.workload]
    jobs_out, caught = [], None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        jobs = build_jobs(args.workload, args.seed, Path(workdir))
        for job in jobs:
            span = tracer.job(job.slug) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    code, stderr, output = run_job(job, cli, oracle)
            except Exception as exc:  # a crashing job is counted, not fatal
                code, stderr, output = -1, f"{type(exc).__name__}: {exc}", None
            except SystemExit as exc:
                code, stderr, output = -1, f"SystemExit({exc.code})", None
            seconds = time.perf_counter() - start
            error = failure(job, code, stderr, output)
            if error is not None and isinstance(output, str):
                (OUT / f"{job.slug}.out").write_text(output, encoding="utf-8")
            if job.slug == corrupt_slug and error is None:
                caught = failure(job, 0, "", corrupt(output, corrupt_path)) is not None
            jobs_out.append({"slug": job.slug, "seconds": seconds, "error": error})
            del output  # window closures are large; free them before the next job runs
    result = {
        "jobs": jobs_out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "corrupted_report_caught": caught,
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["trace"]["spans"] = len(tracer.spans)
        tracer.write(OUT / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
