"""Runs one batch of `zqforce` CLI jobs in this process, one after another.

Usage: worker.py <src dir> <jobs.json> <result.json>

jobs.json holds {"trace": bool, "jobs": [argv, ...]}. Each job is a call to
`zqforce.cli.main(argv)` with stdout and stderr captured; the worker times
it, and at the end writes the timings, outputs, peak RSS, the machine
speed samples and (when tracing) the spans to result.json. It starts no
threads or processes.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from speed import SpeedProbe


def peak_rss_kb() -> int:
    """Peak resident set of this process image. On Linux, ru_maxrss of an
    exec'd child also counts the resident set its parent had when it forked,
    so VmHWM (which starts afresh at exec) is read instead where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(src_dir, jobs_path, result_path):
    with SpeedProbe() as probe:
        payload = run_jobs(src_dir, jobs_path)
    payload["speed_samples"] = probe.samples
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_jobs(src_dir, jobs_path):
    sys.path.insert(0, src_dir)
    import zqforce.cli

    with open(jobs_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracing import JOB_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(JOB_TARGETS)

    results = []
    first_start = None
    try:
        for job_id, argv in enumerate(spec["jobs"]):
            if tracer is not None:
                tracer.job = job_id
            out, err = io.StringIO(), io.StringIO()
            error = None
            start = time.monotonic()
            if first_start is None:
                first_start = start
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = zqforce.cli.main(argv)
            except Exception:  # a crashed job is a failed job; keep running the batch
                code = None
                error = traceback.format_exc()
            end = time.monotonic()
            results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                            "error": error, "start": start, "end": end})
    finally:
        if tracer is not None:
            tracer.restore()

    return {
        "first_job_start": first_start,
        "peak_rss_kb": peak_rss_kb(),
        "jobs": results,
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }


if __name__ == "__main__":
    main(*sys.argv[1:4])
