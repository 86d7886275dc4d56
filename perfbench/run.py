"""zqforce benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One closed loop, one client: jobs run one at a time, in-process through
`zqforce.cli.main`, in a worker process that runs nothing else. A run is a
sequence of rounds. Each round builds a fresh batch of input files from the
seed in this process (so input generation stays out of the worker's peak
RSS), starts a worker, runs the batch, and then checks every job here,
outside the timed region: exit code, reported value against the reference,
and a replay of every emitted certificate through the package's independent
checker. Rounds repeat until --seconds have passed and at least
MIN_ROUNDS rounds ran; metrics are medians over rounds, and times are
seconds at a fixed machine speed (see speed.py).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the worker wraps each layer's public functions in spans and the
last line carries the per-layer metrics (per batch: run totals divided by
the number of rounds). --all runs every workload untraced and traced and
prints one table, including job_s_p90 where a run has at least 100 jobs,
failed_ratio and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe, scaled_seconds
from tracing import SETUP_TARGETS, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_ROUNDS = 3
RUN_LIMIT_S = 150  # no round starts that would, at the last round's pace, end later
HARD_LIMIT_S = 170  # a worker still running at this point is killed

END_TO_END = {"batch_s": "s", "job_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "graphs.parse_edge_list.self_s": "s",
    "graphs.Graph.from_edges.self_s": "s",
    "graphs.find_blocks.calls": "count",
    "graphs.find_blocks.self_s": "s",
    "graphs.is_block_graph.self_s": "s",
    "graphs.is_cactus.self_s": "s",
    "graphs.connected_components.self_s": "s",
    "structured.block_graph_Z.self_s": "s",
    "structured.cactus_Z0.self_s": "s",
    "structured.cactus_Z0.calls": "count",
    "game.solve_zq.self_s": "s",
    "game.solve_zq.calls": "count",
    "game.states_explored": "count",
    "game.oracle_entries": "count",
    "game.extract_player_trace.self_s": "s",
    "forcing.closure_with_forces.self_s": "s",
    "forcing.closure_with_forces.calls": "count",
    "forcing.brute_force_Z.self_s": "s",
    "certificates.certificate_from_tokens.self_s": "s",
    "certificates.check_certificate.self_s": "s",
    "certificates.format_certificate.self_s": "s",
    "certificates.trace_moves": "count",
    "cli.detect_class.self_s": "s",
    "cli.self_s": "s",
    "generators.generate_family.self_s": "s",
    "traced.batch_s": "s",
}

_VERIFY_ROW = re.compile(r"^q=(\d+): (.*) \[(ok|MISMATCH)\]$")


class HarnessError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def _import_package():
    if not (SRC / "zqforce" / "__init__.py").is_file():
        raise HarnessError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import zqforce

    if Path(zqforce.__file__).resolve().parent != SRC / "zqforce":
        raise HarnessError(f"imported zqforce from {zqforce.__file__}, not from {SRC}")


def _metric_name(span_name: str) -> str:
    return "cli" if span_name == "cli.main" else span_name


# Modules that import zqforce are imported inside the functions below, after
# main() has put this checkout's package source first on the path.


def check_job(job, result: dict, references: dict) -> str | None:
    """None if the job's output is correct, else the reason it is not."""
    from workloads import q_values, reference_value
    from zqforce.certificates import parse_certificate, verify_certificate
    from zqforce.errors import ZqError

    if result["error"] is not None:
        return "raised " + result["error"].strip().splitlines()[-1]
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'].strip()[-200:]}"
    pos, inst = job.position, job.instance
    out = result["stdout"]
    if pos.command == "verify":
        rows = {}
        for line in out.splitlines():
            match = _VERIFY_ROW.match(line)
            if match:
                try:
                    cells = (cell.split("=") for cell in match.group(2).split(", "))
                    rows[int(match.group(1))] = {name: int(val) for name, val in cells}
                except ValueError:
                    return f"unreadable verify row {line!r}"
        for q in q_values(pos, inst.graph):
            expected = reference_value(inst, pos, q, references)
            values = rows.get(q)
            if not values or "exact" not in values:
                return f"q={q}: no exact value reported"
            wrong = {name: val for name, val in values.items() if val != expected}
            if wrong:
                return f"q={q}: expected {expected}, got {wrong}"
        return None

    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    try:
        value = int(fields["value"])
    except (KeyError, ValueError):
        return "no value reported"
    expected = reference_value(inst, pos, pos.q, references)
    if value != expected:
        return f"expected {expected}, got {value}"
    if pos.expect_method and fields.get("method") != pos.expect_method:
        return f"expected method {pos.expect_method}, got {fields.get('method')}"
    if pos.certificate:
        try:
            cert = parse_certificate(job.cert_path.read_text(encoding="utf-8"))
        except (OSError, ZqError) as exc:
            return f"certificate unreadable: {exc}"
        check = verify_certificate(inst.graph, pos.q, cert)
        if not check.ok:
            return f"certificate rejected at step {check.failed_step}: {check.reason}"
        if len(cert.tokens) != value:
            return f"certificate spends {len(cert.tokens)} tokens, value is {value}"
    return None


def _run_round(name, scale, seed, index, trace, workdir, deadline, references, emit):
    """Build one batch, run it in a fresh worker, check it. Times in the
    outcome are seconds at the reference speed (see speed.py)."""
    from workloads import build_jobs, q_values

    round_dir = workdir / f"round{index}"
    round_dir.mkdir()
    setup_tracer = Tracer() if trace else None
    with SpeedProbe() as probe:
        started = time.monotonic()
        if setup_tracer is not None:
            setup_tracer.install(SETUP_TARGETS)
        try:
            jobs = build_jobs(name, scale, seed, index, round_dir)
        finally:
            if setup_tracer is not None:
                setup_tracer.restore()
        jobs_path = round_dir / "jobs.json"
        jobs_path.write_text(json.dumps({"trace": bool(trace), "jobs": [j.argv for j in jobs]}),
                             encoding="utf-8")
        built = time.monotonic()
    result_path = round_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(jobs_path), str(result_path)]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = "timeout"
    build_s = scaled_seconds(started, built, probe.samples)
    outcome = {"jobs": len(jobs), "failed": 0, "job_s": [], "spans": [], "counts": {},
               "setup_spans": setup_tracer.spans if setup_tracer else [],
               "setup_scale": build_s / (built - started)}
    if code != 0 or not result_path.is_file():
        outcome["failed"] = len(jobs)
        emit(f"round {index}: worker failed ({code}); all {len(jobs)} jobs count as failed")
        return outcome
    result = json.loads(result_path.read_text(encoding="utf-8"))
    samples = result["speed_samples"]
    wall = 0.0
    for i, (job, res) in enumerate(zip(jobs, result["jobs"])):
        elapsed = scaled_seconds(res["start"], res["end"], samples)
        wall += res["end"] - res["start"]
        outcome["job_s"].append(elapsed)
        problem = check_job(job, res, references)
        if problem:
            outcome["failed"] += 1
        info = " ".join(f"{k}={v}" for k, v in job.instance.info().items())
        qs = ",".join(map(str, q_values(job.position, job.instance.graph)))
        emit(f"job {index}.{i} {job.position.command} {info} q={qs} rule3={job.position.rule3} "
             f"time_s={elapsed:.4f} wall_s={res['end'] - res['start']:.4f} "
             + ("ok" if problem is None else f"FAILED: {problem}"))
    batch_s = sum(outcome["job_s"])
    outcome.update(
        batch_s=batch_s,
        batch_wall_s=wall,
        setup_s=build_s + scaled_seconds(built, result["first_job_start"], samples),
        peak_rss_mb=result["peak_rss_kb"] / 1024,
        spans=result["spans"],
        span_scale=batch_s / wall,
        counts=result["counts"],
    )
    return outcome


def run_workload(name, seed, seconds, trace, scale="full", references=None, emit=print):
    """Run one workload; return {"correct", "attempted", "failed", "metrics",
    "report"} where report also holds metrics that are not always defined."""
    from workloads import WORKLOADS, load_references

    if name not in WORKLOADS:
        raise HarnessError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if references is None:
        references = load_references()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-{'traced' if trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    started = time.monotonic()
    rounds = []
    try:
        while True:
            elapsed = time.monotonic() - started
            if len(rounds) >= MIN_ROUNDS and elapsed >= seconds:
                break
            if rounds and elapsed + rounds[-1]["wall_s"] > RUN_LIMIT_S:
                emit(f"stopping after {len(rounds)} rounds: the next would pass {RUN_LIMIT_S} s")
                break
            round_start = time.monotonic()
            outcome = _run_round(name, scale, seed, len(rounds), trace, workdir,
                                 started + HARD_LIMIT_S, references, emit)
            outcome["wall_s"] = time.monotonic() - round_start
            rounds.append(outcome)
            shutil.rmtree(workdir / f"round{len(rounds) - 1}", ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for r in rounds if "batch_s" in r]
    if not timed:
        raise HarnessError("no round completed; nothing to report")
    attempted = sum(r["jobs"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    batch_s = statistics.median(r["batch_s"] for r in timed)
    # name -> (value, unit, note); everything printed for a person to read
    report = {"failed_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} jobs")}
    if trace:
        metrics = _per_layer(rounds)
        metrics["traced.batch_s"]["value"] = batch_s
        report.update((k, (m["value"], m["unit"], "per batch")) for k, m in metrics.items())
        _write_spans(rounds, WORK / f"spans-{name}-seed{seed}.jsonl", emit)
    else:
        job_s = [t for r in timed for t in r["job_s"]]
        report.update({
            "batch_s": (batch_s, "s", f"median of {len(timed)} batches, at reference speed"),
            "batch_wall_s": (statistics.median(r["batch_wall_s"] for r in timed), "s",
                             "median wall time of the same batches, unscaled"),
            "job_s_p50": (statistics.median(job_s), "s", f"median of {len(job_s)} jobs"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB",
                            f"median over {len(timed)} worker processes"),
            "setup_s": (statistics.median(r["setup_s"] for r in timed), "s",
                        f"median of {len(timed)} set-ups"),
        })
        if len(job_s) >= 100:  # so that at least 10 samples lie beyond it
            report["job_s_p90"] = (statistics.quantiles(job_s, n=10)[-1], "s",
                                   f"{len(job_s)} jobs")
        metrics = {k: {"value": report[k][0], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def _per_layer(rounds) -> dict:
    """Per-layer metrics per batch: run totals divided by the round count.
    Self times are rescaled to the reference speed with the factor measured
    for the same round and process."""
    totals = {}
    for r in rounds:
        for spans, scale in ((r["setup_spans"], r["setup_scale"]), (r["spans"], r.get("span_scale", 1.0))):
            self_s, calls = self_times(spans)
            for span_name, value in self_s.items():
                key = f"{_metric_name(span_name)}.self_s"
                totals[key] = totals.get(key, 0.0) + value * scale
            for span_name, value in calls.items():
                key = f"{_metric_name(span_name)}.calls"
                totals[key] = totals.get(key, 0) + value
        for key, value in r["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return {k: {"value": totals.get(k, 0) / len(rounds), "unit": u} for k, u in PER_LAYER.items()}


def _write_spans(rounds, path, emit):
    with open(path, "w", encoding="utf-8") as fh:
        for index, r in enumerate(rounds):
            for process, spans in (("setup", r["setup_spans"]), ("worker", r["spans"])):
                for span_name, start, end, parent, job in spans:
                    fh.write(json.dumps([index, process, span_name, start, end, parent, job]) + "\n")
    emit(f"spans written to {path.relative_to(ROOT)}")


def _print_report(name, outcome, emit=print):
    emit(f"workload {name}: {outcome['attempted']} jobs, {outcome['failed']} failed")
    for key, (value, unit, note) in outcome["report"].items():
        emit(f"  {key} = {value:.6g} {unit}  ({note})")


def _run_all(seed, seconds, scale):
    from workloads import WORKLOADS

    table = []
    correct = True
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, 0, scale, emit=lambda line: None)
        traced = run_workload(name, seed, seconds, 1, scale, emit=lambda line: None)
        correct = correct and plain["correct"] and traced["correct"]
        _print_report(name, plain)
        overhead = traced["metrics"]["traced.batch_s"]["value"] - plain["report"]["batch_s"][0]
        print(f"  trace_overhead_s = {overhead:.6g} s  (traced batch_s minus untraced batch_s)")
        table.append({"workload": name, "end_to_end": {k: v[:2] for k, v in plain["report"].items()},
                      "per_layer": {k: (m["value"], m["unit"]) for k, m in traced["metrics"].items()},
                      "trace_overhead_s": overhead})
    summary = WORK / f"summary-seed{seed}.json"
    summary.write_text(json.dumps(table, indent=1), encoding="utf-8")
    print(f"summary written to {summary.relative_to(ROOT)}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for a smoke run")
    args = parser.parse_args(argv)
    try:
        _import_package()
        if args.all:
            return _run_all(args.seed, args.seconds, args.scale)
        if not args.workload:
            raise HarnessError("give --workload NAME or --all")
        outcome = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(args.workload, outcome)
    print(json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
