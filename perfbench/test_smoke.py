"""Smoke tests of the benchmark harness, on the tiny scale of every workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()

import zqforce  # noqa: E402
from tracing import JOB_TARGETS, SETUP_TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, build_instance, instance_seeds, load_references  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_cli(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _package_snapshot():
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if m is not None and (name == "zqforce" or name.startswith("zqforce."))}
    return modules, zqforce.graphs.Graph.__dict__["from_edges"]


def _assert_snapshot_unchanged(snapshot):
    modules, from_edges = snapshot
    for name, attrs in modules.items():
        current = vars(sys.modules[name])
        changed = [a for a, value in attrs.items() if current.get(a) is not value]
        assert not changed, f"{name}: {changed} not restored"
    assert zqforce.graphs.Graph.__dict__["from_edges"] is from_edges


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_by_name_with_unit(workload, trace, section):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split(" = ")[0].strip(): line.split(" = ")[1].split()[1]
               for line in lines[:-1] if line.startswith("  ") and " = " in line}
    for name, unit in dict(expected, failed_ratio="ratio").items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"


def test_wrong_reference_is_counted_in_failed_ratio():
    references = load_references()
    pos = WORKLOADS["exact-16"].positions["tiny"][1]
    assert pos.pooled
    key = build_instance(pos, instance_seeds("exact-16", "tiny", 1, 0)[1]).key
    wrong = dict(references)
    wrong[key] = {k: v + 1 for k, v in references[key].items()}

    out = run.run_workload("exact-16", 1, 0, 0, "tiny", references=wrong, emit=lambda line: None)

    assert not out["correct"]
    assert out["failed"] >= 1
    assert out["report"]["failed_ratio"][0] == out["failed"] / out["attempted"] > 0
    clean = run.run_workload("exact-16", 1, 0, 0, "tiny", emit=lambda line: None)
    assert clean["correct"] and clean["report"]["failed_ratio"][0] == 0


def test_traced_run_restores_package_functions():
    snapshot = _package_snapshot()
    tracer = Tracer()
    tracer.install(JOB_TARGETS | SETUP_TARGETS)
    assert zqforce.graphs.find_blocks is not snapshot[0]["zqforce.graphs"]["find_blocks"]
    assert zqforce.structured.find_blocks is zqforce.graphs.find_blocks
    try:
        zqforce.graphs.is_block_graph(zqforce.generate_family(
            "random_block_graph", zqforce.FamilyParams(n=9, blocks=3), seed=2))
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("graphs.find_blocks") == 1  # caught inside is_block_graph
    assert "generators.generate_family" in names and "graphs.Graph.from_edges" in names
    _assert_snapshot_unchanged(snapshot)

    out = run.run_workload("block-1e5", 1, 0, 1, "tiny", emit=lambda line: None)
    assert out["correct"]
    assert out["metrics"]["graphs.find_blocks.calls"]["value"] == 4
    _assert_snapshot_unchanged(snapshot)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run_cli("--workload", "block-1e5", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
