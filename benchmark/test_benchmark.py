"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest benchmark -q

They cover the benchmark only: the metric names and units it emits, that
tracing leaves the library's outputs byte for byte unchanged, that the
seed drives the inputs, that the tracer restores every binding it wraps,
and that the output checks reject a wrong row.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = ROOT / ".benchmark_out"

sys.path.insert(0, str(BENCH))
from workloads import (  # noqa: E402
    REFERENCES, WORKLOADS, Op, check_bipotential, check_rows, workload_runs, write_inputs,
)


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(workload, 3, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = (json.loads(proc.stdout.splitlines()[-1]), proc.stdout)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(results, workload, trace):
    summary, stdout = results[workload, trace]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0.0
        line = rf"^  {re.escape(m['name'])} \S+ {re.escape(m['unit'])}$"
        assert re.search(line, stdout, re.MULTILINE), m["name"]
    assert stdout.startswith("machine {")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_results_are_byte_identical(results, workload):
    ops = [op for _, run_ops in workload_runs(workload, tiny=True) for op in run_ops]
    compared = 0
    for op in ops:
        if op.kind == "bipotential":
            continue
        untraced = OUT / workload / "seed3-trace0-tiny" / op.name / "results.csv"
        traced = OUT / workload / "seed3-trace1-tiny" / op.name / "results.csv"
        assert untraced.read_bytes() == traced.read_bytes()
        compared += 1
    assert compared >= 1


def test_seed_changes_inputs_but_not_metric_names(results, tmp_path):
    proc = _bench("mc-counts", 4, 0)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert list(summary["metrics"]) == list(results["mc-counts", 0][0]["metrics"])
    for name in ("holes", "equidistribution"):
        seed3 = (OUT / "mc-counts" / "seed3-trace0-tiny" / "inputs" / f"{name}.yaml").read_bytes()
        seed4 = (OUT / "mc-counts" / "seed4-trace0-tiny" / "inputs" / f"{name}.yaml").read_bytes()
        assert seed3 != seed4
    # and the same seed gives the same inputs
    for workload in WORKLOADS:
        ops = [op for _, run_ops in workload_runs(workload) for op in run_ops]
        first = write_inputs(ops, 11, tmp_path / workload / "a")
        second = write_inputs(ops, 11, tmp_path / workload / "b")
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    from bergman_zeros import disc, experiments, sections, statistics
    from tracer import Tracer

    originals = (statistics.variance_bipotential, experiments.variance_bipotential,
                 disc.adaptive_truncation, sections.adaptive_truncation)
    tracer = Tracer()
    with tracer:
        assert experiments.variance_bipotential is statistics.variance_bipotential
        assert experiments.variance_bipotential is not originals[0]
        assert sections.adaptive_truncation is not originals[3]
        sections.truncation_length(40, 0.5)
    assert (statistics.variance_bipotential, experiments.variance_bipotential,
            disc.adaptive_truncation, sections.adaptive_truncation) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["disc.adaptive_truncation", "sections.truncation_length"]
    child, parent = tracer.spans
    assert child.parent == parent.id and parent.parent == -1
    eps = sections.ZERO_TAIL_EPS
    assert child.counts == {"key": (40, 0.5, eps * eps)}


def test_output_checks_reject_a_wrong_row():
    op = Op("equidistribution", "equidistribution", {"p": [50], "samples": 100}, monte_carlo=True)
    row = {"experiment": "equidistribution", "p": 50, "statistic": "mean_count", "estimate": 54.6,
           "stderr": 0.1, "prediction": 54.55, "deviation": 0.05, "n_samples": 100, "seed": 1}
    over_p = dict(row, statistic="mean_count_over_p", estimate=54.6 / 50, stderr=0.1 / 50,
                  prediction=1.09, deviation=abs(54.6 / 50 - 1.09))
    assert check_rows(op, [row, over_p], seed=1) == []
    wrong = dict(row, estimate=55.6, deviation=abs(55.6 - 54.55))
    over_p_wrong = dict(over_p, estimate=55.6 / 50, deviation=abs(55.6 / 50 - 1.09))
    assert any("stderr" in p for p in check_rows(op, [wrong, over_p_wrong], seed=1))
    assert check_rows(op, [row, over_p], seed=2)


def _hole_rows(p: int, holes: int, m: int) -> list[dict]:
    base = {"experiment": "holes", "p": p, "stderr": None, "prediction": None, "deviation": None,
            "n_samples": m, "seed": 1}
    if holes == 0:
        return [dict(base, statistic="hole_probability_upper_bound", estimate=3.0 / m)]
    q = holes / m
    return [dict(base, statistic="hole_probability", estimate=q, stderr=(q * (1 - q) / m) ** 0.5)]


def test_output_checks_compare_holes_and_bipotential_with_the_references():
    m = 4000
    for p, ref in REFERENCES["holes"]["by_p"].items():
        op = Op("holes", "holes", {"p": [int(p)], "samples": m}, monte_carlo=True)
        expected = round(ref["estimate"] * m)
        assert check_rows(op, _hole_rows(int(p), expected, m), seed=1) == []
        assert check_rows(op, _hole_rows(int(p), 3 * expected, m), seed=1)
        assert check_rows(op, _hole_rows(int(p), expected // 3, m), seed=1)
    for p, ref in REFERENCES["bipotential"]["by_p"].items():
        assert check_bipotential(int(p), ref["value"] * (1 + 1e-3)) == []
        assert check_bipotential(int(p), ref["value"] * 1.01)
    assert check_bipotential(123, 1.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mc-counts", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
