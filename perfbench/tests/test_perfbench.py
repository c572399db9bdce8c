"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The smoke runs use reduced sizes; they check that each workload's checks
pass and that every per-layer metric listed for it is nonzero, so that a
wrapper installed on the wrong name cannot silently read zero.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from nsocp import kkt_solver

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _traced_smoke_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    tr = tracer.Tracer()
    tr.install()
    try:
        inputs = wl.setup(seed=3, smoke=True)
        setup_end = tr.mark()
        results = wl.run(inputs, tmp_path)
        ranges = [(0, setup_end), (setup_end, tr.mark())]
    finally:
        tr.uninstall()
    outcomes = workloads.Outcomes()
    wl.check(inputs, results, outcomes)
    return tracer.layer_metrics(tr.spans, ranges), outcomes, wl.newton_iters(results)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reads_every_listed_layer(name, tmp_path):
    metrics, outcomes, iters = _traced_smoke_pass(name, tmp_path)
    assert outcomes.failed == 0, outcomes.failures
    assert outcomes.attempted > 0 and iters > 0
    listed = [m for m, spec in tracer.LAYER_METRICS.items() if name in spec[2]]
    assert listed
    assert [m for m in listed if metrics[m] <= 0] == []


def test_certify_never_calls_the_stacked_solve(tmp_path):
    metrics, _, _ = _traced_smoke_pass("certify", tmp_path)
    assert metrics["sparse_core.solve_linear_calls"] == 0
    assert metrics["sparse_core.lu_factor_s"] == 0


def test_uninstall_restores_every_name():
    from nsocp import harness, sparse_core, state_solver
    before = (harness.solve_kkt, sparse_core.splu, state_solver.splu,
              vars(sparse_core.CsrMatrix)["from_scipy"])
    tr = tracer.Tracer()
    tr.install()
    assert harness.solve_kkt is kkt_solver.solve_kkt is not before[0]
    tr.uninstall()
    after = (harness.solve_kkt, sparse_core.splu, state_solver.splu,
             vars(sparse_core.CsrMatrix)["from_scipy"])
    assert after == before


def test_self_time_and_nested_totals():
    def span(name, parent, start, end):
        s = tracer.Span(name, parent)
        s.start, s.end = start, end
        return s
    spans = [
        span("sparse_core.solve_linear", -1, 0.0, 10.0),
        span("sparse_core.splu", 0, 1.0, 7.0),
        span("examples.build_example", -1, 20.0, 23.0),
        span("examples.build_example1", 2, 20.5, 22.5),
    ]
    m = tracer.layer_metrics(spans, [(0, len(spans))])
    assert m["sparse_core.solve_other_s"] == pytest.approx(4.0)
    assert m["sparse_core.lu_factor_s"] == pytest.approx(6.0)
    assert m["examples.build_s"] == pytest.approx(3.0)


def _kkt_fine_smoke(tmp_path):
    wl = workloads.WORKLOADS["kkt-fine"]
    inputs = wl.setup(seed=0, smoke=True)
    outcomes = workloads.Outcomes()
    wl.check(inputs, wl.run(inputs, tmp_path), outcomes)
    return outcomes


def test_planted_wrong_answer_is_counted(tmp_path, monkeypatch):
    solve = kkt_solver.solve_kkt

    def wrong(data, init=None):
        pt, rep = solve(data, init)
        shifted = pt.y.space.function(pt.y.coeffs * 1.01)
        return kkt_solver.KktPoint(shifted, pt.p, pt.chi), rep

    assert _kkt_fine_smoke(tmp_path).failed == 0
    monkeypatch.setattr(kkt_solver, "solve_kkt", wrong)
    outcomes = _kkt_fine_smoke(tmp_path)
    assert outcomes.failed == outcomes.attempted == 1


def test_raised_call_is_counted_not_fatal(tmp_path, monkeypatch):
    def broken(data, init=None):
        raise FloatingPointError("planted")

    monkeypatch.setattr(kkt_solver, "solve_kkt", broken)
    outcomes = _kkt_fine_smoke(tmp_path)
    assert outcomes.failed == outcomes.attempted == 1
    assert "planted" in outcomes.failures[0]


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        {(name, unit) for name, (unit, _) in run.END_TO_END.items()}
    layers = {name: unit for name, (unit, *_) in tracer.LAYER_METRICS.items()}
    layers["trace.overhead_s"] = "s"
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(layers.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
