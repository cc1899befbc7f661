"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = _run(workload, trace=0)
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    readable = proc.stdout.strip().splitlines()[:-1]
    for m in CONTRACT["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
        assert any(line.split()[:1] == [m["name"]] for line in readable)
    assert set(res["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


@pytest.mark.parametrize("workload", ["torus_eight_box", "cat_reservoir"])
def test_traced_run_reports_every_per_layer_metric(workload):
    res = _result(_run(workload, trace=1))
    assert res["correct"] and res["failed"] == 0
    assert {n: m["unit"] for n, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


def test_contract_lists_the_metrics_the_worker_computes():
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == worker.PER_LAYER
    assert CONTRACT["command"][1] == "perfbench/run.py"


def test_run_fails_without_gsync_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("torus_eight_box", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_ops(tmp_path, name="torus_eight_box"):
    import gsync
    import gsync.cli
    from gsync.config import parse_config
    w = workloads.build(name, 5, str(tmp_path / "inputs"), "tiny")
    return worker.make_ops(w, parse_config(w.config_path), gsync, checks)


def _corrupting(run, filename):
    def corrupted(out):
        rc = run(out)
        with open(os.path.join(out, filename), "a") as fh:
            fh.write("0\n")
        return rc
    return corrupted


def test_corrupted_output_counts_as_a_failed_operation(tmp_path):
    ops = [op for op in _tiny_ops(tmp_path) if op.name in ("certify", "reproduce_fig3")]
    digests = {}
    results = worker.run_pass(ops, str(tmp_path / "p0"), digests).results
    assert all(not problems for _, problems in results)

    # a byte appended to a file no check parses: only the hash comparison sees it
    bad = [replace(ops[0], run=_corrupting(ops[0].run, "certificates.txt")), ops[1]]
    results = worker.run_pass(bad, str(tmp_path / "p1"), digests).results
    problems = dict(results)
    assert any("certificates.txt" in p and "byte for byte" in p for p in problems["certify"])
    assert problems["reproduce_fig3"] == []


def test_failed_validation_counts_as_a_failed_operation(tmp_path):
    ops = [op for op in _tiny_ops(tmp_path) if op.name == "reproduce_fig3"]
    bad = [replace(ops[0], run=_corrupting(ops[0].run, "fig3.csv"))]
    results = worker.run_pass(bad, str(tmp_path / "p0"), {}).results
    assert any("fig3" in p for p in results[0][1])


def test_missing_regularity_probes_need_the_printed_skip(tmp_path):
    ops = [op for op in _tiny_ops(tmp_path) if op.name == "diagnose"]

    def deleting(out):
        result = ops[0].run(out)
        os.remove(os.path.join(out, "holder.csv"))
        return result

    results = worker.run_pass([replace(ops[0], run=deleting)], str(tmp_path / "p0"), {}).results
    assert results[0][1] == ["diagnose: holder.csv missing and no skip printed"]


def _attribute_snapshot():
    snap = {}
    for owner, attr, *_ in tracer_mod.SPAN_TARGETS + tracer_mod.COUNT_TARGETS:
        obj = tracer_mod._resolve(owner)
        snap[owner, attr] = obj.__dict__.get(attr, "absent")
    return snap


def test_tracer_restores_every_wrapped_name(tmp_path):
    import gsync.cli
    before = _attribute_snapshot()
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert all(_attribute_snapshot()[k] is not v for k, v in before.items())
        assert gsync.cli.drive_gs is not before["gsync.cli", "drive_gs"]
    finally:
        t.uninstall()
    after = _attribute_snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_names_missing_targets(monkeypatch):
    monkeypatch.setattr(tracer_mod, "SPAN_TARGETS",
                        tracer_mod.SPAN_TARGETS + [("gsync.cli", "no_such_function", "x", None)])
    t = tracer_mod.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["gsync.cli.no_such_function"]
    import gsync.cli
    assert not hasattr(gsync.cli, "no_such_function")


def test_traced_pass_spans_add_up_and_count_work(tmp_path):
    ops = _tiny_ops(tmp_path)
    t = tracer_mod.Tracer()
    t.begin(1)
    t.install()
    try:
        results = worker.run_pass(ops, str(tmp_path / "p1"), {}, t).results
    finally:
        t.uninstall()
    assert all(not problems for _, problems in results)
    assert worker.trace_consistency(t) == []
    assert t.counts["gs.psi_iterate_gs.calls"] == 8
    assert t.counts["statemaps.eval.calls"] > t.counts["gs.drive_gs.steps"]
    roots = {s.name for s in t.spans if s.parent is None}
    assert roots == {"cli.certify", "cli.synchronize", "cli.diagnose", "cli.reproduce",
                     "gs.multistability_sweep"}


def test_consistency_check_flags_a_child_outside_its_parent():
    t = tracer_mod.Tracer()
    t.spans = [tracer_mod.Span(0, 1, "cli.certify", 0.0, 1.0, None),
               tracer_mod.Span(1, 1, "contraction.certify", 0.5, 1.5, 0)]
    assert len(worker.trace_consistency(t)) == 1


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    workloads.build(name, 7, str(tmp_path / "a"))
    workloads.build(name, 7, str(tmp_path / "b"))
    workloads.build(name, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["run.cfg"] != _files(tmp_path / "c")["run.cfg"]
