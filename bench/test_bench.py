"""Tests of the benchmark itself: span arithmetic, the tracer's wrapping,
and a small smoke run of every workload in both modes.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest

import run
import tracer as tracing
import workloads
from tracer import Span

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_nested_calls():
    # simulate -> verify_scheme -> check_informativeness, then
    # simulate -> decode_table -> check_informativeness; and separately
    # decode -> decode_table -> check_informativeness in another job.
    spans = [
        Span("runtime.simulate", 0.0, 10.0, None, 0, 100),
        Span("verification.verify_scheme", 1.0, 4.0, 0, 0),
        Span("verification.check_informativeness", 2.0, 3.0, 1, 0),
        Span("verification.decode_table", 5.0, 7.0, 0, 0),
        Span("verification.check_informativeness", 5.5, 6.5, 3, 0),
        Span("runtime.decode", 11.0, 15.0, None, 1),
        Span("verification.decode_table", 12.0, 14.0, 5, 1),
        Span("verification.check_informativeness", 12.5, 13.5, 6, 1),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0]

    metrics = tracing.layer_metrics(spans, draws=6, passes=1)
    assert metrics["runtime.self_s"] == 7.0
    assert metrics["runtime.simulate.self_s"] == 5.0
    assert metrics["runtime.decode.self_s"] == 2.0
    assert metrics["verification.self_s"] == 7.0
    assert metrics["verification.verify_scheme.self_s"] == 2.0
    assert metrics["verification.decode_table.calls"] == 2
    assert metrics["verification.check_informativeness.calls"] == 3
    # Only the table built inside decode() counts against decode.
    assert metrics["verification.table_builds_per_decode"] == 1.0
    assert metrics["runtime.draws"] == 6
    assert metrics["runtime.draws_per_sample"] == 0.06

    halved = tracing.layer_metrics(spans, draws=6, passes=2)
    assert halved["verification.self_s"] == 3.5
    assert halved["verification.table_builds_per_decode"] == 1.0


def test_self_times_count_overlapping_children_once():
    spans = [
        Span("construction.build_scheme", 0.0, 10.0),
        Span("construction.extend", 1.0, 5.0, 0),
        Span("construction.birkhoff_decompose", 3.0, 8.0, 0),
        Span("model.as_fraction", 9.0, 12.0, 0),
    ]
    # Children cover [1, 8] and [9, 10] of the parent.
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


@pytest.fixture
def sidepad():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return run.load_sidepad()


def test_tracer_wraps_every_binding_and_restores(sidepad):
    runtime = sys.modules["sidepad.runtime"]
    verification = sys.modules["sidepad.verification"]
    original = verification.decode_table
    inst = sidepad.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [["1/4", "1/4", "0"], ["0", "1/4", "1/4"]],
    )
    scheme = sidepad.build_scheme(inst)

    tracer = tracing.Tracer()
    with tracer.installed():
        for namespace in (sidepad, runtime, verification):
            assert namespace.decode_table is not original
        source = sidepad.RandomSource(7)
        x, y = sidepad.sample_world(inst, source)
        z = sidepad.encode(scheme, x, y, source)
        assert sidepad.decode(scheme, y, z) == x
        with tracer.paused():
            sidepad.decode(scheme, y, z)
    for namespace in (sidepad, runtime, verification):
        assert namespace.decode_table is original
    assert runtime.RandomSource.randbelow.__qualname__ == "RandomSource.randbelow"

    names = [span.name for span in tracer.spans]
    assert names[-3:] == [
        "runtime.decode",
        "verification.decode_table",
        "verification.check_informativeness",
    ]
    decode_at = names.index("runtime.decode")
    assert tracer.spans[decode_at + 1].parent == decode_at
    assert tracer.spans[decode_at + 2].parent == decode_at + 1
    assert tracer.draws >= 1
    metrics = tracing.layer_metrics(tracer.spans, tracer.draws, 1)
    assert metrics["verification.table_builds_per_decode"] == 1.0
    assert metrics["runtime.samples"] == 1


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so a run takes a second or two."""
    monkeypatch.setattr(workloads, "LADDER_RUNGS", (4, 6, 8))
    monkeypatch.setattr(workloads, "LADDER_SAMPLES", 500)
    monkeypatch.setattr(workloads, "TRIAGE_INSTANCES", 24)
    monkeypatch.setattr(workloads, "TRIAGE_SAMPLES", 200)
    monkeypatch.setattr(workloads, "STREAM_RUNGS", (4, 6, 8))
    monkeypatch.setattr(workloads, "STREAM_SAMPLES", 500)
    monkeypatch.setattr(workloads, "STREAM_QUERIES", 12)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "RESULTS", tmp_path)


def smoke(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(tiny, capsys, workload):
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        text, result = smoke(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert [m["name"] for m in wanted] == list(result["metrics"])
        for metric in wanted:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert any(line.split()[0] == metric["name"] for line in text)
        assert any("failed_frac" in line for line in text)
        if trace == 0:
            assert all(
                entry["value"] > 0 for entry in result["metrics"].values()
            ), result["metrics"]


def test_counts_and_digests_repeat(tiny, capsys):
    exact = [
        "construction.perfect_matching.calls",
        "construction.nnz",
        "runtime.draws",
        "verification.decode_table.calls",
        "simplex.variables",
    ]
    for workload in ("ladder", "triage", "stream"):
        _, first = smoke(capsys, workload, 1)
        _, second = smoke(capsys, workload, 1)
        _, plain = smoke(capsys, workload, 0)
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], name
        # The digest check also compares against the earlier runs' results.
        assert first["correct"] and second["correct"] and plain["correct"]
        record = json.loads((run.RESULTS / f"{workload}-seed3-trace0.json").read_text())
        traced = json.loads((run.RESULTS / f"{workload}-seed3-trace1.json").read_text())
        assert record["digest"] == traced["digest"]
        if workload == "stream":
            assert first["metrics"]["verification.table_builds_per_decode"]["value"] == 1.0


def test_changed_digest_fails_the_run(tiny, capsys):
    smoke(capsys, "stream", 0)
    path = run.RESULTS / "stream-seed3-trace0.json"
    record = json.loads(path.read_text())
    record["digest"] = "0" * 64
    path.write_text(json.dumps(record))
    _, result = smoke(capsys, "stream", 0)
    assert not result["correct"] and result["failed"] == 1


def test_missing_sources_fail_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def test_generated_inputs_depend_only_on_the_seed(sidepad):
    a = workloads.Triage(sidepad, 5, None).cases
    b = workloads.Triage(sidepad, 5, None).cases
    c = workloads.Triage(sidepad, 6, None).cases
    assert [case[1] for case in a] == [case[1] for case in b]
    assert [case[1] for case in a] != [case[1] for case in c]
    mixture = workloads.permutation_mixture(sidepad, random.Random(1), 3, 6)
    assert sidepad.check_feasible(mixture).feasible
    assert sum(mixture.p_xy[0]) == Fraction(1, 3)


def test_layer_map_names_every_workload_and_metric():
    layer_map = json.loads((run.HERE / "layer_map.json").read_text())
    assert set(layer_map["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    mapped = {name for group in layer_map["layers"] for name in group["metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    assert set(layer_map["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for group in layer_map["layers"]:
        for claim in group["should_move"] + group["should_stay"]:
            workload, metric = claim.split(" ", 1)
            assert workload in layer_map["workloads"] and metric in e2e, claim
