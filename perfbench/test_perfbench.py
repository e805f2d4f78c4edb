"""The benchmark's own tests: a smoke run of every workload at tiny size,
the correctness checks, the tracer and the steadiness check.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import steady  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_all_runs_every_workload():
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seconds", "0", "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    names = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in SPEC["end_to_end"]}
    assert names == set(result["metrics"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_checks_accept_right_and_reject_wrong_verdicts(workload):
    for q in workloads.WORKLOADS[workload](7, tiny=True).queries:
        value = q.run()
        assert q.check(value) is None, (q.kind, q.props)
        if isinstance(value, bool):
            assert q.check(not value) is not None
        elif q.kind.startswith("golden") and value:
            assert q.check(value[:-1]) is not None


def test_golden_mismatch_fails(monkeypatch):
    golden = workloads.load_golden()
    key = "reducing_certificates BETA2 0"
    golden[key] = golden[key][::-1]
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    queries = workloads.detect_scan(1, tiny=True).queries
    errors = [q.check(q.run()) for q in queries if q.kind.startswith("golden")]
    assert sum(e is not None for e in errors) == 1


def test_pipeline_keeps_its_order_in_a_shuffled_pass():
    stages = [
        "reduce_morton_3", "exchange_morton_2", "target_morton_2", "rewrite_morton_8",
        "identity_beta1", "target_beta1_3", "rewrite_beta1_14", "identity_beta2", "reduce_final_0",
    ]
    orders = set()
    for seed in (1, 2):
        queries = workloads.detect_scan(seed).queries
        assert [q.kind[len("pipeline."):] for q in queries if q.kind.startswith("pipeline.")] == stages
        assert [q.qid for q in queries] == list(range(len(queries)))
        orders.add(tuple(q.kind for q in queries))
    assert len(orders) == 2


def test_later_passes_skip_once_queries_and_latency_is_the_mean_run():
    calls = {0: 0, 1: 0}

    def query(qid, once):
        def go():
            calls[qid] += 1
            return True

        return workloads.Query(qid, "k", go, lambda r: None, {}, once)

    wl = workloads.Workload("w", (3,), [query(0, True), query(1, False)])
    passes = run.timed_passes(wl, 0.05)
    assert len(passes) > 1 and calls == {0: 1, 1: len(passes)}
    first, second = run.Pass(), run.Pass()
    first.qids, first.latencies = [0, 1], [3.0, 2.0]
    second.qids, second.latencies = [1], [1.0]
    assert sorted(run.mean_latencies([first, second])) == [1.5, 3.0]


def test_action_anchor():
    # the orientation anchor of the words module: this braid sends x3 to x1
    b = workloads.parse_ints("-2 -2 -1 -2 -3 2 2 2 1 2 3")
    assert workloads.act(b, ((3, 1),)) == ((1, 1),)


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", ROOT / "no-such-dir")
    assert run.main(["--workload", "detect-scan"]) != 0
    assert capsys.readouterr().out == ""


def test_self_time_and_undo():
    import braidmoves.words as W

    tr = tracer.Tracer()
    original = W.BraidWord.__call__
    patches = tracer.install_spans(tr)
    b = W.BraidWord.parse("1 2 -1", 3)
    b(W.FreeWord.generator(3, 2))
    patches.undo()
    assert W.BraidWord.__call__ is original
    assert tr.span_counts() == {"words.act": 1}
    assert tr.self_times()["words.act"] == pytest.approx(tr.end[0] - tr.start[0])


def test_steadiness_assessment():
    spec = {"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]}
    calm = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    wide = [1.0, 1.3, 0.7, 1.2, 0.8, 1.0, 1.3, 0.7, 1.0, 1.0]
    same = {"w": {"wall_s": calm, "setup_s": calm}}
    assert steady.assess([same, same], spec)[0]
    # a spread beyond the bound fails, for setup_s as for every metric
    assert not steady.assess([same, {"w": {"wall_s": wide, "setup_s": calm}}], spec)[0]
    assert not steady.assess([same, {"w": {"wall_s": calm, "setup_s": wide}}], spec)[0]
    # a median that moves by more than the bound fails, either way
    slower = {"w": {"wall_s": [x * 1.2 for x in calm], "setup_s": calm}}
    faster = {"w": {"wall_s": [x * 0.8 for x in calm], "setup_s": calm}}
    assert not steady.assess([same, slower], spec)[0]
    assert not steady.assess([same, faster], spec)[0]
