"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

They run tiny dry runs of each workload in-process, so they take seconds.
The file is named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import child  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

ALL_SPANS = {tracing.span_name(m, q) for m, q in tracing.TARGETS}
FEDERATED_ONLY = {n for n in ALL_SPANS if n.split(".")[0] in
                  ("graphdata", "config", "federation", "metrics", "cli")} | {
    "numerics.adam_step", "numerics.ParamStore.load", "numerics.ParamStore.snapshot"}
EXPECTED = {
    "smoke-nc": ALL_SPANS - {"tasks.lp_task_loss", "tasks.sample_hard_negatives",
                             "numerics.grad_check"},
    "scale-lp": ALL_SPANS - {"tasks.nc_task_loss", "numerics.grad_check"},
    # the suite's lp objective is written inline in verify.py
    "gradcheck": ALL_SPANS - FEDERATED_ONLY - {"tasks.lp_task_loss",
                                               "tasks.sample_hard_negatives"},
}


def _dry(workload: str, tmp_path, trace: bool) -> dict:
    spec = {"workload": workload, "seed": 3, "trace": trace, "dry": True,
            "run_id": f"{workload}-test", "workdir": str(tmp_path / workload)}
    os.makedirs(spec["workdir"])
    return child.run_child(spec)


def _bindings() -> dict:
    """Every (module or class, attribute) in fedmmg bound to a target."""
    import fedmmg.model  # noqa: F401  (loads every module the targets live in)
    import fedmmg.verify  # noqa: F401
    import fedmmg.cli  # noqa: F401
    found = {}
    for mod in tracing._package_modules():
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("fedmmg"):
                for attr, raw in vars(value).items():
                    found[(f"{mod.__name__}.{key}", attr)] = raw
    return found


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_dry_run_fires_every_expected_span(workload, tmp_path):
    result = _dry(workload, tmp_path, trace=True)
    assert result["failed"] == 0, result["failures"]
    calls = {name[:-len(".calls")]: v for name, v in result["layers"].items()
             if name.endswith(".calls")}
    silent = {name for name in EXPECTED[workload] if calls[name] < 1}
    assert not silent
    unexpected = {name for name in ALL_SPANS - EXPECTED[workload] if calls[name] > 0}
    assert not unexpected
    assert result["layers"]["bench.run.ms"] > 0
    if workload == "gradcheck":
        assert 0 < result["layers"]["verify.probe_forward_ratio"] < 1
    else:
        assert 0 < result["layers"]["generation.bank_fill_ratio"] <= 1
    with open(tmp_path / workload / "spans.tsv") as fh:
        assert sum(1 for _ in fh) == result["spans"] + 1


@pytest.mark.parametrize("workload", ["scale-lp", "gradcheck"])
def test_single_thread_self_times_sum_to_run(workload, tmp_path):
    result = _dry(workload, tmp_path, trace=True)
    assert result["self_sum_ms"] == pytest.approx(1000.0 * result["run_s"], rel=1e-3)


def test_traced_and_untraced_outputs_agree(tmp_path):
    traced = _dry("smoke-nc", tmp_path / "a", trace=True)
    plain = _dry("smoke-nc", tmp_path / "b", trace=False)
    assert traced["digest"] == plain["digest"]


def _span(tracer, sid, name, start, end, parent):
    s = tracing.Span(sid, name, start, parent, 0)
    s.end = end
    tracer.spans.append(s)
    return s


def test_self_time_of_nested_spans():
    t = tracing.Tracer("nested")
    _span(t, 1, tracing.ROOT, 0.0, 10.0, None)
    _span(t, 2, "a", 1.0, 4.0, 1)
    _span(t, 3, "a.inner", 2.0, 3.0, 2)
    _span(t, 4, "b", 5.0, 6.0, 1)
    own = tracing.self_times(t.spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert tracing.run_self_sum_ms(t.spans) == pytest.approx(10_000.0)


def test_self_time_with_overlapping_thread_spans():
    t = tracing.Tracer("threads")
    _span(t, 1, tracing.ROOT, 0.0, 10.0, None)
    _span(t, 2, "client", 1.0, 5.0, 1)
    _span(t, 3, "client", 2.0, 6.0, 1)
    own = tracing.self_times(t.spans)
    assert own[1] == pytest.approx(5.0)  # root minus the union [1, 6]
    assert own[2] == own[3] == pytest.approx(4.0)


def test_worker_thread_spans_parent_to_the_root():
    t = tracing.Tracer("live")
    barrier = threading.Barrier(2)
    seen = {}

    def work(i):
        outer = t.open(f"client{i}")
        barrier.wait(timeout=10)
        inner = t.open(f"inner{i}")
        t.close(inner)
        t.close(outer)
        seen[i] = (outer, inner)

    with t.root() as root:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    for outer, inner in seen.values():
        assert outer.parent == root.sid
        assert inner.parent == outer.sid
    own = tracing.self_times(t.spans)
    assert all(v >= 0 for v in own.values())


def test_percentile_rule_and_sample_count():
    hundred = [float(x) for x in range(1, 101)]
    rep = run.percentile_report(hundred, 0.9)
    assert rep["samples"] == 100 and rep["beyond"] == 10 and rep["supported"]
    assert rep["value"] == pytest.approx(90.1)
    ninety = hundred[:90]
    rep = run.percentile_report(ninety, 0.9)
    assert rep["samples"] == 90 and rep["beyond"] == 9 and not rep["supported"]
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracing, "install", refuse)
    for workload in EXPECTED:
        assert _dry(workload, tmp_path, trace=False)["failed"] == 0
    import fedmmg.federation
    import fedmmg.model
    import fedmmg.verify
    assert fedmmg.federation.forward_pass is fedmmg.model.forward_pass
    assert fedmmg.verify.forward_pass is fedmmg.model.forward_pass


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    _dry("smoke-nc", tmp_path, trace=True)
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed
    import fedmmg.federation
    import fedmmg.model
    assert fedmmg.federation.forward_pass is fedmmg.model.forward_pass


def test_failures_count_against_attempted():
    good = {"run_id": "a", "traced": False, "attempted": 5, "failed": 0,
            "failures": [], "run_s": 1.0, "setup_s": 0.1, "rounds_ms": [1.0],
            "rss_mb": 10.0, "digest": "x", "machine": {}}
    other = dict(good, run_id="b", digest="y")
    crashed = run._crashed({"run_id": "c", "trace": False}, "exit 1: boom")
    report = run.aggregate([good, other, crashed], trace=False)
    assert report["attempted"] == 5 + 5 + 1 + 1
    assert report["failed"] == 2  # the crash and the digest mismatch
    assert json.loads(run.result_line(dict(report, trace=False)))["correct"] is False
    clean = run.aggregate([good, dict(good, run_id="d")], trace=False)
    assert clean["failed"] == 0 and clean["metrics"]["run_s"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "smoke-nc", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        tracing.layer_metric_names()
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])


def test_highest_supported_percentile():
    assert record._highest_supported([float(x) for x in range(100)]) == 90
    assert record._highest_supported([1.0] * 9) is None


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_result_line(trace):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke-nc",
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--dry",
         "--keep-work"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    workdir = next(l for l in proc.stdout.splitlines() if l.startswith("kept "))[5:]
    try:
        spans = [f for _, _, files in os.walk(workdir) for f in files
                 if f == "spans.tsv"]
        assert len(spans) == 2 * trace  # one federated child, one companion
    finally:
        shutil.rmtree(workdir)
        if not os.listdir(run.WORK_ROOT):
            os.rmdir(run.WORK_ROOT)
    if trace:
        metrics = line["metrics"]
        assert metrics["numerics.grad_check.calls"]["value"] > 0
        assert 0 < metrics["verify.probe_forward_ratio"]["value"] < 1
        assert metrics["federation.client_local_round.calls"]["value"] > 0
