"""fedmmg benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload smoke-nc --seed 0 --seconds 40 --trace 0

Runs fresh child processes (``child.py``) one after another for about
``--seconds`` seconds, checks their outputs, and prints every metric by name
with its unit. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A traced run alternates traced and untraced children; the per-layer numbers
come from the traced ones and the tracing overhead is the difference of the
two groups' median ``run_s``. A traced run of ``SUITE_HOST`` first runs one
traced gradcheck child, for the layers only the gradient-check suite reaches.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import SUITE_HOST, WORKLOADS  # noqa: E402

WORK_ROOT = os.path.join(REPO, ".perfbench_work")
HARD_LIMIT_S = 170.0  # a run, however slow its children, ends before 180 s
MIN_BEYOND = 10

# Layers that only the gradient-check suite reaches. A traced run of
# SUITE_HOST takes them from one traced gradcheck child, its companion.
SUITE_LAYERS = ("numerics.grad_check.ms", "numerics.grad_check.self_ms",
                "numerics.grad_check.calls", "verify.probe_forward_ratio")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default, Python's 'inclusive')."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(samples: list[float], q: float) -> int:
    """Samples strictly above the q-quantile."""
    cut = quantile(samples, q)
    return sum(1 for x in samples if x > cut)


def percentile_report(samples: list[float], q: float) -> dict:
    """The q-quantile with its sample count and whether at least
    ``MIN_BEYOND`` samples lie beyond it."""
    n_beyond = beyond(samples, q)
    return {"value": quantile(samples, q), "samples": len(samples),
            "beyond": n_beyond, "supported": n_beyond >= MIN_BEYOND}


def _child_env(workers: int) -> dict:
    """One BLAS thread per worker keeps workers x BLAS threads <= nproc
    (at most two workers, on two cores), and keeps BLAS from adding noise."""
    if workers > (os.cpu_count() or 1):
        raise SystemExit(f"perfbench: {workers} workers exceed nproc")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_children(workload: str, seed: int, seconds: float, trace: bool,
                 dry: bool, workdir: str) -> list[dict]:
    """Run children until the next one is predicted to overrun ``seconds``.

    At least two children run, so a traced run has a traced and an untraced
    one, and a slow phase of the machine cannot leave a run with one child."""
    wl = WORKLOADS[workload]
    env = _child_env(wl.workers)
    results: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    index = 0
    while True:
        traced = trace and index % 2 == 0
        run_id = f"{workload}-s{seed}-c{index}{'-traced' if traced else ''}"
        child_dir = os.path.join(workdir, run_id)
        spec = {"workload": workload, "seed": seed, "trace": traced, "dry": dry,
                "run_id": run_id, "workdir": child_dir}
        t = time.perf_counter()
        results.append(_run_child(spec, env, HARD_LIMIT_S - (t - start)))
        longest = max(longest, time.perf_counter() - t)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= 2 and elapsed + longest > seconds \
                or elapsed + longest > HARD_LIMIT_S:
            return results


def run_companion(seed: int, dry: bool, workdir: str) -> dict:
    """One traced gradcheck child."""
    run_id = f"{SUITE_HOST}-s{seed}-gradcheck-traced"
    spec = {"workload": "gradcheck", "seed": seed, "trace": True, "dry": dry,
            "run_id": run_id, "workdir": os.path.join(workdir, run_id)}
    return _run_child(spec, _child_env(WORKLOADS["gradcheck"].workers), HARD_LIMIT_S)


def _run_child(spec: dict, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=REPO, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return _crashed(spec, f"timed out after {timeout:.0f} s")
    path = os.path.join(spec["workdir"], "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return _crashed(spec, f"exit {proc.returncode}: {tail[0]}")
    with open(path) as fh:
        return json.load(fh)


def _crashed(spec: dict, why: str) -> dict:
    return {"run_id": spec["run_id"], "traced": spec["trace"], "attempted": 1,
            "failed": 1, "failures": [f"child {spec['run_id']} {why}"]}


def _median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def aggregate(results: list[dict], trace: bool, companion: dict | None = None) -> dict:
    """Fold child records (and a traced companion child's) into the run's report."""
    checked = results + ([companion] if companion else [])
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    failures = [f for r in checked for f in r["failures"]]
    ok = [r for r in results if "run_s" in r]
    digests = {r["digest"] for r in ok if "digest" in r}
    attempted += 1
    if len(digests) != 1:
        failed += 1
        failures.append(f"outputs differ between children: {len(digests)} digests")
    report = {"attempted": attempted, "failed": failed, "failures": failures,
              "children": len(results), "digest": next(iter(digests), None),
              "machine": next((r["machine"] for r in results if "machine" in r), None)}
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (trace and not traced):
        report["failed"] += 1
        report["attempted"] += 1
        report["failures"].append("no child finished its run")
        return report
    rounds = [x for r in plain for x in r["rounds_ms"]]
    report["rounds"] = {"p50": percentile_report(rounds, 0.5),
                        "p90": percentile_report(rounds, 0.9)}
    report["samples"] = {"setup_s": [r["setup_s"] for r in plain],
                         "run_s": [r["run_s"] for r in plain],
                         "rounds_ms": rounds,
                         "peak_rss_mb": [r["rss_mb"] for r in plain]}
    if not trace:
        report["metrics"] = {
            "setup_s": statistics.median(report["samples"]["setup_s"]),
            "run_s": _median_of(plain, "run_s"),
            "round_ms_p50": report["rounds"]["p50"]["value"],
            "round_ms_p90": report["rounds"]["p90"]["value"],
            "peak_rss_mb": _median_of(plain, "rss_mb"),
        }
        return report
    layers = {}
    for name, _unit in tracing.layer_metric_names():
        values = [r["layers"].get(name, 0.0) for r in traced]
        layers[name] = statistics.median(values)
    if companion and "layers" in companion:
        for name in SUITE_LAYERS:
            layers[name] = companion["layers"][name]
    layers["bench.trace_overhead_ms"] = 1000.0 * (
        _median_of(traced, "run_s") - _median_of(plain, "run_s"))
    report["metrics"] = layers
    report["self_sum_ms"] = _median_of(traced, "self_sum_ms")
    report["traced_run_ms"] = 1000.0 * _median_of(traced, "run_s")
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool,
            dry: bool = False, keep_work: bool = False) -> dict:
    """One benchmark run: children, checks and metrics, as a report dict."""
    started = time.perf_counter()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
    companion = None
    try:
        if trace and workload == SUITE_HOST:
            companion = run_companion(seed, dry, workdir)
        budget = seconds - (time.perf_counter() - started)
        results = run_children(workload, seed, budget, trace, dry, workdir)
    finally:
        if not keep_work:
            shutil.rmtree(workdir, ignore_errors=True)
            if not os.listdir(WORK_ROOT):
                os.rmdir(WORK_ROOT)
    report = aggregate(results, trace, companion)
    report.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  workdir=workdir if keep_work else None,
                  wall_s=time.perf_counter() - started)
    return report


def units(trace: bool) -> dict[str, str]:
    return dict(tracing.layer_metric_names() if trace else END_TO_END)


def print_report(report: dict) -> None:
    trace = report["trace"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"children {report['children']}  traced {trace}  "
          f"wall {report['wall_s']:.1f} s")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    rounds = report.get("rounds")
    if rounds:
        p90 = rounds["p90"]
        print(f"round samples {p90['samples']}: {p90['beyond']} beyond p90 "
              f"({'meets' if p90['supported'] else 'below'} the {MIN_BEYOND}-beyond rule)")
    share = report["failed"] / report["attempted"]
    print(f"failed operations {report['failed']}/{report['attempted']} ({100 * share:.2f} %)")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    if report["workdir"]:
        print(f"kept {report['workdir']}")
    unit_of = units(trace)
    for name, value in report.get("metrics", {}).items():
        print(f"  {name:<48} {value:>16.6f} {unit_of[name]}")
    if trace and "self_sum_ms" in report:
        print(f"self-time sum under {tracing.ROOT}: {report['self_sum_ms']:.3f} ms; "
              f"traced run_s: {report['traced_run_ms']:.3f} ms")


def result_line(report: dict) -> str:
    unit_of = units(report["trace"])
    metrics = {name: {"value": value, "unit": unit_of[name]}
               for name, value in report.get("metrics", {}).items()}
    return json.dumps({"correct": report["failed"] == 0 and bool(metrics),
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dry", action="store_true",
                        help="tiny inputs, for checking the harness itself")
    parser.add_argument("--keep-work", action="store_true",
                        help="keep child outputs and spans under .perfbench_work/")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(REPO, "src", "fedmmg", "__init__.py")):
        print("perfbench: src/fedmmg not found next to the benchmark; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.dry, args.keep_work)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
