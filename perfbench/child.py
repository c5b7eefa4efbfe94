"""One measured run of one workload, in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, trace flag, dry flag, run id and a work
directory. The child writes ``result.json`` (and, when traced,
``spans.tsv``) into the work directory. The parent sets the BLAS thread
variables in the child's environment before numpy is first imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(REPO, "src"), HERE]

import tracing as tr  # noqa: E402
from workloads import WORKLOADS, Federated, Gradcheck  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


class Checks:
    """Correctness checks, each counted as one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)


def run_federated(wl: Federated, seed: int, dry: bool, tracer, workdir: str,
                  result: dict, checks: Checks) -> None:
    from fedmmg import cli, config, federation
    inst = tr.install(tracer) if tracer else None
    try:
        cfg = config.ExperimentConfig.from_dict(wl.experiment(seed, dry))
        start = time.perf_counter()
        assembly = config.assemble_run(cfg)
        result["setup_s"] = time.perf_counter() - start
        result["setup_rss_mb"] = _rss_mb()

        with tracer.root() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                history = federation.run_federation(assembly.setup)
            except federation.FederationAborted as exc:
                history = None
                checks.check(False, f"federation aborted: {exc}")
            run_s = time.perf_counter() - start
        if history is None:
            return
        result["run_s"] = run_s
        result["rounds_ms"] = list(history.timings_ms)
        result["calibration_ms"] = 1000.0 * run_s - sum(history.timings_ms)

        client_rounds = sum(len(r.losses) + len(r.errors) for r in history.records)
        client_failed = sum(len(r.errors) for r in history.records)
        result["client_failures"] = client_failed / client_rounds
        checks.attempted += client_rounds
        checks.failed += client_failed
        for r in history.records:
            for cid, err in sorted(r.errors.items()):
                checks.failures.append(f"round {r.round_index} client {cid}: {err}")

        out = os.path.join(workdir, "out")
        try:
            cli.write_outputs(out, cfg, history, assembly.missing_fraction)
        except federation.FederationAborted as exc:
            checks.check(False, f"write_outputs rejected the run: {exc}")
            return
        checks.check(True, "write_outputs")
        result["digest"] = _digest(os.path.join(out, "metrics.csv"),
                                   os.path.join(out, "rounds.jsonl"))
        metric_1 = history.records[-1].metrics.values[0]
        if not dry:
            checks.check(metric_1 > wl.floor,
                         f"final metric_1 {metric_1:.4f} not above floor {wl.floor}")
    finally:
        if inst:
            inst.restore()


def run_gradcheck(wl: Gradcheck, dry: bool, tracer, result: dict,
                  checks: Checks) -> None:
    import numpy  # noqa: F401  (numpy's own import is not fedmmg's set-up)
    start = time.perf_counter()
    from fedmmg import verify
    result["setup_s"] = time.perf_counter() - start
    result["setup_rss_mb"] = _rss_mb()
    inst = tr.install(tracer) if tracer else None
    try:
        reports = []
        with tracer.root() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            for seeds, h, tasks, entries in (wl.dry_calls if dry else wl.calls):
                reports.append(verify.run_gradcheck_suite(
                    seeds=seeds, h=h, tasks=tasks, max_entries=entries))
            run_s = time.perf_counter() - start
    finally:
        if inst:
            inst.restore()
    result["run_s"] = run_s
    result["rounds_ms"] = [1000.0 * run_s]  # one pass of the composition
    result["max_rel_err"] = max(r["max_rel_err"] for r in reports)
    for rep in reports:
        checks.check(rep["passed"] and rep["max_rel_err"] <= wl.tolerance,
                     f"gradcheck {rep['h']}: max_rel_err {rep['max_rel_err']:.3e}",
                     count=rep["checks"])
    result["digest"] = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()


def _write_spans(tracer, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("run\tid\tparent\tthread\tname\tstart\tend\n")
        for s in tracer.spans:
            fh.write(f"{tracer.run_id}\t{s.sid}\t{s.parent or ''}\t{s.thread}\t"
                     f"{s.name}\t{s.start!r}\t{s.end!r}\n")


def run_child(spec: dict) -> dict:
    """Run one workload in this process and return its result record."""
    wl = WORKLOADS[spec["workload"]]
    tracer = tr.Tracer(spec["run_id"]) if spec["trace"] else None
    checks = Checks()
    result: dict = {"run_id": spec["run_id"], "traced": bool(spec["trace"])}
    if isinstance(wl, Federated):
        run_federated(wl, spec["seed"], spec["dry"], tracer, spec["workdir"],
                      result, checks)
    else:
        run_gradcheck(wl, spec["dry"], tracer, result, checks)
    result["rss_mb"] = _rss_mb()
    result["machine"] = machine()
    result["attempted"], result["failed"] = checks.attempted, checks.failed
    result["failures"] = checks.failures
    if tracer:
        layers = tr.summarize(tracer)
        layers["graphdata.setup_peak_rss_mb"] = result.get("setup_rss_mb", 0.0)
        layers["federation.calibration_ms"] = result.get("calibration_ms", 0.0)
        layers["federation.client_failures"] = result.get("client_failures", 0.0)
        result["layers"] = layers
        result["self_sum_ms"] = tr.run_self_sum_ms(tracer.spans)
        result["spans"] = len(tracer.spans)
        _write_spans(tracer, os.path.join(spec["workdir"], "spans.tsv"))
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.makedirs(spec["workdir"], exist_ok=True)
    result = run_child(spec)
    with open(os.path.join(spec["workdir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
