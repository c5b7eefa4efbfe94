"""Record a set of benchmark runs: every run's metrics and samples, the
medians, quartiles and spreads, pooled round percentiles and output digests.

    python3 perfbench/record.py --workload smoke-nc --seeds 0,0,0,0,0 \
        --out /tmp/smoke-nc-seed0.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def spread(values: list[float]) -> dict:
    """Median, quartiles (Python's default 'exclusive' method) and the
    quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "values": values}


def _bounds() -> dict:
    with open(os.path.join(run.REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"]}


def record_set(workload: str, seeds: list[int], seconds: float, trace: bool) -> dict:
    reports = []
    for seed in seeds:
        rep = run.measure(workload, seed, seconds, trace)
        print(run.result_line(rep), flush=True)
        reports.append(rep)
    metrics = {name: spread([r["metrics"][name] for r in reports if "metrics" in r])
               for name in reports[0].get("metrics", {})}
    by_seed: dict[int, set] = {}
    for r in reports:
        by_seed.setdefault(r["seed"], set()).add(r["digest"])
    out = {
        "workload": workload, "seeds": seeds, "seconds": seconds, "trace": trace,
        "machine": reports[0]["machine"],
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "failures": [f for r in reports for f in r["failures"]],
        "digests_agree_per_seed": all(len(d) == 1 for d in by_seed.values()),
        "digests": {str(s): sorted(d) for s, d in by_seed.items()},
        "metrics": metrics,
        "runs": [{k: r.get(k) for k in ("seed", "children", "wall_s", "failed",
                                         "metrics", "samples", "digest")}
                 for r in reports],
    }
    if not trace:
        rounds = [x for r in reports for x in r["samples"]["rounds_ms"]]
        out["pooled_rounds_ms"] = {"p50": run.percentile_report(rounds, 0.5),
                                   "p90": run.percentile_report(rounds, 0.9)}
        out["highest_supported_percentile"] = _highest_supported(rounds)
        bounds = _bounds()
        out["spread_below_a_third_of_bound"] = {
            name: m["iqr_share"] < bounds[name]["bound"] / 3
            for name, m in metrics.items() if name != "setup_s"}
    else:
        out["self_sum_ms"] = [r.get("self_sum_ms") for r in reports]
        out["traced_run_ms"] = [r.get("traced_run_ms") for r in reports]
    return out


def _highest_supported(samples: list[float]) -> float | None:
    """Highest whole percentile with at least ten samples beyond it."""
    for pct in range(99, 0, -1):
        if run.beyond(samples, pct / 100.0) >= run.MIN_BEYOND:
            return pct
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one run each")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    result = record_set(args.workload, seeds, args.seconds, args.trace)
    text = json.dumps(result, indent=1, sort_keys=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
