"""Command-line entry point.

Subcommands: gen-data, run, gradcheck, theory-check, metrics-oracle.
Exit codes: 0 success, 1 validation error, 2 run failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, assemble_run, build_data, parse_config
from .federation import FederationAborted, RoundHistory, run_federation
from .graphdata import GraphFileError, save_graph
from .verify import run_gradcheck_suite, run_metrics_oracle, run_theory_check

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUN = 2
EXIT_VERIFY = 3

CSV_HEADER = ("round,client_frac,omega_min,omega_max,loss_task,loss_rec,"
              "loss_align,loss_route,metric_1,metric_2,wall_ms")


def _num(x: float) -> str:
    return repr(float(x))


def metrics_csv_lines(history: RoundHistory) -> list[str]:
    lines = [CSV_HEADER]
    for rec in history.records:
        omegas = list(rec.omega.values())
        lines.append(",".join([
            str(rec.round_index), _num(rec.client_frac),
            _num(min(omegas)), _num(max(omegas)),
            _num(rec.mean_loss.task), _num(rec.mean_loss.rec),
            _num(rec.mean_loss.align), _num(rec.mean_loss.route),
            _num(rec.metrics.values[0]), _num(rec.metrics.values[1]),
            str(rec.wall_ms),
        ]))
    return lines


def jsonl_lines(history: RoundHistory) -> list[str]:
    return [json.dumps(rec.to_json_dict(), sort_keys=True)
            for rec in history.records]


def summary_dict(cfg: ExperimentConfig, history: RoundHistory,
                 missing_fraction: float) -> dict:
    last = history.records[-1].to_json_dict() if history.records else None
    best = history.best_record()
    cal = history.calibration
    pearson = None
    if cal and cal["uncertainty"].size >= 2 and np.std(cal["uncertainty"]) > 0 \
            and np.std(cal["norm_err"]) > 0:
        pearson = float(np.corrcoef(cal["uncertainty"], cal["norm_err"])[0, 1])
    return {
        "mode": history.mode,
        "task": history.task,
        "config": cfg.to_dict(),
        "empirical_missing_fraction": missing_fraction,
        "last_round": last,
        "best_round": best.to_json_dict() if best else None,
        "calibration_pearson": pearson,
    }


def _check_finite(history: RoundHistory) -> None:
    for rec in history.records:
        values = [rec.client_frac, rec.mean_loss.task, rec.mean_loss.rec,
                  rec.mean_loss.align, rec.mean_loss.route,
                  rec.metrics.values[0], rec.metrics.values[1],
                  *rec.omega.values()]
        if not np.isfinite(values).all():
            raise FederationAborted(f"non-finite value in round {rec.round_index}")


def write_outputs(out_dir: str, cfg: ExperimentConfig, history: RoundHistory,
                  missing_fraction: float) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _check_finite(history)
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write("\n".join(metrics_csv_lines(history)) + "\n")
    with open(os.path.join(out_dir, "rounds.jsonl"), "w") as fh:
        for line in jsonl_lines(history):
            fh.write(line + "\n")
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary_dict(cfg, history, missing_fraction), fh,
                  sort_keys=True, indent=2)
        fh.write("\n")


def _overrides_from_args(args: argparse.Namespace) -> dict:
    over: dict = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        over["out"] = args.out
    if getattr(args, "workers", None) is not None:
        over["federation.workers"] = args.workers
    if getattr(args, "mode", None) is not None:
        over["federation.mode"] = args.mode
    if getattr(args, "task", None) is not None:
        over["task"] = args.task
    return over


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, _overrides_from_args(args))
    out = cfg.out or "graph.json"
    graph, _partition = build_data(cfg)
    target = out if out.endswith(".json") else os.path.join(out, "graph.json")
    if os.path.dirname(target):
        os.makedirs(os.path.dirname(target), exist_ok=True)
    save_graph(graph, target)
    print(f"wrote {target} ({graph.n} nodes, {len(graph.edges)} edges)")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, _overrides_from_args(args))
    assembly = assemble_run(cfg)
    try:
        history = run_federation(assembly.setup)
        out_dir = cfg.out or "out"
        write_outputs(out_dir, cfg, history, assembly.missing_fraction)
    except (FederationAborted, ValueError) as exc:
        # the configuration was accepted above; anything raised now is the
        # run's own failure
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    for rec, ms in zip(history.records, history.timings_ms):
        print(f"round {rec.round_index}: {ms:.1f} ms", file=sys.stderr)
    if history.timings_ms:
        total = sum(history.timings_ms)
        print(f"completed {len(history.records)} rounds in {total:.0f} ms "
              f"(outputs in {out_dir})", file=sys.stderr)
    last = history.records[-1] if history.records else None
    if last is not None:
        m = last.metrics
        print(f"final {m.names[0]}={m.values[0]:.4f} {m.names[1]}={m.values[1]:.4f}")
    return EXIT_OK


def _emit_report(report: dict, out: str | None, label: str) -> int:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        if os.path.dirname(out):
            os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if not report["passed"]:
        print(f"{label} FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradcheck_suite(seeds=args.seeds)
    return _emit_report(report, args.out, "gradcheck")


def cmd_theory_check(args: argparse.Namespace) -> int:
    report = run_theory_check(configs=args.configs, trials=args.trials,
                              seed=args.seed or 0)
    return _emit_report(report, args.out, "theory-check")


def cmd_metrics_oracle(args: argparse.Namespace) -> int:
    report = run_metrics_oracle(instances=args.instances, seed=args.seed or 0)
    return _emit_report(report, args.out, "metrics-oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmmg",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_run_flags=True):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if with_run_flags:
            p.add_argument("--workers", type=int, default=None,
                           help="client worker processes, capped at the client and "
                                "core counts; outputs do not depend on it")
            p.add_argument("--mode", type=str, default=None,
                           choices=["reliability", "fedavg", "fedavg-zero"])
            p.add_argument("--task", type=str, default=None,
                           choices=["nc", "lp", "mr"])

    p_gen = sub.add_parser("gen-data", help="generate a synthetic graph file")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_gen_data)

    p_run = sub.add_parser("run", help="run a federated experiment")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--seeds", type=int, default=20)
    p_grad.add_argument("--out", type=str, default=None)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_theory = sub.add_parser("theory-check", help="fusion bound Monte Carlo sweep")
    p_theory.add_argument("--configs", type=int, default=1000)
    p_theory.add_argument("--trials", type=int, default=10000)
    p_theory.add_argument("--seed", type=int, default=0)
    p_theory.add_argument("--out", type=str, default=None)
    p_theory.set_defaults(fn=cmd_theory_check)

    p_oracle = sub.add_parser("metrics-oracle", help="metric implementations vs brute force")
    p_oracle.add_argument("--instances", type=int, default=100)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", type=str, default=None)
    p_oracle.set_defaults(fn=cmd_metrics_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GraphFileError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FederationAborted as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
