"""Command-line entry point.

Subcommands: gen-data, run, gradcheck, theory-check, metrics-oracle.
Exit codes: 0 success, 1 validation error (a malformed command line
included), 2 run failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from collections.abc import Callable

import numpy as np

from .config import (RUN_MODES, ConfigError, ExperimentConfig, assemble_run, build_data,
                     parse_config)
from .federation import (FederationAborted, RoundHistory, RoundRecord, run_federation,
                         worker_count)
from .graphdata import GraphFileError, save_graph
from .tasks import TASK_KINDS
from .verify import (DEFAULT_GRAD_SEEDS, run_gradcheck_suite, run_metrics_oracle,
                     run_theory_check)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUN = 2
EXIT_VERIFY = 3

# The metrics.csv columns in order: each one's name and its value in a
# round's record. np.min/np.max, unlike min/max, return a NaN omega wherever
# it sits, so _check_finite sees it.
COLUMNS: tuple[tuple[str, Callable[[RoundRecord], float]], ...] = (
    ("round", lambda r: r.round_index),
    ("client_frac", lambda r: r.client_frac),
    ("omega_min", lambda r: np.min(list(r.omega.values()))),
    ("omega_max", lambda r: np.max(list(r.omega.values()))),
    ("loss_task", lambda r: r.mean_loss.task),
    ("loss_rec", lambda r: r.mean_loss.rec),
    ("loss_align", lambda r: r.mean_loss.align),
    ("loss_route", lambda r: r.mean_loss.route),
    ("metric_1", lambda r: r.metrics.values[0]),
    ("metric_2", lambda r: r.metrics.values[1]),
)


def _cell(value: float) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def metrics_csv_lines(history: RoundHistory) -> list[str]:
    return [",".join(name for name, _ in COLUMNS)] + [
        ",".join(_cell(value(rec)) for _, value in COLUMNS) for rec in history.records]


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
        if not np.isfinite([value(rec) for _, value in COLUMNS]).all():
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
    self_kib, child_kib = (resource.getrusage(who).ru_maxrss  # KiB on Linux
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    workers = (f", largest worker {child_kib / 1024:.1f} MB"
               if worker_count(assembly.setup) > 1 else "")
    print(f"completed {len(history.records)} rounds in {sum(history.timings_ms):.0f} ms "
          f"(outputs in {out_dir}); peak RSS {self_kib / 1024:.1f} MB{workers}",
          file=sys.stderr)
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
                              seed=args.seed)
    return _emit_report(report, args.out, "theory-check")


def cmd_metrics_oracle(args: argparse.Namespace) -> int:
    report = run_metrics_oracle(instances=args.instances, seed=args.seed)
    return _emit_report(report, args.out, "metrics-oracle")


def _verification_seed(text: str) -> int:
    """A verification command's ``--seed``. numpy seeds no generator with a
    negative integer, so one is refused here, by the flag's name."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


class _Parser(argparse.ArgumentParser):
    """A parser whose errors exit 1 with one line, as invalid input does."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedmmg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic graph file")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_gen_data)

    p_run = sub.add_parser("run", help="run a federated experiment")
    common(p_run)
    p_run.add_argument("--workers", type=int, default=None,
                       help="processes that run the client jobs, capped at the "
                            "client and core counts; outputs do not depend on it")
    p_run.add_argument("--mode", type=str, default=None, choices=RUN_MODES)
    p_run.add_argument("--task", type=str, default=None, choices=TASK_KINDS)
    p_run.set_defaults(fn=cmd_run)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--seeds", type=int, default=DEFAULT_GRAD_SEEDS)
    p_grad.add_argument("--out", type=str, default=None)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_theory = sub.add_parser("theory-check", help="fusion bound Monte Carlo sweep")
    p_theory.add_argument("--configs", type=int, default=1000)
    p_theory.add_argument("--trials", type=int, default=10000)
    p_theory.add_argument("--seed", type=_verification_seed, default=0)
    p_theory.add_argument("--out", type=str, default=None)
    p_theory.set_defaults(fn=cmd_theory_check)

    p_oracle = sub.add_parser("metrics-oracle", help="metric implementations vs brute force")
    p_oracle.add_argument("--instances", type=int, default=100)
    p_oracle.add_argument("--seed", type=_verification_seed, default=0)
    p_oracle.add_argument("--out", type=str, default=None)
    p_oracle.set_defaults(fn=cmd_metrics_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, GraphFileError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FederationAborted, OSError) as exc:
        # an OSError is an output that cannot be written; a file that
        # cannot be read raises ConfigError or GraphFileError above
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    except MemoryError as exc:  # one raised in a worker is re-raised here too
        print(f"run failed: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUN
