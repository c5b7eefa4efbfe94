"""The seed-3 output matrix, pinned byte for byte.

Nine small experiments (tasks nc, lp, mr x modes reliability, fedavg,
fedavg-zero; SBM 3 blocks x 12 nodes, d_img 10, d_txt 9; 3 clients,
3 rounds, hidden 8, warm-up 2, one worker, seed 3) run in process, and the
lines of their ``metrics.csv`` and ``rounds.jsonl`` must equal those in
``fixtures/seed3_outputs.json``. Their ``summary.json`` calibration Pearson
must match it to a relative 1e-12.

The bytes depend on the platform as well as on the code: on the kernel
numpy's bundled OpenBLAS picked for the CPU and on numpy's active SIMD
dispatch targets, either of which can change how a sum is rounded. The
fixture records both (``platform_signature``), and a mismatch names the
fixture's platform and this one's.

A change that alters these outputs on purpose regenerates the fixture in the
same commit, and says which outputs moved and why. From the root of the
repository:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import ctypes
import json
import os

import pytest

from fedmmg.cli import jsonl_lines, metrics_csv_lines, summary_dict
from fedmmg.config import ExperimentConfig, assemble_run, parse_config
from fedmmg.federation import run_federation

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                       "seed3_outputs.json")
TASKS = ("nc", "lp", "mr")
MODES = ("reliability", "fedavg", "fedavg-zero")
_OVERRIDES = {
    "seed": 3, "data.blocks": 3, "data.nodes_per_block": 12,
    "data.d_img": 10, "data.d_txt": 9, "federation.clients": 3,
    "federation.rounds": 3, "federation.workers": 1,
    "model.hidden_dim": 8, "model.warmup_rounds": 2,
}


def platform_signature() -> dict:
    """The OpenBLAS core type and numpy's active dispatch targets (None
    where this numpy does not say)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return {"openblas_core": None, "numpy_dispatch": None}
    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        core = None
    else:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return {"openblas_core": core,
            "numpy_dispatch": [target for target in umath.__cpu_dispatch__
                               if umath.__cpu_features__.get(target)]}


def seed3_config(task: str, mode: str) -> ExperimentConfig:
    return parse_config(None, {**_OVERRIDES, "task": task, "federation.mode": mode})


def run_outputs(task: str, mode: str) -> dict:
    cfg = seed3_config(task, mode)
    history = run_federation(assemble_run(cfg).setup)
    return {"metrics.csv": metrics_csv_lines(history),
            "rounds.jsonl": jsonl_lines(history),
            "calibration_pearson":
                summary_dict(cfg, history, 0.0)["calibration_pearson"]}


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("task", TASKS)
def test_outputs_match_the_pinned_lines(pinned, task, mode):
    outputs = run_outputs(task, mode)
    expected = pinned[f"{task}/{mode}"]
    here = platform_signature()
    where = f"pinned on {({key: pinned[key] for key in here})}, running on {here}"
    for name in ("metrics.csv", "rounds.jsonl"):
        assert outputs[name] == expected[name], f"{task}/{mode} {name}; {where}"
    if expected["calibration_pearson"] is None:
        assert outputs["calibration_pearson"] is None
    else:
        assert outputs["calibration_pearson"] == pytest.approx(
            expected["calibration_pearson"], rel=1e-12, abs=0.0), where


if __name__ == "__main__":
    doc = {f"{task}/{mode}": run_outputs(task, mode)
           for task in TASKS for mode in MODES} | platform_signature()
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
