"""The benchmark's workloads: what each child process builds and runs.

Every workload drives fedmmg through its public functions only
(``config.assemble_run``, ``federation.run_federation``,
``cli.write_outputs``, ``verify.run_gradcheck_suite``). The workload seed
becomes the experiment seed of the federated workloads; the gradient-check
suite fixes its own seeds, so the workload seed does not reach it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Federated:
    """One federated experiment per child: one set-up, then every round."""

    config: dict
    floor: float                 # final-round metric_1 must stay above this
    dry_config: dict = field(default_factory=dict)

    @property
    def workers(self) -> int:
        return self.config["federation"]["workers"]

    def experiment(self, seed: int, dry: bool) -> dict:
        doc = _merge(self.config, self.dry_config) if dry else self.config
        return {**doc, "seed": seed}


@dataclass(frozen=True)
class Gradcheck:
    """The criterion-2 composition of the gradient-check suite, scaled down:
    ``nc`` seeds at h=1e-5, then ``lp`` and ``mr`` seeds at h=1e-4."""

    calls: tuple                 # (seeds, h, tasks, max_entries) per suite call
    dry_calls: tuple
    workers: int = 1
    tolerance: float = 1e-3


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, value in extra.items():
        out[key] = {**out.get(key, {}), **value} if isinstance(value, dict) else value
    return out


# Why each workload is here, and what it stresses: README.md, "Workloads".
# scale-lp splits near-evenly (alpha 1000) so client sizes, and with them
# time and memory, do not swing with the seed. One local epoch and four
# rounds give each child five round samples that share one calibration.
# gradcheck probes 4 entries per parameter (criterion 2 probes 12), so
# about ten passes fit in one run.
# gradcheck is not a workload of BENCHMARK.json (README.md says why), so a
# traced run of this workload also runs one traced gradcheck child: the
# layers only the gradient-check suite reaches are then still measured.
SUITE_HOST = "smoke-nc"

WORKLOADS = {
    "smoke-nc": Federated(
        config={
            "task": "nc",
            "data": {"kind": "sbm", "blocks": 4, "nodes_per_block": 50,
                     "p_in": 0.3, "p_out": 0.05, "d_img": 512, "d_txt": 768},
            "missingness": {"rate": 0.3, "mode": "node", "p_mask": 0.3},
            "federation": {"clients": 4, "alpha": 0.5, "rounds": 10,
                           "mode": "reliability", "workers": 2},
            "model": {"hidden_dim": 32, "local_epochs": 3},
        },
        floor=0.6,
        dry_config={"data": {"nodes_per_block": 10},
                    "federation": {"rounds": 2}},
    ),
    "scale-lp": Federated(
        config={
            "task": "lp",
            "data": {"kind": "sbm", "blocks": 4, "nodes_per_block": 1000,
                     "p_in": 0.01, "p_out": 0.001, "d_img": 512, "d_txt": 768},
            "missingness": {"rate": 0.3, "mode": "node", "p_mask": 0.3},
            "federation": {"clients": 2, "alpha": 1000.0, "rounds": 5,
                           "mode": "reliability", "workers": 1},
            "model": {"hidden_dim": 32, "local_epochs": 1},
        },
        floor=0.55,
        dry_config={"data": {"nodes_per_block": 40, "p_in": 0.2, "p_out": 0.02}},
    ),
    "gradcheck": Gradcheck(
        calls=((1, 1e-5, ("nc",), 4), (1, 1e-4, ("lp", "mr"), 4)),
        dry_calls=((1, 1e-5, ("nc",), 1), (1, 1e-4, ("lp", "mr"), 1)),
    ),
}
