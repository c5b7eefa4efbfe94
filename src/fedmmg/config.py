"""Experiment configuration: defaults, validation, file/flag parsing.

Config files are JSON with nested sections. Every value is type-checked,
then range-checked, before a run starts; unknown keys are rejected by name.
Every range check lives in ``validate_config``: the run reads the validated
config itself, through the setup ``assemble_run`` builds.
CLI flags are written into the file's document before it is read, so they
override file values. A parsed config serializes back to an equal config.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field

from .federation import FederationSetup, build_client_data
from .graphdata import (MISSING_MODES, ClientPartition, MultimodalGraph,
                        apply_natural_missingness, client_subgraphs,
                        empirical_missing_fraction, generate_sbm_multimodal, load_graph,
                        partition_dirichlet)
from .model import ModelConfig, ModelSection
from .tasks import TASK_KINDS

RUN_MODES = ("reliability", "fedavg", "fedavg-zero")


class ConfigError(ValueError):
    """Invalid or unknown configuration entry."""


@dataclass
class DataSection:
    kind: str = "sbm"              # sbm | file
    path: str | None = None
    blocks: int = 4
    nodes_per_block: int = 50
    p_in: float = 0.3
    p_out: float = 0.05
    d_img: int = 512
    d_txt: int = 768
    noise: float = 2.0
    latent_dim: int = 16


@dataclass
class MissingnessSection:
    rate: float = 0.3
    mode: str = "node"
    p_mask: float = 0.3
    per_client_rates: list[float] | None = None


@dataclass
class FederationSection:
    clients: int = 4
    alpha: float = 0.5
    rounds: int = 30
    fraction: float = 1.0
    mode: str = "reliability"
    eta_u: float = 1.0
    eta_e: float = 1.0
    eta_rho: float = 1.0
    eps: float = 1e-12
    # min(workers, clients, cores) processes run the client jobs (one runs
    # them in-process); outputs do not depend on it
    workers: int = 1


@dataclass
class ExperimentConfig:
    seed: int = 0
    task: str = "nc"
    out: str | None = None
    data: DataSection = field(default_factory=DataSection)
    missingness: MissingnessSection = field(default_factory=MissingnessSection)
    federation: FederationSection = field(default_factory=FederationSection)
    model: ModelSection = field(default_factory=ModelSection)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        cfg = cls()
        _fill_section(cfg, doc, "<root>")
        validate_config(cfg)
        return cfg


_SECTIONS = {"data": DataSection, "missingness": MissingnessSection,
             "federation": FederationSection, "model": ModelSection}


def _fill_section(target, doc: dict, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    fields = vars(target)
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in _SECTIONS:
            _fill_section(getattr(target, key), value, key)
        else:
            setattr(target, key, value)


def _type_ok(value, hint) -> bool:
    """isinstance against a field annotation. A bool is no number, and an
    int is accepted where a float is expected."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_type_ok(value, h) for h in args)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_type_ok(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _check_types(target, where: str = "") -> None:
    for key, hint in typing.get_type_hints(type(target)).items():
        value = getattr(target, key)
        if not _type_ok(value, hint):
            raise ConfigError(f"wrong type for {where + key!r}: expected "
                              f"{getattr(hint, '__name__', hint)}, "
                              f"got {type(value).__name__}")
        if key in _SECTIONS:
            _check_types(value, f"{key}.")
        elif isinstance(value, float):  # json reads Infinity and NaN
            _check(where + key, math.isfinite(value))


def _check(name: str, ok: bool) -> None:
    if not ok:
        raise ConfigError(f"value out of range for {name!r}")


def validate_config(cfg: ExperimentConfig) -> None:
    _check_types(cfg)
    _check("seed", 0 <= cfg.seed < 2 ** 64)
    _check("task", cfg.task in TASK_KINDS)

    d = cfg.data
    _check("data.kind", d.kind in ("sbm", "file"))
    if d.kind == "file":
        _check("data.path", bool(d.path))
    _check("data.blocks", d.blocks >= 1)
    _check("data.nodes_per_block", d.nodes_per_block >= 2)
    _check("data.p_in", 0.0 <= d.p_out <= d.p_in <= 1.0)
    _check("data.d_img", d.d_img >= 1)
    _check("data.d_txt", d.d_txt >= 1)
    _check("data.noise", d.noise >= 0.0)
    _check("data.latent_dim", d.latent_dim >= 1)

    m = cfg.missingness
    _check("missingness.rate", 0.0 <= m.rate < 1.0)
    _check("missingness.mode", m.mode in MISSING_MODES)
    _check("missingness.p_mask", 0.0 <= m.p_mask < 1.0)
    if m.per_client_rates is not None:
        _check("missingness.per_client_rates",
               len(m.per_client_rates) == cfg.federation.clients
               and all(0.0 <= r < 1.0 for r in m.per_client_rates))

    f = cfg.federation
    _check("federation.clients", f.clients >= 1)
    _check("federation.alpha", f.alpha > 0.0)
    _check("federation.rounds", f.rounds >= 0)
    _check("federation.fraction", 0.0 < f.fraction <= 1.0)
    _check("federation.mode", f.mode in RUN_MODES)
    _check("federation.eta_u", f.eta_u >= 0.0)
    _check("federation.eta_e", f.eta_e >= 0.0)
    _check("federation.eta_rho", f.eta_rho >= 0.0)
    _check("federation.eps", f.eps > 0.0)
    _check("federation.workers", f.workers >= 1)

    mo = cfg.model
    _check("model.hidden_dim", mo.hidden_dim >= 4)
    _check("model.heads", mo.heads >= 1 and mo.hidden_dim % mo.heads == 0)
    _check("model.neighbor_cap", mo.neighbor_cap >= 0)
    _check("model.warmup_rounds", mo.warmup_rounds >= 0)
    _check("model.router_temperature", mo.router_temperature > 0.0)
    _check("model.gnn_layers", mo.gnn_layers in (1, 2))
    _check("model.lr", mo.lr >= 0.0)
    _check("model.local_epochs", mo.local_epochs >= 0)
    _check("model.clip_norm", mo.clip_norm > 0.0)
    if mo.lambda_rec is not None:
        _check("model.lambda_rec", mo.lambda_rec >= 0.0)
    _check("model.lambda_align", mo.lambda_align >= 0.0)
    _check("model.lambda_route", mo.lambda_route >= 0.0)
    _check("model.lambda_bal", mo.lambda_bal >= 0.0)


def parse_config(path: str | None = None, overrides: dict | None = None
                 ) -> ExperimentConfig:
    """Load a JSON config file (missing/empty => all defaults), write the
    flag overrides (dotted keys, e.g. federation.mode) into it, and read it."""
    doc: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read().strip()
            doc = json.loads(text) if text else {}
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    for dotted, value in (overrides or {}).items():
        *path, key = dotted.split(".")
        section = doc
        for part in path:
            section = section.setdefault(part, {}) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            raise ConfigError(f"cannot set {dotted!r}: its section is not an object")
        section[key] = value
    return ExperimentConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# Assembly: config -> data -> federation setup
# ---------------------------------------------------------------------------


@dataclass
class RunAssembly:
    setup: FederationSetup
    missing_fraction: float


def build_data(cfg: ExperimentConfig) -> tuple[MultimodalGraph, ClientPartition]:
    """The graph with its natural mask applied, and its client partition.

    A graph file brings its own mask; an SBM graph draws one here. Both
    ``gen-data`` and ``assemble_run`` build their data through this."""
    d = cfg.data
    if d.kind == "file":
        graph = load_graph(d.path)
    else:
        graph = generate_sbm_multimodal(
            blocks=d.blocks, nodes_per_block=d.nodes_per_block, p_in=d.p_in,
            p_out=d.p_out, d_img=d.d_img, d_txt=d.d_txt, noise=d.noise,
            seed=cfg.seed, latent_dim=d.latent_dim)
    partition = partition_dirichlet(graph, cfg.federation.clients,
                                    cfg.federation.alpha, cfg.seed)
    if d.kind == "sbm":
        graph.set_natural_mask(apply_natural_missingness(
            graph, cfg.missingness, cfg.seed, partition))
    return graph, partition


def assemble_run(cfg: ExperimentConfig) -> RunAssembly:
    """Validate ``cfg`` and build the data and the setup the run reads it
    through; ``fedavg-zero`` turns on ``ModelConfig.bypass_generation``."""
    validate_config(cfg)
    graph, partition = build_data(cfg)
    if cfg.task == "mr" and graph.num_modalities < 2:
        raise ConfigError("task 'mr' needs a graph with at least two modalities")
    if cfg.task == "nc" and graph.labels is None:
        raise ConfigError("task 'nc' needs a graph with node labels")
    if cfg.task == "lp" and graph.edges.shape[0] == 0:
        raise ConfigError("task 'lp' needs a graph with at least one edge")
    if cfg.task == "lp" and not graph.has_non_edge:
        raise ConfigError("task 'lp' needs a graph with at least one non-edge")

    labels = graph.labels
    num_classes = int(labels.max()) + 1 if labels is not None else None
    model_cfg = ModelConfig(
        **asdict(cfg.model), task=cfg.task,
        modalities=[(mod.name, mod.dim) for mod in graph.modalities],
        num_classes=num_classes, bypass_generation=cfg.federation.mode == "fedavg-zero")
    clients = [build_client_data(cid, sub, cfg.task, cfg.seed)
               for cid, sub in enumerate(client_subgraphs(graph, partition.node_lists))]
    setup = FederationSetup(clients=clients, cfg=cfg, model_cfg=model_cfg)
    return RunAssembly(setup=setup,
                       missing_fraction=empirical_missing_fraction(graph.natural_mask))
