"""Experiment configuration: defaults, validation, file/flag parsing.

Config files are JSON with nested sections. Every value is type-checked,
then range-checked, before a run starts; unknown keys are rejected by name.
CLI flags override file values. A parsed config serializes back to an equal
config.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass, field

from .federation import (FederationSetup, ServerConfig, TrainConfig,
                         fedavg_zero_setup, make_client_states)
from .graphdata import (MISSING_MODES, ClientPartition, MissingnessConfig,
                        MultimodalGraph, apply_natural_missingness,
                        empirical_missing_fraction, generate_sbm_multimodal,
                        load_graph, partition_dirichlet)
from .model import ModelConfig
from .tasks import TASK_KINDS, TaskSpec

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
    # client lanes: min(workers, clients, cores) resident worker processes
    # (one lane runs in-process); outputs do not depend on it
    workers: int = 1


@dataclass
class ModelSection:
    hidden_dim: int = 256
    heads: int = 4
    neighbor_cap: int = 16
    warmup_rounds: int = 30
    router_temperature: float = 1.0
    gnn_layers: int = 2
    lr: float = 0.005
    local_epochs: int = 3
    clip_norm: float = 1.0
    lambda_rec: float | None = None   # task default when unset
    lambda_align: float = 0.01
    lambda_route: float = 0.01
    lambda_bal: float = 0.5


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
               all(0.0 <= r < 1.0 for r in m.per_client_rates))

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
    """Load a JSON config file (missing/empty => all defaults) and apply
    flag overrides on top. Overrides use dotted keys, e.g. federation.mode."""
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
    cfg = ExperimentConfig()
    _fill_section(cfg, doc, "<root>")
    for dotted, value in (overrides or {}).items():
        _apply_override(cfg, dotted, value)
    validate_config(cfg)
    return cfg


def _apply_override(cfg: ExperimentConfig, dotted: str, value) -> None:
    target = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if not hasattr(target, part):
            raise ConfigError(f"unknown key {dotted!r}")
        target = getattr(target, part)
    if not hasattr(target, parts[-1]):
        raise ConfigError(f"unknown key {dotted!r}")
    setattr(target, parts[-1], value)


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
    d, m = cfg.data, cfg.missingness
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
        mcfg = MissingnessConfig(rate=m.rate, mode=m.mode, seed=cfg.seed,
                                 per_client_rates=m.per_client_rates)
        graph.set_natural_mask(apply_natural_missingness(graph, mcfg, partition))
    return graph, partition


def assemble_run(cfg: ExperimentConfig) -> RunAssembly:
    graph, partition = build_data(cfg)
    if cfg.task == "mr" and graph.num_modalities < 2:
        raise ConfigError("task 'mr' needs a graph with at least two modalities")
    if cfg.task == "nc" and graph.labels is None:
        raise ConfigError("task 'nc' needs a graph with node labels")

    labels = graph.labels
    num_classes = int(labels.max()) + 1 if labels is not None else None
    baseline = cfg.federation.mode == "fedavg-zero"
    model_cfg = ModelConfig(
        modalities=[(mod.name, mod.dim) for mod in graph.modalities],
        hidden_dim=cfg.model.hidden_dim, heads=cfg.model.heads,
        neighbor_cap=cfg.model.neighbor_cap,
        warmup_rounds=cfg.model.warmup_rounds,
        router_temperature=cfg.model.router_temperature,
        gnn_layers=cfg.model.gnn_layers, num_classes=num_classes,
        lambda_bal=cfg.model.lambda_bal)
    task_spec = TaskSpec.for_kind(cfg.task, cfg.model.lambda_rec,
                                  cfg.model.lambda_align, cfg.model.lambda_route)
    server_cfg = ServerConfig(
        rounds=cfg.federation.rounds, fraction=cfg.federation.fraction,
        mode="fedavg" if baseline else cfg.federation.mode,
        eta_u=cfg.federation.eta_u, eta_e=cfg.federation.eta_e,
        eta_rho=cfg.federation.eta_rho, eps=cfg.federation.eps,
        workers=cfg.federation.workers)
    train_cfg = TrainConfig(lr=cfg.model.lr, local_epochs=cfg.model.local_epochs,
                            clip_norm=cfg.model.clip_norm,
                            p_mask=cfg.missingness.p_mask)
    clients = make_client_states(graph, partition, model_cfg, cfg.task, cfg.seed)
    setup = FederationSetup(clients=clients, model_cfg=model_cfg,
                            task_spec=task_spec, server_cfg=server_cfg,
                            train_cfg=train_cfg, seed=cfg.seed)
    if baseline:
        setup = fedavg_zero_setup(setup)
    return RunAssembly(setup=setup,
                       missing_fraction=empirical_missing_fraction(graph.natural_mask))
