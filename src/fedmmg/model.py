"""Model assembly: parameters, the per-mask-draw plan, the staged forward pass.

A single parameter store covers both operating modes. The full pipeline
runs encoding, anchor-guided generation, uncertainty-routed expert fusion,
and refinement; the bypass mode (used by the zero-fill baseline and for
paired comparisons) keeps only the shared backbone: encoders, adapters,
conv stack, mean fusion, refinement, task heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoding, fusion, generation
from . import numerics as nx
from .graphdata import MaskSet, MultimodalGraph, missing_ratios
from .numerics import ParamStore, Tensor, const, glorot, param_rng
from .tasks import refine

MASK_EMBED_DIM = 16      # width of a query's mask-pattern embedding
MODALITY_EMBED_DIM = 16  # width of a query's target-modality embedding


@dataclass
class ModelSection:
    """The config file's ``model`` section; each setting's default lives here."""
    hidden_dim: int = 256
    heads: int = 4
    neighbor_cap: int = 16
    warmup_rounds: int = 30
    router_temperature: float = 1.0
    gnn_layers: int = 2
    lr: float = 0.005
    local_epochs: int = 3
    clip_norm: float = 1.0
    lambda_rec: float | None = None   # unset: the task's default, see ModelConfig.rec_weight
    lambda_align: float = 0.01
    lambda_route: float = 0.01
    lambda_bal: float = 0.5


@dataclass(kw_only=True)
class ModelConfig(ModelSection):
    """A model section plus the task, the data's shape and the mode's bypass."""
    task: str
    modalities: list[tuple[str, int]]
    num_classes: int | None = None
    bypass_generation: bool = False

    @property
    def estimator_hidden(self) -> int:
        return max(4, self.hidden_dim // 2)

    @property
    def rec_weight(self) -> float:
        """``lambda_rec``, or the task's default (declared only here) when unset."""
        default = 0.5 if self.task == "mr" else 0.05
        return default if self.lambda_rec is None else self.lambda_rec


def _add_linear(params: dict, seed: int, name: str, fan_in: int,
                fan_out: int, bias: bool = True) -> None:
    rng = param_rng(seed, name)
    params[f"{name}.w"] = glorot(rng, fan_in, fan_out)
    if bias:
        # small nonzero biases keep hidden units off their relu kink even for
        # all-zero input rows (masked cells), which finite differences need
        params[f"{name}.b"] = rng.uniform(-0.05, 0.05, size=fan_out)


def _add_layer_norm(params: dict, name: str, dim: int) -> None:
    params[f"{name}_g"] = np.ones(dim)
    params[f"{name}_b"] = np.zeros(dim)


def init_params(cfg: ModelConfig, seed: int) -> ParamStore:
    """Create every parameter the pipeline can touch. Initialization draws a
    dedicated stream per parameter name, so the values do not depend on
    creation order or on which mode will be run."""
    d = cfg.hidden_dim
    params: dict[str, np.ndarray] = {}

    for name, raw_dim in cfg.modalities:
        _add_linear(params, seed, f"enc.{name}", raw_dim, d)
        _add_layer_norm(params, f"enc.{name}.ln", d)
        _add_linear(params, seed, f"adapter.{name}", d, d)
        params[f"anchor.null.{name}"] = np.zeros(d)

    for layer in range(1, cfg.gnn_layers + 1):
        for prefix in ("gnn", "strenc"):
            rng = param_rng(seed, f"{prefix}.l{layer}")
            params[f"{prefix}.l{layer}.w_self"] = glorot(rng, d, d)
            params[f"{prefix}.l{layer}.w_neigh"] = glorot(rng, d, d)
            params[f"{prefix}.l{layer}.b"] = rng.uniform(-0.05, 0.05, size=d)
    _add_linear(params, seed, "strenc.in", 1, d)

    m_count = len(cfg.modalities)
    e_mask, e_mod = MASK_EMBED_DIM, MODALITY_EMBED_DIM
    _add_linear(params, seed, "gen.query", d + e_mask + e_mod, d)
    params["gen.mask_embed.w"] = glorot(param_rng(seed, "gen.mask_embed"), m_count, e_mask)
    params["gen.mod_embed"] = 0.1 * param_rng(seed, "gen.mod_embed").normal(size=(m_count, e_mod))
    for proj in ("wq", "wk", "wv", "wo"):
        params[f"gen.att.{proj}"] = glorot(param_rng(seed, f"gen.att.{proj}"), d, d)
    _add_linear(params, seed, "gen.gate", 2 * d, d)
    params["gen.self_proj.w"] = glorot(param_rng(seed, "gen.self_proj"), d, d)
    params["gen.anchor_proj.w"] = glorot(param_rng(seed, "gen.anchor_proj"), d, d)
    params["gen.align.w"] = glorot(param_rng(seed, "gen.align"), d, d)

    hid = cfg.estimator_hidden
    _add_linear(params, seed, "unc.l1", 3 * d, hid)
    _add_linear(params, seed, "unc.l2", hid, 1)
    _add_linear(params, seed, "router.l1", 4, hid)
    _add_linear(params, seed, "router.l2", hid, 2, bias=False)
    # routing weights only act on visible cells, where the observed expert
    # is the safe prior; start there and let training open the recovered path
    params["router.l2.b"] = np.array([1.5, 0.0])
    for expert in ("obs", "rec", "struct"):
        _add_linear(params, seed, f"expert.{expert}", d, d)
    _add_linear(params, seed, "fallback", 2, 1, bias=False)
    # start with a mostly-closed fallback gate; it opens as missingness
    # and uncertainty push the logit up during training
    params["fallback.b"] = np.full(1, -2.0)
    _add_layer_norm(params, "fuse.ln", d)

    rng = param_rng(seed, "refine")
    params["refine.w_self"] = glorot(rng, d, d)
    params["refine.w_neigh"] = glorot(rng, d, d)
    params["refine.b"] = np.zeros(d)
    _add_layer_norm(params, "refine.ln", d)

    if cfg.num_classes is not None:
        _add_linear(params, seed, "head.nc", d, cfg.num_classes)
    params["head.mr.query.w"] = glorot(param_rng(seed, "head.mr.query"), d, d)
    params["head.mr.gallery.w"] = glorot(param_rng(seed, "head.mr.gallery"), d, d)
    return ParamStore.pack(params)


@dataclass
class GraphCaches:
    """Per-graph constants reused across epochs and rounds."""

    neigh_mat: nx.CSRMatrix
    degrees: np.ndarray

    @classmethod
    def build(cls, graph: MultimodalGraph, edges: np.ndarray | None = None
              ) -> "GraphCaches":
        neigh_mat = nx.neighbor_mean_matrix(
            graph.n, graph.edges if edges is None else edges)
        return cls(neigh_mat=neigh_mat, degrees=np.diff(neigh_mat.indptr))


@dataclass
class FrozenTargets:
    """Base-point values of the stop-gradient quantities, for gradient checks.

    The tape differentiates an objective whose reconstruction targets and
    normalized-error labels are constants; central differences must probe
    that same function, so these values are captured once and pinned."""

    raw_targets: np.ndarray
    norm_err: np.ndarray


@dataclass
class ForwardPlan:
    """The parameter-independent structure of one mask draw.

    ``make_plan`` builds it once per draw; every forward on that draw reads
    it and draws nothing, so ``forward_pass`` is a function of the
    parameters alone. Cells are flattened as g = modality * N + node."""

    graph: MultimodalGraph
    caches: GraphCaches
    masks: MaskSet
    eff_flat: np.ndarray    # [G] effective visibility
    recon_flat: np.ndarray  # [G] 1.0 at artificially masked cells
    rho_nodes: np.ndarray   # [N] missing ratio under the effective mask
    anchors: list[tuple[nx.CSRMatrix, np.ndarray]]  # per modality (coeff, flags)
    banks: generation.BankBatch | None              # None in bypass mode


def make_plan(graph: MultimodalGraph, caches: GraphCaches, masks: MaskSet,
              cfg: ModelConfig, rng: np.random.Generator) -> ForwardPlan:
    """Build the plan of one mask draw. The banks are its only random draw;
    the bypass mode needs neither banks nor anchors and leaves ``rng``
    untouched."""
    eff = masks.effective
    anchors, banks = [], None
    if not cfg.bypass_generation:
        anchors = [encoding.anchor_coefficients(caches.neigh_mat, eff[:, m])
                   for m in range(eff.shape[1])]
        banks = generation.build_bank_batch(caches.neigh_mat, eff,
                                            cfg.neighbor_cap, rng)
    return ForwardPlan(graph=graph, caches=caches, masks=masks,
                       eff_flat=eff.T.reshape(-1),
                       recon_flat=masks.recon.T.reshape(-1),
                       rho_nodes=missing_ratios(masks), anchors=anchors,
                       banks=banks)


@dataclass
class ForwardBundle:
    refined: Tensor
    expert_flat: Tensor | None
    generated: Tensor | None
    uncertainty: Tensor | None
    rec_loss: Tensor
    align_loss: Tensor
    route_loss: Tensor
    cell_errors: np.ndarray | None
    norm_err: np.ndarray | None
    raw_cells: np.ndarray | None = None


@dataclass
class CellContexts:
    """What generation reads of one mask draw, cells in g order."""

    contexts: list[Tensor]  # per modality [N, d]: the attention memory
    anchor_flat: Tensor     # [G, d] structural anchors
    excl_flat: Tensor       # [G, d] target-exclusive contexts
    queries: Tensor         # [G, d] generation queries


def _flat_cells(per_modality: list[Tensor]) -> Tensor:
    return nx.concat(per_modality, axis=0)


def cell_contexts(params: ParamStore, cfg: ModelConfig, plan: ForwardPlan,
                  raw: list[Tensor]) -> CellContexts:
    """Anchors, graph contexts, target-exclusive contexts and queries of
    every cell, from the encoded raw features ``raw``."""
    eff = plan.masks.effective
    m_count = eff.shape[1]
    anchors, contexts = [], []
    for m, (name, _dim) in enumerate(cfg.modalities):
        anchor = encoding.structural_anchor(params, name, raw[m], *plan.anchors[m])
        anchors.append(anchor)
        contexts.append(encoding.graph_context(
            params, name, raw[m], anchor, eff[:, m], plan.caches.neigh_mat,
            cfg.gnn_layers))
    excl = [encoding.target_exclusive_context(contexts, eff, m) for m in range(m_count)]
    anchor_flat = _flat_cells(anchors)
    excl_flat = _flat_cells(excl)
    queries = generation.build_query(params, excl_flat, eff, m_count)
    return CellContexts(contexts=contexts, anchor_flat=anchor_flat,
                        excl_flat=excl_flat, queries=queries)


def forward_pass(params: ParamStore, cfg: ModelConfig, plan: ForwardPlan,
                 round_t: int, frozen: FrozenTargets | None = None
                 ) -> ForwardBundle:
    """Run the staged pipeline on one client graph under the plan's masks:
    encoding, ``cell_contexts``, generation, uncertainty and routing, expert
    mix, fusion, refinement, and the three auxiliary losses."""
    if cfg.bypass_generation:
        return _forward_bypass(params, cfg, plan)

    eff = plan.masks.effective
    m_count = eff.shape[1]
    raw = encoding.encode_modalities(params, plan.graph, plan.masks.natural)
    ctx = cell_contexts(params, cfg, plan, raw)
    struct_repr = encoding.structure_only_repr(params, plan.caches.degrees,
                                               plan.caches.neigh_mat, cfg.gnn_layers)

    raw_flat = _flat_cells(raw)
    excl_flat, anchor_flat = ctx.excl_flat, ctx.anchor_flat
    eff_flat, recon_flat = plan.eff_flat, plan.recon_flat
    generated = generation.generate_modalities(
        params, ctx.queries, plan.banks, ctx.contexts, excl_flat,
        anchor_flat, round_t, cfg.warmup_rounds, cfg.heads)

    cell_err = generation.squared_cell_errors(
        generated, raw_flat, frozen.raw_targets if frozen else None)
    rec_loss = generation.reconstruction_loss(cell_err, recon_flat)
    align_loss = generation.alignment_loss(params, raw_flat, generated, eff)

    uncertainty = fusion.estimate_uncertainty(params, generated, excl_flat,
                                              anchor_flat, eff_flat)
    weights = fusion.route(params, eff_flat, uncertainty, plan.rho_nodes,
                           float(plan.rho_nodes.mean()),
                           cfg.router_temperature, m_count)
    norm_err = frozen.norm_err if frozen else fusion.normalized_errors(
        cell_err.data.reshape(-1), recon_flat, m_count)
    route_loss, _unc_loss, _bal_loss = fusion.routing_loss(
        uncertainty, norm_err, recon_flat, weights, cfg.lambda_bal)

    expert_flat = fusion.expert_mix(params, raw_flat, generated, weights, eff_flat)
    fused, _, _ = fusion.fuse(
        params, expert_flat, uncertainty, plan.rho_nodes, struct_repr, m_count)

    refined = refine(params, fused, plan.caches.neigh_mat)

    return ForwardBundle(
        refined=refined, expert_flat=expert_flat, generated=generated,
        uncertainty=uncertainty, rec_loss=rec_loss, align_loss=align_loss,
        route_loss=route_loss, cell_errors=cell_err.data.reshape(-1),
        norm_err=norm_err, raw_cells=raw_flat.data)


def score_recon_cells(params: ParamStore, cfg: ModelConfig, plan: ForwardPlan,
                      raw: list[Tensor], round_t: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainty and squared reconstruction error of the plan's
    reconstruction cells, in g order, as ``forward_pass`` computes them.

    ``raw`` is ``encoding.encode_modalities`` under the plan's natural mask.
    Generation and the uncertainty head run on the reconstruction cells'
    rows alone, over the full attention memory; nothing downstream of them
    is computed."""
    rows = np.flatnonzero(plan.recon_flat == 1.0)
    ctx = cell_contexts(params, cfg, plan, raw)
    excl = nx.rows(ctx.excl_flat, rows)
    anchor = nx.rows(ctx.anchor_flat, rows)
    generated = generation.generate_modalities(
        params, nx.rows(ctx.queries, rows), plan.banks.take(rows),
        ctx.contexts, excl, anchor, round_t, cfg.warmup_rounds, cfg.heads)
    cell_err = generation.squared_cell_errors(
        generated, nx.rows(_flat_cells(raw), rows))
    uncertainty = fusion.estimate_uncertainty(params, generated, excl, anchor,
                                              plan.eff_flat[rows])
    return uncertainty.data.reshape(-1), cell_err.data.reshape(-1)


def _forward_bypass(params: ParamStore, cfg: ModelConfig, plan: ForwardPlan
                    ) -> ForwardBundle:
    """Backbone-only forward: zero-filled inputs, mean fusion, no generator."""
    eff = plan.masks.effective
    n, m_count = eff.shape
    raw = [encoding.encode_modality(params, mod.name, mod.features, eff[:, m])
           for m, mod in enumerate(plan.graph.modalities)]
    contexts = []
    for m, (name, _dim) in enumerate(cfg.modalities):
        adapted = nx.relu(nx.linear(raw[m], params[f"adapter.{name}.w"],
                                    params[f"adapter.{name}.b"]))
        contexts.append(encoding._conv_stack(params, "gnn", adapted,
                                             plan.caches.neigh_mat, cfg.gnn_layers))
    expert_flat = _flat_cells(contexts)
    stacked = nx.reshape(expert_flat, (m_count, n, cfg.hidden_dim))
    mean_ctx = nx.scale(nx.sum_axis(stacked, 0), 1.0 / m_count)
    fused = nx.layer_norm(mean_ctx, params["fuse.ln_g"], params["fuse.ln_b"])

    refined = refine(params, fused, plan.caches.neigh_mat)

    zero = const(np.asarray(0.0))
    return ForwardBundle(
        refined=refined, expert_flat=expert_flat, generated=None,
        uncertainty=None, rec_loss=zero, align_loss=zero, route_loss=zero,
        cell_errors=None, norm_err=None)
