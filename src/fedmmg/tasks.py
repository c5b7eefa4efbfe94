"""Stage 4 local computation: refinement, task heads, losses, objectives.

Three downstream tasks are supported: node classification (cross-entropy),
link prediction (BCE + ranking composite over sampled negatives), and
cross-modal retrieval (in-batch InfoNCE between the image-side and
text-side expert outputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nx
from .graphdata import MultimodalGraph
from .numerics import ParamStore, Tensor, const

if TYPE_CHECKING:  # model imports this module
    from .model import ModelConfig

TASK_KINDS = ("nc", "lp", "mr")

# link prediction: weights of the BCE, pairwise-rank and margin terms, the
# margin, and the hard-negative pool size max(MIN_POOL, SCALE * batch)
LP_BCE_WEIGHT, LP_BPR_WEIGHT, LP_MARGIN_WEIGHT, LP_MARGIN = 1.0, 0.5, 0.3, 0.1
HARD_NEGATIVE_SCALE, HARD_NEGATIVE_MIN_POOL = 4.0, 256
# retrieval: InfoNCE temperature, auxiliary classifier weight, and the
# query modality (the image-like side queries the text-like gallery)
NCE_TEMPERATURE, LAMBDA_CLS, QUERY_MODALITY = 0.07, 0.2, 0


@dataclass
class LossBreakdown:
    task: float
    rec: float
    align: float
    route: float
    total: float


def refine(params: ParamStore, fused: Tensor, neigh_mat: nx.CSRMatrix) -> Tensor:
    """Residual graph smoothing: LN(r + sigmoid(conv(r)))."""
    conv = nx.sage_conv(fused, neigh_mat, params["refine.w_self"],
                        params["refine.w_neigh"], params["refine.b"])
    return nx.layer_norm(nx.add(fused, nx.sigmoid(conv)),
                         params["refine.ln_g"], params["refine.ln_b"])


def local_objective(model_cfg: ModelConfig, task_loss: Tensor, rec_loss: Tensor,
                    align_loss: Tensor, route_loss: Tensor
                    ) -> tuple[Tensor, LossBreakdown]:
    total = task_loss
    total = nx.add(total, nx.scale(rec_loss, model_cfg.rec_weight))
    total = nx.add(total, nx.scale(align_loss, model_cfg.lambda_align))
    total = nx.add(total, nx.scale(route_loss, model_cfg.lambda_route))
    parts = (task_loss, rec_loss, align_loss, route_loss, total)
    return total, LossBreakdown(*(float(part.data) for part in parts))


# ---------------------------------------------------------------------------
# Node classification
# ---------------------------------------------------------------------------


def nc_logits(params: ParamStore, refined: Tensor) -> Tensor:
    return nx.linear(refined, params["head.nc.w"], params["head.nc.b"])


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = nx.total_sum(nx.mul(const(onehot), nx.log_softmax(logits, axis=-1)))
    return nx.scale(nx.neg(picked), 1.0 / n)


def nc_task_loss(params: ParamStore, refined: Tensor, labels: np.ndarray,
                 train_idx: np.ndarray) -> Tensor:
    if train_idx.size == 0:
        return const(np.asarray(0.0))
    logits = nc_logits(params, nx.rows(refined, train_idx))
    return cross_entropy(logits, labels[train_idx])


# ---------------------------------------------------------------------------
# Link prediction
# ---------------------------------------------------------------------------


def draw_non_edges(graph: MultimodalGraph, rows: int, at_least: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform node pairs, ``rows`` per draw, until at least ``at_least``
    are non-edges of ``graph``; the non-edges found, in draw order.

    Raises ValueError when every pair of distinct nodes is an edge."""
    if not graph.has_non_edge:
        raise ValueError("the graph has no non-edge to sample negatives from")
    found, count = [], 0
    while count < at_least:
        found.append(graph.non_edges(rng.integers(0, graph.n, size=(rows, 2))))
        count += found[-1].shape[0]
    return np.concatenate(found).astype(np.intp)


def sample_hard_negatives(refined_detached: np.ndarray, graph: MultimodalGraph,
                          batch: int, rng: np.random.Generator) -> np.ndarray:
    """Top-scoring non-edges of ``graph`` from a random pool of
    max(HARD_NEGATIVE_MIN_POOL, HARD_NEGATIVE_SCALE * B) pairs. The pool is
    scored by ``numerics.pair_scores``, one group of pairs at a time, so its
    gathered rows never exist all at once."""
    pool_size = max(HARD_NEGATIVE_MIN_POOL, int(HARD_NEGATIVE_SCALE * batch))
    pool = draw_non_edges(graph, 2 * pool_size, 1, rng)[:pool_size]
    scores = nx.pair_scores(refined_detached, pool)
    order = np.argsort(-scores, kind="stable")[:batch]
    return pool[np.sort(order)]


def lp_pair_loss(refined: Tensor, pos_pairs: np.ndarray, neg_pairs: np.ndarray) -> Tensor:
    """Composite of BCE, pairwise-rank, and margin losses; row b of
    ``neg_pairs`` is ranked against row b of ``pos_pairs``."""
    batch = pos_pairs.shape[0]
    s_pos = nx.pair_dots(refined, pos_pairs)
    s_neg = nx.pair_dots(refined, neg_pairs)
    targets = const(np.concatenate([np.ones((batch, 1)), np.zeros((batch, 1))]))
    s_all = nx.concat([s_pos, s_neg], axis=0)
    bce = nx.mean(nx.sub(nx.softplus(s_all), nx.mul(targets, s_all)))

    diff = nx.sub(s_pos, s_neg)
    bpr = nx.mean(nx.softplus(nx.neg(diff)))
    margin = nx.mean(nx.relu(nx.sub(const(np.full((batch, 1), LP_MARGIN)), diff)))

    total = nx.scale(bce, LP_BCE_WEIGHT)
    total = nx.add(total, nx.scale(bpr, LP_BPR_WEIGHT))
    return nx.add(total, nx.scale(margin, LP_MARGIN_WEIGHT))


def lp_task_loss(refined: Tensor, pos_pairs: np.ndarray, graph: MultimodalGraph,
                 rng: np.random.Generator) -> Tensor:
    """``lp_pair_loss`` against one hard negative per positive edge."""
    if pos_pairs.shape[0] == 0:
        raise ValueError("link prediction batch contains no positive edges")
    batch = pos_pairs.shape[0]
    neg_pairs = sample_hard_negatives(refined.data, graph, batch, rng)
    if neg_pairs.shape[0] < batch:
        reps = -(-batch // neg_pairs.shape[0])
        neg_pairs = np.tile(neg_pairs, (reps, 1))[:batch]
    return lp_pair_loss(refined, pos_pairs, neg_pairs)


# ---------------------------------------------------------------------------
# Modality retrieval
# ---------------------------------------------------------------------------


def mr_embeddings(params: ParamStore, expert_flat: Tensor, n_nodes: int) -> tuple[Tensor, Tensor]:
    """Project the per-modality expert outputs into query/gallery spaces."""
    query_m = QUERY_MODALITY
    gallery_m = 1 if query_m == 0 else 0
    q_rows = np.arange(query_m * n_nodes, (query_m + 1) * n_nodes)
    g_rows = np.arange(gallery_m * n_nodes, (gallery_m + 1) * n_nodes)
    queries = nx.matmul(nx.rows(expert_flat, q_rows), params["head.mr.query.w"])
    gallery = nx.matmul(nx.rows(expert_flat, g_rows), params["head.mr.gallery.w"])
    return queries, gallery


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities [A, B] with epsilon-guarded norms."""
    na = nx.sqrt(nx.add(nx.sum_axis(nx.mul(a, a), -1, keepdims=True), const(1e-24)))
    nb = nx.sqrt(nx.add(nx.sum_axis(nx.mul(b, b), -1, keepdims=True), const(1e-24)))
    an = nx.div(a, nx.add(na, const(1e-12)))
    bn = nx.div(b, nx.add(nb, const(1e-12)))
    return nx.matmul(an, nx.swapaxes(bn, 0, 1))


def mr_task_loss(params: ParamStore, expert_flat: Tensor, n_nodes: int,
                 batch_idx: np.ndarray, refined: Tensor | None = None,
                 labels: np.ndarray | None = None) -> Tensor:
    """In-batch InfoNCE on cosine similarities, plus the auxiliary classifier
    when labels are available."""
    queries, gallery = mr_embeddings(params, expert_flat, n_nodes)
    q_batch = nx.rows(queries, batch_idx)
    g_batch = nx.rows(gallery, batch_idx)
    logits = nx.scale(cosine_matrix(q_batch, g_batch), 1.0 / NCE_TEMPERATURE)
    loss = cross_entropy(logits, np.arange(batch_idx.size))
    if labels is not None and refined is not None:
        aux = nc_task_loss(params, refined, labels, batch_idx)
        loss = nx.add(loss, nx.scale(aux, LAMBDA_CLS))
    return loss
