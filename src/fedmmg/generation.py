"""Stage 2: context banks, cross-modal queries, gated warmup generation.

Cells are flattened as g = modality * N + node throughout. Each cell's bank
holds the node's other visible modality tokens plus a capped sample of
visible neighbor tokens; the cell's own token is never admitted, which is
what makes masked reconstruction leak-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics as nx
from .numerics import MASK_NEG, ParamStore, Tensor, const

REC_EPS = 1e-12


@dataclass
class BankBatch:
    """All banks of a graph. The [G, S] grid, padded to the widest bank, is
    the bank definition; attention reads only its usable slots, ``slots``,
    which are listed at the first attention over these banks and kept with
    them for the mask draw. A bank is empty when its row of ``slots`` is."""

    token_index: np.ndarray    # [G, S] into the stacked context matrix
    additive_mask: np.ndarray  # [G, S]; 0 usable, MASK_NEG padding

    @cached_property
    def slots(self) -> nx.SparsePattern:
        return nx.SparsePattern.of_banks(self.token_index, self.additive_mask)

    def take(self, rows: np.ndarray) -> "BankBatch":
        """The banks of cells ``rows`` alone, in that order. Their slots
        still index the full stacked context matrix."""
        return BankBatch(token_index=self.token_index[rows],
                         additive_mask=self.additive_mask[rows])


def build_bank_batch(neigh_mat: nx.CSRMatrix, eff: np.ndarray, cap: int,
                     rng: np.random.Generator) -> BankBatch:
    """Build every cell's bank in g order: the node's own other visible
    modality tokens, then at most ``cap`` of its visible neighbor tokens,
    ordered by (neighbor, modality). A cell with more candidates keeps
    ``sorted(rng.choice(count, cap, replace=False))`` of them, one draw per
    such cell in g order. Slot indices point into vstack(contexts) with one
    extra all-zero row appended at index N * M for padding."""
    if cap < 0:
        raise ValueError("neighbor cap must be nonnegative")
    n, m_count = eff.shape
    g_count = n * m_count
    visible = eff == 1.0
    # own tokens of cell (m, i): the other visible modalities m' of node i
    own = (visible & ~np.eye(m_count, dtype=bool)[:, None, :]).reshape(g_count, m_count)
    own_count = own.sum(axis=1)
    own_g, own_m = np.nonzero(own)
    own_cols = np.cumsum(own, axis=1)[own_g, own_m] - 1

    # neighbor candidates of node i, ordered by (neighbor, modality); they
    # do not depend on the target modality
    neigh_vis = visible[neigh_mat.indices]
    cand_tokens = (np.arange(m_count) * n + neigh_mat.indices[:, None])[neigh_vis]
    entry_ptr = np.zeros(neigh_vis.shape[0] + 1, dtype=np.intp)
    np.cumsum(neigh_vis.sum(axis=1), out=entry_ptr[1:])
    cand_ptr = entry_ptr[neigh_mat.indptr]
    cand_count = np.concatenate((np.diff(cand_ptr),) * m_count)
    taken = np.minimum(cand_count, cap)
    total = own_count + taken

    # slot s of cell g's candidate part takes candidate offsets[...] of its node
    starts = np.cumsum(taken) - taken
    cand_g = np.repeat(np.arange(g_count), taken)
    rank = np.arange(cand_g.size) - starts[cand_g]
    offsets = rank.copy()
    for g in np.flatnonzero(cand_count > cap):
        picks = rng.choice(cand_count[g], size=cap, replace=False)
        offsets[starts[g]:starts[g] + cap] = np.sort(picks)

    width = max(1, int(total.max(initial=0)))
    pad_row = g_count
    index = np.full((g_count, width), pad_row, dtype=np.intp)
    index[own_g, own_cols] = own_m * n + own_g % n
    index[cand_g, own_count[cand_g] + rank] = \
        cand_tokens[cand_ptr[cand_g % n] + offsets]
    return BankBatch(token_index=index,
                     additive_mask=np.where(index == pad_row, MASK_NEG, 0.0))


def build_query(params: ParamStore, excl_flat: Tensor, eff: np.ndarray,
                m_count: int) -> Tensor:
    """Q = W_q [excl-context || mask-pattern embedding || modality embedding]."""
    n = eff.shape[0]
    mask_embed = nx.matmul(const(eff), params["gen.mask_embed.w"])   # [N, e]
    mask_tiled = nx.concat([mask_embed] * m_count, axis=0)           # [G, e]
    ones_col = const(np.ones((n, 1)))
    mod_rows = [nx.matmul(ones_col, nx.rows(params["gen.mod_embed"], [m]))
                for m in range(m_count)]
    mod_tiled = nx.concat(mod_rows, axis=0)                          # [G, e]
    return nx.linear([excl_flat, mask_tiled, mod_tiled],
                     params["gen.query.w"], params["gen.query.b"])


def warmup_coefficient(round_t: int, warmup_rounds: int) -> float:
    """Linear schedule min(1, t / T_w)."""
    if warmup_rounds <= 0:
        return 1.0
    return min(1.0, round_t / warmup_rounds)


def generate_modalities(params: ParamStore, queries: Tensor, banks: BankBatch,
                        contexts: list[Tensor], excl_flat: Tensor,
                        anchor_flat: Tensor, round_t: int, warmup_rounds: int,
                        heads: int) -> Tensor:
    """Gated mixture of attended evidence, self context, and anchors, mixed
    by ``warmup_coefficient``.

    Row r of ``queries``, ``excl_flat`` and ``anchor_flat`` belongs to bank
    r of ``banks``, which may be cut to some cells (``BankBatch.take``);
    ``contexts`` always holds every node's, as the attention memory. Empty
    banks force the gate to zero so those cells use the pure self-context
    branch inside the warmed-up term.
    """
    d = contexts[0].shape[1]
    stacked = nx.concat(list(contexts) + [const(np.zeros((1, d)))], axis=0)
    ctx, _ = nx.bank_attention(queries, stacked, params["gen.att.wq"],
                               params["gen.att.wk"], params["gen.att.wv"],
                               banks.slots, heads)
    evidence = nx.matmul(ctx, params["gen.att.wo"])
    return nx.gated_blend(evidence, excl_flat, anchor_flat, params["gen.self_proj.w"],
                          params["gen.gate.w"], params["gen.gate.b"],
                          params["gen.anchor_proj.w"],
                          (np.diff(banks.slots.indptr) > 0)[:, None],
                          warmup_coefficient(round_t, warmup_rounds))


def squared_cell_errors(generated: Tensor, raw_flat: Tensor,
                        frozen_targets: np.ndarray | None = None) -> Tensor:
    """Per-cell squared distance to the stop-gradient reconstruction target.

    Gradient checks pass the base-point targets explicitly so that finite
    differences see the same frozen-target objective the tape differentiates.
    """
    target = const(frozen_targets) if frozen_targets is not None \
        else nx.stop_gradient(raw_flat)
    diff = nx.sub(generated, target)
    return nx.sum_axis(nx.mul(diff, diff), -1, keepdims=True)  # [G, 1]


def reconstruction_loss(cell_errors: Tensor, recon_flat: np.ndarray) -> Tensor:
    """Mean squared error over artificially masked cells only."""
    total = nx.total_sum(nx.mul(cell_errors, const(recon_flat.reshape(-1, 1))))
    return nx.scale(total, 1.0 / (float(recon_flat.sum()) + REC_EPS))


def alignment_loss(params: ParamStore, raw_flat: Tensor, generated: Tensor,
                   eff: np.ndarray) -> Tensor:
    """Mean (1 - cosine) over all unordered modality pairs of each node,
    with visible cells contributing their raw embedding and invisible ones
    their generated stand-in."""
    n, m_count = eff.shape
    eff_col = const(eff.T.reshape(-1, 1))
    one = const(np.ones((1, 1)))
    blended = nx.add(nx.mul(eff_col, raw_flat),
                     nx.mul(nx.sub(one, eff_col), generated))
    projected = nx.matmul(blended, params["gen.align.w"])

    terms = []
    for m_a in range(m_count):
        for m_b in range(m_a + 1, m_count):
            rows_a = np.arange(m_a * n, (m_a + 1) * n)
            rows_b = np.arange(m_b * n, (m_b + 1) * n)
            cos = nx.cosine_rows(nx.rows(projected, rows_a), nx.rows(projected, rows_b))
            terms.append(nx.sub(const(np.ones_like(cos.data)), cos))
    if not terms:
        return const(np.asarray(0.0))
    return nx.mean(nx.concat(terms, axis=0))
