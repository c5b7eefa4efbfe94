"""Stage 1: modality encoders, structural anchors, graph-enhanced context.

All functions are pure in (parameters, graph, masks); the per-modality flow
is: raw features -> shared hidden space -> neighbor anchors for invisible
cells -> per-modality adapter -> shared mean-aggregation conv stack. The
structure-only path sees degree features exclusively, so it is literally
independent of every modality feature.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nx
from .numerics import ParamStore, Tensor, const

ANCHOR_EPS = 1e-12


def encode_modality(params: ParamStore, name: str, features: np.ndarray,
                    natural_col: np.ndarray) -> Tensor:
    """Project one modality into the hidden space; absent rows stay zero."""
    w = params[f"enc.{name}.w"]
    if features.shape[1] != w.shape[0]:
        raise ValueError(
            f"modality {name!r} expects raw dim {w.shape[0]}, got {features.shape[1]}")
    z = nx.linear(const(features), w, params[f"enc.{name}.b"])
    z = nx.layer_norm(z, params[f"enc.{name}.ln_g"], params[f"enc.{name}.ln_b"])
    return nx.mul(z, const(natural_col.reshape(-1, 1)))


def encode_modalities(params: ParamStore, graph, natural: np.ndarray) -> list[Tensor]:
    return [encode_modality(params, mod.name, mod.features, natural[:, m])
            for m, mod in enumerate(graph.modalities)]


def anchor_coefficients(neigh_mat: nx.CSRMatrix, eff_col: np.ndarray
                        ) -> tuple[nx.CSRMatrix, np.ndarray]:
    """Constant mixing weights C and no-visible-neighbor flags for one modality.

    C has the pattern of ``neigh_mat``: entry (i, j) holds
    a_ij eff_j / (sum_j a_ij eff_j + eps) with a_ij the uniform neighbor
    weight, i.e. the mean of the visible neighbors. Rows are (sub-)convex
    combinations; flagged rows (no neighbor, or none visible) are zero.
    """
    weighted = neigh_mat.with_data(neigh_mat.data * eff_col[neigh_mat.indices])
    totals = weighted.row_sums()
    flags = (totals == 0.0).astype(np.float64)
    denom = totals[neigh_mat.pattern.row_of] + ANCHOR_EPS
    return weighted.with_data(weighted.data / denom), flags


def structural_anchor(params: ParamStore, name: str, raw_embed: Tensor,
                      coeff: nx.CSRMatrix, flags: np.ndarray) -> Tensor:
    """Visibility-weighted neighbor mean; learnable null token as fallback.
    ``coeff`` and ``flags`` are the modality's ``anchor_coefficients``."""
    anchor = nx.spmm(coeff, raw_embed)
    if flags.any():
        null_row = nx.reshape(params[f"anchor.null.{name}"], (1, -1))
        anchor = nx.add(anchor, nx.matmul(const(flags.reshape(-1, 1)), null_row))
    return anchor


def _conv_stack(params: ParamStore, prefix: str, x: Tensor, neigh_mat: nx.CSRMatrix,
                layers: int) -> Tensor:
    out = x
    for layer in range(1, layers + 1):
        out = nx.sage_conv(out, neigh_mat,
                           params[f"{prefix}.l{layer}.w_self"],
                           params[f"{prefix}.l{layer}.w_neigh"],
                           params[f"{prefix}.l{layer}.b"])
        if layer < layers:
            out = nx.relu(out)
    return out


def graph_context(params: ParamStore, name: str, raw_embed: Tensor,
                  anchor: Tensor, eff_col: np.ndarray, neigh_mat: nx.CSRMatrix,
                  layers: int = 2) -> Tensor:
    """Mix visible embedding with the anchor, adapt, then run the shared conv."""
    vis = const(eff_col.reshape(-1, 1))
    inv = const((1.0 - eff_col).reshape(-1, 1))
    mixed = nx.add(nx.mul(vis, raw_embed), nx.mul(inv, anchor))
    adapted = nx.relu(nx.linear(mixed, params[f"adapter.{name}.w"],
                                params[f"adapter.{name}.b"]))
    return _conv_stack(params, "gnn", adapted, neigh_mat, layers)


def target_exclusive_context(contexts: list[Tensor], eff: np.ndarray,
                             target: int) -> Tensor:
    """Mean of the *other* visible modality contexts; zero when none exist."""
    n, m_count = eff.shape
    others = [m for m in range(m_count) if m != target]
    counts = eff[:, others].sum(axis=1)
    safe = np.maximum(counts, 1.0)
    total = None
    for m in others:
        term = nx.mul(const((eff[:, m] / safe).reshape(-1, 1)), contexts[m])
        total = term if total is None else nx.add(total, term)
    if total is None:
        total = const(np.zeros((n, contexts[target].shape[1])))
    return total


def structure_only_repr(params: ParamStore, degrees: np.ndarray,
                        neigh_mat: nx.CSRMatrix, layers: int = 2) -> Tensor:
    """Topology-only node representation from log-degree features."""
    feats = np.log1p(degrees.astype(np.float64)).reshape(-1, 1)
    x = nx.linear(const(feats), params["strenc.in.w"], params["strenc.in.b"])
    return _conv_stack(params, "strenc", x, neigh_mat, layers)
