"""Federated multimodal-graph learning simulator.

Synthetic desk-scale graphs, missing-modality recovery from structural
anchors and cross-modal attention, missing-aware two-expert fusion with a
structural fallback, and reliability-weighted server aggregation — all on a
small self-contained float64 autodiff engine.
"""

from .graphdata import (MaskSet, MultimodalGraph, apply_natural_missingness,
                        generate_sbm_multimodal, load_graph, missing_ratios,
                        partition_dirichlet, sample_artificial_mask, save_graph)
from .numerics import (AdamState, ParamStore, Tape, Tensor, adam_step, grad_check,
                       sage_conv)
from .tasks import LossBreakdown

__all__ = [
    "AdamState", "LossBreakdown", "MaskSet", "MultimodalGraph",
    "ParamStore", "Tape", "Tensor",
    "adam_step", "apply_natural_missingness", "generate_sbm_multimodal",
    "grad_check", "load_graph", "missing_ratios", "partition_dirichlet",
    "sage_conv", "sample_artificial_mask", "save_graph",
]

__version__ = "0.1.0"
