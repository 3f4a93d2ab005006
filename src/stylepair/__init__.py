"""Embedding-space pipeline for retrieval training from unpaired text.

Stages: exclusive pseudo-matching of text queries to an uncurated clip
pool, an affine style-transfer map fitted on those pseudo pairs, styled
caption generation and similarity filtering, contrastive adapter training
with single- or multi-style batch scheduling, and recall / median-rank
evaluation. A seeded synthetic benchmark drives the whole pipeline end to
end without any real data.
"""

from .embedcore import (
    EmbeddingSet,
    load_embeddings,
    normalize,
    save_embeddings,
)
from .errors import StylePairError
from .evaluator import RetrievalReport, rank_queries, report
from .matcher import PseudoPairSet, match_exclusive
from .styler import (
    GeneratedPairSet,
    StyleTransform,
    filter_pairs,
    fit_style,
    generate_styled,
    threshold_sweep,
)
from .synthgen import SynthConfig, SynthDataset, generate
from .trainer import (
    AdapterModel,
    NegativeQueue,
    TrainConfig,
    grad_check,
    info_nce_loss,
    init_adapter,
    plan_epoch,
    train,
)

__all__ = [
    "AdapterModel",
    "EmbeddingSet",
    "GeneratedPairSet",
    "NegativeQueue",
    "PseudoPairSet",
    "RetrievalReport",
    "StylePairError",
    "StyleTransform",
    "SynthConfig",
    "SynthDataset",
    "TrainConfig",
    "filter_pairs",
    "fit_style",
    "generate",
    "generate_styled",
    "grad_check",
    "info_nce_loss",
    "init_adapter",
    "load_embeddings",
    "match_exclusive",
    "normalize",
    "plan_epoch",
    "rank_queries",
    "report",
    "save_embeddings",
    "threshold_sweep",
    "train",
]

__version__ = "0.1.0"
