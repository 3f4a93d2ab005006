"""Embedding-space pipeline for retrieval training from unpaired text.

Stages: exclusive pseudo-matching of text queries to an uncurated clip
pool, an affine style-transfer map fitted on those pseudo pairs, styled
caption generation and similarity filtering, contrastive adapter training
with single- or multi-style batch scheduling, and recall / median-rank
evaluation. A seeded synthetic benchmark drives the whole pipeline end to
end without any real data.
"""

__version__ = "0.1.0"
