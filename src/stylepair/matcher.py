"""Exclusive greedy matching of text queries to an uncurated clip pool.

Each query takes the highest-similarity clip that has not been claimed by
an earlier query; the claimed clip leaves the candidate pool. Queries go
in ascending id order so runs are reproducible, and ties always go to the
smallest clip id.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import container
from .embedcore import EmbeddingSet, for_dot_blocks
from .errors import DimMismatch, DuplicateId, EmptyStyleSet, NotNormalized, PoolExhausted

ORDER_QUERY_ID = "query_id"   # the one processing order; recorded in pair-file headers
HEADER_FIELDS = {"query_set": str, "clip_set": str, "policy": str}   # pair-file keys and types
RECORD_FIELDS = {"query_id": int, "clip_id": int, "sim": float}


@dataclass
class PseudoPairSet:
    """Query-to-clip assignments with their judge-space similarities."""

    query_ids: np.ndarray
    clip_ids: np.ndarray
    sims: np.ndarray
    query_set: str = ""
    clip_set: str = ""

    def __post_init__(self):
        self.query_ids = np.asarray(self.query_ids, dtype=np.int64)
        self.clip_ids = np.asarray(self.clip_ids, dtype=np.int64)
        self.sims = np.asarray(self.sims, dtype=np.float64)
        if not (len(self.query_ids) == len(self.clip_ids) == len(self.sims)):
            raise ValueError("pair columns must have equal length")
        if len(np.unique(self.clip_ids)) != len(self.clip_ids):
            raise DuplicateId("a clip id is assigned to more than one query")
        if len(np.unique(self.query_ids)) != len(self.query_ids):
            raise DuplicateId("a query id appears in more than one pair")

    def __len__(self) -> int:
        return len(self.query_ids)


def match_exclusive(queries: EmbeddingSet, clips: EmbeddingSet) -> PseudoPairSet:
    """Assign every query its best still-unclaimed clip.

    Similarities are streamed one fixed 512-row query block at a time, in
    ascending order, and each query takes the argmax of its row with the
    claimed clips masked to -inf (the first maximum, so ties go to the
    smallest clip id). That is the masked-argmax oracle itself, at
    O(n_clips) per query, with one block alive instead of the full matrix.
    """
    if queries.dim != clips.dim:
        raise DimMismatch(f"dims differ: {queries.dim} vs {clips.dim}")
    if not queries.normalized or not clips.normalized:
        raise NotNormalized("matching requires normalized query and clip sets")
    n_q, n_c = queries.count, clips.count
    if n_q == 0:
        raise EmptyStyleSet("the query set holds no queries")
    if n_q > n_c:
        raise PoolExhausted(f"{n_q} queries but only {n_c} clips")

    chosen_col = np.empty(n_q, dtype=np.int64)
    chosen_sim = np.empty(n_q, dtype=np.float64)
    taken = np.zeros(n_c, dtype=bool)

    def claim(lo, hi, block):
        for qi, row in enumerate(block, start=lo):
            col = int(np.argmax(np.where(taken, -np.inf, row)))
            taken[col] = True
            chosen_col[qi] = col
            chosen_sim[qi] = row[col]

    for_dot_blocks(queries.data, clips.data, claim)
    return PseudoPairSet(
        query_ids=queries.ids.copy(),
        clip_ids=clips.ids[chosen_col],
        sims=chosen_sim,
    )


def write_pseudo_pairs(pairs: PseudoPairSet, path: str | os.PathLike) -> None:
    header = {"kind": "pseudo_pairs", "query_set": pairs.query_set,
              "clip_set": pairs.clip_set, "policy": ORDER_QUERY_ID}
    container.write_records(path, header, {
        "query_id": pairs.query_ids, "clip_id": pairs.clip_ids, "sim": pairs.sims})


def read_pseudo_pairs(path: str | os.PathLike) -> PseudoPairSet:
    header, cols = container.read_records(path, "pseudo_pairs", RECORD_FIELDS, HEADER_FIELDS)
    return PseudoPairSet(query_ids=cols["query_id"], clip_ids=cols["clip_id"], sims=cols["sim"],
                         query_set=header["query_set"], clip_set=header["clip_set"])
