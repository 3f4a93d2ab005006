"""Exclusive greedy matching of text queries to an uncurated clip pool.

Each query takes the highest-similarity clip that has not been claimed by
an earlier query; the claimed clip leaves the candidate pool. Processing
order is pinned (ascending query id by default) so runs are reproducible,
and ties always go to the smallest clip id.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import container
from .embedcore import EmbeddingSet, for_dot_blocks, pairwise_dots
from .errors import DimMismatch, DuplicateId, KTooLarge, NotNormalized, PoolExhausted

ORDER_QUERY_ID = "query_id"
ORDER_GLOBAL_GREEDY = "global_greedy"


@dataclass
class PseudoPairSet:
    """Query-to-clip assignments with their judge-space similarities."""

    query_ids: np.ndarray
    clip_ids: np.ndarray
    sims: np.ndarray
    query_set: str = ""
    clip_set: str = ""
    policy: str = ORDER_QUERY_ID

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

    def pairs(self):
        for q, c, s in zip(self.query_ids, self.clip_ids, self.sims):
            yield int(q), int(c), float(s)


def _check_inputs(queries: EmbeddingSet, clips: EmbeddingSet) -> None:
    if queries.dim != clips.dim:
        raise DimMismatch(f"dims differ: {queries.dim} vs {clips.dim}")
    if not queries.normalized or not clips.normalized:
        raise NotNormalized("matching requires normalized query and clip sets")


def match_exclusive(
    queries: EmbeddingSet,
    clips: EmbeddingSet,
    order: str = ORDER_QUERY_ID,
    threads: int = 1,
) -> PseudoPairSet:
    """Assign every query its best still-unclaimed clip.

    Under the default id-order policy, similarities are streamed one fixed
    512-row query block at a time, in ascending order, and each query takes
    the argmax of its row with the claimed clips masked to -inf (the first
    maximum, so ties go to the smallest clip id). That is the masked-argmax
    oracle itself, at O(n_clips) per query, with one block alive instead of
    the full matrix. Each claim depends on every earlier one, so this walk
    is sequential whatever `threads` is. The global-greedy policy instead
    repeatedly takes the single best remaining (query, clip) cell of the
    full matrix, computed with `threads` workers.
    """
    _check_inputs(queries, clips)
    n_q, n_c = queries.count, clips.count
    if n_q > n_c:
        raise PoolExhausted(f"{n_q} queries but only {n_c} clips")
    if order not in (ORDER_QUERY_ID, ORDER_GLOBAL_GREEDY):
        raise ValueError(f"unknown order policy {order!r}")

    chosen_col = np.empty(n_q, dtype=np.int64)
    chosen_sim = np.empty(n_q, dtype=np.float64)

    if order == ORDER_QUERY_ID:
        taken = np.zeros(n_c, dtype=bool)

        def claim(lo, hi, block):
            for qi, row in enumerate(block, start=lo):
                col = int(np.argmax(np.where(taken, -np.inf, row)))
                taken[col] = True
                chosen_col[qi] = col
                chosen_sim[qi] = row[col]

        for_dot_blocks(queries.data, clips.data, claim, threads=1)
    else:
        # ties resolve in flattened row-major order: lowest query id, then
        # lowest clip id
        sims = pairwise_dots(queries.data, clips.data, threads=threads)
        masked = sims.copy()
        for _ in range(n_q):
            flat = np.argmax(masked)
            qi, col = np.unravel_index(flat, masked.shape)
            chosen_col[qi] = col
            chosen_sim[qi] = sims[qi, col]
            masked[qi, :] = -np.inf
            masked[:, col] = -np.inf

    return PseudoPairSet(
        query_ids=queries.ids.copy(),
        clip_ids=clips.ids[chosen_col],
        sims=chosen_sim,
        policy=order,
    )


def match_topk_report(
    queries: EmbeddingSet,
    clips: EmbeddingSet,
    k: int,
    threads: int = 1,
) -> list[list[tuple[int, float]]]:
    """Per-query top-k (clip_id, sim) diagnostics without any exclusion."""
    _check_inputs(queries, clips)
    if k < 1 or k > clips.count:
        raise KTooLarge(f"k={k} outside 1..{clips.count}")
    sims = pairwise_dots(queries.data, clips.data, threads=threads)
    out = []
    for qi in range(queries.count):
        # stable sort on -sim keeps equal sims in ascending index (= clip id) order
        top = np.argsort(-sims[qi], kind="stable")[:k]
        out.append([(int(clips.ids[c]), float(sims[qi, c])) for c in top])
    return out


def write_pseudo_pairs(pairs: PseudoPairSet, path: str | os.PathLike) -> None:
    header = {"kind": "pseudo_pairs", "query_set": pairs.query_set,
              "clip_set": pairs.clip_set, "policy": pairs.policy}
    container.write_records(path, header, (
        {"query_id": q, "clip_id": c, "sim": s} for q, c, s in pairs.pairs()))


def read_pseudo_pairs(path: str | os.PathLike) -> PseudoPairSet:
    header, records = container.read_records(path, "pseudo_pairs")
    return PseudoPairSet(
        query_ids=np.array([r["query_id"] for r in records], dtype=np.int64),
        clip_ids=np.array([r["clip_id"] for r in records], dtype=np.int64),
        sims=np.array([r["sim"] for r in records], dtype=np.float64),
        query_set=header.get("query_set", ""),
        clip_set=header.get("clip_set", ""),
        policy=header.get("policy", ORDER_QUERY_ID),
    )
