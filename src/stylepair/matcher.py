"""Exclusive greedy matching of text queries to an uncurated clip pool.

Each query takes the highest-similarity clip that has not been claimed by
an earlier query; the claimed clip leaves the candidate pool. Queries go
in ascending id order so runs are reproducible, and ties always go to the
smallest clip id.

Similarities are streamed, one fixed 512-row query block at a time and
within it one column tile of the pool at a time, so memory holds one
512 x tile product, never a 512 x pool one. Each query of a block claims
from its shortlist: every entry of its row, unclaimed when the block
started, that is at least its threshold theta, the K-th best such entry of
the first tile that holds K unclaimed clips (earlier tiles keep all their
unclaimed entries). While the best unclaimed shortlist entry is at least
theta, it is the best unclaimed entry of the whole row, ties included.
When it is not, the shortlists of the block's remaining queries are
rebuilt from the same products with the current claims, so the bits and
the result are those of one masked argmax per full row.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import container
from .embedcore import BLOCK_ROWS, EmbeddingSet, column_tiles, row_blocks
from .errors import DimMismatch, DuplicateId, EmptyStyleSet, NotNormalized, PoolExhausted

ORDER_QUERY_ID = "query_id"   # the one processing order; recorded in pair-file headers
HEADER_FIELDS = {"query_set": str, "clip_set": str, "policy": str}   # pair-file keys and types
RECORD_FIELDS = {"query_id": int, "clip_id": int, "sim": float}
SHORTLIST_K = 32   # rank, among a row's unclaimed entries of one tile, of its threshold
THETA_ROWS = 64    # rows of a tile partitioned at once for their thresholds


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
        if _has_repeat(self.clip_ids):
            raise DuplicateId("a clip id is assigned to more than one query")
        if _has_repeat(self.query_ids):
            raise DuplicateId("a query id appears in more than one pair")

    def __len__(self) -> int:
        return len(self.query_ids)


def _has_repeat(ids: np.ndarray) -> bool:
    """Whether any value of `ids` repeats: sorted, a repeat sits next to its twin."""
    ordered = np.sort(ids)
    return bool((ordered[1:] == ordered[:-1]).any())


def _shortlists(block: np.ndarray, start: int, pool: np.ndarray, taken: np.ndarray,
                prod_buf: np.ndarray, keep_buf: np.ndarray):
    """Shortlists of rows start.. of a float64 query block against the pool.

    Returns (ptr, cols, sims, theta), ptr and theta as lists: row start + k
    holds cols[ptr[k]:ptr[k + 1]], ascending, their sims, and its threshold
    theta[k]. Each column tile's product goes into the flat float64
    `prod_buf` and its keep mask into the flat bool `keep_buf`, each at
    least a block by the widest tile. Tiles before the one that sets the
    thresholds keep every unclaimed entry, some of them below it. The
    products cover the whole block, so they carry its bits whichever rows
    are kept.
    """
    n = block.shape[0] - start
    theta = np.full((n, 1), np.finfo(np.float64).min)   # keeps every unclaimed entry
    theta_set = False
    entries = []
    for c0, c1 in column_tiles(pool.shape[0]):
        w = c1 - c0
        prod = np.matmul(block, pool[c0:c1].astype(np.float64).T,
                         out=prod_buf[:block.shape[0] * w].reshape(-1, w))[start:]
        claimed = taken[c0:c1]
        prod[:, claimed] = -np.inf
        if not theta_set and w - np.count_nonzero(claimed) >= SHORTLIST_K:
            kth = w - SHORTLIST_K
            for r0 in range(0, n, THETA_ROWS):   # a partitioned copy of a slice, not the tile
                theta[r0:r0 + THETA_ROWS] = np.partition(prod[r0:r0 + THETA_ROWS], kth,
                                                         axis=1)[:, kth:kth + 1]
            theta_set = True
        flat = np.flatnonzero(np.greater_equal(prod, theta, out=keep_buf[:n * w].reshape(n, w)))
        row, col = np.divmod(flat, w)
        entries.append((row.astype(np.int32), (col + c0).astype(np.int32), prod.ravel()[flat]))
    rows, cols, sims = (np.concatenate(part) for part in zip(*entries))
    del entries
    order = np.argsort(rows, kind="stable")   # per row, tiles and columns stay ascending
    ptr = [0, *np.cumsum(np.bincount(rows, minlength=n)).tolist()]
    return ptr, cols[order], sims[order], theta.ravel().tolist()


def match_exclusive(queries: EmbeddingSet, clips: EmbeddingSet) -> PseudoPairSet:
    """Assign every query its best still-unclaimed clip.

    Query blocks go in ascending order, and so do the queries of a block:
    each takes the first maximum of its row with the claimed clips masked
    to -inf, as one argmax over the full row would (module docstring).
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
    size = min(n_q, BLOCK_ROWS) * max(c1 - c0 for c0, c1 in column_tiles(n_c))
    prod_buf, keep_buf = np.empty(size), np.empty(size, dtype=bool)

    for lo, hi in row_blocks(n_q):
        block = queries.data[lo:hi].astype(np.float64)
        qi = lo
        while qi < hi:
            ptr, cols, sims, theta = _shortlists(block, qi - lo, clips.data, taken,
                                                 prod_buf, keep_buf)
            for k, threshold in enumerate(theta):
                short = cols[ptr[k]:ptr[k + 1]]
                free = np.where(taken[short], -np.inf, sims[ptr[k]:ptr[k + 1]])
                j = free.argmax()
                if free[j] < threshold:
                    break   # a better clip may lie outside the shortlist: rebuild from here
                taken[short[j]] = True
                chosen_col[qi] = short[j]
                chosen_sim[qi] = free[j]
                qi += 1
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
    try:
        return PseudoPairSet(query_ids=cols["query_id"], clip_ids=cols["clip_id"],
                             sims=cols["sim"], query_set=header["query_set"],
                             clip_set=header["clip_set"])
    except DuplicateId as exc:
        raise DuplicateId(f"{path}: {exc}") from exc
