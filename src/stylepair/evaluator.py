"""Text-to-video retrieval metrics: recall at 1/5/10 and median rank."""

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .embedcore import EmbeddingSet, pairwise_dots, row_blocks
from .errors import DimMismatch, EmptyRanks, MissingTruth, NotNormalized
from .trainer import AdapterModel, project


@dataclass
class RetrievalReport:
    r1: float
    r5: float
    r10: float
    median_rank: float
    query_count: int
    per_query_ranks: list[int]

    def to_dict(self, include_ranks: bool = True) -> dict:
        out = asdict(self)
        if not include_ranks:
            del out["per_query_ranks"]
        return out


def rank_queries(
    queries: EmbeddingSet,
    candidates: EmbeddingSet,
    truth: dict[int, int],
    model: AdapterModel | None = None,
) -> np.ndarray:
    """Rank of each query's ground-truth candidate, 1-based.

    Similarities use the adapter's projected-and-renormalized embeddings
    (`trainer.project`; NonFiniteLoss if a projection collapses) when a
    model is given and raw cosine otherwise. The rank counts every strictly
    better candidate plus every equal-similarity candidate with a smaller
    id, i.e. ties are broken against the ground truth by ascending
    candidate id.
    """
    if queries.dim != candidates.dim:
        raise DimMismatch(f"dims differ: {queries.dim} vs {candidates.dim}")
    if not queries.normalized or not candidates.normalized:
        raise NotNormalized("retrieval expects normalized sets")
    if model is not None and model.dim != queries.dim:
        raise DimMismatch(f"adapter dim {model.dim} vs embedding dim {queries.dim}")
    missing = [qid for qid in queries.ids.tolist() if qid not in truth]
    if missing:
        raise MissingTruth(f"no ground truth for query {missing[0]}")
    truth_cols = candidates.row_for_id([truth[qid] for qid in queries.ids.tolist()])

    if model is None:
        q_rows, c_rows = queries.data, candidates.data
    else:
        q_rows = project(model.text_head, queries.data)[0]
        c_rows = project(model.video_head, candidates.data)[0]
    ranks = np.empty(queries.count, dtype=np.int64)
    for lo, hi in row_blocks(queries.count):   # one block of similarities at a time
        sims = pairwise_dots(q_rows[lo:hi], c_rows)
        s_true = sims[np.arange(hi - lo), truth_cols[lo:hi]][:, None]
        tied_before = (sims == s_true) & (candidates.ids < candidates.ids[truth_cols[lo:hi], None])
        ranks[lo:hi] = 1 + (sims > s_true).sum(axis=1) + tied_before.sum(axis=1)
        del sims, tied_before   # freed before the next block's product
    return ranks


def report(ranks) -> RetrievalReport:
    """Summarize 1-based ranks into recall percentages and the median rank.

    An even rank count takes the arithmetic mean of the two middle values.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise EmptyRanks("cannot summarize an empty rank list")
    if (ranks < 1).any():
        raise ValueError("ranks must be positive")
    n = ranks.size
    return RetrievalReport(
        r1=100.0 * float((ranks <= 1).sum()) / n,
        r5=100.0 * float((ranks <= 5).sum()) / n,
        r10=100.0 * float((ranks <= 10).sum()) / n,
        median_rank=float(np.median(ranks)),
        query_count=int(n),
        per_query_ranks=[int(r) for r in ranks],
    )


def write_ranks_csv(rep: RetrievalReport, path: str | os.PathLike) -> None:
    with container.atomic_write(path, "w", encoding="utf-8") as f:
        f.write("query_index,rank\n")
        for i, r in enumerate(rep.per_query_ranks):
            f.write(f"{i},{r}\n")
