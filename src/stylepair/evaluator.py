"""Text-to-video retrieval metrics: recall at 1/5/10 and median rank."""

import os
from dataclasses import dataclass

import numpy as np

from . import container
from .embedcore import EmbeddingSet, pairwise_dots
from .errors import DimMismatch, EmptyRanks, MissingTruth, NotNormalized, UnknownCandidate
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
        out = {
            "r1": self.r1,
            "r5": self.r5,
            "r10": self.r10,
            "median_rank": self.median_rank,
            "query_count": self.query_count,
        }
        if include_ranks:
            out["per_query_ranks"] = self.per_query_ranks
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
    truth_cols = np.empty(queries.count, dtype=np.int64)
    for i, qid in enumerate(queries.ids):
        qid = int(qid)
        if qid not in truth:
            raise MissingTruth(f"no ground truth for query {qid}")
        target = int(truth[qid])
        pos = np.searchsorted(candidates.ids, target)
        if pos >= candidates.count or candidates.ids[pos] != target:
            raise UnknownCandidate(f"truth candidate {target} not in candidate set")
        truth_cols[i] = pos

    if model is None:
        q_rows, c_rows = queries.data, candidates.data
    else:
        q_rows = project(model.text_head, queries.data)[0]
        c_rows = project(model.video_head, candidates.data)[0]
    sims = pairwise_dots(q_rows, c_rows)

    ranks = np.empty(queries.count, dtype=np.int64)
    cand_ids = candidates.ids
    for i in range(queries.count):
        row = sims[i]
        s_true = row[truth_cols[i]]
        better = int((row > s_true).sum())
        tied_before = int(((row == s_true) & (cand_ids < cand_ids[truth_cols[i]])).sum())
        ranks[i] = 1 + better + tied_before
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
