import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylepair.embedcore import pairwise_dots
from stylepair.errors import EmptyRanks, MissingTruth, StylePairError, UnknownCandidate
from stylepair.evaluator import rank_queries, report
from stylepair.trainer import AdapterModel

from conftest import make_set, random_unit_set


def sort_rank_oracle(sims_row, cand_ids, truth_col):
    """Stable descending sort, ties broken by ascending candidate id."""
    order = sorted(range(len(cand_ids)), key=lambda j: (-sims_row[j], cand_ids[j]))
    return order.index(truth_col) + 1


def per_query_loop_ranks(sims, cand_ids, truth_cols):
    """The per-query loop rank_queries used before it counted with whole-matrix comparisons."""
    ranks = np.empty(len(truth_cols), dtype=np.int64)
    for i, col in enumerate(truth_cols):
        row = sims[i]
        better = int((row > row[col]).sum())
        tied_before = int(((row == row[col]) & (cand_ids < cand_ids[col])).sum())
        ranks[i] = 1 + better + tied_before
    return ranks


class TestRankQueries:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_per_query_loop_on_tie_heavy_sets(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(6, 4))[rng.integers(0, 6, 30)]   # many duplicate candidates
        cands = make_set(rows, ids=np.sort(rng.choice(1000, 30, replace=False)))
        queries = make_set(rows[rng.integers(0, 30, 12)], ids=range(12))
        truth_cols = rng.integers(0, 30, 12)
        truth = {q: int(cands.ids[c]) for q, c in enumerate(truth_cols)}
        sims = pairwise_dots(queries.data, cands.data)   # the product rank_queries ranks by
        assert np.array_equal(rank_queries(queries, cands, truth),
                              per_query_loop_ranks(sims, cands.ids, truth_cols))

    def test_identity_similarity_all_rank_one(self):
        basis = make_set(np.eye(4))
        truth = {i: i for i in range(4)}
        assert np.array_equal(rank_queries(basis, basis, truth), [1, 1, 1, 1])

    def test_worst_case_truth_ranks_last(self):
        n = 6
        queries = make_set([[1.0, 0.0]] * n, ids=range(n))
        angles = np.linspace(0.0, 1.2, n)   # similarity decreases with candidate id
        cands = make_set(np.stack([np.cos(angles), np.sin(angles)], axis=1),
                         ids=range(n))
        truth = {i: n - 1 for i in range(n)}
        assert np.array_equal(rank_queries(queries, cands, truth), [n] * n)

    def test_matches_sort_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            queries = random_unit_set(rng, 9, 5)
            cands = random_unit_set(rng, 9, 5)
            truth = {int(q): int(rng.integers(0, 9)) for q in queries.ids}
            ranks = rank_queries(queries, cands, truth)
            sims = queries.data.astype(np.float64) @ cands.data.astype(np.float64).T
            for i, qid in enumerate(queries.ids):
                expect = sort_rank_oracle(sims[i], cands.ids, truth[int(qid)])
                assert ranks[i] == expect

    def test_tie_counts_smaller_ids_ahead_of_truth(self):
        queries = make_set([[1.0, 0.0]])
        cands = make_set([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], ids=[2, 5, 9])
        # all three candidates tie; truth id 5 loses to id 2 but beats id 9
        assert rank_queries(queries, cands, {0: 5})[0] == 2
        assert rank_queries(queries, cands, {0: 2})[0] == 1
        assert rank_queries(queries, cands, {0: 9})[0] == 3

    def test_identity_adapter_matches_zero_shot(self):
        rng = np.random.default_rng(1)
        queries = random_unit_set(rng, 12, 6)
        cands = random_unit_set(rng, 20, 6)
        truth = {int(q): int(c) for q, c in zip(queries.ids, cands.ids[:12])}
        identity = AdapterModel(text_head=np.eye(6), video_head=np.eye(6), tau=0.05)
        assert np.array_equal(rank_queries(queries, cands, truth),
                              rank_queries(queries, cands, truth, model=identity))

    def test_candidate_relabeling_keeps_ranks_when_sims_distinct(self):
        rng = np.random.default_rng(2)
        queries = random_unit_set(rng, 6, 5)
        raw = rng.normal(size=(10, 5)).astype(np.float32)
        ids_a = np.arange(10)
        ids_b = np.arange(10) * 7 + 3   # same order, different labels
        cands_a = make_set(raw, ids=ids_a)
        cands_b = make_set(raw, ids=ids_b)
        truth_a = {int(q): int(rng.integers(0, 10)) for q in queries.ids}
        truth_b = {q: int(ids_b[t]) for q, t in truth_a.items()}
        assert np.array_equal(rank_queries(queries, cands_a, truth_a),
                              rank_queries(queries, cands_b, truth_b))

    def test_missing_truth(self):
        basis = make_set(np.eye(2))
        with pytest.raises(MissingTruth):
            rank_queries(basis, basis, {0: 0})

    def test_unknown_candidate(self):
        basis = make_set(np.eye(2))
        with pytest.raises(UnknownCandidate):
            rank_queries(basis, basis, {0: 0, 1: 99})

    def test_collapsed_projection_is_a_typed_error(self):
        basis = make_set(np.eye(2))
        # the text head maps the second axis to zero, so that query has no direction
        model = AdapterModel(text_head=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             video_head=np.eye(2), tau=0.05)
        with pytest.raises(StylePairError, match="collapsed"):
            rank_queries(basis, basis, {0: 0, 1: 1}, model=model)


class TestReport:
    def test_one_two_three(self):
        rep = report([1, 2, 3])
        assert rep.r1 == pytest.approx(100.0 / 3.0)
        assert rep.r5 == 100.0
        assert rep.median_rank == 2.0
        assert rep.query_count == 3

    def test_all_first(self):
        rep = report([1, 1, 1, 1])
        assert rep.r1 == 100.0
        assert rep.median_rank == 1.0

    def test_even_count_median_averages_middle_pair(self):
        rep = report([1, 2, 3, 10])
        assert rep.median_rank == 2.5

    def test_recall_ordering_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ranks = rng.integers(1, 50, size=int(rng.integers(1, 30)))
            rep = report(ranks)
            assert rep.r1 <= rep.r5 <= rep.r10
            assert rep.median_rank >= 1.0
            assert rep.per_query_ranks == list(ranks)

    def test_empty_rejected(self):
        with pytest.raises(EmptyRanks):
            report([])

    @settings(max_examples=30, deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 100), min_size=1, max_size=40),
        pos=st.integers(0, 39),
    )
    def test_improving_one_rank_never_hurts(self, ranks, pos):
        pos = pos % len(ranks)
        if ranks[pos] == 1:
            return
        better = list(ranks)
        better[pos] = ranks[pos] - 1
        before = report(ranks)
        after = report(better)
        assert after.r1 >= before.r1
        assert after.r5 >= before.r5
        assert after.r10 >= before.r10
        assert after.median_rank <= before.median_rank
