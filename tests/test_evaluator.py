import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylepair.embedcore import pairwise_dots
from stylepair.errors import EmptyRanks, MissingTruth, StylePairError, UnknownCandidate
from stylepair.evaluator import rank_queries, report
from stylepair.trainer import AdapterModel, project

from conftest import make_set, random_unit_set, traced_peak


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


def whole_matrix_ranks(queries, cands, truth, model=None):
    """rank_queries as it ranked before its query blocks: from one (queries, candidates) matrix."""
    if model is None:
        q_rows, c_rows = queries.data, cands.data
    else:
        q_rows = project(model.text_head, queries.data)[0]
        c_rows = project(model.video_head, cands.data)[0]
    sims = pairwise_dots(q_rows, c_rows)
    truth_cols = cands.row_for_id([truth[qid] for qid in queries.ids.tolist()])
    s_true = sims[np.arange(queries.count), truth_cols][:, None]
    tied_before = (sims == s_true) & (cands.ids < cands.ids[truth_cols][:, None])
    return 1 + (sims > s_true).sum(axis=1) + tied_before.sum(axis=1)


def tie_heavy_sets(rng, n_queries, n_cands, dim=8):
    """Candidates drawn from 40 distinct rows, and queries that repeat some of them."""
    rows = rng.normal(size=(40, dim))
    cands = make_set(rows[rng.integers(0, 40, n_cands)],
                     ids=np.sort(rng.choice(10 * n_cands, n_cands, replace=False)))
    queries = make_set(rows[rng.integers(0, 40, n_queries)], ids=range(n_queries))
    truth = {q: int(cands.ids[c]) for q, c in enumerate(rng.integers(0, n_cands, n_queries))}
    return queries, cands, truth


class TestRankQueries:
    @pytest.mark.parametrize("n_queries", [1, 511, 512, 513, 1100, 2048])
    def test_query_blocks_rank_as_the_whole_matrix(self, n_queries):
        # 1,100 rows leave a ragged 76-row last block
        rng = np.random.default_rng(n_queries)
        queries, cands, truth = tie_heavy_sets(rng, n_queries, 300)
        model = AdapterModel(text_head=rng.normal(size=(6, 8)),
                             video_head=rng.normal(size=(6, 8)))
        ranks = rank_queries(queries, cands, truth)
        assert np.array_equal(ranks, whole_matrix_ranks(queries, cands, truth))
        assert (ranks > 1).any()   # ties against lower ids do occur
        assert np.array_equal(rank_queries(queries, cands, truth, model=model),
                              whole_matrix_ranks(queries, cands, truth, model=model))

    def test_peak_memory_stays_flat_as_queries_grow(self):
        rng = np.random.default_rng(3)
        n_cands = 2048
        cands = random_unit_set(rng, n_cands, 16)
        block_bytes = 512 * n_cands * 8   # one query block's float64 similarities
        peaks = []
        for n_queries in (1100, 2600):
            queries = random_unit_set(rng, n_queries, 16)
            truth = {q: int(rng.integers(0, n_cands)) for q in range(n_queries)}
            peaks.append(traced_peak(lambda: rank_queries(queries, cands, truth)))
        assert peaks[1] < peaks[0] + block_bytes // 4
        # one block's similarities and its masks: the product is written in place, and
        # the previous block's are freed before it
        assert peaks[1] < 1.5 * block_bytes

    def test_peak_with_an_adapter_holds_one_block_of_similarities(self):
        rng = np.random.default_rng(4)
        n_queries, n_cands = 1100, 4096
        cands = random_unit_set(rng, n_cands, 16)
        queries = random_unit_set(rng, n_queries, 16)
        truth = {q: int(rng.integers(0, n_cands)) for q in range(n_queries)}
        model = AdapterModel(text_head=rng.normal(size=(16, 16)),
                             video_head=rng.normal(size=(16, 16)))
        peak = traced_peak(lambda: rank_queries(queries, cands, truth, model=model))
        assert peak < 1.5 * 512 * n_cands * 8

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
