import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylepair import matcher
from stylepair.container import read_records
from stylepair.embedcore import TILE_COLS, column_tiles
from stylepair.errors import DimMismatch, PoolExhausted
from stylepair.matcher import (
    SHORTLIST_K,
    PseudoPairSet,
    match_exclusive,
    read_pseudo_pairs,
    write_pseudo_pairs,
)

from conftest import make_set, random_unit_set, traced_peak


def pair_rows(pairs):
    return list(zip(pairs.query_ids.tolist(), pairs.clip_ids.tolist(), pairs.sims.tolist()))


def masked_argmax_reference(queries, clips):
    """Naive oracle: full matrix, per-query argmax over unassigned columns."""
    sims = queries.data.astype(np.float64) @ clips.data.astype(np.float64).T
    taken = np.zeros(clips.count, dtype=bool)
    cols, vals = [], []
    for qi in range(queries.count):
        row = sims[qi].copy()
        row[taken] = -np.inf
        col = int(np.argmax(row))   # first max = smallest clip id
        taken[col] = True
        cols.append(col)
        vals.append(sims[qi, col])
    return np.array(cols), np.array(vals)


class TestMatchExclusive:
    def test_single_query_single_clip(self):
        q = make_set([[1.0, 0.0]])
        c = make_set([[1.0, 0.0]])
        out = match_exclusive(q, c)
        assert pair_rows(out) == [(0, 0, pytest.approx(1.0))]

    def test_greedy_hand_trace(self):
        # identical queries: the first takes the best clip, the second the runner-up
        q = make_set([[1.0, 0.0], [1.0, 0.0]])
        c = make_set([[1.0, 0.0], [0.9, 0.43589]])
        out = match_exclusive(q, c)
        pairs = pair_rows(out)
        assert pairs[0][:2] == (0, 0)
        assert pairs[0][2] == pytest.approx(1.0, abs=1e-6)
        assert pairs[1][:2] == (1, 1)
        assert pairs[1][2] == pytest.approx(0.9, abs=1e-6)

    def test_matches_masked_argmax_oracle(self):
        rng = np.random.default_rng(0)
        q = random_unit_set(rng, 20, 6)
        c = random_unit_set(rng, 60, 6)
        out = match_exclusive(q, c)
        cols, vals = masked_argmax_reference(q, c)
        assert np.array_equal(out.clip_ids, c.ids[cols])
        assert np.array_equal(out.sims, vals)

    def test_exact_across_block_boundaries(self):
        # over three 512-row query blocks; repeated queries and duplicated
        # clip vectors put claims and ties on both sides of every boundary
        rng = np.random.default_rng(1)
        raw_q = rng.normal(size=(1600, 4))
        raw_q[500:530] = raw_q[0]
        raw_q[1020:1040] = raw_q[0]
        raw_q[1530:1545] = raw_q[1022]
        q = make_set(raw_q)
        c = make_set(np.repeat(rng.normal(size=(1050, 4)), 2, axis=0))
        cols, vals = masked_argmax_reference(q, c)
        out = match_exclusive(q, c)
        assert np.array_equal(out.clip_ids, c.ids[cols])
        assert np.array_equal(out.sims, vals)

    def test_memory_stays_below_the_full_matrix(self):
        rng = np.random.default_rng(12)
        q = random_unit_set(rng, 1600, 8)
        c = random_unit_set(rng, 20_000, 8)
        assert traced_peak(lambda: match_exclusive(q, c)) < q.count * c.count * 8 / 2

    def test_memory_does_not_grow_with_the_pool(self):
        # doubling the pool once added 512 x 20,000 float64 entries to the block
        rng = np.random.default_rng(13)
        q = random_unit_set(rng, 1600, 8)
        peaks = []
        for n_c in (20_000, 40_000):
            c = random_unit_set(rng, n_c, 8)
            peaks.append(traced_peak(lambda: match_exclusive(q, c)))
        assert peaks[1] - peaks[0] < 512 * 20_000 * 8 / 8

    def test_pool_exhausted(self):
        q = make_set([[1.0, 0.0], [0.0, 1.0]])
        c = make_set([[1.0, 0.0]])
        with pytest.raises(PoolExhausted):
            match_exclusive(q, c)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            match_exclusive(make_set([[1.0, 0.0]]), make_set([[1.0, 0.0, 0.0]]))

    def test_tie_breaks_to_smallest_clip_id(self):
        q = make_set([[1.0, 0.0]])
        c = make_set([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], ids=[4, 7, 9])
        out = match_exclusive(q, c)
        assert out.clip_ids[0] == 4

    def test_monotone_degradation_for_identical_queries(self):
        rng = np.random.default_rng(2)
        q = make_set(np.tile(rng.normal(size=(1, 5)), (12, 1)))
        c = random_unit_set(rng, 30, 5)
        out = match_exclusive(q, c)
        assert np.all(np.diff(out.sims) <= 1e-12)

    def test_clip_relabeling_keeps_assigned_content(self):
        rng = np.random.default_rng(3)
        q = random_unit_set(rng, 8, 5)
        raw = rng.normal(size=(20, 5)).astype(np.float32)
        c1 = make_set(raw)
        perm = rng.permutation(20)
        c2 = make_set(raw[perm])   # same vectors, shuffled into different ids
        out1 = match_exclusive(q, c1)
        out2 = match_exclusive(q, c2)
        for (qa, ca, _), (qb, cb, _) in zip(pair_rows(out1), pair_rows(out2)):
            assert qa == qb
            assert np.array_equal(c1.data[ca], c2.data[cb])

    def test_pair_sims_are_true_cosines(self):
        rng = np.random.default_rng(9)
        q = random_unit_set(rng, 10, 5)
        c = random_unit_set(rng, 16, 5)
        out = match_exclusive(q, c)
        for qid, cid, sim in pair_rows(out):
            qi = int(np.searchsorted(q.ids, qid))
            ci = int(np.searchsorted(c.ids, cid))
            want = q.data[qi].astype(np.float64) @ c.data[ci].astype(np.float64)
            assert sim == pytest.approx(want, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        n_q=st.integers(1, 12),
        extra=st.integers(0, 10),
        dim=st.integers(2, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_injectivity_property(self, n_q, extra, dim, seed):
        rng = np.random.default_rng(seed)
        q = random_unit_set(rng, n_q, dim)
        c = random_unit_set(rng, n_q + extra, dim)
        out = match_exclusive(q, c)
        assert len(np.unique(out.clip_ids)) == len(out.clip_ids)
        assert len(np.unique(out.query_ids)) == len(out.query_ids)


class TestPairPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        q = random_unit_set(rng, 6, 4)
        c = random_unit_set(rng, 9, 4)
        pairs = match_exclusive(q, c)
        pairs.query_set = "queries"
        pairs.clip_set = "pool"
        path = tmp_path / "pairs.jsonl"
        write_pseudo_pairs(pairs, path)
        back = read_pseudo_pairs(path)
        assert np.array_equal(back.query_ids, pairs.query_ids)
        assert np.array_equal(back.clip_ids, pairs.clip_ids)
        assert np.array_equal(back.sims, pairs.sims)
        assert (back.query_set, back.clip_set) == ("queries", "pool")
        header, _ = read_records(path, "pseudo_pairs", None, {"query_set": str, "clip_set": str,
                                                              "policy": str})
        assert header["policy"] == "query_id"

    def test_duplicate_clip_rejected(self):
        with pytest.raises(Exception, match="clip"):
            PseudoPairSet(query_ids=[0, 1], clip_ids=[5, 5], sims=[0.5, 0.4])


def assert_matches_oracle(q, c):
    # the oracle's one product has the bits of the matcher's blocks while q fits one block
    assert q.count <= 512
    cols, vals = masked_argmax_reference(q, c)
    out = match_exclusive(q, c)
    assert np.array_equal(out.clip_ids, c.ids[cols])
    assert np.array_equal(out.sims, vals)


@pytest.fixture
def shortlist_builds(monkeypatch):
    """The start row of every shortlist build; a build that makes no progress fails."""
    starts = []
    build = matcher._shortlists

    def counted(block, start, pool, taken, *buffers):
        starts.append(start)
        assert len(starts) <= 64, "shortlist rebuilds make no progress"
        return build(block, start, pool, taken, *buffers)

    monkeypatch.setattr(matcher, "_shortlists", counted)
    return starts


class TestTiledPool:
    """Pools wider than one column tile, against the full-row oracle bit for bit."""

    def test_several_tiles_with_a_remainder_narrower_than_k(self):
        rng = np.random.default_rng(20)
        q = random_unit_set(rng, 512, 12)
        c = random_unit_set(rng, 3 * TILE_COLS + SHORTLIST_K // 2, 12)
        assert_matches_oracle(q, c)

    def test_duplicate_clips_on_both_sides_of_a_tile_boundary(self, shortlist_builds):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(2 * TILE_COLS + 300, 16))
        dup = rng.normal(size=(8, 16))
        for k, row in enumerate(dup):
            raw[TILE_COLS - 8 + k] = raw[TILE_COLS + k] = row   # just below and above the boundary
        # more than K copies of the first vector in each tile: for its queries
        # the threshold ties with every copy, and all of them must be kept
        raw[100:100 + 40 * 20:20] = dup[0]
        raw[TILE_COLS + 100:TILE_COLS + 100 + 40 * 20:20] = dup[0]
        queries = np.concatenate([np.repeat(dup, 12, axis=0), rng.normal(size=(200, 16))])
        assert_matches_oracle(make_set(queries[rng.permutation(len(queries))]), make_set(raw))
        assert shortlist_builds == [0]   # the tied copies outnumber their queries: no rebuild

    def test_identical_queries_exhaust_their_shortlists(self, shortlist_builds):
        rng = np.random.default_rng(22)
        c = random_unit_set(rng, 2 * TILE_COLS + 40, 10)
        raw = rng.normal(size=(400, 10))
        raw[50:350] = raw[0]   # 301 identical queries in one block, far more than K
        assert_matches_oracle(make_set(raw), c)
        assert len(shortlist_builds) > 1   # one block, so every later build is a rebuild

    def test_rows_kept_below_the_threshold_do_not_shadow_the_pool(self, shortlist_builds):
        # earlier blocks claim all but a few clips of the first tile, so every
        # row keeps those few whatever their sims; once the identical queries
        # of the next block have claimed every entry at or above their
        # threshold, a better clip than those few lies in the tiles beyond
        rng = np.random.default_rng(23)
        u, v = np.eye(8)[0], np.eye(8)[1]
        clips = rng.normal(size=(3 * TILE_COLS, 8))
        clips[:TILE_COLS] = u + 0.1 * clips[:TILE_COLS]
        queries = np.concatenate([u + 0.05 * rng.normal(size=(TILE_COLS - 18, 8)),
                                  np.tile(v, (200, 1))])
        q, c = make_set(queries), make_set(clips)
        cols, vals = masked_argmax_reference(q, c)
        out = match_exclusive(q, c)
        assert np.array_equal(out.clip_ids, c.ids[cols])
        assert np.array_equal(out.sims, vals)


def whole_tile_thresholds(block, start, pool, taken):
    """Each row's threshold from one np.partition of the whole tile that sets it."""
    for c0, c1 in column_tiles(pool.shape[0]):
        w = c1 - c0
        if w - np.count_nonzero(taken[c0:c1]) >= SHORTLIST_K:
            prod = np.matmul(block, pool[c0:c1].astype(np.float64).T)[start:]
            prod[:, taken[c0:c1]] = -np.inf
            return np.partition(prod, w - SHORTLIST_K, axis=1)[:, w - SHORTLIST_K]


class TestThresholdSlices:
    """The thresholds, taken THETA_ROWS rows at a time, are those of the whole tile."""

    @pytest.mark.parametrize("n_rows, start", [(300, 0), (512, 0), (300, 37), (512, 129)])
    @pytest.mark.parametrize("claim_first_tile", [False, True])
    def test_slices_give_the_whole_tile_thresholds(self, n_rows, start, claim_first_tile):
        rng = np.random.default_rng(n_rows + start)
        # few distinct vectors on each side: most entries of a row tie with many others
        clips = make_set(rng.integers(-1, 2, size=(8, 6))[rng.integers(0, 8, 2 * TILE_COLS + 70)]
                         + np.eye(6)[0] * 0.5)
        queries = make_set(rng.integers(-1, 2, size=(5, 6))[rng.integers(0, 5, n_rows)]
                           + np.eye(6)[1] * 0.5)
        taken = rng.random(clips.count) < 0.3
        if claim_first_tile:   # too few unclaimed clips left: the second tile sets the thresholds
            taken[:TILE_COLS - SHORTLIST_K // 2] = True
        block = queries.data.astype(np.float64)
        size = n_rows * max(c1 - c0 for c0, c1 in column_tiles(clips.count))
        *_, theta = matcher._shortlists(block, start, clips.data, taken, np.empty(size),
                                        np.empty(size, dtype=bool))
        want = whole_tile_thresholds(block, start, clips.data, taken)
        assert n_rows - start > matcher.THETA_ROWS   # more than one slice
        assert np.array_equal(np.array(theta).view(np.int64), want.view(np.int64))
        assert len(set(theta)) < len(theta) / 10   # tie-heavy: the rows share few thresholds

    def test_one_block_peaks_below_1_6_tiles_of_its_product(self):
        # one 512-query block against 8,192 clips: the 512 x 2,048 float64 product tile,
        # its keep mask and the shortlists, but no partitioned copy of the whole tile
        rng = np.random.default_rng(24)
        q = random_unit_set(rng, 512, 64)
        c = random_unit_set(rng, 8192, 64)
        tile = 512 * TILE_COLS * 8
        assert traced_peak(lambda: match_exclusive(q, c)) < 1.6 * tile
