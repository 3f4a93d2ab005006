import os
import re
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from stylepair import embedcore
from stylepair.embedcore import (
    TILE_COLS,
    EmbeddingSet,
    blas_thread_controls,
    column_tiles,
    for_each,
    load_embeddings,
    pairwise_dots,
    read_rows,
    row_blocks,
    save_embeddings,
    unit_block,
)
from stylepair.errors import (
    DimMismatch,
    DuplicateId,
    MagicMismatch,
    NonFiniteLoss,
    NonFiniteValue,
    NotNormalized,
    RangeOutOfBounds,
    TruncatedFile,
    UnknownCandidate,
    VersionUnsupported,
    ZeroVectorRow,
)

from conftest import (at_blas_threads, count_forks, forks_workers, make_set, needs_blas_controls,
                      random_unit_set, traced_peak)


def cosine_oracle(a, b):
    """Cosine of two vectors by a scalar float64 loop."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    dot = sum(x * y for x, y in zip(a, b))
    return dot / (sum(x * x for x in a) ** 0.5 * sum(y * y for y in b) ** 0.5)


class TestEmbeddingSet:
    def test_ids_must_be_unique(self):
        with pytest.raises(DuplicateId):
            EmbeddingSet(ids=np.array([0, 1, 1]), data=np.zeros((3, 2), np.float32) + 1)

    def test_unknown_id_is_a_typed_error_naming_the_id(self):
        with pytest.raises(UnknownCandidate, match="5"):
            make_set([[1.0, 0.0], [0.0, 1.0]], ids=[2, 4]).row_for_id([4, 5])
        with pytest.raises(UnknownCandidate, match="1"):
            make_set([[1.0, 0.0], [0.0, 1.0]], ids=[2, 4]).row_for_id(1)
        empty = EmbeddingSet(ids=np.zeros(0, np.int64), data=np.zeros((0, 2), np.float32))
        with pytest.raises(UnknownCandidate):
            empty.row_for_id([3])
        assert np.array_equal(empty.row_for_id([]), [])

    def test_ids_must_be_sorted(self):
        with pytest.raises(ValueError):
            EmbeddingSet(ids=np.array([2, 1, 3]), data=np.ones((3, 2), np.float32))

    def test_non_finite_rejected(self):
        data = np.ones((2, 2), np.float32)
        data[1, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            EmbeddingSet(ids=np.array([0, 1]), data=data)

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("bad_row", [0, 511, 512, 1099])
    def test_non_finite_caught_in_any_row_block(self, bad_row, normalized):
        data = np.zeros((1100, 4), np.float32)
        data[:, 0] = 1.0
        data[bad_row, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            EmbeddingSet(ids=np.arange(1100), data=data, normalized=normalized)

    def test_lying_normalized_flag_rejected(self):
        with pytest.raises(NotNormalized):
            EmbeddingSet(ids=np.array([0]), data=np.array([[3.0, 4.0]], np.float32),
                         normalized=True)

    @pytest.mark.parametrize("bad_row", [0, 511, 512, 1099])
    def test_lying_flag_caught_in_any_row_block(self, bad_row):
        data = np.zeros((1100, 4), np.float32)
        data[:, 0] = 1.0
        data[bad_row, 0] = 1.01
        with pytest.raises(NotNormalized, match="1.00e-02"):
            EmbeddingSet(ids=np.arange(1100), data=data, normalized=True)

    def test_rows_are_read_only(self):
        es = make_set([[1.0, 0.0]])
        with pytest.raises(ValueError):
            es.data[0, 0] = 2.0


def unit_rows(ids, raw):
    """raw's float32 rows rescaled to unit L2 norm by one unit_block call."""
    raw = np.asarray(raw, np.float32)
    out = np.empty_like(raw)
    unit_block(np.asarray(ids), raw.astype(np.float64), out)
    return out


class TestNormalize:
    """unit_block, the block normalizer of synthesis and stylize."""

    def test_three_four_five(self):
        out = unit_rows([0], [[3.0, 4.0]])
        assert out[0] == pytest.approx([0.6, 0.8], abs=1e-7)
        assert EmbeddingSet(ids=np.array([0]), data=out, normalized=True).normalized

    def test_already_unit(self):
        assert unit_rows([0], [[1.0, 0.0]])[0] == pytest.approx([1.0, 0.0], abs=0)

    def test_random_matrix_row_norms(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(10, 8)).astype(np.float32)
        out = unit_rows(np.arange(10), raw)
        norms = np.linalg.norm(out.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6
        # direction preserved
        for i in range(10):
            assert cosine_oracle(raw[i], out[i]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_row_reports_id(self):
        with pytest.raises(ZeroVectorRow, match="7"):
            unit_rows([3, 7], [[1.0, 0.0], [0.0, 0.0]])

    def test_zero_row_in_a_later_block_reports_its_id(self):
        data = np.ones((1100, 3), np.float32)
        data[1050] = 0.0
        with pytest.raises(ZeroVectorRow, match="row id 2050 "):
            unit_rows(np.arange(1000, 2100), data)

    def test_bits_equal_the_whole_array_float64_code(self):
        # three row blocks, the last one ragged, each through its own call
        raw = np.random.default_rng(5).normal(size=(1100, 64)).astype(np.float32)
        data64 = raw.astype(np.float64)
        want = (data64 / np.linalg.norm(data64, axis=1)[:, None]).astype(np.float32)
        got = np.concatenate([unit_rows(np.arange(lo, hi), raw[lo:hi])
                              for lo, hi in row_blocks(1100)])
        assert got.tobytes() == want.tobytes()


def copied_block_dots(a, b):
    """pairwise_dots as it was before it wrote in place: each block's product, then a copy."""
    b64t = b.astype(np.float64).T
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], 512):
        out[lo:lo + 512] = a[lo:lo + 512].astype(np.float64) @ b64t
    return out


class TestSimMatrix:
    """pairwise_dots of unit rows: the cosine-similarity matrix every stage uses."""

    def test_identity_bases(self):
        basis = make_set(np.eye(3))
        out = pairwise_dots(basis.data, basis.data)
        assert np.allclose(out, np.eye(3), atol=1e-7)

    def test_single_identical_vector(self):
        a = make_set([[0.5, 0.5, 0.5, 0.5]])
        out = pairwise_dots(a.data, a.data)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        texts = random_unit_set(rng, 7, 5)
        videos = random_unit_set(rng, 5, 5)
        out = pairwise_dots(texts.data, videos.data)
        for i in range(7):
            for j in range(5):
                assert out[i, j] == pytest.approx(
                    cosine_oracle(texts.data[i], videos.data[j]), abs=1e-6)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        a = random_unit_set(rng, 6, 4)
        b = random_unit_set(rng, 9, 4)
        assert np.allclose(pairwise_dots(a.data, b.data), pairwise_dots(b.data, a.data).T,
                           atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_dots(make_set([[1.0, 0.0]]).data, make_set([[1.0, 0.0, 0.0]]).data)

    @pytest.mark.parametrize("n_rows", [1, 513, 1100])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])   # float64 rows: an adapter's
    def test_bits_equal_the_copied_block_products(self, n_rows, dtype):
        rng = np.random.default_rng(n_rows)
        a = rng.normal(size=(n_rows, 64)).astype(dtype)
        b = rng.normal(size=(3000, 64)).astype(dtype)
        assert pairwise_dots(a, b).tobytes() == copied_block_dots(a, b).tobytes()

    @needs_blas_controls
    def test_thread_count_does_not_change_bits(self):
        # the BLAS thread count is the one thread count left that reaches these bits
        rng = np.random.default_rng(4)
        a = random_unit_set(rng, 700, 16)   # spans two fixed blocks
        b = random_unit_set(rng, 40, 16)
        one, two = (at_blas_threads(n, lambda: pairwise_dots(a.data, b.data)) for n in (1, 2))
        assert np.array_equal(one, two)


class TestForRowBlocks:
    @pytest.mark.parametrize("n_rows", [0, 1, 512, 513, 1100])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_fixed_blocks_cover_every_row_once(self, n_rows, threads):
        # each of `threads` concurrent callers gets the same blocks, in ascending order
        want = [(lo, min(lo + 512, n_rows)) for lo in range(0, n_rows, 512)]
        assert for_each(range(threads), lambda _: row_blocks(n_rows), threads) == [want] * threads


class TestRowBlockMemory:
    """Row-wise passes widen one block to float64, never the whole set."""

    def test_building_a_set_peaks_under_one_megabyte(self):
        # the checks hold one block's bool and float64 arrays, not a whole-set bool array
        # (2.56 MB at 40,000 x 64)
        data = random_unit_set(np.random.default_rng(8), 40_000, 64).data
        ids = np.arange(40_000)
        assert traced_peak(lambda: EmbeddingSet(ids=ids, data=data, normalized=True)) < 1_000_000

    def test_load_embeddings_peak_grows_by_the_float32_rows(self, tmp_path):
        rng = np.random.default_rng(7)
        paths = [tmp_path / f"{n}.iemb" for n in (20_000, 40_000)]
        for path, n in zip(paths, (20_000, 40_000)):
            save_embeddings(random_unit_set(rng, n, 64), path)
        peaks = [traced_peak(lambda: load_embeddings(path)) for path in paths]
        assert peaks[1] - peaks[0] < 20_000 * 64 * 4 * 3 // 2


class TestColumnTiles:
    @pytest.mark.parametrize("n_cols", [1, TILE_COLS - 1, TILE_COLS, 2 * TILE_COLS - 1,
                                        2 * TILE_COLS, 3 * TILE_COLS + 5])
    def test_tiles_cover_every_column_once_in_order(self, n_cols):
        tiles = column_tiles(n_cols)
        assert tiles[0][0] == 0 and tiles[-1][1] == n_cols
        assert all(prev[1] == nxt[0] for prev, nxt in zip(tiles, tiles[1:]))
        # a remainder joins the last full tile, so only a pool narrower than one tile is narrower
        widths = [c1 - c0 for c0, c1 in tiles]
        assert all(TILE_COLS <= w < 2 * TILE_COLS for w in widths) or widths == [n_cols]

    @pytest.mark.parametrize("dim", [12, 64, 128])
    @pytest.mark.parametrize("remainder", [0, 5, 191, 1500])
    @pytest.mark.parametrize("rows", [512, 300])
    def test_tiles_carry_the_bits_of_the_whole_block_product(self, dim, remainder, rows):
        # the premise of the streamed matcher: a query block's product over
        # the pool may be taken one column tile at a time, last tile included.
        # (A one-row block is a vector-matrix product, which OpenBLAS splits
        # across its threads by width, so only one BLAS thread pins its bits.)
        rng = np.random.default_rng(dim * 10_000 + remainder * 10 + rows)
        block = rng.normal(size=(rows, dim)).astype(np.float32).astype(np.float64)
        pool = rng.normal(size=(3 * TILE_COLS + remainder, dim)).astype(np.float32)
        whole = block @ pool.astype(np.float64).T
        tiled = np.concatenate([block @ pool[c0:c1].astype(np.float64).T
                                for c0, c1 in column_tiles(len(pool))], axis=1)
        assert np.array_equal(whole, tiled)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):   # ECHILD: nothing left to reap, running or not
        os.waitpid(-1, os.WNOHANG)


def process_alive(pid):
    """Whether `pid` still runs; a zombie that no parent reaps counts as dead."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestForEach:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_results_come_back_in_item_order(self, threads, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)

        def run(i):
            time.sleep(0.002 * (i % 3))   # later items often finish first
            return i * i, os.getpid()

        results = for_each(range(20), run, threads)
        assert [square for square, _ in results] == [i * i for i in range(20)]
        pids = {pid for _, pid in results}
        assert os.getpid() in pids
        assert len(pids) == (threads if blas_thread_controls() else 1)

    @forks_workers
    def test_threads_past_the_cpus_fork_no_more_workers(self, monkeypatch):
        forks = count_forks(monkeypatch, cpus=2, limit=1)
        assert for_each(range(8), lambda i: i, 8) == list(range(8))
        assert len(forks) == 1

    @forks_workers
    def test_threads_zero_uses_the_cpus_this_process_may_run_on(self, monkeypatch):
        def workers(threads):
            return len(set(for_each(range(8), lambda i: os.getpid(), threads)))

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert workers(0) == 2
        assert workers(1) == 1
        assert workers(5) == 2   # never more than those CPUs
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert workers(0) == 8   # all 64, capped at the items
        assert workers(5) == 5

    def test_runs_inline_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert for_each(range(4), lambda i: os.getpid(), 2) == [os.getpid()] * 4

    def test_first_error_in_item_order_reaches_caller_unchanged(self):
        errors = {i: NonFiniteLoss(f"item {i}") for i in (2, 3, 5)}

        def run(i):
            if i in errors:
                raise errors[i]
            return i

        with pytest.raises(NonFiniteLoss) as info:   # item 2 is the caller's own
            for_each(range(8), run, 2)
        assert info.value is errors[2]
        del errors[2]
        with pytest.raises(NonFiniteLoss) as info:   # items 3 and 5 run in a child: a copy comes back
            for_each(range(8), run, 2)
        assert type(info.value) is NonFiniteLoss and info.value.args == ("item 3",)

    @needs_blas_controls
    def test_a_childs_error_arrives_with_its_type_and_args(self):
        def run(i):
            if i == 1:
                raise DuplicateId("id 7 appears more than once", i)
            return i

        with pytest.raises(DuplicateId) as info:
            for_each(range(2), run, 2)
        assert info.value.args == ("id 7 appears more than once", 1)

    @needs_blas_controls
    def test_a_result_larger_than_the_pipe_buffer_comes_back(self):
        results = for_each(range(3), lambda i: np.full(1 << 17, i, dtype=np.float64), 3)
        assert [float(r.mean()) for r in results] == [0.0, 1.0, 2.0]
        assert_no_child_left()

    @needs_blas_controls
    @pytest.mark.parametrize("failing", [set(), {1}, {0}], ids=["none", "child", "caller"])
    def test_no_child_outlives_the_call(self, failing):
        def run(i):
            if i in failing:
                raise NonFiniteLoss(f"item {i}")
            return i

        if failing:
            with pytest.raises(NonFiniteLoss):
                for_each(range(4), run, 2)
        else:
            assert for_each(range(4), run, 2) == [0, 1, 2, 3]
        assert_no_child_left()

    @needs_blas_controls
    def test_caller_unwinding_stops_and_reaps_the_children(self):
        def run(i):
            if i == 0:
                time.sleep(0.05)   # let the children start their items
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            for_each(range(3), run, 3)
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    @needs_blas_controls
    def test_a_child_killed_by_a_signal_is_a_child_process_error(self):
        def run(i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(ChildProcessError, match=rf"signal {int(signal.SIGKILL)} "):
            for_each(range(2), run, 2)
        assert_no_child_left()

    @needs_blas_controls
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
    def test_a_child_dies_with_its_killed_parent(self, tmp_path):
        pid_file = tmp_path / "child.pid"
        script = (
            "import os, time\n"
            "from stylepair.embedcore import for_each\n"
            "def run(i):\n"
            "    if i == 1:\n"
            f"        open({str(pid_file) + '.tmp'!r}, 'w').write(str(os.getpid()))\n"
            f"        os.replace({str(pid_file) + '.tmp'!r}, {str(pid_file)!r})\n"
            "    time.sleep(60)\n"
            "for_each(range(2), run, 2)\n"
        )
        src = os.path.dirname(os.path.dirname(embedcore.__file__))
        parent = subprocess.Popen([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src})
        try:
            deadline = time.monotonic() + 30
            while not pid_file.exists() and time.monotonic() < deadline and parent.poll() is None:
                time.sleep(0.02)
        finally:
            parent.kill()
            parent.wait()
        child = int(pid_file.read_text())
        deadline = time.monotonic() + 10
        while process_alive(child) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not process_alive(child)

    @pytest.mark.skipif(blas_thread_controls() is None, reason="BLAS thread controls not found")
    def test_blas_held_to_one_thread_and_restored(self):
        get, set_ = blas_thread_controls()
        saved = get()
        set_(2)
        try:
            assert for_each(range(4), lambda i: get(), 2) == [1, 1, 1, 1]
            assert get() == 2
            with pytest.raises(ZeroDivisionError):
                for_each(range(4), lambda i: 1 / (i - 2), 2)
            assert get() == 2
        finally:
            set_(saved)


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        es = make_set(rng.normal(size=(3, 2)))
        p1, p2 = tmp_path / "a.iemb", tmp_path / "b.iemb"
        save_embeddings(es, p1)
        back = load_embeddings(p1)
        assert np.array_equal(back.ids, es.ids)
        assert np.array_equal(back.data, es.data)
        assert back.normalized == es.normalized
        save_embeddings(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_many_random_sets(self, tmp_path):
        rng = np.random.default_rng(8)
        for i in range(20):
            count = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 12))
            ids = np.sort(rng.choice(10_000, size=count, replace=False))
            es = EmbeddingSet(ids=ids,
                              data=rng.normal(size=(count, dim)).astype(np.float32))
            path = tmp_path / f"r{i}.iemb"
            save_embeddings(es, path)
            first = path.read_bytes()
            save_embeddings(load_embeddings(path), path)
            assert path.read_bytes() == first

    def test_read_rows_copies_the_loaded_rows_in_any_order(self, tmp_path):
        rng = np.random.default_rng(9)
        es = random_unit_set(rng, 1100, 6, ids=np.arange(0, 3300, 3))
        path = tmp_path / "set.iemb"
        save_embeddings(es, path)
        rows = np.array([1099, 0, 512, 511, 7, 1024, 513])   # unsorted, across block edges
        out = np.empty((len(rows), 6), dtype=np.float32)
        ids = read_rows(path, rows, out)
        assert np.array_equal(ids, es.ids)
        assert np.array_equal(out, load_embeddings(path).data[rows])

    @pytest.mark.parametrize("rows,dim,error", [([0, 1100], 6, RangeOutOfBounds),
                                                ([-1], 6, RangeOutOfBounds),
                                                ([0], 5, DimMismatch)])
    def test_read_rows_refuses_rows_it_cannot_copy_and_names_the_file(self, tmp_path, rows, dim,
                                                                     error):
        path = tmp_path / "set.iemb"
        save_embeddings(random_unit_set(np.random.default_rng(10), 1100, 6), path)
        with pytest.raises(error, match=re.escape(str(path))):
            read_rows(path, np.array(rows), np.empty((len(rows), dim), dtype=np.float32))

    def test_read_rows_checks_every_block_as_a_load_does(self, tmp_path):
        es = random_unit_set(np.random.default_rng(11), 1100, 6)
        path = tmp_path / "set.iemb"
        save_embeddings(es, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, len(raw) - 4, float("nan"))   # the last row, unread below
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteValue, match=re.escape(str(path))):
            load_embeddings(path)
        with pytest.raises(NonFiniteValue, match=re.escape(str(path))):
            read_rows(path, np.array([0]), np.empty((1, 6), dtype=np.float32))

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.iemb"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(MagicMismatch):
            load_embeddings(path)

    def test_version_unsupported(self, tmp_path):
        path = tmp_path / "bad.iemb"
        path.write_bytes(b"IEMB" + struct.pack("<I", 9) + b"\x00" * 24)
        with pytest.raises(VersionUnsupported):
            load_embeddings(path)

    def test_truncated_rows(self, tmp_path):
        # header declares 5 rows but the payload carries 4
        path = tmp_path / "trunc.iemb"
        with open(path, "wb") as f:
            f.write(b"IEMB")
            f.write(struct.pack("<I", 1))
            f.write(struct.pack("<Q", 5))
            f.write(struct.pack("<I", 2))
            f.write(struct.pack("<I", 0))
            f.write(np.arange(5, dtype="<u8").tobytes())
            f.write(np.zeros((4, 2), dtype="<f4").tobytes())
        with pytest.raises(TruncatedFile):
            load_embeddings(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.iemb"
        with open(path, "wb") as f:
            f.write(b"IEMB")
            f.write(struct.pack("<I", 1))
            f.write(struct.pack("<Q", 1))
            f.write(struct.pack("<I", 2))
            f.write(struct.pack("<I", 0))
            f.write(np.array([0], dtype="<u8").tobytes())
            f.write(np.array([[np.nan, 0.0]], dtype="<f4").tobytes())
        with pytest.raises(NonFiniteValue):
            load_embeddings(path)

    def test_duplicate_id_payload(self, tmp_path):
        path = tmp_path / "dup.iemb"
        with open(path, "wb") as f:
            f.write(b"IEMB")
            f.write(struct.pack("<I", 1))
            f.write(struct.pack("<Q", 2))
            f.write(struct.pack("<I", 2))
            f.write(struct.pack("<I", 0))
            f.write(np.array([3, 3], dtype="<u8").tobytes())
            f.write(np.ones((2, 2), dtype="<f4").tobytes())
        with pytest.raises(DuplicateId):
            load_embeddings(path)
