import struct
import threading
import time

import numpy as np
import pytest

from stylepair import embedcore
from stylepair.embedcore import (
    EmbeddingSet,
    blas_thread_controls,
    cosine_sim,
    for_each,
    for_row_blocks,
    load_embeddings,
    normalize,
    save_embeddings,
    sim_matrix,
)
from stylepair.errors import (
    DimMismatch,
    DuplicateId,
    MagicMismatch,
    NonFiniteLoss,
    NonFiniteValue,
    NotNormalized,
    TruncatedFile,
    VersionUnsupported,
    ZeroVector,
    ZeroVectorRow,
)

from conftest import make_set, random_unit_set


class TestEmbeddingSet:
    def test_ids_must_be_unique(self):
        with pytest.raises(DuplicateId):
            EmbeddingSet(ids=np.array([0, 1, 1]), data=np.zeros((3, 2), np.float32) + 1)

    def test_ids_must_be_sorted(self):
        with pytest.raises(ValueError):
            EmbeddingSet(ids=np.array([2, 1, 3]), data=np.ones((3, 2), np.float32))

    def test_non_finite_rejected(self):
        data = np.ones((2, 2), np.float32)
        data[1, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            EmbeddingSet(ids=np.array([0, 1]), data=data)

    def test_lying_normalized_flag_rejected(self):
        with pytest.raises(NotNormalized):
            EmbeddingSet(ids=np.array([0]), data=np.array([[3.0, 4.0]], np.float32),
                         normalized=True)

    def test_rows_are_read_only(self):
        es = make_set([[1.0, 0.0]])
        with pytest.raises(ValueError):
            es.data[0, 0] = 2.0


class TestNormalize:
    def test_three_four_five(self):
        es = normalize(EmbeddingSet(ids=np.array([0]),
                                    data=np.array([[3.0, 4.0]], np.float32)))
        assert es.data[0] == pytest.approx([0.6, 0.8], abs=1e-7)
        assert es.normalized

    def test_already_unit(self):
        es = normalize(EmbeddingSet(ids=np.array([0]),
                                    data=np.array([[1.0, 0.0]], np.float32)))
        assert es.data[0] == pytest.approx([1.0, 0.0], abs=0)

    def test_random_matrix_row_norms(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(10, 8)).astype(np.float32)
        es = normalize(EmbeddingSet(ids=np.arange(10), data=raw))
        norms = np.linalg.norm(es.data.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6
        # direction preserved
        for i in range(10):
            assert cosine_sim(raw[i], es.data[i]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_row_reports_id(self):
        data = np.array([[1.0, 0.0], [0.0, 0.0]], np.float32)
        with pytest.raises(ZeroVectorRow, match="7"):
            normalize(EmbeddingSet(ids=np.array([3, 7]), data=data))


class TestCosineSim:
    def test_orthogonal(self):
        assert cosine_sim([1, 0], [0, 1]) == 0.0

    def test_identical(self):
        assert cosine_sim([1, 0], [1, 0]) == 1.0

    def test_three_four_vs_four_three(self):
        # 24/25 by direct dot-product evaluation
        assert cosine_sim([3, 4], [4, 3]) == pytest.approx(0.96, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine_sim([1, 0], [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_sim([0, 0], [1, 0])

    def test_unit_vectors_bounded_and_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert abs(cosine_sim(a, b)) <= 1.0 + 1e-6
            assert cosine_sim(a, b) == cosine_sim(b, a)


class TestSimMatrix:
    def test_identity_bases(self):
        basis = make_set(np.eye(3))
        out = sim_matrix(basis, basis)
        assert np.allclose(out, np.eye(3), atol=1e-7)

    def test_single_identical_vector(self):
        a = make_set([[0.5, 0.5, 0.5, 0.5]])
        out = sim_matrix(a, a)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        texts = random_unit_set(rng, 7, 5)
        videos = random_unit_set(rng, 5, 5)
        out = sim_matrix(texts, videos)
        for i in range(7):
            for j in range(5):
                assert out[i, j] == pytest.approx(
                    cosine_sim(texts.data[i], videos.data[j]), abs=1e-6)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        a = random_unit_set(rng, 6, 4)
        b = random_unit_set(rng, 9, 4)
        assert np.allclose(sim_matrix(a, b), sim_matrix(b, a).T, atol=1e-6)

    def test_requires_normalized(self):
        raw = EmbeddingSet(ids=np.array([0]), data=np.array([[3.0, 4.0]], np.float32))
        unit = make_set([[1.0, 0.0]])
        with pytest.raises(NotNormalized):
            sim_matrix(raw, unit)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            sim_matrix(make_set([[1.0, 0.0]]), make_set([[1.0, 0.0, 0.0]]))

    def test_thread_count_does_not_change_bits(self):
        rng = np.random.default_rng(4)
        a = random_unit_set(rng, 700, 16)   # spans two fixed chunks
        b = random_unit_set(rng, 40, 16)
        assert np.array_equal(sim_matrix(a, b, threads=1), sim_matrix(a, b, threads=4))


class TestForRowBlocks:
    @pytest.mark.parametrize("n_rows", [0, 1, 512, 513, 1100])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_fixed_blocks_cover_every_row_once(self, n_rows, threads):
        seen = []
        for_row_blocks(n_rows, lambda lo, hi: seen.append((lo, hi)), threads)
        assert sorted(seen) == [(lo, min(lo + 512, n_rows)) for lo in range(0, n_rows, 512)]


class TestForEach:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_results_come_back_in_item_order(self, threads):
        workers = set()

        def run(i):
            workers.add(threading.get_ident())
            time.sleep(0.002 * (i % 3))   # later items often finish first
            return i * i

        assert for_each(range(20), run, threads) == [i * i for i in range(20)]
        if blas_thread_controls() and threads > 1:
            assert len(workers) > 1

    def test_first_error_in_item_order_reaches_caller_unchanged(self):
        errors = {3: NonFiniteLoss("item 3"), 5: NonFiniteLoss("item 5")}

        def run(i):
            if i in errors:
                raise errors[i]
            return i

        with pytest.raises(NonFiniteLoss) as info:
            for_each(range(8), run, 2)
        assert info.value is errors[3]

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
