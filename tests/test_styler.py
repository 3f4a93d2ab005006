import os
import pathlib
import re
import signal

import numpy as np
import pytest

from stylepair import embedcore, styler
from stylepair.embedcore import EmbeddingSet, load_embeddings, save_embeddings
from stylepair.errors import (ConfigInvalid, CountMismatch, DimMismatch, NonFiniteValue,
                              NotNormalized, SingularSystem, StylePairError, TrailingBytes,
                              TruncatedFile, ZeroVectorRow)
from stylepair.matcher import PseudoPairSet
from stylepair.styler import (
    GeneratedPairSet,
    StyleTransform,
    _spawned_seed_words,
    filter_pairs,
    fit_style,
    generate_styled,
    generate_styled_sets,
    load_style,
    read_generated_pairs,
    save_style,
    threshold_sweep,
    write_generated_pairs,
)

from conftest import (at_blas_threads, forks_workers, make_set, needs_blas_controls,
                      random_unit_set, saved, traced_peak)


def pairs_over(queries, clips):
    n = min(queries.count, clips.count)
    return PseudoPairSet(query_ids=queries.ids[:n], clip_ids=clips.ids[:n],
                         sims=np.zeros(n))


def ridge_lstsq_oracle(v_rows, t_rows, lam):
    """Independent solve: augmented least squares through numpy's SVD lstsq."""
    n, dim_in = v_rows.shape
    dim_out = t_rows.shape[1]
    x = np.concatenate([v_rows, np.ones((n, 1))], axis=1)
    aug_rows = np.concatenate([np.sqrt(lam) * np.eye(dim_in), np.zeros((dim_in, 1))], axis=1)
    a = np.concatenate([x, aug_rows], axis=0)
    b = np.concatenate([t_rows, np.zeros((dim_in, dim_out))], axis=0)
    theta, *_ = np.linalg.lstsq(a, b, rcond=None)
    return theta[:dim_in].T, theta[dim_in]


class TestFitStyle:
    def test_identity_when_targets_equal_inputs(self):
        rng = np.random.default_rng(0)
        clips = random_unit_set(rng, 12, 4)
        fit = fit_style(pairs_over(clips, clips), clips, clips, ridge_lambda=0.0)
        assert np.allclose(fit.weight, np.eye(4), atol=1e-6)
        assert np.allclose(fit.bias, 0.0, atol=1e-6)

    def test_sign_flip(self):
        rng = np.random.default_rng(1)
        clips = random_unit_set(rng, 12, 4)
        flipped = EmbeddingSet(ids=clips.ids.copy(), data=-clips.data,
                               normalized=True)
        fit = fit_style(pairs_over(flipped, clips), flipped, clips, ridge_lambda=0.0)
        assert np.allclose(fit.weight, -np.eye(4), atol=1e-6)

    def test_matches_independent_ridge_oracle(self):
        rng = np.random.default_rng(2)
        queries = random_unit_set(rng, 30, 5)
        clips = random_unit_set(rng, 30, 7)
        pseudo = pairs_over(queries, clips)
        fit = fit_style(pseudo, queries, clips, ridge_lambda=0.1)
        w, b = ridge_lstsq_oracle(clips.data[:30].astype(np.float64),
                                  queries.data[:30].astype(np.float64), 0.1)
        assert np.abs(fit.weight - w).max() < 1e-5
        assert np.abs(fit.bias - b).max() < 1e-5

    def test_singular_without_ridge(self):
        # 2 pairs cannot pin down a 4-dim map at lambda=0
        rng = np.random.default_rng(3)
        queries = random_unit_set(rng, 2, 4)
        clips = random_unit_set(rng, 2, 4)
        with pytest.raises(SingularSystem):
            fit_style(pairs_over(queries, clips), queries, clips, ridge_lambda=0.0)
        # the same system solves fine once regularized
        fit_style(pairs_over(queries, clips), queries, clips, ridge_lambda=1e-2)

    def test_weight_norm_shrinks_with_lambda(self):
        rng = np.random.default_rng(4)
        queries = random_unit_set(rng, 25, 6)
        clips = random_unit_set(rng, 25, 6)
        pseudo = pairs_over(queries, clips)
        norms = [
            np.linalg.norm(fit_style(pseudo, queries, clips, ridge_lambda=lam).weight)
            for lam in (0.01, 1.0, 100.0)
        ]
        assert norms[0] > norms[1] > norms[2]


    @pytest.mark.parametrize("field", ["ridge_lambda", "noise_sigma"])
    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_transform_rejects_negative_or_non_finite_knobs(self, field, value):
        knobs = {"ridge_lambda": 0.0, "noise_sigma": 0.0, field: value}
        with pytest.raises(ValueError, match="non-negative"):
            StyleTransform(weight=np.eye(3), bias=np.zeros(3), **knobs)


class TestGenerateStyled:
    def test_identity_map_no_noise_returns_input(self):
        rng = np.random.default_rng(5)
        clips = random_unit_set(rng, 10, 6)
        style = StyleTransform(weight=np.eye(6), bias=np.zeros(6),
                               ridge_lambda=0.0, noise_sigma=0.0)
        styled = generate_styled(clips, style, seed=0)
        assert np.allclose(styled.data, clips.data, atol=1e-6)
        assert np.array_equal(styled.ids, clips.ids)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(6)
        clips = random_unit_set(rng, 700, 5)   # spans two row chunks
        style = StyleTransform(weight=rng.normal(size=(5, 5)), bias=rng.normal(size=5),
                               ridge_lambda=0.0, noise_sigma=0.2)
        a = generate_styled(clips, style, seed=42)
        b = generate_styled(clips, style, seed=42)
        assert np.array_equal(a.data, b.data)

    @needs_blas_controls
    def test_thread_count_does_not_change_bits(self):
        # the BLAS thread count is the one thread count left that reaches these bits
        rng = np.random.default_rng(7)
        clips = random_unit_set(rng, 700, 5)
        style = StyleTransform(weight=rng.normal(size=(5, 5)), bias=rng.normal(size=5),
                               ridge_lambda=0.0, noise_sigma=0.2)
        one, two = (at_blas_threads(n, lambda: generate_styled(clips, style, seed=1))
                    for n in (1, 2))
        assert np.array_equal(one.data, two.data)

    def test_seed_changes_output(self):
        rng = np.random.default_rng(8)
        clips = random_unit_set(rng, 8, 5)
        style = StyleTransform(weight=np.eye(5), bias=np.zeros(5),
                               ridge_lambda=0.0, noise_sigma=0.1)
        assert not np.array_equal(generate_styled(clips, style, seed=1).data,
                                  generate_styled(clips, style, seed=2).data)

    def test_matches_affine_normalize_oracle(self):
        rng = np.random.default_rng(9)
        clips = random_unit_set(rng, 9, 4)
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        style = StyleTransform(weight=w, bias=b, ridge_lambda=0.0, noise_sigma=0.0)
        styled = generate_styled(clips, style, seed=0)
        for i in range(9):
            raw = w @ clips.data[i].astype(np.float64) + b
            expect = raw / np.linalg.norm(raw)
            assert styled.data[i] == pytest.approx(expect, abs=1e-6)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(10)
        clips = random_unit_set(rng, 50, 8)
        style = StyleTransform(weight=rng.normal(size=(8, 8)), bias=rng.normal(size=8),
                               ridge_lambda=0.0, noise_sigma=0.3)
        styled = generate_styled(clips, style, seed=3)
        norms = np.linalg.norm(styled.data.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-5

    def test_dim_mismatch(self):
        clips = make_set([[1.0, 0.0]])
        style = StyleTransform(weight=np.eye(3), bias=np.zeros(3),
                               ridge_lambda=0.0, noise_sigma=0.0)
        with pytest.raises(DimMismatch):
            generate_styled(clips, style, seed=0)

    def test_zero_styled_caption_is_a_typed_error_naming_the_clip(self):
        clips = make_set([[1.0, 0.0], [0.0, 1.0]], ids=[41, 42])
        style = StyleTransform(weight=np.zeros((3, 2)), bias=np.zeros(3),
                               ridge_lambda=0.0, noise_sigma=0.0)
        with pytest.raises(ZeroVectorRow, match="row id 41 "):
            generate_styled(clips, style, seed=0)

    @pytest.mark.parametrize("sigma", [1e200, 1e308])
    def test_overflowing_norm_is_a_non_finite_value_naming_the_clip(self, sigma):
        # runs with RuntimeWarning as an error: the overflow must not warn either
        clips = make_set([[1.0, 0.0], [0.0, 1.0]], ids=[41, 42])
        style = StyleTransform(weight=np.eye(2), bias=np.zeros(2),
                               ridge_lambda=0.0, noise_sigma=sigma)
        with pytest.raises(NonFiniteValue, match="row id 41 "):
            generate_styled(clips, style, seed=0)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_bits_equal_the_whole_array_float64_code(self, sigma):
        rng = np.random.default_rng(18)
        clips = random_unit_set(rng, 1100, 64)   # three row blocks, the last one ragged
        style = StyleTransform(weight=rng.normal(size=(64, 64)), bias=rng.normal(size=64),
                               ridge_lambda=0.0, noise_sigma=sigma)
        got = generate_styled(clips, style, seed=7)
        assert got.data.tobytes() == styled_reference(clips, style, 7).tobytes()

    def test_peak_grows_by_the_float32_rows(self):
        rng = np.random.default_rng(19)
        clips = random_unit_set(rng, 40_000, 64)
        style = StyleTransform(weight=rng.normal(size=(64, 64)), bias=rng.normal(size=64),
                               ridge_lambda=0.0, noise_sigma=0.05)
        parts = [EmbeddingSet(ids=clips.ids[:n], data=clips.data[:n], normalized=True)
                 for n in (20_000, 40_000)]
        peaks = [traced_peak(lambda: generate_styled(part, style, seed=3)) for part in parts]
        # 20,000 float32 rows added, plus a quarter of one float64 copy of them
        assert peaks[1] - peaks[0] < 20_000 * 64 * 4 * 3 // 2


def style_list(rng, k, sigma, dim_in=64, dim_out=64):
    return [StyleTransform(weight=rng.normal(size=(dim_out, dim_in)), bias=rng.normal(size=dim_out),
                           ridge_lambda=0.0, noise_sigma=sigma, style_tag=f"style{i}")
            for i in range(k)]


def styled_paths(directory, k, name="styled"):
    return [str(directory / f"{name}{i}.iemb") for i in range(k)]


def generated(clips, styles, seed, directory, workers=1):
    """The sets generate_styled_sets writes for `styles`, loaded back from `directory`."""
    paths = styled_paths(directory, len(styles))
    assert generate_styled_sets(clips, styles, seed, paths, workers) is None
    return [load_embeddings(path) for path in paths]


class TestGenerateStyledSets:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [7, 2**130 + 1])
    def test_each_set_has_the_bits_of_the_per_row_reference(self, tmp_path, k, sigma, seed):
        rng = np.random.default_rng(k)
        clips = random_unit_set(rng, 1100, 64)   # three row blocks, the last one ragged
        styles = style_list(rng, k, sigma)
        got = generated(clips, styles, seed, tmp_path)
        assert len(got) == k
        for styled, style in zip(got, styles):
            assert np.array_equal(styled.ids, clips.ids) and styled.normalized
            assert styled.data.tobytes() == styled_reference(clips, style, seed).tobytes()

    def test_files_have_the_bytes_save_embeddings_writes(self, tmp_path):
        rng = np.random.default_rng(29)
        clips = random_unit_set(rng, 700, 8)
        styles = style_list(rng, 2, 0.1, 8, 8)
        paths = styled_paths(tmp_path, 2)
        generate_styled_sets(clips, styles, 3, paths)
        for path in paths:
            save_embeddings(load_embeddings(path), tmp_path / "saved.iemb")
            assert (tmp_path / "saved.iemb").read_bytes() == pathlib.Path(path).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["saved.iemb", "styled0.iemb",
                                                               "styled1.iemb"]

    def test_an_empty_pool_gives_empty_sets(self, tmp_path):
        clips = EmbeddingSet(ids=np.zeros(0, dtype=np.int64), data=np.zeros((0, 4)),
                             normalized=True)
        [styled] = generated(clips, style_list(np.random.default_rng(0), 1, 0.1, 4, 4), 0,
                             tmp_path)
        assert styled.count == 0 and styled.dim == 4 and styled.normalized

    def test_one_style_is_generate_styled(self, tmp_path):
        rng = np.random.default_rng(30)
        clips = random_unit_set(rng, 600, 8)
        style = style_list(rng, 1, 0.2, 8, 8)[0]
        [styled] = generated(clips, [style], 4, tmp_path)
        assert styled.data.tobytes() == generate_styled(clips, style, seed=4).data.tobytes()

    def test_no_style_gives_no_set(self, tmp_path):
        assert generate_styled_sets(make_set([[1.0, 0.0]]), [], 0, []) is None
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dims", [(3, 2), (2, 3)])   # (dim_in, dim_out) of the second style
    def test_dim_mismatch_is_raised_before_any_row_is_drawn(self, tmp_path, monkeypatch, dims):
        drawn = []
        monkeypatch.setattr("stylepair.styler._spawned_seed_words",
                            lambda *args: drawn.append(args) or [])
        clips = make_set([[1.0, 0.0], [0.0, 1.0]])
        styles = [StyleTransform(weight=np.eye(2), bias=np.zeros(2), ridge_lambda=0.0,
                                 noise_sigma=0.1),
                  StyleTransform(weight=np.ones((dims[1], dims[0])), bias=np.zeros(dims[1]),
                                 ridge_lambda=0.0, noise_sigma=0.1)]
        with pytest.raises(DimMismatch):
            generate_styled_sets(clips, styles, 0, styled_paths(tmp_path, 2))
        assert drawn == []
        assert not list(tmp_path.iterdir())

    def test_styles_of_different_noise_are_a_typed_error(self, tmp_path):
        clips = make_set([[1.0, 0.0], [0.0, 1.0]])
        styles = [StyleTransform(weight=np.eye(2), bias=np.zeros(2), ridge_lambda=0.0,
                                 noise_sigma=sigma) for sigma in (0.1, 0.2)]
        with pytest.raises(ConfigInvalid, match="noise_sigma"):
            generate_styled_sets(clips, styles, 0, styled_paths(tmp_path, 2))
        assert not list(tmp_path.iterdir())

    def test_zero_row_of_the_second_style_names_its_clip(self, tmp_path):
        clips = make_set([[1.0, 0.0], [0.0, 1.0]], ids=[41, 42])
        styles = [StyleTransform(weight=w, bias=np.zeros(2), ridge_lambda=0.0, noise_sigma=0.0)
                  for w in (np.eye(2), np.diag([1.0, 0.0]))]
        with pytest.raises(ZeroVectorRow, match="row id 42 "):
            generate_styled_sets(clips, styles, 0, styled_paths(tmp_path, 2))
        assert not list(tmp_path.iterdir())   # not even the first style's file

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_write_the_bits_of_one(self, tmp_path, workers):
        # data of its own per case, so no freed output of an earlier call holds the rows
        rng = np.random.default_rng(32 + workers)
        clips = random_unit_set(rng, 1100, 16)   # three row blocks, the last one ragged
        styles = style_list(rng, 2, 0.05, 16, 16)
        files = []
        for n, directory in [(workers, tmp_path / "many"), (1, tmp_path / "one")]:
            directory.mkdir()
            generate_styled_sets(clips, styles, 5, styled_paths(directory, 2), n)
            files.append([pathlib.Path(p).read_bytes() for p in styled_paths(directory, 2)])
        assert files[0] == files[1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_block_in_row_order_is_raised(self, tmp_path, workers):
        # rows 600 (block 1: a child's at 2 workers) and 1050 (block 2: the caller's) map to zero
        rng = np.random.default_rng(33)
        data = rng.normal(size=(1100, 4))
        data[[600, 1050]] = [1.0, 0.0, 0.0, 0.0]
        style = StyleTransform(weight=np.diag([0.0, 1.0, 1.0, 1.0]), bias=np.zeros(4),
                               ridge_lambda=0.0, noise_sigma=0.0)
        (tmp_path / "styled0.iemb").write_bytes(b"an earlier run's file")
        with pytest.raises(ZeroVectorRow, match="row id 600 "):
            generate_styled_sets(make_set(data), [style, style], 0, styled_paths(tmp_path, 2),
                                 workers=workers)
        # no temp file is left, and the earlier file stands
        assert [p.name for p in tmp_path.iterdir()] == ["styled0.iemb"]
        assert (tmp_path / "styled0.iemb").read_bytes() == b"an earlier run's file"

    @forks_workers
    def test_a_worker_killed_by_a_signal_leaves_no_file(self, tmp_path, monkeypatch):
        parent = os.getpid()
        unit = styler.unit_block

        def dies_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return unit(*args)

        monkeypatch.setattr(styler, "unit_block", dies_in_a_child)
        rng = np.random.default_rng(34)
        clips = random_unit_set(rng, 1100, 8)
        with pytest.raises(ChildProcessError, match="signal"):
            generate_styled_sets(clips, style_list(rng, 2, 0.05, 8, 8), 0,
                                 styled_paths(tmp_path, 2), workers=2)
        assert not list(tmp_path.iterdir())

    def test_peak_holds_the_float32_outputs_and_a_few_blocks(self, tmp_path):
        rng = np.random.default_rng(31)
        n, k = 8_000, 3
        clips = random_unit_set(rng, n, 64)
        styles = style_list(rng, k, 0.05)
        peak = traced_peak(lambda: generate_styled_sets(clips, styles, 3,
                                                        styled_paths(tmp_path, k)))
        outputs = k * n * (64 * 4 + 8)   # float32 rows and a copy of the ids per style
        block = 512 * 64 * 8             # one float64 row block
        assert peak < outputs + 8 * block
        # the rows go to the files, which the heap does not hold
        assert peak < 8 * block

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
    def test_the_caller_holds_no_page_of_the_styled_sets(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(35)
        clips = random_unit_set(rng, 65_536, 64)
        rss = []

        def vm_rss():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) << 10 for line in status
                            if line.startswith("VmRSS:"))

        def sampled(items, run, threads):
            def run_and_sample(item):
                run(item)
                rss.append(vm_rss())
            return embedcore.for_each(items, run_and_sample, threads)

        monkeypatch.setattr(styler, "for_each", sampled)
        start = vm_rss()   # one worker, as the stylize command runs it
        generate_styled_sets(clips, style_list(rng, 2, 0.05), 3, styled_paths(tmp_path, 2))
        assert len(rss) == 128
        # the two sets' 32 MiB of rows are written out, not held in this process's pages
        assert max(rss) - start < 8 << 20


def spawned_words(seed, n_rows):
    """Derived seed words of rows 0..n_rows-1, a 512-row block at a time."""
    return np.concatenate([_spawned_seed_words(seed, lo, min(lo + 512, n_rows))
                           for lo in range(0, n_rows, 512)])


def seed_words(seed, i):
    return np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)


def styled_reference(clips, style, seed):
    """generate_styled with a SeedSequence and a Generator of its own per row,
    normalized over the whole float64 array at once."""
    data64 = clips.data.astype(np.float64)
    raw = np.empty((clips.count, style.dim_out))
    for lo in range(0, clips.count, 512):   # the affine map on the same row blocks
        raw[lo:lo + 512] = data64[lo:lo + 512] @ style.weight.T + style.bias
    for i in range(clips.count if style.noise_sigma > 0.0 else 0):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        raw[i] += rng.normal(0.0, style.noise_sigma, style.dim_out)
    return (raw / np.linalg.norm(raw, axis=1)[:, None]).astype(np.float32)


class TestSpawnedNoise:
    """Pins the numpy internals the bulk noise derivation reproduces."""

    # 2**130 + 1 has five 32-bit words: one is mixed in after the pool is full
    SEEDS = [0, 7, 2**32, 2**64 + 3, 2**130 + 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_numpy_spawned_seed_sequences(self, seed):
        n_rows = 1100
        words = spawned_words(seed, n_rows)
        assert words.shape == (n_rows, 4) and words.dtype == np.uint64
        for i in (0, 511, 512, 1023, 1024, n_rows - 1):   # each block's first and last row
            assert words[i].tolist() == seed_words(seed, i).tolist(), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_give_the_spawned_pcg64_state(self, seed):
        # PCG64 seeded through _SeedWords starts where the spawned SeedSequence starts it
        words = spawned_words(seed, 600)
        for i in (0, 511, 512, 599):
            got = np.random.PCG64(styler._SeedWords(words[i])).state
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state
            assert got == want, i

    @pytest.mark.parametrize("seed", [7, 2**130 + 1])
    def test_noisy_output_equals_per_row_generators(self, seed):
        rng = np.random.default_rng(11)
        clips = random_unit_set(rng, 1100, 5)   # three row blocks
        style = StyleTransform(weight=rng.normal(size=(6, 5)), bias=rng.normal(size=6),
                               ridge_lambda=0.0, noise_sigma=0.2)
        got = generate_styled(clips, style, seed=seed)
        assert got.data.tobytes() == styled_reference(clips, style, seed).tobytes()

    def test_spawn_key_must_fit_one_word(self):
        last = _spawned_seed_words(7, 2**32 - 1, 2**32)
        assert last.tolist() == [seed_words(7, 2**32 - 1).tolist()]
        with pytest.raises(ValueError, match="spawn key"):
            _spawned_seed_words(7, 2**32 - 1, 2**32 + 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _spawned_seed_words(-1, 0, 4)


def exact_sim_fixture():
    """Aligned sets whose per-pair sims are exactly 0.125, 0.3125, 0.28125.

    The similarity values are dyadic so the float64 dot products hit them
    exactly, making the strict-threshold boundary observable.
    """
    sims = [0.125, 0.3125, 0.28125]
    styled_rows = [[s, float(np.sqrt(1.0 - s * s))] for s in sims]
    clips_rows = [[1.0, 0.0]] * 3
    styled = EmbeddingSet(ids=np.arange(3), data=np.asarray(styled_rows, np.float32),
                          normalized=True)
    clips = EmbeddingSet(ids=np.arange(3), data=np.asarray(clips_rows, np.float32),
                         normalized=True)
    return styled, clips


class TestFilterPairs:
    def test_strict_boundary(self, tmp_path):
        kept = filter_pairs(*saved(tmp_path, exact_sim_fixture()), th=0.28125)
        # the pair sitting exactly on the threshold is dropped
        assert list(kept.clip_ids) == [1]
        assert kept.sims[0] == 0.3125

    def test_threshold_below_everything_keeps_all(self, tmp_path):
        kept = filter_pairs(*saved(tmp_path, exact_sim_fixture()), th=-1.0)
        assert len(kept) == 3
        assert kept.retention_rate == 1.0

    def test_matches_scalar_loop_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        styled = random_unit_set(rng, 40, 6)
        clips = random_unit_set(rng, 40, 6)
        th = 0.28
        kept = filter_pairs(*saved(tmp_path, [styled, clips]), th)
        expect = []
        for i in range(40):
            s = float(styled.data[i].astype(np.float64) @ clips.data[i].astype(np.float64))
            if s > th:
                expect.append((int(clips.ids[i]), i))
        assert list(zip(kept.clip_ids.tolist(), kept.rows.tolist())) == expect

    def test_sims_equal_the_whole_array_float64_code(self, tmp_path):
        rng = np.random.default_rng(20)
        styled = random_unit_set(rng, 1100, 64)   # three row blocks, the last one ragged
        clips = random_unit_set(rng, 1100, 64)
        want = np.einsum("ij,ij->i", styled.data.astype(np.float64),
                         clips.data.astype(np.float64))
        kept = filter_pairs(*saved(tmp_path, [styled, clips]), th=-2.0)
        assert kept.sims.tobytes() == want.tobytes()

    def test_peak_grows_by_less_than_a_quarter_of_the_float32_rows(self, tmp_path):
        rng = np.random.default_rng(21)
        styled = random_unit_set(rng, 40_000, 64)
        clips = random_unit_set(rng, 40_000, 64)
        parts = [saved(tmp_path, [EmbeddingSet(ids=styled.ids[:n], data=styled.data[:n],
                                               normalized=True),
                                  EmbeddingSet(ids=clips.ids[:n], data=clips.data[:n],
                                               normalized=True)], f"rows{n}")
                 for n in (20_000, 40_000)]
        peaks = [traced_peak(lambda: filter_pairs(s, c, 0.28)) for s, c in parts]
        # a quarter of one float64 copy of the 20,000 rows added
        assert peaks[1] - peaks[0] < 20_000 * 64 * 8 // 4

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(12)
        paths = saved(tmp_path, [random_unit_set(rng, 3, 4), random_unit_set(rng, 4, 4)])
        with pytest.raises(CountMismatch):
            filter_pairs(*paths, 0.0)

    def test_subset_monotonicity(self, tmp_path):
        rng = np.random.default_rng(13)
        paths = saved(tmp_path, [random_unit_set(rng, 60, 5), random_unit_set(rng, 60, 5)])
        low = set(filter_pairs(*paths, 0.1).clip_ids)
        high = set(filter_pairs(*paths, 0.3).clip_ids)
        assert high <= low


STREAMED = {"filter": lambda styled, pool: filter_pairs(styled, pool, 0.0),
            "sweep": lambda styled, pool: threshold_sweep(styled, pool, [0.0])}


def damaged(path, damage):
    """Append one byte to the file at `path`, or cut its last byte off."""
    raw = path.read_bytes()
    path.write_bytes(raw + b"\0" if damage == "append" else raw[:-1])


@pytest.mark.parametrize("command", sorted(STREAMED))
class TestStreamedFilterErrors:
    """Filter and sweep read both files to their ends, a block at a time; each error keeps
    the type a whole-set load raised and names its file."""

    @staticmethod
    def sets(rng, dim=6, ids=None, normalized=True):
        emb = random_unit_set(rng, 1100, dim, ids=ids)   # three row blocks, the last ragged
        return EmbeddingSet(ids=emb.ids, data=emb.data, normalized=normalized)

    @pytest.mark.parametrize("bad", [0, 1], ids=["styled", "pool"])
    @pytest.mark.parametrize("damage, error", [("append", TrailingBytes),
                                               ("cut", TruncatedFile)])
    def test_a_damaged_file_is_named(self, tmp_path, command, bad, damage, error):
        rng = np.random.default_rng(30)
        paths = saved(tmp_path, [self.sets(rng), self.sets(rng)])
        STREAMED[command](*paths)
        damaged(paths[bad], damage)
        with pytest.raises(error, match=re.escape(str(paths[bad]))) as caught:
            STREAMED[command](*paths)
        assert str(paths[1 - bad]) not in str(caught.value)

    def test_ids_of_another_pool(self, tmp_path, command):
        rng = np.random.default_rng(31)
        styled, pool = saved(tmp_path, [self.sets(rng),
                                        self.sets(rng, ids=np.arange(1, 1101))])
        with pytest.raises(CountMismatch, match=re.escape(str(styled))):
            STREAMED[command](styled, pool)

    def test_another_dim(self, tmp_path, command):
        rng = np.random.default_rng(32)
        styled, pool = saved(tmp_path, [self.sets(rng), self.sets(rng, dim=5)])
        with pytest.raises(DimMismatch, match=re.escape(str(styled))):
            STREAMED[command](styled, pool)

    @pytest.mark.parametrize("bad", [0, 1], ids=["styled", "pool"])
    def test_a_set_not_flagged_normalized(self, tmp_path, command, bad):
        rng = np.random.default_rng(33)
        paths = saved(tmp_path, [self.sets(rng, normalized=bad != 0),
                                 self.sets(rng, normalized=bad != 1)])
        with pytest.raises(NotNormalized, match=re.escape(str(paths[bad]))) as caught:
            STREAMED[command](*paths)
        assert str(paths[1 - bad]) not in str(caught.value)


class TestThresholdSweep:
    def test_monotone_counts(self, tmp_path):
        rng = np.random.default_rng(14)
        paths = saved(tmp_path, [random_unit_set(rng, 80, 6), random_unit_set(rng, 80, 6)])
        rows = threshold_sweep(*paths, [0.26, 0.27, 0.28, 0.29, 0.30])
        counts = [r.kept for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_threshold_below_min_keeps_total(self, tmp_path):
        rows = threshold_sweep(*saved(tmp_path, exact_sim_fixture()), [-1.0, 0.5])
        assert rows[0].kept == 3
        assert rows[0].rate == 1.0

    def test_consistent_with_filter_pairs(self, tmp_path):
        rng = np.random.default_rng(15)
        paths = saved(tmp_path, [random_unit_set(rng, 50, 4), random_unit_set(rng, 50, 4)])
        grid = [0.0, 0.2, 0.4, 0.6]
        rows = threshold_sweep(*paths, grid)
        for row in rows:
            assert row.kept == len(filter_pairs(*paths, row.threshold))

    def test_unsorted_grid_rejected(self, tmp_path):
        paths = saved(tmp_path, exact_sim_fixture())
        with pytest.raises(ValueError):
            threshold_sweep(*paths, [0.3, 0.2])


class TestPersistence:
    def test_style_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        style = StyleTransform(weight=rng.normal(size=(6, 4)), bias=rng.normal(size=6),
                               ridge_lambda=0.01, noise_sigma=0.05, style_tag="msr")
        path = tmp_path / "style.iemb"
        save_style(style, path)
        back = load_style(path)
        assert np.array_equal(back.weight, style.weight)
        assert np.array_equal(back.bias, style.bias)
        assert back.ridge_lambda == style.ridge_lambda
        assert back.noise_sigma == style.noise_sigma
        assert back.style_tag == "msr"

    def test_generated_pairs_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        gen = filter_pairs(*saved(tmp_path, [random_unit_set(rng, 30, 5),
                                             random_unit_set(rng, 30, 5)]), 0.0)
        gen.style_tag = "msr"
        path = tmp_path / "gen.jsonl"
        write_generated_pairs(gen, path)
        back = read_generated_pairs(path)
        assert np.array_equal(back.clip_ids, gen.clip_ids)
        assert np.array_equal(back.rows, gen.rows)
        assert np.array_equal(back.sims, gen.sims)
        assert back.threshold == 0.0
        assert back.style_tag == "msr"
        assert back.total_candidates == 30

    def test_retained_pairs_must_clear_threshold(self):
        with pytest.raises(StylePairError):
            GeneratedPairSet(clip_ids=[0], rows=[0], sims=[0.2], threshold=0.3)
