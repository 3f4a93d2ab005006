import hashlib

import numpy as np
import pytest

from stylepair.embedcore import EmbeddingSet
from stylepair.errors import ConfigInvalid
from stylepair.evaluator import rank_queries, report
from stylepair.synthgen import SynthConfig, generate, read_truth, write_dataset

from conftest import golden


def small_cfg(**overrides):
    base = dict(n_styles=2, queries_per_style=48, pool_size=256, dim=24,
                content_dim=8, seed=0)
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SynthConfig().validate()

    @pytest.mark.parametrize("bad", [
        dict(held_out_fraction=1.5),
        dict(held_out_fraction=0.0),
        dict(content_dim=100),
        dict(pool_size=10),
        dict(style_strength=1.2),
        dict(cross_modal_noise=-0.1),
        dict(n_styles=0),
        dict(n_styles=100, queries_per_style=1, pool_size=100),
        dict(queries_per_style=600_000, pool_size=1_200_000),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigInvalid):
            small_cfg(**bad).validate()


class TestGenerate:
    def test_shapes_and_flags(self):
        cfg = small_cfg()
        ds = generate(cfg)
        assert len(ds.train_queries) == 2
        assert ds.train_queries[0].count == 48
        assert ds.pool_clips.count == 256
        n_test = cfg.test_per_style
        assert all(tc.count == n_test for tc in ds.test_captions)
        assert ds.test_clips.count == 2 * n_test
        for es in (*ds.train_queries, ds.pool_clips, *ds.test_captions, ds.test_clips):
            assert es.normalized
            assert es.dim == 24

    def test_no_style_no_noise_pairs_align_exactly(self):
        cfg = small_cfg(n_styles=1, style_strength=0.0, cross_modal_noise=0.0)
        ds = generate(cfg)
        caps, clips = ds.test_captions[0], ds.test_clips
        sims = np.einsum("ij,ij->i", caps.data.astype(np.float64),
                         clips.data.astype(np.float64))
        assert np.abs(sims - 1.0).max() < 1e-6

    def test_same_seed_reproduces_bitwise(self):
        a = generate(small_cfg(seed=5))
        b = generate(small_cfg(seed=5))
        assert np.array_equal(a.pool_clips.data, b.pool_clips.data)
        for x, y in zip(a.train_queries, b.train_queries):
            assert np.array_equal(x.data, y.data)
        assert np.array_equal(a.test_clips.data, b.test_clips.data)

    def test_different_seed_differs(self):
        a = generate(small_cfg(seed=5))
        b = generate(small_cfg(seed=6))
        assert not np.array_equal(a.pool_clips.data, b.pool_clips.data)

    def test_no_leakage_between_train_and_test_ids(self):
        ds = generate(small_cfg())
        train_ids = np.concatenate([q.ids for q in ds.train_queries])
        test_ids = np.concatenate([t.ids for t in ds.test_captions])
        assert not set(train_ids) & set(test_ids)
        assert set(ds.truth) == set(int(i) for i in test_ids)

    def test_full_recoverability_without_style_or_noise(self):
        cfg = small_cfg(style_strength=0.0, cross_modal_noise=0.0)
        ds = generate(cfg)
        for caps in ds.test_captions:
            rep = report(rank_queries(caps, ds.test_clips, ds.truth))
            assert rep.r1 == 100.0

    def test_style_separation_at_full_strength(self):
        ds = generate(small_cfg(style_strength=1.0))
        a, b = (tc.data.astype(np.float64) for tc in ds.test_captions)
        within = ((a @ a.T).mean() + (b @ b.T).mean()) / 2.0
        cross = (a @ b.T).mean()
        assert within > cross

    def test_pool_draws_from_broader_cluster_mix(self):
        ds = generate(small_cfg())
        by_split = {}
        for split, cluster in zip(ds.latent["split"].tolist(), ds.latent["cluster"].tolist()):
            by_split.setdefault(split, set()).add(cluster)
        assert by_split["pool"] > by_split["train_query"]  # strict superset

    def test_latent_covers_every_item(self):
        ds = generate(small_cfg())
        n_test = ds.config.test_per_style
        expect = 2 * 48 + 2 * n_test + 256
        assert all(len(col) == expect for col in ds.latent.values())


class TestCrossStyleDiagnostic:
    def test_mixed_candidate_pool_is_harder_than_own_style(self):
        cfg = SynthConfig(n_styles=2, seed=7)
        ds = generate(cfg)
        computed = {}
        for s in range(2):
            caps = ds.test_captions[s]
            mask = np.isin(ds.test_clips.ids, caps.ids)
            own = EmbeddingSet(ids=ds.test_clips.ids[mask],
                               data=ds.test_clips.data[mask], normalized=True)
            within = report(rank_queries(caps, own, ds.truth)).r1
            mixed = report(rank_queries(caps, ds.test_clips, ds.truth)).r1
            assert mixed < within
            computed[f"style{s}_within_r1"] = within
            computed[f"style{s}_mixed_r1"] = mixed
        golden("synthgen_cross_style_r1", computed)


class TestPersistence:
    def test_write_dataset_layout(self, tmp_path):
        ds = generate(small_cfg())
        paths = write_dataset(ds, tmp_path)
        iemb = sorted(p.name for p in tmp_path.glob("*.iemb"))
        assert iemb == [
            "pool.iemb",
            "queries_style0.iemb",
            "queries_style1.iemb",
            "test_captions_style0.iemb",
            "test_captions_style1.iemb",
            "test_clips.iemb",
        ]
        assert read_truth(paths["truth"]) == ds.truth

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = small_cfg(seed=3)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_dataset(generate(cfg), d1)
        write_dataset(generate(cfg), d2)
        for p1 in sorted(d1.iterdir()):
            p2 = d2 / p1.name
            h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
            h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
            assert h1 == h2, p1.name
