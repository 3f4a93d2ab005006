import hashlib

import numpy as np
import pytest

from stylepair.cli import main
from stylepair.embedcore import EmbeddingSet
from stylepair.errors import ConfigInvalid
from stylepair.evaluator import rank_queries, report
from stylepair.synthgen import SynthConfig, generate, read_truth, write_dataset

from conftest import golden, traced_peak


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

    def test_memory_holds_the_sets_and_a_few_blocks(self):
        # whole-set float64 copies of the pool once took 40 MB here, 4.6 times the sets
        cfg = SynthConfig(pool_size=32_768, seed=7)
        box = []
        peak = traced_peak(lambda: box.append(generate(cfg)))
        ds = box[0]
        sets = [*ds.train_queries, ds.pool_clips, *ds.test_captions, ds.test_clips]
        assert peak < 2 * sum(es.data.nbytes for es in sets)

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


# sha256 of every file `synth` writes, recorded from the generator that built whole sets
# before it streamed them one row block at a time: a row count off the 512-row blocks, one
# style, and --content-dim equal to --dim (no channel-noise draws)
SYNTH_PINS = {
    "ragged": (["--styles", "2", "--queries-per-style", "700", "--pool-size", "1500",
                "--dim", "32", "--content-dim", "12", "--seed", "3"], {
        "latent.jsonl": "0ca559d2c24bdd3416db09cf3d6b4bb4ea5cef625ff8e104859889dae3f1fdb3",
        "pool.iemb": "e84e5dc3f535f136ada3db5327ebbee26120236f2dad73a5852a0495ba79eda8",
        "queries_style0.iemb": "507a4793349b5ad5632bf3f387d56b4ede87c72219a88d9f8a274fd68e45b12b",
        "queries_style1.iemb": "018391db9eb38fa70d0d962f47dd7c0b6ddd99bc87bc3f94e5df9104d1a9c2bd",
        "test_captions_style0.iemb": "c197b375cedbfe33f8a76fcbeea3a638edc4b63100fee5ab53d322e79291ee17",
        "test_captions_style1.iemb": "25273fce19166f1eca7c12bb17ae1e6c51cba27e00a9229c24a94fe2bcb04c9e",
        "test_clips.iemb": "500680ad927d4cb9d6acfebbdab37e3903b1dacb4ca640003091607bc5a1cd45",
        "truth.jsonl": "24c9eba152d09780f51a2d9f0c18cc921540b0035ebdc0c4867a01a132864ecb",
    }),
    "one_style": (["--styles", "1", "--queries-per-style", "300", "--pool-size", "600",
                   "--seed", "5"], {
        "latent.jsonl": "c7f437ccb0e9f0fddd3cd084dee938385d1686ddc2e523ffd4b20247481d8c48",
        "pool.iemb": "103d8f88a53dbecefc19d92d3650fd794d27e4620c7ed780ab6f4df066331067",
        "queries_style0.iemb": "368d426cf029d420e924f1d311d3ee622517a89f30c4ccae170315081af4693c",
        "test_captions_style0.iemb": "e0b39033617f96ae75442ebc934246bf2d87cdbb1ae24fc8d85a2de74aad0f54",
        "test_clips.iemb": "1678db78a786a1115414ada22e693bbd1c32ffcfb4f3d758fae3c7b9193fd183",
        "truth.jsonl": "50788f9d9abac78c974a333b8ae30b444d269520649d4a3a600baeae8c2e0b0b",
    }),
    "no_channel_noise": (["--styles", "2", "--queries-per-style", "64", "--pool-size", "1100",
                          "--dim", "16", "--content-dim", "16", "--seed", "9"], {
        "latent.jsonl": "196396e7eaf37497b002ff6868ee522f595dd96451bcfce5d215bc36730fd5e3",
        "pool.iemb": "49b56889f0f09cfcaa5100e8d67cde44a2e061bd409201d3083d176fc5a3d14d",
        "queries_style0.iemb": "20273af642a325b0b02de34dd0d2fd4b224b0915601d07bab828c872a6735b75",
        "queries_style1.iemb": "269b914a5fe05968ea341e24bc2a309f9830b85673eb7d94ba331447dc685708",
        "test_captions_style0.iemb": "04caf4b0e40e0a46a915f50d57a9fb1d20259eff9cadbfbb8fd83e77681e2e7a",
        "test_captions_style1.iemb": "c8f44bbff9cdfbdde447ebdac24e5072db8a1048163a92079765bc90cfdd9374",
        "test_clips.iemb": "75d6974c9d3e7c79e03d3f56f70ad9f61e667cd85bd3e2ac9b39b0566aa6138b",
        "truth.jsonl": "2b089197e2de4dbfecbdd9d74a6d24639f4f22129bf02401a8f1bab5c88b4e8a",
    }),
}


@pytest.mark.parametrize("name", sorted(SYNTH_PINS))
def test_synth_writes_the_pinned_bytes(tmp_path, name):
    argv, pins = SYNTH_PINS[name]
    assert main(["synth", "--out", str(tmp_path), *argv]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == pins
