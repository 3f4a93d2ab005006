"""Deterministic synthetic multi-style benchmark with known ground truth.

Every item has a latent content vector drawn from a shared set of content
clusters. Clips embed the content directly (plus channel noise in the
non-content dims); captions pass the content through a per-style random
affine map, so caption sets share structure within a style but diverge
across styles. Query contents concentrate on a per-style cluster subset
while the uncurated pool draws from all clusters, giving the pool a
broader distribution that still overlaps every style.
"""

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import container
from .embedcore import EmbeddingSet, normalize, save_embeddings
from .errors import ConfigInvalid

N_CLUSTERS = 8
CLUSTERS_PER_STYLE = 4
CONTENT_SPREAD = 0.75      # within-cluster content noise
BIAS_SCALE = 0.5           # style bias magnitude relative to sqrt(content_dim)

_STYLE_ID_STRIDE = 1_000_000
_TEST_ID_OFFSET = 500_000
_POOL_ID_BASE = 100_000_000


@dataclass
class SynthConfig:
    n_styles: int = 2
    queries_per_style: int = 512
    pool_size: int = 8192
    dim: int = 64
    content_dim: int = 16
    style_strength: float = 0.8
    cross_modal_noise: float = 0.1
    seed: int = 0
    held_out_fraction: float = 0.25

    def validate(self) -> None:
        if self.n_styles < 1:
            raise ConfigInvalid("n_styles must be at least 1")
        if self.queries_per_style < 1:
            raise ConfigInvalid("queries_per_style must be at least 1")
        if self.content_dim < 1 or self.content_dim > self.dim:
            raise ConfigInvalid("content_dim must lie in 1..dim")
        if self.pool_size < self.n_styles * self.queries_per_style:
            raise ConfigInvalid("pool_size must cover the total query count")
        if not 0.0 <= self.style_strength <= 1.0:
            raise ConfigInvalid("style_strength must lie in [0, 1]")
        if not 0.0 <= self.cross_modal_noise < np.inf:
            raise ConfigInvalid("cross_modal_noise must be finite and non-negative")
        if not 0.0 < self.held_out_fraction < 1.0:
            raise ConfigInvalid("held_out_fraction must lie strictly in (0, 1)")
        if self.queries_per_style > _TEST_ID_OFFSET or self.test_per_style > _TEST_ID_OFFSET:
            raise ConfigInvalid("per-style item count exceeds the id block size")
        if self.n_styles * _STYLE_ID_STRIDE >= _POOL_ID_BASE:
            raise ConfigInvalid("id scheme supports at most 99 styles")

    @property
    def test_per_style(self) -> int:
        return max(1, round(self.held_out_fraction * self.queries_per_style))


@dataclass
class StyleGroundTruth:
    """The true affine caption map used to synthesize one style."""

    matrix: np.ndarray   # (dim, content_dim)
    bias: np.ndarray     # (dim,)
    clusters: np.ndarray


@dataclass
class SynthDataset:
    config: SynthConfig
    train_queries: list[EmbeddingSet]
    pool_clips: EmbeddingSet
    test_captions: list[EmbeddingSet]
    test_clips: EmbeddingSet          # held-out clips of all styles combined
    truth: dict[int, int]             # test caption id -> test clip id
    latent: list[dict] = field(default_factory=list)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _clip_embedding(cfg: SynthConfig, contents: np.ndarray, rng) -> np.ndarray:
    """content || channel noise per row, unnormalized (`_as_set` normalizes)."""
    n = contents.shape[0]
    pad = cfg.dim - cfg.content_dim
    noise = cfg.cross_modal_noise * rng.standard_normal((n, pad)) if pad else np.empty((n, 0))
    return np.concatenate([contents, noise], axis=1)


def _caption_embedding(cfg, style: StyleGroundTruth, contents: np.ndarray, rng) -> np.ndarray:
    """A content + b + cross-modal noise per row, unnormalized (`_as_set` normalizes)."""
    raw = contents @ style.matrix.T + style.bias
    raw += cfg.cross_modal_noise * rng.standard_normal(raw.shape)
    return raw


def _as_set(ids: np.ndarray, raw: np.ndarray) -> EmbeddingSet:
    return normalize(EmbeddingSet(ids=ids, data=raw.astype(np.float32)))


def generate(cfg: SynthConfig) -> SynthDataset:
    """Build the full benchmark for one seed; pure function of the config."""
    cfg.validate()
    centers = _rng(cfg.seed, 0).standard_normal((N_CLUSTERS, cfg.content_dim))

    styles: list[StyleGroundTruth] = []
    for s in range(cfg.n_styles):
        rng = _rng(cfg.seed, 1, s)
        clusters = rng.choice(N_CLUSTERS, size=min(CLUSTERS_PER_STYLE, N_CLUSTERS),
                              replace=False)
        gamma = cfg.style_strength
        mixing = rng.standard_normal((cfg.dim, cfg.content_dim)) / np.sqrt(cfg.dim)
        canonical = np.zeros((cfg.dim, cfg.content_dim))
        canonical[:cfg.content_dim] = np.eye(cfg.content_dim)
        direction = rng.standard_normal(cfg.dim)
        direction /= np.linalg.norm(direction)
        styles.append(StyleGroundTruth(
            matrix=(1.0 - gamma) * canonical + gamma * mixing,
            bias=gamma * BIAS_SCALE * np.sqrt(cfg.content_dim) * direction,
            clusters=np.sort(clusters),
        ))

    latent: list[dict] = []
    train_queries: list[EmbeddingSet] = []
    test_caption_sets: list[EmbeddingSet] = []
    test_clip_ids: list[np.ndarray] = []
    test_clip_raw: list[np.ndarray] = []
    truth: dict[int, int] = {}

    n_test = cfg.test_per_style
    for s, style in enumerate(styles):
        rng_content = _rng(cfg.seed, 2, s)
        n_items = cfg.queries_per_style + n_test
        assignment = style.clusters[rng_content.integers(0, len(style.clusters), n_items)]
        contents = centers[assignment] + CONTENT_SPREAD * rng_content.standard_normal(
            (n_items, cfg.content_dim))

        train_ids = s * _STYLE_ID_STRIDE + np.arange(cfg.queries_per_style, dtype=np.int64)
        test_ids = (s * _STYLE_ID_STRIDE + _TEST_ID_OFFSET
                    + np.arange(n_test, dtype=np.int64))

        train_raw = _caption_embedding(cfg, style, contents[:cfg.queries_per_style],
                                       _rng(cfg.seed, 3, s))
        test_cap_raw = _caption_embedding(cfg, style, contents[cfg.queries_per_style:],
                                          _rng(cfg.seed, 4, s))
        test_clip = _clip_embedding(cfg, contents[cfg.queries_per_style:],
                                    _rng(cfg.seed, 5, s))

        train_queries.append(_as_set(train_ids, train_raw))
        test_caption_sets.append(_as_set(test_ids, test_cap_raw))
        test_clip_ids.append(test_ids)
        test_clip_raw.append(test_clip)
        truth.update({int(i): int(i) for i in test_ids})

        for j, item_id in enumerate(train_ids):
            latent.append({"item_id": int(item_id), "style": s,
                           "cluster": int(assignment[j]), "split": "train_query"})
        for j, item_id in enumerate(test_ids):
            latent.append({"item_id": int(item_id), "style": s,
                           "cluster": int(assignment[cfg.queries_per_style + j]),
                           "split": "test"})

    rng_pool = _rng(cfg.seed, 6)
    pool_assignment = rng_pool.integers(0, N_CLUSTERS, cfg.pool_size)
    pool_contents = centers[pool_assignment] + CONTENT_SPREAD * rng_pool.standard_normal(
        (cfg.pool_size, cfg.content_dim))
    pool_ids = _POOL_ID_BASE + np.arange(cfg.pool_size, dtype=np.int64)
    pool_raw = _clip_embedding(cfg, pool_contents, _rng(cfg.seed, 7))
    for j, item_id in enumerate(pool_ids):
        latent.append({"item_id": int(item_id), "style": -1,
                       "cluster": int(pool_assignment[j]), "split": "pool"})

    all_test_ids = np.concatenate(test_clip_ids)
    all_test_raw = np.concatenate(test_clip_raw, axis=0)

    return SynthDataset(
        config=cfg,
        train_queries=train_queries,
        pool_clips=_as_set(pool_ids, pool_raw),
        test_captions=test_caption_sets,
        test_clips=_as_set(all_test_ids, all_test_raw),
        truth=truth,
        latent=latent,
    )


# ---- persistence ----


def dataset_paths(out_dir: str | os.PathLike, n_styles: int) -> dict:
    out_dir = os.fspath(out_dir)
    return {
        "queries": [os.path.join(out_dir, f"queries_style{s}.iemb") for s in range(n_styles)],
        "test_captions": [
            os.path.join(out_dir, f"test_captions_style{s}.iemb") for s in range(n_styles)
        ],
        "pool": os.path.join(out_dir, "pool.iemb"),
        "test_clips": os.path.join(out_dir, "test_clips.iemb"),
        "truth": os.path.join(out_dir, "truth.jsonl"),
        "latent": os.path.join(out_dir, "latent.jsonl"),
    }


def write_dataset(ds: SynthDataset, out_dir: str | os.PathLike) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = dataset_paths(out_dir, ds.config.n_styles)
    for s in range(ds.config.n_styles):
        save_embeddings(ds.train_queries[s], paths["queries"][s])
        save_embeddings(ds.test_captions[s], paths["test_captions"][s])
    save_embeddings(ds.pool_clips, paths["pool"])
    save_embeddings(ds.test_clips, paths["test_clips"])
    container.write_records(paths["truth"], {"kind": "retrieval_truth"}, (
        {"query_id": qid, "candidate_id": ds.truth[qid]} for qid in sorted(ds.truth)))
    container.write_records(paths["latent"], latent_header(ds.config), ds.latent)
    return paths


def latent_header(cfg: SynthConfig) -> dict:
    return {"kind": "latent_record", **asdict(cfg)}


def check_latent_header(path: str | os.PathLike, cfg: SynthConfig) -> None:
    """Raise ConfigInvalid unless the dataset at `path` was generated from `cfg`."""
    want = latent_header(cfg)
    got = container.read_record_header(path, "latent_record")
    for key in [*want, *got]:
        if got.get(key) != want.get(key):
            raise ConfigInvalid(
                f"{path} was generated with {key}={got.get(key)!r}, not {want.get(key)!r}")


def read_truth(path: str | os.PathLike) -> dict[int, int]:
    _, records = container.read_records(path, "retrieval_truth")
    return {int(r["query_id"]): int(r["candidate_id"]) for r in records}
