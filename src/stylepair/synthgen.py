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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import container
from .embedcore import EmbeddingSet, keyed_rng, row_blocks, save_embeddings, unit_block
from .errors import ConfigInvalid, DuplicateId

N_CLUSTERS = 8
CLUSTERS_PER_STYLE = 4
CONTENT_SPREAD = 0.75      # within-cluster content noise
BIAS_SCALE = 0.5           # style bias magnitude relative to sqrt(content_dim)
LATENT_FIELDS = {"item_id": int, "style": int, "cluster": int, "split": str}   # record keys
TRUTH_FIELDS = {"query_id": int, "candidate_id": int}

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
        if self.dim >= 2**32 or _POOL_ID_BASE + self.pool_size >= 2**63:
            raise ConfigInvalid("dim must fit the u32 and pool ids the i64 of an .iemb file")

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
    latent: dict[str, np.ndarray]     # the latent file's columns (LATENT_FIELDS)


def _clip_embedding(cfg: SynthConfig, contents: np.ndarray, rng) -> np.ndarray:
    """content || channel noise per row, unnormalized."""
    n = contents.shape[0]
    pad = cfg.dim - cfg.content_dim
    with np.errstate(over="ignore"):   # a row past float64's range is reported by unit_block
        noise = cfg.cross_modal_noise * rng.standard_normal((n, pad)) if pad else np.empty((n, 0))
    return np.concatenate([contents, noise], axis=1)


def _caption_embedding(cfg, style: StyleGroundTruth, contents: np.ndarray, rng) -> np.ndarray:
    """A content + b + cross-modal noise per row, unnormalized."""
    raw = contents @ style.matrix.T + style.bias
    with np.errstate(over="ignore"):   # a row past float64's range is reported by unit_block
        raw += cfg.cross_modal_noise * rng.standard_normal(raw.shape)
    return raw


def _contents(centers: np.ndarray, assignment: np.ndarray, rng) -> np.ndarray:
    """Each row's cluster center plus within-cluster noise, drawn from `rng` in row order."""
    return centers[assignment] + CONTENT_SPREAD * rng.standard_normal(
        (len(assignment), centers.shape[1]))


def _unit_rows(ids: np.ndarray, raw: np.ndarray, out: np.ndarray) -> None:
    """Narrow one block's raw rows to float32, then normalize them into `out` (unit_block)."""
    with np.errstate(over="ignore"):   # a row past float32's range is reported by unit_block
        narrowed = raw.astype(np.float32)
    unit_block(ids, narrowed.astype(np.float64), out)


def generate(cfg: SynthConfig) -> SynthDataset:
    """Build the full benchmark for one seed; pure function of the config.

    Every set is built one block of row_blocks at a time, straight into its
    float32 rows. Each generator draws its rows in order, so the blocks
    carry the values of one draw per set.
    """
    cfg.validate()
    centers = keyed_rng(cfg.seed, 0).standard_normal((N_CLUSTERS, cfg.content_dim))

    styles: list[StyleGroundTruth] = []
    for s in range(cfg.n_styles):
        rng = keyed_rng(cfg.seed, 1, s)
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

    latent: list[tuple] = []          # (item ids, style, clusters, split) blocks, in file order
    train_queries: list[EmbeddingSet] = []
    test_caption_sets: list[EmbeddingSet] = []
    n_q, n_test = cfg.queries_per_style, cfg.test_per_style
    test_clip_ids = np.concatenate([s * _STYLE_ID_STRIDE + _TEST_ID_OFFSET
                                    + np.arange(n_test, dtype=np.int64)
                                    for s in range(cfg.n_styles)])
    test_clips = np.empty((len(test_clip_ids), cfg.dim), dtype=np.float32)

    for s, style in enumerate(styles):
        rng_content = keyed_rng(cfg.seed, 2, s)
        assignment = style.clusters[rng_content.integers(0, len(style.clusters), n_q + n_test)]
        train_ids = s * _STYLE_ID_STRIDE + np.arange(n_q, dtype=np.int64)
        test_ids = test_clip_ids[s * n_test:(s + 1) * n_test]

        rng_caption = keyed_rng(cfg.seed, 3, s)
        train = np.empty((n_q, cfg.dim), dtype=np.float32)
        for lo, hi in row_blocks(n_q):
            contents = _contents(centers, assignment[lo:hi], rng_content)
            _unit_rows(train_ids[lo:hi], _caption_embedding(cfg, style, contents, rng_caption),
                       train[lo:hi])
        rng_caption, rng_clip = keyed_rng(cfg.seed, 4, s), keyed_rng(cfg.seed, 5, s)
        captions = np.empty((n_test, cfg.dim), dtype=np.float32)
        clips = test_clips[s * n_test:(s + 1) * n_test]
        for lo, hi in row_blocks(n_test):   # one content draw for a caption and its clip
            contents = _contents(centers, assignment[n_q + lo:n_q + hi], rng_content)
            _unit_rows(test_ids[lo:hi], _caption_embedding(cfg, style, contents, rng_caption),
                       captions[lo:hi])
            _unit_rows(test_ids[lo:hi], _clip_embedding(cfg, contents, rng_clip), clips[lo:hi])

        train_queries.append(EmbeddingSet(ids=train_ids, data=train, normalized=True))
        test_caption_sets.append(EmbeddingSet(ids=test_ids, data=captions, normalized=True))
        latent.append((train_ids, s, assignment[:n_q], "train_query"))
        latent.append((test_ids, s, assignment[n_q:], "test"))

    rng_pool, rng_clip = keyed_rng(cfg.seed, 6), keyed_rng(cfg.seed, 7)
    pool_assignment = rng_pool.integers(0, N_CLUSTERS, cfg.pool_size)
    pool_ids = _POOL_ID_BASE + np.arange(cfg.pool_size, dtype=np.int64)
    pool = np.empty((cfg.pool_size, cfg.dim), dtype=np.float32)
    for lo, hi in row_blocks(cfg.pool_size):
        contents = _contents(centers, pool_assignment[lo:hi], rng_pool)
        _unit_rows(pool_ids[lo:hi], _clip_embedding(cfg, contents, rng_clip), pool[lo:hi])
    latent.append((pool_ids, -1, pool_assignment, "pool"))
    ids, block_styles, clusters, splits = zip(*latent)
    sizes = [len(block) for block in ids]

    return SynthDataset(
        config=cfg,
        train_queries=train_queries,
        pool_clips=EmbeddingSet(ids=pool_ids, data=pool, normalized=True),
        test_captions=test_caption_sets,
        test_clips=EmbeddingSet(ids=test_clip_ids, data=test_clips, normalized=True),
        truth={int(i): int(i) for i in test_clip_ids},
        latent={"item_id": np.concatenate(ids), "style": np.repeat(block_styles, sizes),
                "cluster": np.concatenate(clusters), "split": np.repeat(splits, sizes)},
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
    query_ids, candidate_ids = np.array(sorted(ds.truth.items()), dtype=np.int64).reshape(-1, 2).T
    container.write_records(paths["truth"], {"kind": "retrieval_truth"},
                            {"query_id": query_ids, "candidate_id": candidate_ids})
    container.write_records(paths["latent"], latent_header(ds.config), ds.latent)
    return paths


def latent_header(cfg: SynthConfig) -> dict:
    return {"kind": "latent_record", **asdict(cfg)}


def read_latent_config(path: str | os.PathLike, flags: SynthConfig,
                       check_seed: bool) -> SynthConfig:
    """The SynthConfig in the latent header at `path`; ConfigInvalid names the first
    key, the seed only if `check_seed`, where `flags` differs from it."""
    with container.read_records(path, "latent_record", None,
                                {f.name: f.type for f in fields(SynthConfig)}) as (got, _):
        for key, value in asdict(flags).items():
            if got[key] != value and (check_seed or key != "seed"):
                raise ConfigInvalid(f"generated with {key}={got[key]!r}, not {value!r}")
        return SynthConfig(**{f.name: got[f.name] for f in fields(SynthConfig)})


def read_truth(path: str | os.PathLike) -> dict[int, int]:
    with container.read_records(path, "retrieval_truth", TRUTH_FIELDS, {}) as (_, cols):
        truth = dict(zip(cols["query_id"].tolist(), cols["candidate_id"].tolist()))
        if len(truth) != len(cols["query_id"]):
            raise DuplicateId("a query_id appears in more than one record")
        return truth
