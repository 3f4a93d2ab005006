"""Dual-encoder adapter training with a symmetric contrastive objective.

Two linear heads project frozen text/video embeddings; projections are
renormalized and contrasted with a temperature-scaled softmax in both
directions. Batches are scheduled either from a single style source per
step (in-style) or from the shuffled union of all sources (mixed), and an
optional FIFO queue per style contributes extra negative columns.

All loss and gradient math runs in float64 with fixed-order reductions,
so training is bit-deterministic for any worker count.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import container
from .embedcore import EmbeddingSet
from .errors import (
    BatchTooLarge,
    ConfigInvalid,
    CountMismatch,
    EmptyStyleSet,
    NonFiniteLoss,
    RangeOutOfBounds,
)
from .styler import GeneratedPairSet

DEFAULT_TAU = 0.05
DEFAULT_QUEUE_CAPACITY = 1024
MODE_IN_STYLE = "in_style"
MODE_MIXED = "mixed"
MIXED_TAG = "mixed"
SIM_TOLERANCE = 1e-9   # recorded vs recomputed pair similarity in build_training_arrays


@dataclass
class AdapterModel:
    """Trainable projection heads plus the loss temperature."""

    text_head: np.ndarray    # (proj_dim, dim) float64
    video_head: np.ndarray   # (proj_dim, dim) float64
    tau: float = DEFAULT_TAU
    step_count: int = 0

    def __post_init__(self):
        self.text_head = np.asarray(self.text_head, dtype=np.float64)
        self.video_head = np.asarray(self.video_head, dtype=np.float64)
        if self.text_head.shape != self.video_head.shape or self.text_head.ndim != 2:
            raise ValueError("heads must share a (proj_dim, dim) shape")
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        self.check_finite()

    @property
    def dim(self) -> int:
        return self.text_head.shape[1]

    @property
    def proj_dim(self) -> int:
        return self.text_head.shape[0]

    def check_finite(self):
        if not (np.isfinite(self.text_head).all() and np.isfinite(self.video_head).all()):
            raise NonFiniteLoss("adapter weights became non-finite")

    def copy(self) -> "AdapterModel":
        return AdapterModel(
            text_head=self.text_head.copy(),
            video_head=self.video_head.copy(),
            tau=self.tau,
            step_count=self.step_count,
        )


def init_adapter(
    dim: int,
    proj_dim: int | None = None,
    tau: float = DEFAULT_TAU,
    seed: int = 0,
    scheme: str = "identity",
) -> AdapterModel:
    """Fresh adapter; identity heads start training at the zero-shot baseline."""
    proj_dim = dim if proj_dim is None else proj_dim
    if scheme == "identity":
        if proj_dim != dim:
            raise ConfigInvalid("identity init needs proj_dim == dim")
        w_t = np.eye(dim)
        w_v = np.eye(dim)
    elif scheme == "random":
        rng = np.random.default_rng(seed)
        w_t = rng.normal(0.0, 1.0 / np.sqrt(dim), (proj_dim, dim))
        w_v = rng.normal(0.0, 1.0 / np.sqrt(dim), (proj_dim, dim))
    else:
        raise ConfigInvalid(f"unknown init scheme {scheme!r}")
    return AdapterModel(text_head=w_t, video_head=w_v, tau=tau)


class NegativeQueue:
    """FIFO of recent projected (text, video) embeddings for one style.

    Entries are unit-norm projections captured at enqueue time; they act
    as extra negative columns only and never receive gradients.
    """

    def __init__(self, style_tag: str, capacity: int = DEFAULT_QUEUE_CAPACITY):
        if capacity < 0:
            raise ConfigInvalid("queue capacity must be non-negative")
        self.style_tag = style_tag
        self.capacity = capacity
        self._texts: np.ndarray | None = None
        self._videos: np.ndarray | None = None

    def __len__(self) -> int:
        return 0 if self._texts is None else self._texts.shape[0]

    @property
    def text_negatives(self) -> np.ndarray | None:
        return self._texts

    @property
    def video_negatives(self) -> np.ndarray | None:
        return self._videos

    def push(self, text_proj: np.ndarray, video_proj: np.ndarray) -> None:
        if self.capacity == 0:
            return
        if self._texts is None:
            self._texts = text_proj.copy()
            self._videos = video_proj.copy()
        else:
            self._texts = np.concatenate([self._texts, text_proj], axis=0)
            self._videos = np.concatenate([self._videos, video_proj], axis=0)
        if self._texts.shape[0] > self.capacity:
            self._texts = self._texts[-self.capacity:]
            self._videos = self._videos[-self.capacity:]


def _project(head: np.ndarray, rows: np.ndarray):
    raw = rows @ head.T
    norms = np.linalg.norm(raw, axis=1)
    if (norms == 0.0).any() or not np.isfinite(norms).all():
        raise NonFiniteLoss("a projection collapsed to zero or overflowed")
    return raw / norms[:, None], norms


def _log_softmax_rows(logits: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return shifted - log_z[:, None]


def info_nce_loss(
    model: AdapterModel,
    batch_texts: np.ndarray,
    batch_videos: np.ndarray,
    queue: NegativeQueue | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetric temperature-scaled contrastive loss and its exact gradients.

    Returns (loss, d loss / d text_head, d loss / d video_head). The loss
    averages the text-to-video and video-to-text softmax cross-entropies
    over the batch; queue entries add negative columns in both directions.
    """
    texts = np.asarray(batch_texts, dtype=np.float64)
    videos = np.asarray(batch_videos, dtype=np.float64)
    if texts.ndim != 2 or videos.ndim != 2:
        raise ValueError("batches must be 2-D")
    if texts.shape[0] != videos.shape[0]:
        raise CountMismatch(f"{texts.shape[0]} texts vs {videos.shape[0]} videos")
    if texts.shape[0] == 0:
        raise CountMismatch("empty batch")

    b = texts.shape[0]
    tau = model.tau
    x, x_norms = _project(model.text_head, texts)    # (B, p) unit rows
    y, y_norms = _project(model.video_head, videos)

    q_texts = queue.text_negatives if queue is not None else None
    q_videos = queue.video_negatives if queue is not None else None
    cols_v = y if q_videos is None else np.concatenate([y, q_videos], axis=0)
    cols_t = x if q_texts is None else np.concatenate([x, q_texts], axis=0)

    logits_tv = (x @ cols_v.T) / tau     # text -> video direction
    logits_vt = (y @ cols_t.T) / tau     # video -> text direction
    logp_tv = _log_softmax_rows(logits_tv)
    logp_vt = _log_softmax_rows(logits_vt)
    diag = np.arange(b)
    # + 0.0 canonicalizes the -0.0 that the B=1 case would otherwise produce
    loss = float(-(logp_tv[diag, diag].sum() + logp_vt[diag, diag].sum()) / (2.0 * b) + 0.0)
    if not np.isfinite(loss):
        raise NonFiniteLoss("contrastive loss is non-finite")

    # d loss / d logits = (softmax - onehot) / (2B); logits = sims / tau
    g_tv = np.exp(logp_tv)
    g_tv[diag, diag] -= 1.0
    g_tv /= 2.0 * b * tau
    g_vt = np.exp(logp_vt)
    g_vt[diag, diag] -= 1.0
    g_vt /= 2.0 * b * tau

    d_x = g_tv @ cols_v + g_vt[:, :b].T @ y
    d_y = g_vt @ cols_t + g_tv[:, :b].T @ x

    # back through the renormalization x = u / ||u||
    d_u = (d_x - (d_x * x).sum(axis=1, keepdims=True) * x) / x_norms[:, None]
    d_w = (d_y - (d_y * y).sum(axis=1, keepdims=True) * y) / y_norms[:, None]

    grad_text = d_u.T @ texts
    grad_video = d_w.T @ videos
    return loss, grad_text, grad_video


def batch_projections(model: AdapterModel, batch_texts, batch_videos):
    """Unit-norm projections of a batch, e.g. for queue updates."""
    x, _ = _project(model.text_head, np.asarray(batch_texts, dtype=np.float64))
    y, _ = _project(model.video_head, np.asarray(batch_videos, dtype=np.float64))
    return x, y


def grad_check(
    model: AdapterModel,
    batch_texts: np.ndarray,
    batch_videos: np.ndarray,
    queue: NegativeQueue | None = None,
    eps: float = 1e-5,
) -> float:
    """Max relative error of the analytic gradients vs central differences.

    The relative error of one weight is |analytic - numeric| divided by
    max(1, |analytic|, |numeric|), so near-zero gradients are compared
    absolutely.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    _, grad_text, grad_video = info_nce_loss(model, batch_texts, batch_videos, queue)
    worst = 0.0
    for head_name, analytic in (("text_head", grad_text), ("video_head", grad_video)):
        head = getattr(model, head_name)
        for idx in np.ndindex(head.shape):
            orig = head[idx]
            head[idx] = orig + eps
            up, _, _ = info_nce_loss(model, batch_texts, batch_videos, queue)
            head[idx] = orig - eps
            down, _, _ = info_nce_loss(model, batch_texts, batch_videos, queue)
            head[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx]), abs(numeric))
            worst = max(worst, err)
    return worst


@dataclass
class StyleBatchPlan:
    """Ordered minibatch schedule over one epoch.

    Every batch carries a style tag and pair indices into the
    concatenation of the style sets (set s owns the index range
    [offsets[s], offsets[s] + set_sizes[s])). In in-style mode each batch
    draws from exactly one set; mixed batches carry the tag "mixed".
    """

    batches: list[tuple[str, np.ndarray]]
    set_tags: list[str]
    set_sizes: list[int]
    batch_size: int
    mode: str
    seed: int

    @property
    def offsets(self) -> list[int]:
        out, acc = [], 0
        for size in self.set_sizes:
            out.append(acc)
            acc += size
        return out

    @property
    def total_pairs(self) -> int:
        return sum(self.set_sizes)


def _per_set_rng(seed: int, set_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(set_index,)))


def plan_epoch(
    style_sets: list[GeneratedPairSet],
    batch_size: int,
    mode: str = MODE_IN_STYLE,
    seed: int = 0,
) -> StyleBatchPlan:
    """Build one epoch's minibatch schedule.

    in_style: shuffle inside each set, cut homogeneous batches, and
    interleave the sets proportionally to their batch counts (largest
    accumulated credit first, ties to the lower set index). mixed: shuffle
    the union and cut batches regardless of style. Ragged tails are
    dropped in both modes.
    """
    if mode not in (MODE_IN_STYLE, MODE_MIXED):
        raise ConfigInvalid(f"unknown scheduler mode {mode!r}")
    if batch_size < 2:
        raise ConfigInvalid("batch_size must be at least 2")
    if not style_sets:
        raise EmptyStyleSet("no style sets given")
    sizes = [len(s) for s in style_sets]
    tags = [s.style_tag for s in style_sets]
    if len(set(tags)) != len(tags):
        raise ValueError("style tags must be distinct")
    for tag, size in zip(tags, sizes):
        if size == 0:
            raise EmptyStyleSet(f"style set {tag!r} is empty")

    offsets = []
    acc = 0
    for size in sizes:
        offsets.append(acc)
        acc += size

    batches: list[tuple[str, np.ndarray]] = []
    if mode == MODE_IN_STYLE:
        if batch_size > min(sizes):
            raise BatchTooLarge(
                f"batch_size {batch_size} exceeds smallest set ({min(sizes)} pairs)"
            )
        per_set: list[list[np.ndarray]] = []
        for s, size in enumerate(sizes):
            perm = _per_set_rng(seed, s).permutation(size) + offsets[s]
            n_batches = size // batch_size
            per_set.append([
                perm[i * batch_size:(i + 1) * batch_size] for i in range(n_batches)
            ])
        counts = [len(b) for b in per_set]
        total = sum(counts)
        credit = [0.0] * len(sizes)
        cursor = [0] * len(sizes)
        for _ in range(total):
            for s in range(len(sizes)):
                if cursor[s] < counts[s]:
                    credit[s] += counts[s]
            best = max(
                (s for s in range(len(sizes)) if cursor[s] < counts[s]),
                key=lambda s: (credit[s], -s),
            )
            credit[best] -= total
            batches.append((tags[best], per_set[best][cursor[best]]))
            cursor[best] += 1
    else:
        if batch_size > acc:
            raise BatchTooLarge(f"batch_size {batch_size} exceeds {acc} total pairs")
        perm = np.random.default_rng(np.random.SeedSequence(entropy=seed)).permutation(acc)
        for i in range(acc // batch_size):
            batches.append((MIXED_TAG, perm[i * batch_size:(i + 1) * batch_size]))

    return StyleBatchPlan(
        batches=batches,
        set_tags=tags,
        set_sizes=sizes,
        batch_size=batch_size,
        mode=mode,
        seed=seed,
    )


@dataclass
class TrainConfig:
    learning_rate: float = 0.3
    momentum: float = 0.9
    queue_capacity: int = 0   # queue negatives are opt-in; see NegativeQueue


@dataclass
class StepRecord:
    step: int
    style_tag: str
    loss: float


def train(
    model: AdapterModel,
    plan: StyleBatchPlan,
    texts: np.ndarray,
    videos: np.ndarray,
    config: TrainConfig,
) -> tuple[AdapterModel, list[StepRecord]]:
    """Run one pass over the plan with SGD, returning the model and loss log.

    `texts`/`videos` are row-aligned with the plan's global pair indices.
    After each step the batch's projections are pushed into that tag's
    queue; a queue only ever serves batches with its own tag.
    """
    texts = np.asarray(texts, dtype=np.float64)
    videos = np.asarray(videos, dtype=np.float64)
    if texts.shape[0] != plan.total_pairs or videos.shape[0] != plan.total_pairs:
        raise CountMismatch(
            f"plan covers {plan.total_pairs} pairs but arrays hold "
            f"{texts.shape[0]}/{videos.shape[0]} rows"
        )
    model = model.copy()
    queues: dict[str, NegativeQueue] = {}
    vel_t = np.zeros_like(model.text_head)
    vel_v = np.zeros_like(model.video_head)
    log_rows: list[StepRecord] = []

    for step, (tag, indices) in enumerate(plan.batches):
        batch_t = texts[indices]
        batch_v = videos[indices]
        queue = queues.get(tag)
        try:
            loss, grad_t, grad_v = info_nce_loss(model, batch_t, batch_v, queue)
            if config.momentum > 0.0:
                vel_t = config.momentum * vel_t + grad_t
                vel_v = config.momentum * vel_v + grad_v
                model.text_head -= config.learning_rate * vel_t
                model.video_head -= config.learning_rate * vel_v
            else:
                model.text_head -= config.learning_rate * grad_t
                model.video_head -= config.learning_rate * grad_v
            model.check_finite()
        except NonFiniteLoss as exc:
            raise NonFiniteLoss(f"step {step}: {exc}") from exc
        model.step_count += 1
        if config.queue_capacity > 0:
            if queue is None:
                queue = queues[tag] = NegativeQueue(tag, config.queue_capacity)
            x, y = batch_projections(model, batch_t, batch_v)
            queue.push(x, y)
        log_rows.append(StepRecord(step=step, style_tag=tag, loss=loss))
    return model, log_rows


def build_training_arrays(
    gen_sets: list[GeneratedPairSet],
    styled_sets: list[EmbeddingSet],
    clips: EmbeddingSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-align styled captions and their clips for the plan's index space.

    Global pair index offsets follow the set order, matching plan_epoch.
    Every pair's row must hold the styled caption of that pair's clip, and
    the pair's recorded similarity must be that caption's cosine with the
    clip's row in `clips`, so a pool other than the filter's is rejected.
    """
    if len(gen_sets) != len(styled_sets):
        raise CountMismatch("one styled set per generated-pair set required")
    text_blocks, video_blocks = [], []
    for gen, styled in zip(gen_sets, styled_sets):
        if len(gen) and (gen.rows.min() < 0 or gen.rows.max() >= styled.count):
            raise RangeOutOfBounds(
                f"style set {gen.style_tag!r}: a row lies outside 0..{styled.count - 1}")
        if not np.array_equal(styled.ids[gen.rows], gen.clip_ids):
            raise CountMismatch(
                f"style set {gen.style_tag!r}: a row holds another clip than its pair names")
        text_rows = styled.data[gen.rows].astype(np.float64)
        video_rows = clips.data[clips.row_for_id(gen.clip_ids)].astype(np.float64)
        drift = np.abs(np.einsum("ij,ij->i", text_rows, video_rows) - gen.sims)
        if len(gen) and drift.max() > SIM_TOLERANCE:
            raise CountMismatch(
                f"style set {gen.style_tag!r}: a pair's similarity differs from its "
                f"recorded value by {drift.max():.3g}; the pool is not the one it was "
                f"filtered against")
        text_blocks.append(text_rows)
        video_blocks.append(video_rows)
    return np.concatenate(text_blocks, axis=0), np.concatenate(video_blocks, axis=0)


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)).generate_state(1)[0])


def train_epochs(
    model: AdapterModel,
    style_sets: list[GeneratedPairSet],
    texts: np.ndarray,
    videos: np.ndarray,
    mode: str,
    epochs: int,
    batch_size: int,
    config: TrainConfig,
    seed: int,
) -> tuple[AdapterModel, list[StepRecord]]:
    """Fresh plan per epoch; step numbers continue across epochs."""
    if epochs < 1:
        raise ConfigInvalid("epochs must be at least 1")
    all_rows: list[StepRecord] = []
    for epoch in range(epochs):
        plan = plan_epoch(style_sets, batch_size, mode=mode, seed=_epoch_seed(seed, epoch))
        model, rows = train(model, plan, texts, videos, config)
        offset = len(all_rows)
        all_rows.extend(
            StepRecord(step=offset + r.step, style_tag=r.style_tag, loss=r.loss)
            for r in rows
        )
    return model, all_rows


def write_loss_log(rows: list[StepRecord], path: str | os.PathLike) -> None:
    with container.atomic_write(path, "w", encoding="utf-8") as f:
        f.write("step,style_tag,loss\n")
        for row in rows:
            f.write(f"{row.step},{row.style_tag},{row.loss!r}\n")


# ---- persistence ----


def save_adapter(model: AdapterModel, path: str | os.PathLike) -> None:
    """Persist the adapter; head weights are stored as float32."""
    with container.atomic_write(path) as f:
        container.write_header(f)
        f.write(container.ADAPTER_CHUNK)
        container.write_u32(f, model.proj_dim)
        container.write_u32(f, model.dim)
        container.write_f64(f, model.tau)
        container.write_u64(f, model.step_count)
        container.write_array(f, model.text_head, "<f4")
        container.write_array(f, model.video_head, "<f4")


def load_adapter(path: str | os.PathLike) -> AdapterModel:
    with open(path, "rb") as f:
        container.read_header(f)
        container.read_chunk_tag(f, container.ADAPTER_CHUNK)
        proj_dim = container.read_u32(f, "proj_dim")
        dim = container.read_u32(f, "dim")
        tau = container.read_f64(f, "tau")
        step_count = container.read_u64(f, "step_count")
        w_t = container.read_array(f, "<f4", proj_dim * dim, "text head")
        w_v = container.read_array(f, "<f4", proj_dim * dim, "video head")
    return AdapterModel(
        text_head=w_t.reshape(proj_dim, dim).astype(np.float64),
        video_head=w_v.reshape(proj_dim, dim).astype(np.float64),
        tau=tau,
        step_count=step_count,
    )
