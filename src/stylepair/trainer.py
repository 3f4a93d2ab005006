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
    DimMismatch,
    EmptyStyleSet,
    NonFiniteLoss,
    RangeOutOfBounds,
)
from .styler import GeneratedPairSet

DEFAULT_TAU = 0.05
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


def init_adapter(dim: int, tau: float = DEFAULT_TAU) -> AdapterModel:
    """Fresh adapter; identity heads start training at the zero-shot baseline."""
    return AdapterModel(text_head=np.eye(dim), video_head=np.eye(dim), tau=tau)


class NegativeQueue:
    """FIFO of recent projected (text, video) embeddings for one style.

    Entries are unit-norm projections captured at enqueue time; they act
    as extra negative columns only and never receive gradients. Each
    direction keeps one column buffer laid out as [batch | queue, oldest
    first]: a loss step writes its batch projections into the top rows, so
    its columns are a view and no step concatenates.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigInvalid("queue capacity must be non-negative")
        self.capacity = capacity
        self._batch = 0      # rows reserved for the batch above the queue
        self._len = 0
        self._texts: np.ndarray | None = None    # (batch + capacity, proj_dim) float64
        self._videos: np.ndarray | None = None

    def __len__(self) -> int:
        return self._len

    @property
    def text_negatives(self) -> np.ndarray | None:
        return self._texts[self._batch:self._batch + self._len] if self._len else None

    @property
    def video_negatives(self) -> np.ndarray | None:
        return self._videos[self._batch:self._batch + self._len] if self._len else None

    def _reserve(self, batch: int, proj_dim: int) -> None:
        """Lay the buffers out for `batch` rows above the queue, keeping its entries."""
        if self._texts is not None and self._batch == batch:
            return
        texts = np.empty((batch + self.capacity, proj_dim))
        videos = np.empty((batch + self.capacity, proj_dim))
        if self._len:
            texts[batch:batch + self._len] = self.text_negatives
            videos[batch:batch + self._len] = self.video_negatives
        self._texts, self._videos, self._batch = texts, videos, batch

    def columns(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[x | text queue] and [y | video queue], oldest entry first, as buffer views."""
        b = x.shape[0]
        self._reserve(b, x.shape[1])
        self._texts[:b] = x
        self._videos[:b] = y
        return self._texts[:b + self._len], self._videos[:b + self._len]

    def push(self, text_proj: np.ndarray, video_proj: np.ndarray) -> None:
        if self.capacity == 0:
            return
        new = min(text_proj.shape[0], self.capacity)
        keep = min(self._len, self.capacity - new)
        drop = self._len - keep
        self._reserve(self._batch or text_proj.shape[0], text_proj.shape[1])
        lo, dim = self._batch, self._texts.shape[1]
        for buf, rows in ((self._texts, text_proj), (self._videos, video_proj)):
            if drop:
                # shift the kept entries up over the dropped ones; a 1-D overlapping
                # copy runs in place, where a 2-D one would copy through a temporary
                flat = buf.reshape(-1)
                flat[lo * dim:(lo + keep) * dim] = flat[(lo + drop) * dim:(lo + self._len) * dim]
            buf[lo + keep:lo + keep + new] = rows[rows.shape[0] - new:]
        self._len = keep + new


class LossWorkspace:
    """Matrices one `train` call reuses for every info_nce_loss step.

    Each (rows, cols) matrix is a C-contiguous view at the start of its own
    buffer, so a step sees the layout of freshly allocated arrays and
    computes the same bits. A buffer grows only when a step needs more.
    """

    def __init__(self):
        self._buffers = [np.empty(0) for _ in range(3)]

    def matrices(self, rows: int, cols: int) -> list[np.ndarray]:
        """(logits, text->video gradient, video->text gradient) buffers."""
        size = rows * cols
        if self._buffers[0].size < size:
            self._buffers.clear()   # the smaller buffers go before the larger ones exist
            self._buffers.extend(np.empty(size) for _ in range(3))
        return [buf[:size].reshape(rows, cols) for buf in self._buffers]


def project(head: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm float64 projections of `rows` through `head`, and their raw norms."""
    raw = np.asarray(rows, dtype=np.float64) @ head.T
    norms = np.linalg.norm(raw, axis=1)
    if (norms == 0.0).any() or not np.isfinite(norms).all():
        raise NonFiniteLoss("a projection collapsed to zero or overflowed")
    return raw / norms[:, None], norms


def _log_softmax_rows(logits: np.ndarray, scratch: np.ndarray) -> None:
    """Turn `logits` into its row-wise log-softmax in place; `scratch` takes exp on the way."""
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits, out=scratch).sum(axis=1))
    logits -= log_z[:, None]


def info_nce_loss(
    model: AdapterModel,
    batch_texts: np.ndarray,
    batch_videos: np.ndarray,
    queue: NegativeQueue | None = None,
    *,
    workspace: LossWorkspace | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetric temperature-scaled contrastive loss and its exact gradients.

    Returns (loss, d loss / d text_head, d loss / d video_head). The loss
    averages the text-to-video and video-to-text softmax cross-entropies
    over the batch; queue entries add negative columns in both directions.
    A `workspace` lets repeated calls reuse their (B, B + queue) matrices;
    without one they are allocated fresh. Either way the bits are the same.
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
    x, x_norms = project(model.text_head, texts)    # (B, p) unit rows
    y, y_norms = project(model.video_head, videos)
    cols_t, cols_v = queue.columns(x, y) if queue is not None and len(queue) else (x, y)
    if workspace is None:
        workspace = LossWorkspace()
    logits, g_tv, g_vt = workspace.matrices(b, cols_v.shape[0])

    diag = np.arange(b)
    log_diag = []
    # text -> video, then video -> text; each leaves its softmax in its gradient buffer
    for rows, cols, grad in ((x, cols_v, g_tv), (y, cols_t, g_vt)):
        np.matmul(rows, cols.T, out=logits)
        logits /= tau
        _log_softmax_rows(logits, grad)
        log_diag.append(logits[diag, diag].sum())
        np.exp(logits, out=grad)
    # + 0.0 canonicalizes the -0.0 that the B=1 case would otherwise produce
    loss = float(-(log_diag[0] + log_diag[1]) / (2.0 * b) + 0.0)
    if not np.isfinite(loss):
        raise NonFiniteLoss("contrastive loss is non-finite")

    # d loss / d logits = (softmax - onehot) / (2B); logits = sims / tau
    for grad in (g_tv, g_vt):
        grad[diag, diag] -= 1.0
        grad /= 2.0 * b * tau

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
    return project(model.text_head, batch_texts)[0], project(model.video_head, batch_videos)[0]


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


def _per_set_rng(seed: int, set_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(set_index,)))


def plan_epoch(
    style_sets: list[GeneratedPairSet],
    batch_size: int,
    mode: str = MODE_IN_STYLE,
    seed: int = 0,
) -> list[tuple[str, np.ndarray]]:
    """One epoch's minibatches as (style tag, global pair indices), in order.

    Set s owns the indices [offsets[s], offsets[s] + len(set s)) of the
    concatenation of the style sets, as build_training_arrays lays them out.
    in_style: shuffle inside each set, cut homogeneous batches, and
    interleave the sets proportionally to their batch counts (largest
    accumulated credit first, ties to the lower set index); each batch
    carries its set's tag. mixed: shuffle the union and cut batches
    regardless of style, tagged "mixed". Ragged tails are dropped in both
    modes.
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

    offsets = [sum(sizes[:s]) for s in range(len(sizes))]
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
        n_pairs = sum(sizes)
        if batch_size > n_pairs:
            raise BatchTooLarge(f"batch_size {batch_size} exceeds {n_pairs} total pairs")
        perm = np.random.default_rng(np.random.SeedSequence(entropy=seed)).permutation(n_pairs)
        for i in range(n_pairs // batch_size):
            batches.append((MIXED_TAG, perm[i * batch_size:(i + 1) * batch_size]))

    return batches


@dataclass
class TrainConfig:
    learning_rate: float = 0.3
    momentum: float = 0.9
    queue_capacity: int = 0   # queue negatives are opt-in; see NegativeQueue


@dataclass
class StepRecord:
    style_tag: str
    loss: float


def train(
    model: AdapterModel,
    batches: list[tuple[str, np.ndarray]],
    texts: np.ndarray,
    videos: np.ndarray,
    config: TrainConfig,
) -> tuple[AdapterModel, list[StepRecord]]:
    """Run one pass over `batches` (from plan_epoch) with SGD; return the model and loss log.

    `texts`/`videos` are row-aligned with the batches' global pair indices.
    After each step the batch's projections are pushed into that tag's
    queue; a queue only ever serves batches with its own tag. The queues
    belong to this call, so each epoch of `train_epochs` starts with them
    empty.
    """
    texts = np.asarray(texts)
    videos = np.asarray(videos)
    n = texts.shape[0]
    if videos.shape[0] != n or any(idx.min() < 0 or idx.max() >= n for _, idx in batches):
        raise CountMismatch(f"a batch indexes past the {n} text / {videos.shape[0]} video rows")
    model = model.copy()
    queues: dict[str, NegativeQueue] = {}
    vel_t = np.zeros_like(model.text_head)
    vel_v = np.zeros_like(model.video_head)
    log_rows: list[StepRecord] = []
    workspace = LossWorkspace()

    for tag, indices in batches:
        # widening float32 rows to float64 is exact, so the batch bits do not depend on
        # the precision the arrays are held in
        batch_t = texts[indices].astype(np.float64)
        batch_v = videos[indices].astype(np.float64)
        queue = queues.get(tag)
        try:
            loss, grad_t, grad_v = info_nce_loss(model, batch_t, batch_v, queue,
                                                 workspace=workspace)
            vel_t = config.momentum * vel_t + grad_t
            vel_v = config.momentum * vel_v + grad_v
            model.text_head -= config.learning_rate * vel_t
            model.video_head -= config.learning_rate * vel_v
            model.check_finite()
        except NonFiniteLoss as exc:
            raise NonFiniteLoss(f"step {model.step_count}: {exc}") from exc
        model.step_count += 1
        if config.queue_capacity > 0:
            if queue is None:
                queue = queues[tag] = NegativeQueue(config.queue_capacity)
            x, y = batch_projections(model, batch_t, batch_v)
            queue.push(x, y)
        log_rows.append(StepRecord(style_tag=tag, loss=loss))
    return model, log_rows


def build_training_arrays(
    gen_sets: list[GeneratedPairSet],
    styled_sets: list[EmbeddingSet],
    clips: EmbeddingSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-align styled captions and their clips for the plan's index space.

    Both arrays keep the float32 of the embedding files; `train` widens
    each batch to float64. Global pair index offsets follow the set order,
    matching plan_epoch.
    Every pair's row must hold the styled caption of that pair's clip, and
    the pair's recorded similarity must be that caption's cosine with the
    clip's row in `clips`, so a pool other than the filter's is rejected.
    """
    if len(gen_sets) != len(styled_sets):
        raise CountMismatch("one styled set per generated-pair set required")
    total = sum(len(gen) for gen in gen_sets)
    texts = np.empty((total, clips.dim), dtype=np.float32)
    videos = np.empty((total, clips.dim), dtype=np.float32)
    lo = 0
    for gen, styled in zip(gen_sets, styled_sets):
        if len(gen) and (gen.rows.min() < 0 or gen.rows.max() >= styled.count):
            raise RangeOutOfBounds(
                f"style set {gen.style_tag!r}: a row lies outside 0..{styled.count - 1}")
        if not np.array_equal(styled.ids[gen.rows], gen.clip_ids):
            raise CountMismatch(
                f"style set {gen.style_tag!r}: a row holds another clip than its pair names")
        if styled.dim != clips.dim:
            raise DimMismatch(
                f"style set {gen.style_tag!r}: styled dim {styled.dim} vs pool dim {clips.dim}")
        hi = lo + len(gen)
        texts[lo:hi] = styled.data[gen.rows]
        videos[lo:hi] = clips.data[clips.row_for_id(gen.clip_ids)]
        sims = np.einsum("ij,ij->i", texts[lo:hi].astype(np.float64),
                         videos[lo:hi].astype(np.float64))
        drift = np.abs(sims - gen.sims)
        if len(gen) and drift.max() > SIM_TOLERANCE:
            raise CountMismatch(
                f"style set {gen.style_tag!r}: a pair's similarity differs from its "
                f"recorded value by {drift.max():.3g}; the pool is not the one it was "
                f"filtered against")
        lo = hi
    return texts, videos


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
    """Fresh plan per epoch; the loss log runs on across epochs.

    `texts`/`videos` must hold exactly the sets' pairs, as build_training_arrays lays them out.
    """
    if epochs < 1:
        raise ConfigInvalid("epochs must be at least 1")
    total = sum(len(s) for s in style_sets)
    if texts.shape[0] != total or videos.shape[0] != total:
        raise CountMismatch(f"style sets hold {total} pairs but arrays hold "
                            f"{texts.shape[0]}/{videos.shape[0]} rows")
    all_rows: list[StepRecord] = []
    for epoch in range(epochs):
        batches = plan_epoch(style_sets, batch_size, mode=mode, seed=_epoch_seed(seed, epoch))
        model, rows = train(model, batches, texts, videos, config)
        all_rows.extend(rows)
    return model, all_rows


def write_loss_log(rows: list[StepRecord], path: str | os.PathLike) -> None:
    with container.atomic_write(path, "w", encoding="utf-8") as f:
        f.write("step,style_tag,loss\n")
        for step, row in enumerate(rows):
            f.write(f"{step},{row.style_tag},{row.loss!r}\n")


# ---- persistence ----


_FIELDS = "IIdQ"   # proj_dim, dim, tau, step_count


def save_adapter(model: AdapterModel, path: str | os.PathLike) -> None:
    """Persist the adapter; head weights are stored as float32."""
    container.write_container(
        path, container.ADAPTER_CHUNK, _FIELDS,
        (model.proj_dim, model.dim, model.tau, model.step_count),
        [(model.text_head, "<f4"), (model.video_head, "<f4")])


def load_adapter(path: str | os.PathLike) -> AdapterModel:
    with container.read_container(path, container.ADAPTER_CHUNK, _FIELDS,
                                  "adapter") as (f, (proj_dim, dim, tau, step_count)):
        w_t = container.read_array(f, "<f4", proj_dim * dim, "text head")
        w_v = container.read_array(f, "<f4", proj_dim * dim, "video head")
    return AdapterModel(
        text_head=w_t.reshape(proj_dim, dim).astype(np.float64),
        video_head=w_v.reshape(proj_dim, dim).astype(np.float64),
        tau=tau,
        step_count=step_count,
    )
