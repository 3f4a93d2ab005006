"""Dual-encoder adapter training with a symmetric contrastive objective.

Two linear heads project frozen text/video embeddings; projections are
renormalized and contrasted with a temperature-scaled softmax in both
directions. Batches are scheduled either from a single style source per
step (in-style) or from the shuffled union of all sources (mixed), and an
optional FIFO queue per style contributes extra negative columns.

All loss and gradient math runs in float64 with fixed-order reductions,
so training is bit-deterministic for any worker count.
"""

import contextlib
import csv
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import container
from .embedcore import keyed_rng, read_blocks, read_rows, row_for_id
from .errors import (
    BatchTooLarge,
    ConfigInvalid,
    CorruptField,
    CountMismatch,
    EmptyStyleSet,
    NonFiniteLoss,
)
from .styler import GeneratedPairSet, check_pair_sims

DEFAULT_TAU = 0.05
MODE_IN_STYLE = "in_style"
MODE_MIXED = "mixed"
FLOAT32_MAX = float(np.finfo(np.float32).max)


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
        """Both heads must stay finite as float32, the dtype save_adapter stores."""
        for head in (self.text_head, self.video_head):
            if not (-FLOAT32_MAX <= head.min() and head.max() <= FLOAT32_MAX):   # NaN fails too
                raise NonFiniteLoss("adapter weights left float32's finite range")

    def copy(self) -> "AdapterModel":
        return replace(self, text_head=self.text_head.copy(), video_head=self.video_head.copy())


def init_adapter(dim: int, tau: float = DEFAULT_TAU) -> AdapterModel:
    """Fresh adapter; identity heads start training at the zero-shot baseline."""
    return AdapterModel(text_head=np.eye(dim), video_head=np.eye(dim), tau=tau)


class NegativeQueue:
    """FIFO of recent projected (text, video) embeddings for one style.

    Entries are unit-norm projections captured at enqueue time; they act
    as extra negative columns only and never receive gradients. A queue
    serves batches of one size: each direction keeps one column buffer laid
    out as [batch | queue, oldest first], and a loss step writes its batch
    projections into the top rows, so its columns are a view and no step
    concatenates.
    """

    def __init__(self, capacity: int, batch: int, proj_dim: int):
        if capacity < 0:
            raise ConfigInvalid("queue capacity must be non-negative")
        self.capacity = capacity
        self.batch = batch
        self._len = 0
        self._texts = np.empty((batch + capacity, proj_dim))
        self._videos = np.empty((batch + capacity, proj_dim))

    def __len__(self) -> int:
        return self._len

    def columns(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[x | text queue] and [y | video queue], oldest entry first, as buffer views."""
        b = x.shape[0]
        if b != self.batch:
            raise CountMismatch(f"a queue laid out for batches of {self.batch} got {b} rows")
        self._texts[:b] = x
        self._videos[:b] = y
        return self._texts[:b + self._len], self._videos[:b + self._len]

    def push(self, text_proj: np.ndarray, video_proj: np.ndarray) -> None:
        new = min(text_proj.shape[0], self.capacity)
        keep = min(self._len, self.capacity - new)
        drop = self._len - keep
        lo, dim = self.batch, self._texts.shape[1]
        for buf, rows in ((self._texts, text_proj), (self._videos, video_proj)):
            if drop:
                # shift the kept entries up over the dropped ones; a 1-D overlapping
                # copy runs in place, where a 2-D one would copy through a temporary
                flat = buf.reshape(-1)
                flat[lo * dim:(lo + keep) * dim] = flat[(lo + drop) * dim:(lo + self._len) * dim]
            buf[lo + keep:lo + keep + new] = rows[rows.shape[0] - new:]
        self._len = keep + new


def project(head: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm float64 projections of `rows` through `head`, and their raw norms."""
    raw = np.asarray(rows, dtype=np.float64) @ head.T
    norms = np.linalg.norm(raw, axis=1)
    if (norms == 0.0).any() or not np.isfinite(norms).all():
        raise NonFiniteLoss("a projection collapsed to zero or overflowed")
    return raw / norms[:, None], norms


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

    The directions hold one (B, C) matrix at a time, C = B + queue length:
    E = exp(l - rowmax) of a direction's logits l = (rows / tau) @ cols.T,
    with row sums z; row i's loss term is log z_i - (l_ii - max_i). With
    a = 1 / (2 B tau) and s = 1 / z, the gradients with respect to the
    unit projections x (texts) and y (videos) scale only (B, p) rows:

        d_x = a [(E_tv @ cols_v) s_tv + E_vt[:, :B].T @ (y s_vt) - 2 y]
        d_y = a [(E_vt @ cols_t) s_vt + E_tv[:, :B].T @ (x s_tv) - 2 x]

    so a direction's E is read only by its own two products, and it is
    dropped before the other direction's is made.
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
    cols_t, cols_v = queue.columns(x, y) if queue is not None else (x, y)

    log_diag = []
    full, cross = [], []   # (E @ cols) s, and E[:, :B].T @ (rows s) for the other side
    for rows, cols in ((x, cols_v), (y, cols_t)):
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow makes the loss NaN
            e = (rows / tau) @ cols.T
            e -= e.max(axis=1, keepdims=True)
        shifted_diag = e.diagonal().copy()   # l_ii - max_i, read before exp overwrites e
        np.exp(e, out=e)
        z = e.sum(axis=1)
        log_diag.append((shifted_diag - np.log(z)).sum())
        if not np.isfinite(log_diag[-1]):   # before a product reads a non-finite E
            raise NonFiniteLoss("contrastive loss is non-finite")
        s = 1.0 / z
        full.append((e @ cols) * s[:, None])
        cross.append(e[:, :b].T @ (rows * s[:, None]))
        del e   # freed before the other direction's E is made
    # + 0.0 canonicalizes the -0.0 that the B=1 case would otherwise produce
    loss = float(-(log_diag[0] + log_diag[1]) / (2.0 * b) + 0.0)
    if not np.isfinite(loss):
        raise NonFiniteLoss("contrastive loss is non-finite")

    a = 1.0 / (2.0 * b * tau)
    d_x = a * (full[0] + cross[1] - 2.0 * y)
    d_y = a * (full[1] + cross[0] - 2.0 * x)

    # back through the renormalization x = u / ||u||
    d_u = (d_x - (d_x * x).sum(axis=1, keepdims=True) * x) / x_norms[:, None]
    d_w = (d_y - (d_y * y).sum(axis=1, keepdims=True) * y) / y_norms[:, None]

    grad_text = d_u.T @ texts
    grad_video = d_w.T @ videos
    return loss, grad_text, grad_video


def batch_projections(model: AdapterModel, batch_texts, batch_videos):
    """Unit-norm projections of a batch, e.g. for queue updates."""
    return project(model.text_head, batch_texts)[0], project(model.video_head, batch_videos)[0]


def _kept(gen: GeneratedPairSet) -> str:
    return (f"the filter kept {len(gen)} of its {gen.total_candidates} candidates at "
            f"threshold {gen.threshold:g}")


def plan_epoch(
    style_sets: list[GeneratedPairSet],
    batch_size: int,
    mode: str = MODE_IN_STYLE,
    seed: int = 0,
) -> list[tuple[str, np.ndarray]]:
    """One epoch's minibatches as (style tag, global pair indices), in order.

    Set s owns the indices [offsets[s], offsets[s] + len(set s)) of the
    concatenation of the style sets; build_training_arrays gathers each
    batch's rows from the same index space.
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
        raise ConfigInvalid(f"style tags must be distinct, got {tags}")
    for gen in style_sets:
        if len(gen) == 0:
            raise EmptyStyleSet(f"style set {gen.style_tag!r} is empty: {_kept(gen)}")

    offsets = [sum(sizes[:s]) for s in range(len(sizes))]
    batches: list[tuple[str, np.ndarray]] = []
    if mode == MODE_IN_STYLE:
        if batch_size > min(sizes):
            smallest = style_sets[sizes.index(min(sizes))]
            raise BatchTooLarge(f"batch_size {batch_size} exceeds the smallest set, style set "
                                f"{smallest.style_tag!r}: {_kept(smallest)}")
        per_set: list[list[np.ndarray]] = []
        for s, size in enumerate(sizes):
            perm = keyed_rng(seed, s).permutation(size) + offsets[s]
            n_batches = size // batch_size
            per_set.append([
                perm[i * batch_size:(i + 1) * batch_size] for i in range(n_batches)
            ])
        counts = [len(b) for b in per_set]
        total = sum(counts)
        credit = [0] * len(sizes)
        batch_iters = [iter(b) for b in per_set]
        # smooth weighted round-robin: over `total` rounds set s wins exactly counts[s] times
        for _ in range(total):
            credit = [c + n for c, n in zip(credit, counts)]
            best = max(range(len(sizes)), key=lambda s: (credit[s], -s))
            credit[best] -= total
            batches.append((tags[best], next(batch_iters[best])))
    else:
        n_pairs = sum(sizes)
        if batch_size > n_pairs:
            raise BatchTooLarge(f"batch_size {batch_size} exceeds {n_pairs} total pairs")
        perm = keyed_rng(seed).permutation(n_pairs)
        for i in range(n_pairs // batch_size):
            batches.append((MODE_MIXED, perm[i * batch_size:(i + 1) * batch_size]))

    return batches


@dataclass
class TrainConfig:
    batch_size: int = 128
    learning_rate: float = 0.3
    momentum: float = 0.9
    epochs: int = 3
    tau: float = DEFAULT_TAU
    queue_capacity: int = 0   # opt-in: stale queue negatives (no momentum encoder) cost recall


@dataclass
class StepRecord:
    style_tag: str
    loss: float


def train(
    model: AdapterModel,
    batches: Iterable[tuple[str, np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> tuple[AdapterModel, list[StepRecord]]:
    """One SGD pass over `batches` of (style tag, texts, videos); return the model and loss log.

    After each step the batch's projections are pushed into that tag's
    queue; a queue only ever serves batches with its own tag, and is laid
    out for the batch size of the tag's first step, as plan_epoch cuts every
    batch to one size. The queues belong to this call, so each epoch of
    `train_epochs` starts with them empty.
    """
    model = model.copy()
    queues: dict[str, NegativeQueue] = {}
    vel_t = np.zeros_like(model.text_head)
    vel_v = np.zeros_like(model.video_head)
    log_rows: list[StepRecord] = []

    for tag, batch_t, batch_v in batches:
        queue = queues.get(tag)
        try:
            loss, grad_t, grad_v = info_nce_loss(model, batch_t, batch_v, queue)
            vel_t = config.momentum * vel_t + grad_t
            vel_v = config.momentum * vel_v + grad_v
            model.text_head -= config.learning_rate * vel_t
            model.video_head -= config.learning_rate * vel_v
            model.check_finite()
        except NonFiniteLoss as exc:
            raise NonFiniteLoss(f"step {model.step_count}: {exc}") from exc
        model.step_count += 1
        if config.queue_capacity > 0:
            x, y = batch_projections(model, batch_t, batch_v)
            if queue is None:
                queue = queues[tag] = NegativeQueue(config.queue_capacity, len(x), x.shape[1])
            queue.push(x, y)
        log_rows.append(StepRecord(style_tag=tag, loss=loss))
    return model, log_rows


def build_training_arrays(
    gen_sets: list[GeneratedPairSet],
    styled_paths: list[str | os.PathLike],
    pool_path: str | os.PathLike,
) -> tuple[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], int]:
    """Read the rows the pairs use into two float32 arrays; return the gather of a batch's rows
    and the rows' dim, which the pool file sets.

    Pair p of the concatenated sets, laid out as in plan_epoch, owns row p
    of the texts: its row of its style's set, read back from the file at
    `styled_paths`. The clips array holds each pool clip some pair names,
    once, read from the pool file at `pool_path`, and a per-pair index points
    pair p at its clip's row. Every file is read one row block at a time
    (embedcore.read_rows), so the reads hold the used rows and one block,
    never a whole set. Every pair's row must hold the styled caption of that
    pair's clip, and the pair's recorded similarity must be that caption's
    cosine with the clip's pool row, so a pool other than the filter's is
    rejected; each error names the file. The gather maps global pair indices
    to the batch's float64 (texts, videos), one fancy index per side;
    widening float32 is exact, so a batch holds the files' bits.
    """
    if not gen_sets or len(gen_sets) != len(styled_paths):
        raise CountMismatch("one styled set per generated-pair set, and at least one, required")
    with contextlib.closing(read_blocks(pool_path)) as pool_head:
        pool_ids, dim, _ = next(pool_head)
    # each index temporary is dropped once used, so none sits beside the row arrays
    pair_clips = np.concatenate([gen.clip_ids for gen in gen_sets])
    ordered = np.sort(pair_clips)   # not np.unique, which imports numpy.ma
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    used = ordered[first]
    del ordered, first
    clip_rows = np.searchsorted(used, pair_clips)
    del pair_clips
    pool_rows = row_for_id(pool_ids, used, os.fspath(pool_path))
    del pool_ids, used
    clips = np.empty((len(pool_rows), dim), dtype=np.float32)
    read_rows(pool_path, pool_rows, clips)
    del pool_rows
    texts = np.empty((len(clip_rows), dim), dtype=np.float32)
    lo = 0
    for gen, path in zip(gen_sets, styled_paths):
        hi = lo + len(gen)
        what = f"{os.fspath(path)}: style set {gen.style_tag!r}"
        ids = read_rows(path, gen.rows, texts[lo:hi])
        if not np.array_equal(ids[gen.rows], gen.clip_ids):
            raise CountMismatch(f"{what}: a row holds another clip than its pair names")
        check_pair_sims(texts[lo:hi], np.arange(len(gen)), clips, clip_rows[lo:hi], gen.sims,
                        what)
        lo = hi

    def rows(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (texts[indices].astype(np.float64),
                clips[clip_rows[indices]].astype(np.float64))

    return rows, dim


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)).generate_state(1)[0])


def train_epochs(
    model: AdapterModel,
    style_sets: list[GeneratedPairSet],
    rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    mode: str,
    config: TrainConfig,
    seed: int,
) -> tuple[AdapterModel, list[StepRecord]]:
    """A fresh plan for each of `config.epochs` epochs; the loss log runs on across them.

    `rows` maps a batch's global pair indices to its (texts, videos), as the
    gather build_training_arrays returns; each batch is gathered as it is trained.
    A queue empties every epoch, so its capacity is capped at the pairs.
    """
    if config.epochs < 1:
        raise ConfigInvalid("epochs must be at least 1")
    config = replace(config, queue_capacity=min(config.queue_capacity,
                                                sum(len(s) for s in style_sets)))
    all_rows: list[StepRecord] = []
    for epoch in range(config.epochs):
        batches = plan_epoch(style_sets, config.batch_size, mode=mode,
                             seed=_epoch_seed(seed, epoch))
        model, epoch_rows = train(model, ((tag, *rows(idx)) for tag, idx in batches), config)
        all_rows.extend(epoch_rows)
    return model, all_rows


def write_loss_log(rows: list[StepRecord], path: str | os.PathLike) -> None:
    with container.atomic_write(path, "w", encoding="utf-8", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(("step", "style_tag", "loss"))
        out.writerows((step, row.style_tag, repr(row.loss)) for step, row in enumerate(rows))


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
        if proj_dim == 0 or dim == 0:
            raise CorruptField(f"heads of shape ({proj_dim}, {dim}) hold no weight")
        w_t = container.read_array(f, "<f4", proj_dim * dim, "text head")
        w_v = container.read_array(f, "<f4", proj_dim * dim, "video head")
        if not 0.0 < tau < np.inf:
            raise CorruptField(f"tau {tau} must be positive and finite")
        if not (np.isfinite(w_t).all() and np.isfinite(w_v).all()):
            raise CorruptField("a head weight is not finite")
        return AdapterModel(
            text_head=w_t.reshape(proj_dim, dim).astype(np.float64),
            video_head=w_v.reshape(proj_dim, dim).astype(np.float64),
            tau=tau,
            step_count=step_count,
        )
