"""Caption-style surrogate: a ridge-regularized affine map in embedding space.

fit_style learns (W, b) from pseudo pairs so that W @ clip + b lands near
the matched query embedding. generate_styled_sets maps the whole pool
through every style in one pass (plus seeded Gaussian jitter, drawn once
per clip) straight into the styles' files, and filter_pairs keeps only
rows whose styled caption stays similar enough to its own clip in the
fixed judge space, streaming the styled file and the pool file block by
block.
"""

import contextlib
import logging
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import container
from .embedcore import (BLOCK_ROWS, EmbeddingSet, aligned_dots, embedding_rows_writer, for_each,
                        load_embeddings, read_blocks, row_blocks, unit_block)
from .errors import (ConfigInvalid, CorruptField, CountMismatch, DimMismatch, DuplicateId,
                     NotNormalized, SingularSystem)
from .matcher import PseudoPairSet, has_repeat

log = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.28
DEFAULT_RIDGE_LAMBDA = 1e-2
DEFAULT_NOISE_SIGMA = 0.05
SIM_TOLERANCE = 1e-9   # recorded vs recomputed pair similarity (check_pair_sims)
HEADER_FIELDS = {"threshold": float, "style_tag": str, "total_candidates": int}   # pair files
RECORD_FIELDS = {"clip_id": int, "row": int, "sim": float}


@dataclass
class StyleTransform:
    """Affine map from clip-embedding space into styled-caption space."""

    weight: np.ndarray   # (dim_out, dim_in) float64
    bias: np.ndarray     # (dim_out,) float64
    ridge_lambda: float
    noise_sigma: float
    style_tag: str = ""

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (dim_out, dim_in) with matching bias")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("style transform has non-finite entries")
        if not all(0.0 <= v < np.inf for v in (self.ridge_lambda, self.noise_sigma)):
            raise ValueError("ridge_lambda and noise_sigma must be finite and non-negative")

    @property
    def dim_in(self) -> int:
        return self.weight.shape[1]

    @property
    def dim_out(self) -> int:
        return self.weight.shape[0]


@dataclass
class GeneratedPairSet:
    """Clip/styled-caption pairs that survived threshold filtering.

    `rows` are row indices into the styled set the filter ran on;
    retention statistics keep the pre-filter candidate count around.
    """

    clip_ids: np.ndarray
    rows: np.ndarray
    sims: np.ndarray
    threshold: float
    style_tag: str = ""
    total_candidates: int = 0

    def __post_init__(self):
        self.clip_ids = np.asarray(self.clip_ids, dtype=np.int64)
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.sims = np.asarray(self.sims, dtype=np.float64)
        if not (len(self.clip_ids) == len(self.rows) == len(self.sims)):
            raise ValueError("pair columns must have equal length")
        if len(self.sims) and self.sims.min() <= self.threshold:
            raise CorruptField(f"retained sim {self.sims.min()!r} <= threshold {self.threshold!r}")
        if has_repeat(self.rows):
            raise DuplicateId("a styled row appears in more than one pair")

    def __len__(self) -> int:
        return len(self.clip_ids)

    @property
    def retention_rate(self) -> float:
        return len(self) / self.total_candidates if self.total_candidates else 0.0


@dataclass
class RetentionRow:
    threshold: float
    kept: int
    rate: float


def check_pair_sims(texts: np.ndarray, text_rows: np.ndarray, clips: np.ndarray,
                    clip_rows: np.ndarray, sims: np.ndarray, what: str) -> None:
    """Each recorded sim must be the cosine of its row of `texts` with its row of `clips`,
    both float32 row arrays.

    Texts of another dim than the clips are a DimMismatch. A sim further than
    SIM_TOLERANCE from its recomputed cosine is a CountMismatch: `clips` is
    not the pool the pairs were made against. `what` names the pairs.
    """
    if texts.shape[1] != clips.shape[1]:
        raise DimMismatch(f"{what}: text dim {texts.shape[1]} vs pool dim {clips.shape[1]}")
    for lo, hi in row_blocks(len(sims)):
        recomputed = aligned_dots(texts[text_rows[lo:hi]], clips[clip_rows[lo:hi]])
        drift = np.abs(recomputed - sims[lo:hi]).max()
        if drift > SIM_TOLERANCE:
            raise CountMismatch(f"{what}: a pair's similarity differs from its recorded value "
                                f"by {drift:.3g}; the pool is not the one the pairs were made "
                                f"against")


def fit_style(
    pseudo: PseudoPairSet,
    queries: EmbeddingSet,
    clips: EmbeddingSet,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    style_tag: str = "",
) -> StyleTransform:
    """Solve min_W,b sum ||W v + b - t||^2 + lambda ||W||_F^2 over pseudo pairs.

    Normal equations in float64; the bias column is never penalized. With
    lambda = 0 a rank-deficient system raises SingularSystem.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be non-negative")
    if len(pseudo) == 0:
        raise SingularSystem("cannot fit a style transform on zero pairs")
    t_rows = queries.data[queries.row_for_id(pseudo.query_ids)].astype(np.float64)
    v_rows = clips.data[clips.row_for_id(pseudo.clip_ids)].astype(np.float64)
    n, dim_in = v_rows.shape
    dim_out = t_rows.shape[1]
    x = np.concatenate([v_rows, np.ones((n, 1))], axis=1)
    gram = x.T @ x
    penalty = np.eye(dim_in + 1)
    penalty[-1, -1] = 0.0  # bias stays unpenalized
    lhs = gram + ridge_lambda * penalty
    rhs = x.T @ t_rows
    if ridge_lambda == 0.0:
        # solve() tolerates mildly ill-conditioned systems; reject them explicitly
        if np.linalg.matrix_rank(lhs) < dim_in + 1:
            raise SingularSystem("lambda=0 with a rank-deficient normal system")
    try:
        theta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc

    weight = theta[:dim_in].T
    bias = theta[dim_in]
    residual = float(np.mean(np.sum((x @ theta - t_rows) ** 2, axis=1)))
    log.info("stage=fit_style tag=%s pairs=%d lambda=%g residual=%g",
             style_tag, n, ridge_lambda, residual)
    return StyleTransform(
        weight=weight,
        bias=bias,
        ridge_lambda=float(ridge_lambda),
        noise_sigma=float(noise_sigma),
        style_tag=style_tag,
    )


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, NEP 19)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init, mult):
    """numpy's hashmix: each call xors in one constant of the chain and multiplies by the next."""
    const = np.uint32(init)

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * np.uint32(mult)
        value = value * const
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> np.uint32(16))


def _spawned_seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for rows i in [lo, hi).

    The SeedSequence hash runs once for the whole block on uint32 arrays
    (its wraparound is the hash, so overflow warnings are off); returns the
    (hi - lo, 4) words.
    """
    if seed < 0:
        raise ValueError(f"seed {seed} must be non-negative")
    if hi > 2**32:
        raise ValueError(f"row {hi - 1} needs a spawn key wider than one 32-bit word")
    words = [np.uint32(seed >> s & 0xFFFFFFFF) for s in range(0, max(seed.bit_length(), 1), 32)]
    # a spawned sequence pads its seed words to the 4-word pool, then appends the spawn key
    entropy = words + [np.uint32(0)] * (4 - len(words))
    entropy.append(np.arange(lo, hi, dtype=np.int64).astype(np.uint32))
    with np.errstate(over="ignore"):
        hashmix = _hash_chain(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        output = _hash_chain(_INIT_B, _MULT_B)
        state_words = np.stack([output(pool[k % 4]) for k in range(8)], axis=1)
    return state_words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is one row of _spawned_seed_words: the four words
    PCG64's constructor asks for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generate_styled_sets(clips: EmbeddingSet, styles: list[StyleTransform], seed: int,
                         paths: list, workers: int = 1) -> None:
    """Write one styled caption set per style, normalize(W v + b + noise) for each clip v,
    to the embedding file at the style's path.

    Noise for row i comes from the PCG64 generator that spawn (i,) of the
    seed would seed, so any row partition reproduces the row-by-row output
    bit for bit; each row's generator is seeded through _SeedWords with its
    words of _spawned_seed_words. It does not depend on the style: each row
    block's seed words are derived and its noise drawn once, and then every
    style maps, jitters and normalizes the block. The row blocks run through
    embedcore.for_each on `workers` workers. Each worker normalizes a block
    into one block's float32 buffer and writes it straight into each style's
    temp file (container.atomic_write), at the block's offset
    (embedcore.embedding_rows_writer), so a forked worker sends nothing back
    and no set is held whole in memory. Styles must share dim_in (the pool's)
    and dim_out (DimMismatch) and noise_sigma (ConfigInvalid). A zero styled
    caption is a ZeroVectorRow naming its clip; the first failing block in
    row order is the one reported, and any failure leaves no styled file.
    """
    if len(paths) != len(styles):
        raise ValueError("give one styled-set path per style")
    if not styles:
        return
    dim_out, sigma = styles[0].dim_out, styles[0].noise_sigma
    for style in styles:
        if style.dim_in != clips.dim or style.dim_out != dim_out:
            raise DimMismatch(f"style {style.style_tag!r} maps {style.dim_in} -> {style.dim_out}; "
                              f"clips have dim {clips.dim}, style 0 maps to {dim_out}")
        if style.noise_sigma != sigma:
            raise ConfigInvalid(f"styles mix noise_sigma {sigma} and {style.noise_sigma}")
    noise = np.empty((min(clips.count, BLOCK_ROWS), dim_out))   # one per worker, after the fork
    unit = np.empty(noise.shape, dtype=np.float32)

    def stylize_block(bounds):
        lo, hi = bounds
        block = clips.data[lo:hi].astype(np.float64)
        jitter, out = noise[:hi - lo], unit[:hi - lo]
        if sigma > 0.0:
            for row, words in zip(jitter, _spawned_seed_words(seed, lo, hi)):
                np.random.Generator(np.random.PCG64(_SeedWords(words))).standard_normal(out=row)
            with np.errstate(over="ignore"):   # unit_block reports an overflowed row
                jitter *= sigma
        for style, write in zip(styles, writes):
            rows = block @ style.weight.T + style.bias
            if sigma > 0.0:
                rows += jitter
            unit_block(clips.ids[lo:hi], rows, out)
            write(lo, out)

    with contextlib.ExitStack() as stack:
        writes = [embedding_rows_writer(stack.enter_context(container.atomic_write(path)),
                                        clips.ids, dim_out) for path in paths]
        for_each(row_blocks(clips.count), stylize_block, workers)


def generate_styled(clips: EmbeddingSet, style: StyleTransform, seed: int) -> EmbeddingSet:
    """generate_styled_sets for one style, read back from a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "styled.iemb")
        generate_styled_sets(clips, [style], seed, [path])
        return load_embeddings(path)


def _aligned_sims(styled_path: str | os.PathLike,
                  pool_path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """The pool's ids, and the cosine of each styled row with its own clip's row.

    Both files are read to their ends, one checked block of row_blocks at a
    time (read_blocks), so no whole set is held; every error names its file.
    """
    with contextlib.closing(read_blocks(styled_path)) as styled, \
            contextlib.closing(read_blocks(pool_path)) as clips:
        ids, dim, normalized = next(styled)
        clip_ids, clip_dim, clips_normalized = next(clips)
        if not np.array_equal(ids, clip_ids):
            raise CountMismatch(f"{styled_path}: its {len(ids)} styled rows were not made from "
                                f"the {len(clip_ids)} clips of {pool_path}: their ids differ")
        if dim != clip_dim:
            raise DimMismatch(f"{styled_path}: dim {dim}, but the clips of {pool_path} have "
                              f"dim {clip_dim}")
        for path, flagged in ((styled_path, normalized), (pool_path, clips_normalized)):
            if not flagged:
                raise NotNormalized(f"{path}: filtering requires normalized sets")
        sims = np.empty(len(ids))
        for (lo, hi), texts, videos in zip(row_blocks(len(ids)), styled, clips, strict=True):
            sims[lo:hi] = aligned_dots(texts, videos)
    return clip_ids, sims


def _median(values: np.ndarray) -> float:
    """The median of `values`, NaN if there are none; not np.median, which imports numpy.ma."""
    n = len(values)
    if n == 0:
        return float("nan")
    middle = np.partition(values, [(n - 1) // 2, n // 2])
    return float((middle[(n - 1) // 2] + middle[n // 2]) / 2)


def filter_pairs(styled_path: str | os.PathLike, pool_path: str | os.PathLike,
                 th: float) -> GeneratedPairSet:
    """Keep row i of the styled set saved at `styled_path` only when its cosine with row i of
    the pool saved at `pool_path` is strictly above th."""
    clip_ids, sims = _aligned_sims(styled_path, pool_path)
    keep = np.flatnonzero(sims > th)
    result = GeneratedPairSet(
        clip_ids=clip_ids[keep],
        rows=keep,
        sims=sims[keep],
        threshold=float(th),
        total_candidates=len(sims),
    )
    log.info("stage=filter threshold=%g kept=%d total=%d rate=%.4f median_sim=%.4f",
             th, len(result), len(sims), result.retention_rate, _median(sims))
    return result


def threshold_sweep(
    styled_path: str | os.PathLike,
    pool_path: str | os.PathLike,
    thresholds: list[float],
) -> list[RetentionRow]:
    """Retention count per threshold of the files filter_pairs reads; thresholds must come
    sorted ascending."""
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    _, sims = _aligned_sims(styled_path, pool_path)
    total = len(sims)
    rows = []
    for th in thresholds:
        kept = int((sims > th).sum())
        rows.append(RetentionRow(threshold=float(th), kept=kept,
                                 rate=kept / total if total else 0.0))
    return rows


# ---- persistence ----


_FIELDS = "IIddI"   # dim_out, dim_in, ridge_lambda, noise_sigma, style tag length


def save_style(style: StyleTransform, path: str | os.PathLike) -> None:
    tag = np.frombuffer(style.style_tag.encode("utf-8"), dtype=np.uint8)
    container.write_container(
        path, container.STYLE_CHUNK, _FIELDS,
        (style.dim_out, style.dim_in, style.ridge_lambda, style.noise_sigma, len(tag)),
        [(tag, "u1"), (style.weight, "<f8"), (style.bias, "<f8")])


def load_style(path: str | os.PathLike) -> StyleTransform:
    with container.read_container(path, container.STYLE_CHUNK, _FIELDS, "style") as (f, fields):
        dim_out, dim_in, ridge_lambda, noise_sigma, tag_len = fields
        try:
            tag = container.read_exact(f, tag_len, "style_tag").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptField(f"style tag is not UTF-8 ({exc})") from exc
        weight = container.read_array(f, "<f8", dim_out * dim_in, "weight")
        bias = container.read_array(f, "<f8", dim_out, "bias")
        return StyleTransform(weight=weight.reshape(dim_out, dim_in), bias=bias,
                              ridge_lambda=ridge_lambda, noise_sigma=noise_sigma, style_tag=tag)


def write_generated_pairs(pairs: GeneratedPairSet, path: str | os.PathLike) -> None:
    header = {"kind": "generated_pairs", "threshold": pairs.threshold,
              "style_tag": pairs.style_tag, "total_candidates": pairs.total_candidates}
    container.write_records(path, header, {
        "clip_id": pairs.clip_ids, "row": pairs.rows, "sim": pairs.sims})


def read_generated_pairs(path: str | os.PathLike) -> GeneratedPairSet:
    with container.read_records(path, "generated_pairs", RECORD_FIELDS,
                                HEADER_FIELDS) as (header, cols):
        return GeneratedPairSet(clip_ids=cols["clip_id"], rows=cols["row"], sims=cols["sim"],
                                threshold=header["threshold"], style_tag=header["style_tag"],
                                total_candidates=header["total_candidates"])
