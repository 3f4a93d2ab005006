"""Caption-style surrogate: a ridge-regularized affine map in embedding space.

fit_style learns (W, b) from pseudo pairs so that W @ clip + b lands near
the matched query embedding. generate_styled_sets maps the whole pool
through every style in one pass (plus seeded Gaussian jitter, drawn once
per clip) straight into the styles' files, and filter_pairs keeps only
rows whose styled caption stays similar enough to its own clip in the
fixed judge space.
"""

import contextlib
import ctypes
import functools
import logging
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import container
from .embedcore import (BLOCK_ROWS, EmbeddingSet, aligned_dots, embedding_rows_writer, for_each,
                        load_embeddings, row_blocks, unit_block)
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

    `rows` are row indices into the styled EmbeddingSet the filter ran on;
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
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's 128-bit LCG multiplier
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_LOW32 = np.uint64(0xFFFFFFFF)


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


def _mul_128(a, b):
    """(high, low) uint64 words of the 128-bit products a * b, built from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _pcg64_seeded(seed_words: np.ndarray) -> np.ndarray:
    """PCG64's seeding step (pcg_setseq_128_srandom_r) on uint64 rows (s_hi, s_lo, i_hi, i_lo).

    inc = 2 i + 1 and state = ((s + inc) * MULT + inc) mod 2**128, worked
    in 64-bit limbs whose wraparound is the modulus. Returns rows (state_lo,
    state_hi, inc_lo, inc_hi): numpy's pcg64 struct on a little-endian host.
    """
    s_hi, s_lo, i_hi, i_lo = seed_words.T
    with np.errstate(over="ignore"):
        inc_lo, inc_hi = i_lo << 1 | 1, i_hi << 1 | i_lo >> 63
        t_lo = s_lo + inc_lo
        t_hi = s_hi + inc_hi + (t_lo < s_lo)
        p_hi, p_lo = _mul_128(t_lo, _PCG_MULT_LO)
        p_hi += t_lo * _PCG_MULT_HI + t_hi * _PCG_MULT_LO
        state_lo = p_lo + inc_lo
        state_hi = p_hi + inc_hi + (state_lo < p_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _spawned_pcg64_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """State words of PCG64(SeedSequence(seed, spawn_key=(i,))) for rows i in [lo, hi).

    The SeedSequence hash runs once for the whole block on uint32 arrays
    (its wraparound is the hash, so overflow warnings are off), and so does
    PCG64's seeding step (_pcg64_seeded), whose (hi - lo, 4) words it returns.
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
        output = _hash_chain(_INIT_B, _MULT_B)   # generate_state(4, np.uint64)
        state_words = np.stack([output(pool[k % 4]) for k in range(8)], axis=1)
    return _pcg64_seeded(state_words.astype("<u4").view("<u8").astype(np.uint64))


def _pcg64_state(words) -> dict:
    """The bit_generator.state dict of one row of _spawned_pcg64_states."""
    state_lo, state_hi, inc_lo, inc_hi = (int(w) for w in words)
    return {"bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}


def _raw_words(bit_generator: np.random.PCG64) -> np.ndarray:
    """The four uint64 words of `bit_generator`'s {state, inc}, as a writable view.

    ctypes.state_address points at numpy's pcg64_state, whose first field
    points at the 32 bytes of the two 128-bit words.
    """
    words_at = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(words_at))


@functools.cache
def raw_pcg64_states() -> bool:
    """Whether state words written raw read back through PCG64.state as the same state.

    Not where numpy's struct has another layout (no 128-bit integer type)
    or the host is big-endian; stylize then loads the words as dicts.
    """
    probe = np.array([0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6979,
                      0x8796A5B4C3D2E1F0], dtype=np.uint64)
    bit_generator = np.random.PCG64(0)
    np.copyto(_raw_words(bit_generator), probe)
    return bit_generator.state == _pcg64_state(probe)


def _state_loader(bit_generator: np.random.PCG64):
    """load(words): set `bit_generator` to one row of _spawned_pcg64_states."""
    if raw_pcg64_states():
        return functools.partial(np.copyto, _raw_words(bit_generator))

    def load(words):
        bit_generator.state = _pcg64_state(words)
    return load


def generate_styled_sets(clips: EmbeddingSet, styles: list[StyleTransform], seed: int,
                         paths: list, workers: int = 1) -> None:
    """Write one styled caption set per style, normalize(W v + b + noise) for each clip v,
    to the embedding file at the style's path.

    Noise for row i comes from the PCG64 generator that spawn (i,) of the
    seed would seed, so any row partition reproduces the row-by-row output
    bit for bit; each row's state words are loaded into one reused
    generator (_state_loader). It does not depend on the style: each row
    block's states are derived and its noise drawn once, and then every
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
    rng = np.random.Generator(np.random.PCG64(0))
    load = _state_loader(rng.bit_generator)

    def stylize_block(bounds):
        lo, hi = bounds
        block = clips.data[lo:hi].astype(np.float64)
        jitter, out = noise[:hi - lo], unit[:hi - lo]
        if sigma > 0.0:
            for row, words in zip(jitter, _spawned_pcg64_states(seed, lo, hi)):
                load(words)
                rng.standard_normal(out=row)
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


def _aligned_sims(styled: EmbeddingSet, clips: EmbeddingSet) -> np.ndarray:
    if not np.array_equal(styled.ids, clips.ids):
        raise CountMismatch(f"the {styled.count} styled rows were not made from these "
                            f"{clips.count} clips: their ids differ")
    if styled.dim != clips.dim:
        raise DimMismatch(f"dims differ: {styled.dim} vs {clips.dim}")
    if not styled.normalized or not clips.normalized:
        raise NotNormalized("filtering requires normalized sets")
    return aligned_dots(styled.data, clips.data)


def filter_pairs(styled: EmbeddingSet, clips: EmbeddingSet, th: float) -> GeneratedPairSet:
    """Keep row i only when cos(styled_i, clip_i) is strictly above th."""
    sims = _aligned_sims(styled, clips)
    keep = np.flatnonzero(sims > th)
    result = GeneratedPairSet(
        clip_ids=clips.ids[keep],
        rows=keep,
        sims=sims[keep],
        threshold=float(th),
        total_candidates=styled.count,
    )
    log.info("stage=filter threshold=%g kept=%d total=%d rate=%.4f",
             th, len(result), styled.count, result.retention_rate)
    return result


def threshold_sweep(
    styled: EmbeddingSet,
    clips: EmbeddingSet,
    thresholds: list[float],
) -> list[RetentionRow]:
    """Retention count per threshold; thresholds must come sorted ascending."""
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    sims = _aligned_sims(styled, clips)
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
