"""Embedding sets, the similarity product, and the worker pool.

An EmbeddingSet is an immutable id-keyed matrix of float32 row vectors.
All similarity math takes float32 inputs and accumulates in float64, and
matrix products are always evaluated over the same fixed row partition, so
a block streamed on its own carries the same bits as the full product.
"""

import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import DuplicateId, NonFiniteValue, NotNormalized, ZeroVectorRow

NORM_FLAG_TOL = 1e-4   # how far a "normalized" row may drift from unit norm
_FLAG_NORMALIZED = 1
_CHUNK_ROWS = 512      # fixed partition for similarity products


@dataclass(frozen=True)
class EmbeddingSet:
    """Dense matrix of embeddings with stable integer ids.

    ids must be unique, non-negative and ascending; data is float32 with
    one row per id. Rows are made read-only so a set can be shared across
    workers without copies.
    """

    ids: np.ndarray
    data: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if ids.ndim != 1 or len(ids) != data.shape[0]:
            raise ValueError("ids must be 1-D with one entry per data row")
        if len(ids) and ids.min() < 0:
            raise ValueError("ids must be non-negative")
        if len(ids) > 1:
            diffs = np.diff(ids)
            if (diffs == 0).any():
                dup = int(ids[1:][diffs == 0][0])
                raise DuplicateId(f"id {dup} appears more than once")
            if (diffs < 0).any():
                raise ValueError("ids must be sorted ascending")
        if not np.isfinite(data).all():
            raise NonFiniteValue("embedding matrix contains non-finite entries")
        if self.normalized and len(ids):
            norms = np.linalg.norm(data.astype(np.float64), axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if worst > NORM_FLAG_TOL:
                raise NotNormalized(
                    f"normalized flag set but a row norm deviates by {worst:.2e}"
                )
        ids.setflags(write=False)
        data.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "data", data)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row_for_id(self, wanted: np.ndarray) -> np.ndarray:
        """Map ids to row indices (ids are sorted, so this is a bisect)."""
        wanted = np.asarray(wanted, dtype=np.int64)
        pos = np.searchsorted(self.ids, wanted)
        bad = (pos >= len(self.ids)) | (self.ids[np.minimum(pos, len(self.ids) - 1)] != wanted)
        if bad.any():
            raise KeyError(f"unknown id {int(np.atleast_1d(wanted)[np.atleast_1d(bad)][0])}")
        return pos


def normalize(emb: EmbeddingSet) -> EmbeddingSet:
    """Return a copy whose rows are rescaled to unit L2 norm."""
    data64 = emb.data.astype(np.float64)
    norms = np.linalg.norm(data64, axis=1)
    zero = norms == 0.0
    if zero.any():
        raise ZeroVectorRow(f"row id {int(emb.ids[zero][0])} is the zero vector")
    out = (data64 / norms[:, None]).astype(np.float32)
    return EmbeddingSet(ids=emb.ids.copy(), data=out, normalized=True)


@functools.cache
def blas_thread_controls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    The library is already loaded by numpy, so this binds the same copy.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


_M_ARENA_MAX = -8      # glibc mallopt parameter


def _share_malloc_arena() -> None:
    """Make threads started from now on allocate from the main glibc arena.

    By default glibc gives each new thread an arena of its own, which keeps
    that worker's freed temporaries resident beside the free memory the
    process already holds. Elsewhere this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(_M_ARENA_MAX, 1)


def for_each(items, run, threads: int = 1) -> list:
    """Return [run(item) for item in items], computed on up to `threads` workers.

    Results come back in item order, and the first error in item order
    reaches the caller unchanged. While more than one worker runs, BLAS is
    held to one thread, so workers and BLAS threads do not oversubscribe
    the cores; where that cannot be done, everything runs on the calling
    thread. Workers share the main malloc arena, so they do not add an
    arena's worth of resident memory each.
    """
    items = list(items)
    blas = blas_thread_controls()
    workers = min(threads, len(items)) if blas else 1
    if workers <= 1:
        return [run(item) for item in items]
    _share_malloc_arena()
    get, set_ = blas
    saved = get()
    set_(1)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, items))
    finally:
        set_(saved)


def for_row_blocks(n_rows: int, run) -> None:
    """Call run(lo, hi) once per fixed block of _CHUNK_ROWS rows, in ascending order."""
    for lo in range(0, n_rows, _CHUNK_ROWS):
        run(lo, min(lo + _CHUNK_ROWS, n_rows))


def for_dot_blocks(a: np.ndarray, b: np.ndarray, run) -> None:
    """Call run(lo, hi, a[lo:hi] @ b.T) in float64 once per fixed row block.

    Blocks follow for_row_blocks: they arrive in ascending order and only
    one is alive at a time.
    """
    a64 = a.astype(np.float64)
    b64t = b.astype(np.float64).T
    for_row_blocks(a64.shape[0], lambda lo, hi: run(lo, hi, a64[lo:hi] @ b64t))


def pairwise_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products a @ b.T in float64 over a fixed row partition."""
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)

    def run(lo, hi, block):
        out[lo:hi] = block

    for_dot_blocks(a, b, run)
    return out


# ---- persistence ----


_FIELDS = "QII"   # count, dim, flags


def save_embeddings(emb: EmbeddingSet, path: str | os.PathLike) -> None:
    """Write the binary embedding layout; load_embeddings round-trips it byte-exactly."""
    flags = _FLAG_NORMALIZED if emb.normalized else 0
    container.write_container(path, b"", _FIELDS, (emb.count, emb.dim, flags),
                              [(emb.ids, "<u8"), (emb.data, "<f4")])


def load_embeddings(path: str | os.PathLike) -> EmbeddingSet:
    with container.read_container(path, b"", _FIELDS, "embeddings") as (f, (count, dim, flags)):
        ids = container.read_array(f, "<u8", count, "ids").astype(np.int64)
        data = container.read_array(f, "<f4", count * dim, "rows").reshape(count, dim)
    return EmbeddingSet(ids=ids, data=data, normalized=bool(flags & _FLAG_NORMALIZED))
