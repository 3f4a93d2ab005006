"""Embedding sets, the similarity product, and the worker pool.

An EmbeddingSet is an immutable id-keyed matrix of float32 row vectors.
All row-wise math (normalizing, the flag check, aligned and pairwise dot
products) takes float32 inputs and works in float64 one fixed block of
row_blocks at a time, so a block streamed on its own carries the same bits
as the whole set. A block's columns may be streamed too, in the fixed
tiles of column_tiles, which carry the bits of the whole block product.
"""

import contextlib
import ctypes
import functools
import glob
import os
import pickle
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import (CorruptField, DimMismatch, DuplicateId, NonFiniteValue, NotNormalized,
                     RangeOutOfBounds, UnknownCandidate, ZeroVectorRow)

NORM_FLAG_TOL = 1e-4   # how far a "normalized" row may drift from unit norm
_FLAG_NORMALIZED = 1
BLOCK_ROWS = 512       # fixed row block of every row-wise float64 pass
TILE_COLS = 1024       # column tile of a streamed block product
_PR_SET_PDEATHSIG = 1  # Linux prctl option: a signal for when the parent dies
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters


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
        _check_ids(ids)
        for lo, hi in row_blocks(len(ids)):
            _check_block(data[lo:hi], self.normalized)
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
        """Map ids to row indices by bisection; an id not in the set is an UnknownCandidate."""
        wanted = np.asarray(wanted, dtype=np.int64)
        rows = np.searchsorted(self.ids, wanted)
        known = np.asarray(rows < len(self.ids))
        known[known] = self.ids[rows[known]] == wanted[known]
        if not known.all():
            raise UnknownCandidate(f"id {int(wanted[~known].flat[0])} is not in the set")
        return rows


def _check_ids(ids: np.ndarray) -> None:
    """Ids must be non-negative and ascending; a repeated one is a DuplicateId."""
    if len(ids) and ids.min() < 0:
        raise ValueError("ids must be non-negative")
    if len(ids) > 1:
        diffs = np.diff(ids)
        if (diffs == 0).any():
            dup = int(ids[1:][diffs == 0][0])
            raise DuplicateId(f"id {dup} appears more than once")
        if (diffs < 0).any():
            raise ValueError("ids must be sorted ascending")


def _check_block(block: np.ndarray, normalized: bool) -> None:
    """One row block must be finite, and of unit norm within NORM_FLAG_TOL if `normalized`."""
    if not np.isfinite(block).all():
        raise NonFiniteValue("embedding matrix contains non-finite entries")
    if normalized:
        norms = np.linalg.norm(block.astype(np.float64), axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > NORM_FLAG_TOL:
            raise NotNormalized(f"normalized flag set but a row norm deviates by {worst:.2e}")


def unit_block(ids: np.ndarray, rows64: np.ndarray, out: np.ndarray) -> None:
    """Divide one block's float64 rows by their norms and narrow them into `out`.

    A row of non-finite norm (an overflow or an infinity) is a NonFiniteValue,
    a zero row a ZeroVectorRow; each names the first such id of `ids`.
    """
    with np.errstate(over="ignore"):   # an overflowed norm is reported below
        norms = np.linalg.norm(rows64, axis=1)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise NonFiniteValue(f"row id {int(ids[bad][0])} has a non-finite norm")
    zero = norms == 0.0
    if zero.any():
        raise ZeroVectorRow(f"row id {int(ids[zero][0])} is the zero vector")
    out[:] = rows64 / norms[:, None]


def normalize(emb: EmbeddingSet) -> EmbeddingSet:
    """Return a copy whose rows are rescaled to unit L2 norm, one row block at a time."""
    out = np.empty_like(emb.data)
    for lo, hi in row_blocks(emb.count):
        unit_block(emb.ids[lo:hi], emb.data[lo:hi].astype(np.float64), out[lo:hi])
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


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the block, then restore its count.

    Without the thread controls nothing changes.
    """
    blas = blas_thread_controls()
    if blas is None:
        yield
        return
    get, set_ = blas
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


@functools.cache
def _libc():
    """The C library the process runs on, through ctypes, or None where it cannot be opened
    by name (Windows, where CDLL(None) raises TypeError)."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _fix_malloc_thresholds(mmap_bytes: int) -> None:
    """Fix glibc malloc's mmap threshold at `mmap_bytes` and its trim threshold at twice that.

    A block of at least `mmap_bytes` is then mapped on its own and unmapped
    when freed, and free heap past twice that is trimmed off the heap top.
    Fixed, neither follows glibc's dynamic threshold, which rises to the
    size of each freed mapped block (up to 32 MiB) and so keeps later blocks
    of that size in the heap. Without mallopt (another C library, or none
    to open), nothing changes.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt:
        mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
        mallopt(_M_MMAP_THRESHOLD, mmap_bytes)
        mallopt(_M_TRIM_THRESHOLD, 2 * mmap_bytes)


def hold_freed_heap() -> None:
    """Fix the malloc thresholds at 32 MiB and 64 MiB, where glibc's dynamic ones stop.

    Below them, a freed block of a megabyte or so goes back to the kernel
    (unmapped, or trimmed off the heap top) and faults in zero-filled on its
    next use, as a training step's matrices did on every step.
    """
    _fix_malloc_thresholds(32 << 20)


def release_freed_heap() -> None:
    """Fix the malloc thresholds at 1 MiB and 2 MiB: a freed block past them goes back.

    So a stage's product tiles and blocks are returned when freed, whatever
    an earlier stage freed, and do not pile up in the heap.
    """
    _fix_malloc_thresholds(1 << 20)


def for_each(items, run, threads: int = 1) -> list:
    """Return [run(item) for item in items], computed on up to `threads` workers.

    `threads` 0 means every CPU this process may run on, and no value gets
    more workers than those CPUs or than the items. The caller runs items
    0, w, 2w, ... and each of w - 1 forked children its own share, sent
    back pickled through a pipe. Results come back in item order, and the
    first error in item order reaches the caller (a child's as a copy); a
    child that ends without a result is a ChildProcessError. No child
    outlives the call. While workers run, BLAS is held to one thread
    (one_blas_thread), so they do not oversubscribe the cores; where that
    cannot be done, or without os.fork, everything runs inline.
    """
    items = list(items)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    forks = blas_thread_controls() and hasattr(os, "fork")
    workers = min(threads or cpus, cpus, len(items)) if forks else 1
    if workers <= 1:
        return [run(item) for item in items]
    parent, children, sent, codes = os.getpid(), [], {}, {}
    with one_blas_thread():
        try:
            for w in range(1, workers):
                read_end, write_end = os.pipe()
                try:
                    if (pid := os.fork()) == 0:
                        _serve_share(parent, write_end, run, items, range(w, len(items), workers))
                except BaseException:
                    os.close(read_end)
                    raise
                finally:
                    os.close(write_end)
                children.append((pid, read_end))
            outcomes = list(_run_share(run, items, range(0, len(items), workers)))
            for pid, read_end in children:   # to EOF before waitpid: a result can outgrow the pipe
                with open(read_end, "rb", closefd=False) as pipe:
                    sent[pid] = pipe.read()
        finally:
            for pid, read_end in children:
                os.close(read_end)
                if pid not in sent:   # the caller is unwinding: stop the child, then reap it
                    os.kill(pid, signal.SIGKILL)
                codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, code in codes.items():
        if code:
            how = (f"exit status {code}" if code > 0
                   else f"signal {-code} ({signal.strsignal(-code)})")
            raise ChildProcessError(f"worker process {pid} ended by {how} without a result")
        outcomes += pickle.loads(sent[pid])
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _run_share(run, items, indices):
    """Yield (index, ok, result or exception) for one worker's items, up to its first error."""
    for i in indices:
        try:
            yield i, True, run(items[i])
        except Exception as exc:   # a later item of this share cannot hold an earlier error
            yield i, False, exc
            return


def _serve_share(parent: int, write_end: int, run, items, indices) -> None:
    """In a forked child: pickle one share's outcomes into `write_end` and exit; never returns."""
    status = 1
    try:
        prctl = getattr(_libc(), "prctl", None)
        if prctl:   # Linux: die with the parent; getppid catches one that died first
            prctl.restype, prctl.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_ulong]
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() == parent:
            with open(write_end, "wb") as pipe:
                pickle.dump(list(_run_share(run, items, indices)), pipe)
            status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)


# quoted, so numpy.random does not load with this module: loaded that early, it
# raised the peak RSS of a process that imports stylepair by 0.2-0.4 MB
def keyed_rng(seed: int, *key: int) -> "np.random.Generator":
    """The generator of `seed`'s SeedSequence child at spawn key `key`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """Fixed row blocks (lo, hi) of BLOCK_ROWS rows, in ascending order."""
    return [(lo, min(lo + BLOCK_ROWS, n_rows)) for lo in range(0, n_rows, BLOCK_ROWS)]


def column_tiles(n_cols: int) -> list[tuple[int, int]]:
    """Fixed column tiles (c0, c1) of TILE_COLS columns, in ascending order.

    A ragged remainder joins the last full tile: on OpenBLAS a product a few
    hundred columns wide or less can take another kernel, and other bits,
    than the same columns of the whole block product.
    """
    edges = [*range(0, max(n_cols - TILE_COLS, 0) + 1, TILE_COLS), n_cols]
    return list(zip(edges[:-1], edges[1:]))


def pairwise_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T in float64, each block of row_blocks written straight into its output rows."""
    b64t = b.astype(np.float64, copy=False).T
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for lo, hi in row_blocks(a.shape[0]):
        np.matmul(a[lo:hi].astype(np.float64, copy=False), b64t, out=out[lo:hi])
    return out


def aligned_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, in float64, block by block."""
    out = np.empty(a.shape[0], dtype=np.float64)
    for lo, hi in row_blocks(a.shape[0]):
        out[lo:hi] = np.einsum("ij,ij->i", a[lo:hi].astype(np.float64),
                               b[lo:hi].astype(np.float64))
    return out


# ---- persistence ----


_FIELDS = "QII"   # count, dim, flags


def save_embeddings(emb: EmbeddingSet, path: str | os.PathLike) -> None:
    """Write the binary embedding layout; load_embeddings round-trips it byte-exactly."""
    flags = _FLAG_NORMALIZED if emb.normalized else 0
    container.write_container(path, b"", _FIELDS, (emb.count, emb.dim, flags),
                              [(emb.ids, "<u8"), (emb.data, "<f4")])


def embedding_rows_writer(f, ids: np.ndarray, dim: int):
    """Write the head and ids of the normalized set of `ids` into the open file `f`, sized and
    flushed for every row; return write(lo, rows), which puts float32 `rows` at row `lo`.

    Each write opens the file by name, as forked workers share `f`'s offset. Once every row
    is written, the file holds the bytes save_embeddings writes.
    """
    container.write_head(f, b"", _FIELDS, (len(ids), dim, _FLAG_NORMALIZED), [(ids, "<u8")])
    start = f.tell()
    f.truncate(start + 4 * len(ids) * dim)
    f.flush()

    def write(lo: int, rows: np.ndarray) -> None:
        with open(f.name, "r+b") as out:
            out.seek(start + 4 * lo * dim)
            container.write_array(out, rows, "<f4")
    return write


def _read_ids(f, count: int) -> np.ndarray:
    """The `count` ids at the file position, which must ascend and lie below 2**63."""
    ids = container.read_array(f, "<u8", count, "ids").astype(np.int64)
    if (ids < 0).any() or (ids[1:] < ids[:-1]).any():   # a u64 id >= 2**63 reads negative
        raise CorruptField("ids must be ascending and below 2**63")
    return ids


def load_embeddings(path: str | os.PathLike) -> EmbeddingSet:
    with container.read_container(path, b"", _FIELDS, "embeddings") as (f, (count, dim, flags)):
        ids = _read_ids(f, count)
        data = container.read_array(f, "<f4", count * dim, "rows").reshape(count, dim)
        return EmbeddingSet(ids=ids, data=data, normalized=bool(flags & _FLAG_NORMALIZED))


def read_rows(path: str | os.PathLike, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy rows `rows` of the set saved at `path` into `out`, in order; return the set's ids.

    The file is read one block of row_blocks at a time, and each block is
    checked as load_embeddings checks the whole set, so a read holds `out`,
    the ids and one block, never every row. A row outside the set is a
    RangeOutOfBounds, rows of another dim than `out`'s a DimMismatch, and
    every error names the file.
    """
    rows = np.asarray(rows, dtype=np.int64)
    with container.read_container(path, b"", _FIELDS, "embeddings") as (f, (count, dim, flags)):
        ids = _read_ids(f, count)
        _check_ids(ids)
        if dim != out.shape[1]:
            raise DimMismatch(f"rows of dim {dim}, not {out.shape[1]}")
        if len(rows) and (rows.min() < 0 or rows.max() >= count):
            raise RangeOutOfBounds(f"a row lies outside 0..{count - 1}")
        order = np.argsort(rows, kind="stable")
        ranked = rows[order]
        first = 0
        for lo, hi in row_blocks(count):
            block = container.read_array(f, "<f4", (hi - lo) * dim, "rows").reshape(hi - lo, dim)
            _check_block(block, bool(flags & _FLAG_NORMALIZED))
            last = int(np.searchsorted(ranked, hi))
            out[order[first:last]] = block[ranked[first:last] - lo]
            first = last
        return ids
