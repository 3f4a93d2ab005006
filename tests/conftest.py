import json
import os
import tracemalloc

import numpy as np
import pytest

from stylepair.embedcore import EmbeddingSet, blas_thread_controls, normalize, one_blas_thread
from stylepair.trainer import info_nce_loss

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

needs_blas_controls = pytest.mark.skipif(blas_thread_controls() is None,
                                         reason="BLAS thread controls not found")
FORK = getattr(os, "fork", None)
forks_workers = pytest.mark.skipif(blas_thread_controls() is None or FORK is None,
                                   reason="the worker pool runs inline")


@pytest.fixture(autouse=True)
def _one_blas_thread():
    """Every test takes its products at one BLAS thread, as every command of `main` does.

    Under some OpenBLAS kernels a product's last bits depend on the thread
    count. A test that sets its own count (at_blas_threads) still may.
    """
    with one_blas_thread():
        yield


@pytest.fixture(autouse=True)
def _no_temp_file_left(tmp_path):
    """Fail a test that leaves a `*.tmp` under its tmp_path: an atomic write's temp file must
    be renamed over its path or removed."""
    yield
    leaked = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.tmp"))
    assert not leaked, f"temp files left behind: {leaked}"


def count_forks(monkeypatch, cpus, limit):
    """Give this process `cpus` CPUs and count the children forked; past `limit` a fork fails."""
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    def counted():
        if len(forks) >= limit:
            raise OSError(f"fork {len(forks) + 1} is past the limit of {limit}")
        pid = FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def at_blas_threads(count, compute):
    """compute() with numpy's OpenBLAS at `count` threads; the old count is restored."""
    get, set_ = blas_thread_controls()
    saved = get()
    set_(count)
    try:
        return compute()
    finally:
        set_(saved)


def traced_peak(compute) -> int:
    """Peak bytes tracemalloc sees allocated while compute() runs."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_set(rows, ids=None, unit=True) -> EmbeddingSet:
    """EmbeddingSet from a plain nested list / array; unit-normalizes by default."""
    data = np.asarray(rows, dtype=np.float32)
    if ids is None:
        ids = np.arange(data.shape[0], dtype=np.int64)
    es = EmbeddingSet(ids=np.asarray(ids, dtype=np.int64), data=data)
    return normalize(es) if unit else es


def random_unit_set(rng, count, dim, ids=None) -> EmbeddingSet:
    return make_set(rng.normal(size=(count, dim)), ids=ids)


def golden(name: str, computed: dict, rel_tol: float = 1e-9) -> dict:
    """Load a recorded fixture, writing `computed` on the first run.

    Returns the recorded values; numeric fields of `computed` must match
    them within rel_tol on later runs.
    """
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(computed, f, indent=2, sort_keys=True)
            f.write("\n")
        return computed
    with open(path, "r", encoding="utf-8") as f:
        recorded = json.load(f)
    assert set(recorded) == set(computed), f"{name}: fixture keys changed"
    for key, want in recorded.items():
        got = computed[key]
        if isinstance(want, (int, float)) and not isinstance(want, bool):
            assert got == pytest.approx(want, rel=rel_tol, abs=1e-12), (
                f"{name}.{key}: recorded {want}, computed {got}"
            )
        else:
            assert got == want, f"{name}.{key}: recorded {want!r}, computed {got!r}"
    return recorded


def grad_check(
    model,
    batch_texts: np.ndarray,
    batch_videos: np.ndarray,
    queue=None,
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
