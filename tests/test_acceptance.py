"""Acceptance gate: every release criterion as one test with a printed verdict.

Run `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Criteria with runtime budgets assert them.
"""

import hashlib
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stylepair import trainer
from stylepair.cli import build_parser, main, run_pipeline
from stylepair.embedcore import EmbeddingSet, load_embeddings, save_embeddings
from stylepair.evaluator import rank_queries, report
from stylepair.matcher import match_exclusive
from stylepair.styler import threshold_sweep
from stylepair.trainer import NegativeQueue, batch_projections, info_nce_loss, init_adapter

from conftest import golden, grad_check, random_unit_set, saved


@contextmanager
def criterion(cid, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        print(f"[criterion {cid}] {name}: FAIL")
        raise
    print(f"[criterion {cid}] {name}: PASS ({elapsed:.2f}s)")


def pipeline_args(extra):
    parser = build_parser()
    return parser.parse_args(["pipeline"] + extra)


@pytest.fixture(scope="module")
def default_k1_run(tmp_path_factory):
    """Default benchmark pipeline at K=1, seed 7, with its wall time."""
    workdir = tmp_path_factory.mktemp("k1")
    args = pipeline_args(["--workdir", str(workdir), "--styles", "1", "--seed", "7"])
    t0 = time.perf_counter()
    rep = run_pipeline(args)
    return rep, time.perf_counter() - t0, workdir


def masked_argmax_reference(queries, clips):
    sims = queries.data.astype(np.float64) @ clips.data.astype(np.float64).T
    taken = np.zeros(clips.count, dtype=bool)
    cols, vals = [], []
    for qi in range(queries.count):
        row = sims[qi].copy()
        row[taken] = -np.inf
        col = int(np.argmax(row))
        taken[col] = True
        cols.append(col)
        vals.append(sims[qi, col])
    return np.array(cols), np.array(vals)


def test_criterion_1_matching_oracle_equivalence():
    with criterion(1, "matching oracle equivalence", budget_s=10.0):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_q = int(rng.integers(1, 201))
            n_c = int(rng.integers(n_q, 501))
            dim = int(rng.integers(2, 17))
            q = random_unit_set(rng, n_q, dim)
            c = random_unit_set(rng, n_c, dim)
            out = match_exclusive(q, c)
            cols, vals = masked_argmax_reference(q, c)
            assert np.array_equal(out.clip_ids, c.ids[cols]), f"seed {seed}"
            assert np.array_equal(out.sims, vals), f"seed {seed}"


def test_criterion_2_gradient_exactness():
    with criterion(2, "gradient exactness", budget_s=5.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for i in range(20):
            b = int(rng.integers(1, 9))
            dim = int(rng.integers(2, 17))
            proj = int(rng.integers(2, 9))
            model = trainer.AdapterModel(
                text_head=rng.normal(size=(proj, dim)),
                video_head=rng.normal(size=(proj, dim)),
                tau=float(rng.choice([0.05, 0.2, 1.0])),
            )
            texts = rng.normal(size=(b, dim))
            texts /= np.linalg.norm(texts, axis=1, keepdims=True)
            videos = rng.normal(size=(b, dim))
            videos /= np.linalg.norm(videos, axis=1, keepdims=True)
            queue = None
            if i % 2:
                queue = NegativeQueue(16, b, proj)
                extra = rng.normal(size=(6, dim))
                extra /= np.linalg.norm(extra, axis=1, keepdims=True)
                queue.push(*batch_projections(model, extra, extra))
            worst = max(worst, grad_check(model, texts, videos, queue=queue))
        assert worst < 1e-5, f"max relative error {worst:.2e}"


def test_criterion_3_loss_identities():
    with criterion(3, "contrastive loss identities"):
        model = init_adapter(4, tau=0.05)
        single, _, _ = info_nce_loss(model, np.eye(4)[:1], np.eye(4)[1:2])
        assert single == 0.0

        model1 = init_adapter(4, tau=1.0)
        uniform, _, _ = info_nce_loss(model1, np.tile(np.eye(4)[:1], (4, 1)),
                                      np.tile(np.eye(4)[1:2], (4, 1)))
        assert abs(uniform - np.log(4.0)) < 1e-9

        two, _, _ = info_nce_loss(model1, np.eye(4)[:2], np.eye(4)[:2])
        assert abs(two - np.log(1.0 + np.exp(-1.0))) < 1e-9


def test_criterion_4_trained_adapter_beats_zero_shot(default_k1_run):
    rep, elapsed, _ = default_k1_run
    with criterion(4, "trained adapter beats zero-shot by >= 5 R@1", budget_s=60.0):
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
        zero = rep["zero_shot"]["mean_r1"]
        trained = rep["in_style"]["mean_r1"]
        assert trained - zero >= 5.0, f"gain {trained - zero:.2f} below 5 points"
        golden("acceptance_k1_seed7_r1", {"zero_shot_r1": zero, "trained_r1": trained})


def test_criterion_5_multi_style_scheduling_advantage(tmp_path):
    with criterion(5, "in-style scheduling >= mixed on 3-seed mean", budget_s=180.0):
        in_style, mixed = [], []
        for seed in (7, 11, 13):
            args = pipeline_args(["--workdir", str(tmp_path / f"k2_{seed}"),
                                  "--styles", "2", "--seed", str(seed)])
            rep = run_pipeline(args)
            in_style.append(rep["in_style"]["mean_r1"])
            mixed.append(rep["mixed"]["mean_r1"])
        assert np.mean(in_style) >= np.mean(mixed), (
            f"in_style mean {np.mean(in_style):.2f} < mixed mean {np.mean(mixed):.2f}"
        )


def test_criterion_6_filter_monotonicity_and_boundary(default_k1_run, tmp_path):
    _, _, workdir = default_k1_run
    with criterion(6, "filter threshold sweep monotone, boundary strict"):
        rows = threshold_sweep(workdir / "styled_style0.iemb", workdir / "data" / "pool.iemb",
                               [0.26, 0.27, 0.28, 0.29, 0.30])
        counts = [r.kept for r in rows]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1] > 0   # the grid actually separates

        # exact dyadic similarities expose the strict inequality at the boundary
        sims = [0.125, 0.3125, 0.28125]
        styled_x = EmbeddingSet(
            ids=np.arange(3),
            data=np.array([[s, np.sqrt(1 - s * s)] for s in sims], np.float32),
            normalized=True)
        clips_x = EmbeddingSet(ids=np.arange(3),
                               data=np.array([[1.0, 0.0]] * 3, np.float32),
                               normalized=True)
        boundary = threshold_sweep(*saved(tmp_path, [styled_x, clips_x]), [0.28125])
        assert boundary[0].kept == 1   # the pair at exactly 0.28125 is dropped


def test_criterion_7_generated_exceed_pseudo(default_k1_run):
    rep, _, _ = default_k1_run
    with criterion(7, "generated pairs outnumber pseudo pairs at th=0.28"):
        assert rep["config"]["threshold"] == 0.28
        assert rep["pair_counts"]["generated"][0] > rep["pair_counts"]["pseudo"][0]


def test_criterion_8_metric_oracles():
    with criterion(8, "rank and report oracles"):
        rng = np.random.default_rng(88)
        for _ in range(50):
            queries = random_unit_set(rng, 9, 6)
            cands = random_unit_set(rng, 9, 6)
            truth = {int(q): int(rng.integers(0, 9)) for q in queries.ids}
            ranks = rank_queries(queries, cands, truth)
            sims = queries.data.astype(np.float64) @ cands.data.astype(np.float64).T
            for i, qid in enumerate(queries.ids):
                order = sorted(range(9), key=lambda j: (-sims[i, j], cands.ids[j]))
                assert ranks[i] == order.index(truth[int(qid)]) + 1

        rep = report([1, 2, 3])
        assert rep.r1 == pytest.approx(100.0 / 3.0) and rep.median_rank == 2.0
        rep = report([1, 1, 1, 1])
        assert rep.r1 == 100.0 and rep.median_rank == 1.0
        assert report([1, 2, 3, 10]).median_rank == 2.5


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "pipeline output hashes identical across runs and threads"):
        flags = ["--styles", "2", "--seed", "7", "--queries-per-style", "64",
                 "--pool-size", "384", "--dim", "24", "--content-dim", "8",
                 "--epochs", "2", "--batch-size", "32"]

        def run(workdir, threads):
            rc = main(["pipeline", "--workdir", str(workdir),
                       "--threads", str(threads)] + flags)
            assert rc == 0
            return {
                str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(pathlib.Path(workdir).rglob("*")) if p.is_file()
            }

        first = run(tmp_path / "run1", threads=1)
        second = run(tmp_path / "run2", threads=1)
        third = run(tmp_path / "run3", threads=8)
        assert first == second, "rerun with identical config changed outputs"
        assert first == third, "worker count changed outputs"
        assert len(first) >= 13


def test_criterion_10_format_round_trip(tmp_path):
    with criterion(10, "embedding container round-trip"):
        rng = np.random.default_rng(10)
        for i in range(100):
            count = int(rng.integers(1, 60))
            dim = int(rng.integers(1, 24))
            ids = np.sort(rng.choice(100_000, size=count, replace=False))
            es = EmbeddingSet(ids=ids,
                              data=rng.normal(size=(count, dim)).astype(np.float32),
                              normalized=False)
            path = tmp_path / f"case{i}.iemb"
            save_embeddings(es, path)
            first_bytes = path.read_bytes()
            back = load_embeddings(path)
            save_embeddings(back, path)
            assert path.read_bytes() == first_bytes, f"case {i}"
