import argparse
import csv
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from stylepair import cli, trainer
from stylepair.embedcore import EmbeddingSet, load_embeddings
from stylepair.errors import (
    BatchTooLarge,
    ConfigInvalid,
    CountMismatch,
    EmptyStyleSet,
    NonFiniteLoss,
    RangeOutOfBounds,
)
from stylepair.styler import GeneratedPairSet, write_generated_pairs
from stylepair.trainer import (
    AdapterModel,
    NegativeQueue,
    StepRecord,
    TrainConfig,
    batch_projections,
    build_training_arrays,
    info_nce_loss,
    init_adapter,
    load_adapter,
    plan_epoch,
    save_adapter,
    train,
    train_epochs,
    write_loss_log,
)

from conftest import golden, grad_check, random_unit_set, saved, traced_peak


def unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def gen_set(tag, size):
    return GeneratedPairSet(clip_ids=np.arange(size), rows=np.arange(size),
                            sims=np.full(size, 0.9), threshold=0.0, style_tag=tag,
                            total_candidates=size)


def filter_sims(styled, clips, rows):
    """The similarities filter_pairs records for `rows` of an aligned styled set."""
    return np.einsum("ij,ij->i", styled.data[rows].astype(np.float64),
                     clips.data[rows].astype(np.float64))


def row_gather(texts, videos):
    """The batch gather of row-aligned arrays, in the form of build_training_arrays's gather."""
    return lambda idx: (texts[idx], videos[idx])


def gathered(plan, texts, videos):
    """`train`'s (tag, texts, videos) batches for a plan over row-aligned arrays."""
    return [(tag, texts[idx], videos[idx]) for tag, idx in plan]


def random_model(rng, dim, proj):
    return AdapterModel(text_head=rng.normal(size=(proj, dim)),
                        video_head=rng.normal(size=(proj, dim)), tau=0.05)


def filled_queue(rng, model, dim, n, batch, capacity=64):
    """A queue for batches of `batch` rows, holding the projections of `n` random pairs."""
    q = NegativeQueue(capacity, batch, model.proj_dim)
    x, y = batch_projections(model, unit_rows(rng, n, dim), unit_rows(rng, n, dim))
    q.push(x, y)
    return q


class TestLossIdentities:
    def test_single_pair_loss_is_zero(self):
        model = init_adapter(4, tau=0.05)
        t = unit_rows(np.random.default_rng(0), 1, 4)
        v = unit_rows(np.random.default_rng(1), 1, 4)
        loss, _, _ = info_nce_loss(model, t, v)
        assert loss == 0.0

    def test_uniform_similarities_give_log_b(self):
        model = init_adapter(4, tau=1.0)
        t = np.tile([[1.0, 0.0, 0.0, 0.0]], (4, 1))
        v = np.tile([[0.0, 1.0, 0.0, 0.0]], (4, 1))
        loss, _, _ = info_nce_loss(model, t, v)
        assert loss == pytest.approx(np.log(4.0), abs=1e-9)

    def test_two_by_two_identity_logits(self):
        model = init_adapter(4, tau=1.0)
        rows = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        loss, _, _ = info_nce_loss(model, rows, rows)
        assert loss == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-9)

    def test_loss_positive_when_off_diagonal_ties_diagonal(self):
        model = init_adapter(3, tau=0.05)
        row = np.array([[1.0, 0.0, 0.0]])
        t = np.concatenate([row, row])   # both texts identical: off-diag == diag
        v = unit_rows(np.random.default_rng(2), 2, 3)
        loss, _, _ = info_nce_loss(model, t, v)
        assert loss > 0.0

    def test_loss_never_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            b = int(rng.integers(1, 6))
            dim = int(rng.integers(2, 8))
            model = random_model(rng, dim, int(rng.integers(2, 6)))
            loss, _, _ = info_nce_loss(model, unit_rows(rng, b, dim),
                                       unit_rows(rng, b, dim))
            assert loss >= 0.0

    def test_count_mismatch(self):
        model = init_adapter(3)
        with pytest.raises(CountMismatch):
            info_nce_loss(model, np.eye(3), np.eye(3)[:2])


def reference_project(head, rows):
    raw = rows @ head.T
    norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None], norms


def reference_backward(texts, videos, x, x_norms, y, y_norms, d_x, d_y):
    d_u = (d_x - (d_x * x).sum(axis=1, keepdims=True) * x) / x_norms[:, None]
    d_w = (d_y - (d_y * y).sum(axis=1, keepdims=True) * y) / y_norms[:, None]
    return d_u.T @ texts, d_w.T @ videos


def reference_loss(model, texts, videos, q_texts=None, q_videos=None):
    """info_nce_loss's formula with fresh arrays and concatenated queue columns."""
    b, tau = texts.shape[0], model.tau
    x, x_norms = reference_project(model.text_head, texts)
    y, y_norms = reference_project(model.video_head, videos)
    cols_v = y if q_videos is None else np.concatenate([y, q_videos])
    cols_t = x if q_texts is None else np.concatenate([x, q_texts])
    diag = np.arange(b)
    log_diag, exps = [], []
    for rows, cols in ((x, cols_v), (y, cols_t)):
        logits = (rows / tau) @ cols.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        z = e.sum(axis=1)
        log_diag.append((shifted[diag, diag] - np.log(z)).sum())
        exps.append((e, 1.0 / z))
    loss = float(-(log_diag[0] + log_diag[1]) / (2.0 * b) + 0.0)
    (e_tv, s_tv), (e_vt, s_vt) = exps
    a = 1.0 / (2.0 * b * tau)
    d_x = a * ((e_tv @ cols_v) * s_tv[:, None] + e_vt[:, :b].T @ (y * s_vt[:, None]) - 2.0 * y)
    d_y = a * ((e_vt @ cols_t) * s_vt[:, None] + e_tv[:, :b].T @ (x * s_tv[:, None]) - 2.0 * x)
    return (loss, *reference_backward(texts, videos, x, x_norms, y, y_norms, d_x, d_y))


def log_softmax_reference_loss(model, texts, videos, q_texts=None, q_videos=None):
    """The loss and gradients through the full log-softmax and a second exp for the softmax,
    with every scaling applied to the (B, C) matrices."""
    b, tau = texts.shape[0], model.tau

    def log_softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]

    x, x_norms = reference_project(model.text_head, texts)
    y, y_norms = reference_project(model.video_head, videos)
    cols_v = y if q_videos is None else np.concatenate([y, q_videos])
    cols_t = x if q_texts is None else np.concatenate([x, q_texts])
    logp_tv = log_softmax((x @ cols_v.T) / tau)
    logp_vt = log_softmax((y @ cols_t.T) / tau)
    diag = np.arange(b)
    loss = float(-(logp_tv[diag, diag].sum() + logp_vt[diag, diag].sum()) / (2.0 * b) + 0.0)
    g_tv, g_vt = np.exp(logp_tv), np.exp(logp_vt)
    for g in (g_tv, g_vt):
        g[diag, diag] -= 1.0
        g /= 2.0 * b * tau
    d_x = g_tv @ cols_v + g_vt[:, :b].T @ y
    d_y = g_vt @ cols_t + g_tv[:, :b].T @ x
    return (loss, *reference_backward(texts, videos, x, x_norms, y, y_norms, d_x, d_y))


class TestQueuedLoss:
    def test_queue_columns_give_the_bits_of_concatenated_negatives(self):
        rng = np.random.default_rng(17)
        dim, proj = 7, 5
        model = random_model(rng, dim, proj)
        queue = NegativeQueue(10, 4, proj)
        fills, pushed_x, pushed_y = [], [], []
        # the queue goes empty -> partial -> full -> wrapped
        for _ in range(6):
            t, v = unit_rows(rng, 4, dim), unit_rows(rng, 4, dim)
            fills.append(len(queue))
            # the negatives are the last 10 projections pushed, built here, not read back
            negatives = ((np.concatenate(pushed_x)[-10:], np.concatenate(pushed_y)[-10:])
                         if pushed_x else ())
            want = reference_loss(model, t, v, *negatives)
            got = info_nce_loss(model, t, v, queue)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
            x, y = batch_projections(model, t, v)
            queue.push(x, y)
            pushed_x.append(x)
            pushed_y.append(y)
            model.text_head -= 0.1 * got[1]
        assert fills == [0, 4, 8, 10, 10, 10]
        # a queue serves the one batch size it was laid out for
        for b in (3, 6):
            t, v = unit_rows(rng, b, dim), unit_rows(rng, b, dim)
            with pytest.raises(CountMismatch):
                info_nce_loss(model, t, v, queue)
        # and a refused batch leaves the queue as it was
        x, y = unit_rows(rng, 4, proj), unit_rows(rng, 4, proj)
        cols_t, cols_v = queue.columns(x, y)
        assert np.array_equal(cols_t, np.concatenate([x, np.concatenate(pushed_x)[-10:]]))
        assert np.array_equal(cols_v, np.concatenate([y, np.concatenate(pushed_y)[-10:]]))

    @pytest.mark.parametrize("tau", [0.002, 0.05, 0.2, 1.0])
    @pytest.mark.parametrize("b", [1, 2, 7, 128])
    def test_step_agrees_with_the_log_softmax_reference(self, tau, b):
        rng = np.random.default_rng(23)
        dim, proj = 12, 6
        model = random_model(rng, dim, proj)
        model.tau = tau
        for fill in (0, 3, 40):
            t, v = unit_rows(rng, b, dim), unit_rows(rng, b, dim)
            queue = filled_queue(rng, model, dim, fill, b) if fill else None
            negatives = ()
            if fill:   # columns: the batch's projections in rows :b, then the negatives
                negatives = [c[b:] for c in queue.columns(*batch_projections(model, t, v))]
            want = log_softmax_reference_loss(model, t, v, *negatives)
            got = info_nce_loss(model, t, v, queue)
            assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
            for g, w in zip(got[1:], want[1:]):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_train_peak_memory_does_not_grow_with_steps(self):
        rng = np.random.default_rng(18)
        b, capacity, dim = 64, 512, 8
        n = 4 * b
        texts, videos = unit_rows(rng, n, dim), unit_rows(rng, n, dim)
        matrix_bytes = b * (b + capacity) * 8   # one (B, B + queue) float64 matrix

        def peak(steps):
            batches = gathered([("a", rng.permutation(n)[:b]) for _ in range(steps)],
                               texts, videos)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train(init_adapter(dim), batches, TrainConfig(queue_capacity=capacity))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        short, long = peak(16), peak(32)   # the queue fills at step 8 and then wraps
        assert long <= short + matrix_bytes // 4
        # one step's matrices (freed when it returns) plus the queue's column buffers
        assert short < 5 * matrix_bytes

    def test_one_call_holds_one_step_matrix_at_a_time(self):
        rng = np.random.default_rng(24)
        b, capacity, dim = 64, 512, 8
        model = init_adapter(dim)
        queue = filled_queue(rng, model, dim, capacity, b, capacity=capacity)
        t, v = unit_rows(rng, b, dim), unit_rows(rng, b, dim)
        matrix_bytes = b * (b + capacity) * 8   # one (B, B + queue) float64 matrix
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            info_nce_loss(model, t, v, queue)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one direction's E at a time, plus (B, p) rows and the (B, B) operand of a backward
        # product; both directions' E at once read ~2.27 matrices
        assert peak < 1.6 * matrix_bytes

    @pytest.mark.parametrize("fill", [0, 40])
    def test_a_subnormal_tau_is_non_finite_before_a_product_warns(self, fill):
        # rows / tau overflows, so a direction's E holds NaN: the step must stop at its loss
        # term, before a backward product reads that E (at tau 1e-300 the loss is still finite)
        rng = np.random.default_rng(26)
        dim, b = 8, 16
        model = init_adapter(dim, tau=3e-309)
        queue = filled_queue(rng, model, dim, fill, b) if fill else None
        t, v = unit_rows(rng, b, dim), unit_rows(rng, b, dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteLoss, match="non-finite"):
                info_nce_loss(model, t, v, queue)


class TestGradCheck:
    def test_random_fixtures_with_and_without_queue(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for i in range(8):
            b = int(rng.integers(2, 9))
            dim = int(rng.integers(3, 17))
            proj = int(rng.integers(2, 9))
            model = random_model(rng, dim, proj)
            queue = filled_queue(rng, model, dim, 5, b) if i % 2 else None
            err = grad_check(model, unit_rows(rng, b, dim), unit_rows(rng, b, dim),
                             queue=queue)
            worst = max(worst, err)
        assert worst < 1e-5

    def test_structurally_zero_gradient(self):
        rng = np.random.default_rng(5)
        dim = 6
        model = random_model(rng, dim, 4)
        t = unit_rows(rng, 4, dim)
        v = unit_rows(rng, 4, dim)
        t[:, 2] = 0.0   # text inputs never touch input dim 2
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        _, grad_t, _ = info_nce_loss(model, t, v)
        assert np.abs(grad_t[:, 2]).max() == 0.0
        assert grad_check(model, t, v) < 1e-5

    def test_error_shrinks_with_eps(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 5, 3)
        t = unit_rows(rng, 3, 5)
        v = unit_rows(rng, 3, 5)
        coarse = grad_check(model, t, v, eps=1e-4)
        fine = grad_check(model, t, v, eps=1e-5)
        assert fine <= coarse or fine < 1e-7

    def test_eps_domain(self):
        model = init_adapter(3)
        with pytest.raises(ValueError):
            grad_check(model, np.eye(3), np.eye(3), eps=1e-2)


def reference_plan(sizes, tags, batch_size, seed):
    """Plain restatement of the documented scheduler for in-style mode."""
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)
    per_set = []
    for s, size in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
        perm = rng.permutation(size) + offsets[s]
        per_set.append([perm[i * batch_size:(i + 1) * batch_size]
                        for i in range(size // batch_size)])
    counts = [len(b) for b in per_set]
    total = sum(counts)
    credit = [0.0] * len(sizes)
    cursor = [0] * len(sizes)
    out = []
    for _ in range(total):
        live = [s for s in range(len(sizes)) if cursor[s] < counts[s]]
        for s in live:
            credit[s] += counts[s]
        best = sorted(live, key=lambda s: (-credit[s], s))[0]
        credit[best] -= total
        out.append((tags[best], per_set[best][cursor[best]]))
        cursor[best] += 1
    return out


class TestPlanEpoch:
    def test_two_sets_of_four_batch_two(self):
        plan = plan_epoch([gen_set("a", 4), gen_set("b", 4)], batch_size=2,
                          mode="in_style", seed=0)
        assert len(plan) == 4
        for tag, idx in plan:
            assert len(idx) == 2
            s = ["a", "b"].index(tag)
            lo, hi = 4 * s, 4 * s + 4
            assert np.all((idx >= lo) & (idx < hi))

    def test_single_set_modes_use_same_index_multiset(self):
        plan_in = plan_epoch([gen_set("a", 6)], 2, mode="in_style", seed=3)
        plan_mix = plan_epoch([gen_set("a", 6)], 2, mode="mixed", seed=3)
        flat_in = sorted(np.concatenate([i for _, i in plan_in]).tolist())
        flat_mix = sorted(np.concatenate([i for _, i in plan_mix]).tolist())
        assert flat_in == flat_mix == list(range(6))

    def test_matches_reference_scheduler(self):
        sets = [gen_set("a", 10), gen_set("b", 6)]
        plan = plan_epoch(sets, 2, mode="in_style", seed=11)
        expect = reference_plan([10, 6], ["a", "b"], 2, 11)
        assert len(plan) == len(expect)
        for (tag, idx), (etag, eidx) in zip(plan, expect):
            assert tag == etag
            assert np.array_equal(idx, eidx)

    def test_matches_reference_scheduler_over_random_shapes(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            batch_size = int(rng.integers(2, 7))
            sizes = rng.integers(batch_size, 12 * batch_size, size=rng.integers(1, 6)).tolist()
            tags = [f"s{i}" for i in range(len(sizes))]
            seed = int(rng.integers(2**32))
            plan = plan_epoch([gen_set(t, n) for t, n in zip(tags, sizes)], batch_size, seed=seed)
            expect = reference_plan(sizes, tags, batch_size, seed)
            assert [tag for tag, _ in plan] == [tag for tag, _ in expect], (sizes, batch_size)
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(plan, expect))

    def test_homogeneity_across_seeds(self):
        sets = [gen_set("a", 9), gen_set("b", 13), gen_set("c", 5)]
        for seed in range(10):
            plan = plan_epoch(sets, 2, mode="in_style", seed=seed)
            offsets = np.cumsum([0] + [len(x) for x in sets])
            for tag, idx in plan:
                s = [x.style_tag for x in sets].index(tag)
                lo, hi = offsets[s], offsets[s + 1]
                assert np.all((idx >= lo) & (idx < hi)), "batch crosses style sets"

    def test_indices_unique_within_epoch(self):
        sets = [gen_set("a", 10), gen_set("b", 7)]
        for mode in ("in_style", "mixed"):
            plan = plan_epoch(sets, 3, mode=mode, seed=2)
            flat = np.concatenate([i for _, i in plan])
            assert len(np.unique(flat)) == len(flat)

    def test_ragged_tails_dropped(self):
        plan = plan_epoch([gen_set("a", 7)], 2, mode="in_style", seed=0)
        assert len(plan) == 3
        plan = plan_epoch([gen_set("a", 7)], 2, mode="mixed", seed=0)
        assert len(plan) == 3

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyStyleSet):
            plan_epoch([gen_set("a", 4), gen_set("b", 0)], 2, seed=0)

    def test_batch_too_large(self):
        with pytest.raises(BatchTooLarge):
            plan_epoch([gen_set("a", 4), gen_set("b", 3)], 4, mode="in_style", seed=0)
        with pytest.raises(BatchTooLarge):
            plan_epoch([gen_set("a", 2)], 4, mode="mixed", seed=0)

    def test_a_set_too_small_to_train_is_named_with_its_filter_counts(self):
        small = GeneratedPairSet(clip_ids=[4, 9, 11], rows=[4, 9, 11], sims=[0.9] * 3,
                                 threshold=0.28, style_tag="b", total_candidates=2048)
        empty = GeneratedPairSet(clip_ids=[], rows=[], sims=[], threshold=0.28,
                                 style_tag="c", total_candidates=2048)
        with pytest.raises(BatchTooLarge, match=r"batch_size 4 exceeds the smallest set, style "
                           r"set 'b': the filter kept 3 of its 2048 candidates at threshold "
                           r"0\.28$"):
            plan_epoch([gen_set("a", 8), small], 4, mode="in_style", seed=0)
        with pytest.raises(EmptyStyleSet, match=r"style set 'c' is empty: the filter kept 0 of "
                           r"its 2048 candidates at threshold 0\.28$"):
            plan_epoch([gen_set("a", 8), empty], 4, seed=0)

    def test_tiny_batch_rejected(self):
        with pytest.raises(ConfigInvalid):
            plan_epoch([gen_set("a", 4)], 1, seed=0)


def separable_fixture(rng, n_per_style=40, dim=8):
    """Two styles whose texts are distinct fixed rotations of their videos."""
    sets, text_blocks, video_blocks = [], [], []
    for s, tag in enumerate(("a", "b")):
        videos = unit_rows(rng, n_per_style, dim)
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        texts = videos @ rot.T + 0.05 * rng.normal(size=(n_per_style, dim))
        texts /= np.linalg.norm(texts, axis=1, keepdims=True)
        sets.append(gen_set(tag, n_per_style))
        text_blocks.append(texts)
        video_blocks.append(videos)
    return sets, np.concatenate(text_blocks), np.concatenate(video_blocks)


class TestTrain:
    def test_zero_learning_rate_keeps_weights(self):
        rng = np.random.default_rng(7)
        sets, texts, videos = separable_fixture(rng)
        model = init_adapter(8, tau=0.05)
        before_t = model.text_head.copy()
        plan = plan_epoch(sets, 4, mode="in_style", seed=1)
        out, rows = train(model, gathered(plan, texts, videos),
                          TrainConfig(learning_rate=0.0, momentum=0.0))
        assert np.array_equal(out.text_head, before_t)
        assert np.array_equal(out.video_head, model.video_head)
        assert len(rows) == len(plan)

    def test_loss_decreases_on_separable_fixture(self):
        rng = np.random.default_rng(8)
        sets, texts, videos = separable_fixture(rng)
        model = init_adapter(8, tau=0.05)
        config = TrainConfig(batch_size=4, learning_rate=0.3, momentum=0.0, epochs=5,
                             queue_capacity=0)
        model, rows = train_epochs(model, sets, row_gather(texts, videos), mode="in_style",
                                   config=config, seed=9)
        assert len(rows) == 100
        first = float(np.mean([r.loss for r in rows[:10]]))
        last = float(np.mean([r.loss for r in rows[-10:]]))
        assert last < first
        golden("trainer_separable_regression",
               {"first_mean_loss": first, "last_mean_loss": last})

    def test_default_temperature_and_both_taus_learn(self):
        assert trainer.DEFAULT_TAU == 0.05
        assert init_adapter(4).tau == 0.05
        rng = np.random.default_rng(10)
        sets, texts, videos = separable_fixture(rng)
        outcomes = {}
        for tau in (0.05, 1.0):
            model = init_adapter(8, tau=tau)
            model, rows = train_epochs(model, sets, row_gather(texts, videos), mode="in_style",
                                       config=TrainConfig(batch_size=4, learning_rate=0.3,
                                                          momentum=0.0, epochs=5,
                                                          queue_capacity=0), seed=4)
            outcomes[tau] = (np.mean([r.loss for r in rows[:10]]),
                             np.mean([r.loss for r in rows[-10:]]))
        for tau, (first, last) in outcomes.items():
            assert last < first, f"tau={tau} did not improve"
        assert abs(outcomes[0.05][0] - outcomes[1.0][0]) > 0.1  # magnitudes differ

    def test_deterministic_loss_log(self):
        rng = np.random.default_rng(11)
        sets, texts, videos = separable_fixture(rng)
        logs = []
        for _ in range(2):
            model = init_adapter(8, tau=0.05)
            _, rows = train_epochs(model, sets, row_gather(texts, videos), mode="in_style",
                                   config=TrainConfig(batch_size=4, epochs=2, queue_capacity=32),
                                   seed=21)
            logs.append([(r.style_tag, r.loss) for r in rows])
        assert logs[0] == logs[1]

    def test_queue_isolation_matches_manual_replay(self):
        rng = np.random.default_rng(12)
        sets, texts, videos = separable_fixture(rng, n_per_style=16)
        config = TrainConfig(learning_rate=0.2, momentum=0.0, queue_capacity=12)
        plan = plan_epoch(sets, 4, mode="in_style", seed=5)

        model, rows = train(init_adapter(8, tau=0.05), gathered(plan, texts, videos), config)

        replay = init_adapter(8, tau=0.05)
        queues = {}
        for step, (tag, idx) in enumerate(plan):
            bt, bv = texts[idx], videos[idx]
            loss, gt, gv = info_nce_loss(replay, bt, bv, queues.get(tag))
            assert loss == rows[step].loss, f"step {step} diverged"
            replay.text_head -= config.learning_rate * gt
            replay.video_head -= config.learning_rate * gv
            x, y = batch_projections(replay, bt, bv)
            q = queues.setdefault(tag, NegativeQueue(config.queue_capacity, len(x), x.shape[1]))
            q.push(x, y)
        assert np.array_equal(model.text_head, replay.text_head)
        assert np.array_equal(model.video_head, replay.video_head)

    def test_queue_entries_change_the_loss(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 6, 4)
        t = unit_rows(rng, 4, 6)
        v = unit_rows(rng, 4, 6)
        plain, _, _ = info_nce_loss(model, t, v)
        with_queue, _, _ = info_nce_loss(model, t, v, filled_queue(rng, model, 6, 8, 4))
        assert with_queue != plain

    @pytest.mark.parametrize("mode", ["in_style", "mixed"])
    def test_a_capacity_past_every_pair_trains_like_one_of_all_pairs(self, mode):
        # a queue empties every epoch, so it never holds more than the epoch's pairs;
        # 2**40 rows would not fit in memory
        sets, texts, videos = separable_fixture(np.random.default_rng(12))
        (a, rows_a), *runs = [
            train_epochs(init_adapter(8), sets, row_gather(texts, videos), mode=mode,
                         config=TrainConfig(batch_size=4, epochs=2, queue_capacity=capacity),
                         seed=3)
            for capacity in (len(texts), 7 * len(texts), 2**40)]
        for b, rows_b in runs:
            assert np.array_equal(a.text_head, b.text_head)
            assert np.array_equal(a.video_head, b.video_head)
            assert [r.loss for r in rows_a] == [r.loss for r in rows_b]

    def test_queue_capacity_trims_fifo(self):
        rng = np.random.default_rng(14)
        model = init_adapter(4)
        q = NegativeQueue(6, 4, model.proj_dim)
        first = unit_rows(rng, 4, 4)
        x1, y1 = batch_projections(model, first, first)
        q.push(x1, y1)
        second = unit_rows(rng, 4, 4)
        x2, y2 = batch_projections(model, second, second)
        q.push(x2, y2)
        assert len(q) == 6
        # oldest two rows fell out; the newest batch survives intact
        negatives = q.columns(x2, y2)[0][4:]
        assert np.array_equal(negatives[-4:], x2)
        assert np.array_equal(negatives[:2], x1[2:])
        assert len(filled_queue(rng, model, 4, 4, 4, capacity=0)) == 0

    def test_non_finite_loss_reports_step(self):
        texts = np.concatenate([np.eye(4), np.zeros((2, 4))])
        videos = np.concatenate([np.eye(4), np.eye(4)[:2]])
        plan = [("a", np.array([0, 1])), ("a", np.array([4, 5]))]
        # the failing step is named by its loss-log row: the model's global step count
        for step_count, name in ((0, "step 1:"), (5, "step 6:")):
            model = init_adapter(4)
            model.step_count = step_count
            with pytest.raises(NonFiniteLoss, match=name):
                train(model, gathered(plan, texts, videos), TrainConfig())

    @pytest.mark.parametrize("value", [3.5e38, -1e39, np.inf, np.nan])
    def test_a_head_past_float32s_range_is_non_finite(self, value):
        # save_adapter stores float32, where such a weight would read back as inf or NaN
        head = np.eye(3)
        head[1, 2] = value
        with pytest.raises(NonFiniteLoss, match="float32"):
            AdapterModel(text_head=np.eye(3), video_head=head)
        head[1, 2] = -np.finfo(np.float32).max
        AdapterModel(text_head=head, video_head=head).check_finite()

    def test_float32_and_float64_arrays_give_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(19)
        sets, texts, videos = separable_fixture(rng)
        texts32, videos32 = texts.astype(np.float32), videos.astype(np.float32)
        outputs = []
        for i, (t, v) in enumerate([(texts32, videos32),
                                    (texts32.astype(np.float64), videos32.astype(np.float64))]):
            model, rows = train_epochs(init_adapter(8), sets, row_gather(t, v), mode="in_style",
                                       config=TrainConfig(batch_size=4, epochs=2,
                                                          queue_capacity=12), seed=3)
            save_adapter(model, tmp_path / f"adapter{i}.iemb")
            write_loss_log(rows, tmp_path / f"loss{i}.csv")
            outputs.append([(tmp_path / f"{name}{i}.{ext}").read_bytes()
                            for name, ext in (("adapter", "iemb"), ("loss", "csv"))])
        assert outputs[0] == outputs[1]


class TestWriteLossLog:
    @pytest.mark.parametrize("tag", ["a,b", 'x"y', "p\nq", "p\r\nq"])
    def test_a_tag_with_csv_syntax_reads_back_as_one_field(self, tmp_path, tag):
        path = tmp_path / "loss.csv"
        write_loss_log([StepRecord(tag, 1.7693), StepRecord("plain", 0.25)], path)
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows == [["step", "style_tag", "loss"], ["0", tag, "1.7693"],
                        ["1", "plain", "0.25"]]

    def test_plain_tags_keep_their_bytes(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_log([StepRecord("style0", 1.7693), StepRecord("", 0.1),
                        StepRecord("mixed", 2.0)], path)
        assert path.read_bytes() == b"step,style_tag,loss\n0,style0,1.7693\n1,,0.1\n2,mixed,2.0\n"


def unaligned_style_sets(rng, dim=12):
    """A pool and two styles whose styled sets differ in count and in row order from it.

    Style "a" captions every pool clip, so its rows are the pool's; style "b"
    captions a subset, so its row i holds another clip than pool row i.
    Each style keeps a shuffled subset of its rows, with filter_pairs' sims.
    """
    pool = random_unit_set(rng, 200, dim, ids=np.arange(1000, 1200))
    styled_sets = [random_unit_set(rng, 200, dim, ids=pool.ids),
                   random_unit_set(rng, 90, dim, ids=np.sort(rng.choice(pool.ids, 90, False)))]
    gen_sets = []
    for tag, styled, keep in zip(("a", "b"), styled_sets, (120, 70)):
        rows = rng.permutation(styled.count)[:keep]
        clip_rows = pool.row_for_id(styled.ids[rows])
        sims = np.einsum("ij,ij->i", styled.data[rows].astype(np.float64),
                         pool.data[clip_rows].astype(np.float64))
        gen_sets.append(GeneratedPairSet(clip_ids=styled.ids[rows], rows=rows, sims=sims,
                                         threshold=-1.0, style_tag=tag))
    return pool, gen_sets, styled_sets


def copy_path_rows(gen_sets, styled_sets, clips):
    """The float32 copy of every pair that training gathered its batches from before.

    Each batch is widened to float64 from the two (pairs, dim) arrays.
    """
    total = sum(len(gen) for gen in gen_sets)
    texts = np.empty((total, clips.dim), dtype=np.float32)
    videos = np.empty((total, clips.dim), dtype=np.float32)
    lo = 0
    for gen, styled in zip(gen_sets, styled_sets):
        hi = lo + len(gen)
        texts[lo:hi] = styled.data[gen.rows]
        videos[lo:hi] = clips.data[clips.row_for_id(gen.clip_ids)]
        lo = hi
    return lambda idx: (texts[idx].astype(np.float64), videos[idx].astype(np.float64))


class TestBuildTrainingArrays:
    def test_rows_follow_pair_order(self, tmp_path):
        rng = np.random.default_rng(15)
        clips = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        styled = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        gen = GeneratedPairSet(clip_ids=[103, 101, 108], rows=[3, 1, 8],
                               sims=filter_sims(styled, clips, [3, 1, 8]), threshold=-1.0,
                               style_tag="a")
        gather, dim = build_training_arrays([gen], saved(tmp_path, [styled]),
                                            saved(tmp_path, [clips], "pool")[0])
        texts, videos = gather(np.array([0, 1, 2]))
        assert dim == 4
        assert texts.dtype == videos.dtype == np.float64
        assert np.array_equal(texts, styled.data[[3, 1, 8]].astype(np.float64))
        assert np.array_equal(videos, clips.data[[3, 1, 8]].astype(np.float64))

    def test_a_mixed_batch_reads_each_pair_from_its_own_sets(self, tmp_path):
        pool, gen_sets, styled_sets = unaligned_style_sets(np.random.default_rng(21))
        offsets = [0, len(gen_sets[0])]
        picks = [(1, 5), (0, 2), (1, 0), (0, 2), (0, 17)]   # (set, pair), a pair repeated
        gather, _ = build_training_arrays(gen_sets, saved(tmp_path, styled_sets),
                                          saved(tmp_path, [pool], "pool")[0])
        texts, videos = gather(np.array([offsets[s] + i for s, i in picks]))
        for row, (s, i) in enumerate(picks):
            gen = gen_sets[s]
            assert np.array_equal(texts[row], styled_sets[s].data[gen.rows[i]])
            assert np.array_equal(videos[row], pool.data[pool.row_for_id(gen.clip_ids[i])])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_training_writes_the_bytes_of_the_copy_path(self, tmp_path, threads):
        pool, gen_sets, styled_sets = unaligned_style_sets(np.random.default_rng(22))
        args = argparse.Namespace(learning_rate=0.3, momentum=0.9, queue_capacity=24,
                                  tau=0.05, epochs=2, batch_size=16, seed=5)
        modes = ["in_style", "mixed"]
        cli.train_stage(args, saved(tmp_path, [pool], "pool")[0], gen_sets,
                        saved(tmp_path, styled_sets), [
            (mode, tmp_path / f"adapter_{mode}.iemb", tmp_path / f"loss_{mode}.csv")
            for mode in modes], threads)
        config = TrainConfig(batch_size=16, learning_rate=0.3, momentum=0.9, epochs=2,
                             queue_capacity=24)
        for mode in modes:
            model, rows = train_epochs(init_adapter(pool.dim), gen_sets,
                                       copy_path_rows(gen_sets, styled_sets, pool), mode=mode,
                                       config=config, seed=5)
            save_adapter(model, tmp_path / "want.iemb")
            write_loss_log(rows, tmp_path / "want.csv")
            for got, want in ((f"adapter_{mode}.iemb", "want.iemb"),
                              (f"loss_{mode}.csv", "want.csv")):
                assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes(), got

    def test_rows_and_one_epoch_peak_under_the_copies(self, tmp_path):
        rng = np.random.default_rng(23)
        n, dim = 4096, 64
        pool = random_unit_set(rng, n, dim)
        styled_sets = [random_unit_set(rng, n, dim) for _ in range(2)]
        gen_sets = [GeneratedPairSet(clip_ids=pool.ids, rows=np.arange(n),
                                     sims=filter_sims(styled, pool, np.arange(n)),
                                     threshold=-1.0, style_tag=tag)
                    for tag, styled in zip(("a", "b"), styled_sets)]
        paths, [pool_path] = saved(tmp_path, styled_sets), saved(tmp_path, [pool], "pool")
        copies = 2 * 2 * n * dim * 4   # the float32 texts and videos of every pair
        pool_rows = n * dim * 4   # the loaded pool the copies were gathered from, now read here

        def rows_and_one_epoch():
            rows, _ = build_training_arrays(gen_sets, paths, pool_path)
            train_epochs(init_adapter(dim), gen_sets, rows, mode="mixed",
                         config=TrainConfig(batch_size=64, epochs=1, queue_capacity=128), seed=1)

        assert traced_peak(rows_and_one_epoch) < copies + pool_rows

    def test_pool_with_same_ids_but_other_rows_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        clips = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        styled = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        other = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        gen = GeneratedPairSet(clip_ids=[103, 101], rows=[3, 1],
                               sims=filter_sims(styled, clips, [3, 1]), threshold=-1.0,
                               style_tag="a")
        paths, [clips_path, other_path] = saved(tmp_path, [styled]), saved(tmp_path,
                                                                            [clips, other], "pool")
        build_training_arrays([gen], paths, clips_path)
        with pytest.raises(CountMismatch, match="similarity"):
            build_training_arrays([gen], paths, other_path)

    @pytest.mark.parametrize("drifted", [0, 511, 512, 1099])
    def test_a_drifted_pair_in_any_row_block_is_rejected(self, tmp_path, drifted):
        rng = np.random.default_rng(16)
        clips = random_unit_set(rng, 1100, 4)
        styled = random_unit_set(rng, 1100, 4)
        rows = np.arange(1100)
        sims = filter_sims(styled, clips, rows)
        sims[drifted] += 1e-6
        gen = GeneratedPairSet(clip_ids=rows, rows=rows, sims=sims, threshold=-2.0,
                               style_tag="a")
        with pytest.raises(CountMismatch, match="similarity"):
            build_training_arrays([gen], saved(tmp_path, [styled]),
                                  saved(tmp_path, [clips], "pool")[0])

    @pytest.mark.parametrize("bad_row", [10, 1_000_000, -1])
    def test_row_outside_styled_set_rejected(self, tmp_path, bad_row):
        rng = np.random.default_rng(15)
        clips = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        styled = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        gen = GeneratedPairSet(clip_ids=[103, 109], rows=[3, bad_row],
                               sims=[0.9, 0.8], threshold=0.0, style_tag="a")
        with pytest.raises(RangeOutOfBounds):
            build_training_arrays([gen], saved(tmp_path, [styled]),
                                  saved(tmp_path, [clips], "pool")[0])

    def test_row_naming_another_clip_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        clips = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        styled = random_unit_set(rng, 10, 4, ids=np.arange(100, 110))
        gen = GeneratedPairSet(clip_ids=[103, 102], rows=[3, 1],
                               sims=[0.9, 0.8], threshold=0.0, style_tag="a")
        with pytest.raises(CountMismatch):
            build_training_arrays([gen], saved(tmp_path, [styled]),
                                  saved(tmp_path, [clips], "pool")[0])

    def test_reading_half_a_sets_rows_peaks_under_the_set(self, tmp_path):
        # the rows are read back one block at a time: a whole-set load holds every row
        rng = np.random.default_rng(24)
        n, dim = 16384, 64
        pool = random_unit_set(rng, n, dim)
        styled = random_unit_set(rng, n, dim, ids=pool.ids)
        kept = np.arange(0, n, 2)
        gen = GeneratedPairSet(clip_ids=pool.ids[kept], rows=kept,
                               sims=filter_sims(styled, pool, kept), threshold=-1.0,
                               style_tag="a")
        paths, [pool_path] = saved(tmp_path, [styled]), saved(tmp_path, [pool], "pool")
        whole_set = n * dim * 4
        used_clips = len(kept) * dim * 4   # the pool rows the pairs use, read back as well
        assert traced_peak(lambda: load_embeddings(paths[0])) > whole_set
        assert traced_peak(lambda: build_training_arrays([gen], paths, pool_path)) \
            < whole_set + used_clips

    def test_peak_beyond_the_rows_grows_by_at_most_16_bytes_a_pair(self, tmp_path):
        # every index temporary is freed before the row arrays are made, so past them a
        # pair adds its clip index and, while its style is read, its place in the read order
        rng = np.random.default_rng(27)
        n, dim = 16384, 64
        pool = random_unit_set(rng, n, dim)
        styled_sets = [random_unit_set(rng, n, dim, ids=pool.ids) for _ in range(2)]
        paths, [pool_path] = saved(tmp_path, styled_sets), saved(tmp_path, [pool], "pool")
        kept = [np.sort(rng.choice(n, n * 3 // 4, replace=False)) for _ in styled_sets]

        def beyond_the_rows(step):
            gen_sets = [GeneratedPairSet(clip_ids=pool.ids[rows[::step]], rows=rows[::step].copy(),
                                         sims=filter_sims(styled, pool, rows[::step]),
                                         threshold=-1.0, style_tag=tag)
                        for tag, styled, rows in zip(("a", "b"), styled_sets, kept)]
            pairs = sum(len(gen) for gen in gen_sets)
            used = len(np.unique(np.concatenate([gen.clip_ids for gen in gen_sets])))
            peak = traced_peak(lambda: build_training_arrays(gen_sets, paths, pool_path))
            return peak - (pairs + used) * dim * 4, pairs

        (quarter, few), (whole, many) = beyond_the_rows(4), beyond_the_rows(1)
        assert (whole - quarter) / (many - few) <= 16


def test_train_peak_grows_with_the_used_clips_not_with_unused_pool_rows(tmp_path):
    # the same pairs against pools of 4,096 and 16,384 clips: only the clips the pairs use
    # are read in, so the 12,288 unused rows add their ids but none of their floats
    rng = np.random.default_rng(26)
    n, dim, extra = 4096, 64, 12_288
    styled = random_unit_set(rng, n, dim)
    pool = random_unit_set(rng, n + extra, dim)
    kept = np.arange(0, n, 2)
    gen = GeneratedPairSet(clip_ids=kept, rows=kept, sims=filter_sims(styled, pool, kept),
                           threshold=-1.0, style_tag="a", total_candidates=n)
    write_generated_pairs(gen, tmp_path / "pairs.jsonl")
    [styled_path] = saved(tmp_path, [styled])
    peaks = []
    for size in (n, n + extra):
        [pool_path] = saved(tmp_path, [EmbeddingSet(ids=pool.ids[:size], data=pool.data[:size],
                                                    normalized=True)], f"pool{size}")
        argv = ["train", "--pool", str(pool_path), "--styled", str(styled_path), "--pairs",
                str(tmp_path / "pairs.jsonl"), "--out", str(tmp_path / f"adapter{size}.iemb"),
                "--batch-size", "64", "--epochs", "1"]

        def train_command():
            assert cli.main(argv) == 0

        peaks.append(traced_peak(train_command))
    pair_rows = 2 * len(kept) * dim * 4   # each pair's float32 styled row and clip row
    assert peaks[0] > pair_rows
    assert peaks[1] - peaks[0] < extra * dim * 4 // 4


def test_adapter_copy_keeps_every_field_and_owns_its_heads():
    model = random_model(np.random.default_rng(3), 5, 4)
    model.tau, model.step_count = 0.07, 9
    twin = model.copy()
    for field in fields(AdapterModel):
        assert np.array_equal(getattr(twin, field.name), getattr(model, field.name)), field.name
    assert not np.shares_memory(twin.text_head, model.text_head)
    assert not np.shares_memory(twin.video_head, model.video_head)


class TestAdapterPersistence:
    def test_round_trip_quantizes_to_float32(self, tmp_path):
        rng = np.random.default_rng(16)
        model = random_model(rng, 6, 4)
        model.step_count = 77
        path = tmp_path / "adapter.iemb"
        save_adapter(model, path)
        back = load_adapter(path)
        assert np.array_equal(back.text_head,
                              model.text_head.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.video_head,
                              model.video_head.astype(np.float32).astype(np.float64))
        assert back.tau == model.tau
        assert back.step_count == 77
