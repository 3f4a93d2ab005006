"""Span and count recording around the public functions of stylepair.

`Tracer.install()` replaces each function named in WRAPPED, in every
stylepair module that holds a reference to it, with a wrapper that records
a span (name, start, end, parent, run id) and counts measured at the same
boundary. Spans stay in memory until `dump()`. Wrapped functions are only
ever entered from the main thread (the program's worker threads run inner
helpers), so one span stack suffices.

`layer_metrics()` turns dumped runs into the per-layer metrics that
BENCHMARK.json lists.
"""

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

WRAPPED = {
    "synthgen": ("generate", "write_dataset", "read_truth"),
    "embedcore": ("load_embeddings", "save_embeddings", "pairwise_dots"),
    "matcher": ("match_exclusive", "write_pseudo_pairs"),
    "styler": ("fit_style", "save_style", "generate_styled", "filter_pairs",
               "write_generated_pairs"),
    "trainer": ("build_training_arrays", "train_epochs", "plan_epoch", "train",
                "info_nce_loss", "batch_projections", "save_adapter", "write_loss_log"),
    "evaluator": ("rank_queries",),
    "cli": ("main", "run_pipeline"),
}

# span of the harness's own output analysis; kept so no layer's self time absorbs it
ANALYSIS = "perfbench.analysis"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else default


class Tracer:
    """Records spans and counts for one run (one process, or one set-up)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # [name, start, end, parent index or -1, attrs]
        self.counts = {}     # name -> summed value
        self.samples = {}    # name -> list of per-call values
        self._stack = []     # indices of open spans
        self._frames = []    # per open span: scratch data shared with child hooks
        self._restore = []   # (module, attribute, original)

    # ---- recording ----

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def _open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self._stack.append(len(self.spans) - 1)
        self._frames.append({})

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        return self._frames.pop()

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        self._open(name, attrs)
        try:
            yield self._frames[-1]
        finally:
            self._close()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # ---- installation ----

    def install(self):
        """Wrap every function in WRAPPED wherever a stylepair module binds it."""
        for short in WRAPPED:
            importlib.import_module(f"stylepair.{short}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "stylepair" or n.startswith("stylepair.")]
        for short, names in WRAPPED.items():
            mod = sys.modules[f"stylepair.{short}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {"mode": kwargs.get("mode")} if name == "trainer.train_epochs" else None
            parent = self.parent_name()
            self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                frame = self._close()
            if hook is not None:
                hook(self, frame, parent, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans,
                "counts": self.counts, "samples": self.samples}


# ---- counts taken at the wrapped boundaries ----


def _load_hook(tr, frame, parent, args, kwargs, result):
    tr.add("embedcore.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _save_hook(tr, frame, parent, args, kwargs, result):
    tr.add("embedcore.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _dots_hook(tr, frame, parent, args, kwargs, result):
    m, d = _arg(args, kwargs, 0, "a").shape
    n = _arg(args, kwargs, 1, "b").shape[0]
    tr.add("embedcore.pairwise_dots.flop", 2 * m * n * d)
    tr.add("embedcore.pairwise_dots.out_bytes", m * n * 8)
    tr.sample("embedcore.pairwise_dots.out_bytes", m * n * 8)
    if parent == "matcher.match_exclusive":
        # handed to the matcher hook, which dies with the enclosing frame
        tr._frames[-1]["sims"] = result


def _match_hook(tr, frame, parent, args, kwargs, result):
    """Count queries whose chosen clip lies in their top-k shortlist.

    A query is served from its shortlist exactly when its chosen clip ranks
    below k in the matcher's order (similarity descending, ties to the
    lower column), so the count follows from the similarity matrix and the
    output alone.
    """
    import numpy as np

    from stylepair import matcher

    sims = frame.get("sims")
    order = _arg(args, kwargs, 2, "order", matcher.ORDER_QUERY_ID)
    if sims is None or order != matcher.ORDER_QUERY_ID:
        return
    with tr.span(ANALYSIS):
        clips = _arg(args, kwargs, 1, "clips")
        k = _arg(args, kwargs, 3, "shortlist_k", matcher.DEFAULT_SHORTLIST_K)
        k = max(1, min(k, clips.count))
        cols = clips.row_for_id(result.clip_ids)
        chosen = result.sims
        hits = 0
        for lo in range(0, len(cols), 256):
            block = sims[lo:lo + 256]
            s = chosen[lo:lo + 256, None]
            c = cols[lo:lo + 256, None]
            before = np.arange(block.shape[1])[None, :] < c
            rank = (block > s).sum(axis=1) + ((block == s) & before).sum(axis=1)
            hits += int((rank < k).sum())
        tr.add("matcher.shortlist_hits", hits)
        tr.add("matcher.queries_matched", len(cols))


def _styled_hook(tr, frame, parent, args, kwargs, result):
    tr.add("styler.styled_rows", result.count)


def _filter_hook(tr, frame, parent, args, kwargs, result):
    tr.add("styler.generated_pairs", len(result))
    tr.sample("styler.retention", len(result) / result.total_candidates)


def _rank_hook(tr, frame, parent, args, kwargs, result):
    tr.add("evaluator.queries_ranked", len(result))


def _nce_hook(tr, frame, parent, args, kwargs, result):
    """Matmul flop of one loss-and-gradient step, from B, queue length and dims."""
    model = _arg(args, kwargs, 0, "model")
    b = _arg(args, kwargs, 1, "batch_texts").shape[0]
    queue = _arg(args, kwargs, 3, "queue")
    cols = b + (len(queue) if queue is not None else 0)
    d, p = model.dim, model.proj_dim
    # two projections, two logit products, four gradient products, two weight grads
    flop = 4 * b * d * p + 4 * b * p * cols + 4 * b * cols * p + 4 * b * b * p + 4 * p * b * d
    tr.add("trainer.steps", 1)
    tr.add("trainer.info_nce_loss.flop", flop)
    tr.sample("trainer.info_nce_loss.flop", flop)


_HOOKS = {
    "embedcore.load_embeddings": _load_hook,
    "embedcore.save_embeddings": _save_hook,
    "embedcore.pairwise_dots": _dots_hook,
    "matcher.match_exclusive": _match_hook,
    "styler.generate_styled": _styled_hook,
    "styler.filter_pairs": _filter_hook,
    "evaluator.rank_queries": _rank_hook,
    "trainer.info_nce_loss": _nce_hook,
}


# ---- per-layer metrics from dumped runs ----

# (metric, unit) in the order BENCHMARK.json lists them; trace_overhead_s is
# filled in by the harness, which has the untraced timings
LAYER_METRICS = [(f"{mod}.{fn}_s", "s") for mod, fns in WRAPPED.items() for fn in fns] + [
    ("matcher.self_s", "s"),
    ("embedcore.pairwise_dots.matcher_s", "s"),
    ("embedcore.pairwise_dots.evaluator_s", "s"),
    ("embedcore.pairwise_dots_out_mb_computed", "MB"),
    ("embedcore.pairwise_dots.out_mb_total_computed", "MB"),
    ("embedcore.pairwise_dots.gflop_computed", "Gflop"),
    ("matcher.shortlist_hits", "count"),
    ("matcher.queries_matched", "count"),
    ("matcher.shortlist_hit_ratio", "ratio"),
    ("styler.styled_rows", "count"),
    ("styler.generated_pairs", "count"),
    ("styler.retention_mean", "ratio"),
    ("styler.retention_min", "ratio"),
    ("styler.retention_max", "ratio"),
    ("trainer.steps", "count"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.self_s", "s"),
    ("trainer.train_epochs.in_style_s", "s"),
    ("trainer.train_epochs.mixed_s", "s"),
    ("trainer.info_nce_loss.gflop_computed", "Gflop"),
    ("trainer.info_nce_loss.mflop_per_step_computed", "Mflop"),
    ("evaluator.queries_ranked", "count"),
    ("embedcore.bytes_read", "B"),
    ("embedcore.bytes_written", "B"),
    ("cli.self_s", "s"),
    ("trace_overhead_s", "s"),
]


def _run_metrics(run: dict) -> dict:
    spans = run["spans"]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    out = {}

    def total(name, pick=lambda i: True):
        return sum(dur[i] for i, s in enumerate(spans) if s[0] == name and pick(i))

    def self_time(*names):
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] in names)

    for name in {s[0] for s in spans} - {ANALYSIS}:
        out[f"{name}_s"] = total(name)
    if any(s[0] == "matcher.match_exclusive" for s in spans):
        out["matcher.self_s"] = self_time("matcher.match_exclusive")
    for caller in ("matcher", "evaluator"):
        prefix = f"{caller}."
        out[f"embedcore.pairwise_dots.{caller}_s"] = total(
            "embedcore.pairwise_dots",
            lambda i: spans[i][3] >= 0 and spans[spans[i][3]][0].startswith(prefix))
    if any(s[0] == "trainer.train_epochs" for s in spans):
        out["trainer.self_s"] = self_time("trainer.train_epochs", "trainer.train")
        for mode in ("in_style", "mixed"):
            out[f"trainer.train_epochs.{mode}_s"] = total(
                "trainer.train_epochs", lambda i: spans[i][4].get("mode") == mode)
        # one step runs from its loss call to the next one (or the end of train)
        steps = []
        for t, s in enumerate(spans):
            if s[0] != "trainer.train":
                continue
            starts = [x[1] for x in spans if x[0] == "trainer.info_nce_loss" and x[3] == t]
            steps += [b - a for a, b in zip(starts, starts[1:] + [s[2]])]
        if steps:
            out["trainer.step_ms_p50"] = 1e3 * statistics.median(steps)
    if any(s[0] == "cli.main" for s in spans):
        out["cli.self_s"] = self_time("cli.main", "cli.run_pipeline")

    c, smp = run["counts"], run["samples"]
    for name in ("matcher.shortlist_hits", "matcher.queries_matched", "styler.styled_rows",
                 "styler.generated_pairs", "trainer.steps", "evaluator.queries_ranked",
                 "embedcore.bytes_read", "embedcore.bytes_written"):
        if name in c:
            out[name] = c[name]
    if c.get("matcher.queries_matched"):
        out["matcher.shortlist_hit_ratio"] = c["matcher.shortlist_hits"] / c["matcher.queries_matched"]
    if "embedcore.pairwise_dots.flop" in c:
        out["embedcore.pairwise_dots.gflop_computed"] = c["embedcore.pairwise_dots.flop"] / 1e9
        out["embedcore.pairwise_dots.out_mb_total_computed"] = c["embedcore.pairwise_dots.out_bytes"] / 1e6
        out["embedcore.pairwise_dots_out_mb_computed"] = max(smp["embedcore.pairwise_dots.out_bytes"]) / 1e6
    if "trainer.info_nce_loss.flop" in c:
        out["trainer.info_nce_loss.gflop_computed"] = c["trainer.info_nce_loss.flop"] / 1e9
        out["trainer.info_nce_loss.mflop_per_step_computed"] = (
            statistics.median(smp["trainer.info_nce_loss.flop"]) / 1e6)
    if "styler.retention" in smp:
        ret = smp["styler.retention"]
        out["styler.retention_mean"] = statistics.fmean(ret)
        out["styler.retention_min"] = min(ret)
        out["styler.retention_max"] = max(ret)
    return out


def layer_metrics(groups) -> dict:
    """Per-layer values from groups of dumped runs (e.g. set-ups, pipeline runs).

    Within a group a metric is the median over its runs; a metric present in
    several groups is the sum of their medians, so embedcore I/O covers one
    set-up plus one pipeline run. Metrics no run produced are absent.
    """
    out = {}
    for runs in groups:
        per_run = [_run_metrics(r) for r in runs]
        for name in {k for m in per_run for k in m}:
            vals = [m[name] for m in per_run if name in m]
            out[name] = out.get(name, 0) + statistics.median(vals)
    return out
