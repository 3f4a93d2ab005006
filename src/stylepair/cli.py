"""Command-line pipeline driver.

One subcommand per stage (synth, match, stylize, filter, train, eval,
sweep) plus `pipeline`, which runs the same stage functions end to end and
compares the trained adapter against the zero-shot baseline (and in-style
against mixed scheduling when more than one style is present).

Every command runs with numpy's OpenBLAS held at one thread. Some
products' bits depend on the thread count, so this makes a subcommand
write the bytes its stage writes in `pipeline`.

Logs are line-oriented key=value on stderr; machine-readable results go
to stdout or files. Exit codes: 0 success, 1 a StylePairError, OS error or
failed allocation, 2 usage/config error or a missing input; anything else
is a bug's traceback.
"""

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import container, evaluator, matcher, styler, synthgen, trainer
from .embedcore import for_each, hold_freed_heap, load_embeddings, one_blas_thread
from .errors import ConfigInvalid, StylePairError
from .synthgen import SynthConfig, dataset_paths

log = logging.getLogger("stylepair")

DEFAULT_SWEEP_GRID = "0.26,0.27,0.28,0.29,0.30"
_SEEDED_COMMANDS = ("synth", "stylize", "train", "pipeline")   # the stages that draw randomness
_OPTION_NAME = {"n_styles": "styles"}   # config fields whose option has another name
# pipeline options that change no output byte, and `styles`, which is n_styles there;
# report.json's config records every other one
_BYTE_NEUTRAL = ("command", "config", "workdir", "data_dir", "threads", "styles")


def _add_common(parser: argparse.ArgumentParser, seeded: bool) -> None:
    parser.add_argument("--config", help="JSON file with defaults; explicit flags win")
    if seeded:
        parser.add_argument("--seed", type=int, default=7)


def _add_config_options(parser: argparse.ArgumentParser, config_class) -> None:
    """One option per field of the dataclass `config_class`, defaulting to the field's default."""
    for f in fields(config_class):
        if f.name != "seed":   # a common option
            dest = _OPTION_NAME.get(f.name, f.name)
            parser.add_argument("--" + dest.replace("_", "-"), type=type(f.default),
                                default=f.default)


def _add_stylize_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ridge-lambda", type=float, default=styler.DEFAULT_RIDGE_LAMBDA)
    parser.add_argument("--noise-sigma", type=float, default=styler.DEFAULT_NOISE_SIGMA)


def _add_filter_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float, default=styler.DEFAULT_THRESHOLD)


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Assemble the CLI; `defaults` (from --config) seed every subcommand.

    Subparsers parse into a fresh namespace, so config-file defaults must
    be installed on each of them, not just the root parser.
    """
    parser = argparse.ArgumentParser(
        prog="stylepair",
        description="Build styled text-video pairs from unpaired text and train retrieval adapters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("synth", help="generate the seeded synthetic benchmark")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_options(p, SynthConfig)

    p = sub.add_parser("match", help="exclusive pseudo-matching of queries to pool clips")
    p.add_argument("--queries", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True, help="pseudo-pair JSONL path")

    p = sub.add_parser("stylize", help="fit the style map and caption the whole pool")
    p.add_argument("--queries", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--pairs", required=True, help="pseudo-pair JSONL from `match`")
    p.add_argument("--style-out", required=True, help="style transform output path")
    p.add_argument("--styled-out", required=True, help="styled caption embeddings path")
    _add_stylize_options(p)
    p.add_argument("--tag", default="")

    p = sub.add_parser("filter", help="keep styled captions similar to their own clip")
    p.add_argument("--styled", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True, help="generated-pair JSONL path")
    _add_filter_options(p)

    p = sub.add_parser("sweep", help="retention counts over a threshold grid")
    p.add_argument("--styled", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--thresholds", default=DEFAULT_SWEEP_GRID,
                   help="comma-separated ascending thresholds")
    p.add_argument("--out", help="optional JSON output path")

    p = sub.add_parser("train", help="train adapter heads on generated pairs")
    p.add_argument("--pool", required=True)
    p.add_argument("--styled", action="append", required=True,
                   help="styled caption embeddings, once per style")
    p.add_argument("--pairs", action="append", required=True,
                   help="generated-pair JSONL, once per style (same order)")
    p.add_argument("--out", required=True, help="adapter output path")
    p.add_argument("--loss-log", help="optional CSV loss log path")
    p.add_argument("--mode", choices=[trainer.MODE_IN_STYLE, trainer.MODE_MIXED],
                   default=trainer.MODE_IN_STYLE)
    _add_config_options(p, trainer.TrainConfig)

    p = sub.add_parser("eval", help="recall and median-rank retrieval report")
    p.add_argument("--captions", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--adapter", help="adapter to project through; without it, raw cosine")
    p.add_argument("--out", help="optional JSON output path")
    p.add_argument("--no-ranks", action="store_true", help="omit per-query ranks")
    p.add_argument("--ranks-csv", help="optional per-query rank CSV path")

    p = sub.add_parser("pipeline", help="run every stage end to end and compare")
    p.add_argument("--workdir", required=True)
    p.add_argument("--data-dir", help="reuse an existing dataset directory")
    _add_filter_options(p)
    _add_stylize_options(p)
    _add_config_options(p, SynthConfig)
    _add_config_options(p, trainer.TrainConfig)
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes for match, stylize and training, at most the "
                        "CPUs this process may run on; 0 = all of them")

    for name, target in sub.choices.items():
        _add_common(target, seeded=name in _SEEDED_COMMANDS)
    if defaults:
        _install_config(sub.choices.values(), defaults)
    return parser


def _install_config(parsers, values: dict) -> None:
    """Make each --config value the default of its option on every subcommand that has it.

    argparse never converts defaults, so each value is checked and
    converted here. A key that names no optional flag is an error.
    """
    known = set()
    for parser in parsers:
        options = {a.dest: a for a in parser._actions
                   if a.option_strings and not a.required and a.default is not argparse.SUPPRESS}
        mine = {key: _config_value(options[key], key, value)
                for key, value in values.items() if key in options}
        parser.set_defaults(**mine)
        known.update(mine)
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigInvalid(f"config key {unknown[0]!r} names no optional flag")


def _config_value(action, key, value):
    """`value` converted as argparse converts the flag, or ConfigInvalid naming `key`."""
    if action.nargs == 0:   # a switch
        ok = isinstance(value, bool)
    else:
        kinds = {int: int, float: (int, float)}.get(action.type, str)
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    if not ok or (action.choices is not None and value not in action.choices):
        raise ConfigInvalid(f"config key {key!r}: {value!r} is not a valid "
                            f"{action.option_strings[0]} value")
    try:
        return action.type(value) if action.type else value
    except OverflowError as exc:   # an int too large for a float flag
        raise ConfigInvalid(f"config key {key!r}: {exc}") from exc


# option -> (rule its value must meet, the rule in words); a subcommand without the option skips it
_KNOB_RULES = {
    "seed": (lambda v: v >= 0, "be non-negative"),
    "threads": (lambda v: v >= 0, "be 0 (all CPUs) or positive"),
    "threshold": (lambda v: -1.0 < v < 1.0, "lie strictly in (-1, 1)"),
    "ridge_lambda": (lambda v: math.isfinite(v) and v >= 0.0, "be finite and non-negative"),
    "noise_sigma": (lambda v: math.isfinite(v) and v >= 0.0, "be finite and non-negative"),
    "tau": (lambda v: math.isfinite(v) and v > 0.0, "be finite and positive"),
    "learning_rate": (lambda v: math.isfinite(v) and v > 0.0, "be finite and positive"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "queue_capacity": (lambda v: v >= 0, "be non-negative"),
    "epochs": (lambda v: v >= 1, "be at least 1"),
    "batch_size": (lambda v: v >= 2, "be at least 2"),
}


def _validate_knobs(args) -> None:
    """Reject a bad numeric option before any stage reads an input or writes a file."""
    for name, (ok, rule) in _KNOB_RULES.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise ConfigInvalid(f"{name} {value} must {rule}")


_INPUTS = ("queries", "pool", "pairs", "styled", "captions", "candidates", "truth", "adapter",
           "config")
_OUTPUTS = ("out", "style_out", "styled_out", "loss_log", "ranks_csv")


def _validate_outputs(args) -> None:
    """Reject an output path of one command that names one of its inputs or another output,
    before any input is read: writing it would replace that file."""
    named = {}
    for name in (*_INPUTS, *_OUTPUTS):
        paths = getattr(args, name, None)
        for path in paths if isinstance(paths, list) else [paths]:   # lists on train
            if path is not None:
                first = named.setdefault(os.path.realpath(path), name)
                if first != name and name in _OUTPUTS:
                    raise ConfigInvalid(f"{first} and {name} name one file: {path}")


def _from_options(config_class, args):
    """The dataclass `config_class` built from the parsed options."""
    return config_class(**{f.name: getattr(args, _OPTION_NAME.get(f.name, f.name))
                           for f in fields(config_class)})


def _emit_json(payload: dict, path: str | None) -> None:
    """Print `payload` as sorted, indented JSON, and also write it to `path` if given.

    NaN and infinities are refused: they are not JSON.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with container.atomic_write(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)


# ---- stages: one function each, shared by the subcommands and `pipeline` ----


def match_stage(queries, pool, outs, query_sets, clip_set,
                threads) -> list[matcher.PseudoPairSet]:
    """Match each query set against the pool, at once in forked workers.

    Pair files and log lines follow in query-set order when all are done.
    """
    results = for_each(queries, lambda q: matcher.match_exclusive(q, pool), threads)
    for pairs, out, query_set in zip(results, outs, query_sets):
        pairs.query_set = query_set
        pairs.clip_set = clip_set
        matcher.write_pseudo_pairs(pairs, out)
        log.info("stage=match pairs=%d mean_sim=%.4f", len(pairs), float(pairs.sims.mean()))
    return results


def stylize_stage(args, queries, pool, pairs, style_outs, styled_outs, tags, threads) -> None:
    """Check each query set's pseudo pairs against it and the pool, fit one style per set and
    save them all, then caption the pool in every style at once into the files `styled_outs`,
    its row blocks spread over `threads` worker processes."""
    styles = []
    for style_queries, pseudo, tag in zip(queries, pairs, tags):
        styler.check_pair_sims(style_queries.data, style_queries.row_for_id(pseudo.query_ids),
                               pool.data, pool.row_for_id(pseudo.clip_ids), pseudo.sims,
                               f"pseudo pairs of {pseudo.query_set!r}")
        styles.append(styler.fit_style(pseudo, style_queries, pool,
                                       ridge_lambda=args.ridge_lambda,
                                       noise_sigma=args.noise_sigma, style_tag=tag))
    for style, style_out in zip(styles, style_outs):
        styler.save_style(style, style_out)
    styler.generate_styled_sets(pool, styles, args.seed, styled_outs, workers=threads)
    for tag in tags:
        log.info("stage=stylize tag=%s styled=%d", tag, pool.count)


def filter_stage(args, styled_path, pool_path, out, tag) -> styler.GeneratedPairSet:
    gen = styler.filter_pairs(styled_path, pool_path, args.threshold)
    gen.style_tag = tag
    if len(gen) == 0:
        log.warning("stage=filter warning=empty_generated_pair_set tag=%s threshold=%g",
                    tag, args.threshold)
    styler.write_generated_pairs(gen, out)
    return gen


def train_stage(args, pool_path, gen_sets, styled_paths, runs, threads):
    """Train one fresh adapter per (mode, adapter path, loss-log path or None) in `runs`.

    Each pair's styled row is read from its style's file at `styled_paths`,
    and each clip a pair uses from the pool file at `pool_path`
    (trainer.build_training_arrays). The runs share only read-only inputs, so
    they train at once on `threads` forked workers; files and log lines
    follow in `runs` order when all are done.
    """
    gather, dim = trainer.build_training_arrays(gen_sets, styled_paths, pool_path)
    config = _from_options(trainer.TrainConfig, args)

    def fit(mode):
        return trainer.train_epochs(trainer.init_adapter(dim=dim, tau=config.tau), gen_sets,
                                    gather, mode=mode, config=config, seed=args.seed)

    hold_freed_heap()   # else each step's matrices may fault in afresh
    results = for_each([mode for mode, _, _ in runs], fit, threads)
    for (mode, out, loss_log), (model, rows) in zip(runs, results):
        trainer.save_adapter(model, out)
        if loss_log:
            trainer.write_loss_log(rows, loss_log)
        log.info("stage=train mode=%s steps=%d first_loss=%.6f last_loss=%.6f",
                 mode, len(rows), rows[0].loss, rows[-1].loss)
    return results


def eval_stage(captions, candidates, truth, model=None,
               ranks_csv=None) -> evaluator.RetrievalReport:
    ranks = evaluator.rank_queries(captions, candidates, truth, model=model)
    rep = evaluator.report(ranks)
    if ranks_csv:
        evaluator.write_ranks_csv(rep, ranks_csv)
    return rep


# ---- subcommands: load the inputs, then run the stage ----


def cmd_synth(args) -> int:
    cfg = _from_options(SynthConfig, args)
    ds = synthgen.generate(cfg)
    paths = synthgen.write_dataset(ds, args.out)
    log.info("stage=synth styles=%d queries_per_style=%d pool=%d seed=%d",
             cfg.n_styles, cfg.queries_per_style, cfg.pool_size, cfg.seed)
    for path in [*paths["queries"], *paths["test_captions"],
                 *(paths[key] for key in ("pool", "test_clips", "truth", "latent"))]:
        log.info("stage=synth wrote=%s", os.path.basename(path))
    return 0


def cmd_match(args) -> int:
    match_stage([load_embeddings(args.queries)], load_embeddings(args.pool), [args.out],
                [os.path.basename(args.queries)], os.path.basename(args.pool), threads=1)
    return 0


def cmd_stylize(args) -> int:
    queries = load_embeddings(args.queries)
    pool = load_embeddings(args.pool)
    pseudo = matcher.read_pseudo_pairs(args.pairs)
    stylize_stage(args, [queries], pool, [pseudo], [args.style_out], [args.styled_out],
                  [args.tag], threads=1)
    return 0


def cmd_filter(args) -> int:
    filter_stage(args, args.styled, args.pool, args.out, "")
    return 0


def _threshold_grid(text: str) -> list[float]:
    """The --thresholds grid: a non-empty ascending list of valid --threshold values, with no
    empty entry."""
    ok, rule = _KNOB_RULES["threshold"]
    try:
        grid = [float(v) for v in text.split(",")]   # an empty entry is a ValueError
    except ValueError as exc:
        raise ConfigInvalid(f"thresholds {text!r}: {exc}") from exc
    if not grid or grid != sorted(grid) or not all(map(ok, grid)):
        raise ConfigInvalid(f"thresholds {text!r} must be a non-empty ascending list of "
                            f"values that {rule}")
    return grid


def cmd_sweep(args) -> int:
    rows = styler.threshold_sweep(args.styled, args.pool, _threshold_grid(args.thresholds))
    _emit_json({"rows": [asdict(r) for r in rows]}, args.out)
    return 0


def cmd_train(args) -> int:
    if len(args.pairs) != len(args.styled):
        raise ConfigInvalid("--pairs and --styled must be given once per style, in order")
    gen_sets = [styler.read_generated_pairs(path) for path in args.pairs]
    for i, gen in enumerate(gen_sets):
        gen.style_tag = gen.style_tag or f"style{i}"
    train_stage(args, args.pool, gen_sets, args.styled, [(args.mode, args.out, args.loss_log)],
                threads=1)
    return 0


def cmd_eval(args) -> int:
    captions = load_embeddings(args.captions)
    candidates = load_embeddings(args.candidates)
    truth = synthgen.read_truth(args.truth)
    model = trainer.load_adapter(args.adapter) if args.adapter else None
    rep = eval_stage(captions, candidates, truth, model, args.ranks_csv)
    _emit_json(rep.to_dict(include_ranks=not args.no_ranks), args.out)
    return 0


def _mean_section(reports: list[evaluator.RetrievalReport]) -> dict:
    """Each style's report, and the mean over the styles of every float field."""
    return {"per_style": [r.to_dict(include_ranks=False) for r in reports],
            **{f"mean_{f.name}": float(np.mean([getattr(r, f.name) for r in reports]))
               for f in fields(evaluator.RetrievalReport) if f.type is float}}


def run_pipeline(args) -> dict:
    """Synthesize a dataset unless the workdir holds one, run all stages, return the report.

    The run uses the synth config in the dataset's latent header. Every
    synth flag must match it, and so must --seed for the workdir's own
    dataset. A --data-dir without that file (real embeddings) is taken as
    the flags describe it. The test sets and the truth are loaded, and
    checked, before any stage writes, but every eval, zero-shot included,
    runs after training, so no eval's products sit under training's rows.
    Stylize writes the styled sets straight to their files, and then the
    pool and query sets are dropped: filter streams the styled and pool
    files block by block, and training reads back only the rows its pairs
    use.
    """
    cfg = _from_options(SynthConfig, args)
    cfg.validate()
    workdir = args.workdir
    os.makedirs(workdir, exist_ok=True)
    data_dir = args.data_dir or os.path.join(workdir, "data")
    latent = dataset_paths(data_dir, 0)["latent"]   # written last, so it marks a whole dataset
    if not (args.data_dir or os.path.exists(latent)):
        synthgen.write_dataset(synthgen.generate(cfg), data_dir)
        log.info("stage=pipeline synthesized=%s", os.path.basename(data_dir))
    data_seed = None
    if os.path.exists(latent):
        cfg = synthgen.read_latent_config(latent, cfg, check_seed=not args.data_dir)
        data_seed = cfg.seed
    paths = dataset_paths(data_dir, cfg.n_styles)

    pool = load_embeddings(paths["pool"])
    test_clips = load_embeddings(paths["test_clips"])
    truth = synthgen.read_truth(paths["truth"])
    queries = [load_embeddings(p) for p in paths["queries"]]
    test_captions = [load_embeddings(p) for p in paths["test_captions"]]
    for tc in test_captions:   # eval runs last, so its inputs are checked before any stage
        evaluator.truth_columns(tc, test_clips, truth)

    def evaluate(model=None) -> dict:
        return _mean_section([eval_stage(tc, test_clips, truth, model)
                              for tc in test_captions])

    tags = [f"style{s}" for s in range(len(queries))]
    pseudo_sets = match_stage(queries, pool,
                              [os.path.join(workdir, f"pseudo_pairs_{t}.jsonl") for t in tags],
                              [f"queries_{t}" for t in tags], "pool", args.threads)
    styled_paths = [os.path.join(workdir, f"styled_{t}.iemb") for t in tags]
    stylize_stage(args, queries, pool, pseudo_sets,
                  [os.path.join(workdir, f"style_{t}.iemb") for t in tags],
                  styled_paths, tags, args.threads)
    del queries, pool   # filter and training read the rows they use from the files
    gen_sets = [filter_stage(args, path, paths["pool"],
                             os.path.join(workdir, f"generated_pairs_{tag}.jsonl"), tag)
                for tag, path in zip(tags, styled_paths)]

    modes = [trainer.MODE_IN_STYLE] + ([trainer.MODE_MIXED] if cfg.n_styles > 1 else [])
    trained = train_stage(args, paths["pool"], gen_sets, styled_paths, [
        (mode, os.path.join(workdir, f"adapter_{mode}.iemb"),
         os.path.join(workdir, f"loss_{mode}.csv")) for mode in modes], args.threads)

    report = {
        # the options, the dataset's synth config over them, and the run's own seed
        "config": {**{k: v for k, v in vars(args).items() if k not in _BYTE_NEUTRAL},
                   **asdict(cfg), "seed": args.seed, "data_seed": data_seed,
                   "match_order": matcher.ORDER_QUERY_ID},
        "pair_counts": {
            "pseudo": [len(p) for p in pseudo_sets],
            "generated": [len(g) for g in gen_sets],
        },
        "zero_shot": evaluate(),
    }
    for mode, (model, rows) in zip(modes, trained):
        section = evaluate(model)
        section["steps"] = len(rows)
        section["final_loss"] = rows[-1].loss
        report[mode] = section
    return report


def cmd_pipeline(args) -> int:
    report = run_pipeline(args)
    _emit_json(report, os.path.join(args.workdir, "report.json"))
    log.info("stage=pipeline zero_shot_r1=%.2f in_style_r1=%.2f",
             report["zero_shot"]["mean_r1"], report["in_style"]["mean_r1"])
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "match": cmd_match,
    "stylize": cmd_stylize,
    "filter": cmd_filter,
    "sweep": cmd_sweep,
    "train": cmd_train,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}


def _config_values(path: str) -> dict:
    """The JSON object in a --config file; anything else is ConfigInvalid."""
    with open(path, "r", encoding="utf-8") as f:
        try:   # bad UTF-8 and bad JSON are both ValueErrors
            values = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise ConfigInvalid(f"{path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigInvalid(f"{path}: config must be a JSON object")
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        if args.config:   # its values become defaults, so explicit flags still win
            args = build_parser(defaults=_config_values(args.config)).parse_args(argv)
        _validate_knobs(args)
        _validate_outputs(args)
        with one_blas_thread():
            return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        log.error("error=MissingInput detail=%s", exc)
        return 2
    except ConfigInvalid as exc:
        log.error("error=ConfigInvalid detail=%s", exc)
        return 2
    except (StylePairError, OSError) as exc:
        log.error("error=%s detail=%s", type(exc).__name__, exc)
        return 1
    except MemoryError as exc:   # numpy raises a private subclass; name the public type
        log.error("error=MemoryError detail=%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
