"""stylepair benchmark: closed-loop `stylepair pipeline --data-dir` runs.

Usage (from the repository root):

    python3 perfbench/run.py --workload default --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

One client, one run at a time: the benchmark writes the workload's
synthetic dataset (set-up, timed SETUP_REPEATS times), then starts one
fresh `pipeline` process after another until the next one would end past
--seconds (at least two). Every run is checked, and the output hashes of
all runs must agree. --trace 1 alternates untraced and traced runs,
reports per-layer metrics instead of end-to-end ones, and adds one run
with `--threads 1` whose outputs must have the same bytes. The last line of
stdout is the JSON result; see README.md beside this file for every metric.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_OUT = ROOT / ".perfbench-out"

# Why each workload exists is written down in README.md. `smoke` is the
# tiny scale smoke.py uses; it is not a benchmark workload.
WORKLOADS = {
    "default": dict(styles=2, queries_per_style=512, pool_size=8192, epochs=3,
                    queue_capacity=0),
    "match-heavy": dict(styles=2, queries_per_style=2048, pool_size=32768, epochs=3,
                        queue_capacity=0),
    "train-heavy": dict(styles=3, queries_per_style=256, pool_size=16384, epochs=6,
                        queue_capacity=1024),
    "smoke": dict(styles=2, queries_per_style=64, pool_size=1024, epochs=1,
                  queue_capacity=0),
}
BENCH_WORKLOADS = ("default", "match-heavy", "train-heavy")
# The dataset is the same for every workload seed; the seed goes to the
# pipeline's --seed. Datasets drawn from different seeds differ twofold in
# difficulty and in training work, which no bound of 0.25 could absorb.
DATA_SEED = 7
SETUP_REPEATS = 10
MAX_THREADS = 2          # fixed worker count, so results compare across machines
RUN_LIMIT_S = 170.0      # a run must end within 180 s
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]
# Retrieval quality is deterministic per seed but differs between seeds by
# more than any bound allows (README.md), so it is reported by the traced run.
QUALITY = [("r1_in_style", "%"), ("r1_mixed", "%"), ("median_rank_in_style", "rank")]
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "blas_threads": int(os.environ[THREAD_ENV[0]]),
            "nproc": nproc(), "threads": threads, "commit": git_commit(),
            "workload": workload, "seed": seed}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({name: str(threads) for name in THREAD_ENV})
    return env


def file_hashes(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def digest(hashes: dict) -> str:
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def pipeline_argv(cfg: dict, seed: int, data: Path, workdir: Path, threads: int) -> list:
    return ["pipeline", "--workdir", str(workdir), "--data-dir", str(data),
            "--styles", str(cfg["styles"]), "--queries-per-style", str(cfg["queries_per_style"]),
            "--pool-size", str(cfg["pool_size"]), "--epochs", str(cfg["epochs"]),
            "--queue-capacity", str(cfg["queue_capacity"]),
            "--seed", str(seed), "--threads", str(threads)]


def check_report(report: dict, cfg: dict, seed: int) -> str | None:
    """Return why report.json is wrong for this workload, or None."""
    conf = report["config"]
    want = {"n_styles": cfg["styles"], "queries_per_style": cfg["queries_per_style"],
            "pool_size": cfg["pool_size"], "epochs": cfg["epochs"],
            "queue_capacity": cfg["queue_capacity"], "seed": seed}
    for key, value in want.items():
        if conf.get(key) != value:
            return f"report config {key}={conf.get(key)!r}, expected {value!r}"
    counts = report["pair_counts"]
    if counts["pseudo"] != [cfg["queries_per_style"]] * cfg["styles"]:
        return f"pseudo pair counts {counts['pseudo']}"
    if min(counts["generated"]) <= 0:
        return f"generated pair counts {counts['generated']}"
    for section in ("zero_shot", "in_style", "mixed"):
        r1 = report[section]["mean_r1"]
        if not 0.0 <= r1 <= 100.0:
            return f"{section} mean_r1={r1}"
    if report["in_style"]["steps"] <= 0 or report["mixed"]["steps"] <= 0:
        return "a training mode ran no steps"
    return None


def set_up(cfg: dict, work: Path, trace: bool):
    """Generate and write the dataset SETUP_REPEATS times; keep the first copy.

    Returns (data dir, set-up seconds per repeat, identical bytes?, trace dumps).
    """
    from stylepair import synthgen

    from tracer import Tracer

    times, digests, dumps = [], [], []
    config = synthgen.SynthConfig(n_styles=cfg["styles"],
                                  queries_per_style=cfg["queries_per_style"],
                                  pool_size=cfg["pool_size"], seed=DATA_SEED)
    for i in range(SETUP_REPEATS):
        out = work / f"data{i}"
        tracer = Tracer(f"setup-{i}") if trace else None
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            synthgen.write_dataset(synthgen.generate(config), out)
            times.append(time.perf_counter() - start)
        finally:
            if tracer:
                tracer.uninstall()
                dumps.append(tracer.dump())
        digests.append(digest(file_hashes(out)))
        if i:
            shutil.rmtree(out)
    return work / "data0", times, len(set(digests)) == 1, dumps


def run_once(cfg, seed, data, work, index, threads, traced, deadline) -> dict:
    """One fresh `pipeline` process; returns its measurements and checks."""
    workdir = work / f"run{index}"
    result_path = work / f"result{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(result_path), str(int(traced)), "--",
           *pipeline_argv(cfg, seed, data, workdir, threads)]
    run = {"index": index, "threads": threads, "traced": traced, "error": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(threads), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        run["error"] = "timed out"
        return run
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        run["error"] = f"exit code {proc.returncode}: {tail}"
        return run
    measured = json.loads(result_path.read_text())
    for key in ("pipeline_s", "peak_rss_mb", "trace"):
        run[key] = measured[key]
    run["digest"] = digest(file_hashes(workdir))
    run["report"] = json.loads((workdir / "report.json").read_text())
    run["error"] = check_report(run["report"], cfg, seed)
    shutil.rmtree(workdir)
    result_path.unlink()
    run["wall_s"] = time.perf_counter() - start
    return run


def check_hashes(runs: list) -> None:
    """Fail every run whose output hashes differ from the other runs' majority."""
    counts = collections.Counter(r["digest"] for r in runs if r["error"] is None)
    if not counts:
        return
    reference = counts.most_common(1)[0][0]
    for r in runs:
        if r["error"] is None and r["digest"] != reference:
            r["error"] = "output hashes differ from the other runs of this workload and seed"


def timing_line(name: str, unit: str, values: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name} = {statistics.median(values):.6g} {unit} (median of n={n}, max {max(values):.6g}"
    supported = [q for q in (99, 95, 90, 75, 50) if n * (100 - q) / 100 >= 10]
    if supported:
        pct = statistics.quantiles(values, n=100, method="inclusive")[supported[0] - 1]
        line += f", p{supported[0]} {pct:.6g}"
    else:
        line += "; no percentile has ten samples beyond it at this n"
    return line + ")"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict | None:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    cfg = WORKLOADS[workload]
    threads = min(MAX_THREADS, nproc())
    env = environment(workload, seed, threads)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        data, setup_times, setup_same, setup_dumps = set_up(cfg, work, trace)
        runs = []
        batch = [False, True] if trace else [False]
        measure_start = time.perf_counter()
        while True:
            for traced in batch:
                runs.append(run_once(cfg, seed, data, work, len(runs), threads, traced, deadline))
            if any(r["error"] for r in runs[-len(batch):]):
                break
            spent = time.perf_counter() - measure_start
            # at least two runs, so every output has another run to be compared with
            if len(runs) >= 2 and spent + sum(r["wall_s"] for r in runs[-len(batch):]) > seconds:
                break
        measured_runs = list(runs)
        if trace:
            # the determinism contract: --threads 1 must give the same bytes
            runs.append(run_once(cfg, seed, data, work, len(runs), 1, False, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_hashes(runs)
    failed = [r for r in runs if r["error"]]
    for r in failed:
        print(f"run {r['index']} (threads={r['threads']}, traced={r['traced']}) FAILED: "
              f"{r['error']}", flush=True)
    if not setup_same:
        print("set-up FAILED: repeated set-ups wrote different bytes", flush=True)
    timed = [r for r in measured_runs if r["error"] is None and not r["traced"]]
    if not timed:
        print("no measured run succeeded; no result", file=sys.stderr)
        return None
    reference = timed[0]
    print(f"runs attempted={len(runs)} failed={len(failed)} measured={len(timed)} "
          f"outputs_sha256={reference['digest']}", flush=True)

    report = reference["report"]
    quality = {"r1_in_style": report["in_style"]["mean_r1"],
               "r1_mixed": report["mixed"]["mean_r1"],
               "median_rank_in_style": report["in_style"]["mean_median_rank"]}
    print("quality (report.json, deterministic per seed) "
          + " ".join(f"{k}={v:.6g}" for k, v in quality.items()))
    if trace:
        import tracer

        traced = [r for r in runs if r["error"] is None and r["traced"]]
        if not traced:
            print("no traced run succeeded; no result", file=sys.stderr)
            return None
        values = tracer.layer_metrics([setup_dumps, [r["trace"] for r in traced]])
        values["trace_overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced)
                                      - statistics.median(r["pipeline_s"] for r in timed))
        values.update(quality)
        units = tracer.LAYER_METRICS + QUALITY
        TRACE_OUT.mkdir(exist_ok=True)
        out = TRACE_OUT / f"trace-{workload}-seed{seed}.json"
        out.write_text(json.dumps({"env": env, "runs": setup_dumps + [r["trace"] for r in traced]}))
        print(f"spans written to {out.relative_to(ROOT)}", flush=True)
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "pipeline_s": statistics.median(r["pipeline_s"] for r in timed),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed)}
        units = END_TO_END
        print(timing_line("setup_s", "s", setup_times))
        print(timing_line("pipeline_s", "s", [r["pipeline_s"] for r in timed]))

    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
        print(f"metric {name} = {metrics[name]['value']:.6g} {unit}")
    correct = not failed and setup_same
    print(f"verdict workload={workload} seed={seed} correct={str(correct).lower()} "
          f"wall_s={time.perf_counter() - started:.1f}", flush=True)
    return {"correct": correct, "attempted": len(runs), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "stylepair" / "cli.py").is_file():
        print(f"program source not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    # pin BLAS threads before numpy loads, here and in every child
    threads = min(MAX_THREADS, nproc())
    os.environ.update({name: str(threads) for name in THREAD_ENV})
    sys.path.insert(0, str(SRC))

    names = BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        results[name] = result
        if len(names) > 1:
            print(f"result {name} {json.dumps(result)}", flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
