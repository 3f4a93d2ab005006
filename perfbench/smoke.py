"""Smoke run of the benchmark harness at a tiny scale (a few seconds).

Usage (from the repository root): python3 perfbench/smoke.py

Checks that run.py prints every metric BENCHMARK.json lists, with its unit,
in both the untraced and the traced mode, that the run is judged correct,
and that run.py refuses to produce a result without the program's source.
It is not part of the pytest suite.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(result: dict, expected: list, label: str) -> list:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: verdict {result['correct']}, "
                        f"{result['failed']} of {result['attempted']} failed")
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{label}: metric {spec['name']} missing")
        elif got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{label}: metric {spec['name']} printed as {got}")
    extra = set(result["metrics"]) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, trace)
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit code {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        problems += check_metrics(result, spec[key], f"trace {trace}")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the program's source run.py still printed a result")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
