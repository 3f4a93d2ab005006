"""Run one `stylepair` command in this process and write its measurements.

Usage: python3 worker.py RESULT_JSON TRACE -- <stylepair arguments>

The clock starts after the interpreter and the program's modules are
loaded, so interpreter start is excluded. TRACE=1 installs the tracer first
and adds its spans and counts to the result.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    result_path, trace, sep, *command = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: worker.py RESULT_JSON 0|1 -- <stylepair arguments>")
    from stylepair import cli

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer("pipeline")
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(command)
    elapsed = time.perf_counter() - start
    result = {
        "rc": rc,
        "pipeline_s": elapsed,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "trace": tracer.dump() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
