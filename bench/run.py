#!/usr/bin/env python3
"""Benchmark for oogen: `oogen render` processes on the gallery, and the
library path on a seeded synthetic package.

    python3 bench/run.py --workload cli-render --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

It imports `src/oogen` from the checkout it lives in and writes only under
`.bench_work/` there. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md). Exit code 2 means the checkout has no
`src/oogen`, 1 that set-up failed or, in smoke mode, that a check did not
behave.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every process the benchmark starts, itself included, runs with exactly
# these PYTHON* variables and no OOGEN_* ones: the hash seed fixes set and
# dict orders, PYTHONPATH selects the code under test, no process writes
# bytecode while measuring, and temporary files stay in the checkout.
PINNED = {
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "TMPDIR": str(WORK / "tmp"),
}


def pin_environment(argv: list[str]) -> None:
    """Re-execute under the pinned environment unless already in it."""
    if all(os.environ.get(k) == v for k, v in PINNED.items()) and not any(
            k.startswith("OOGEN_") for k in os.environ):
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "OOGEN_"))}
    env.update(PINNED)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cli-render", "synth"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs and check the checks")
    opts = parser.parse_args(argv)
    if not (SRC / "oogen" / "__init__.py").is_file():
        print(f"bench: no oogen sources under {SRC}", file=sys.stderr)
        return 2
    if not opts.smoke and opts.workload is None:
        parser.error("--workload is required")
    pin_environment(argv)
    os.makedirs(PINNED["TMPDIR"], exist_ok=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)

    import workloads

    if opts.smoke:
        import smoke

        return smoke.main(WORK)
    try:
        result, extra = workloads.run_workload(opts.workload, opts.seed, opts.seconds,
                                               bool(opts.trace), WORK)
    except workloads.SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    tag = f"{opts.workload}-seed{opts.seed}"
    if opts.trace:
        extra.dump(str(results / f"trace-{tag}.json"))
    else:
        (results / f"samples-{tag}.json").write_text(json.dumps(extra) + "\n")
    line = json.dumps(result)
    (results / f"result-{tag}-trace{opts.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
