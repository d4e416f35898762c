"""Run every workload once and print its metrics side by side.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process through ``run.py``.  With
``--trace 0`` the table holds the end-to-end metrics plus ``error_rate``
(failed / attempted operations); with ``--trace 1`` it holds the per-layer
split of the traced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def run_workload(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    if not trace:
        metrics["error_rate"] = (result["failed"] / result["attempted"], "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    columns = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in run.WORKLOAD_NAMES}
    names = list(next(iter(columns.values())))
    width = max(len(n) for n in names) + 2
    print("metric".ljust(width) + "unit".ljust(7) + "".join(w.rjust(17) for w in columns))
    for name in names:
        unit = columns[run.WORKLOAD_NAMES[0]][name][1]
        print(name.ljust(width) + unit.ljust(7)
              + "".join(f"{columns[w][name][0]:17.6g}" for w in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
