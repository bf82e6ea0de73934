"""Run a workload under several seeds and report each end-to-end metric's spread.

    python3 perfbench/steady.py --workload sr-x2-128 --seeds 1-10

The spread of a metric is the distance between the first and third quartiles
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median.  Each spread is printed next to the metric's bound from
``BENCHMARK.json``; a benchmark is steady when every spread stays below its
bound (the aim is a third of it).  Each run measures for ``run_seconds``
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values) -> tuple[float, float]:
    """(median, interquartile range / median) of a list of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()[-1]
        line = json.loads(out)
        runs.append(line)
        values = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
        print(f"seed {seed}: failed {line['failed']}/{line['attempted']} {values}", flush=True)

    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median, rel = spread(values)
        flag = "ok" if rel <= metric["bound"] / 3 else ("WIDE" if rel > metric["bound"] else "near")
        print(f"{metric['name']:<16} median {median:12.6g} {metric['unit']:<7}"
              f"spread {rel:7.4f}  bound {metric['bound']:.3f}  {flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
