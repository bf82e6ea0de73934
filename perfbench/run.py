"""flowsr benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload pipeline-x4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a flowsr source tree: the benchmark imports flowsr from
``src/`` there.  Work files, traces and results go under ``.perfbench/``.

A run sets up the workload's inputs ``SETUP_REPEATS`` times, each in a fresh
process, half before and half after it runs whole rounds of the workload for
``--seconds`` in one child process (set-up time is the median of their wall
times); then it checks the written outputs (see ``checks.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
machine and the settings.
If a command fails or the timed process dies (its round then counts as
failed), only the set-up time is reported.
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# half of the set-ups run before the timed rounds and half after, so that their
# median spans the run rather than one moment of a host whose speed drifts
SETUP_REPEATS = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc for this process and its children."""
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def machine(threads) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(), "threads": threads}


def _child(args, root) -> tuple[int, float]:
    """Run a worker process to its end; returns (exit code, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], cwd=root,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, seconds


def bench_config() -> dict:
    """BENCHMARK.json, next to this directory: run length, metrics and units."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, root) -> tuple[dict, dict]:
    """One run of one workload: (result line, details for the record)."""
    import checks

    wl = WORKLOADS[name]
    work = os.path.join(root, ".perfbench", f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    attempted = failed = 0

    setup_s = []

    def set_up(times, into):
        nonlocal attempted, failed
        for _ in range(times):
            rc, wall = _child(["setup", name, str(seed), into], root)
            setup_s.append(wall)
            attempted += 1
            failed += int(rc != 0)

    set_up(1 if trace else SETUP_REPEATS // 2, work)
    rc, _ = _child(["rounds", name, str(seed), work, str(seconds), str(trace)], root)
    again = os.path.join(work, "setup-again")  # leaves the inputs the rounds used alone
    set_up(0 if trace else SETUP_REPEATS - SETUP_REPEATS // 2, again)
    shutil.rmtree(again, ignore_errors=True)
    rounds_path = os.path.join(work, "rounds.json")
    if rc == 0 and os.path.exists(rounds_path):
        with open(rounds_path, encoding="utf-8") as fh:
            timed = json.load(fh)
    else:  # the process died: its round counts as failed, and no time is reported
        commands = len(wl.round_commands(work, seed))
        timed = {"rounds": [{"kind": "died", "commands": commands, "failed": commands}]}
    for r in timed["rounds"]:
        attempted += r["commands"]
        failed += r["failed"]

    t0 = time.perf_counter()
    results = checks.run_checks(wl, work, seed)
    checks_s = time.perf_counter() - t0
    out_dir = wl.paths(work)["out"]
    for fname in os.listdir(out_dir):  # the volumes are large; keep the small records
        if fname.endswith(".flw4"):
            os.remove(os.path.join(out_dir, fname))
    attempted += len(results)
    failed += sum(not r["ok"] for r in results)

    plain = [r for r in timed["rounds"] if r["kind"] == "plain"]
    if not plain or any(r["failed"] for r in timed["rounds"]):
        # a failed command leaves no times or outputs worth reporting
        values = {} if trace else {"setup_s": statistics.median(setup_s)}
    elif trace:
        values = timed["layers"]
    else:
        quality = {}
        for key, value in checks.read_metrics_csv(wl.paths(work)["metrics"]).items():
            if key[1] == "fsr":
                quality.setdefault(key[2], []).append(value)
        values = {
            "run_s": statistics.median(r["run_s"] for r in plain),
            "sr_mvox_per_s": statistics.median(
                wl.sr_voxel_channels() / r["sr_s"] / 1e6 for r in plain),
            "peak_rss_mb": timed["peak_rss_mb"],
            "setup_s": statistics.median(setup_s),
            "fsr_psnr_db": statistics.fmean(quality["psnr_db"]),
            "fsr_mre_pct": statistics.fmean(quality["mre_percent"]),
        }

    units = bench_config()["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in units if m["name"] in values}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "rounds": timed["rounds"], "unwrapped": timed.get("unwrapped", []),
               "setup_s": setup_s, "checks_s": checks_s,
               "checks": results}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": line, "details": details}, fh, indent=1)
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench_config()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flowsr", "cli.py")):
        print(f"error: no flowsr source tree (src/flowsr) under {root}", file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path.insert(0, os.path.join(root, "src"))
    info = {"machine": machine(threads), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        line, details = run_workload(name, args.seed, args.seconds, args.trace, root)
        lines[name] = line
        if args.workload == "all":
            print(f"{name}: attempted {line['attempted']}, failed {line['failed']}, "
                  f"correct {line['correct']}")
            for metric, m in line["metrics"].items():
                print(f"  {metric:<26}{m['value']:>16.6g} {m['unit']}")
        info[name] = {"rounds": len(details["rounds"]), "unwrapped": details["unwrapped"],
                      "failed_checks": [c for c in details["checks"] if not c["ok"]]}
    print(json.dumps(info))
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
