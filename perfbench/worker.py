"""Child process of the benchmark: generates inputs, or runs the timed rounds.

    python3 perfbench/worker.py setup <workload> <seed> <work-dir>
    python3 perfbench/worker.py rounds <workload> <seed> <work-dir> <seconds> <trace>

``setup`` imports flowsr and writes the workload's inputs; the parent times
the whole process.  ``rounds`` repeats whole rounds of the workload's
commands through ``flowsr.cli.main`` in this one process until ``seconds``
have passed, then writes ``rounds.json`` (and, traced, ``spans.jsonl`` and
``selftime.json``) into the work directory.  With ``trace`` set, untraced and
traced rounds alternate, so the trace overhead is measured in the same run,
and one last round takes tracemalloc peaks.  Call sites the tracer found
nothing to wrap at are listed in ``rounds.json`` as ``unwrapped``.  The process's own peak resident
memory is reported, so it covers this workload and nothing else.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback


def _import_flowsr(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import flowsr.cli

    expected = os.path.realpath(os.path.join(root, "src", "flowsr"))
    if os.path.dirname(os.path.realpath(flowsr.cli.__file__)) != expected:
        raise ImportError(f"imported flowsr from {flowsr.cli.__file__}, not from {expected}")
    return flowsr.cli


def _run(cli, argv) -> bool:
    """One command; True when it returned exit code 0."""
    try:
        return cli.main(argv) == 0
    except Exception:  # count as a failed operation and keep the loop going
        traceback.print_exc(file=sys.stderr)
        return False


def setup(wl, seed, work):
    cli = _import_flowsr(os.getcwd())
    os.makedirs(wl.paths(work)["out"], exist_ok=True)
    ok = all([_run(cli, argv) for argv in wl.setup_commands(work, seed)])
    return 0 if ok else 1


def peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    ``getrusage`` is not used: its ``ru_maxrss`` carries over the parent's peak
    across fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class SrTimer:
    """Wall time spent in ``superresolve_dataset`` as called by the CLI."""

    def __init__(self, cli):
        self.seconds = 0.0
        original = cli.superresolve_dataset

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        cli.superresolve_dataset = timed


def rounds(wl, seed, work, seconds, trace):
    import spans

    cli = _import_flowsr(os.getcwd())
    commands = wl.round_commands(work, seed)
    sr_timer = SrTimer(cli)
    tracer = spans.Tracer(wl.hr_dims, wl.lr_dims)
    records = []

    def one_round(kind):
        if kind == "traced":
            tracer.run = f"r{len(records)}"
            tracer.install()
        sr_timer.seconds = 0.0
        failed = 0
        t0 = time.perf_counter()
        try:
            for argv in commands:
                if kind == "traced":
                    ok = tracer.span(f"cli.{argv[0]}", _run, cli, argv)
                else:
                    ok = _run(cli, argv)
                failed += 0 if ok else 1
        finally:
            run_s = time.perf_counter() - t0
            if kind == "traced":
                tracer.uninstall()
        records.append({"kind": kind, "run_s": run_s, "sr_s": sr_timer.seconds,
                        "commands": len(commands), "failed": failed})

    kinds = ("plain", "traced") if trace else ("plain",)
    deadline = time.perf_counter() + seconds
    while True:
        for kind in kinds:
            one_round(kind)
        if time.perf_counter() >= deadline:
            break

    result = {"rounds": records}
    if trace:
        mem = spans.MemProbe()
        mem.install()
        try:
            one_round("mem")
        finally:
            mem.uninstall()
        tracer.write_jsonl(os.path.join(work, "spans.jsonl"))
        with open(os.path.join(work, "selftime.json"), "w", encoding="utf-8") as fh:
            json.dump(spans.module_self_ms(tracer.spans), fh, indent=1, sort_keys=True)
        layers = spans.layer_metrics(tracer.spans, mem, wl.hr_voxels)
        plain = [r["run_s"] for r in records if r["kind"] == "plain"]
        traced = [r["run_s"] for r in records if r["kind"] == "traced"]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = layers
        result["unwrapped"] = sorted(set(tracer.missing) | set(mem.missing))
    result["peak_rss_mb"] = peak_rss_mb()
    with open(os.path.join(work, "rounds.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv):
    from workloads import WORKLOADS

    mode, name, seed, work = argv[0], argv[1], int(argv[2]), argv[3]
    wl = WORKLOADS[name]
    if mode == "setup":
        return setup(wl, seed, work)
    return rounds(wl, seed, work, float(argv[4]), argv[5] == "1")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
