"""Outside-in tracing: spans around the calls one flowsr module makes into another.

The tracer replaces public functions as they are bound in the *caller's*
namespace (``flowsr.solver.build_prior``, ``flowsr.cli.save_dataset``, ...),
plus ``scipy.fft.fftn``/``ifftn`` and the volume constructors, with wrappers
that record a span: name, start, end, parent span and round id.  Spans stay in
memory and are written out as JSON lines when the run ends.  Nothing inside
flowsr changes; :meth:`Tracer.uninstall` puts every original back.  A call
site the caller no longer binds is skipped and listed in ``missing``.

A span's self time is its duration minus the part of it its child spans
cover.  :func:`layer_metrics` turns the spans of the traced rounds into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

from flw4 import HEADER_BYTES

# (module, attribute, span name): the call sites the tracer wraps.
CALL_SITES = (
    ("flowsr.cli", "poiseuille_phantom", "phantom.build"),
    ("flowsr.cli", "helix_phantom", "phantom.build"),
    ("flowsr.cli", "degrade_dataset", "degrade.dataset"),
    ("flowsr.cli", "superresolve_dataset", "solver.dataset"),
    ("flowsr.cli", "upsample_dataset", "interp.baseline"),
    ("flowsr.cli", "evaluate", "metrics.evaluate"),
    ("flowsr.cli", "save_dataset", "volio.save"),
    ("flowsr.cli", "load_dataset", "volio.load"),
    ("flowsr.cli", "ideal_lowpass_spectrum", "spectral.kernel"),
    ("flowsr.cli", "gaussian_spectrum", "spectral.kernel"),
    ("flowsr.degrade", "synthesize_complex", "volume.synth"),
    ("flowsr.degrade", "extract_velocity", "volume.extract"),
    ("flowsr.degrade", "apply_SH", "degrade.filter"),
    ("flowsr.solver", "fsr_solve", "solver.solve"),
    ("flowsr.solver", "build_prior", "solver.prior"),
    ("flowsr.solver", "apply_SH", "solver.diag"),
    ("flowsr.solver", "upsample_array", "interp.upsample"),
    ("flowsr.solver", "extract_velocity", "volume.extract"),
    ("flowsr.solver", "fold_spectrum", "spectral.fold"),
    ("scipy.fft", "fftn", "spectral.fft"),
    ("scipy.fft", "ifftn", "spectral.fft"),
)
# constructors that copy and check every sample: (module, class)
WRAPPED_CLASSES = (("flowsr.volume", "ScalarVolume"), ("flowsr.volume", "ComplexVolume"))


def _attr(path):
    """The module or object at a dotted path such as ``flowsr.volume.ScalarVolume``, or None."""
    import importlib

    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(_attr(module), attr, None) if module else None


class Patches:
    """Attribute replacements that can be undone in reverse order.

    ``missing`` lists the call sites that were not there to wrap (the caller
    no longer binds that name); their metrics read 0.
    """

    def __init__(self):
        self._undo = []
        self.missing: list[str] = []

    def wrap(self, owner_path, attr, make):
        """Replace ``owner.attr`` with ``make(original)``, or note it as missing."""
        owner = _attr(owner_path)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner_path}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans for the calls in :data:`CALL_SITES` while installed.

    ``hr_shape``/``lr_shape`` classify FFT calls as high- or low-resolution
    by the shape of the transformed array.
    """

    def __init__(self, hr_shape, lr_shape):
        self.hr_shape = tuple(hr_shape)
        self.lr_shape = tuple(lr_shape)
        self.spans: list[dict] = []
        self.run = None
        self._stack: list[int] = []
        self._patches = Patches()
        self._t0 = time.perf_counter()

    def _record(self, name, fn, args, kwargs, attrs):
        span = {"id": len(self.spans), "name": name, "run": self.run,
                "parent": self._stack[-1] if self._stack else None}
        span.update(attrs)
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter() - self._t0
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def span(self, name, fn, *args, **attrs):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self._record(name, fn, args, {}, attrs)

    def _fft_kind(self, a) -> str:
        shape = tuple(getattr(a, "shape", ()))[-3:]
        if shape == self.hr_shape:
            return "hr"
        return "lr" if shape == self.lr_shape else "other"

    def _wrapper(self, name, fn):
        if name == "spectral.fft":
            def call(a, *args, **kwargs):
                return self._record(name, fn, (a,) + args, kwargs, {"kind": self._fft_kind(a)})
        elif name == "volio.save":
            def call(ds, path, *args, **kwargs):
                span_id = len(self.spans)
                result = self._record(name, fn, (ds, path) + args, kwargs, {})
                self.spans[span_id]["bytes"] = os.path.getsize(path)
                return result
        elif name == "volio.load":
            def call(path, *args, **kwargs):
                return self._record(name, fn, (path,) + args, kwargs,
                                    {"bytes": os.path.getsize(path)})
        else:
            def call(*args, **kwargs):
                return self._record(name, fn, args, kwargs, {})
        return functools.wraps(fn)(call)

    @property
    def missing(self) -> list[str]:
        return self._patches.missing

    def install(self):
        self._patches.missing.clear()
        for module, attr, name in CALL_SITES:
            self._patches.wrap(module, attr, lambda fn, name=name: self._wrapper(name, fn))
        for module, cls_name in WRAPPED_CLASSES:
            def post_init(original):
                return lambda obj: self._record("volume.wrap", original, (obj,), {}, {})

            self._patches.wrap(f"{module}.{cls_name}", "__post_init__", post_init)

    def uninstall(self):
        self._patches.undo()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class MemProbe:
    """tracemalloc peak of each ``fsr_solve`` and ``load_dataset`` call.

    tracemalloc runs only inside the probed call, so the peak counts what the
    call allocates on top of what was live when it started.
    """

    SITES = (("flowsr.solver", "fsr_solve", "solve"), ("flowsr.cli", "load_dataset", "load"))

    def __init__(self):
        self.peaks: dict[str, list[int]] = defaultdict(list)
        self.load_bytes: list[int] = []
        self._patches = Patches()

    def _wrapper(self, key, fn):
        def call(*args, **kwargs):
            if key == "load":
                self.load_bytes.append(os.path.getsize(args[0]))
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[key].append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return functools.wraps(fn)(call)

    @property
    def missing(self) -> list[str]:
        return self._patches.missing

    def install(self):
        for module, attr, key in self.SITES:
            self._patches.wrap(module, attr, lambda fn, key=key: self._wrapper(key, fn))

    def uninstall(self):
        self._patches.undo()


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ancestor(span, by_id, name):
    """Id of the nearest enclosing span called ``name``, or None."""
    parent = span["parent"]
    while parent is not None and by_id[parent]["name"] != name:
        parent = by_id[parent]["parent"]
    return parent


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def module_self_ms(spans) -> dict[str, float]:
    """Per-module self time in ms, median over rounds (module = name before the dot)."""
    selfs = self_times(spans)
    per_round = defaultdict(lambda: defaultdict(float))
    for s in spans:
        per_round[s["run"]][s["name"].split(".")[0]] += selfs[s["id"]]
    modules = sorted({m for r in per_round.values() for m in r})
    return {m: 1e3 * _median(r.get(m, 0.0) for r in per_round.values()) for m in modules}


def layer_metrics(spans, mem: MemProbe | None, hr_voxels: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced rounds.

    Sums are per round and the reported value is their median over rounds;
    the ``solver.*`` figures marked per solve are medians over all solves.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    rounds = sorted({s["run"] for s in spans})
    dur = {s["id"]: s["end"] - s["start"] for s in spans}

    def per_round(select, value):
        totals = {r: 0.0 for r in rounds}
        for s in spans:
            if select(s):
                totals[s["run"]] += value(s)
        return _median(totals.values())

    def named(name):
        return lambda s: s["name"] == name

    def total_ms(name):
        return 1e3 * per_round(named(name), lambda s: dur[s["id"]])

    def count(select):
        return per_round(select, lambda s: 1)

    solves = [s for s in spans if s["name"] == "solver.solve"]
    child_ms = defaultdict(lambda: defaultdict(float))  # solve id -> child name -> ms
    fft_in_solve = defaultdict(lambda: defaultdict(int))  # solve id -> kind -> calls
    for s in spans:
        if s["parent"] is not None and by_id[s["parent"]]["name"] == "solver.solve":
            child_ms[s["parent"]][s["name"]] += 1e3 * dur[s["id"]]
        if s["name"] == "spectral.fft":
            solve = _ancestor(s, by_id, "solver.solve")
            if solve is not None:
                fft_in_solve[solve][s["kind"]] += 1

    def in_degrade(s):
        return _ancestor(s, by_id, "degrade.dataset") is not None

    hr_bytes = 16 * hr_voxels  # one HR complex128 array
    return {
        "phantom.build_ms": total_ms("phantom.build"),
        "degrade.dataset_ms": total_ms("degrade.dataset"),
        "degrade.synth_calls": count(lambda s: s["name"] == "volume.synth" and in_degrade(s)),
        "degrade.hr_fft_calls": count(
            lambda s: s["name"] == "spectral.fft" and s["kind"] == "hr" and in_degrade(s)
        ),
        "solver.dataset_ms": total_ms("solver.dataset"),
        "solver.solve_ms": _median(1e3 * dur[s["id"]] for s in solves),
        "solver.prior_ms": _median(child_ms[s["id"]]["solver.prior"] for s in solves),
        "solver.diag_ms": _median(child_ms[s["id"]]["solver.diag"] for s in solves),
        "solver.self_ms": _median(1e3 * selfs[s["id"]] for s in solves),
        "solver.hr_fft_per_solve": _mean(fft_in_solve[s["id"]]["hr"] for s in solves),
        "solver.lr_fft_per_solve": _mean(fft_in_solve[s["id"]]["lr"] for s in solves),
        "solver.peak_hr_arrays": (
            _median(mem.peaks["solve"]) / hr_bytes if mem and mem.peaks["solve"] else 0.0
        ),
        "spectral.fft_ms": total_ms("spectral.fft"),
        "spectral.fft_calls": count(named("spectral.fft")),
        "spectral.fold_ms": total_ms("spectral.fold"),
        "interp.upsample_ms": total_ms("interp.upsample"),
        "interp.baseline_ms": total_ms("interp.baseline"),
        "volume.extract_ms": total_ms("volume.extract"),
        "volume.wraps": count(named("volume.wrap")),
        "volume.wrap_ms": total_ms("volume.wrap"),
        "metrics.evaluate_ms": total_ms("metrics.evaluate"),
        "volio.save_ms": total_ms("volio.save"),
        "volio.bytes_written": per_round(named("volio.save"), lambda s: s["bytes"]),
        "volio.load_ms": total_ms("volio.load"),
        "volio.bytes_read": per_round(named("volio.load"), lambda s: s["bytes"]),
        "volio.load_peak_ratio": _load_peak_ratio(mem),
        "cli.self_ms": 1e3 * per_round(lambda s: s["name"].startswith("cli."),
                                       lambda s: selfs[s["id"]]),
    }


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _load_peak_ratio(mem):
    # base: payload bytes of the file loaded (its float32 samples, header excluded)
    if not mem or not mem.peaks["load"]:
        return 0.0
    return _median(p / (b - HEADER_BYTES) for p, b in zip(mem.peaks["load"], mem.load_bytes))
