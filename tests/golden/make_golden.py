"""Golden end-to-end references: seeded runs of small configurations, stored in float64.

    PYTHONPATH=src python tests/golden/make_golden.py [case ...]

writes one ``<case>.npz`` per entry of :data:`CASES` (or per named case) and
``meta.json`` (the numpy, scipy and platform that made them) next to this
file.
``tests/test_golden.py`` reruns every case and compares.  The cases cover
both phantoms, both kernels, both priors, noise on and off, an anisotropic
factor with an odd low-res length, and two or three frames.  The ``cli_*``
cases run ``flowsr pipeline`` and read its files back, so the writer and the
CSVs are covered too: ``cli_pipeline`` on the ideal kernel, and
``cli_helix_gaussian`` on the general-kernel path over three noisy frames,
where a frame-order slip between the pipeline's two passes would show.

Regenerating is a deliberate act: it replaces what the test guards.  A
change that does it says which outputs moved, by how much and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from flowsr import (
    DegradationConfig,
    EvalReport,
    Grid3,
    SolverConfig,
    degrade_dataset,
    evaluate,
    helix_phantom,
    load_dataset,
    poiseuille_phantom,
    pulsatile_profile,
    superresolve_dataset,
    upsample_dataset,
)
from flowsr.cli import main

HERE = Path(__file__).resolve().parent
VENC = 150.0
VMAX = 120.0
CHANNELS = ("magnitude", "u", "v", "w")

# name -> settings; "cli" runs `flowsr pipeline`, the others the library stages
CASES = {
    "cli_pipeline": dict(cli=True, phantom="poiseuille", dims=(12, 8, 8), frames=2, d=(2, 2, 2),
                         kernel="ideal", prior="trilinear", noise=15.0, seed=7, tau=0.5,
                         baseline="trilinear", axis="z", magnitude_out=0.0),
    "cli_helix_gaussian": dict(cli=True, phantom="helix", dims=(8, 8, 6), frames=3, d=(2, 2, 1),
                               kernel="gaussian", prior="trilinear", noise=14.0, seed=9, tau=0.2,
                               baseline="tricubic", axis="z", magnitude_out=0.0),
    "helix_gaussian_zero_fill_noiseless": dict(
        phantom="helix", dims=(8, 8, 6), frames=3, d=(2, 2, 1), kernel="gaussian",
        prior="zero-fill", noise=None, seed=0, tau=0.05, baseline="tricubic", axis="z",
        magnitude_out=0.0),
    "poiseuille_odd_lr_length": dict(
        phantom="poiseuille", dims=(9, 8, 6), frames=2, d=(3, 2, 1), kernel="ideal",
        prior="trilinear", noise=20.0, seed=11, tau=1.0, baseline="tricubic", axis="x",
        magnitude_out=0.0),
    "helix_ideal_zero_fill": dict(
        phantom="helix", dims=(8, 8, 8), frames=2, d=(2, 2, 2), kernel="ideal",
        prior="zero-fill", noise=12.0, seed=3, tau=0.01, baseline="trilinear", axis="y",
        magnitude_out=0.0),
    "poiseuille_gaussian_trilinear": dict(
        phantom="poiseuille", dims=(8, 6, 8), frames=2, d=(2, 1, 2), kernel="gaussian",
        prior="trilinear", noise=18.0, seed=5, tau=0.2, baseline="trilinear", axis="y",
        magnitude_out=0.2),
}


def environment() -> dict:
    """What bit-for-bit equality depends on: library versions, platform and SIMD features."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        cpu = sorted(name for name, on in __cpu_features__.items() if on)
    except ImportError:
        cpu = None
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine(),
            "system": platform.system(), "cpu_features": cpu}


def _stack(ds) -> np.ndarray:
    # (frames, magnitude/u/v/w, m, n, s) in float64
    return np.array([[f.channel(ch).data for ch in CHANNELS] for f in ds.frames], dtype=np.float64)


def _records(report: EvalReport) -> dict:
    return {
        "metric_keys": np.array([f"{r.frame},{r.channel},{r.method},{r.metric}" for r in report.records]),
        "metric_values": np.array([r.value for r in report.records]),
    }


def _solve_reports(rows) -> dict:
    # (frame, channel, residual_norm, prior_distance, objective); wall time is not reproducible
    return {
        "report_keys": np.array([f"{frame},{channel}" for frame, channel, *_ in rows]),
        "report_values": np.array([values for _, _, *values in rows], dtype=np.float64),
    }


def _phantom(case):
    build = poiseuille_phantom if case["phantom"] == "poiseuille" else helix_phantom
    radius = 0.35 * min(n for i, n in enumerate(case["dims"]) if i != "xyz".index(case["axis"]))
    return build(Grid3(*case["dims"]), radius_voxels=radius,
                 vmax_per_frame=pulsatile_profile(VMAX, case["frames"]), venc=VENC,
                 axis=case["axis"], magnitude_out=case["magnitude_out"])


def _run_library(case) -> dict:
    hr = _phantom(case)
    deg = DegradationConfig(d=case["d"], kernel=case["kernel"], noise_psnr_db=case["noise"],
                            rng_seed=case["seed"])
    lr, cal = degrade_dataset(hr, deg)
    cfg = SolverConfig(tau=case["tau"], kernel=deg.kernel_spectrum(hr.grid), d=case["d"],
                       prior=case["prior"])
    reports = []
    fsr = superresolve_dataset(lr, cfg, hr.grid, reports=reports)
    base = upsample_dataset(lr, case["d"], case["baseline"])
    report = evaluate(fsr, hr, base, sr_method="fsr", baseline_method=case["baseline"])
    rows = [(f, ch, rep.residual_norm, rep.prior_distance, rep.objective) for f, ch, rep in reports]
    return {"lr": _stack(lr), "fsr": _stack(fsr), "baseline": _stack(base),
            "calibration": np.array([cal.sigma, cal.achieved_psnr_db]),
            **_records(report), **_solve_reports(rows)}


def _csv(value) -> str:
    return ",".join(str(v) for v in value)


def _run_cli(case) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argv = ["pipeline", "--out-dir", tmp, "--phantom", case["phantom"],
                "--dims", _csv(case["dims"]), "--frames", str(case["frames"]),
                "--venc", str(VENC), "--vmax", str(VMAX), "--axis", case["axis"],
                "--factor", _csv(case["d"]), "--kernel", case["kernel"],
                "--noise-psnr", str(case["noise"]), "--seed", str(case["seed"]),
                "--tau", str(case["tau"]), "--prior", case["prior"], "--baseline", case["baseline"]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"flowsr pipeline exited {code}")
        files = {"hr": "hr.flw4", "lr": "lr.flw4", "fsr": "sr_fsr.flw4",
                 "baseline": f"sr_{case['baseline']}.flw4"}
        arrays = {key: _stack(load_dataset(out / name)) for key, name in files.items()}
        report = EvalReport.from_csv((out / "metrics.csv").read_text(encoding="utf-8"))
        rows = [line.split(",") for line in
                (out / "solve_reports.csv").read_text(encoding="utf-8").splitlines()[1:]]
        cal = dict(line.split(" = ", 1) for line in
                   (out / "lr.flw4.cal").read_text(encoding="utf-8").splitlines())
    rows = [(int(r[0]), r[1], float(r[2]), float(r[3]), float(r[4])) for r in rows]
    return {**arrays, "calibration": np.array([float(cal["sigma"]), float(cal["achieved_psnr_db"])]),
            **_records(report), **_solve_reports(rows)}


def run_case(name: str) -> dict:
    """The named case's outputs, as the arrays its reference stores."""
    case = CASES[name]
    return _run_cli(case) if case.get("cli") else _run_library(case)


def write_references(names=()) -> int:
    """Write the named cases' references (every case when none is named) and ``meta.json``."""
    for name in names or CASES:
        np.savez_compressed(HERE / f"{name}.npz", **run_case(name))
    (HERE / "meta.json").write_text(json.dumps(environment(), indent=1) + "\n", encoding="utf-8")
    total = sum(p.stat().st_size for p in HERE.glob("*.npz"))
    print(f"wrote {len(names or CASES)} reference(s); {total} bytes in all")
    return 0


if __name__ == "__main__":
    sys.exit(write_references(sys.argv[1:]))
