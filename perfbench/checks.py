"""Correctness checks run at the end of every benchmark run.

Each check is one operation: it passes or it fails.  They compare flowsr's
written outputs against the benchmark's own numpy computations, or against
properties the method must have:

* ``grad``: re-solve sampled (frame, channel) problems from the written LR
  file with ``fsr_solve``; the objective's gradient
  ``H^H S^H (S H x - y) + 2 tau (x - xbar)`` must vanish to ``GRAD_TOL``
  relative to ``||H^H S^H y + 2 tau xbar||``.  ``S`` and ``H`` are built here
  on ``numpy.fft``, not through ``flowsr.spectral``/``flowsr.degrade``.
* ``match``: the re-solved signal equals the timed run's written output up to
  float32 storage rounding.  Signals are compared as ``A exp(i pi v / venc)``
  so that voxels of near-zero magnitude, whose phase is arbitrary, carry no
  weight.
* ``metrics``: masked PSNR and mean relative error recomputed from the written
  files equal the ``flowsr eval`` CSV to ``METRIC_TOL``.  The pipelines score
  unrounded float64 fields before writing them as float32, so their own
  ``metrics.csv`` is held to ``PIPELINE_METRIC_TOL`` instead, and an untimed
  ``flowsr eval`` of their written files is held to ``METRIC_TOL``.
* ``calibration``: the achieved noise PSNR in the ``.cal`` sidecar is within
  ``CAL_TOL_DB`` of the target.
* ``range``: every SR velocity is finite and within ``[-venc, venc]``.
* ``beats``: fsr beats the baseline on every frame/channel PSNR and every
  frame MRE (the paper's comparative claim; ``pipeline-x4`` only).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import traceback

import numpy as np

import flw4
from workloads import NOISE_PSNR_DB, Workload

GRAD_TOL = 1e-8
# float32 keeps 24 bits: one rounding of the LR input plus one of the written
# output is ~1.2e-7 relative per sample; allow 8x that over the whole volume
STORE_TOL = 8 * float(np.finfo(np.float32).eps)
METRIC_TOL = 1e-9
# metrics of float64 fields vs the same metrics of their float32 copies differ
# by the float32 rounding of the samples, at the same level as STORE_TOL
PIPELINE_METRIC_TOL = STORE_TOL
CAL_TOL_DB = 0.5
SAMPLED_SOLVES = 2
MASK_THRESHOLD = 0.1


# ---- S and H on numpy.fft ---------------------------------------------------

def kernel_values(hr_dims, d, kind: str) -> np.ndarray:
    """Kernel spectrum, DC-first, from the conventions in the flowsr README.

    ideal: 1 on the retained box of ceil(L/2) nonnegative and floor(L/2)
    negative frequencies per axis, 0 elsewhere; gaussian: unit-gain separable
    response with FWHM of L bins per axis (L = HR length / d).
    """
    axes = []
    for dim, rate in zip(hr_dims, d):
        lr = dim // rate
        k = np.rint(np.fft.fftfreq(dim) * dim)  # signed bin index
        if kind == "ideal":
            axes.append(((k >= -(lr // 2)) & (k <= (lr + 1) // 2 - 1)).astype(float))
        else:
            axes.append(np.exp(-4.0 * np.log(2.0) * (k / lr) ** 2))
    return axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]


def apply_H(x, kernel, adjoint=False):
    k = np.conj(kernel) if adjoint else kernel
    return np.fft.ifftn(k * np.fft.fftn(x, norm="ortho"), norm="ortho")


def apply_S(x, d):
    return x[:: d[0], :: d[1], :: d[2]]


def apply_S_adjoint(y, d):
    out = np.zeros(tuple(n * r for n, r in zip(y.shape, d)), dtype=np.complex128)
    out[:: d[0], :: d[1], :: d[2]] = y
    return out


def gradient_residual(x, y, prior, kernel, d, tau) -> float:
    """||H^H S^H (S H x - y) + 2 tau (x - prior)|| / ||H^H S^H y + 2 tau prior||."""
    grad = apply_H(apply_S_adjoint(apply_S(apply_H(x, kernel), d) - y, d), kernel, True)
    grad = grad + 2.0 * tau * (x - prior)
    rhs = apply_H(apply_S_adjoint(y, d), kernel, True) + 2.0 * tau * prior
    return float(np.linalg.norm(grad) / np.linalg.norm(rhs))


# ---- metrics ------------------------------------------------------------------

def frame_metrics(est: flw4.Volume4D, ref: flw4.Volume4D, frame: int) -> dict:
    """Masked PSNR per channel and mean relative error, as the flowsr README defines them."""
    ref_mag = ref.magnitude(frame)
    mask = ref_mag >= MASK_THRESHOLD * ref_mag.max()
    ref_v = np.stack([ref.velocity(frame, c)[mask] for c in "uvw"])
    est_v = np.stack([est.velocity(frame, c)[mask] for c in "uvw"])
    peak = np.sqrt((ref_v**2).sum(axis=0)).max()
    err = est_v - ref_v
    out = {("psnr_db", c): 10.0 * np.log10(peak**2 / np.mean(err[i] ** 2))
           for i, c in enumerate("uvw")}
    out[("mre_percent", "all")] = 100.0 * np.mean(np.sqrt((err**2).sum(axis=0))) / peak
    return out


def read_metrics_csv(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {(int(r["frame"]), r["method"], r["metric"], r["channel"]): float(r["value"])
            for r in rows}


def recompute(read, sr_path, base_path, hr_path, base_label) -> dict:
    """(frame, method, metric, channel) -> value, from the files ``read`` returns."""
    ref = read(hr_path)
    out = {}
    for method, path in (("fsr", sr_path), (base_label, base_path)):
        est = read(path)
        for f in range(ref.frames):
            for (metric, ch), value in frame_metrics(est, ref, f).items():
                out[(f, method, metric, ch)] = float(value)
    return out


def max_rel_diff(a: dict, b: dict) -> float:
    if set(a) != set(b):
        return float("inf")
    return max(abs(a[k] - b[k]) / abs(b[k]) for k in a)


# ---- the checks ------------------------------------------------------------------

def _solve_from_file(wl: Workload, lr: flw4.Volume4D, frame: int, channel: str):
    """Re-solve one channel from the written LR data; returns (x, y, prior) arrays."""
    from flowsr import ComplexVolume, DegradationConfig, Grid3, SolverConfig
    from flowsr.solver import build_prior, fsr_solve

    lr_grid = Grid3(*lr.dims, spacing=lr.spacing)
    hr_grid = lr_grid.scaled(wl.d)
    kernel = DegradationConfig(d=wl.d, kernel=wl.kernel).kernel_spectrum(hr_grid)
    cfg = SolverConfig(tau=wl.tau, kernel=kernel, d=wl.d, prior=wl.prior)
    y = lr.magnitude(frame) * np.exp(1j * np.pi * lr.velocity(frame, channel) / lr.venc)
    prior = build_prior(ComplexVolume(lr_grid, y), wl.d, wl.prior)
    x, _ = fsr_solve(ComplexVolume(lr_grid, y), cfg, prior=prior)
    return x.data, y, prior.data


def sampled_solves(wl: Workload, seed: int):
    """(frame, channel) of the solves to re-check; fixed by the seed."""
    rng = np.random.default_rng([seed, 1])
    return [(int(rng.integers(wl.frames)), "uvw"[int(rng.integers(3))])
            for _ in range(SAMPLED_SOLVES)]


def run_checks(wl: Workload, work: str, seed: int) -> list[dict]:
    """Every check of one run, as ``{"name", "ok", "detail"}`` records."""
    results = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception:  # a crashing check is a failed operation, not a crash
            ok, detail = False, traceback.format_exc(limit=3)
        results.append({"name": name, "ok": bool(ok), "detail": detail})

    paths = wl.paths(work)
    kernel = kernel_values(wl.hr_dims, wl.d, wl.kernel)
    read = functools.cache(flw4.read)

    @functools.cache
    def solve(frame, channel):
        return _solve_from_file(wl, read(paths["lr"]), frame, channel)

    @functools.cache
    def recomputed():
        return recompute(read, paths["sr"], paths["baseline"], paths["hr"], wl.baseline)

    for frame, channel in sampled_solves(wl, seed):
        tag = f"f{frame}{channel}"

        def grad():
            x, y, prior = solve(frame, channel)
            rel = gradient_residual(x, y, prior, kernel, wl.d, wl.tau)
            return rel <= GRAD_TOL, f"gradient residual {rel:.3e} (tol {GRAD_TOL:g})"

        def match():
            # the written magnitude comes from the u channel's solution
            x = solve(frame, channel)[0]
            amp = np.abs(solve(frame, "u")[0])
            mine = amp * np.exp(1j * np.angle(x))
            sr = read(paths["sr"])
            theirs = sr.magnitude(frame) * np.exp(1j * np.pi * sr.velocity(frame, channel) / sr.venc)
            rel = float(np.linalg.norm(theirs - mine) / np.linalg.norm(mine))
            return rel <= STORE_TOL, f"written vs re-solved {rel:.3e} (tol {STORE_TOL:.3g})"

        check(f"grad {tag}", grad)
        check(f"match {tag}", match)

    if wl.kind == "files":
        def metrics():
            rel = max_rel_diff(read_metrics_csv(paths["metrics"]), recomputed())
            return rel <= METRIC_TOL, f"eval CSV vs recomputed {rel:.3e}"

        check("metrics eval", metrics)
    else:
        def pipeline_metrics():
            rel = max_rel_diff(read_metrics_csv(paths["metrics"]), recomputed())
            return rel <= PIPELINE_METRIC_TOL, f"pipeline CSV vs recomputed {rel:.3e}"

        def eval_metrics():
            from flowsr.cli import main

            path = os.path.join(paths["out"], "check_eval.csv")
            argv = ["eval", "--sr", paths["sr"], "--ref", paths["hr"], "--baseline",
                    paths["baseline"], "--baseline-label", wl.baseline, "--out", path]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            rel = max_rel_diff(read_metrics_csv(path), recomputed()) if rc == 0 else float("inf")
            return rel <= METRIC_TOL, f"eval exit {rc}, eval CSV vs recomputed {rel:.3e}"

        check("metrics pipeline", pipeline_metrics)
        check("metrics eval", eval_metrics)
    if wl.beats_baseline:
        def beats():
            m = recomputed()
            keys = [k for k in m if k[1] == "fsr"]
            psnr = all(m[k] > m[(k[0], wl.baseline, k[2], k[3])]
                       for k in keys if k[2] == "psnr_db")
            mre = all(m[k] < m[(k[0], wl.baseline, k[2], k[3])]
                      for k in keys if k[2] == "mre_percent")
            return psnr and mre, f"fsr beats {wl.baseline}: psnr {psnr}, mre {mre}"

        check("beats baseline", beats)

    def calibration():
        cal = dict(line.split(" = ", 1) for line in
                   open(paths["lr"] + ".cal", encoding="utf-8").read().splitlines())
        target, achieved = float(cal["target_psnr_db"]), float(cal["achieved_psnr_db"])
        ok = target == NOISE_PSNR_DB and abs(achieved - target) <= CAL_TOL_DB
        return ok, f"achieved {achieved:.3f} dB for target {target:g} dB"

    def velocity_range():
        sr = read(paths["sr"])
        vel = sr.data[:, 1:]
        if not np.isfinite(vel).all():
            return False, f"{paths['sr']}: non-finite velocity"
        worst = float(np.abs(vel).max() / sr.venc)
        return worst <= 1.0, f"max |v| / venc = {worst:.6f}"

    check("calibration", calibration)
    check("range", velocity_range)
    return results
