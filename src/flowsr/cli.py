"""Command-line pipeline: simulate, degrade, super-resolve, evaluate, verify.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.  Every
command is deterministic given its flags and seed, and all file outputs are
written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .config import RunConfig, _parse_triple, format_config_text, parse_config_text
from .degrade import KERNEL_KINDS, DegradationConfig, degrade_dataset
from .errors import FlowSRError
from .interp import METHODS, upsample_dataset
from .metrics import EvalReport, evaluate
from .oracle import build_dense, dense_solve
from .phantom import PHANTOMS, helix_phantom, poiseuille_phantom, pulsatile_profile
from .solver import PRIOR_MODES, SolverConfig, fsr_solve, superresolve_dataset
from .spectral import (
    KernelSpectrum,
    gaussian_spectrum,
    ideal_lowpass_spectrum,
)
from .volio import atomic_write, load_dataset, save_dataset
from .volume import ComplexVolume, Grid3

__all__ = ["main"]

ORACLE_GRIDS = [(4, 4, 4), (6, 6, 6), (8, 8, 8), (8, 6, 4)]
ORACLE_FACTORS = [(2, 1, 1), (2, 2, 1), (2, 2, 2)]
ORACLE_TAUS = [1e-3, 0.05, 1.0]
ORACLE_TOLERANCE = 1e-8


def _triple(kind, minimum=None):
    def parse(text: str):
        values = _parse_triple(text, kind)
        if minimum is not None and min(values) < minimum:
            raise ValueError(f"values must be >= {minimum}, got {text!r}")
        return values

    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:
        raise ValueError(f"must be finite and > 0, got {text!r}")
    return value


def _write_text(path, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])


def _build_kernel(hr_grid: Grid3, kind: str, d, fwhm) -> KernelSpectrum:
    if kind == "ideal":
        return ideal_lowpass_spectrum(hr_grid, d)
    if fwhm is None:
        fwhm = tuple(dim / rate for dim, rate in zip(hr_grid.dims, d))
    return gaussian_spectrum(hr_grid, fwhm)


def _make_phantom(rc: RunConfig):
    grid = Grid3(*rc.dims, spacing=rc.spacing)
    profile = pulsatile_profile(rc.vmax, rc.frames)
    kwargs = dict(
        radius_voxels=rc.effective_radius(),
        vmax_per_frame=profile,
        venc=rc.venc,
        axis=rc.axis,
        magnitude_in=rc.magnitude_in,
        magnitude_out=rc.magnitude_out,
    )
    if rc.phantom == "poiseuille":
        return poiseuille_phantom(grid, **kwargs)
    return helix_phantom(grid, **kwargs)


def cmd_simulate(args) -> int:
    rc = _apply_overrides(RunConfig(factor=(1, 1, 1)), args)
    ds = _make_phantom(rc)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {rc.phantom} phantom, dims {rc.dims}, {rc.frames} frame(s)")
    return 0


def _calibration_text(cal, cfg: DegradationConfig) -> str:
    achieved = "inf" if np.isinf(cal.achieved_psnr_db) else repr(cal.achieved_psnr_db)
    target = "none" if cal.target_psnr_db is None else repr(cal.target_psnr_db)
    return (
        f"sigma = {cal.sigma!r}\n"
        f"achieved_psnr_db = {achieved}\n"
        f"target_psnr_db = {target}\n"
        f"seed = {cfg.rng_seed}\n"
        f"factor = {','.join(str(v) for v in cfg.d)}\n"
        f"kernel = {cfg.kernel}\n"
    )


def _degrade(hr, src, out, cal_path):
    """Degrade ``hr`` as ``src`` (parsed flags or a RunConfig) says; write ``out`` and its sidecar."""
    cfg = DegradationConfig(
        d=src.factor,
        kernel=src.kernel,
        gaussian_fwhm_bins=src.kernel_fwhm,
        noise_psnr_db=src.noise_psnr,
        rng_seed=src.seed,
    )
    lr, cal = degrade_dataset(hr, cfg)
    save_dataset(lr, out)
    _write_text(cal_path, _calibration_text(cal, cfg))
    return lr, cal


def cmd_degrade(args) -> int:
    hr = load_dataset(args.infile)
    lr, cal = _degrade(hr, args, args.out, args.calibration_out or args.out + ".cal")
    print(f"wrote {args.out}: LR grid {lr.grid.dims}")
    if cal.target_psnr_db is not None:
        print(f"noise sigma {cal.sigma:.6g}, achieved PSNR {cal.achieved_psnr_db:.2f} dB")
    return 0


def _solve_report_csv(reports) -> str:
    lines = ["frame,channel,residual_norm,prior_distance,objective,wall_time_s"]
    for frame, channel, rep in reports:
        lines.append(
            f"{frame},{channel},{rep.residual_norm!r},{rep.prior_distance!r},"
            f"{rep.objective!r},{rep.wall_time_s!r}"
        )
    return "\n".join(lines) + "\n"


def _fsr(lr, src, out, report_path):
    """Super-resolve ``lr`` as ``src`` says; write ``out`` and, given a path, the solve reports."""
    hr_grid = lr.grid.scaled(src.factor)
    kernel = _build_kernel(hr_grid, src.kernel, src.factor, src.kernel_fwhm)
    cfg = SolverConfig(tau=src.tau, kernel=kernel, d=src.factor, prior=src.prior)
    reports: list = []
    sr = superresolve_dataset(lr, cfg, hr_grid, reports=reports)
    save_dataset(sr, out)
    if report_path:
        _write_text(report_path, _solve_report_csv(reports))
    return sr, reports


def cmd_sr(args) -> int:
    lr = load_dataset(args.infile)
    if args.method in METHODS:
        sr = upsample_dataset(lr, args.factor, args.method)
        save_dataset(sr, args.out)
        print(f"wrote {args.out}: {args.method} upsampling to {sr.grid.dims}")
        return 0
    sr, reports = _fsr(lr, args, args.out, args.report_out)
    total = sum(rep.wall_time_s for _, _, rep in reports)
    print(f"wrote {args.out}: fsr tau={args.tau:g} to {sr.grid.dims} ({total:.2f} s of solves)")
    return 0


def _summary_lines(report: EvalReport, methods) -> list[str]:
    """The mean PSNR/MRE table that ``eval`` prints and ``pipeline`` writes to its summary."""
    return [f"{'method':<12}{'mean PSNR (dB)':>16}{'mean MRE (%)':>14}"] + [
        f"{method:<12}{report.mean(method, 'psnr_db'):>16.3f}"
        f"{report.mean(method, 'mre_percent'):>14.3f}"
        for method in methods
    ]


def cmd_eval(args) -> int:
    sr = load_dataset(args.sr)
    ref = load_dataset(args.ref)
    baseline = load_dataset(args.baseline) if args.baseline else None
    report = evaluate(
        sr,
        ref,
        baseline=baseline,
        mask_threshold=args.mask_threshold,
        sr_method=args.sr_label,
        baseline_method=args.baseline_label,
    )
    _write_text(args.out, report.to_csv())
    methods = [args.sr_label] + ([args.baseline_label] if baseline is not None else [])
    print("\n".join(_summary_lines(report, methods)))
    print(f"wrote {args.out}: {len(report.records)} records")
    return 0


def _oracle_cases(args):
    if args.dims is not None:
        return [(args.dims, args.factor, args.kernel, [args.tau])]
    cases = []
    for dims in ORACLE_GRIDS:
        for factor in ORACLE_FACTORS:
            for kernel in KERNEL_KINDS:
                cases.append((dims, factor, kernel, ORACLE_TAUS))
    return cases


def cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    worst = 0.0
    failed = 0
    total = 0
    for dims, factor, kernel_kind, taus in _oracle_cases(args):
        hr = Grid3(*dims)
        lr = hr.decimated(factor)
        kernel = _build_kernel(hr, kernel_kind, factor, None)
        y = ComplexVolume(lr, rng.standard_normal(lr.dims) + 1j * rng.standard_normal(lr.dims))
        prior = ComplexVolume(hr, rng.standard_normal(hr.dims) + 1j * rng.standard_normal(hr.dims))
        ops = None
        for tau in taus:
            cfg = SolverConfig(tau=tau, kernel=kernel, d=factor)
            if ops is None:
                ops = build_dense(hr, cfg)
            x_ref = dense_solve(y, prior, ops, tau)
            x_fast, _ = fsr_solve(y, cfg, prior=prior)
            rel = float(
                np.linalg.norm(x_fast.data - x_ref.data) / np.linalg.norm(x_ref.data)
            )
            worst = max(worst, rel)
            ok = rel <= args.tolerance
            failed += 0 if ok else 1
            total += 1
            status = "ok" if ok else "FAIL"
            print(
                f"[{status}] dims={dims} d={factor} kernel={kernel_kind:<8} "
                f"tau={tau:<8g} rel_err={rel:.3e}"
            )
    elapsed = time.perf_counter() - t0
    print(
        f"{total} configs in {elapsed:.1f} s; max relative error {worst:.3e} "
        f"(tolerance {args.tolerance:g})"
    )
    if failed:
        print(f"FAIL: {failed} config(s) above tolerance", file=sys.stderr)
        return 1
    print("PASS: closed-form solver matches the dense oracle")
    return 0


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    """``rc`` with every RunConfig field the flags set; ``--noise-psnr <= 0`` means noiseless."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    if overrides.get("noise_psnr", 1) <= 0:
        overrides["noise_psnr"] = None
    return dataclasses.replace(rc, **overrides)


def cmd_pipeline(args) -> int:
    rc = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            rc = parse_config_text(fh.read())
    rc = _apply_overrides(rc, args)

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    t0 = time.perf_counter()

    hr = _make_phantom(rc)
    save_dataset(hr, path("hr.flw4"))
    lr, _ = _degrade(hr, rc, path("lr.flw4"), path("lr.flw4.cal"))
    sr_fsr, _ = _fsr(lr, rc, path("sr_fsr.flw4"), path("solve_reports.csv"))

    sr_base = upsample_dataset(lr, rc.factor, rc.baseline)
    save_dataset(sr_base, path(f"sr_{rc.baseline}.flw4"))

    report = evaluate(
        sr_fsr,
        hr,
        baseline=sr_base,
        mask_threshold=rc.mask_threshold,
        sr_method="fsr",
        baseline_method=rc.baseline,
    )
    _write_text(path("metrics.csv"), report.to_csv())
    _write_text(path("effective.cfg"), format_config_text(rc))

    frames = range(len(hr.frames))
    psnr_wins = all(
        report.values("fsr", "psnr_db", ch)[f] > report.values(rc.baseline, "psnr_db", ch)[f]
        for f in frames
        for ch in ("u", "v", "w")
    )
    mre_wins = all(
        report.values("fsr", "mre_percent", "all")[f]
        < report.values(rc.baseline, "mre_percent", "all")[f]
        for f in frames
    )
    elapsed = time.perf_counter() - t0

    lines = [
        f"phantom={rc.phantom} dims={rc.dims} factor={rc.factor} "
        f"noise_psnr={rc.noise_psnr} seed={rc.seed} tau={rc.tau:g}",
        *_summary_lines(report, ("fsr", rc.baseline)),
    ]
    lines.append(f"fsr beats {rc.baseline} on every frame/channel PSNR: {'yes' if psnr_wins else 'NO'}")
    lines.append(f"fsr beats {rc.baseline} on every frame MRE: {'yes' if mre_wins else 'NO'}")
    lines.append(f"elapsed: {elapsed:.1f} s")
    summary = "\n".join(lines) + "\n"
    _write_text(path("summary.txt"), summary)
    print(summary, end="")
    print(f"artifacts in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsr",
        description="Super-resolve and denoise volumetric velocity fields "
        "with a closed-form Fourier-domain solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="generate an analytic phantom dataset")
    p.add_argument("--phantom", choices=PHANTOMS)
    p.add_argument("--dims", type=_triple(int, 1), metavar="M,N,S")
    p.add_argument("--frames", type=int)
    p.add_argument("--venc", type=_positive_float, help="cm/s")
    p.add_argument("--vmax", type=_positive_float, help="peak speed, cm/s")
    p.add_argument("--radius", type=float, help="tube radius in voxels (0 = auto)")
    p.add_argument("--axis", choices=("x", "y", "z"))
    p.add_argument("--magnitude-in", type=float)
    p.add_argument("--magnitude-out", type=float)
    p.add_argument("--spacing", type=_triple(float), metavar="X,Y,Z")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("degrade", help="simulate the low-resolution noisy acquisition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--factor", type=_triple(int, 1), required=True, metavar="DR,DC,DS")
    p.add_argument("--noise-psnr", type=float, default=None, help="target PSNR in dB, 0 included (omit for noiseless)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="ideal")
    p.add_argument("--kernel-fwhm", type=_triple(float), default=None, metavar="FX,FY,FZ")
    p.add_argument("--calibration-out", default=None, help="default: <out>.cal")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("sr", help="super-resolve a low-resolution dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--factor", type=_triple(int, 1), required=True, metavar="DR,DC,DS")
    p.add_argument("--method", choices=("fsr",) + METHODS, default="fsr")
    p.add_argument("--tau", type=_positive_float, default=0.01)
    p.add_argument("--prior", choices=PRIOR_MODES, default="trilinear")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="ideal")
    p.add_argument("--kernel-fwhm", type=_triple(float), default=None, metavar="FX,FY,FZ")
    p.add_argument("--report-out", default=None, help="per-solve diagnostics CSV")
    p.set_defaults(func=cmd_sr)

    p = sub.add_parser("eval", help="score reconstructions against a reference")
    p.add_argument("--sr", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--baseline", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--mask-threshold", type=float, default=0.1)
    p.add_argument("--sr-label", default="fsr")
    p.add_argument("--baseline-label", default="trilinear")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "oracle-check",
        help="verify the closed-form solver against the dense brute-force solution",
    )
    p.add_argument("--dims", type=_triple(int, 1), default=None, metavar="M,N,S")
    p.add_argument("--factor", type=_triple(int, 1), default=(2, 2, 2), metavar="DR,DC,DS")
    p.add_argument("--tau", type=_positive_float, default=0.05)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="ideal")
    p.add_argument("--tolerance", type=_positive_float, default=ORACLE_TOLERANCE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("pipeline", help="simulate, degrade, super-resolve and evaluate in one run")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None, help="key=value run configuration file")
    p.add_argument("--phantom", choices=PHANTOMS, default=None)
    p.add_argument("--dims", type=_triple(int, 1), default=None, metavar="M,N,S")
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--venc", type=_positive_float, default=None)
    p.add_argument("--vmax", type=_positive_float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--axis", choices=("x", "y", "z"), default=None)
    p.add_argument("--factor", type=_triple(int, 1), default=None, metavar="DR,DC,DS")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default=None)
    p.add_argument("--kernel-fwhm", type=_triple(float), default=None, metavar="FX,FY,FZ")
    p.add_argument("--noise-psnr", type=float, default=None, help="<= 0 disables noise")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tau", type=_positive_float, default=None)
    p.add_argument("--prior", choices=PRIOR_MODES, default=None)
    p.add_argument("--baseline", choices=METHODS, default=None)
    p.add_argument("--mask-threshold", type=float, default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlowSRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
