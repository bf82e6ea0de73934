"""Command-line pipeline: simulate, degrade, super-resolve, evaluate, verify.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.  Every
command is deterministic given its flags and seed, and all file outputs are
written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import operator
import os
import sys
import tempfile
import time
import typing

import numpy as np

from .config import (CHOICES, RunConfig, _convert, _key_value_text, format_config_text,
                     parse_config_text)
from .degrade import KERNEL_KINDS, Acquisition, DegradationConfig, seeded_rng
from .degrade import degrade_dataset  # noqa: F401  perfbench traces it
from .errors import FlowSRError, ParameterError
from .interp import METHODS, upsample_dataset
from .metrics import EvalReport, evaluate
from .oracle import _dense_solve_priors, build_dense
from .phantom import helix_phantom, poiseuille_phantom, pulsatile_profile, tube_frames
from .solver import SolverConfig, build_prior, fsr_solve, superresolve_dataset
from .spectral import gaussian_spectrum, ideal_lowpass_spectrum  # noqa: F401  perfbench traces them
from .volio import StreamWriter, atomic_write, load_dataset, open_frames, save_dataset
from .volume import AcquisitionParams, ComplexVolume, Grid3, VelocityDataset

__all__ = ["main"]

ORACLE_GRIDS = [(4, 4, 4), (6, 6, 6), (8, 8, 8), (8, 6, 4)]
ORACLE_FACTORS = [(2, 1, 1), (2, 2, 1), (2, 2, 2)]
ORACLE_TAUS = [1e-3, 0.05, 1.0]
ORACLE_TOLERANCE = 1e-8


# one flag per RunConfig field, spelt --field-name, parsed by the field's type
HINTS = typing.get_type_hints(RunConfig)
# the flags' metavars and help. Choices are config.CHOICES, a RunConfig checks
# ranges, and each command adds the fields it takes with its own defaults
SETTINGS = {
    "dims": dict(metavar="M,N,S"),
    "venc": dict(help="cm/s"),
    "vmax": dict(help="peak speed, cm/s"),
    "radius": dict(help="tube radius in voxels (0 = auto)"),
    "spacing": dict(metavar="X,Y,Z"),
    "factor": dict(metavar="DR,DC,DS"),
    "kernel_fwhm": dict(metavar="FX,FY,FZ"),
    "noise_psnr": dict(help="target PSNR in dB; degrade: any value, 0 included "
                            "(omit for noiseless); pipeline: <= 0 is noiseless"),
}


def _flag_type(hint):
    """A flag's parser: its config line's (``_convert``), save that a flag refuses ``none``."""

    def parse(text: str):
        try:
            value = _convert(text, hint, text=True)
        except ValueError as exc:  # argparse reports an ArgumentTypeError's message
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value is None:
            raise argparse.ArgumentTypeError(f"none is for a config line only, got {text!r}")
        return value

    return parse


def _add_settings(p, names, required=(), **defaults) -> None:
    """Add the flags of RunConfig fields ``names``; one without a default is unset when omitted."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=_flag_type(HINTS[name]),
                       choices=CHOICES.get(name), required=name in required,
                       default=defaults.get(name, argparse.SUPPRESS), **SETTINGS.get(name, {}))


def _settings(args) -> dict:
    """The RunConfig fields that the parsed flags set."""
    return {name: value for name, value in vars(args).items() if name in HINTS}


def _write_text(path, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])


def _phantom_args(rc: RunConfig) -> dict:
    return dict(
        grid=Grid3(*rc.dims, spacing=rc.spacing),
        radius_voxels=rc.effective_radius(),
        vmax_per_frame=pulsatile_profile(rc.vmax, rc.frames),
        venc=rc.venc,
        axis=rc.axis,
        magnitude_in=rc.magnitude_in,
        magnitude_out=rc.magnitude_out,
    )


def cmd_simulate(args) -> int:
    rc = RunConfig(factor=(1, 1, 1), **_settings(args))
    ds = (poiseuille_phantom if rc.phantom == "poiseuille" else helix_phantom)(**_phantom_args(rc))
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {rc.phantom} phantom, dims {rc.dims}, {rc.frames} frame(s)")
    return 0


def _calibration_text(cal, cfg: DegradationConfig) -> str:
    return _key_value_text(
        [("sigma", cal.sigma), ("achieved_psnr_db", cal.achieved_psnr_db),
         ("target_psnr_db", cal.target_psnr_db), ("seed", cfg.rng_seed),
         ("factor", cfg.d), ("kernel", cfg.kernel)]
    )


def _degradation(rc: RunConfig) -> DegradationConfig:
    return DegradationConfig(d=rc.factor, kernel=rc.kernel, gaussian_fwhm_bins=rc.kernel_fwhm,
                             noise_psnr_db=rc.noise_psnr, rng_seed=rc.seed)


def cmd_degrade(args) -> int:
    # frame by frame through Acquisition's two passes, the spill beside the
    # output; both files are committed together, so a failure leaves neither
    with open_frames(args.infile) as (hr_grid, params, frames), StreamWriter() as out, \
            tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(args.out))) as spill:
        cfg = _degradation(RunConfig(dims=hr_grid.dims, **_settings(args)))
        acq = Acquisition(hr_grid, params.venc, cfg)
        lr_file = out.volume(args.out, acq.lr_grid, params)
        cal_file = out.file(args.calibration_out or args.out + ".cal")
        cal = acq.survey(frames, spill)
        acquired = acq.acquired(params.frame_count, cal, spill)
        for f_idx in range(params.frame_count):
            lr_file.write_frame(f_idx, next(acquired))
        cal_file.write(_calibration_text(cal, cfg).encode("utf-8"))
        out.commit()
    print(f"wrote {args.out}: LR grid {acq.lr_grid.dims}")
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


def cmd_sr(args) -> int:
    if args.report_out and args.method != "fsr":
        raise ParameterError(f"--report-out: {args.method} upsampling makes no solve reports")
    if args.report_out and os.path.realpath(args.report_out) == os.path.realpath(args.out):
        raise ParameterError(f"--report-out: {args.report_out} is also --out")
    lr = load_dataset(args.infile)
    rc = RunConfig(dims=np.multiply(lr.grid.dims, args.factor), **_settings(args))
    hr_grid = lr.grid.scaled(rc.factor)
    if args.method in METHODS:
        sr = upsample_dataset(lr, rc.factor, args.method)
        save_dataset(sr, args.out)
        print(f"wrote {args.out}: {args.method} upsampling to {sr.grid.dims}")
        return 0
    kernel = _degradation(rc).kernel_spectrum(hr_grid)
    cfg = SolverConfig(tau=rc.tau, kernel=kernel, d=rc.factor, prior=rc.prior)
    reports: list = []
    sr = superresolve_dataset(lr, cfg, hr_grid, reports=reports)
    save_dataset(sr, args.out)
    if args.report_out:
        _write_text(args.report_out, _solve_report_csv(reports))
    total = sum(rep.wall_time_s for _, _, rep in reports)
    print(f"wrote {args.out}: fsr tau={rc.tau:g} to {sr.grid.dims} ({total:.2f} s of solves)")
    return 0


def _summary_lines(report: EvalReport, methods) -> list[str]:
    """The mean PSNR/MRE table that ``eval`` prints and ``pipeline`` writes to its summary."""
    return [f"{'method':<12}{'mean PSNR (dB)':>16}{'mean MRE (%)':>14}"] + [
        f"{method:<12}{report.mean(method, 'psnr_db'):>16.3f}"
        f"{report.mean(method, 'mre_percent'):>14.3f}"
        for method in methods
    ]


def cmd_eval(args) -> int:
    rc = RunConfig(mask_threshold=args.mask_threshold)  # its --baseline is a file
    # evaluate reads the files in lockstep, one channel of each at a time
    baseline = args.baseline or None
    labels = (args.sr_label, args.baseline_label)
    report = evaluate(args.sr, args.ref, baseline, rc.mask_threshold, *labels)
    _write_text(args.out, report.to_csv())
    print("\n".join(_summary_lines(report, labels if baseline is not None else labels[:1])))
    print(f"wrote {args.out}: {len(report.records)} records")
    return 0


def _oracle_cases(args):
    if args.dims is not None:
        return [(args.dims, args.factor, args.kernel, [args.tau])]
    grid = itertools.product(ORACLE_GRIDS, ORACLE_FACTORS, KERNEL_KINDS)
    return [(dims, factor, kernel, ORACLE_TAUS) for dims, factor, kernel in grid]


def cmd_oracle_check(args) -> int:
    # every flag is range-checked, those the default matrix ignores too
    RunConfig(**{**_settings(args), "dims": args.dims or args.factor})
    rng = seeded_rng(args.seed)
    t0 = time.perf_counter()
    rels = []
    for dims, factor, kernel_kind, taus in _oracle_cases(args):
        hr = Grid3(*dims)
        lr = hr.decimated(factor)
        kernel = DegradationConfig(d=factor, kernel=kernel_kind).kernel_spectrum(hr)
        y = ComplexVolume(lr, rng.standard_normal(lr.dims) + 1j * rng.standard_normal(lr.dims))
        prior = ComplexVolume(hr, rng.standard_normal(hr.dims) + 1j * rng.standard_normal(hr.dims))
        # (label, oracle's prior, fsr_solve's): random, then the built-in one in image space
        checks = (("explicit", prior, prior), ("trilinear", build_prior(y, factor), None))
        cfgs = [SolverConfig(tau=tau, kernel=kernel, d=factor, prior="trilinear") for tau in taus]
        ops = build_dense(hr, cfgs[0])  # S and H do not depend on tau
        for cfg in cfgs:
            x_refs = _dense_solve_priors(y, [ref_prior for _, ref_prior, _ in checks], ops, cfg.tau)
            for (label, _, fsr_prior), x_ref in zip(checks, x_refs):
                x_fast, _ = fsr_solve(y, cfg, prior=fsr_prior)
                rel = float(np.linalg.norm(x_fast.data - x_ref.data) / np.linalg.norm(x_ref.data))
                rels.append(rel)
                status = "ok" if rel <= ORACLE_TOLERANCE else "FAIL"
                print(
                    f"[{status}] dims={dims} d={factor} kernel={kernel_kind:<8} "
                    f"prior={label:<9} tau={cfg.tau:<8g} rel_err={rel:.3e}"
                )
    elapsed = time.perf_counter() - t0
    failed = sum(not rel <= ORACLE_TOLERANCE for rel in rels)  # a NaN error fails too
    print(
        f"{len(rels)} solves in {elapsed:.1f} s; max relative error {max(rels):.3e} "
        f"(tolerance {ORACLE_TOLERANCE:g})"
    )
    if failed:
        print(f"FAIL: {failed} solve(s) above tolerance", file=sys.stderr)
        return 1
    print("PASS: closed-form solver matches the dense oracle")
    return 0


def cmd_pipeline(args) -> int:
    rc = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            rc = parse_config_text(fh.read())
    if getattr(args, "noise_psnr", 1) <= 0:  # the flag alone: a config line's 0 is 0 dB
        args.noise_psnr = None
    rc = dataclasses.replace(rc, **_settings(args))
    rc.check_flow_mask()

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    t0 = time.perf_counter()

    # one frame at a time: Acquisition's first pass surveys the phantom
    # frames, its second yields each LR frame as the frame is rebuilt, written,
    # solved, upsampled and scored.  Every file is committed at the end, so a
    # failure leaves no partial run
    phantom = _phantom_args(rc)
    hr_grid, params = phantom["grid"], AcquisitionParams(rc.venc, rc.frames)
    single = AcquisitionParams(rc.venc)  # of the one-frame datasets
    degradation = _degradation(rc)
    acq = Acquisition(hr_grid, rc.venc, degradation)
    cfg = SolverConfig(tau=rc.tau, kernel=acq.kernel, d=rc.factor, prior=rc.prior)
    records, reports = [], []
    with StreamWriter() as out, tempfile.TemporaryFile(dir=out_dir) as spill:
        files = [out.volume(path(name), grid, params) for name, grid in (
            ("hr.flw4", hr_grid), ("lr.flw4", acq.lr_grid), ("sr_fsr.flw4", hr_grid),
            (f"sr_{rc.baseline}.flw4", hr_grid))]
        cal = acq.survey(tube_frames(rc.phantom, **phantom), spill)
        acquired = acq.acquired(rc.frames, cal, spill)
        for f_idx, frame in enumerate(tube_frames(rc.phantom, **phantom)):
            lr = VelocityDataset(single, (next(acquired),))
            # one-frame datasets through each stage's own call; their frame 0 is frame f_idx
            solved = []
            sr_fsr = superresolve_dataset(lr, cfg, hr_grid, reports=solved)
            reports += [(f_idx, ch, rep) for _, ch, rep in solved]
            sr_base = upsample_dataset(lr, rc.factor, rc.baseline)
            for file, written in zip(files, (frame, *lr.frames, *sr_fsr.frames, *sr_base.frames)):
                file.write_frame(f_idx, written)
            scored = evaluate(sr_fsr, VelocityDataset(single, (frame,)), sr_base, rc.mask_threshold,
                              "fsr", rc.baseline)
            records += [dataclasses.replace(r, frame=f_idx) for r in scored.records]
            del frame, lr, sr_fsr, sr_base, written  # before the next frame is made
        report = EvalReport(tuple(records))
        # both methods' records come frame by frame, channel by channel
        psnr_wins, mre_wins = (
            all(map(better, report.values("fsr", metric), report.values(rc.baseline, metric)))
            for metric, better in (("psnr_db", operator.gt), ("mre_percent", operator.lt))
        )
        summary = "\n".join([
            f"phantom={rc.phantom} dims={rc.dims} factor={rc.factor} "
            f"noise_psnr={rc.noise_psnr} seed={rc.seed} tau={rc.tau:g}",
            *_summary_lines(report, ("fsr", rc.baseline)),
            f"fsr beats {rc.baseline} on every frame/channel PSNR: {'yes' if psnr_wins else 'NO'}",
            f"fsr beats {rc.baseline} on every frame MRE: {'yes' if mre_wins else 'NO'}",
            f"elapsed: {time.perf_counter() - t0:.1f} s",
        ]) + "\n"
        for name, text in (("lr.flw4.cal", _calibration_text(cal, degradation)),
                           ("solve_reports.csv", _solve_report_csv(reports)),
                           ("metrics.csv", report.to_csv()), ("effective.cfg", format_config_text(rc)),
                           ("summary.txt", summary)):
            out.file(path(name)).write(text.encode("utf-8"))
        out.commit()
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
    _add_settings(p, ("phantom", "dims", "frames", "venc", "vmax", "radius", "axis",
                      "magnitude_in", "magnitude_out", "spacing"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("degrade", help="simulate the low-resolution noisy acquisition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, ("factor", "noise_psnr", "seed", "kernel", "kernel_fwhm"),
                  required=("factor",), noise_psnr=None, seed=0)
    p.add_argument("--calibration-out", default=None, help="default: <out>.cal")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("sr", help="super-resolve a low-resolution dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("fsr",) + METHODS, default="fsr")
    _add_settings(p, ("factor", "tau", "prior", "kernel", "kernel_fwhm"), required=("factor",))
    p.add_argument("--report-out", default=None, help="per-solve diagnostics CSV")
    p.set_defaults(func=cmd_sr)

    p = sub.add_parser("eval", help="score reconstructions against a reference")
    p.add_argument("--sr", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--baseline", default=None)  # a file, not the setting
    p.add_argument("--out", required=True)
    _add_settings(p, ("mask_threshold",), mask_threshold=0.1)
    p.add_argument("--sr-label", default="fsr")
    p.add_argument("--baseline-label", default="trilinear")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "oracle-check",
        help="verify the closed-form solver against the dense brute-force solution",
    )
    _add_settings(p, ("dims", "factor", "tau", "kernel", "seed"),
                  dims=None, factor=(2, 2, 2), tau=0.05, kernel="ideal", seed=0)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("pipeline", help="simulate, degrade, super-resolve and evaluate in one run")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None, help="key=value run configuration file")
    _add_settings(p, HINTS)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlowSRError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
