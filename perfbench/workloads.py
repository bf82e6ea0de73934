"""The benchmark's workloads: what each one runs through the flowsr CLI.

Every workload is a closed loop with one caller: a round is a fixed list of
``flowsr`` commands run in order in one process, each starting when the
previous one has returned.  All inputs are generated from the run's seed,
which only sets the acquisition-noise seed; grids, frames and tau are fixed
so that every run does the same amount of work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

VENC = 150.0
VMAX = 120.0
NOISE_PSNR_DB = 15.0


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline": one `flowsr pipeline`; "files": `sr` then `eval` on stored files
    phantom: str
    hr_dims: tuple[int, int, int]
    d: tuple[int, int, int]
    frames: int
    kernel: str
    prior: str
    baseline: str
    tau: float
    beats_baseline: bool  # check the paper's comparative claim on this workload

    @property
    def lr_dims(self) -> tuple[int, int, int]:
        return tuple(h // r for h, r in zip(self.hr_dims, self.d))

    @property
    def hr_voxels(self) -> int:
        return self.hr_dims[0] * self.hr_dims[1] * self.hr_dims[2]

    def sr_voxel_channels(self) -> int:
        """HR voxel-channels the fsr solves of one round produce."""
        return self.frames * 3 * self.hr_voxels

    def paths(self, work: str) -> dict:
        """Where the inputs and outputs of a round are (the names `flowsr pipeline` uses).

        ``metrics`` is the CSV the timed round writes: the pipeline's own, or
        that of `flowsr eval` on the stored files.
        """
        out = os.path.join(work, "out")
        return {
            "out": out,
            "hr": os.path.join(out, "hr.flw4"),
            "lr": os.path.join(out, "lr.flw4"),
            "baseline": os.path.join(out, f"sr_{self.baseline}.flw4"),
            "sr": os.path.join(out, "sr_fsr.flw4"),
            "metrics": os.path.join(out, "metrics.csv" if self.kind == "pipeline" else "metrics_eval.csv"),
        }

    def setup_commands(self, work: str, seed: int) -> list[list[str]]:
        """Input generation before the timed rounds (none for the pipelines)."""
        if self.kind == "pipeline":
            return []
        p = self.paths(work)
        return [
            ["simulate", "--phantom", self.phantom, "--dims", _csv(self.hr_dims),
             "--frames", str(self.frames), "--venc", str(VENC), "--vmax", str(VMAX),
             "--out", p["hr"]],
            ["degrade", "--in", p["hr"], "--out", p["lr"], "--factor", _csv(self.d),
             "--kernel", self.kernel, "--noise-psnr", str(NOISE_PSNR_DB), "--seed", str(seed)],
            ["sr", "--in", p["lr"], "--out", p["baseline"], "--factor", _csv(self.d),
             "--method", self.baseline],
        ]

    def round_commands(self, work: str, seed: int) -> list[list[str]]:
        """The commands of one timed round."""
        p = self.paths(work)
        if self.kind == "pipeline":
            return [
                ["pipeline", "--out-dir", p["out"], "--phantom", self.phantom,
                 "--dims", _csv(self.hr_dims), "--frames", str(self.frames),
                 "--venc", str(VENC), "--vmax", str(VMAX), "--factor", _csv(self.d),
                 "--kernel", self.kernel, "--noise-psnr", str(NOISE_PSNR_DB),
                 "--seed", str(seed), "--tau", f"{self.tau:g}", "--prior", self.prior,
                 "--baseline", self.baseline]
            ]
        return [
            ["sr", "--in", p["lr"], "--out", p["sr"], "--factor", _csv(self.d),
             "--method", "fsr", "--kernel", self.kernel, "--tau", f"{self.tau:g}",
             "--prior", self.prior],
            ["eval", "--sr", p["sr"], "--ref", p["hr"], "--baseline", p["baseline"],
             "--baseline-label", self.baseline, "--out", p["metrics"]],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-x4",
            kind="pipeline",
            phantom="poiseuille",
            hr_dims=(64, 64, 64),
            d=(4, 4, 4),
            frames=5,
            kernel="ideal",
            prior="trilinear",
            baseline="trilinear",
            tau=1.0,
            beats_baseline=True,
        ),
        Workload(
            name="sr-x2-128",
            kind="files",
            phantom="helix",
            hr_dims=(128, 128, 128),
            d=(2, 2, 2),
            frames=1,
            kernel="ideal",
            prior="zero-fill",
            baseline="trilinear",
            tau=1.0,
            beats_baseline=False,
        ),
        Workload(
            name="cine-aniso",
            kind="pipeline",
            phantom="helix",
            hr_dims=(64, 64, 32),
            d=(2, 2, 1),
            frames=8,
            kernel="gaussian",
            prior="trilinear",
            baseline="tricubic",
            tau=1.0,
            beats_baseline=False,
        ),
    )
}
