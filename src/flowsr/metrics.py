"""Flow-region evaluation: masked PSNR and mean relative velocity error.

:func:`evaluate` is the one scorer.  Its flow masks threshold the reference
magnitude, and voxels outside them never influence a value.  PSNR is
reported per velocity component and the relative error treats the three as
one vector field; both take the frame's peak masked reference speed as peak.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, MaskError, ParameterError
from .volume import CHANNELS, ScalarVolume, VelocityDataset, VelocityFrame

__all__ = [
    "EvalRecord",
    "EvalReport",
    "make_mask",
    "evaluate",
]

CSV_HEADER = ("frame", "channel", "method", "metric", "value")


def make_mask(magnitude: ScalarVolume, threshold_fraction: float = 0.1) -> np.ndarray:
    """Voxels reaching a fraction of the peak magnitude, as a read-only C-ordered bool array.

    Never empty: the peak voxel always passes.
    """
    if not 0 < threshold_fraction < 1:
        raise ParameterError(
            f"threshold_fraction must be in (0, 1), got {threshold_fraction}"
        )
    peak = float(magnitude.data.max())
    if peak <= 0:
        raise MaskError("magnitude is zero everywhere; no flow region to mask")
    # a boolean gather walks C order; a mask in another order slows it 2-6x at 128^3
    mask = np.ascontiguousarray(magnitude.data >= threshold_fraction * peak)
    mask.setflags(write=False)
    return mask


def _squared_error(est: np.ndarray, ref: np.ndarray, sel: np.ndarray) -> np.ndarray:
    # (est[sel] - ref[sel]) ** 2, in the array the estimate's gather makes
    err = est[sel]
    err -= ref[sel]
    return np.square(err, out=err)


def _psnr_db(mse: float, peak: float) -> float:
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / mse))


def _norm_over_channels(squares) -> np.ndarray:
    # sqrt(u + v + w) of per-channel masked arrays, summed (u + v) + w into
    # the first one, each next one made only once the sum has taken the last
    total = None
    for square in squares:
        total = square if total is None else np.add(total, square, out=total)
        del square
    return np.sqrt(total, out=total)


def _speed(frame: VelocityFrame, sel: np.ndarray) -> np.ndarray:
    return _norm_over_channels(np.square(frame.channel(ch).data[sel]) for ch in CHANNELS)


def _error_norm(est: VelocityFrame, ref: VelocityFrame, sel: np.ndarray, mses: list):
    """Per-voxel norm of the (u, v, w) error over the mask.

    Each channel's squared error is one gathered array that then adds into
    the u channel's; ``mses`` collects each channel's mean.
    """

    def squares():
        for ch in CHANNELS:
            err = _squared_error(est.channel(ch).data, ref.channel(ch).data, sel)
            mses.append(float(np.mean(err)))
            yield err
            del err

    return _norm_over_channels(squares())


def _mre_percent(error_norm: np.ndarray, peak: float) -> float:
    return 100.0 * float(np.mean(error_norm) / peak)


@dataclass(frozen=True)
class EvalRecord:
    frame: int
    channel: str
    method: str
    metric: str
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class EvalReport:
    """Flat list of metric records plus aggregation and CSV serialization."""

    records: tuple[EvalRecord, ...]

    def values(self, method: str, metric: str, channel: str | None = None) -> list[float]:
        return [
            r.value
            for r in self.records
            if r.method == method and r.metric == metric and (channel is None or r.channel == channel)
        ]

    def mean(self, method: str, metric: str, channel: str | None = None) -> float:
        vals = self.values(method, metric, channel)
        if not vals:
            raise ParameterError(f"no records for method={method!r} metric={metric!r}")
        return float(np.mean(vals))

    def to_csv(self) -> str:
        """CSV with header ``frame,channel,method,metric,value`` (LF endings)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in self.records:
            writer.writerow([r.frame, r.channel, r.method, r.metric, repr(r.value)])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "EvalReport":
        reader = csv.reader(io.StringIO(text))
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ParameterError(f"unexpected CSV header {header}")
        records = tuple(
            EvalRecord(int(row[0]), row[1], row[2], row[3], float(row[4])) for row in reader
        )
        return EvalReport(records)


def evaluate(
    sr: VelocityDataset,
    ref: VelocityDataset,
    baseline: VelocityDataset | None = None,
    mask_threshold: float = 0.1,
    sr_method: str = "fsr",
    baseline_method: str = "trilinear",
) -> EvalReport:
    """Score reconstructions against a reference inside per-frame flow masks.

    Each frame's mask is :func:`make_mask` of its reference magnitude.  Every
    frame yields one PSNR record per velocity channel and method, plus one
    relative-error record per method (channel ``all``).  Both metrics take
    the frame's peak masked reference speed as their peak, so channels with
    no reference flow stay well-defined and methods remain comparable.
    """
    candidates = [(sr_method, sr)] + ([(baseline_method, baseline)] if baseline is not None else [])
    for name, ds in candidates:
        if len(ds.frames) != len(ref.frames):
            raise GridMismatchError(f"{name} frame count differs from reference")
        if ds.grid.dims != ref.grid.dims:
            raise GridMismatchError(f"{name} grid differs from reference")

    records = []
    for f_idx, ref_frame in enumerate(ref.frames):
        sel = make_mask(ref_frame.magnitude, mask_threshold)
        peak_speed = float(_speed(ref_frame, sel).max())
        if peak_speed <= 0:
            raise ParameterError(f"frame {f_idx}: reference flow is zero inside the mask")
        for method, ds in candidates:
            # one pass over the channels gives their PSNRs and the vector error
            mses = []
            mre = _mre_percent(_error_norm(ds.frames[f_idx], ref_frame, sel, mses), peak_speed)
            for ch, mse in zip(CHANNELS, mses):
                records.append(EvalRecord(f_idx, ch, method, "psnr_db", _psnr_db(mse, peak_speed)))
            records.append(EvalRecord(f_idx, "all", method, "mre_percent", mre))
    return EvalReport(tuple(records))
