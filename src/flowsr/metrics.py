"""Flow-region evaluation: masked PSNR and mean relative velocity error.

:func:`evaluate` is the one scorer.  Its flow masks threshold the reference
magnitude, and voxels outside them never influence a value.  PSNR is
reported per velocity component and the relative error treats the three as
one vector field; both take the frame's peak masked reference speed as peak.

It scores datasets or volume files alike.  Either kind is a stream of
channel blocks, frame by frame in file order, and one core,
:func:`_frame_records`, takes each frame's masked voxels channel by channel:
the reference's gathered once per channel, each method's straight from its
block.  A file's float32 samples widen to float64 exactly, so a file scores
to the bits of its loaded dataset while ``evaluate`` holds one block per
file, the mask and the masked voxels.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, MaskError, ParameterError
from .volio import open_channels
from .volume import CHANNELS, ScalarVolume, VelocityDataset

__all__ = [
    "EvalRecord",
    "EvalReport",
    "make_mask",
    "evaluate",
]

CSV_HEADER = ("frame", "channel", "method", "metric", "value")


def _check_threshold(threshold_fraction: float) -> None:
    if not 0 < threshold_fraction < 1:
        raise ParameterError(
            f"threshold_fraction must be in (0, 1), got {threshold_fraction}"
        )


def make_mask(magnitude: ScalarVolume, threshold_fraction: float = 0.1) -> np.ndarray:
    """Voxels reaching a fraction of the peak magnitude, as a read-only C-ordered bool array.

    Never empty: the peak voxel always passes.
    """
    _check_threshold(threshold_fraction)
    return _mask(magnitude.data, threshold_fraction)


def _mask(data: np.ndarray, threshold_fraction: float) -> np.ndarray:
    # data is float64 or a file's float32 block; a float64 threshold makes the
    # comparison float64 for both, so a stored file masks as its load does
    peak = float(data.max())
    if peak <= 0:
        raise MaskError("magnitude is zero everywhere; no flow region to mask")
    # a boolean gather walks C order; a mask in another order slows it 2-6x at 128^3
    mask = np.ascontiguousarray(data >= np.float64(threshold_fraction * peak))
    mask.setflags(write=False)
    return mask


def _psnr_db(mse: float, peak: float) -> float:
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / mse))


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


def _frame_records(f_idx: int, channels, methods) -> list[EvalRecord]:
    """One frame's records, the core every source of :func:`evaluate` goes through.

    ``channels`` yields, for u, v and w in turn, the reference's masked voxels
    and an iterator over each method's, all float64 in the mask's gather
    order.  The speed's and each method's error norm's squares are summed
    (u + v) + w as the channels come, and each gathered array is dropped
    before the next is made.
    """
    speed = None
    norms = [None] * len(methods)
    mses = [[] for _ in methods]
    for ref, estimates in channels:
        for i, err in enumerate(estimates):
            err -= ref
            np.square(err, out=err)
            mses[i].append(float(np.mean(err)))
            norms[i] = err if norms[i] is None else np.add(norms[i], err, out=norms[i])
            del err
        np.square(ref, out=ref)  # the errors are taken, so the speed takes ref's array
        speed = ref if speed is None else np.add(speed, ref, out=speed)
        del ref
    peak = float(np.sqrt(speed, out=speed).max())
    if peak <= 0:
        raise ParameterError(f"frame {f_idx}: reference flow is zero inside the mask")
    records = []
    for method, norm, channel_mses in zip(methods, norms, mses):
        mre = _mre_percent(np.sqrt(norm, out=norm), peak)
        for ch, mse in zip(CHANNELS, channel_mses):
            records.append(EvalRecord(f_idx, ch, method, "psnr_db", _psnr_db(mse, peak)))
        records.append(EvalRecord(f_idx, "all", method, "mre_percent", mre))
    return records


def _gathered(data: np.ndarray, sel: np.ndarray) -> np.ndarray:
    # float32 -> float64 is exact, so a file's block gathers to the bits its load would
    return np.asarray(data[sel], dtype=np.float64)


def _channels(sel: np.ndarray, ref, estimates):
    # u, v, w of one frame from lockstep block streams, in _frame_records' form
    for _ in CHANNELS:
        ref_data = next(ref)[2]
        blocks = [next(stream)[2] for stream in estimates]
        yield _gathered(ref_data, sel), (_gathered(data, sel) for data in blocks)


def _open(source, stack: contextlib.ExitStack):
    """(frame count, dims, blocks) of a dataset or of a volume file's path.

    ``blocks`` yields ``(frame, channel, array)`` frame by frame, magnitude
    first and then :data:`CHANNELS`, as the file stores them.
    """
    if isinstance(source, VelocityDataset):
        blocks = (
            (f_idx, ch, frame.channel(ch).data)
            for f_idx, frame in enumerate(source.frames)
            for ch in ("magnitude",) + CHANNELS
        )
        return len(source.frames), source.grid.dims, blocks
    grid, params, blocks = stack.enter_context(open_channels(source))
    return params.frame_count, grid.dims, blocks


def evaluate(
    sr: VelocityDataset | str | os.PathLike,
    ref: VelocityDataset | str | os.PathLike,
    baseline: VelocityDataset | str | os.PathLike | None = None,
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

    ``sr``, ``ref`` and ``baseline`` are datasets or paths of volume files.
    Files are opened (``sr``, ``ref``, then ``baseline``) and their headers
    compared before any sample is read; they are then read in lockstep, one
    channel of each at a time, and scored as their loads would be.  Only the
    reference's magnitude is used; the others are read and checked.
    ``ParameterError``, before any file is opened, when a baseline's
    ``baseline_method`` is ``sr_method``: the two could not be told apart.
    """
    _check_threshold(mask_threshold)
    if baseline is not None and sr_method == baseline_method:
        raise ParameterError(f"the baseline's method label is the SR's ({sr_method!r}): "
                             "their records could not be told apart")
    with contextlib.ExitStack() as stack:
        candidates = [(sr_method, _open(sr, stack))]
        frame_count, dims, ref_blocks = _open(ref, stack)
        if baseline is not None:
            candidates.append((baseline_method, _open(baseline, stack)))
        for name, (count, cand_dims, _) in candidates:
            if count != frame_count:
                raise GridMismatchError(f"{name} frame count differs from reference")
            if cand_dims != dims:
                raise GridMismatchError(f"{name} grid differs from reference")
        methods = [name for name, _ in candidates]
        streams = [blocks for _, (_, _, blocks) in candidates]
        records = []
        for f_idx in range(frame_count):
            sel = _mask(next(ref_blocks)[2], mask_threshold)
            for stream in streams:
                next(stream)  # the estimates' magnitudes: read and checked, never scored
            records += _frame_records(f_idx, _channels(sel, ref_blocks, streams), methods)
    return EvalReport(tuple(records))
