"""Volumetric sample containers and velocity/phase/complex conversions.

Conventions fixed here and relied on everywhere else:

* Volumes are indexed ``data[x, y, z]`` with shape ``(m, n, s)``.
* The canonical vector (lexicographic) ordering is x fastest, then y,
  then z, i.e. Fortran raveling of the ``(m, n, s)`` array.
* A velocity component ``v`` maps to the signal phase ``pi * v / venc``;
  speeds at or beyond ``venc`` wrap and are rejected, not wrapped.

All container types are immutable after construction (their arrays are
marked read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, GridMismatchError, ParameterError

__all__ = [
    "CHANNELS",
    "Grid3",
    "ScalarVolume",
    "ComplexVolume",
    "AcquisitionParams",
    "VelocityFrame",
    "VelocityDataset",
    "ravel_lex",
    "unravel_lex",
    "velocity_to_phase",
    "phase_to_velocity",
    "synthesize_complex",
    "extract_velocity",
    "map_channels",
]

CHANNELS = ("u", "v", "w")


@dataclass(frozen=True)
class Grid3:
    """Regular 3D voxel lattice: counts per axis plus physical spacing in mm."""

    m: int
    n: int
    s: int
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if min(self.m, self.n, self.s) < 1:
            raise ParameterError(f"grid dims must be >= 1, got {self.dims}")
        sp = tuple(float(v) for v in self.spacing)
        if len(sp) != 3 or min(sp) <= 0:
            raise ParameterError(f"grid spacing must be 3 positive values, got {self.spacing}")
        object.__setattr__(self, "spacing", sp)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.s)

    @property
    def voxel_count(self) -> int:
        return self.m * self.n * self.s

    def scaled(self, factor: tuple[int, int, int]) -> "Grid3":
        """Grid with ``factor``-times the voxel count per axis, same physical extent."""
        fr, fc, fs = factor
        return Grid3(
            self.m * fr,
            self.n * fc,
            self.s * fs,
            (self.spacing[0] / fr, self.spacing[1] / fc, self.spacing[2] / fs),
        )

    def decimated(self, factor: tuple[int, int, int]) -> "Grid3":
        """Grid with every ``factor``-th voxel per axis; dims must divide evenly."""
        fr, fc, fs = factor
        if self.m % fr or self.n % fc or self.s % fs:
            raise GridMismatchError(
                f"decimation {factor} does not divide grid dims {self.dims}"
            )
        return Grid3(
            self.m // fr,
            self.n // fc,
            self.s // fs,
            (self.spacing[0] * fr, self.spacing[1] * fc, self.spacing[2] * fs),
        )


def _freeze(grid: Grid3, data, dtype) -> np.ndarray:
    arr = np.array(data, dtype=dtype, copy=True)
    if arr.shape != grid.dims:
        if arr.size == grid.voxel_count:
            arr = arr.reshape(grid.dims, order="F")
        else:
            raise GridMismatchError(
                f"data has {arr.size} samples, grid {grid.dims} needs {grid.voxel_count}"
            )
    if not np.isfinite(arr).all():
        raise ParameterError("volume samples must all be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScalarVolume:
    """Real samples on a :class:`Grid3` (magnitude, one velocity component, phase)."""

    grid: Grid3
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.grid, self.data, np.float64))


@dataclass(frozen=True, eq=False)
class ComplexVolume:
    """Complex samples on a :class:`Grid3` (signal or its spectrum)."""

    grid: Grid3
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.grid, self.data, np.complex128))


@dataclass(frozen=True)
class AcquisitionParams:
    """Acquisition metadata: encoding limit, frame count, frame spacing in seconds."""

    venc: float
    frame_count: int = 1
    frame_interval: float = 0.0

    def __post_init__(self):
        if not 0 < self.venc < np.inf:
            raise ParameterError(f"venc must be finite and > 0, got {self.venc}")
        if self.frame_count < 1:
            raise ParameterError(f"frame_count must be >= 1, got {self.frame_count}")


@dataclass(frozen=True)
class VelocityFrame:
    """One cardiac phase: magnitude plus the three velocity components (cm/s)."""

    magnitude: ScalarVolume
    u: ScalarVolume
    v: ScalarVolume
    w: ScalarVolume

    def __post_init__(self):
        g = self.magnitude.grid
        for name in CHANNELS:
            if getattr(self, name).grid != g:
                raise GridMismatchError(f"channel {name} grid differs from magnitude grid")

    @property
    def grid(self) -> Grid3:
        return self.magnitude.grid

    def channel(self, name: str) -> ScalarVolume:
        if name != "magnitude" and name not in CHANNELS:
            raise ParameterError(f"unknown channel {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class VelocityDataset:
    """Acquisition parameters plus one :class:`VelocityFrame` per cardiac phase."""

    params: AcquisitionParams
    frames: tuple[VelocityFrame, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) != self.params.frame_count:
            raise GridMismatchError(
                f"{len(self.frames)} frames but params.frame_count = {self.params.frame_count}"
            )
        g = self.frames[0].grid
        for i, f in enumerate(self.frames):
            if f.grid != g:
                raise GridMismatchError(f"frame {i} grid differs from frame 0")

    @property
    def grid(self) -> Grid3:
        return self.frames[0].grid


def ravel_lex(a: np.ndarray) -> np.ndarray:
    """Vectorize an ``(m, n, s)`` array in the repo's lexicographic order (x fastest)."""
    return a.reshape(-1, order="F")


def unravel_lex(vec: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`ravel_lex`."""
    return vec.reshape(dims, order="F")


def _check_venc(venc: float) -> float:
    venc = float(venc)
    if not 0 < venc < np.inf:
        raise ParameterError(f"venc must be finite and > 0, got {venc}")
    return venc


def velocity_to_phase(vel: ScalarVolume, venc: float) -> ScalarVolume:
    """Map velocities (cm/s) to phase shifts (radians): ``pi * vel / venc``."""
    venc = _check_venc(venc)
    return ScalarVolume(vel.grid, np.pi * vel.data / venc)


def phase_to_velocity(phase: ScalarVolume, venc: float) -> ScalarVolume:
    """Map phase shifts in (-pi, pi] back to velocities: ``venc * phase / pi``."""
    venc = _check_venc(venc)
    return ScalarVolume(phase.grid, venc * phase.data / np.pi)


def synthesize_complex(magnitude: ScalarVolume, vel: ScalarVolume, venc: float) -> ComplexVolume:
    """Rebuild the complex signal ``magnitude * exp(i * pi * vel / venc)``.

    Parameters
    ----------
    magnitude : ScalarVolume
        Nonnegative per-voxel amplitude.
    vel : ScalarVolume
        One velocity component, strictly below ``venc`` in magnitude.
    venc : float
        Speed that maps to a phase of pi.

    Raises
    ------
    AliasingError
        If any voxel has ``|vel| >= venc``; wrapping would silently corrupt
        the signal, so it is always a hard error.
    """
    venc = _check_venc(venc)
    if magnitude.grid != vel.grid:
        raise GridMismatchError("magnitude and velocity grids differ")
    if np.any(magnitude.data < 0):
        raise ParameterError("magnitude must be nonnegative everywhere")
    aliased = int(np.count_nonzero(np.abs(vel.data) >= venc))
    if aliased:
        raise AliasingError(aliased, venc)
    phase = np.pi * vel.data / venc
    return ComplexVolume(magnitude.grid, magnitude.data * np.exp(1j * phase))


def extract_velocity(signal: ComplexVolume, venc: float) -> tuple[ScalarVolume, ScalarVolume]:
    """Split a complex signal into (magnitude, velocity).

    The phase is taken in (-pi, pi]; zero voxels get velocity 0 (a zero
    signal carries no flow information and must not produce NaN).
    """
    venc = _check_venc(venc)
    magnitude = np.abs(signal.data)
    phase = np.angle(signal.data)  # angle(0) == 0, matching the zero-voxel convention
    vel = venc * phase / np.pi
    return ScalarVolume(signal.grid, magnitude), ScalarVolume(signal.grid, vel)


def map_channels(
    ds: VelocityDataset,
    channel_fn: Callable[[int, VelocityFrame, str], tuple[ScalarVolume, ScalarVolume]],
) -> VelocityDataset:
    """Build a dataset by mapping every frame and velocity channel of ``ds``.

    ``channel_fn(frame_index, frame, channel)`` returns the ``(magnitude,
    velocity)`` pair of one channel, and is called frame by frame in
    :data:`CHANNELS` order.  Each output frame keeps every channel's velocity
    and the u channel's magnitude (channel magnitudes differ only through
    noise and ringing); the output keeps ``ds.params``.
    """
    frames = []
    for f_idx, frame in enumerate(ds.frames):
        out: dict[str, ScalarVolume] = {}
        for ch in CHANNELS:
            mag, out[ch] = channel_fn(f_idx, frame, ch)
            if ch == "u":
                out["magnitude"] = mag
        frames.append(VelocityFrame(**out))
    return VelocityDataset(ds.params, tuple(frames))
