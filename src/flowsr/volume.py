"""Volumetric sample containers and velocity/phase/complex conversions.

Conventions fixed here and relied on everywhere else:

* Volumes are indexed ``data[x, y, z]`` with shape ``(m, n, s)``.
* The canonical vector (lexicographic) ordering is x fastest, then y,
  then z, i.e. Fortran raveling of the ``(m, n, s)`` array.
* A velocity component ``v`` maps to the signal phase ``pi * v / venc``;
  speeds at or beyond ``venc`` wrap and are rejected, not wrapped.

All container types are immutable after construction (their arrays are
marked read-only), so they can be shared freely across threads.  The public
constructors copy and check the arrays callers pass in; arrays flowsr has
just made and holds alone are adopted instead (:func:`_adopt`): marked
read-only in place, with no copy.
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
    "synthesize_complex",
    "extract_velocity",
    "map_frame",
]

CHANNELS = ("u", "v", "w")


def _check_rates(d) -> tuple[int, int, int]:
    d = tuple(int(v) for v in d)
    if len(d) != 3 or min(d) < 1:
        raise ParameterError(f"decimation rates must be 3 ints >= 1, got {d}")
    return d


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
        if len(sp) != 3 or not all(0 < v < np.inf for v in sp):
            raise ParameterError(f"grid spacing must be 3 finite values > 0, got {self.spacing}")
        object.__setattr__(self, "spacing", sp)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.s)

    @property
    def voxel_count(self) -> int:
        return self.m * self.n * self.s

    def scaled(self, factor: tuple[int, int, int]) -> "Grid3":
        """Grid with ``factor``-times the voxel count per axis, same physical extent."""
        fr, fc, fs = _check_rates(factor)
        return Grid3(
            self.m * fr,
            self.n * fc,
            self.s * fs,
            (self.spacing[0] / fr, self.spacing[1] / fc, self.spacing[2] / fs),
        )

    def decimated(self, factor: tuple[int, int, int]) -> "Grid3":
        """Grid with every ``factor``-th voxel per axis; dims must divide evenly."""
        fr, fc, fs = _check_rates(factor)
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
    _check_finite(arr)
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ParameterError("volume samples must all be finite")


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


_DTYPES = {ScalarVolume: np.dtype(np.float64), ComplexVolume: np.dtype(np.complex128)}


def _adopt(cls, grid: Grid3, data: np.ndarray):
    """A ``cls`` volume that holds ``data`` itself, marked read-only in place.

    For an array flowsr has just made, of the volume's dtype and shape, that
    nothing else holds.  Nothing is copied and ``__post_init__`` does not
    run, so the caller checks finiteness wherever the values could be
    non-finite.  A view (a reshaped matrix product, an in-place transform)
    has the array it views marked read-only too.
    """
    if data.dtype != _DTYPES[cls] or data.shape != grid.dims:
        raise GridMismatchError(
            f"cannot adopt a {data.dtype} array of shape {data.shape} as a "
            f"{cls.__name__} on grid {grid.dims}"
        )
    data.setflags(write=False)
    if isinstance(data.base, np.ndarray):  # a view's base is the array owning the memory
        data.base.setflags(write=False)
    vol = object.__new__(cls)
    object.__setattr__(vol, "grid", grid)
    object.__setattr__(vol, "data", data)
    return vol


@dataclass(frozen=True)
class AcquisitionParams:
    """Acquisition metadata: encoding limit and frame count."""

    venc: float
    frame_count: int = 1

    def __post_init__(self):
        _check_venc(self.venc)
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
    return _phase_encode(magnitude, vel, venc)


def _phase_encode(magnitude: ScalarVolume, vel: ScalarVolume, venc: float) -> ComplexVolume:
    # the signal model itself, with none of synthesize_complex's guards; finite
    # magnitudes times unit phasors stay finite, so the product is adopted.  The
    # phasor is cos + i sin, exp(1j * phase)'s bits without its complex
    # temporaries: + 0.0 turns -0 into +0 as ``1j * phase`` does, and a complex
    # multiply keeps m * exp's signed zeros where m is 0
    phase = np.pi * vel.data / venc + 0.0
    unit = np.empty_like(phase, dtype=np.complex128)
    np.cos(phase, out=unit.real)
    np.sin(phase, out=unit.imag)
    unit *= magnitude.data
    return _adopt(ComplexVolume, magnitude.grid, unit)


def extract_velocity(
    signal: ComplexVolume, venc: float, magnitude: bool = True
) -> tuple[ScalarVolume | None, ScalarVolume]:
    """Split a complex signal into (magnitude, velocity).

    The phase is taken in (-pi, pi]; zero voxels get velocity 0 (a zero
    signal carries no flow information and must not produce NaN).  Both
    outputs are adopted, not copied; the velocity is bounded by ``venc``,
    and the magnitude is checked, as it overflows for samples near the
    float limit.  With ``magnitude=False`` no magnitude is computed and the
    first item is None.
    """
    venc = _check_venc(venc)
    mag = None
    if magnitude:
        mag = np.abs(signal.data)
        _check_finite(mag)
        mag = _adopt(ScalarVolume, signal.grid, mag)
    vel = np.angle(signal.data)  # angle(0) == 0, matching the zero-voxel convention
    vel *= venc
    vel /= np.pi
    return mag, _adopt(ScalarVolume, signal.grid, vel)


def map_frame(channel_fn: Callable[[str, bool], tuple[ScalarVolume | None, ScalarVolume]]) -> VelocityFrame:
    """Build an output frame by mapping each velocity channel of the input frame ``channel_fn`` reads.

    ``channel_fn(channel, keep_magnitude)`` returns the ``(magnitude,
    velocity)`` pair of one channel, and is called in :data:`CHANNELS`
    order.  The output frame keeps every channel's velocity and the u
    channel's magnitude (the others differ from it where a low-pass filters
    their phase), so ``keep_magnitude`` is true for u alone, and the
    magnitude returned for v and w, None or not, is dropped.
    """
    out: dict[str, ScalarVolume] = {}
    for ch in CHANNELS:
        mag, out[ch] = channel_fn(ch, ch == "u")
        if ch == "u":
            out["magnitude"] = mag
    return VelocityFrame(**out)
