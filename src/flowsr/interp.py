"""Velocity-domain upsampling baselines: trilinear and tricubic.

Grid alignment matches the decimation operator: low-res voxel centers sit on
every d-th high-res voxel center starting at index 0, so sampling the
upsampled field at offset-0 stride-d voxels returns the low-res field
exactly.  Coordinates beyond the last low-res center clamp to the edge
(flow fields are masked near boundaries anyway).
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import map_coordinates

from .errors import ParameterError
from .volume import ScalarVolume, VelocityDataset, VelocityFrame

__all__ = ["METHODS", "upsample_array", "upsample_velocity", "upsample_dataset"]

_ORDERS = {"trilinear": 1, "tricubic": 3}
METHODS = tuple(_ORDERS)


def upsample_array(a: np.ndarray, d: tuple[int, int, int], method: str = "trilinear") -> np.ndarray:
    """Interpolate a raw (m, n, s) array onto the d-times-finer lattice."""
    if method not in _ORDERS:
        raise ParameterError(f"method must be one of {sorted(_ORDERS)}, got {method!r}")
    d = tuple(int(v) for v in d)
    if min(d) < 1:
        raise ParameterError(f"upsampling factors must be >= 1, got {d}")
    if d == (1, 1, 1):
        return a.copy()
    coords = np.meshgrid(
        *(np.arange(dim * rate) / rate for dim, rate in zip(a.shape, d)),
        indexing="ij",
    )
    return map_coordinates(a, coords, order=_ORDERS[method], mode="nearest")


def upsample_velocity(
    vel: ScalarVolume, d: tuple[int, int, int], method: str = "trilinear"
) -> ScalarVolume:
    """Upsample one velocity component (or any scalar field) by rates ``d``."""
    return ScalarVolume(vel.grid.scaled(tuple(int(v) for v in d)), upsample_array(vel.data, d, method))


def upsample_dataset(
    lr: VelocityDataset, d: tuple[int, int, int], method: str = "trilinear"
) -> VelocityDataset:
    """Upsample magnitude and all three velocity channels of every frame."""
    frames = tuple(
        VelocityFrame(
            magnitude=upsample_velocity(f.magnitude, d, method),
            u=upsample_velocity(f.u, d, method),
            v=upsample_velocity(f.v, d, method),
            w=upsample_velocity(f.w, d, method),
        )
        for f in lr.frames
    )
    return VelocityDataset(lr.params, frames)
