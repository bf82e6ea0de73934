"""Velocity-domain upsampling baselines: trilinear and tricubic.

Grid alignment matches the decimation operator: low-res voxel centers sit on
every d-th high-res voxel center starting at index 0, so sampling the
upsampled field at offset-0 stride-d voxels returns the low-res field
exactly.  Coordinates beyond the last low-res center clamp to the edge
(flow fields are masked near boundaries anyway).

Both methods are tensor-product B-splines (order 1 and order 3), so they
separate per axis.  The ``(dim * rate, dim)`` weight matrix of one axis is
taken from ``scipy.ndimage.map_coordinates`` itself, by interpolating each
unit vector with the same order and ``mode="nearest"``: its spline prefilter
and clamp-at-edge rule are scipy's own, and the result equals the 3D
``map_coordinates`` call to rounding.  The matrices are cached per
``(dim, rate, order)`` and applied with one matrix product per axis whose
rate exceeds 1, which costs ``dim`` multiply-adds per output sample and axis
and never builds a high-res coordinate array.  The weights are real, so a
complex array interpolates in one pass, real and imaginary parts alike.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.ndimage import map_coordinates

from .errors import ParameterError
from .spectral import _check_rates
from .volume import ScalarVolume, VelocityDataset, VelocityFrame

__all__ = ["METHODS", "upsample_array", "upsample_velocity", "upsample_dataset"]

_ORDERS = {"trilinear": 1, "tricubic": 3}
METHODS = tuple(_ORDERS)


@functools.lru_cache(maxsize=64)
def _axis_weights(dim: int, rate: int, order: int) -> np.ndarray:
    # column j is the interpolant of unit vector j sampled at the fine
    # coordinates i / rate; read-only because every caller shares it
    coords = (np.arange(dim * rate) / rate)[None]
    weights = np.empty((dim * rate, dim))
    for j, unit in enumerate(np.eye(dim)):
        weights[:, j] = map_coordinates(unit, coords, order=order, mode="nearest")
    weights.setflags(write=False)
    return weights


def upsample_array(a: np.ndarray, d: tuple[int, int, int], method: str = "trilinear") -> np.ndarray:
    """Interpolate a raw (m, n, s) array, real or complex, onto the d-times-finer lattice."""
    if method not in _ORDERS:
        raise ParameterError(f"method must be one of {sorted(_ORDERS)}, got {method!r}")
    d = _check_rates(d)
    if d == (1, 1, 1):
        return a.copy()
    out = a
    for axis, rate in enumerate(d):
        if rate > 1:
            weights = _axis_weights(a.shape[axis], rate, _ORDERS[method])
            out = np.moveaxis(np.tensordot(weights, out, axes=(1, axis)), 0, axis)
    return np.ascontiguousarray(out)


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
