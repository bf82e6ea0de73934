"""Velocity-domain upsampling baselines: trilinear and tricubic.

Grid alignment matches the decimation operator: low-res voxel centers sit on
every d-th high-res voxel center starting at index 0, so sampling the
upsampled field at offset-0 stride-d voxels returns the low-res field
exactly.  Coordinates beyond the last low-res center clamp to the edge
(flow fields are masked near boundaries anyway).

Both methods are tensor-product B-splines (order 1 and order 3), so they
separate per axis.  The ``(dim * rate, dim)`` weight matrix W of one axis is
taken from ``scipy.ndimage.map_coordinates`` itself, by interpolating each
unit vector with the same order and ``mode="nearest"``: its spline prefilter
and clamp-at-edge rule are scipy's own, and the result equals the 3D
``map_coordinates`` call to rounding.  The matrices are cached per
``(dim, rate, order)`` and applied with one matrix product per axis whose
rate exceeds 1, which costs ``dim`` multiply-adds per output sample and axis
and never builds a high-res coordinate array.  The weights are real, so a
complex array interpolates in one pass, real and imaginary parts alike.

The unitary 3D DFT separates too, so :func:`upsample_spectrum` applies each
W's column-wise unitary DFT ``fft(W, axis=0)`` (the DFT matrix on a rate-1
axis) the same way, with no high-res image and no high-res FFT.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.fft
from scipy.ndimage import map_coordinates

from .errors import ParameterError
from .volume import (CHANNELS, ScalarVolume, VelocityDataset, VelocityFrame, _adopt,
                     _check_finite, _check_rates)

__all__ = ["METHODS", "upsample_array", "upsample_spectrum", "upsample_dataset"]

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


@functools.lru_cache(maxsize=64)
def _axis_spectra(dim: int, rate: int, order: int) -> np.ndarray:
    # the unitary DFT of each column of the weights (of the identity at rate 1)
    weights = _axis_weights(dim, rate, order) if rate > 1 else np.eye(dim)
    spectra = scipy.fft.fft(weights, axis=0, norm="ortho")
    spectra.setflags(write=False)
    return spectra


def _per_axis(a: np.ndarray, d, method: str, spectra: bool) -> np.ndarray:
    # each axis's weights (their unitary DFT with spectra; interpolation skips
    # a rate-1 axis, rotating it as a view): each product contracts axis 0 and
    # appends the new axis last, so the axes end in order and C-contiguous
    if method not in _ORDERS:
        raise ParameterError(f"method must be one of {sorted(_ORDERS)}, got {method!r}")
    out = a
    for dim, rate in zip(a.shape, _check_rates(d)):
        if rate == 1 and not spectra:
            out = np.moveaxis(out, 0, -1)
        else:
            table = _axis_spectra if spectra else _axis_weights
            out = np.tensordot(out, table(dim, rate, _ORDERS[method]), axes=(0, 1))
    return out


def upsample_array(a: np.ndarray, d: tuple[int, int, int], method: str = "trilinear") -> np.ndarray:
    """Interpolate a raw (m, n, s) array, real or complex, onto the d-times-finer lattice."""
    out = _per_axis(a, d, method, spectra=False)
    # at d = (1, 1, 1) out is a view of a
    return out.copy() if np.may_share_memory(out, a) else np.ascontiguousarray(out)


def upsample_spectrum(a: np.ndarray, d: tuple[int, int, int]) -> np.ndarray:
    """Unitary spectrum of ``upsample_array(a, d)`` (trilinear), C-contiguous, no high-res FFT."""
    return _per_axis(a, d, "trilinear", spectra=True)


def upsample_dataset(
    lr: VelocityDataset, d: tuple[int, int, int], method: str = "trilinear"
) -> VelocityDataset:
    """Upsample magnitude and all three velocity channels of every frame."""
    grid = lr.grid.scaled(_check_rates(d))

    def upsample(vol: ScalarVolume) -> ScalarVolume:
        data = upsample_array(vol.data, d, method)
        _check_finite(data)
        return _adopt(ScalarVolume, grid, data)

    frames = tuple(
        VelocityFrame(**{ch: upsample(f.channel(ch)) for ch in ("magnitude", *CHANNELS)})
        for f in lr.frames
    )
    return VelocityDataset(lr.params, frames)
