"""Analytic flow phantoms with exact ground truth at any resolution.

Both phantoms put flow inside a straight circular tube aligned with a grid
axis and zero velocity outside, with per-frame peak speeds strictly below
the encoding limit by construction.  Being analytic, they can be sampled on
the high-resolution grid directly, which makes them exact references for
end-to-end experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ParameterError
from .volume import (
    AcquisitionParams,
    Grid3,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
)

__all__ = ["PHANTOMS", "pulsatile_profile", "poiseuille_phantom", "helix_phantom"]

PHANTOMS = ("poiseuille", "helix")

_AXES = {"x": 0, "y": 1, "z": 2}


def pulsatile_profile(vmax: float, frame_count: int) -> tuple[float, ...]:
    """Smooth per-frame peak speeds: ``vmax * (0.6 + 0.4 cos(2 pi k / F))``."""
    k = np.arange(frame_count)
    return tuple(float(v) for v in vmax * (0.6 + 0.4 * np.cos(2 * np.pi * k / frame_count)))


def _tube_geometry(grid: Grid3, axis: str, radius_voxels: float):
    if axis not in _AXES:
        raise ParameterError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    ax = _AXES[axis]
    trans = [i for i in range(3) if i != ax]
    dims = grid.dims
    if radius_voxels <= 0:
        raise ParameterError(f"radius must be > 0, got {radius_voxels}")
    for t in trans:
        if 2 * radius_voxels > dims[t]:
            raise ParameterError(
                f"tube radius {radius_voxels} does not fit in grid dims {dims}"
            )
    coords = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    centers = [(n - 1) / 2.0 for n in dims]
    a = coords[trans[0]] - centers[trans[0]]
    b = coords[trans[1]] - centers[trans[1]]
    r2 = a * a + b * b
    inside = r2 < radius_voxels**2
    return ax, trans, a, b, r2, inside


def _check_vmax(vmax_per_frame: Sequence[float], venc: float) -> tuple[float, ...]:
    vmax = tuple(float(v) for v in vmax_per_frame)
    if not vmax:
        raise ParameterError("need at least one frame")
    if max(abs(v) for v in vmax) >= venc:
        raise ParameterError(
            f"peak speed {max(abs(v) for v in vmax):g} reaches venc {venc:g}; "
            "encoding would alias"
        )
    return vmax


def poiseuille_phantom(
    grid: Grid3,
    radius_voxels: float,
    vmax_per_frame: Sequence[float],
    venc: float,
    axis: str = "z",
    magnitude_in: float = 1.0,
    magnitude_out: float = 0.0,
    frame_interval: float = 0.0,
) -> VelocityDataset:
    """Parabolic (laminar pipe) flow along one grid axis.

    Axial speed is ``vmax(t) * (1 - (r/R)^2)`` inside the tube and zero
    outside; transverse components vanish.  Magnitude is ``magnitude_in``
    inside and ``magnitude_out`` outside, so a magnitude threshold recovers
    the tube exactly when the outside value is smaller.
    """
    if magnitude_in < 0 or magnitude_out < 0:
        raise ParameterError("magnitudes must be nonnegative")
    vmax = _check_vmax(vmax_per_frame, venc)
    ax, _, _, _, r2, inside = _tube_geometry(grid, axis, radius_voxels)
    profile = np.where(inside, 1.0 - r2 / radius_voxels**2, 0.0)
    magnitude = np.where(inside, magnitude_in, magnitude_out)
    zero = np.zeros(grid.dims)

    frames = []
    for v_peak in vmax:
        components = [zero, zero, zero]
        components[ax] = v_peak * profile
        frames.append(
            VelocityFrame(
                magnitude=ScalarVolume(grid, magnitude),
                u=ScalarVolume(grid, components[0]),
                v=ScalarVolume(grid, components[1]),
                w=ScalarVolume(grid, components[2]),
            )
        )
    params = AcquisitionParams(venc=venc, frame_count=len(vmax), frame_interval=frame_interval)
    return VelocityDataset(params, tuple(frames))


def helix_phantom(
    grid: Grid3,
    radius_voxels: float,
    vmax_per_frame: Sequence[float],
    venc: float,
    axis: str = "z",
    axial_fraction: float = 0.6,
    magnitude_in: float = 1.0,
    magnitude_out: float = 0.0,
    frame_interval: float = 0.0,
) -> VelocityDataset:
    """Divergence-free swirling flow exercising all three velocity channels.

    Inside the tube the field is a rigid-body swirl plus a parabolic axial
    component: with ``f = axial_fraction`` and peak speed ``vmax(t)``, the
    swirl speed is ``sqrt(1 - f^2) * vmax * r / R`` and the axial speed
    ``f * vmax * (1 - (r/R)^2)``, which keeps the total speed at or below
    ``vmax`` everywhere.  Every term is independent of the axial coordinate
    and the swirl is solenoidal, so the analytic divergence is zero.
    """
    if not 0 < axial_fraction < 1:
        raise ParameterError(f"axial_fraction must be in (0, 1), got {axial_fraction}")
    if magnitude_in < 0 or magnitude_out < 0:
        raise ParameterError("magnitudes must be nonnegative")
    vmax = _check_vmax(vmax_per_frame, venc)
    ax, trans, a, b, r2, inside = _tube_geometry(grid, axis, radius_voxels)
    swirl_scale = np.sqrt(1.0 - axial_fraction**2) / radius_voxels
    axial_profile = np.where(inside, 1.0 - r2 / radius_voxels**2, 0.0)
    swirl_a = np.where(inside, -b * swirl_scale, 0.0)  # -omega * second transverse coord
    swirl_b = np.where(inside, a * swirl_scale, 0.0)
    magnitude = np.where(inside, magnitude_in, magnitude_out)

    frames = []
    for v_peak in vmax:
        components = [np.zeros(grid.dims) for _ in range(3)]
        components[trans[0]] = v_peak * swirl_a
        components[trans[1]] = v_peak * swirl_b
        components[ax] = axial_fraction * v_peak * axial_profile
        frames.append(
            VelocityFrame(
                magnitude=ScalarVolume(grid, magnitude),
                u=ScalarVolume(grid, components[0]),
                v=ScalarVolume(grid, components[1]),
                w=ScalarVolume(grid, components[2]),
            )
        )
    params = AcquisitionParams(venc=venc, frame_count=len(vmax), frame_interval=frame_interval)
    return VelocityDataset(params, tuple(frames))
