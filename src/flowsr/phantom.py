"""Analytic flow phantoms with exact ground truth at any resolution.

Both phantoms put flow inside a straight circular tube aligned with a grid
axis and zero velocity outside, with per-frame peak speeds strictly below
the encoding limit by construction.  Being analytic, they can be sampled on
the high-resolution grid directly, which makes them exact references for
end-to-end experiments.  Volumes are immutable, so all frames share one
magnitude volume, and channels that are zero throughout share one zero volume.
:func:`tube_frames` makes the frames one at a time; the phantoms collect them.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .errors import ParameterError
from .volume import (
    AcquisitionParams,
    Grid3,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    _adopt,
)

__all__ = ["PHANTOMS", "pulsatile_profile", "tube_frames", "poiseuille_phantom", "helix_phantom"]

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
    if not 0 < radius_voxels < np.inf:
        raise ParameterError(f"radius must be finite and > 0, got {radius_voxels}")
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
    parabola = np.where(inside, 1.0 - r2 / radius_voxels**2, 0.0)
    return ax, trans, a, b, inside, parabola


def tube_frames(
    phantom: str,
    grid: Grid3,
    radius_voxels: float,
    vmax_per_frame: Sequence[float],
    venc: float,
    axis: str = "z",
    magnitude_in: float = 1.0,
    magnitude_out: float = 0.0,
    axial_fraction: float = 0.6,
) -> Iterator[VelocityFrame]:
    """The frames of a tube phantom, one of :data:`PHANTOMS`, made one at a time.

    The settings are checked and the tube's geometry is built when this is
    called; each frame is made when the iteration reaches it, so a caller
    that drops each frame in turn holds one frame's velocities.  The flows
    are those of :func:`poiseuille_phantom` and :func:`helix_phantom`,
    ``axial_fraction`` being the helix's.
    """
    if phantom not in PHANTOMS:
        raise ParameterError(f"phantom must be one of {PHANTOMS}, got {phantom!r}")
    if not 0 < axial_fraction < 1:
        raise ParameterError(f"axial_fraction must be in (0, 1), got {axial_fraction}")
    if magnitude_in < 0 or magnitude_out < 0:
        raise ParameterError("magnitudes must be nonnegative")
    vmax = tuple(float(v) for v in vmax_per_frame)
    if not vmax:
        raise ParameterError("need at least one frame")
    if max(abs(v) for v in vmax) >= venc:
        raise ParameterError(
            f"peak speed {max(abs(v) for v in vmax):g} reaches venc {venc:g}; "
            "encoding would alias"
        )
    ax, trans, a, b, inside, parabola = _tube_geometry(grid, axis, radius_voxels)
    # at peak speed v, channel c is factor * v * shape, (factor, shape) = shapes[c];
    # a channel missing from the map is the zero volume shared by all frames
    shapes = {ax: (1.0, parabola)}
    if phantom == "helix":
        swirl_scale = np.sqrt(1.0 - axial_fraction**2) / radius_voxels
        shapes = {
            trans[0]: (1.0, np.where(inside, -b * swirl_scale, 0.0)),  # -omega * second coord
            trans[1]: (1.0, np.where(inside, a * swirl_scale, 0.0)),
            ax: (axial_fraction, parabola),
        }
    magnitude = ScalarVolume(grid, np.where(inside, magnitude_in, magnitude_out))
    zero = ScalarVolume(grid, np.zeros(grid.dims)) if len(shapes) < 3 else None

    def channel(c: int, v_peak: float) -> ScalarVolume:  # finite: so are the shapes, and v_peak < venc
        return _adopt(ScalarVolume, grid, shapes[c][0] * v_peak * shapes[c][1]) if c in shapes else zero

    return (VelocityFrame(magnitude, *(channel(c, v_peak) for c in range(3))) for v_peak in vmax)


def poiseuille_phantom(
    grid: Grid3,
    radius_voxels: float,
    vmax_per_frame: Sequence[float],
    venc: float,
    axis: str = "z",
    magnitude_in: float = 1.0,
    magnitude_out: float = 0.0,
) -> VelocityDataset:
    """Parabolic (laminar pipe) flow along one grid axis.

    Axial speed is ``vmax(t) * (1 - (r/R)^2)`` inside the tube and zero
    outside; transverse components vanish.  Magnitude is ``magnitude_in``
    inside and ``magnitude_out`` outside, so a magnitude threshold recovers
    the tube exactly when the outside value is smaller.
    """
    frames = tuple(tube_frames("poiseuille", grid, radius_voxels, vmax_per_frame, venc, axis,
                               magnitude_in, magnitude_out))
    return VelocityDataset(AcquisitionParams(venc=venc, frame_count=len(frames)), frames)


def helix_phantom(
    grid: Grid3,
    radius_voxels: float,
    vmax_per_frame: Sequence[float],
    venc: float,
    axis: str = "z",
    axial_fraction: float = 0.6,
    magnitude_in: float = 1.0,
    magnitude_out: float = 0.0,
) -> VelocityDataset:
    """Divergence-free swirling flow exercising all three velocity channels.

    Inside the tube the field is a rigid-body swirl plus a parabolic axial
    component: with ``f = axial_fraction`` and peak speed ``vmax(t)``, the
    swirl speed is ``sqrt(1 - f^2) * vmax * r / R`` and the axial speed
    ``f * vmax * (1 - (r/R)^2)``, which keeps the total speed at or below
    ``vmax`` everywhere.  Every term is independent of the axial coordinate
    and the swirl is solenoidal, so the analytic divergence is zero.
    """
    frames = tuple(tube_frames("helix", grid, radius_voxels, vmax_per_frame, venc, axis,
                               magnitude_in, magnitude_out, axial_fraction))
    return VelocityDataset(AcquisitionParams(venc=venc, frame_count=len(frames)), frames)
