import sys
import threading

import numpy as np
import pytest

from flowsr import ComplexVolume, Grid3, ScalarVolume, VelocityDataset, VelocityFrame

# even and odd LR lengths, a single-voxel LR axis, and rate one
BOX_CASES = [
    ((8, 6, 4), (2, 2, 2)),
    ((6, 6, 6), (2, 3, 1)),
    ((2, 4, 6), (2, 1, 3)),
    ((6, 10, 4), (3, 5, 2)),
    ((10, 9, 4), (2, 3, 4)),
    ((4, 4, 4), (1, 1, 1)),
]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex(grid: Grid3, rng: np.random.Generator) -> ComplexVolume:
    return ComplexVolume(
        grid, rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    )


def random_scalar(grid: Grid3, rng: np.random.Generator) -> ScalarVolume:
    return ScalarVolume(grid, rng.standard_normal(grid.dims))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def run_threads(work, count):
    """Run ``work(i)`` on ``count`` threads started together with a tiny switch interval.

    Returns the exceptions the threads raised.
    """
    errors = []

    def guarded(i):
        try:
            work(i)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return errors


def swap_axes(ds: VelocityDataset, perm) -> VelocityDataset:
    """``ds`` with its axes permuted by ``perm``, the velocity components relabelled with them.

    New axis ``i`` is old axis ``perm[i]``, so new component ``"uvw"[i]`` is
    old component ``"uvw"[perm[i]]``.  A swap of two axes is its own inverse.
    """
    grid = Grid3(*(ds.grid.dims[p] for p in perm), tuple(ds.grid.spacing[p] for p in perm))

    def moved(vol):
        return ScalarVolume(grid, vol.data.transpose(perm))

    frames = [
        VelocityFrame(magnitude=moved(f.magnitude), **{c: moved(f.channel("uvw"[p])) for c, p in zip("uvw", perm)})
        for f in ds.frames
    ]
    return VelocityDataset(ds.params, frames)


def reverse_frames(ds: VelocityDataset) -> VelocityDataset:
    """``ds`` with its frames in reverse order."""
    return VelocityDataset(ds.params, ds.frames[::-1])
