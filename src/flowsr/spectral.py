"""Unitary 3D Fourier transforms, kernel spectra, k-space crop, alias sums.

Frequency conventions, fixed once here and reused by every other module:

* Unitary normalization: forward and inverse transforms each carry 1/sqrt(N),
  so Parseval holds exactly and decimation/filtering adjoints stay clean.
* DC-first (unshifted) bin ordering on all spectra.
* The retained low-frequency box of an axis of high-res length M cropped to
  low-res length L keeps bins ``[0, ceil(L/2) - 1]`` and ``[M - floor(L/2),
  M - 1]``.  Signals are complex-valued, so no Hermitian symmetry is assumed
  or enforced.
* Subsampling by rate ``d`` per axis keeps voxel index 0 of every block, and
  sums the spectrum over its alias blocks (:func:`alias_sum`), scaled by
  ``1/sqrt(d)``: low-res bin ``kappa`` collects high-res bins ``kappa + b * L``
  for block index ``b in [0, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import GridMismatchError, ParameterError
from .volume import ComplexVolume, Grid3

__all__ = [
    "KernelSpectrum",
    "forward_fft",
    "inverse_fft",
    "fftn_unitary",
    "ifftn_unitary",
    "retained_axis_indices",
    "ideal_lowpass_spectrum",
    "gaussian_spectrum",
    "crop_kspace",
    "alias_sum",
    "fold_spectrum",
    "adjoint_spectrum",
]


def fftn_unitary(a: np.ndarray) -> np.ndarray:
    """Forward unitary 3D DFT of a raw array, DC-first ordering."""
    return scipy.fft.fftn(a, norm="ortho")


def ifftn_unitary(a: np.ndarray) -> np.ndarray:
    """Inverse unitary 3D DFT of a raw array."""
    return scipy.fft.ifftn(a, norm="ortho")


def forward_fft(x: ComplexVolume) -> ComplexVolume:
    """Unitary 3D DFT of a volume; the spectrum keeps the volume's grid."""
    return ComplexVolume(x.grid, fftn_unitary(x.data))


def inverse_fft(X: ComplexVolume) -> ComplexVolume:
    """Exact inverse of :func:`forward_fft`."""
    return ComplexVolume(X.grid, ifftn_unitary(X.data))


@dataclass(frozen=True, eq=False)
class KernelSpectrum:
    """Per-frequency multipliers of the convolution operator, DC-first.

    ``values`` has the high-resolution grid's shape.  Applying the operator
    to a volume is a pointwise multiply of its unitary spectrum by ``values``.
    """

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != self.grid.dims:
            raise GridMismatchError(
                f"kernel values shape {vals.shape} != grid dims {self.grid.dims}"
            )
        if not np.isfinite(vals).all():
            raise ParameterError("kernel spectrum must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _check_rates(d) -> tuple[int, int, int]:
    d = tuple(int(v) for v in d)
    if len(d) != 3 or min(d) < 1:
        raise ParameterError(f"decimation rates must be 3 ints >= 1, got {d}")
    return d


def _check_divisible(hr: Grid3, d: tuple[int, int, int]) -> tuple[int, int, int]:
    d = _check_rates(d)
    for dim, rate, axis in zip(hr.dims, d, "xyz"):
        if dim % rate:
            raise GridMismatchError(
                f"decimation rate {rate} does not divide axis {axis} of dims {hr.dims}"
            )
    return d


def retained_axis_indices(hr_dim: int, lr_dim: int) -> np.ndarray:
    """High-res bin indices kept when an axis is cropped from hr_dim to lr_dim.

    ceil(lr_dim/2) nonnegative frequencies and floor(lr_dim/2) negative ones,
    in the order the low-res spectrum stores them.
    """
    if lr_dim > hr_dim:
        raise ParameterError(f"cannot retain {lr_dim} bins from an axis of {hr_dim}")
    lo = (lr_dim + 1) // 2
    hi = lr_dim - lo
    return np.concatenate([np.arange(lo), np.arange(hr_dim - hi, hr_dim)])


def _box(hr_dims, lr_dims):
    """``np.ix_`` index of the retained box of an ``hr_dims`` spectrum cropped to ``lr_dims``.

    Raises ``ParameterError`` when ``lr_dims`` exceeds ``hr_dims`` on an axis.
    """
    return np.ix_(*(retained_axis_indices(h, l) for h, l in zip(hr_dims, lr_dims)))


def ideal_lowpass_spectrum(hr: Grid3, d: tuple[int, int, int]) -> KernelSpectrum:
    """0/1 spectrum keeping exactly the retained low-frequency box for rate ``d``."""
    d = _check_divisible(hr, d)
    values = np.zeros(hr.dims)
    values[_box(hr.dims, hr.decimated(d).dims)] = 1.0
    return KernelSpectrum(hr, values)


def gaussian_spectrum(hr: Grid3, fwhm_bins: tuple[float, float, float]) -> KernelSpectrum:
    """Separable Gaussian frequency response, unit gain at DC.

    ``fwhm_bins`` is the full width at half maximum of the response along
    each axis, measured in frequency bins; widening it without bound tends
    to the all-pass (identity) spectrum.
    """
    fwhm = tuple(float(v) for v in fwhm_bins)
    if len(fwhm) != 3 or min(fwhm) <= 0:
        raise ParameterError(f"fwhm must be 3 positive values, got {fwhm_bins}")
    axes = []
    for dim, width in zip(hr.dims, fwhm):
        k = np.fft.fftfreq(dim, d=1.0 / dim)  # signed bin index, DC-first
        axes.append(np.exp(-4.0 * np.log(2.0) * (k / width) ** 2))
    values = axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]
    return KernelSpectrum(hr, values)


def crop_kspace(X: ComplexVolume, lr: Grid3) -> ComplexVolume:
    """Copy the retained low-frequency box of a spectrum into an LR-sized spectrum."""
    return ComplexVolume(lr, X.data[_box(X.grid.dims, lr.dims)])


def alias_sum(values: np.ndarray, d: tuple[int, int, int]) -> np.ndarray:
    """Sum of an HR-shaped array over its alias blocks, LR-shaped.

    Low-res bin ``kappa`` collects high-res bins ``kappa + b * L`` per axis,
    ``b in [0, d)``.  The adjoint is ``np.tile`` over the blocks.
    """
    dr, dc, ds = d
    mh, nh, sh = values.shape
    # axis split f -> (b, kappa) with f = b * L + kappa
    return values.reshape(dr, mh // dr, dc, nh // dc, ds, sh // ds).sum(axis=(0, 2, 4))


def fold_spectrum(spec: KernelSpectrum, d: tuple[int, int, int]) -> np.ndarray:
    """The alias energy ``gram = sum_b |K(kappa + b * L)|^2`` of a kernel spectrum.

    LR-shaped, real and read-only.
    """
    d = _check_divisible(spec.grid, d)
    gram = alias_sum(np.abs(spec.values) ** 2, d)
    gram.setflags(write=False)
    return gram


def adjoint_spectrum(y_spec: np.ndarray, kernel: KernelSpectrum, d: tuple[int, int, int]) -> np.ndarray:
    """Unitary spectrum of ``H^H S^H y`` from the unitary spectrum of low-res ``y``.

    Zero-insertion upsampling tiles the low-res spectrum over the alias
    blocks, scaled by 1/sqrt(d); the conjugate kernel filters it in place.
    """
    spec = np.tile(y_spec, d) / np.sqrt(np.prod(d))
    return np.multiply(np.conj(kernel.values), spec, out=spec)
