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

Only :func:`filtered_alias_sum` (``sqrt(d) S H``, or :func:`filtered_alias_spectrum`
from the image) and its adjoint :func:`add_spread` apply a kernel; the ideal
low-pass at its own rates touches its retained box alone, and
:func:`zero_filled_ifftn` returns to the image from that box.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import GridMismatchError, ParameterError
from .volume import ComplexVolume, Grid3, _check_rates

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
    "filtered_alias_sum",
    "filtered_alias_spectrum",
    "zero_filled_ifftn",
    "add_spread",
]


def fftn_unitary(a: np.ndarray) -> np.ndarray:
    """Forward unitary 3D DFT of a raw array, DC-first ordering."""
    return scipy.fft.fftn(a, norm="ortho")


def ifftn_unitary(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Inverse unitary 3D DFT of a raw array.

    With ``overwrite_x`` a C-contiguous complex128 ``a`` is transformed in
    place, the result sharing its memory; the caller must own ``a``.
    """
    return scipy.fft.ifftn(a, norm="ortho", overwrite_x=overwrite_x)


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
    ``lowpass_rates`` is the ``d`` of an :func:`ideal_lowpass_spectrum`, else None.
    ``conj_values``, the read-only conjugate, is built on first read and
    shared by every config and solve that uses the kernel.
    """

    grid: Grid3
    values: np.ndarray = field(repr=False)
    lowpass_rates: tuple[int, int, int] | None = field(default=None, init=False)

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

    @functools.cached_property
    def conj_values(self) -> np.ndarray:
        conj = np.conj(self.values)
        conj.setflags(write=False)
        return conj


class _IdealLowpass(KernelSpectrum):
    # the ideal low-pass, known by its rates; its HR values are built on first read
    def __init__(self, hr: Grid3, d: tuple[int, int, int]):
        object.__setattr__(self, "grid", hr)
        object.__setattr__(self, "lowpass_rates", d)

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = np.zeros(self.grid.dims, dtype=np.complex128)
        for _, hr in _box(self.grid.dims, self.grid.decimated(self.lowpass_rates).dims):
            values[hr] = 1.0
        values.setflags(write=False)
        return values


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
    in the order the low-res spectrum stores them: :func:`_box`'s blocks of
    the axis, whose ``ParameterError`` it raises when ``lr_dim > hr_dim``.
    """
    return np.concatenate([np.arange(hr_dim)[hr] for _, (hr,) in _box((hr_dim,), (lr_dim,))])


def _box(hr_dims, lr_dims) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
    """The retained box of an ``hr_dims`` spectrum cropped to ``lr_dims``, corner block by corner block.

    One ``(lr, hr)`` pair of basic-slice indices per nonempty block of the
    2³ (per axis, the ceil(l/2) nonnegative bins, then the floor(l/2)
    negative ones, the order of the LR spectrum): HR block ``hr`` is LR block
    ``lr``.  Basic slices make no index arrays and no gathered copies.
    Raises ``ParameterError`` when ``lr_dims`` exceeds ``hr_dims`` on an axis.
    """
    axes = []
    for h, l in zip(hr_dims, lr_dims):
        if l > h:
            raise ParameterError(f"cannot retain {l} bins from an axis of {h}")
        lo = (l + 1) // 2
        axes.append([(slice(0, lo), slice(0, lo))]
                    + ([(slice(lo, l), slice(h - l + lo, h))] if lo < l else []))
    return [tuple(zip(*blocks)) for blocks in itertools.product(*axes)]


def ideal_lowpass_spectrum(hr: Grid3, d: tuple[int, int, int]) -> KernelSpectrum:
    """0/1 spectrum keeping exactly the retained low-frequency box for rate ``d``.

    Its ``lowpass_rates`` are ``d``, and its ``values`` are built on first read.
    """
    return _IdealLowpass(hr, _check_divisible(hr, d))


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
    return ComplexVolume(lr, _copy_box(np.empty(lr.dims, dtype=X.data.dtype), X.data))


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

    LR-shaped, real and read-only; all ones, with no values read, for the
    ideal low-pass at its own rates (one alias of value 1 per LR bin).
    """
    d = _check_divisible(spec.grid, d)
    ideal = spec.lowpass_rates == d
    gram = np.ones(spec.grid.decimated(d).dims) if ideal else alias_sum(np.abs(spec.values) ** 2, d)
    gram.setflags(write=False)
    return gram


def filtered_alias_spectrum(kernel: KernelSpectrum, a: np.ndarray, d: tuple[int, int, int]) -> np.ndarray:
    """``filtered_alias_sum(kernel, fftn_unitary(a), d)``, the LR spectrum of ``sqrt(d) S H a``.

    The ideal low-pass at rates ``d`` keeps its box alone, so it transforms
    axis by axis in ``fftn``'s order (x, y, z) and crops each axis before
    the next: y and z transform only the lines the box keeps (at rate 4 per
    axis, 44 % of ``fftn``'s line transforms).  Each line is the one
    ``fftn`` computes, and the unitary scale is applied where scipy's
    pocketfft applies it, to the first axis's output, as it computes it, in
    long double: the result is ``fftn_unitary``'s box to the bit.
    """
    if kernel.lowpass_rates != d:
        return filtered_alias_sum(kernel, fftn_unitary(a), d)
    scale = float(np.longdouble(1) / np.sqrt(np.longdouble(a.size)))
    for axis, (hr_dim, lr_dim) in enumerate(zip(a.shape, kernel.grid.decimated(d).dims)):
        a = scipy.fft.fft(a, axis=axis, overwrite_x=axis > 0)
        if lr_dim < hr_dim:
            a = np.concatenate([a[(slice(None),) * axis + hr] for _, hr in _box((hr_dim,), (lr_dim,))],
                               axis=axis)
        if axis == 0:
            floats = a.view(np.float64)
            np.multiply(floats, scale, out=floats)
    return a


def zero_filled_ifftn(box: np.ndarray, hr_dims) -> np.ndarray:
    """``ifftn_unitary`` of the ``hr_dims`` spectrum that is ``box`` on its retained box, 0 elsewhere.

    The inverse counterpart of :func:`filtered_alias_spectrum`.  A line of
    zeros transforms to zeros, so it transforms axis by axis in ``ifftn``'s
    order (x, y, z), each axis only on the lines that hold a box bin: x on
    the box's (y, z) columns, y on the box's z columns, z on every line (at
    rate 2 per axis, 58 % of ``ifftn``'s line transforms; a rate-1 axis is
    one block).  Each line is the one ``ifftn`` computes, unscaled, and the
    unitary scale is applied where scipy's pocketfft applies it, to the
    first axis's output, as it computes it, in long double: the result is
    ``ifftn_unitary``'s to the bit.  The passes run in place in the one
    fresh HR array returned, which starts as the zero-filled spectrum.
    """
    out = _zero_fill(box, hr_dims)
    ys, zs = ([slice(None)] if lr_dim == hr_dim else [hr for _, (hr,) in _box((hr_dim,), (lr_dim,))]
              for hr_dim, lr_dim in zip(out.shape[1:], box.shape[1:]))
    scale = float(np.longdouble(1) / np.sqrt(np.longdouble(out.size)))
    for hy, hz in itertools.product(ys, zs):
        lines = out[:, hy, hz]
        scipy.fft.ifft(lines, axis=0, norm="forward", overwrite_x=True)
        floats = lines.view(np.float64)
        np.multiply(floats, scale, out=floats)
    for hz in zs:
        scipy.fft.ifft(out[:, :, hz], axis=1, norm="forward", overwrite_x=True)
    scipy.fft.ifft(out, axis=2, norm="forward", overwrite_x=True)
    return out


def filtered_alias_sum(kernel: KernelSpectrum, spec: np.ndarray, d: tuple[int, int, int]) -> np.ndarray:
    """``alias_sum(kernel.values * spec, d)``, the LR spectrum of ``sqrt(d) S H x`` from x's.

    ``spec`` may be real.  The ideal low-pass at rates ``d`` copies its box.
    """
    if kernel.lowpass_rates == d:
        return _copy_box(np.empty(kernel.grid.decimated(d).dims, dtype=spec.dtype), spec)
    return alias_sum(kernel.values * spec, d)


def _copy_box(out: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Copy the retained box of ``spec`` into the smaller ``out``, which it returns."""
    for lr, hr in _box(spec.shape, out.shape):
        out[lr] = spec[hr]
    return out


def _zero_fill(box: np.ndarray, hr_dims) -> np.ndarray:
    """A fresh complex ``hr_dims`` spectrum: ``box`` on its retained box, 0 elsewhere."""
    spec = np.zeros(hr_dims, dtype=np.complex128)
    for lr, hr in _box(spec.shape, box.shape):
        spec[hr] = box[lr]
    return spec


def add_spread(spec: np.ndarray, kernel: KernelSpectrum, u: np.ndarray, d: tuple[int, int, int]) -> None:
    """Add ``conj(kernel.values) * np.tile(u, d)`` into ``spec``: the adjoint, in place.

    The ideal low-pass at rates ``d`` adds ``u`` on its box; other kernels
    take one HR scratch array.
    """
    if kernel.lowpass_rates == d:
        for lr, hr in _box(spec.shape, u.shape):
            spec[hr] += u[lr]
    else:
        scratch = _tile_into(np.empty(spec.shape, dtype=np.complex128), u, d)
        spec += np.multiply(kernel.conj_values, scratch, out=scratch)


def _tile_into(out: np.ndarray, values: np.ndarray, d: tuple[int, int, int]) -> np.ndarray:
    """Write ``np.tile(values, d)`` into the C-contiguous HR array ``out``.

    Through the ``(d0, L0, d1, L1, d2, L2)`` view, with no intermediate array.
    """
    dr, dc, ds = d
    lr, lc, ls = values.shape
    out.reshape(dr, lr, dc, lc, ds, ls)[...] = values[None, :, None, :, None, :]
    return out
