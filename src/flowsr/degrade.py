"""Acquisition degradation: filter + decimate, its adjoint, and noisy simulation.

The low-resolution acquisition of a high-resolution complex signal x is
modeled as ``y = S H x + n``: circular convolution H (a pointwise multiply
in the unitary Fourier domain), decimation S keeping voxel 0 of every
``d``-block per axis, and white complex Gaussian noise n.

Simulated datasets follow the measurement chain per frame and velocity
channel: synthesize the complex signal from magnitude + velocity, transform
to k-space, add calibrated noise, truncate the high frequencies, transform
back, and re-extract magnitude and velocity.  Under the unitary convention
the truncation pipeline equals ``sqrt(d) * S H`` with the ideal low-pass
kernel, which the tests pin down.  :class:`Acquisition` runs the chain in
two passes that hold one frame at a time, for ``flowsr degrade``,
``flowsr pipeline`` and :func:`degrade_dataset` alike: ``acquire``'s first
pass spills each frame's noiseless LR spectra and unit noise and calibrates
the noise, its second reads them back and yields the noisy LR frames.
"""

from __future__ import annotations

import tempfile
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, FormatError, GridMismatchError, ParameterError
from .spectral import (
    KernelSpectrum,
    _check_divisible,
    _copy_box,
    add_spread,
    fftn_unitary,
    filtered_alias_spectrum,
    gaussian_spectrum,
    ideal_lowpass_spectrum,
    ifftn_unitary,
    retained_axis_indices,
)
from .volume import (
    CHANNELS,
    ComplexVolume,
    Grid3,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    _adopt,
    _check_rates,
    extract_velocity,
    map_frame,
    synthesize_complex,
)

__all__ = [
    "Acquisition",
    "DegradationConfig",
    "NoiseCalibration",
    "apply_SH",
    "apply_SH_adjoint",
    "calibrate_noise",
    "degrade_dataset",
    "seeded_rng",
]

KERNEL_KINDS = ("ideal", "gaussian")


@dataclass(frozen=True)
class DegradationConfig:
    """Degradation settings: decimation rates, kernel choice, noise target, seed.

    ``noise_psnr_db = None`` means noiseless.  ``gaussian_fwhm_bins`` only
    applies to the gaussian kernel and defaults to the low-res dims (response
    halved at the edge of the retained box).
    """

    d: tuple[int, int, int]
    kernel: str = "ideal"
    gaussian_fwhm_bins: tuple[float, float, float] | None = None
    noise_psnr_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "d", _check_rates(self.d))
        if self.kernel not in KERNEL_KINDS:
            raise ParameterError(f"kernel must be one of {KERNEL_KINDS}, got {self.kernel!r}")
        if self.noise_psnr_db is not None and not np.isfinite(self.noise_psnr_db):
            raise ParameterError("noise_psnr_db must be finite when present")
        if self.rng_seed < 0:
            raise ParameterError(f"rng_seed must be >= 0, got {self.rng_seed}")

    def kernel_spectrum(self, hr: Grid3) -> KernelSpectrum:
        """Concrete kernel spectrum for a given high-resolution grid."""
        if self.kernel == "ideal":
            return ideal_lowpass_spectrum(hr, self.d)
        fwhm = self.gaussian_fwhm_bins
        if fwhm is None:
            fwhm = tuple(dim / rate for dim, rate in zip(hr.dims, self.d))
        return gaussian_spectrum(hr, fwhm)


@dataclass(frozen=True)
class NoiseCalibration:
    """Noise level chosen for a target PSNR and the PSNR actually measured."""

    sigma: float
    achieved_psnr_db: float
    target_psnr_db: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "achieved_psnr_db", float(self.achieved_psnr_db))
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")


def _check_kernel_and_rates(x_grid: Grid3, kernel: KernelSpectrum, d) -> tuple[int, int, int]:
    if kernel.grid.dims != x_grid.dims:
        raise GridMismatchError(
            f"kernel grid {kernel.grid.dims} != volume grid {x_grid.dims}"
        )
    return _check_divisible(x_grid, d)


def apply_SH(x: ComplexVolume, kernel: KernelSpectrum, d: tuple[int, int, int]) -> ComplexVolume:
    """Filter a high-res volume by the kernel, then keep every d-th voxel (offset 0)."""
    d = _check_kernel_and_rates(x.grid, kernel, d)
    # the kept voxels' spectrum is the filtered one's alias sum over sqrt(d)
    spec = filtered_alias_spectrum(kernel, x.data, d) / np.sqrt(np.prod(d))
    return ComplexVolume(x.grid.decimated(d), ifftn_unitary(spec))


def apply_SH_adjoint(
    y: ComplexVolume, kernel: KernelSpectrum, d: tuple[int, int, int]
) -> ComplexVolume:
    """Adjoint of :func:`apply_SH`: zero-insertion upsampling then conjugate filtering.

    Implemented spectrally: the unitary spectrum of the zero-upsampled volume
    is the low-res spectrum tiled over alias blocks, scaled by 1/sqrt(d).
    """
    hr_grid = y.grid.scaled(d)
    d = _check_kernel_and_rates(hr_grid, kernel, d)
    spec = np.zeros(hr_grid.dims, dtype=np.complex128)
    add_spread(spec, kernel, fftn_unitary(y.data) / np.sqrt(np.prod(d)), d)
    return ComplexVolume(hr_grid, ifftn_unitary(spec))


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of ``seed`` or of its sub-stream ``stream``; every seeded draw comes from here.

    SeedSequence splitting keeps ``(seed, *stream)`` streams independent, where
    XOR-style mixing would collide for permuted indices.  A negative seed
    raises ``ParameterError`` (numpy's own message is a bare ValueError).
    """
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([seed, *stream])


def calibrate_noise(
    clean_lr_magnitude: ScalarVolume, target_psnr_db: float, seed: int = 0
) -> NoiseCalibration:
    """Choose the k-space noise std that hits a target PSNR on the LR image.

    PSNR is defined on the complex low-res image with peak equal to the
    maximum clean magnitude: adding i.i.d. complex Gaussian noise of std
    ``sigma`` per real/imaginary component (unitary transforms preserve it
    between k-space and image space) gives per-voxel noise power
    ``2 sigma^2``, so ``sigma = peak * 10**(-target/20) / sqrt(2)``.

    The achieved value is measured on one seeded realization; it differs from
    the target only through the sampled noise power.  ``CalibrationError``
    when the magnitude is zero everywhere or the noise underflows to 0.
    """
    return _calibration(float(clean_lr_magnitude.data.max()), clean_lr_magnitude.grid.dims,
                        target_psnr_db, seed)


def _calibration(peak: float, lr_dims, target_psnr_db: float, seed: int) -> NoiseCalibration:
    # calibrate_noise from the peak clean magnitude and the LR dims alone
    if not np.isfinite(target_psnr_db):
        raise ParameterError(f"target PSNR must be finite, got {target_psnr_db}")
    rng = seeded_rng(seed)
    if peak <= 0:
        raise CalibrationError("noiseless LR magnitude is zero everywhere")
    sigma = peak * 10.0 ** (-target_psnr_db / 20.0) / np.sqrt(2.0)
    noise = _complex_noise(lr_dims, sigma, rng)
    mse = float(np.mean(np.abs(noise) ** 2))
    if mse == 0:
        raise CalibrationError(f"target PSNR {target_psnr_db:g} dB is too high: the noise underflows to 0")
    achieved = 10.0 * np.log10(peak**2 / mse)
    return NoiseCalibration(sigma=sigma, achieved_psnr_db=achieved, target_psnr_db=target_psnr_db)


def _complex_noise(shape, sigma: float, rng: np.random.Generator) -> np.ndarray:
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class Acquisition:
    """The simulated acquisition of frames on one HR grid (its kernel built once), in two passes.

    Per velocity channel: synthesize the complex signal, add calibrated
    complex Gaussian k-space noise, apply the kernel and decimation, return
    to image space, and extract velocity (:func:`map_frame` builds the
    frame).  Noise streams split per (frame, channel) from ``cfg.rng_seed``,
    so a fixed seed reproduces each frame bit-for-bit.  One noise level
    serves all frames, so :meth:`acquire` takes each frame through twice, one
    frame at a time: its first pass spills each HR frame's noiseless LR
    spectra of ``sqrt(d) S H x`` and the ideal kernel's unit noise, and
    calibrates from the top clean LR magnitude; its second reads them back
    and yields each LR frame.  Amplitudes are sqrt(d) times those of a bare
    ``S H``; velocities are not.
    """

    def __init__(self, hr_grid: Grid3, venc: float, cfg: DegradationConfig):
        self.cfg, self.venc = cfg, venc
        self.kernel = cfg.kernel_spectrum(hr_grid)
        self.lr_grid = hr_grid.decimated(cfg.d)
        # the ideal kernel draws HR noise; at rate 1 it is the identity, where a
        # transform round trip would give zero-magnitude voxels arbitrary phase
        self._ideal = self.kernel.lowpass_rates == cfg.d
        self._identity = self._ideal and self.lr_grid.dims == hr_grid.dims
        self._draws_units = self._ideal and cfg.noise_psnr_db is not None

    def _clean(self, frame: VelocityFrame) -> list[np.ndarray]:
        # the noiseless LR spectra of u, v and w (under the identity, the signals)
        signals = (synthesize_complex(frame.magnitude, frame.channel(ch), self.venc).data
                   for ch in CHANNELS)
        if self._identity:
            return list(signals)
        return [filtered_alias_spectrum(self.kernel, sig, self.cfg.d) for sig in signals]

    def _draw_units(self, f_idx: int, row: np.ndarray, units: list[np.ndarray]) -> list[np.ndarray]:
        # Literal protocol: noise over the full HR k-space, then truncation.
        # Truncation only selects, so truncating each draw first gives the same
        # bits with the arithmetic at LR size.  A draw fills the scratch one HR
        # x row at a time (consecutive fills give one fill's bits and leave the
        # generator as it leaves it), and each retained row's box goes straight
        # into its LR row of the unit, so no sizable array is allocated here
        hr_x, lr_x = self.kernel.grid.dims[0], self.lr_grid.dims[0]
        kept = dict(zip(retained_axis_indices(hr_x, lr_x).tolist(), range(lr_x)))
        for c_idx, unit in enumerate(units):
            rng = seeded_rng(self.cfg.rng_seed, f_idx, c_idx)
            for part in (unit.real, unit.imag):
                for x in range(hr_x):
                    rng.standard_normal(out=row)
                    if x in kept:
                        _copy_box(part[kept[x]], row)
        return units

    def acquire(self, frames: Iterable[VelocityFrame],
                spill) -> tuple[NoiseCalibration, Iterator[VelocityFrame]]:
        """The calibration, and an iterator of the LR frames of ``frames``, acquired through ``spill``.

        Pass 1, before this returns, spills each HR frame's clean spectra,
        then its units, to the binary file ``spill``.  With the ideal kernel
        and a noise target, a frame's unit per channel is ``real + 1j * imag``,
        the retained boxes of two full-k-space draws from the ``(frame,
        channel)`` stream, drawn on one worker thread while this one computes
        the clean spectra (numpy drops the GIL while it fills a buffer); the
        thread starts at the first draw and ends before the call returns or
        raises.  ``spill`` takes 3/D of an HR complex128 array per frame (D the
        product of the rates), 6/D with units.  The calibration is
        :func:`calibrate_noise` at the top clean LR magnitude, or sigma 0
        without a noise target.  A frame off the kernel's dims raises
        ``GridMismatchError`` before its draw.  Pass 2, the iterator, reads
        ``spill`` from its start, one frame's spectra at a time, holding none
        between frames; ``FormatError`` on a short read.
        """
        noisy = self.cfg.noise_psnr_db is not None
        peak, count = 0.0, 0
        with ThreadPoolExecutor(max_workers=1) as pool:
            for f_idx, frame in enumerate(frames):
                if frame.grid.dims != self.kernel.grid.dims:
                    raise GridMismatchError(f"frame {f_idx}: grid {frame.grid.dims} != {self.kernel.grid.dims}")
                # the draws' scratch HR x row and the units are made here: the
                # worker's own allocations would stay in its thread's malloc arena
                drawn = self._draws_units and pool.submit(
                    self._draw_units, f_idx, np.empty(self.kernel.grid.dims[1:]),
                    [np.empty(self.lr_grid.dims, dtype=np.complex128) for _ in CHANNELS])
                spectra = self._clean(frame)
                if drawn:  # before the peak: its transforms beside the draws raised pipeline's peak RSS
                    spectra += drawn.result()
                if noisy:
                    peak = max(peak, *(float(np.abs(s if self._identity else ifftn_unitary(s)).max())
                                       for s in spectra[:3]))
                # C order: under the identity they are a loaded frame's x-fastest signals
                spill.writelines(np.ascontiguousarray(s) for s in spectra)
                count += 1
                del frame, drawn, spectra  # before the next frame is made
        cal = (_calibration(peak, self.lr_grid.dims, self.cfg.noise_psnr_db, self.cfg.rng_seed) if noisy
               else NoiseCalibration(sigma=0.0, achieved_psnr_db=np.inf, target_psnr_db=None))
        return cal, self._acquired(count, cal.sigma, spill)

    def _acquired(self, count: int, sigma: float, spill) -> Iterator[VelocityFrame]:
        # pass 2: the count frames pass 1 spilled, acquired with its sigma
        spill.seek(0)
        for f_idx in range(count):  # no local keeps the spectra while a frame is out
            yield self._frame(f_idx, sigma, self._read(spill))

    def _read(self, spill) -> list[np.ndarray]:
        # the next frame's clean spectra, then its units if they were drawn
        spectra = [np.empty(self.lr_grid.dims, dtype=np.complex128)
                   for _ in range(6 if self._draws_units else 3)]
        for spectrum in spectra:
            offset = spill.tell()
            if spill.readinto(spectrum) != spectrum.nbytes:
                raise FormatError(f"spectra spill: short read at byte offset {offset}")
        return spectra

    def _frame(self, f_idx: int, sigma: float, spectra: list[np.ndarray]) -> VelocityFrame:
        # frame f_idx acquired with noise sigma from its spilled spectra; the
        # ideal kernel's units are scaled in place, so each serves one call

        def lr_channel(ch: str, keep_magnitude: bool):
            c_idx = CHANNELS.index(ch)
            clean = spectra[c_idx]
            if sigma == 0:
                signal = clean if self._identity else ifftn_unitary(clean)
            else:
                if self._ideal:
                    noise = spectra[3 + c_idx]
                    noise *= sigma  # in place: the bits of sigma * unit, one array fewer
                else:
                    # white noise on the LR k-space keeps the noise white per the
                    # forward model (a subsample after the filter would otherwise
                    # fold kernel-shaped noise)
                    rng = seeded_rng(self.cfg.rng_seed, f_idx, c_idx)
                    noise = _complex_noise(self.lr_grid.dims, sigma, rng)
                signal = ifftn_unitary((fftn_unitary(clean) if self._identity else clean) + noise)
            # finite by construction; extract_velocity checks the magnitude it takes
            return extract_velocity(_adopt(ComplexVolume, self.lr_grid, signal), self.venc,
                                    magnitude=keep_magnitude)

        return map_frame(lr_channel)


def degrade_dataset(
    hr: VelocityDataset, cfg: DegradationConfig
) -> tuple[VelocityDataset, NoiseCalibration]:
    """Simulate the low-resolution acquisition of a high-resolution dataset (see :class:`Acquisition`).

    Returns the LR dataset and the calibration used (sigma 0 and an
    infinite achieved PSNR when ``cfg.noise_psnr_db`` is None).  Its two
    passes spill to an unnamed temp file, as ``flowsr degrade`` does.
    """
    acq = Acquisition(hr.grid, hr.params.venc, cfg)
    with tempfile.TemporaryFile() as spill:
        cal, frames = acq.acquire(hr.frames, spill)
        return VelocityDataset(hr.params, tuple(frames)), cal
