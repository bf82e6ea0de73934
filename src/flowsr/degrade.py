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
kernel, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, GridMismatchError, ParameterError
from .spectral import (
    KernelSpectrum,
    _check_divisible,
    _check_rates,
    add_spread,
    fftn_unitary,
    filtered_alias_sum,
    gaussian_spectrum,
    ideal_lowpass_spectrum,
    ifftn_unitary,
)
from .volume import (
    CHANNELS,
    ComplexVolume,
    Grid3,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    _adopt,
    extract_velocity,
    map_channels,
    synthesize_complex,
)

__all__ = [
    "DegradationConfig",
    "NoiseCalibration",
    "apply_SH",
    "apply_SH_adjoint",
    "calibrate_noise",
    "degrade_dataset",
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
    spec = filtered_alias_sum(kernel, fftn_unitary(x.data), d) / np.sqrt(np.prod(d))
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
    the target only through the sampled noise power.
    """
    if not np.isfinite(target_psnr_db):
        raise ParameterError(f"target PSNR must be finite, got {target_psnr_db}")
    if seed < 0:  # numpy's own message is a bare ValueError
        raise ParameterError(f"seed must be >= 0, got {seed}")
    peak = float(clean_lr_magnitude.data.max())
    if peak <= 0:
        raise CalibrationError("cannot calibrate noise against an all-zero magnitude")
    sigma = peak * 10.0 ** (-target_psnr_db / 20.0) / np.sqrt(2.0)
    noise = _complex_noise(clean_lr_magnitude.grid.dims, sigma, np.random.default_rng(seed))
    mse = float(np.mean(np.abs(noise) ** 2))
    achieved = 10.0 * np.log10(peak**2 / mse)
    return NoiseCalibration(sigma=sigma, achieved_psnr_db=achieved, target_psnr_db=target_psnr_db)


def _channel_rng(seed: int, frame: int, channel: int) -> np.random.Generator:
    # SeedSequence splitting keeps (frame, channel) streams independent;
    # XOR-style mixing would collide for permuted index pairs.
    return np.random.default_rng([seed, frame, channel])


def _complex_noise(shape, sigma: float, rng: np.random.Generator) -> np.ndarray:
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def degrade_dataset(
    hr: VelocityDataset, cfg: DegradationConfig
) -> tuple[VelocityDataset, NoiseCalibration]:
    """Simulate the low-resolution acquisition of a high-resolution dataset.

    Per frame and velocity channel: synthesize the complex signal, add
    calibrated complex Gaussian k-space noise, apply the kernel and
    decimation, return to image space, and extract magnitude and velocity.
    Noise streams are split per (frame, channel) from ``cfg.rng_seed``; a
    fixed seed reproduces the dataset bit-for-bit.

    The noise std is calibrated once against the global peak of the
    noiseless LR magnitudes over all frames and channels, so one noise level
    serves the whole dataset.  That calibration pass keeps each channel's
    noiseless LR spectrum, that of ``sqrt(d) S H x``, as a plain array, and the
    noisy pass adds noise to it, so every channel is synthesized and
    transformed once and wrapped only as the LR signal whose velocity is
    extracted.  The stored LR magnitude comes from the u channel; the others
    differ from it even without noise (README, model notes).
    Note the pipeline scales amplitudes by sqrt(d) relative to a bare
    ``S H``; velocities, living in the phase, are unaffected.

    Returns the LR dataset and the calibration used (sigma 0 and an
    infinite achieved PSNR when ``cfg.noise_psnr_db`` is None).
    """
    d = cfg.d
    lr_grid = hr.grid.decimated(d)
    venc = hr.params.venc
    kernel = cfg.kernel_spectrum(hr.grid)
    # the ideal kernel draws HR noise; at rate 1 it is the identity, where a
    # transform round trip would give zero-magnitude voxels arbitrary phase
    ideal = kernel.lowpass_rates == d
    identity = ideal and lr_grid.dims == hr.grid.dims

    def clean_channel(frame: VelocityFrame, ch: str) -> np.ndarray:
        # the noiseless LR spectrum (the signal itself under the identity)
        sig = synthesize_complex(frame.magnitude, frame.channel(ch), venc).data
        return sig if identity else filtered_alias_sum(kernel, fftn_unitary(sig), d)

    cleans = None
    if cfg.noise_psnr_db is None:
        cal = NoiseCalibration(sigma=0.0, achieved_psnr_db=np.inf, target_psnr_db=None)
    else:
        cleans = {}
        peak_volume = None
        peak = -1.0
        for f_idx, frame in enumerate(hr.frames):
            for ch in CHANNELS:
                cleans[f_idx, ch] = clean = clean_channel(frame, ch)
                clean_mag = np.abs(clean if identity else ifftn_unitary(clean))
                if float(clean_mag.max()) > peak:
                    peak = float(clean_mag.max())
                    peak_volume = clean_mag
        if peak <= 0:
            raise CalibrationError("noiseless LR magnitude is zero everywhere")
        cal = calibrate_noise(
            ScalarVolume(lr_grid, peak_volume), cfg.noise_psnr_db, seed=cfg.rng_seed
        )

    # one HR buffer that every channel's full-k-space draws go through
    draws = np.empty(hr.grid.dims) if ideal and cal.sigma > 0 else None

    def lr_channel(f_idx: int, frame: VelocityFrame, ch: str, keep_magnitude: bool):
        clean = clean_channel(frame, ch) if cleans is None else cleans.pop((f_idx, ch))
        if cal.sigma == 0:
            signal = clean if identity else ifftn_unitary(clean)
        else:
            rng = _channel_rng(cfg.rng_seed, f_idx, CHANNELS.index(ch))
            if ideal:
                # literal protocol: noise over the full HR k-space, then
                # truncation.  Truncation only selects, so truncating each draw
                # first gives the same bits with the arithmetic at LR size
                real = filtered_alias_sum(kernel, rng.standard_normal(out=draws), d)
                imag = filtered_alias_sum(kernel, rng.standard_normal(out=draws), d)
                noise = cal.sigma * (real + 1j * imag)
            else:
                # white noise on the LR k-space keeps the noise white per the
                # forward model (a subsample after the filter would otherwise
                # fold kernel-shaped noise)
                noise = _complex_noise(lr_grid.dims, cal.sigma, rng)
            signal = ifftn_unitary((fftn_unitary(clean) if identity else clean) + noise)
        # finite by construction; extract_velocity checks the magnitude it takes
        return extract_velocity(_adopt(ComplexVolume, lr_grid, signal), venc, magnitude=keep_magnitude)

    return map_channels(hr, lr_channel), cal
