"""Closed-form Tikhonov super-resolution of complex volumes.

Per velocity channel and frame, the high-resolution complex signal is the
minimizer of

    0.5 * ||y - S H x||^2  +  tau * ||x - xbar||^2

with xbar an interpolated rough estimate of x.  Because H diagonalizes in
the unitary Fourier basis and decimation sums the spectrum over its d alias
blocks per low-res bin, the normal equations split into independent d x d
rank-one-plus-identity systems, solved exactly per bin:

    r(kappa)   = sum_b  lam_b(kappa) * K_b(kappa)
    w(kappa)   = r(kappa) / (2 tau d + sum_b |lam_b(kappa)|^2)
    Xhat_b     = (K_b - conj(lam_b) * w) / (2 tau)

where K is the unitary spectrum of ``H^H S^H y + 2 tau xbar`` and index b
picks high-res bin ``kappa + b * L``.  No iterations and no large matrix:
a trilinear solve takes one low-res FFT, one high-res FFT (of the prior)
and one high-res inverse FFT; a zero-fill solve, whose prior spectrum is
the data's spectrum in the retained box, skips the high-res FFT.  The
``SolveReport`` diagnostics come from the same spectra by Parseval and add
no transform.  Exactness is enforced against a dense brute-force solver in
the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ParameterError
from .interp import upsample_array
from .spectral import (
    KernelSpectrum,
    _box,
    _check_divisible,
    adjoint_spectrum,
    alias_sum,
    fftn_unitary,
    fold_spectrum,
    ifftn_unitary,
)
from .degrade import apply_SH  # noqa: F401  unused, but perfbench traces solver.apply_SH
from .volume import (
    ComplexVolume,
    Grid3,
    VelocityDataset,
    VelocityFrame,
    extract_velocity,
    map_channels,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "build_prior",
    "fsr_solve",
    "superresolve_dataset",
]

PRIOR_MODES = ("trilinear", "zero-fill")


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weight, kernel spectrum, decimation rates, prior mode.

    ``gram`` holds the kernel's alias energy for the rates ``d``.  It
    depends on nothing else, so it is built once per config (and again by
    ``dataclasses.replace``), and every solve under the config shares it.
    """

    tau: float
    kernel: KernelSpectrum
    d: tuple[int, int, int]
    prior: str = "trilinear"
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ParameterError(f"tau must be finite and > 0, got {self.tau}")
        object.__setattr__(self, "d", _check_divisible(self.kernel.grid, self.d))
        if self.prior not in PRIOR_MODES:
            raise ParameterError(f"prior must be one of {PRIOR_MODES}, got {self.prior!r}")
        object.__setattr__(self, "gram", fold_spectrum(self.kernel, self.d))

    @property
    def hr_grid(self) -> Grid3:
        return self.kernel.grid

    @property
    def lr_grid(self) -> Grid3:
        return self.kernel.grid.decimated(self.d)


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one solve: fit, prior pull, objective value, wall time."""

    residual_norm: float
    prior_distance: float
    objective: float
    wall_time_s: float


def build_prior(y: ComplexVolume, d: tuple[int, int, int], mode: str = "trilinear") -> ComplexVolume:
    """Rough high-resolution estimate of the signal behind a low-res volume.

    ``trilinear`` interpolates the complex samples, not the phase, onto the
    fine lattice in one pass (phase wraps at +-pi, so interpolating it
    directly would create seam artifacts).  The interpolation weights are
    real, so this equals interpolating the real and imaginary parts
    separately.  ``zero-fill`` embeds the low-res spectrum in a zero
    high-res spectrum and scales by sqrt(d), which makes the prior exactly
    consistent with the data under the ideal low-pass kernel.
    """
    if mode not in PRIOR_MODES:
        raise ParameterError(f"prior mode must be one of {PRIOR_MODES}, got {mode!r}")
    d = tuple(int(v) for v in d)
    hr_grid = y.grid.scaled(d)
    if mode == "trilinear":
        return ComplexVolume(hr_grid, upsample_array(y.data, d))
    return ComplexVolume(hr_grid, ifftn_unitary(_zero_fill_spectrum(fftn_unitary(y.data), d)))


def _zero_fill_spectrum(y_spec: np.ndarray, d: tuple[int, int, int]) -> np.ndarray:
    # the zero-fill prior's spectrum: sqrt(d) times the low-res spectrum in
    # the retained box of an otherwise zero high-res spectrum
    hr_dims = tuple(n * rate for n, rate in zip(y_spec.shape, d))
    spec = np.zeros(hr_dims, dtype=np.complex128)
    spec[_box(hr_dims, y_spec.shape)] = np.sqrt(np.prod(d)) * y_spec
    return spec


def _per_bin_solve(k_spec: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    # the d x d Woodbury solve of every low-res bin, from the right-hand
    # side's spectrum to the minimizer's, both in high-res bin order
    lam = cfg.kernel.values
    weights = alias_sum(lam * k_spec, cfg.d)
    weights /= 2.0 * cfg.tau * np.prod(cfg.d) + cfg.gram
    return (k_spec - np.conj(lam) * np.tile(weights, cfg.d)) / (2.0 * cfg.tau)


def fsr_solve(
    y: ComplexVolume,
    cfg: SolverConfig,
    prior: ComplexVolume | None = None,
) -> tuple[ComplexVolume, SolveReport]:
    """Exact minimizer of the penalized reconstruction for one complex volume.

    Parameters
    ----------
    y : ComplexVolume
        Low-resolution complex data.
    cfg : SolverConfig
        Weight, kernel (on the target high-res grid), rates, prior mode, and
        the kernel's alias energy, built once when the config is made.
    prior : ComplexVolume, optional
        Explicit high-res prior; built per ``cfg.prior`` when omitted.

    Returns
    -------
    (ComplexVolume, SolveReport)
        The high-res estimate and its diagnostics.
    """
    t0 = time.perf_counter()
    if y.grid.dims != cfg.lr_grid.dims:
        raise GridMismatchError(f"data grid {y.grid.dims} != config LR grid {cfg.lr_grid.dims}")
    if prior is not None and prior.grid.dims != cfg.hr_grid.dims:
        raise GridMismatchError(
            f"prior grid {prior.grid.dims} != config HR grid {cfg.hr_grid.dims}"
        )

    y_spec = fftn_unitary(y.data)
    if prior is None and cfg.prior == "zero-fill":
        prior_spec = _zero_fill_spectrum(y_spec, cfg.d)
    else:
        if prior is None:
            prior = build_prior(y, cfg.d, cfg.prior)
        prior_spec = fftn_unitary(prior.data)
        del prior
    k_spec = adjoint_spectrum(y_spec, cfg.kernel, cfg.d)
    k_spec += 2.0 * cfg.tau * prior_spec
    x_spec = _per_bin_solve(k_spec, cfg)
    del k_spec
    x_hat = ComplexVolume(y.grid.scaled(cfg.d), ifftn_unitary(x_spec))

    # Parseval: the norms of the LR residual and of the distance to the
    # prior are those of their unitary spectra, S H x being the alias sum
    residual = alias_sum(cfg.kernel.values * x_spec, cfg.d) / np.sqrt(np.prod(cfg.d))
    residual_norm = float(np.linalg.norm(residual - y_spec))
    prior_spec -= x_spec
    prior_distance = float(np.linalg.norm(prior_spec))
    report = SolveReport(
        residual_norm=residual_norm,
        prior_distance=prior_distance,
        objective=0.5 * residual_norm**2 + cfg.tau * prior_distance**2,
        wall_time_s=time.perf_counter() - t0,
    )
    return x_hat, report


def superresolve_dataset(
    lr: VelocityDataset,
    cfg: SolverConfig,
    hr_grid: Grid3,
    reports: list | None = None,
) -> VelocityDataset:
    """Super-resolve every frame and velocity channel of a dataset.

    Each channel is solved independently: the low-res complex signal is
    rebuilt from the frame's magnitude and that channel's velocity, solved
    on the high-res grid, and the velocity re-extracted.  The output
    magnitude comes from the u channel's solution.

    ``reports`` (when given) collects ``(frame_index, channel, SolveReport)``
    tuples for every solve.
    """
    if cfg.hr_grid.dims != hr_grid.dims:
        raise GridMismatchError(
            f"solver kernel grid {cfg.hr_grid.dims} does not match hr grid {hr_grid.dims}"
        )
    venc = lr.params.venc

    def sr_channel(f_idx: int, frame: VelocityFrame, ch: str):
        # measured data may hold velocities exactly at the encoding boundary
        # (phase pi, e.g. after float32 storage), so rebuild the signal
        # without the ground-truth aliasing guard
        phase = np.pi * frame.channel(ch).data / venc
        y = ComplexVolume(frame.grid, frame.magnitude.data * np.exp(1j * phase))
        x_hat, rep = fsr_solve(y, cfg)
        if reports is not None:
            reports.append((f_idx, ch, rep))
        return extract_velocity(x_hat, venc)

    return map_channels(lr, sr_channel)
