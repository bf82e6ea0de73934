"""Closed-form Tikhonov super-resolution of complex volumes.

Per velocity channel and frame, the high-resolution complex signal is the
minimizer of

    0.5 * ||y - S H x||^2  +  tau * ||x - xbar||^2

with xbar an interpolated rough estimate of x.  H diagonalizes in the
unitary Fourier basis, with values lam, and decimation sums the spectrum
over its D = prod(d) alias blocks per low-res bin, so in the Woodbury form
of the normal equations (Zhao et al., IEEE TIP 2016) the inverse is
diagonal on low-res bins.  The minimizer is the prior plus a correction
computed at low-res size:

    A          = alias_sum(lam * P)
    u          = (sqrt(D) * Y - A) / (2 tau D + G)
    Xhat       = P + conj(lam) * tile(u)

with Y the data's unitary spectrum, P the prior's, G = alias_sum(|lam|^2) the
kernel's alias energy and ``tile`` the adjoint of ``alias_sum`` (high-res bin
``kappa + b * L`` gets low-res bin kappa); ``spectral`` computes A and adds
conj(lam) * tile(u) for every kernel.  No iterations and no large matrix: a
solve takes one low-res FFT and one high-res inverse FFT.  The trilinear
prior's spectrum is a product of per-axis DFT'd weights and the low-res data
(``interp.upsample_spectrum``), the zero-fill prior's the data's spectrum in
the retained box; only an explicit prior takes a high-res FFT.  The
``SolveReport`` diagnostics are low-res too, by Parseval: S H x has spectrum
(A + G * u) / sqrt(D), and x - xbar has energy sum(G * |u|^2).  Exactness is
enforced against a dense brute-force solver in the test suite and by ``flowsr
oracle-check``.

The ideal low-pass kernel (the default) is 1 on the retained box and 0
elsewhere, so every low-res bin has one alias there and G = 1: A is the
prior's spectrum on the box and the correction lands on the box alone,
with no high-res pointwise pass.  With the zero-fill prior as well, A is
sqrt(D) * Y itself, so u is 0 in every bin and the minimizer is the prior,
whose spectrum is zero off the box (Zhao et al.): this box solve computes
no correction, reports the prior's fit and a prior distance of 0, and
inverse-transforms the box alone, LR-sized, with
``spectral.zero_filled_ifftn``, which transforms only the lines that hold
a box bin (at rate 2 per axis, 58 % of ``ifftn``'s line transforms), bit
for bit ``ifftn``'s result.

Memory: a solve adds the correction into its own prior spectrum and
inverse-transforms that array in place, and the output volume adopts it
without a copy.  A general kernel needs one high-res array beside it at a
time, lam * P and then conj(lam) * tile(u), plus low-res ones and the
kernel's conjugate.  The ideal kernel needs only the prior's spectrum.  The
trilinear prior's last per-axis product holds its input, 1/d of a high-res
array, beside it.  The zero-fill prior's box solve holds no high-res array
until the image, which the pruned inverse zero-fills and transforms in
place, and frees the data's spectrum before: 1.19 high-res arrays at
its peak at 64³, d = 2, against 1.53 with a zero-filled spectrum and
``ifftn``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ParameterError
from .interp import upsample_array, upsample_spectrum
from .spectral import (
    KernelSpectrum,
    _check_divisible,
    _zero_fill,
    add_spread,
    fftn_unitary,
    filtered_alias_sum,
    fold_spectrum,
    ifftn_unitary,
    zero_filled_ifftn,
)
from .degrade import apply_SH  # noqa: F401  unused, but perfbench traces solver.apply_SH
from .volume import (
    ComplexVolume,
    Grid3,
    VelocityDataset,
    VelocityFrame,
    _adopt,
    _check_finite,
    _phase_encode,
    extract_velocity,
    map_frame,
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

    ``gram``, the kernel's alias energy for the rates ``d``, depends on
    nothing else, so it is built once per config (and again by
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
        data = upsample_array(y.data, d)
    else:
        data = zero_filled_ifftn(np.sqrt(np.prod(d)) * fftn_unitary(y.data), hr_grid.dims)
    _check_finite(data)
    return _adopt(ComplexVolume, hr_grid, data)


def _lr_correction(y_spec: np.ndarray, alias: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    # the Woodbury form's LR correction u = (sqrt(D) Y - A) / (2 tau D + G),
    # from the LR spectra Y (data) and A (filtered prior); neither is written
    D = float(np.prod(cfg.d))
    u = np.sqrt(D) * y_spec
    u -= alias
    u /= 2.0 * cfg.tau * D + cfg.gram
    return u


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
    sqrt_D = np.sqrt(np.prod(cfg.d))
    if prior is None and cfg.prior == "zero-fill" and cfg.kernel.lowpass_rates == cfg.d:
        # with the ideal kernel the zero-fill prior's spectrum, sqrt(D) Y on the
        # retained box, is its own alias sum A, so the correction u is +0.0 in
        # every bin: the minimizer is the prior, and the fit is the prior's
        box = sqrt_D * y_spec
        residual_norm, prior_distance = float(np.linalg.norm(box / sqrt_D - y_spec)), 0.0
        box += 0.0  # adding u = +0.0 turns a -0.0 bin into +0.0
        del y_spec  # before the HR image is made
        x = zero_filled_ifftn(box, cfg.hr_grid.dims)
    else:
        if prior is not None:
            prior_spec = fftn_unitary(prior.data)  # the caller's prior, never written
        elif cfg.prior == "zero-fill":
            prior_spec = _zero_fill(sqrt_D * y_spec, cfg.hr_grid.dims)
        else:
            prior_spec = upsample_spectrum(y.data, cfg.d)  # no HR image, no HR FFT
        alias = filtered_alias_sum(cfg.kernel, prior_spec, cfg.d)
        u = _lr_correction(y_spec, alias, cfg)
        # Parseval, at LR size: S H x has spectrum (A + G u) / sqrt(D), x - xbar energy sum G |u|^2
        residual_norm = float(np.linalg.norm((alias + cfg.gram * u) / sqrt_D - y_spec))
        prior_distance = float(np.sqrt(np.sum(cfg.gram * np.abs(u) ** 2)))
        # the minimizer's spectrum is the prior's plus conj(lam) * tile(u), added
        # into the solve's own prior spectrum
        add_spread(prior_spec, cfg.kernel, u, cfg.d)
        del y_spec, alias, u  # before the HR image is made
        # x is a view of prior_spec; adopting it marks both read-only below
        x = ifftn_unitary(prior_spec, overwrite_x=True)
    _check_finite(x)
    x_hat = _adopt(ComplexVolume, y.grid.scaled(cfg.d), x)
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

    def sr_channel(f_idx: int, frame: VelocityFrame, ch: str, keep_magnitude: bool):
        # measured data may hold velocities exactly at the encoding boundary
        # (phase pi, e.g. after float32 storage), so rebuild the signal
        # without the ground-truth aliasing guard
        x_hat, rep = fsr_solve(_phase_encode(frame.magnitude, frame.channel(ch), venc), cfg)
        if reports is not None:
            reports.append((f_idx, ch, rep))
        return extract_velocity(x_hat, venc, magnitude=keep_magnitude)

    frames = (map_frame(functools.partial(sr_channel, f_idx, frame))
              for f_idx, frame in enumerate(lr.frames))
    return VelocityDataset(lr.params, tuple(frames))
