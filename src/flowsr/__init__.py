"""flowsr: super-resolution and denoising of volumetric velocity fields.

Velocity volumes acquired as magnitude + per-direction velocity images are
rebuilt into complex signals, degraded through a convolution-plus-decimation
forward model, and recovered by an exact non-iterative Fourier-domain solve
of the Tikhonov-penalized inverse problem.  A dense brute-force oracle, an
interpolation baseline, analytic flow phantoms and a masked evaluation
harness make end-to-end experiments reproducible without external data.
"""

from .config import RunConfig, format_config_text, parse_config_text
from .degrade import (
    DegradationConfig,
    NoiseCalibration,
    apply_SH,
    apply_SH_adjoint,
    calibrate_noise,
    degrade_dataset,
)
from .errors import (
    AliasingError,
    CalibrationError,
    ConfigError,
    FlowSRError,
    FormatError,
    GridMismatchError,
    MaskError,
    ParameterError,
    SizeGuardError,
)
from .interp import upsample_dataset, upsample_velocity
from .metrics import (
    EvalRecord,
    EvalReport,
    FlowMask,
    evaluate,
    make_mask,
    mean_relative_error,
    psnr,
)
from .oracle import DenseOperators, build_dense, dense_solve
from .phantom import helix_phantom, poiseuille_phantom, pulsatile_profile
from .solver import SolverConfig, SolveReport, build_prior, fsr_solve, superresolve_dataset
from .spectral import (
    KernelSpectrum,
    crop_kspace,
    fold_spectrum,
    forward_fft,
    gaussian_spectrum,
    ideal_lowpass_spectrum,
    inverse_fft,
)
from .volio import load_dataset, save_dataset
from .volume import (
    AcquisitionParams,
    ComplexVolume,
    Grid3,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    extract_velocity,
    phase_to_velocity,
    synthesize_complex,
    velocity_to_phase,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionParams",
    "AliasingError",
    "CalibrationError",
    "ComplexVolume",
    "ConfigError",
    "DegradationConfig",
    "DenseOperators",
    "EvalRecord",
    "EvalReport",
    "FlowMask",
    "FlowSRError",
    "FormatError",
    "Grid3",
    "GridMismatchError",
    "KernelSpectrum",
    "MaskError",
    "NoiseCalibration",
    "ParameterError",
    "RunConfig",
    "ScalarVolume",
    "SizeGuardError",
    "SolveReport",
    "SolverConfig",
    "VelocityDataset",
    "VelocityFrame",
    "apply_SH",
    "apply_SH_adjoint",
    "build_dense",
    "build_prior",
    "calibrate_noise",
    "crop_kspace",
    "degrade_dataset",
    "dense_solve",
    "evaluate",
    "extract_velocity",
    "fold_spectrum",
    "format_config_text",
    "forward_fft",
    "fsr_solve",
    "gaussian_spectrum",
    "helix_phantom",
    "ideal_lowpass_spectrum",
    "inverse_fft",
    "load_dataset",
    "make_mask",
    "mean_relative_error",
    "parse_config_text",
    "phase_to_velocity",
    "poiseuille_phantom",
    "psnr",
    "pulsatile_profile",
    "save_dataset",
    "superresolve_dataset",
    "synthesize_complex",
    "upsample_dataset",
    "upsample_velocity",
    "velocity_to_phase",
]
