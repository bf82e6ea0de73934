"""Flat key=value run configuration for end-to-end experiments.

The format is a diff-able text file: one ``key = value`` per line, ``#``
comments and blank lines ignored, keys unordered, unknown keys rejected.
``none`` (case-insensitive) clears optional values.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields

from .degrade import KERNEL_KINDS
from .errors import ConfigError
from .interp import METHODS
from .phantom import PHANTOMS
from .solver import PRIOR_MODES

__all__ = ["CHOICES", "RunConfig", "parse_config_text", "format_config_text"]

# the values a choice setting takes: RunConfig checks them and each flag offers them
CHOICES = {"phantom": PHANTOMS, "axis": ("x", "y", "z"), "kernel": KERNEL_KINDS,
           "prior": PRIOR_MODES, "baseline": METHODS}


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs besides its output directory."""

    phantom: str = "poiseuille"
    dims: tuple[int, int, int] = (64, 64, 64)
    frames: int = 5
    venc: float = 150.0
    vmax: float = 120.0
    radius: float = 0.0  # voxels; 0 picks 0.35 * smallest transverse dim
    axis: str = "z"
    magnitude_in: float = 1.0
    magnitude_out: float = 0.0
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    factor: tuple[int, int, int] = (4, 4, 4)
    kernel: str = "ideal"
    kernel_fwhm: tuple[float, float, float] | None = None
    noise_psnr: float | None = 15.0
    seed: int = 1234
    tau: float = 0.01
    prior: str = "trilinear"
    baseline: str = "trilinear"
    mask_threshold: float = 0.1

    def __post_init__(self):
        for name, hint in typing.get_type_hints(RunConfig).items():
            try:
                object.__setattr__(self, name, _convert(getattr(self, name), hint))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        for name, values in CHOICES.items():
            if getattr(self, name) not in values:
                raise ConfigError(f"{name} must be one of {values}, got {getattr(self, name)!r}")
        if min(self.dims) < 1 or min(self.factor) < 1:
            raise ConfigError("dims and factor entries must be >= 1")
        for dim, rate in zip(self.dims, self.factor):
            if dim % rate:
                raise ConfigError(f"factor {self.factor} does not divide dims {self.dims}")
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if not 0 < self.venc < float("inf"):
            raise ConfigError(f"venc must be finite and > 0, got {self.venc}")
        if not 0 < abs(self.vmax) < self.venc:
            raise ConfigError(f"vmax must satisfy 0 < |vmax| < venc, got {self.vmax}")
        if not 0 <= self.radius < float("inf"):
            raise ConfigError(f"radius must be finite and >= 0 (0 = auto), got {self.radius}")
        for name in ("magnitude_in", "magnitude_out"):
            if not 0 <= getattr(self, name) < float("inf"):
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not all(0 < v < float("inf") for v in self.spacing):
            raise ConfigError(f"spacing entries must be finite and > 0, got {self.spacing}")
        if self.kernel_fwhm is not None and not all(v > 0 for v in self.kernel_fwhm):
            raise ConfigError(f"kernel_fwhm entries must be > 0 (inf = all-pass), got {self.kernel_fwhm}")
        if self.noise_psnr is not None and not math.isfinite(self.noise_psnr):
            raise ConfigError(f"noise_psnr must be finite (none = noiseless), got {self.noise_psnr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.tau < float("inf"):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if not 0 < self.mask_threshold < 1:
            raise ConfigError(f"mask_threshold must be in (0, 1), got {self.mask_threshold}")

    def check_flow_mask(self) -> None:
        """Raise ``ConfigError`` unless the flow mask holds the tube, which a scored run needs.

        The phantom's magnitude is ``magnitude_in`` in the tube and
        ``magnitude_out`` outside, and the mask keeps the voxels at or above
        ``mask_threshold`` times the peak.  ``simulate`` builds no mask and
        does not ask.
        """
        if not (self.magnitude_in > 0
                and self.magnitude_in >= self.mask_threshold * self.magnitude_out):
            raise ConfigError(
                f"the flow mask misses the tube: magnitude_in ({self.magnitude_in}) must be > 0 "
                f"and >= mask_threshold ({self.mask_threshold}) * magnitude_out "
                f"({self.magnitude_out})"
            )

    def effective_radius(self) -> float:
        if self.radius > 0:
            return self.radius
        trans = [d for i, d in enumerate(self.dims) if i != "xyz".index(self.axis)]
        return 0.35 * min(trans)


def _convert(value, hint, text=False):
    # the field's annotation says how to hold a value: ``X | None`` also takes
    # None (``none`` in text), ``tuple[T, T, T]`` takes three values (comma-
    # or blank-separated in text), anything else is T(value); a value given
    # in code must equal T(value), so 32.0 becomes 32 while 32.5 and "32" fail;
    # a NaN equals its converted self, so that the range checks report it
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None or text and value.lower() == "none":
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        parts = value.replace(",", " ").split() if text else value
        if len(parts) != 3:
            raise ValueError(f"expected 3 values, got {value!r}")
        return tuple(_convert(v, args[0], text) for v in parts)
    held = hint(value)
    same = held == value or held != held and value != value
    if not text and (not same or isinstance(value, bool)):
        raise ValueError(f"expected {hint.__name__}, got {value!r}")
    return held


def parse_config_text(text: str) -> RunConfig:
    """Parse a key=value config document into a validated RunConfig."""
    hints = typing.get_type_hints(RunConfig)
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in hints:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _convert(raw, hints[key], text=True)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    return RunConfig(**values)


def _key_value_text(items) -> str:
    """``key = value`` lines: ``none`` for None, tuples comma-joined, floats by ``repr``."""

    def render(value) -> str:
        if value is None:
            return "none"
        if isinstance(value, tuple):
            return ",".join(render(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    return "".join(f"{key} = {render(value)}\n" for key, value in items)


def format_config_text(cfg: RunConfig) -> str:
    """Serialize a RunConfig so that parsing it back reproduces the run."""
    return _key_value_text((f.name, getattr(cfg, f.name)) for f in fields(RunConfig))
