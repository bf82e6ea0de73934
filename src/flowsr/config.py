"""Flat key=value run configuration for end-to-end experiments.

The format is a diff-able text file: one ``key = value`` per line, ``#``
comments and blank lines ignored, keys unordered, unknown keys rejected.
``none`` (case-insensitive) clears optional values.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields

from .degrade import KERNEL_KINDS
from .errors import ConfigError
from .interp import METHODS
from .phantom import PHANTOMS
from .solver import PRIOR_MODES

__all__ = ["RunConfig", "parse_config_text", "format_config_text"]


def _parse_triple(text: str, kind) -> tuple:
    """Three ``kind`` values separated by commas or blanks; ``ValueError`` otherwise."""
    parts = text.replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated values, got {text!r}")
    return tuple(kind(p) for p in parts)


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
        if self.phantom not in PHANTOMS:
            raise ConfigError(f"phantom must be one of {PHANTOMS}, got {self.phantom!r}")
        if self.kernel not in KERNEL_KINDS:
            raise ConfigError(f"kernel must be one of {KERNEL_KINDS}, got {self.kernel!r}")
        if self.prior not in PRIOR_MODES:
            raise ConfigError(f"prior must be one of {PRIOR_MODES}, got {self.prior!r}")
        if self.baseline not in METHODS:
            raise ConfigError(f"baseline must be one of {METHODS}, got {self.baseline!r}")
        if self.axis not in ("x", "y", "z"):
            raise ConfigError(f"axis must be x, y or z, got {self.axis!r}")
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
        if not 0 < self.tau < float("inf"):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if not 0 < self.mask_threshold < 1:
            raise ConfigError(f"mask_threshold must be in (0, 1), got {self.mask_threshold}")

    def effective_radius(self) -> float:
        if self.radius > 0:
            return self.radius
        trans = [d for i, d in enumerate(self.dims) if i != "xyz".index(self.axis)]
        return 0.35 * min(trans)


def _convert(value, hint, text=False):
    # the field's annotation says how to hold a value: ``X | None`` also takes
    # None (``none`` in text), ``tuple[T, T, T]`` takes three values (comma-
    # or blank-separated in text), anything else is T(value); a value given
    # in code must equal T(value), so 32.0 becomes 32 while 32.5 and "32" fail
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None or text and value.lower() == "none":
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if text:
            return _parse_triple(value, args[0])
        if len(value) != 3:
            raise ValueError(f"expected 3 values, got {value!r}")
        return tuple(_convert(v, args[0]) for v in value)
    held = hint(value)
    if not text and (held != value or isinstance(value, bool)):
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


def format_config_text(cfg: RunConfig) -> str:
    """Serialize a RunConfig so that parsing it back reproduces the run."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            rendered = "none"
        elif isinstance(value, tuple):
            rendered = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
