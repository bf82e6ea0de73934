"""Dense brute-force reference for the fast solver and forward model.

Builds the decimation and convolution operators as explicit matrices in the
repo's lexicographic voxel ordering and solves the normal equations by
direct dense linear algebra.  The Fourier matrix is constructed from first
principles (explicit complex exponentials), so this path shares no transform
code with the fast implementation it validates.

Everything here is deliberately slow and guarded to small grids; it exists
to arbitrate correctness, including through the ``oracle-check`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ParameterError, SizeGuardError
from .solver import SolverConfig
from .volume import ComplexVolume, Grid3, ravel_lex, unravel_lex

__all__ = ["MAX_DENSE_VOXELS", "DenseOperators", "build_dense", "dense_solve"]

MAX_DENSE_VOXELS = 4096


def unitary_dft_matrix(n: int) -> np.ndarray:
    """Dense n x n unitary DFT matrix."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def dft3_matrix(dims: tuple[int, int, int]) -> np.ndarray:
    """Unitary 3D DFT on lexicographically ordered voxels (x fastest)."""
    m, n, s = dims
    return np.kron(unitary_dft_matrix(s), np.kron(unitary_dft_matrix(n), unitary_dft_matrix(m)))


@dataclass(frozen=True, eq=False)
class DenseOperators:
    """Explicit S (decimation) and H (circular convolution) matrices, S H and its normal matrix."""

    hr_grid: Grid3
    lr_grid: Grid3
    S: np.ndarray = field(repr=False)  # (N_l, N_h) real 0/1
    H: np.ndarray = field(repr=False)  # (N_h, N_h) complex
    SH: np.ndarray = field(repr=False)  # (N_l, N_h) complex, S @ H
    normal: np.ndarray = field(repr=False)  # (N_h, N_h) complex, SH^H SH

    def apply_sh(self, x: ComplexVolume) -> ComplexVolume:
        """S H x through the dense matrices."""
        return ComplexVolume(self.lr_grid, unravel_lex(self.S @ (self.H @ ravel_lex(x.data)), self.lr_grid.dims))

    def apply_sh_adjoint(self, y: ComplexVolume) -> ComplexVolume:
        """H^H S^T y through the dense matrices."""
        vec = self.H.conj().T @ (self.S.T @ ravel_lex(y.data))
        return ComplexVolume(self.hr_grid, unravel_lex(vec, self.hr_grid.dims))


def build_dense(hr: Grid3, cfg: SolverConfig) -> DenseOperators:
    """Materialize S and H for a solver configuration on a small grid.

    S keeps voxel index 0 of every d-block per axis, rows in lexicographic
    low-res order; H is the circulant realization of the kernel spectrum,
    ``F^H diag(kernel) F``.  S H and its normal matrix, free of tau, are
    built once here.  Guarded to ``MAX_DENSE_VOXELS`` high-res voxels.
    """
    if hr.voxel_count > MAX_DENSE_VOXELS:
        raise SizeGuardError(
            f"dense oracle limited to {MAX_DENSE_VOXELS} voxels, got {hr.voxel_count}"
        )
    if cfg.kernel.grid.dims != hr.dims:
        raise GridMismatchError(
            f"kernel grid {cfg.kernel.grid.dims} does not match oracle grid {hr.dims}"
        )
    d = cfg.d
    lr = hr.decimated(d)

    lx = np.arange(lr.m) * d[0]
    ly = np.arange(lr.n) * d[1]
    lz = np.arange(lr.s) * d[2]
    rows = np.arange(lr.voxel_count)
    gx, gy, gz = np.meshgrid(lx, ly, lz, indexing="ij")
    cols = ravel_lex(gx + hr.m * gy + hr.m * hr.n * gz)
    S = np.zeros((lr.voxel_count, hr.voxel_count))
    S[rows, cols] = 1.0

    F = dft3_matrix(hr.dims)
    H = F.conj().T @ (ravel_lex(cfg.kernel.values)[:, None] * F)
    SH = S @ H
    return DenseOperators(hr_grid=hr, lr_grid=lr, S=S, H=H, SH=SH, normal=SH.conj().T @ SH)


def dense_solve(
    y: ComplexVolume, prior: ComplexVolume, ops: DenseOperators, tau: float
) -> ComplexVolume:
    """Direct solve of ``(H^H S^H S H + 2 tau I) x = H^H S^H y + 2 tau prior``.

    The system matrix is Hermitian positive definite for tau > 0 (its
    smallest eigenvalue is at least 2 tau), so a direct factorization is
    exact up to rounding.
    """
    return _dense_solve_priors(y, [prior], ops, tau)[0]


def _dense_solve_priors(y: ComplexVolume, priors, ops: DenseOperators, tau: float) -> list[ComplexVolume]:
    # dense_solve for each prior, every right-hand side against one
    # factorization of the system matrix; scipy.linalg is imported here, where
    # it is used, so that no other command pays for its import
    import scipy.linalg

    if tau <= 0:
        raise ParameterError(f"tau must be > 0 for a definite system, got {tau}")
    A = ops.normal + 2.0 * tau * np.eye(ops.hr_grid.voxel_count)
    data_term = ops.SH.conj().T @ ravel_lex(y.data)
    b = np.stack([data_term + 2.0 * tau * ravel_lex(prior.data) for prior in priors], axis=1)
    x = scipy.linalg.solve(A, b, assume_a="pos")
    return [ComplexVolume(ops.hr_grid, unravel_lex(col, ops.hr_grid.dims)) for col in x.T]
