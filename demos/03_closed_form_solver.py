"""The closed-form solve, checked against dense linear algebra.

The penalized reconstruction has an exact solution: the normal equations
decouple per low-res frequency bin, so the solution is the prior plus a
correction computed by one division per low-res bin and spread over the
spectrum's decimation alias blocks.  On grids small enough to materialize S
and H explicitly, the fast path and a direct dense solve must agree to
rounding; this script shows that, the solve cost at a realistic size, and
the regularization limits.
"""

import time

import numpy as np

from flowsr import (
    ComplexVolume,
    Grid3,
    SolverConfig,
    build_dense,
    dense_solve,
    fsr_solve,
    ideal_lowpass_spectrum,
)

rng = np.random.default_rng(7)
grid = Grid3(8, 8, 8)
d = (2, 2, 2)
kernel = ideal_lowpass_spectrum(grid, d)
lr = grid.decimated(d)
y = ComplexVolume(lr, rng.standard_normal(lr.dims) + 1j * rng.standard_normal(lr.dims))
prior = ComplexVolume(grid, rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims))

print("dense vs closed-form solution, 8^3 grid, x2 per axis:")
for tau in (1e-3, 0.05, 1.0):
    cfg = SolverConfig(tau=tau, kernel=kernel, d=d)
    ops = build_dense(grid, cfg)
    x_ref = dense_solve(y, prior, ops, tau)
    x_fast, report = fsr_solve(y, cfg, prior=prior)
    rel = np.linalg.norm(x_fast.data - x_ref.data) / np.linalg.norm(x_ref.data)
    print(f"  tau={tau:<6g} rel err {rel:.2e}   objective {report.objective:.4f} "
          f"residual {report.residual_norm:.4f}")

big = SolverConfig(tau=1e8, kernel=kernel, d=d)
x_big, _ = fsr_solve(y, big, prior=prior)
print(f"\ntau -> inf returns the prior: rel err "
      f"{np.linalg.norm(x_big.data - prior.data) / np.linalg.norm(prior.data):.2e}")

hr64 = Grid3(64, 64, 64)
cfg64 = SolverConfig(tau=0.05, kernel=ideal_lowpass_spectrum(hr64, (4, 4, 4)), d=(4, 4, 4))
y64 = ComplexVolume(
    hr64.decimated((4, 4, 4)),
    rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal((16, 16, 16)),
)
fsr_solve(y64, cfg64)  # warm up
t0 = time.perf_counter()
_, rep = fsr_solve(y64, cfg64)
print(f"\n64^3 x4 solve: {(time.perf_counter() - t0) * 1e3:.0f} ms "
      "(one low-res 3D FFT and one high-res inverse 3D FFT; the trilinear "
      "prior's spectrum comes from per-axis matrix products, and the report "
      "adds no transform)")
