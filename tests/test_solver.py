import collections
import dataclasses
import sys
import threading

import numpy as np
import pytest
import scipy.fft

from flowsr import (
    ComplexVolume,
    DegradationConfig,
    Grid3,
    GridMismatchError,
    KernelSpectrum,
    ParameterError,
    SolverConfig,
    apply_SH,
    apply_SH_adjoint,
    build_dense,
    build_prior,
    degrade_dataset,
    dense_solve,
    extract_velocity,
    fold_spectrum,
    fsr_solve,
    gaussian_spectrum,
    helix_phantom,
    ideal_lowpass_spectrum,
    poiseuille_phantom,
    superresolve_dataset,
)

from conftest import random_complex, rel_err


def _cfg(dims, d, kind="ideal", tau=0.05, prior="trilinear"):
    grid = Grid3(*dims)
    if kind == "ideal":
        kernel = ideal_lowpass_spectrum(grid, d)
    elif kind == "gaussian":
        kernel = gaussian_spectrum(grid, tuple(dim / rate for dim, rate in zip(dims, d)))
    else:
        raise AssertionError(kind)
    return SolverConfig(tau=tau, kernel=kernel, d=d, prior=prior)


def _objective(y, x, prior, cfg):
    resid = apply_SH(x, cfg.kernel, cfg.d).data - y.data
    return 0.5 * np.linalg.norm(resid) ** 2 + cfg.tau * np.linalg.norm(x.data - prior.data) ** 2


class TestSolverConfig:
    def test_rejects_nonpositive_tau(self):
        kernel = ideal_lowpass_spectrum(Grid3(4, 4, 4), (2, 2, 2))
        with pytest.raises(ParameterError):
            SolverConfig(tau=0.0, kernel=kernel, d=(2, 2, 2))

    def test_rejects_infinite_tau(self):
        kernel = ideal_lowpass_spectrum(Grid3(4, 4, 4), (2, 2, 2))
        with pytest.raises(ParameterError, match="finite"):
            SolverConfig(tau=np.inf, kernel=kernel, d=(2, 2, 2))

    def test_rejects_unknown_prior(self):
        kernel = ideal_lowpass_spectrum(Grid3(4, 4, 4), (2, 2, 2))
        with pytest.raises(ParameterError):
            SolverConfig(tau=0.1, kernel=kernel, d=(2, 2, 2), prior="nearest")

    def test_rejects_nondivisible_rates(self):
        kernel = ideal_lowpass_spectrum(Grid3(4, 4, 4), (2, 2, 2))
        with pytest.raises(GridMismatchError):
            SolverConfig(tau=0.1, kernel=kernel, d=(3, 2, 2))

    def test_alias_blocks_are_the_kernels_fold(self):
        cfg = _cfg((8, 6, 4), (2, 3, 1), "gaussian")
        assert np.array_equal(cfg.gram, fold_spectrum(cfg.kernel, cfg.d))
        assert cfg.gram.shape == cfg.lr_grid.dims
        with pytest.raises(ValueError):
            cfg.gram[0, 0, 0] = 0

    def test_replace_rebuilds_the_alias_blocks(self):
        cfg = _cfg((8, 8, 8), (2, 2, 2), "ideal")
        gauss = gaussian_spectrum(cfg.hr_grid, (3.0, 4.0, 5.0))
        swapped = dataclasses.replace(cfg, kernel=gauss)
        assert np.array_equal(swapped.gram, fold_spectrum(gauss, cfg.d))
        assert not np.array_equal(swapped.gram, cfg.gram)

    def test_alias_blocks_are_not_an_argument(self, rng):
        # the alias energy follows from the kernel and rates alone; a solve
        # cannot be handed that of another kernel or other rates
        cfg = _cfg((8, 8, 8), (2, 2, 2))
        y = random_complex(cfg.lr_grid, rng)
        with pytest.raises(TypeError):
            fsr_solve(y, cfg, gram=cfg.gram)
        with pytest.raises(TypeError):
            SolverConfig(tau=0.1, kernel=cfg.kernel, d=cfg.d, gram=cfg.gram)


class TestBuildPrior:
    @pytest.mark.parametrize("mode", ["trilinear", "zero-fill"])
    def test_constant_maps_to_constant(self, mode):
        lr = Grid3(4, 4, 2)
        c = 1.5 - 0.5j
        prior = build_prior(ComplexVolume(lr, np.full(lr.dims, c)), (2, 2, 3), mode)
        assert prior.grid.dims == (8, 8, 6)
        assert np.allclose(prior.data, c, atol=1e-12)

    @pytest.mark.parametrize("mode", ["trilinear", "zero-fill"])
    def test_rate_one_is_identity(self, mode, rng):
        lr = Grid3(4, 3, 5)
        y = random_complex(lr, rng)
        prior = build_prior(y, (1, 1, 1), mode)
        assert rel_err(prior.data, y.data) < 1e-12

    def test_zero_fill_is_data_consistent_under_ideal_kernel(self, rng):
        lr, d = Grid3(4, 2, 2), (2, 2, 2)
        y = random_complex(lr, rng)
        prior = build_prior(y, d, "zero-fill")
        kernel = ideal_lowpass_spectrum(Grid3(8, 4, 4), d)
        assert rel_err(apply_SH(prior, kernel, d).data, y.data) < 1e-10

    def test_unknown_mode(self, rng):
        y = random_complex(Grid3(2, 2, 2), rng)
        with pytest.raises(ParameterError):
            build_prior(y, (2, 2, 2), "sinc")

    def test_trilinear_interpolates_componentwise(self, rng):
        # a purely real LR volume must stay purely real after interpolation
        lr = Grid3(4, 4, 4)
        y = ComplexVolume(lr, rng.standard_normal(lr.dims) + 0j)
        prior = build_prior(y, (2, 2, 2), "trilinear")
        assert np.all(prior.data.imag == 0)


ORACLE_CASES = [
    ((4, 4, 4), (2, 1, 1), "ideal"),
    ((4, 4, 4), (2, 2, 2), "gaussian"),
    ((6, 6, 6), (2, 2, 1), "ideal"),
    ((6, 6, 6), (3, 2, 2), "gaussian"),
    ((8, 8, 8), (2, 2, 2), "ideal"),
    ((8, 6, 4), (2, 2, 2), "gaussian"),
    ((8, 6, 4), (2, 3, 1), "ideal"),
]


class TestFsrSolve:
    def test_trivial_config_returns_data(self, rng):
        g = Grid3(4, 4, 4)
        y = random_complex(g, rng)
        cfg = _cfg((4, 4, 4), (1, 1, 1), tau=0.2)
        x, report = fsr_solve(y, cfg, prior=y)
        assert rel_err(x.data, y.data) < 1e-12
        assert report.residual_norm < 1e-12
        assert report.wall_time_s >= 0

    def test_huge_tau_returns_prior(self, rng):
        cfg = _cfg((8, 4, 4), (2, 2, 2), tau=1e8)
        y = random_complex(Grid3(4, 2, 2), rng)
        prior = random_complex(Grid3(8, 4, 4), rng)
        x, _ = fsr_solve(y, cfg, prior=prior)
        assert rel_err(x.data, prior.data) < 1e-6

    @pytest.mark.parametrize("dims,d,kind", ORACLE_CASES)
    @pytest.mark.parametrize("tau", [1e-3, 0.05, 1.0])
    def test_matches_dense_oracle(self, dims, d, kind, tau, rng):
        cfg = _cfg(dims, d, kind, tau)
        grid = Grid3(*dims)
        ops = build_dense(grid, cfg)
        y = random_complex(ops.lr_grid, rng)
        prior = random_complex(grid, rng)
        x_fast, _ = fsr_solve(y, cfg, prior=prior)
        x_ref = dense_solve(y, prior, ops, tau)
        assert rel_err(x_fast.data, x_ref.data) < 1e-8

    def test_matches_dense_oracle_complex_kernel(self, rng):
        # a genuinely complex kernel spectrum pins down the conjugate
        # placement in the per-bin reduction and broadcast
        dims, d = (4, 4, 4), (2, 2, 1)
        grid = Grid3(*dims)
        values = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        cfg = SolverConfig(tau=0.05, kernel=KernelSpectrum(grid, values), d=d)
        ops = build_dense(grid, cfg)
        y = random_complex(ops.lr_grid, rng)
        prior = random_complex(grid, rng)
        x_fast, _ = fsr_solve(y, cfg, prior=prior)
        x_ref = dense_solve(y, prior, ops, cfg.tau)
        assert rel_err(x_fast.data, x_ref.data) < 1e-10

    @pytest.mark.parametrize("dims,d,kind", ORACLE_CASES)
    def test_normal_equation_residual(self, dims, d, kind, rng):
        cfg = _cfg(dims, d, kind, tau=0.02)
        grid = Grid3(*dims)
        y = random_complex(grid.decimated(d), rng)
        prior = random_complex(grid, rng)
        x, _ = fsr_solve(y, cfg, prior=prior)
        grad = (
            apply_SH_adjoint(
                ComplexVolume(y.grid, apply_SH(x, cfg.kernel, d).data - y.data), cfg.kernel, d
            ).data
            + 2 * cfg.tau * (x.data - prior.data)
        )
        scale = np.linalg.norm(apply_SH_adjoint(y, cfg.kernel, d).data)
        assert np.linalg.norm(grad) <= 1e-8 * scale

    def test_objective_not_above_either_prior(self, rng):
        cfg = _cfg((8, 4, 4), (2, 2, 2), tau=0.05)
        y = random_complex(Grid3(4, 2, 2), rng)
        x, _ = fsr_solve(y, cfg)
        tri = build_prior(y, cfg.d, "trilinear")
        zf = build_prior(y, cfg.d, "zero-fill")
        obj_x = _objective(y, x, tri, cfg)
        assert obj_x <= _objective(y, tri, tri, cfg) + 1e-12
        assert obj_x <= _objective(y, zf, tri, cfg) + 1e-12

    @pytest.mark.parametrize("kind", ["ideal", "gaussian"])
    @pytest.mark.parametrize("prior_mode", ["trilinear", "zero-fill"])
    def test_report_matches_recomputation(self, prior_mode, kind, rng):
        # the report is read off the spectra; recompute it in image space
        cfg = _cfg((8, 4, 4), (2, 2, 2), kind, tau=0.05, prior=prior_mode)
        y = random_complex(Grid3(4, 2, 2), rng)
        prior = build_prior(y, cfg.d, prior_mode)
        x, report = fsr_solve(y, cfg)
        residual = np.linalg.norm(apply_SH(x, cfg.kernel, cfg.d).data - y.data)
        distance = np.linalg.norm(x.data - prior.data)
        if kind == "ideal" and prior_mode == "zero-fill":
            # this prior already fits the data, so it is the minimizer and
            # both norms are round-off
            bound = 1e-14 * np.linalg.norm(y.data)
            assert max(report.residual_norm, residual, report.prior_distance, distance) <= bound
            return
        assert report.residual_norm == pytest.approx(residual, rel=1e-12, abs=0)
        assert report.prior_distance == pytest.approx(distance, rel=1e-12, abs=0)
        assert report.objective == pytest.approx(_objective(y, x, prior, cfg), rel=1e-12, abs=0)

    def test_default_zero_fill_matches_its_explicit_prior(self, rng):
        cfg = _cfg((8, 6, 4), (2, 3, 1), "gaussian", prior="zero-fill")
        y = random_complex(cfg.lr_grid, rng)
        x, _ = fsr_solve(y, cfg)
        explicit, _ = fsr_solve(y, cfg, prior=build_prior(y, cfg.d, "zero-fill"))
        assert rel_err(x.data, explicit.data) < 1e-12

    def test_grid_mismatch_rejected(self, rng):
        cfg = _cfg((4, 4, 4), (2, 2, 2))
        with pytest.raises(GridMismatchError):
            fsr_solve(random_complex(Grid3(4, 4, 4), rng), cfg)
        with pytest.raises(GridMismatchError):
            fsr_solve(
                random_complex(Grid3(2, 2, 2), rng),
                cfg,
                prior=random_complex(Grid3(2, 2, 2), rng),
            )

INVARIANT_CASES = [
    ((8, 6, 4), (2, 2, 2)),
    ((6, 6, 6), (2, 3, 1)),
    ((2, 4, 6), (2, 1, 3)),  # a single-voxel LR axis
    ((6, 10, 4), (3, 5, 2)),
    ((4, 4, 4), (1, 1, 1)),
]
AXES = (0, 1, 2)


def _solve(cfg, y, prior):
    x, _ = fsr_solve(ComplexVolume(cfg.lr_grid, y), cfg, prior=ComplexVolume(cfg.hr_grid, prior))
    return x.data


@pytest.mark.parametrize("kind", ["ideal", "gaussian"])
@pytest.mark.parametrize("dims,d", INVARIANT_CASES)
class TestFsrSolveInvariants:
    """Symmetries of the exact minimizer on even, odd and single-voxel LR axes."""

    def _inputs(self, dims, d, kind, rng):
        cfg = _cfg(dims, d, kind, tau=0.05)
        return cfg, random_complex(cfg.lr_grid, rng).data, random_complex(cfg.hr_grid, rng).data

    def test_joint_linearity(self, dims, d, kind, rng):
        cfg, y1, p1 = self._inputs(dims, d, kind, rng)
        _, y2, p2 = self._inputs(dims, d, kind, rng)
        a = 0.9 - 0.4j
        combined = _solve(cfg, a * y1 + y2, a * p1 + p2)
        assert rel_err(combined, a * _solve(cfg, y1, p1) + _solve(cfg, y2, p2)) < 1e-12

    def test_shift(self, dims, d, kind, rng):
        # H is circular, so moving the data by s LR voxels moves the
        # solution by s * d HR voxels when the prior moves with it
        cfg, y, prior = self._inputs(dims, d, kind, rng)
        s = (1, -1, 1)
        hr_shift = tuple(si * di for si, di in zip(s, d))
        x = _solve(cfg, y, prior)
        moved = _solve(cfg, np.roll(y, s, AXES), np.roll(prior, hr_shift, AXES))
        assert rel_err(moved, np.roll(x, hr_shift, AXES)) < 1e-12

    def test_conjugation(self, dims, d, kind, rng):
        # conj(H x) is H' conj(x) for the kernel K'(f) = conj(K(-f))
        cfg, y, prior = self._inputs(dims, d, kind, rng)
        mirrored = np.roll(np.flip(cfg.kernel.values, AXES), 1, AXES)  # K(-f), DC-first
        cfg_conj = dataclasses.replace(cfg, kernel=KernelSpectrum(cfg.hr_grid, np.conj(mirrored)))
        x = _solve(cfg, y, prior)
        assert rel_err(_solve(cfg_conj, np.conj(y), np.conj(prior)), np.conj(x)) < 1e-12

    def test_matches_dense_oracle(self, dims, d, kind, rng):
        cfg, y, prior = self._inputs(dims, d, kind, rng)
        ops = build_dense(cfg.hr_grid, cfg)
        x_ref = dense_solve(
            ComplexVolume(cfg.lr_grid, y), ComplexVolume(cfg.hr_grid, prior), ops, cfg.tau
        )
        assert rel_err(_solve(cfg, y, prior), x_ref.data) < 1e-8


class TestFftBudget:
    """Transforms per solve and per degraded channel, counted by array shape.

    ``flowsr.spectral`` calls ``scipy.fft.fftn``/``ifftn`` through the module,
    so patching the module attributes sees every transform.
    """

    @pytest.fixture
    def fft_shapes(self, monkeypatch):
        shapes = collections.Counter()
        for name in ("fftn", "ifftn"):
            def counting(a, *args, _original=getattr(scipy.fft, name), **kwargs):
                shapes[np.shape(a)] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counting)
        return shapes

    @pytest.mark.parametrize(
        "prior, hr_count, lr_count", [("trilinear", 2, 1), ("zero-fill", 1, 1)]
    )
    def test_solve(self, fft_shapes, prior, hr_count, lr_count, rng):
        cfg = _cfg((8, 6, 4), (2, 3, 1), "gaussian", prior=prior)
        fsr_solve(random_complex(cfg.lr_grid, rng), cfg)
        assert fft_shapes == {cfg.hr_grid.dims: hr_count, cfg.lr_grid.dims: lr_count}

    def test_noisy_gaussian_degrade(self, fft_shapes):
        hr = helix_phantom(Grid3(8, 8, 4), radius_voxels=3, vmax_per_frame=[90.0, 60.0], venc=150.0)
        cfg = DegradationConfig(d=(2, 2, 1), kernel="gaussian", noise_psnr_db=15.0)
        degrade_dataset(hr, cfg)
        channels = len(hr.frames) * 3
        # one HR transform per channel; the calibration and noisy passes each
        # take one LR inverse transform
        assert fft_shapes == {(8, 8, 4): channels, (4, 4, 4): 2 * channels}


class TestSuperresolveDataset:
    def _phantom(self, dims=(8, 8, 8), frames=2, magnitude_out=0.2):
        return poiseuille_phantom(
            Grid3(*dims),
            radius_voxels=0.3 * dims[0],
            vmax_per_frame=[90.0] * frames,
            venc=150.0,
            magnitude_out=magnitude_out,
        )

    def _noisy_helix(self, dims=(8, 8, 4), d=(2, 2, 1)):
        hr = helix_phantom(
            Grid3(*dims), radius_voxels=0.35 * dims[0], vmax_per_frame=[90.0, 60.0], venc=150.0,
            magnitude_out=0.2, frame_interval=0.04,
        )
        lr, _ = degrade_dataset(hr, DegradationConfig(d=d, noise_psnr_db=15.0, rng_seed=3))
        return hr, lr, _cfg(dims, d, kind="gaussian", tau=0.05)

    def test_matches_explicit_frame_channel_loop(self):
        hr, lr, cfg = self._noisy_helix()
        reports = []
        sr = superresolve_dataset(lr, cfg, hr.grid, reports=reports)
        assert sr.params == lr.params
        venc = lr.params.venc
        expected = []
        for f_idx, (f_lr, f_sr) in enumerate(zip(lr.frames, sr.frames)):
            for ch in ("u", "v", "w"):
                phase = np.pi * f_lr.channel(ch).data / venc
                y = ComplexVolume(lr.grid, f_lr.magnitude.data * np.exp(1j * phase))
                x_hat, rep = fsr_solve(y, cfg)
                mag, vel = extract_velocity(x_hat, venc)
                assert np.array_equal(f_sr.channel(ch).data, vel.data)
                if ch == "u":
                    assert np.array_equal(f_sr.magnitude.data, mag.data)
                expected.append((f_idx, ch, rep.residual_norm, rep.objective))
        assert [(f, ch, r.residual_norm, r.objective) for f, ch, r in reports] == expected

    def test_threads_sharing_one_config_match_serial(self):
        # more threads than cores and a short switch interval, so solves on
        # the shared config, kernel and dataset interleave as much as they can
        hr, lr, cfg = self._noisy_helix(dims=(32, 32, 16))
        serial = superresolve_dataset(lr, cfg, hr.grid)
        results, errors = [None] * 4, []

        def work(i):
            try:
                results[i] = superresolve_dataset(lr, cfg, hr.grid)
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for out in results:
            for f_out, f_serial in zip(out.frames, serial.frames):
                for ch in ("magnitude", "u", "v", "w"):
                    assert np.array_equal(f_out.channel(ch).data, f_serial.channel(ch).data)

    def test_round_trip_with_trivial_config(self):
        # positive background magnitude keeps every voxel's phase meaningful
        hr = self._phantom()
        lr, _ = degrade_dataset(hr, DegradationConfig(d=(1, 1, 1)))
        cfg = _cfg((8, 8, 8), (1, 1, 1), tau=0.01)
        sr = superresolve_dataset(lr, cfg, hr.grid)
        for f_sr, f_hr in zip(sr.frames, hr.frames):
            for ch in ("u", "v", "w"):
                assert rel_err(f_sr.channel(ch).data, f_hr.channel(ch).data) < 1e-10

    def test_output_grid_and_reports(self):
        hr = self._phantom()
        lr, _ = degrade_dataset(hr, DegradationConfig(d=(2, 2, 2)))
        cfg = _cfg((8, 8, 8), (2, 2, 2), tau=0.05)
        reports = []
        sr = superresolve_dataset(lr, cfg, hr.grid, reports=reports)
        assert all(f.grid.dims == (8, 8, 8) for f in sr.frames)
        assert len(sr.frames) == len(hr.frames)
        assert len(reports) == len(hr.frames) * 3
        assert {ch for _, ch, _ in reports} == {"u", "v", "w"}

    def test_hr_grid_must_match_rates(self):
        hr = self._phantom()
        lr, _ = degrade_dataset(hr, DegradationConfig(d=(2, 2, 2)))
        cfg = _cfg((8, 8, 8), (2, 2, 2))
        with pytest.raises(GridMismatchError):
            superresolve_dataset(lr, cfg, Grid3(16, 16, 16))

    def test_boundary_velocity_survives(self):
        # measured LR data can hold v == venc exactly (phase pi); the solve
        # must not reject it
        from flowsr import AcquisitionParams, ScalarVolume, VelocityDataset, VelocityFrame

        g = Grid3(4, 4, 4)
        venc = 100.0
        vel = np.zeros(g.dims)
        vel[0, 0, 0] = venc
        frame = VelocityFrame(
            magnitude=ScalarVolume(g, np.ones(g.dims)),
            u=ScalarVolume(g, vel),
            v=ScalarVolume(g, np.zeros(g.dims)),
            w=ScalarVolume(g, np.zeros(g.dims)),
        )
        ds = VelocityDataset(AcquisitionParams(venc=venc, frame_count=1), (frame,))
        cfg = _cfg((8, 8, 8), (2, 2, 2), tau=0.05)
        sr = superresolve_dataset(ds, cfg, Grid3(8, 8, 8))
        assert np.isfinite(sr.frames[0].u.data).all()
