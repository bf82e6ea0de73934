import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import flowsr.solver
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
    make_mask,
    poiseuille_phantom,
    superresolve_dataset,
)

from flowsr.solver import _lr_correction
from flowsr.spectral import alias_sum, fftn_unitary, ifftn_unitary, retained_axis_indices

from conftest import BOX_CASES, random_complex, rel_err, reverse_frames, run_threads, swap_axes


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

    def test_conjugate_kernel_is_derived(self):
        # the conjugate lives on the kernel, built once and shared by every
        # config made from it; a config takes none
        cfg = _cfg((8, 6, 4), (2, 3, 1), "gaussian")
        conj = cfg.kernel.conj_values
        assert np.array_equal(conj, np.conj(cfg.kernel.values))
        assert cfg.kernel.conj_values is conj
        assert dataclasses.replace(cfg, tau=0.3).kernel.conj_values is conj
        with pytest.raises(ValueError):
            conj[0, 0, 0] = 0
        complex_kernel = KernelSpectrum(cfg.hr_grid, (1 - 2j) * cfg.kernel.values)
        swapped = dataclasses.replace(cfg, kernel=complex_kernel)
        assert np.array_equal(swapped.kernel.conj_values, np.conj(complex_kernel.values))
        with pytest.raises(TypeError):
            SolverConfig(tau=0.1, kernel=cfg.kernel, d=cfg.d, kernel_conj=conj)

    def test_alias_blocks_are_not_an_argument(self, rng):
        # the alias energy follows from the kernel and rates alone; a solve
        # cannot be handed that of another kernel or other rates
        cfg = _cfg((8, 8, 8), (2, 2, 2))
        y = random_complex(cfg.lr_grid, rng)
        with pytest.raises(TypeError):
            fsr_solve(y, cfg, gram=cfg.gram)
        with pytest.raises(TypeError):
            SolverConfig(tau=0.1, kernel=cfg.kernel, d=cfg.d, gram=cfg.gram)


def _general_path(cfg, rng):
    # whether a solve under cfg goes through the kernel's values: that path
    # builds the kernel's cached conjugate, the retained box's does not
    fsr_solve(random_complex(cfg.lr_grid, rng), cfg)
    return "conj_values" in vars(cfg.kernel)


def _hand_built_ideal(dims, d):
    # 1 where the signed bin index lies in [-floor(L/2), ceil(L/2) - 1] on
    # every axis, built from the signed frequencies rather than the box index
    masks = []
    for dim, rate in zip(dims, d):
        lr = dim // rate
        k = np.fft.fftfreq(dim, d=1.0 / dim)
        masks.append(((k >= -(lr // 2)) & (k < (lr + 1) // 2)).astype(float))
    return masks[0][:, None, None] * masks[1][None, :, None] * masks[2][None, None, :]


class TestIdealLowpassDetection:
    @pytest.mark.parametrize("dims,d", BOX_CASES)
    def test_ideal_kernel_takes_the_box_path(self, dims, d, rng):
        cfg = _cfg(dims, d, "ideal")
        assert not _general_path(cfg, rng)
        assert "values" not in vars(cfg.kernel)
        assert np.array_equal(cfg.gram, alias_sum(np.abs(cfg.kernel.values) ** 2, d))
        with pytest.raises(ValueError):
            cfg.gram[0, 0, 0] = 0
        # the kernel's rates decide, not its values: a hand-built 0/1 kernel,
        # even one equal to the built one, takes the exact general path
        by_hand = SolverConfig(tau=0.05, kernel=KernelSpectrum(cfg.hr_grid, _hand_built_ideal(dims, d)), d=d)
        assert np.array_equal(by_hand.kernel.values, cfg.kernel.values)
        assert _general_path(by_hand, rng)

    @pytest.mark.parametrize("dims,d", BOX_CASES)
    def test_other_kernels_take_the_general_path(self, dims, d, rng):
        assert _general_path(_cfg(dims, d, "gaussian"), rng)
        ideal = _cfg(dims, d, "ideal")
        values = ideal.kernel.values.copy()
        values[0, 0, 0] = 0.5  # DC is always in the box
        assert _general_path(dataclasses.replace(ideal, kernel=KernelSpectrum(ideal.hr_grid, values)), rng)
        outside = np.argwhere(ideal.kernel.values == 0)
        if len(outside):
            values = ideal.kernel.values.copy()
            values[tuple(outside[len(outside) // 2])] = 1.0
            extra = dataclasses.replace(ideal, kernel=KernelSpectrum(ideal.hr_grid, values))
            assert _general_path(extra, rng)

    def test_complex_unit_phase_is_not_ideal(self, rng):
        ideal = _cfg((8, 6, 4), (2, 2, 2), "ideal")
        values = ideal.kernel.values.copy()
        values[0, 0, 0] = 1j
        assert _general_path(dataclasses.replace(ideal, kernel=KernelSpectrum(ideal.hr_grid, values)), rng)

    @pytest.mark.parametrize("dims,d", BOX_CASES)
    def test_ideal_kernel_for_other_rates_takes_the_general_path(self, dims, d, rng):
        cfg = dataclasses.replace(_cfg(dims, d, "ideal"), d=(1, 1, 1))
        assert _general_path(cfg, rng) is (d != (1, 1, 1))

    def test_box_path_never_builds_the_kernel_values(self, monkeypatch, rng):
        # the ideal kernel caches its HR values in its instance dict on first
        # read: configs, dataset solves with either prior, a noisy degrade,
        # S H, its adjoint and the fold at the kernel's rates never read them
        made = []
        build = DegradationConfig.kernel_spectrum

        def recording(self, hr):
            made.append(build(self, hr))
            return made[-1]

        monkeypatch.setattr(DegradationConfig, "kernel_spectrum", recording)
        hr = helix_phantom(Grid3(8, 8, 4), radius_voxels=3, vmax_per_frame=[90.0], venc=150.0, magnitude_out=0.2)
        lr, _ = degrade_dataset(hr, DegradationConfig(d=(2, 2, 1), noise_psnr_db=15.0))
        cfg = SolverConfig(tau=0.05, kernel=ideal_lowpass_spectrum(hr.grid, (2, 2, 1)), d=(2, 2, 1))
        for prior in ("trilinear", "zero-fill"):
            superresolve_dataset(lr, dataclasses.replace(cfg, prior=prior), hr.grid)
        kernel = ideal_lowpass_spectrum(hr.grid, cfg.d)
        apply_SH_adjoint(apply_SH(random_complex(hr.grid, rng), kernel, cfg.d), kernel, cfg.d)
        fold_spectrum(kernel, cfg.d)
        kernels = made + [cfg.kernel, kernel]
        assert len(kernels) == 3
        assert all("values" not in vars(k) for k in kernels)
        assert np.array_equal(cfg.kernel.values, _hand_built_ideal(hr.grid.dims, cfg.d))
        assert "values" in vars(cfg.kernel)

    def test_box_decision_is_not_an_argument(self):
        cfg = _cfg((8, 8, 8), (2, 2, 2))
        with pytest.raises(TypeError):
            SolverConfig(tau=0.1, kernel=cfg.kernel, d=cfg.d, ideal_lowpass=False)


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

    def test_threads_on_a_cold_conjugate_match_serial(self, rng):
        # the threads race to build the fresh kernel's conjugate; each solve
        # must still give the serial bits
        dims, d = (32, 32, 16), (2, 2, 1)
        ys = [random_complex(Grid3(16, 16, 16), rng) for _ in range(4)]
        serial = [fsr_solve(y, _cfg(dims, d, "gaussian"))[0].data for y in ys]
        cfg = _cfg(dims, d, "gaussian")
        assert "conj_values" not in vars(cfg.kernel)
        results = [None] * len(ys)

        def work(i):
            results[i] = fsr_solve(ys[i], cfg)[0].data

        assert run_threads(work, len(results)) == []
        for out, expected in zip(results, serial):
            assert np.array_equal(out, expected)

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


def _general_formula(cfg, y_spec, prior_spec):
    # the per-bin Woodbury solve and its Parseval report, on whole HR spectra
    lam = cfg.kernel.values
    D = np.prod(cfg.d)
    k_spec = np.conj(lam) * np.tile(y_spec, cfg.d) / np.sqrt(D) + 2.0 * cfg.tau * prior_spec
    weights = alias_sum(lam * k_spec, cfg.d) / (2.0 * cfg.tau * D + cfg.gram)
    x_spec = (k_spec - np.conj(lam) * np.tile(weights, cfg.d)) / (2.0 * cfg.tau)
    residual = alias_sum(lam * x_spec, cfg.d) / np.sqrt(D) - y_spec
    return x_spec, np.linalg.norm(residual), np.linalg.norm(x_spec - prior_spec)


@pytest.mark.parametrize("dims,d", INVARIANT_CASES)
class TestBoxSolve:
    """The ideal kernel's box path against the general per-bin formula."""

    @pytest.mark.parametrize("prior_mode", ["trilinear", "zero-fill", "explicit"])
    def test_matches_the_general_formula(self, dims, d, prior_mode, rng):
        cfg = _cfg(dims, d, "ideal", tau=0.05, prior="trilinear" if prior_mode == "explicit" else prior_mode)
        assert cfg.kernel.lowpass_rates == d
        y = random_complex(cfg.lr_grid, rng)
        if prior_mode == "explicit":
            prior = random_complex(cfg.hr_grid, rng)
            x, report = fsr_solve(y, cfg, prior=prior)
        else:
            prior = build_prior(y, d, prior_mode)
            x, report = fsr_solve(y, cfg)
        x_spec, residual, distance = _general_formula(cfg, fftn_unitary(y.data), fftn_unitary(prior.data))
        assert rel_err(x.data, ifftn_unitary(x_spec)) < 1e-12
        # the zero-fill prior fits the data exactly, so there both norms are
        # round-off and only the absolute term applies
        floor = 1e-14 * np.linalg.norm(y.data)
        assert report.residual_norm == pytest.approx(residual, rel=1e-12, abs=floor)
        assert report.prior_distance == pytest.approx(distance, rel=1e-12, abs=floor)
        expected_objective = 0.5 * report.residual_norm**2 + cfg.tau * report.prior_distance**2
        assert report.objective == expected_objective

    def test_explicit_prior_is_left_alone(self, dims, d, rng):
        cfg = _cfg(dims, d, "ideal")
        prior = random_complex(cfg.hr_grid, rng)
        before = prior.data.copy()
        x, _ = fsr_solve(random_complex(cfg.lr_grid, rng), cfg, prior=prior)
        assert np.array_equal(prior.data, before)
        assert not np.shares_memory(x.data, prior.data)


@pytest.mark.parametrize("signal", ["random", "negative-zero"])
@pytest.mark.parametrize("dims, d", [((16, 16, 16), (2, 2, 2)), ((14, 15, 6), (2, 3, 2)),
                                     ((12, 8, 4), (3, 2, 1)), ((5, 7, 3), (1, 1, 1))])
def test_ideal_zero_fill_solve_keeps_the_bits_of_the_zero_filled_inverse(dims, d, signal, rng):
    # the box holds sqrt(D) Y, and then the correction u, zero here, added to
    # it (so a -0.0 bin leaves as +0.0), zero-filled into an HR spectrum for
    # ifftn; the report is the general formula's with that u, whatever tau
    cfg = _cfg(dims, d, "ideal", prior="zero-fill")
    lr = cfg.lr_grid.dims
    data = random_complex(cfg.lr_grid, rng).data if signal == "random" else np.full(lr, complex(-0.0, -0.0))
    y_spec = fftn_unitary(data)
    box = np.sqrt(np.prod(d)) * y_spec
    u = _lr_correction(y_spec, box, cfg)
    residual = float(np.linalg.norm((box + cfg.gram * u) / np.sqrt(np.prod(d)) - y_spec))
    distance = float(np.sqrt(np.sum(cfg.gram * np.abs(u) ** 2)))
    box += u
    spec = np.zeros(dims, dtype=complex)
    spec[np.ix_(*map(retained_axis_indices, dims, lr))] = box
    expected = ifftn_unitary(spec).view(np.uint64)
    for tau in (cfg.tau, 1e-3, 50.0):
        x, report = fsr_solve(ComplexVolume(cfg.lr_grid, data), dataclasses.replace(cfg, tau=tau))
        assert np.array_equal(x.data.view(np.uint64), expected)
        assert (report.residual_norm, report.prior_distance, report.objective) == (
            residual, distance, 0.5 * residual**2 + tau * distance**2)
        assert distance == 0.0


@pytest.mark.parametrize("dims,d", INVARIANT_CASES)
class TestGeneralSolve:
    """A general kernel's prior-plus-correction solve against the per-bin formula."""

    @pytest.mark.parametrize("kind", ["gaussian", "complex"])
    @pytest.mark.parametrize("prior_mode", ["trilinear", "zero-fill", "explicit"])
    def test_matches_the_general_formula(self, dims, d, kind, prior_mode, rng):
        cfg = _cfg(dims, d, "gaussian", tau=0.05, prior="trilinear" if prior_mode == "explicit" else prior_mode)
        if kind == "complex":
            values = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            cfg = dataclasses.replace(cfg, kernel=KernelSpectrum(cfg.hr_grid, values))
        assert cfg.kernel.lowpass_rates is None
        y = random_complex(cfg.lr_grid, rng)
        if prior_mode == "explicit":
            prior = random_complex(cfg.hr_grid, rng)
            x, report = fsr_solve(y, cfg, prior=prior)
        else:
            prior = build_prior(y, d, prior_mode)
            x, report = fsr_solve(y, cfg)
        x_spec, residual, distance = _general_formula(cfg, fftn_unitary(y.data), fftn_unitary(prior.data))
        assert rel_err(x.data, ifftn_unitary(x_spec)) < 1e-12
        assert report.residual_norm == pytest.approx(residual, rel=1e-12, abs=0)
        assert report.prior_distance == pytest.approx(distance, rel=1e-12, abs=0)


class TestFftBudget:
    """Transforms per solve and per degraded channel, counted by array shape and axis.

    ``flowsr.spectral`` calls ``scipy.fft``'s transforms through the module,
    so patching the module attributes sees every transform: ``fftn``/``ifftn``
    by the shape transformed, and ``fft``/``ifft``, which the ideal kernel's
    pruned transforms run one axis at a time, by the lines they transform.
    """

    @pytest.fixture
    def fft_counts(self, monkeypatch):
        # (fftn/ifftn calls by shape, fft/ifft lines by (axis, length)); the
        # single-axis calls on 2D arrays, interp's cached per-axis spectra, are left out
        shapes, lines = collections.Counter(), collections.Counter()
        for name in ("fftn", "ifftn"):
            def counting(a, *args, _original=getattr(scipy.fft, name), **kwargs):
                shapes[np.shape(a)] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counting)
        for name in ("fft", "ifft"):
            def counting_axis(a, *args, _original=getattr(scipy.fft, name), axis=-1, **kwargs):
                if np.ndim(a) == 3:
                    length = np.shape(a)[axis]
                    lines[(axis % 3, length)] += np.size(a) // length
                return _original(a, *args, axis=axis, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counting_axis)
        return shapes, lines

    @pytest.mark.parametrize(
        "kind, prior, hr_count, lr_count, hr_lines",
        [
            pytest.param("gaussian", "trilinear", 1, 1, {}, id="trilinear-1-1-0"),
            pytest.param("gaussian", "zero-fill", 1, 1, {}, id="zero-fill-1-1-0"),
            pytest.param("ideal", "trilinear", 1, 1, {}, id="ideal-trilinear-1-1-0"),
            # three HR axis passes: x on the box's (y, z) columns, y on its z
            # columns, z on every line, 8 + 32 + 48 lines where ifftn takes 24 + 32 + 48
            pytest.param("ideal", "zero-fill", 0, 1, {(0, 8): 2 * 4, (1, 6): 8 * 4, (2, 4): 8 * 6},
                         id="ideal-zero-fill-0-1-3"),
        ],
    )
    def test_solve(self, fft_counts, kind, prior, hr_count, lr_count, hr_lines, rng):
        shapes, lines = fft_counts
        cfg = _cfg((8, 6, 4), (2, 3, 1), kind, prior=prior)
        fsr_solve(random_complex(cfg.lr_grid, rng), cfg)
        assert shapes == collections.Counter({cfg.hr_grid.dims: hr_count, cfg.lr_grid.dims: lr_count})
        assert lines == hr_lines

    def test_noisy_gaussian_degrade(self, fft_counts):
        shapes, lines = fft_counts
        hr = helix_phantom(Grid3(8, 8, 4), radius_voxels=3, vmax_per_frame=[90.0, 60.0], venc=150.0)
        cfg = DegradationConfig(d=(2, 2, 1), kernel="gaussian", noise_psnr_db=15.0)
        degrade_dataset(hr, cfg)
        channels = len(hr.frames) * 3
        # one HR transform per channel; the calibration and noisy passes each
        # take one LR inverse transform
        assert shapes == {(8, 8, 4): channels, (4, 4, 4): 2 * channels}
        assert not lines

    def test_noisy_ideal_degrade(self, fft_counts):
        shapes, lines = fft_counts
        hr = helix_phantom(Grid3(8, 8, 4), radius_voxels=3, vmax_per_frame=[90.0, 60.0], venc=150.0)
        degrade_dataset(hr, DegradationConfig(d=(2, 2, 1), noise_psnr_db=15.0))
        channels = len(hr.frames) * 3
        # no HR fftn: per channel, three axis passes, each cropped before the
        # next (x on every line, y on the 4 x rows kept, z on the 4 x 4 kept)
        assert shapes == {(4, 4, 4): 2 * channels}
        assert lines == {(0, 8): 8 * 4 * channels, (1, 8): 4 * 4 * channels, (2, 4): 4 * 4 * channels}


def _solve_peak_hr_arrays(cfg, y):
    # tracemalloc peak of one solve, in HR complex128 arrays
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fsr_solve(y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (16 * cfg.hr_grid.voxel_count)


class TestMemoryBudget:
    """HR arrays a solve holds at once, by tracemalloc on small grids.

    A general solve holds the prior's spectrum, which becomes the output in
    place, and one scratch array at its peak: 2.8 HR arrays with the LR ones
    on these grids (3.65 when it also built the right-hand side's spectrum,
    5.3-5.4 with one fresh HR temporary per pointwise step).  A box solve
    (the ideal kernel) with the trilinear prior holds the prior's spectrum
    plus LR arrays, 1.67, as that spectrum comes from per-axis products with
    no HR prior image (2.2 when that image was built and transformed, 2.5
    when its inverse FFT allocated a fresh output).  With the zero-fill
    prior the solve's spectrum stays on the box, LR-sized, and the one HR
    array is the image its pruned inverse transforms in place: 1.31 at 16³
    and 1.19 at 64³, against 1.68 and 1.53 when it zero-filled an HR
    spectrum for ``ifftn``.
    """

    @pytest.mark.parametrize(
        "dims, d, kind, prior, bound",
        [
            ((16, 18, 8), (2, 3, 1), "gaussian", "trilinear", 3.0),
            ((16, 16, 16), (2, 2, 2), "ideal", "zero-fill", 2.0),
            ((64, 64, 64), (2, 2, 2), "ideal", "zero-fill", 1.3),
            ((16, 16, 16), (2, 2, 2), "ideal", "trilinear", 2.0),
        ],
        ids=["gaussian-trilinear", "ideal-zero-fill", "ideal-zero-fill-64", "ideal-trilinear"],
    )
    def test_solve_peak(self, dims, d, kind, prior, bound, rng):
        cfg = _cfg(dims, d, kind, prior=prior)
        y = random_complex(cfg.lr_grid, rng)
        fsr_solve(y, cfg)  # first call pays one-time allocations (FFT plans)
        assert _solve_peak_hr_arrays(cfg, y) <= bound

    @pytest.mark.parametrize("kind", ["ideal", "gaussian"])
    def test_lr_correction_is_lr_sized_and_matches_the_formula(self, kind, rng):
        cfg = _cfg((12, 9, 4), (3, 3, 1), kind, tau=0.3)
        # read-only inputs: the helper must not write them
        y_spec = random_complex(cfg.lr_grid, rng).data
        alias = random_complex(cfg.lr_grid, rng).data
        D = np.prod(cfg.d)
        expected = (np.sqrt(D) * y_spec - alias) / (2.0 * cfg.tau * D + cfg.gram)
        u = _lr_correction(y_spec, alias, cfg)
        assert u.shape == cfg.lr_grid.dims
        assert np.array_equal(u, expected)


class TestFreshOutputs:
    """Arrays flowsr makes are adopted by their volumes, read-only, not copied."""

    @pytest.mark.parametrize(
        "kind, prior",
        [
            pytest.param("gaussian", "trilinear", id="trilinear"),
            pytest.param("gaussian", "zero-fill", id="zero-fill"),
            pytest.param("ideal", "trilinear", id="ideal-trilinear"),
            pytest.param("ideal", "zero-fill", id="ideal-zero-fill"),
        ],
    )
    def test_solve_output_is_read_only(self, kind, prior, rng):
        cfg = _cfg((8, 6, 4), (2, 3, 1), kind, prior=prior)
        x, _ = fsr_solve(random_complex(cfg.lr_grid, rng), cfg)
        with pytest.raises(ValueError):
            x.data[0, 0, 0] = 0
        # the box path's in-place inverse FFT returns a view of its spectrum
        assert x.data.base is None or not x.data.base.flags.writeable
        prior_vol = build_prior(random_complex(cfg.lr_grid, rng), cfg.d, prior)
        assert not prior_vol.data.flags.writeable

    def test_solve_output_is_checked_for_finiteness(self, rng):
        # finite data whose spectrum overflows: the output is checked once
        cfg = _cfg((8, 8, 8), (2, 2, 2), "ideal")
        y = ComplexVolume(cfg.lr_grid, np.full(cfg.lr_grid.dims, 1e308 + 0j))
        with pytest.raises(ParameterError, match="finite"), np.errstate(all="ignore"):
            fsr_solve(y, cfg)

    def test_extracted_velocity_is_read_only(self, rng):
        g = Grid3(4, 3, 2)
        mag, vel = extract_velocity(random_complex(g, rng), 100.0)
        for vol in (mag, vel):
            with pytest.raises(ValueError):
                vol.data[0, 0, 0] = 0

    def test_extracted_magnitude_overflow_raises(self):
        # |z| overflows float64 although both parts of z are finite
        g = Grid3(1, 1, 1)
        with pytest.raises(ParameterError, match="finite"), np.errstate(over="ignore"):
            extract_velocity(ComplexVolume(g, [1.5e308 + 1.5e308j]), 100.0)


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
            magnitude_out=0.2,
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

    def test_v_and_w_extract_no_magnitude(self, monkeypatch):
        # a frame keeps the u channel's magnitude; the extraction after a v or
        # w solve allocates the HR velocity alone, the one after u both
        hr = helix_phantom(Grid3(32, 32, 32), radius_voxels=10, vmax_per_frame=[90.0], venc=150.0,
                           magnitude_out=0.2)
        lr, _ = degrade_dataset(hr, DegradationConfig(d=(2, 2, 2)))
        peaks = []

        def measured(*args, **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = extract_velocity(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - live)
            return out

        monkeypatch.setattr(flowsr.solver, "extract_velocity", measured)
        tracemalloc.start()
        try:
            superresolve_dataset(lr, _cfg((32, 32, 32), (2, 2, 2)), hr.grid)
        finally:
            tracemalloc.stop()
        hr_float64 = 8 * 32**3
        u, v, w = peaks
        assert u >= 2 * hr_float64
        assert max(v, w) <= 1.25 * hr_float64

    def test_threads_sharing_one_config_match_serial(self):
        # more threads than cores and a short switch interval, so solves on
        # the shared config, kernel and dataset interleave as much as they can
        hr, lr, cfg = self._noisy_helix(dims=(32, 32, 16))
        serial = superresolve_dataset(lr, cfg, hr.grid)
        results = [None] * 4

        def work(i):
            results[i] = superresolve_dataset(lr, cfg, hr.grid)

        assert run_threads(work, len(results)) == []
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

    @pytest.mark.parametrize("prior", ["trilinear", "zero-fill"])
    @pytest.mark.parametrize("kind", ["ideal", "gaussian"])
    def test_noiseless_frame_reversal(self, kind, prior):
        # each frame is solved from its own LR data alone
        hr = helix_phantom(
            Grid3(12, 8, 6), radius_voxels=3, vmax_per_frame=[90.0, 30.0, 60.0], venc=150.0,
            magnitude_out=0.2,
        )
        d = (2, 2, 1)
        lr, _ = degrade_dataset(hr, DegradationConfig(d=d, kernel=kind))
        cfg = _cfg(hr.grid.dims, d, kind, prior=prior)
        sr = superresolve_dataset(lr, cfg, hr.grid)
        back = reverse_frames(superresolve_dataset(reverse_frames(lr), cfg, hr.grid))
        for f, f_back in zip(sr.frames, back.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert np.array_equal(f_back.channel(ch).data, f.channel(ch).data)


@pytest.mark.parametrize("perm", [(1, 0, 2), (2, 1, 0)], ids=["xy", "xz"])
class TestAxisSwap:
    """Swapping x with y or z, with the rates, swaps the super-resolved dataset.

    Metamorphic: a noiseless helix along x at 16x12x8 with d=(4,2,1) is
    degraded, and its LR dataset solved as it is and transposed, so both
    solves share one LR magnitude.  Velocities inside the flow mask.
    """

    @pytest.mark.parametrize("prior", ["trilinear", "zero-fill"])
    @pytest.mark.parametrize("kind", ["ideal", "gaussian"])
    def test_superresolve_swaps(self, kind, prior, perm):
        dims, d = (16, 12, 8), (4, 2, 1)
        hr = helix_phantom(
            Grid3(*dims), radius_voxels=3, vmax_per_frame=[90.0, 60.0], venc=150.0, axis="x",
            magnitude_out=0.2,
        )
        lr, _ = degrade_dataset(hr, DegradationConfig(d=d, kernel=kind))
        sr = superresolve_dataset(lr, _cfg(dims, d, kind, prior=prior), hr.grid)
        cfg = _cfg(tuple(dims[p] for p in perm), tuple(d[p] for p in perm), kind, prior=prior)
        back = swap_axes(superresolve_dataset(swap_axes(lr, perm), cfg, cfg.hr_grid), perm)
        for f_hr, f_sr, f_back in zip(hr.frames, sr.frames, back.frames):
            sel = make_mask(f_hr.magnitude)
            got = np.concatenate([f_back.channel(ch).data[sel] for ch in ("u", "v", "w")])
            want = np.concatenate([f_sr.channel(ch).data[sel] for ch in ("u", "v", "w")])
            assert rel_err(got, want) < 1e-12
