import io
import threading

import numpy as np
import pytest

from flowsr import (
    CalibrationError,
    ComplexVolume,
    DegradationConfig,
    Grid3,
    GridMismatchError,
    ParameterError,
    ScalarVolume,
    apply_SH,
    apply_SH_adjoint,
    calibrate_noise,
    crop_kspace,
    degrade_dataset,
    extract_velocity,
    forward_fft,
    gaussian_spectrum,
    helix_phantom,
    ideal_lowpass_spectrum,
    inverse_fft,
    make_mask,
    poiseuille_phantom,
    synthesize_complex,
)
from flowsr.degrade import Acquisition, seeded_rng
from flowsr.phantom import tube_frames
from flowsr.spectral import alias_sum, fftn_unitary, filtered_alias_sum, ifftn_unitary

from conftest import random_complex, rel_err, reverse_frames, swap_axes

# (hr dims, rates) pairs covering odd dims and mixed rates
SH_CONFIGS = [
    ((8, 8, 8), (2, 2, 2)),
    ((8, 4, 4), (2, 2, 2)),
    ((9, 3, 3), (3, 1, 1)),
    ((6, 10, 4), (2, 2, 2)),
    ((15, 4, 6), (5, 2, 3)),
    ((4, 4, 4), (1, 1, 1)),
    ((8, 6, 4), (2, 3, 2)),
    ((12, 9, 5), (4, 3, 5)),
]


def _kernels(hr, d):
    grid = Grid3(*hr)
    yield ideal_lowpass_spectrum(grid, d)
    yield gaussian_spectrum(grid, tuple(dim / rate for dim, rate in zip(hr, d)))


class TestApplySH:
    def test_identity_when_trivial(self, rng):
        g = Grid3(4, 4, 4)
        x = random_complex(g, rng)
        kernel = ideal_lowpass_spectrum(g, (1, 1, 1))
        assert rel_err(apply_SH(x, kernel, (1, 1, 1)).data, x.data) < 1e-13
        assert rel_err(apply_SH_adjoint(x, kernel, (1, 1, 1)).data, x.data) < 1e-13

    def test_linearity(self, rng):
        g = Grid3(8, 4, 4)
        d = (2, 2, 2)
        kernel = ideal_lowpass_spectrum(g, d)
        x, y = random_complex(g, rng), random_complex(g, rng)
        a, b = 0.3 - 1.1j, 2.0 + 0.5j
        combo = apply_SH(ComplexVolume(g, a * x.data + b * y.data), kernel, d)
        split = a * apply_SH(x, kernel, d).data + b * apply_SH(y, kernel, d).data
        assert rel_err(combo.data, split) < 1e-12

    @pytest.mark.parametrize(
        "hr,d", [((6, 10, 4), (3, 5, 2)), ((5, 7, 3), (1, 1, 1)), ((8, 6, 4), (2, 3, 1))]
    )
    def test_matches_filter_then_subsample(self, hr, d, rng):
        # the operator by its definition: filter in image space, keep voxel 0
        # of every d-block
        grid = Grid3(*hr)
        x = random_complex(grid, rng)
        for kernel in _kernels(hr, d):
            filtered = np.fft.ifftn(kernel.values * np.fft.fftn(x.data, norm="ortho"), norm="ortho")
            literal = filtered[:: d[0], :: d[1], :: d[2]]
            assert rel_err(apply_SH(x, kernel, d).data, literal) < 1e-12

    @pytest.mark.parametrize("hr,d", SH_CONFIGS)
    def test_crop_pipeline_equals_sqrt_d_times_sh(self, hr, d, rng):
        grid = Grid3(*hr)
        lr = grid.decimated(d)
        kernel = ideal_lowpass_spectrum(grid, d)
        for _ in range(3):
            x = random_complex(grid, rng)
            via_crop = inverse_fft(crop_kspace(forward_fft(x), lr))
            via_sh = np.sqrt(np.prod(d)) * apply_SH(x, kernel, d).data
            assert rel_err(via_crop.data, via_sh) < 1e-10

    @pytest.mark.parametrize("hr,d", SH_CONFIGS)
    def test_adjoint_identity(self, hr, d, rng):
        grid = Grid3(*hr)
        lr = grid.decimated(d)
        for kernel in _kernels(hr, d):
            for _ in range(20):
                x = random_complex(grid, rng)
                y = random_complex(lr, rng)
                lhs = np.vdot(y.data, apply_SH(x, kernel, d).data)
                rhs = np.vdot(apply_SH_adjoint(y, kernel, d).data, x.data)
                assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_adjoint_of_zero_is_zero(self):
        lr = Grid3(2, 2, 2)
        kernel = ideal_lowpass_spectrum(Grid3(4, 4, 4), (2, 2, 2))
        out = apply_SH_adjoint(ComplexVolume(lr, np.zeros(lr.dims, complex)), kernel, (2, 2, 2))
        assert np.all(out.data == 0)

    def test_divisibility_enforced(self, rng):
        g = Grid3(6, 6, 6)
        kernel = ideal_lowpass_spectrum(g, (2, 2, 2))
        with pytest.raises(GridMismatchError):
            apply_SH(random_complex(g, rng), kernel, (4, 2, 2))

    def test_kernel_grid_must_match(self, rng):
        x = random_complex(Grid3(8, 8, 8), rng)
        kernel = ideal_lowpass_spectrum(Grid3(4, 4, 4), (2, 2, 2))
        with pytest.raises(GridMismatchError):
            apply_SH(x, kernel, (2, 2, 2))
        with pytest.raises(GridMismatchError):
            apply_SH_adjoint(x, kernel, (2, 2, 2))


class TestCalibration:
    def test_reference_sigma_value(self):
        g = Grid3(4, 4, 4)
        cal = calibrate_noise(ScalarVolume(g, np.ones(g.dims)), 15.0)
        assert abs(cal.sigma - 10 ** (-0.75) / np.sqrt(2)) < 1e-15
        assert abs(cal.sigma - 0.1257) < 1e-4

    def test_sigma_scales_with_peak(self, rng):
        g = Grid3(4, 4, 4)
        mag = ScalarVolume(g, rng.random(g.dims))
        one = calibrate_noise(mag, 15.0)
        two = calibrate_noise(ScalarVolume(g, 2.0 * mag.data), 15.0)
        assert abs(two.sigma - 2.0 * one.sigma) < 1e-15

    def test_high_target_drives_sigma_to_zero(self):
        g = Grid3(2, 2, 2)
        cal = calibrate_noise(ScalarVolume(g, np.ones(g.dims)), 300.0)
        assert cal.sigma < 1e-14

    @pytest.mark.parametrize("target", [3300.0, 7000.0])
    def test_target_whose_noise_underflows_rejected(self, target):
        # at 3300 dB sigma is > 0 but its square underflows; at 7000 dB sigma itself does
        g = Grid3(2, 2, 2)
        with pytest.raises(CalibrationError, match="too high"):
            calibrate_noise(ScalarVolume(g, np.ones(g.dims)), target)

    def test_all_zero_magnitude_rejected(self):
        g = Grid3(2, 2, 2)
        with pytest.raises(CalibrationError):
            calibrate_noise(ScalarVolume(g, np.zeros(g.dims)), 15.0)

    def test_nonfinite_target_rejected(self):
        g = Grid3(2, 2, 2)
        with pytest.raises(ParameterError):
            calibrate_noise(ScalarVolume(g, np.ones(g.dims)), np.inf)

    def test_negative_seed_rejected(self):
        # a ParameterError (still a ValueError), not numpy's bare one
        g = Grid3(2, 2, 2)
        with pytest.raises(ParameterError, match="seed"):
            calibrate_noise(ScalarVolume(g, np.ones(g.dims)), 15.0, seed=-1)

    def test_achieved_close_to_target_on_large_volume(self):
        g = Grid3(32, 32, 32)
        cal = calibrate_noise(ScalarVolume(g, np.ones(g.dims)), 15.0, seed=3)
        assert abs(cal.achieved_psnr_db - 15.0) < 0.5

    def test_achieved_mean_over_seeds(self):
        g = Grid3(16, 16, 16)
        vals = [
            calibrate_noise(ScalarVolume(g, np.ones(g.dims)), 15.0, seed=s).achieved_psnr_db
            for s in range(10)
        ]
        assert abs(np.mean(vals) - 15.0) < 0.1


def _phantom(dims=(16, 16, 16), frames=2, vmax=100.0):
    return poiseuille_phantom(
        Grid3(*dims), radius_voxels=0.3 * dims[0], vmax_per_frame=[vmax] * frames, venc=150.0
    )


def _frame_signal(frame, channel, venc):
    return synthesize_complex(frame.magnitude, frame.channel(channel), venc)


class TestDegradeDataset:
    def test_noiseless_identity_at_rate_one(self):
        hr = _phantom()
        lr, cal = degrade_dataset(hr, DegradationConfig(d=(1, 1, 1)))
        assert cal.sigma == 0.0
        for f_hr, f_lr in zip(hr.frames, lr.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert rel_err(f_lr.channel(ch).data, f_hr.channel(ch).data) < 1e-10

    @pytest.mark.parametrize("kernel_kind", ["ideal", "gaussian"])
    def test_noiseless_equals_scaled_sh(self, kernel_kind):
        hr = _phantom()
        d = (2, 2, 2)
        cfg = DegradationConfig(d=d, kernel=kernel_kind)
        lr, _ = degrade_dataset(hr, cfg)
        kernel = cfg.kernel_spectrum(hr.grid)
        venc = hr.params.venc
        for f_hr, f_lr in zip(hr.frames, lr.frames):
            for ch in ("u", "v", "w"):
                expected = np.sqrt(8.0) * apply_SH(_frame_signal(f_hr, ch, venc), kernel, d).data
                got = f_lr.magnitude.data * np.exp(1j * np.pi * f_lr.channel(ch).data / venc)
                if ch != "u":
                    # non-u channels reuse the u magnitude; compare velocity via phase
                    got = np.abs(expected) * np.exp(1j * np.pi * f_lr.channel(ch).data / venc)
                assert rel_err(got, expected) < 1e-9

    @pytest.mark.parametrize(
        "kernel_kind, d",
        [
            pytest.param("ideal", (2, 2, 1), id="ideal"),
            pytest.param("gaussian", (2, 2, 1), id="gaussian"),
            pytest.param("ideal", (1, 1, 1), id="ideal-identity"),
        ],
    )
    def test_matches_explicit_frame_channel_loop(self, kernel_kind, d):
        # pins the (seed, frame, channel) noise stream of every channel and
        # the rule that the stored magnitude is the u channel's
        hr = helix_phantom(
            Grid3(8, 8, 4), radius_voxels=3, vmax_per_frame=[90.0, 60.0], venc=150.0,
            magnitude_out=0.2,
        )
        cfg = DegradationConfig(d=d, kernel=kernel_kind, noise_psnr_db=15.0, rng_seed=7)
        lr, cal = degrade_dataset(hr, cfg)
        assert lr.params == hr.params
        lr_grid = hr.grid.decimated(d)
        venc = hr.params.venc
        for f_idx, (f_hr, f_lr) in enumerate(zip(hr.frames, lr.frames)):
            for c_idx, ch in enumerate(("u", "v", "w")):
                rng = np.random.default_rng([cfg.rng_seed, f_idx, c_idx])
                sig = _frame_signal(f_hr, ch, venc)
                if kernel_kind == "ideal":
                    spec = forward_fft(sig)  # noise over the full HR k-space
                else:
                    kernel = cfg.kernel_spectrum(hr.grid).values
                    spec = ComplexVolume(lr_grid, alias_sum(kernel * forward_fft(sig).data, d))
                shape = spec.grid.dims
                noise = cal.sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                noisy = crop_kspace(ComplexVolume(spec.grid, spec.data + noise), lr_grid)
                mag, vel = extract_velocity(inverse_fft(noisy), venc)
                assert np.array_equal(f_lr.channel(ch).data, vel.data)
                if ch == "u":
                    assert np.array_equal(f_lr.magnitude.data, mag.data)

    def test_gaussian_matches_the_image_domain_sequence(self):
        # filter and subsample in image space, rescale by sqrt(d), transform,
        # add LR k-space noise, transform back
        hr = helix_phantom(
            Grid3(8, 8, 4), radius_voxels=3, vmax_per_frame=[90.0, 60.0], venc=150.0,
            magnitude_out=0.2,
        )
        d = (2, 2, 1)
        cfg = DegradationConfig(d=d, kernel="gaussian", noise_psnr_db=15.0, rng_seed=7)
        lr, cal = degrade_dataset(hr, cfg)
        kernel = cfg.kernel_spectrum(hr.grid).values
        for f_idx, (f_hr, f_lr) in enumerate(zip(hr.frames, lr.frames)):
            for c_idx, ch in enumerate(("u", "v", "w")):
                rng = np.random.default_rng([cfg.rng_seed, f_idx, c_idx])
                sig = _frame_signal(f_hr, ch, hr.params.venc).data
                filtered = np.fft.ifftn(kernel * np.fft.fftn(sig, norm="ortho"), norm="ortho")
                clean = np.sqrt(np.prod(d)) * filtered[:: d[0], :: d[1], :: d[2]]
                shape = clean.shape
                noise = cal.sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                noisy = np.fft.ifftn(np.fft.fftn(clean, norm="ortho") + noise, norm="ortho")
                expected = ComplexVolume(lr.grid, noisy)
                mag, vel = extract_velocity(expected, hr.params.venc)
                assert rel_err(f_lr.channel(ch).data, vel.data) < 1e-12
                if ch == "u":
                    assert rel_err(f_lr.magnitude.data, mag.data) < 1e-12

    @pytest.mark.parametrize("kernel_kind", ["ideal", "gaussian"])
    def test_noisy_run_synthesizes_each_channel_once(self, kernel_kind, monkeypatch):
        # the calibration pass keeps each channel's noiseless LR result for
        # the noisy pass, so no channel is synthesized twice
        import flowsr.degrade

        calls = []
        original = flowsr.degrade.synthesize_complex

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(flowsr.degrade, "synthesize_complex", counting)
        hr = _phantom(dims=(8, 8, 8), frames=3)
        cfg = DegradationConfig(d=(2, 2, 2), kernel=kernel_kind, noise_psnr_db=15.0)
        degrade_dataset(hr, cfg)
        assert len(calls) == len(hr.frames) * 3

    def test_seeded_runs_are_bit_identical(self):
        hr = _phantom()
        cfg = DegradationConfig(d=(2, 2, 2), noise_psnr_db=15.0, rng_seed=99)
        lr1, cal1 = degrade_dataset(hr, cfg)
        lr2, cal2 = degrade_dataset(hr, cfg)
        assert cal1.sigma == cal2.sigma
        for f1, f2 in zip(lr1.frames, lr2.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert np.array_equal(f1.channel(ch).data, f2.channel(ch).data)

    def test_noise_streams_differ_per_frame_and_channel(self):
        hr = _phantom(frames=2)
        cfg = DegradationConfig(d=(2, 2, 2), noise_psnr_db=15.0, rng_seed=5)
        lr, _ = degrade_dataset(hr, cfg)
        f0, f1 = lr.frames
        assert not np.array_equal(f0.u.data, f0.v.data)
        assert not np.array_equal(f0.u.data, f1.u.data)

    def test_noise_statistics(self):
        # rate 1 keeps the full grid: the added complex noise is the output
        # signal minus the clean signal
        g = Grid3(32, 32, 32)
        hr = poiseuille_phantom(g, radius_voxels=10, vmax_per_frame=[100.0], venc=150.0)
        cfg = DegradationConfig(d=(1, 1, 1), noise_psnr_db=15.0, rng_seed=11)
        lr, cal = degrade_dataset(hr, cfg)
        venc = hr.params.venc
        clean = _frame_signal(hr.frames[0], "u", venc).data
        noisy = lr.frames[0].magnitude.data * np.exp(1j * np.pi * lr.frames[0].u.data / venc)
        noise = noisy - clean
        assert abs(noise.mean()) < 4 * cal.sigma / np.sqrt(g.voxel_count)
        for comp in (noise.real, noise.imag):
            assert abs(comp.var() - cal.sigma**2) / cal.sigma**2 < 0.05

    def test_achieved_psnr_recorded(self):
        hr = _phantom()
        lr, cal = degrade_dataset(hr, DegradationConfig(d=(2, 2, 2), noise_psnr_db=15.0))
        assert cal.target_psnr_db == 15.0
        assert np.isfinite(cal.achieved_psnr_db)

    def test_aliasing_in_ground_truth_propagates(self):
        g = Grid3(8, 8, 8)
        with pytest.raises(ParameterError):
            # phantom construction already rejects vmax >= venc
            poiseuille_phantom(g, radius_voxels=3, vmax_per_frame=[150.0], venc=150.0)

    def test_divisibility_error(self):
        hr = _phantom(dims=(6, 6, 6))
        with pytest.raises(GridMismatchError):
            degrade_dataset(hr, DegradationConfig(d=(4, 1, 1)))

    @pytest.mark.parametrize("kernel_kind", ["ideal", "gaussian"])
    def test_noiseless_frame_reversal(self, kernel_kind):
        # without noise, a frame's LR data depends on that frame alone
        hr = helix_phantom(
            Grid3(12, 8, 6), radius_voxels=3, vmax_per_frame=[90.0, 30.0, 60.0], venc=150.0,
            magnitude_out=0.2,
        )
        cfg = DegradationConfig(d=(2, 2, 1), kernel=kernel_kind)
        lr = degrade_dataset(hr, cfg)[0]
        back = reverse_frames(degrade_dataset(reverse_frames(hr), cfg)[0])
        for f, f_back in zip(lr.frames, back.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert np.array_equal(f_back.channel(ch).data, f.channel(ch).data)


class TestAxisSwap:
    """Swapping x with y or z, with the rates and the flow axis, swaps the LR dataset.

    Metamorphic: a noiseless tube along x at 16x12x8 with d=(4,2,1) against
    the same tube along y at 12x16x8 with d=(2,4,1), or along z at 8x12x16
    with d=(1,2,4).  Velocities only: the stored magnitude is the u
    channel's, which carries the flow in one dataset and not in the other.
    """

    @pytest.mark.parametrize("perm, axis", [((1, 0, 2), "y"), ((2, 1, 0), "z")], ids=["xy", "xz"])
    @pytest.mark.parametrize("kernel_kind", ["ideal", "gaussian"])
    def test_velocities_swap(self, kernel_kind, perm, axis):
        def degrade(dims, axis, d):
            hr = poiseuille_phantom(
                Grid3(*dims), radius_voxels=3, vmax_per_frame=[90.0, 60.0], venc=150.0,
                axis=axis, magnitude_out=0.2,
            )
            return degrade_dataset(hr, DegradationConfig(d=d, kernel=kernel_kind))[0]

        dims, d = (16, 12, 8), (4, 2, 1)
        along_x = degrade(dims, "x", d)
        swapped = degrade(tuple(dims[p] for p in perm), axis, tuple(d[p] for p in perm))
        for f_x, f_back in zip(along_x.frames, swap_axes(swapped, perm).frames):
            sel = make_mask(f_x.magnitude)
            got = np.concatenate([f_back.channel(ch).data[sel] for ch in ("u", "v", "w")])
            want = np.concatenate([f_x.channel(ch).data[sel] for ch in ("u", "v", "w")])
            assert rel_err(got, want) < 1e-12


class TestDegradationConfig:
    def test_rejects_bad_kernel(self):
        with pytest.raises(ParameterError):
            DegradationConfig(d=(2, 2, 2), kernel="box")

    def test_rejects_bad_rates(self):
        with pytest.raises(ParameterError):
            DegradationConfig(d=(0, 2, 2))

    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="rng_seed"):
            DegradationConfig(d=(2, 2, 2), noise_psnr_db=15.0, rng_seed=-2)

    def test_kernel_spectrum_default_fwhm(self):
        cfg = DegradationConfig(d=(2, 2, 2), kernel="gaussian")
        spec = cfg.kernel_spectrum(Grid3(8, 8, 8))
        assert abs(spec.values[2, 0, 0] - 0.5) < 1e-12  # half gain at L/2 bins


class TestSeededRng:
    def test_negative_seed_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -3"):
            seeded_rng(-3)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            seeded_rng(-1, 0, 2)

    def test_streams_are_numpys_seed_sequences(self):
        # the key flowsr has always drawn from: default_rng(seed) and default_rng([seed, frame, channel])
        assert np.array_equal(seeded_rng(9).standard_normal(4),
                              np.random.default_rng(9).standard_normal(4))
        assert np.array_equal(seeded_rng(9, 1, 2).standard_normal(4),
                              np.random.default_rng([9, 1, 2]).standard_normal(4))
        assert not np.array_equal(seeded_rng(9, 1, 2).standard_normal(4),
                                  seeded_rng(9, 2, 1).standard_normal(4))


HELIX_12x8x6 = dict(radius_voxels=2.5, vmax_per_frame=[90.0, 60.0, 30.0], venc=120.0)


def _assert_frames_equal(a, b):
    for ch in ("magnitude", "u", "v", "w"):
        assert np.array_equal(a.channel(ch).data, b.channel(ch).data), ch


def _survey(acq, frames, count):
    # acquire into memory: the calibration, pass 2's iterator, and the arrays pass 1 spilled per frame
    spill = io.BytesIO()
    cal, acquired = acq.acquire(frames, spill)
    return cal, acquired, np.frombuffer(spill.getvalue(), np.complex128).reshape(count, -1, *acq.lr_grid.dims)


class TestAcquisition:
    @pytest.mark.parametrize("kernel, noise", [("ideal", 15.0), ("gaussian", 10.0), ("ideal", None)])
    def test_acquired_frames_are_degrade_datasets(self, kernel, noise):
        # the two passes, fed one rebuilt phantom frame at a time, are degrade_dataset's
        g = Grid3(12, 8, 6)
        cfg = DegradationConfig(d=(2, 2, 3), kernel=kernel, noise_psnr_db=noise, rng_seed=4)
        lr, cal = degrade_dataset(helix_phantom(g, **HELIX_12x8x6), cfg)
        acq = Acquisition(g, 120.0, cfg)
        got, acquired, _ = _survey(acq, tube_frames("helix", g, **HELIX_12x8x6), 3)
        assert got == cal
        for mine, expected in zip(acquired, lr.frames, strict=True):
            _assert_frames_equal(mine, expected)

    @pytest.mark.parametrize("kernel", ["ideal", "gaussian"])
    def test_each_acquire_takes_its_own_calibration_and_count(self, kernel):
        # two calls on one Acquisition, their iterators read after both: each
        # second pass takes its own call's sigma and frame count
        g = Grid3(12, 8, 6)
        cfg = DegradationConfig(d=(2, 2, 3), kernel=kernel, noise_psnr_db=15.0, rng_seed=4)
        acq = Acquisition(g, 120.0, cfg)
        datasets = (helix_phantom(g, **HELIX_12x8x6), helix_phantom(g, 2.5, [60.0], 120.0, magnitude_in=3.0))
        calls = [_survey(acq, hr.frames, len(hr.frames))[:2] for hr in datasets]
        assert calls[0][0].sigma != calls[1][0].sigma
        for (cal, acquired), hr in zip(calls, datasets, strict=True):
            lr, expected_cal = degrade_dataset(hr, cfg)
            assert cal == expected_cal
            for mine, expected in zip(acquired, lr.frames, strict=True):
                _assert_frames_equal(mine, expected)

    @pytest.mark.parametrize("d", [(1, 1, 1), (2, 2, 2), (2, 2, 3), (4, 2, 3)])
    def test_spilled_units_are_the_box_of_full_k_space_draws(self, d):
        # the units drawn on the worker thread are the retained box of two
        # full-k-space draws per (frame, channel) stream, and acquire each frame
        # to the bits of degrade_dataset; the draws fill one HR x row at a time,
        # every row is kept at d = 1, and at d = 4 the LR x length (3) is odd,
        # so the negative-frequency block is one row
        g = Grid3(12, 8, 6)
        cfg = DegradationConfig(d=d, noise_psnr_db=12.0, rng_seed=8)
        lr, _ = degrade_dataset(helix_phantom(g, **HELIX_12x8x6), cfg)
        acq = Acquisition(g, 120.0, cfg)
        _, acquired, spilled = _survey(acq, tube_frames("helix", g, **HELIX_12x8x6), 3)
        for f_idx, c_idx in np.ndindex(3, 3):
            rng = np.random.default_rng([cfg.rng_seed, f_idx, c_idx])
            real, imag = (crop_kspace(ComplexVolume(g, rng.standard_normal(g.dims) + 0j),
                                      acq.lr_grid).data.real for _ in range(2))
            assert np.array_equal(spilled[f_idx, 3 + c_idx], real + 1j * imag)
        for mine, expected in zip(acquired, lr.frames, strict=True):
            _assert_frames_equal(mine, expected)

    @pytest.mark.parametrize("kernel, noise, d, per_frame", [
        ("ideal", 12.0, (2, 2, 3), 6), ("ideal", 12.0, (1, 1, 1), 6), ("gaussian", 10.0, (2, 2, 3), 3),
        ("ideal", None, (2, 2, 3), 3), ("gaussian", None, (2, 1, 3), 3)])
    def test_only_the_noisy_ideal_kernel_spills_units(self, kernel, noise, d, per_frame):
        # each frame spills the clean LR spectra of u, v and w (at d = 1, the
        # signals), then its units if it has any
        g = Grid3(12, 8, 6)
        acq = Acquisition(g, 120.0, DegradationConfig(d=d, kernel=kernel, noise_psnr_db=noise))
        hr = helix_phantom(g, **HELIX_12x8x6)
        _, _, spilled = _survey(acq, hr.frames, 3)
        assert spilled.shape[1] == per_frame
        for frame, mine in zip(hr.frames, spilled, strict=True):
            for ch, spectrum in zip(("u", "v", "w"), mine):
                signal = synthesize_complex(frame.magnitude, frame.channel(ch), 120.0).data
                expected = signal if d == (1, 1, 1) else filtered_alias_sum(acq.kernel, fftn_unitary(signal), d)
                assert np.array_equal(spectrum, expected), ch

    def test_draws_run_on_one_worker_thread_that_ends_with_the_survey(self, monkeypatch):
        import flowsr.degrade

        g = Grid3(12, 8, 6)
        started, draws = [], []
        original_start, original_rng = threading.Thread.start, flowsr.degrade.seeded_rng

        def start(thread):
            started.append(thread)
            original_start(thread)

        def recording(seed, *stream):
            if stream:  # a (frame, channel) stream; the calibration draws from the seed's
                draws.append(threading.current_thread())
            return original_rng(seed, *stream)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(flowsr.degrade, "seeded_rng", recording)
        before = threading.active_count()
        for kernel, noise in (("gaussian", 12.0), ("ideal", None)):  # no units: no thread
            acq = Acquisition(g, 120.0, DegradationConfig(d=(2, 2, 2), kernel=kernel, noise_psnr_db=noise))
            acq.acquire(helix_phantom(g, **HELIX_12x8x6).frames, io.BytesIO())
            assert started == [] and draws == []
        acq = Acquisition(g, 120.0, DegradationConfig(d=(2, 2, 2), noise_psnr_db=12.0))
        acq.acquire(helix_phantom(g, **HELIX_12x8x6).frames, io.BytesIO())
        assert len(started) == 1 and draws == started * 9
        assert not started[0].is_alive() and threading.active_count() == before

        def failing(*args):
            raise ParameterError("the draw failed")

        monkeypatch.setattr(flowsr.degrade, "seeded_rng", failing)
        with pytest.raises(ParameterError, match="the draw failed"):
            acq.acquire(helix_phantom(g, **HELIX_12x8x6).frames, io.BytesIO())
        assert len(started) == 2 and not started[1].is_alive()
        assert threading.active_count() == before

    @pytest.mark.parametrize("kernel, d", [("ideal", (2, 2, 3)), ("gaussian", (2, 1, 3)),
                                           ("ideal", (1, 1, 1))])
    def test_calibration_is_calibrate_noise_at_the_top_clean_lr_magnitude(self, kernel, d):
        # one calibration path: the same fields as a volume whose maximum is
        # the top magnitude of the spilled clean spectra over frames and channels
        g = Grid3(12, 8, 6)
        acq = Acquisition(g, 120.0, DegradationConfig(d=d, kernel=kernel, noise_psnr_db=13.0, rng_seed=6))
        cal, _, spilled = _survey(acq, tube_frames("helix", g, **HELIX_12x8x6), 3)
        cleans = spilled[:, :3].reshape(-1, *acq.lr_grid.dims)
        signals = cleans if d == (1, 1, 1) else [ifftn_unitary(s) for s in cleans]
        volume = np.zeros(acq.lr_grid.dims)
        volume[1, 2, 0] = max(float(np.abs(s).max()) for s in signals)
        expected = calibrate_noise(ScalarVolume(acq.lr_grid, volume), 13.0, seed=6)
        for field in ("sigma", "achieved_psnr_db", "target_psnr_db"):
            assert getattr(cal, field) == getattr(expected, field), field

    def test_noiseless_survey_calibrates_to_sigma_zero(self):
        g = Grid3(4, 4, 4)
        acq = Acquisition(g, 120.0, DegradationConfig(d=(2, 2, 2)))
        cal, _, _ = _survey(acq, helix_phantom(g, 1.5, [90.0], 120.0).frames, 1)
        assert (cal.sigma, cal.achieved_psnr_db, cal.target_psnr_db) == (0.0, np.inf, None)

    @pytest.mark.parametrize("kernel", ["ideal", "gaussian"])
    def test_a_frame_off_the_grid_fails_before_its_draw(self, kernel, monkeypatch):
        # frames of other dims, at the same spacing: the ideal kernel cut an LR
        # frame from the wrong spectrum and the gaussian one died in a numpy
        # broadcast; the frame's index is named before its draw is submitted or
        # any of its channels is synthesized, and nothing of it is spilled
        import flowsr.degrade

        g, other = Grid3(8, 8, 4), Grid3(16, 8, 4)
        calls = []

        def recording(name):
            original = getattr(flowsr.degrade, name)

            def record(*args):
                calls.append(name)
                return original(*args)

            return record

        for name in ("synthesize_complex", "seeded_rng"):
            monkeypatch.setattr(flowsr.degrade, name, recording(name))
        acq = Acquisition(g, 120.0, DegradationConfig(d=(2, 2, 2), kernel=kernel, noise_psnr_db=15.0))
        spill = io.BytesIO()
        with pytest.raises(GridMismatchError, match=r"frame 0: grid \(16, 8, 4\) != \(8, 8, 4\)"):
            acq.acquire(helix_phantom(other, 1.5, [90.0], 120.0).frames, spill)
        assert spill.getvalue() == b"" and calls == []
        frames = (*helix_phantom(g, 1.5, [90.0], 120.0).frames, *helix_phantom(other, 1.5, [60.0], 120.0).frames)
        with pytest.raises(GridMismatchError, match="frame 1: "):
            acq.acquire(frames, spill)
        per_frame = 6 if kernel == "ideal" else 3  # frame 0's clean spectra, and its units
        assert len(spill.getvalue()) == per_frame * 16 * acq.lr_grid.voxel_count
        assert calls.count("synthesize_complex") == 3
        assert calls.count("seeded_rng") == (3 if kernel == "ideal" else 0)

    def test_survey_of_zero_magnitude_rejects_the_noise_target(self):
        g = Grid3(4, 4, 4)
        acq = Acquisition(g, 120.0, DegradationConfig(d=(2, 2, 2), noise_psnr_db=10.0))
        frames = helix_phantom(g, 1.5, [90.0, 30.0], 120.0, magnitude_in=0.0).frames
        with pytest.raises(CalibrationError, match="noiseless LR magnitude is zero everywhere"):
            acq.acquire(frames, io.BytesIO())
