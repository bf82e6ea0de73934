import numpy as np
import pytest

from flowsr import (
    ComplexVolume,
    Grid3,
    GridMismatchError,
    KernelSpectrum,
    ParameterError,
    crop_kspace,
    fold_spectrum,
    forward_fft,
    gaussian_spectrum,
    ideal_lowpass_spectrum,
    inverse_fft,
)
from flowsr.spectral import alias_sum, retained_axis_indices

from conftest import random_complex, rel_err

PARITY_GRIDS = [(4, 4, 4), (4, 6, 8), (5, 4, 6), (5, 3, 7), (8, 6, 4)]


class TestFourier:
    def test_constant_volume_concentrates_at_dc(self):
        g = Grid3(4, 4, 4)
        c = 2.0 - 1.0j
        spec = forward_fft(ComplexVolume(g, np.full(g.dims, c)))
        assert abs(spec.data[0, 0, 0] - np.sqrt(g.voxel_count) * c) < 1e-12
        rest = spec.data.copy()
        rest[0, 0, 0] = 0
        assert np.abs(rest).max() < 1e-12

    def test_impulse_gives_flat_spectrum(self):
        g = Grid3(4, 2, 3)
        data = np.zeros(g.dims, dtype=complex)
        data[0, 0, 0] = 1.0
        spec = forward_fft(ComplexVolume(g, data))
        assert np.allclose(spec.data, 1.0 / np.sqrt(g.voxel_count), atol=1e-14)

    @pytest.mark.parametrize("dims", PARITY_GRIDS)
    def test_unitarity(self, dims, rng):
        g = Grid3(*dims)
        x = random_complex(g, rng)
        assert rel_err(inverse_fft(forward_fft(x)).data, x.data) < 1e-12

    @pytest.mark.parametrize("dims", PARITY_GRIDS)
    def test_parseval(self, dims, rng):
        g = Grid3(*dims)
        x = random_complex(g, rng)
        e_spatial = np.sum(np.abs(x.data) ** 2)
        e_spectral = np.sum(np.abs(forward_fft(x).data) ** 2)
        assert abs(e_spatial - e_spectral) / e_spatial < 1e-12

    def test_inverse_of_dc_only_is_constant(self):
        g = Grid3(3, 3, 3)
        spec = np.zeros(g.dims, dtype=complex)
        spec[0, 0, 0] = np.sqrt(g.voxel_count) * (1.0 + 2.0j)
        out = inverse_fft(ComplexVolume(g, spec))
        assert np.allclose(out.data, 1.0 + 2.0j, atol=1e-13)

    def test_inverse_linearity(self, rng):
        g = Grid3(4, 3, 5)
        X, Y = random_complex(g, rng), random_complex(g, rng)
        a, b = 1.7 - 0.3j, -0.4 + 2.0j
        combo = inverse_fft(ComplexVolume(g, a * X.data + b * Y.data))
        split = a * inverse_fft(X).data + b * inverse_fft(Y).data
        assert rel_err(combo.data, split) < 1e-12


class TestRetainedBox:
    def test_even_axis_enumeration(self):
        # cropping 8 bins to 4 keeps 2 nonnegative and 2 negative frequencies
        assert retained_axis_indices(8, 4).tolist() == [0, 1, 6, 7]

    def test_odd_axis_enumeration(self):
        assert retained_axis_indices(9, 3).tolist() == [0, 1, 8]
        assert retained_axis_indices(8, 5).tolist() == [0, 1, 2, 6, 7]

    def test_full_axis_is_identity(self):
        assert retained_axis_indices(6, 6).tolist() == list(range(6))

    def test_oversized_target_rejected(self):
        with pytest.raises(ParameterError):
            retained_axis_indices(4, 6)


class TestIdealLowpass:
    def test_no_decimation_is_all_ones(self):
        spec = ideal_lowpass_spectrum(Grid3(4, 6, 2), (1, 1, 1))
        assert np.all(spec.values == 1.0)

    def test_1d_example(self):
        spec = ideal_lowpass_spectrum(Grid3(8, 1, 1), (2, 1, 1))
        assert np.flatnonzero(spec.values[:, 0, 0]).tolist() == [0, 1, 6, 7]

    @pytest.mark.parametrize("dims,d", [((8, 4, 4), (2, 2, 2)), ((6, 6, 6), (3, 2, 1)), ((4, 4, 4), (4, 1, 2))])
    def test_number_of_ones(self, dims, d):
        spec = ideal_lowpass_spectrum(Grid3(*dims), d)
        assert np.count_nonzero(spec.values) == np.prod(dims) // np.prod(d)
        assert set(np.unique(spec.values.real)) <= {0.0, 1.0}

    def test_divisibility_enforced(self):
        with pytest.raises(GridMismatchError):
            ideal_lowpass_spectrum(Grid3(8, 4, 4), (3, 1, 1))

    def test_projection_property(self):
        # pointwise values in {0,1}: applying twice equals applying once,
        # and the spectrum is real (self-adjoint filter)
        spec = ideal_lowpass_spectrum(Grid3(8, 4, 6), (2, 2, 3))
        assert np.array_equal(spec.values * spec.values, spec.values)
        assert np.all(spec.values.imag == 0)


class TestGaussianSpectrum:
    def test_dc_gain_is_one(self):
        spec = gaussian_spectrum(Grid3(8, 6, 4), (3.0, 2.0, 5.0))
        assert spec.values[0, 0, 0] == 1.0

    def test_wide_limit_approaches_all_pass(self):
        spec = gaussian_spectrum(Grid3(8, 8, 8), (1e9, 1e9, 1e9))
        assert np.allclose(spec.values, 1.0, atol=1e-10)

    def test_half_height_at_fwhm(self):
        spec = gaussian_spectrum(Grid3(16, 1, 1), (8.0, 1.0, 1.0))
        assert abs(spec.values[4, 0, 0] - 0.5) < 1e-12  # bin 4 = fwhm/2

    def test_symmetry(self):
        spec = gaussian_spectrum(Grid3(8, 5, 6), (3.0, 2.5, 4.0))
        v = spec.values
        for axis, n in enumerate(v.shape):
            flipped = np.take(v, (-np.arange(n)) % n, axis=axis)
            assert np.allclose(flipped, v, atol=1e-14)

    def test_rejects_nonpositive_fwhm(self):
        with pytest.raises(ParameterError):
            gaussian_spectrum(Grid3(4, 4, 4), (1.0, 0.0, 1.0))


class TestCropPad:
    def test_crop_to_same_grid_is_identity(self, rng):
        g = Grid3(4, 5, 6)
        X = random_complex(g, rng)
        assert np.array_equal(crop_kspace(X, g).data, X.data)

    def test_crop_rejects_larger_target(self, rng):
        X = random_complex(Grid3(4, 4, 4), rng)
        with pytest.raises(ParameterError):
            crop_kspace(X, Grid3(8, 4, 4))

    def test_adjoint_identity(self, rng):
        # the crop's adjoint writes each LR bin back at the same signed
        # frequency of a zero HR spectrum
        hr, lr = Grid3(8, 5, 6), Grid3(4, 3, 3)
        X = random_complex(hr, rng)
        Y = random_complex(lr, rng)
        padded = np.zeros(hr.dims, complex)
        freqs = (np.fft.fftfreq(n, 1 / n).astype(int) % m for n, m in zip(lr.dims, hr.dims))
        padded[np.ix_(*freqs)] = Y.data
        lhs = np.vdot(crop_kspace(X, lr).data, Y.data)
        rhs = np.vdot(X.data, padded)
        assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_constant_volume_scales_by_sqrt_d(self):
        # crop pipeline equals sqrt(d) * (filter + decimate), so a constant
        # volume comes out multiplied by sqrt(N_h / N_l)
        hr, lr = Grid3(8, 4, 4), Grid3(4, 2, 2)
        c = 0.7 - 0.2j
        out = inverse_fft(crop_kspace(forward_fft(ComplexVolume(hr, np.full(hr.dims, c))), lr))
        assert np.allclose(out.data, c * np.sqrt(8.0), atol=1e-13)


class TestAliasSum:
    def test_against_enumeration(self, rng):
        # LR bin kappa collects the HR bins kappa + b*L of every block b
        g = Grid3(8, 4, 6)
        d = (2, 2, 3)
        values = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
        ml, nl, sl = 4, 2, 2
        got = alias_sum(values, d)
        assert got.shape == (ml, nl, sl)
        for kx in range(ml):
            for ky in range(nl):
                for kz in range(sl):
                    ref = sum(
                        values[kx + bx * ml, ky + by * nl, kz + bz * sl]
                        for bx in range(d[0])
                        for by in range(d[1])
                        for bz in range(d[2])
                    )
                    assert abs(got[kx, ky, kz] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize(
        "dims, d",
        [
            ((9, 5, 7), (3, 5, 7)),
            ((6, 10, 4), (3, 5, 2)),
            ((15, 3, 5), (5, 1, 1)),
            ((5, 7, 3), (1, 1, 1)),
        ],
    )
    def test_adjoint_is_tiling(self, dims, d, rng):
        a = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        lr = tuple(n // r for n, r in zip(dims, d))
        b = rng.standard_normal(lr) + 1j * rng.standard_normal(lr)
        lhs = np.vdot(alias_sum(a, d), b)
        rhs = np.vdot(a, np.tile(b, d))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestFolding:
    def test_identity_spectrum_1d_example(self):
        spec = KernelSpectrum(Grid3(4, 1, 1), np.ones((4, 1, 1)))
        gram = fold_spectrum(spec, (2, 1, 1))
        assert gram.shape == (2, 1, 1)
        assert np.all(gram == 2.0)

    def test_no_decimation_single_block(self, rng):
        g = Grid3(4, 3, 2)
        values = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
        gram = fold_spectrum(KernelSpectrum(g, values), (1, 1, 1))
        assert gram.shape == g.dims
        assert np.allclose(gram, np.abs(values) ** 2)

    def test_ideal_lowpass_gram_is_one_everywhere(self):
        # brute-force: every LR bin retains exactly one alias of the box
        g = Grid3(8, 4, 4)
        d = (2, 2, 2)
        gram = fold_spectrum(ideal_lowpass_spectrum(g, d), d)
        assert np.allclose(gram, 1.0, atol=0)
        # independent enumeration over all LR bins and aliases
        values = ideal_lowpass_spectrum(g, d).values
        for kx in range(4):
            for ky in range(2):
                for kz in range(2):
                    hits = sum(
                        values[kx + bx * 4, ky + by * 2, kz + bz * 2] == 1.0
                        for bx in range(2)
                        for by in range(2)
                        for bz in range(2)
                    )
                    assert hits == 1

    def test_gram_matches_blocks(self, rng):
        g = Grid3(6, 6, 4)
        d = (3, 2, 2)
        values = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
        gram = fold_spectrum(KernelSpectrum(g, values), d)
        ml, nl, sl = 2, 3, 2
        ref = sum(
            np.abs(values[bx * ml:(bx + 1) * ml, by * nl:(by + 1) * nl, bz * sl:(bz + 1) * sl]) ** 2
            for bx in range(d[0])
            for by in range(d[1])
            for bz in range(d[2])
        )
        assert rel_err(gram, ref) < 1e-12
        assert np.all(gram >= 0)
