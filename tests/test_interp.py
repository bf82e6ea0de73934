import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from flowsr import (
    DegradationConfig,
    Grid3,
    ParameterError,
    degrade_dataset,
    helix_phantom,
    poiseuille_phantom,
    upsample_dataset,
)
from flowsr.interp import _axis_spectra, _axis_weights, upsample_array, upsample_spectrum
from flowsr.spectral import fftn_unitary

from conftest import rel_err, run_threads, swap_axes

_ORDERS = {"trilinear": 1, "tricubic": 3}
# (LR shape, rates): a cube, odd shapes with mixed rates, single-voxel axes
SEPARABLE_CASES = [
    ((16, 16, 16), (4, 4, 4)),
    ((5, 7, 3), (3, 2, 1)),
    ((1, 4, 2), (2, 3, 2)),
]

# (LR shape, rates) with rate-1 axes in every position
RATE_ONE_CASES = [
    ((5, 7, 3), (3, 2, 1)),
    ((4, 6, 5), (1, 2, 3)),
    ((6, 4, 4), (2, 1, 2)),
    ((8, 8, 8), (1, 3, 1)),
]
SPECTRUM_CASES = [
    ((16, 16, 16), (4, 4, 4)),
    ((32, 32, 32), (2, 2, 1)),
    ((5, 7, 3), (2, 3, 1)),
    ((1, 4, 3), (3, 1, 2)),
    ((4, 3, 5), (1, 1, 1)),
]


def _moveaxis_upsample(a, d, method):
    # the per-axis loop upsample_array used before it contracted axis 0
    # each time: the new axis moved back into place after every product
    out = a
    for axis, rate in enumerate(d):
        if rate > 1:
            weights = _axis_weights(a.shape[axis], rate, _ORDERS[method])
            out = np.moveaxis(np.tensordot(weights, out, axes=(1, axis)), 0, axis)
    return np.ascontiguousarray(out)


def _reference_upsample(a, d, method):
    # the 3D map_coordinates call on a meshgrid of high-res coordinates that
    # the per-axis weights replace
    coords = np.meshgrid(
        *(np.arange(dim * rate) / rate for dim, rate in zip(a.shape, d)),
        indexing="ij",
    )
    return map_coordinates(a, coords, order=_ORDERS[method], mode="nearest")


class TestUpsampleArray:
    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    def test_constant_stays_constant(self, method):
        a = np.full((3, 4, 2), 2.5)
        out = upsample_array(a, (2, 2, 3), method)
        assert out.shape == (6, 8, 6)
        assert np.allclose(out, 2.5, atol=1e-12)

    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    def test_rate_one_is_identity(self, method, rng):
        a = rng.standard_normal((4, 3, 5))
        assert np.allclose(upsample_array(a, (1, 1, 1), method), a, atol=0)

    def test_linear_ramp_reproduced_inside(self):
        # trilinear reproduces affine fields exactly away from the clamped edge
        x, y, z = np.meshgrid(np.arange(4.0), np.arange(4.0), np.arange(4.0), indexing="ij")
        a = 2.0 * x - 3.0 * y + 0.5 * z + 1.0
        out = upsample_array(a, (2, 2, 2), "trilinear")
        xo, yo, zo = np.meshgrid(
            np.arange(8.0) / 2, np.arange(8.0) / 2, np.arange(8.0) / 2, indexing="ij"
        )
        expected = 2.0 * xo - 3.0 * yo + 0.5 * zo + 1.0
        interior = (slice(0, 7), slice(0, 7), slice(0, 7))  # last voxel extrapolates
        assert np.allclose(out[interior], expected[interior], atol=1e-12)

    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    def test_alignment_with_decimation(self, method, rng):
        # sampling the upsampled field at offset-0 stride-d voxels returns
        # the low-res field
        a = rng.standard_normal((4, 4, 4))
        d = (2, 3, 2)
        out = upsample_array(a, d, method)
        assert np.allclose(out[:: d[0], :: d[1], :: d[2]], a, atol=1e-9)

    def test_trilinear_respects_bounds(self, rng):
        a = rng.standard_normal((4, 4, 4))
        out = upsample_array(a, (3, 3, 3), "trilinear")
        assert out.max() <= a.max() + 1e-12
        assert out.min() >= a.min() - 1e-12

    def test_unknown_method(self, rng):
        with pytest.raises(ParameterError):
            upsample_array(rng.standard_normal((2, 2, 2)), (2, 2, 2), "sinc")

    def test_bad_rates(self, rng):
        # a zero rate, and two or four rates for a 3-D array
        for shape, d in [((2, 2, 2), (0, 1, 1)), ((2, 3, 4), (2, 2)), ((2, 3, 4), (2, 2, 2, 2))]:
            with pytest.raises(ParameterError):
                upsample_array(rng.standard_normal(shape), d)


class TestSeparableWeights:
    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    @pytest.mark.parametrize("shape,d", SEPARABLE_CASES)
    def test_matches_3d_map_coordinates(self, method, shape, d, rng):
        a = rng.standard_normal(shape)
        out = upsample_array(a, d, method)
        assert out.shape == tuple(dim * rate for dim, rate in zip(shape, d))
        assert rel_err(out, _reference_upsample(a, d, method)) < 1e-12

    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    @pytest.mark.parametrize("shape,d", SEPARABLE_CASES)
    def test_complex_equals_parts_interpolated_separately(self, method, shape, d, rng):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        parts = _reference_upsample(a.real, d, method) + 1j * _reference_upsample(
            a.imag, d, method
        )
        out = upsample_array(a, d, method)
        assert np.iscomplexobj(out)
        assert rel_err(out, parts) < 1e-12

    def test_cached_weights_are_read_only(self):
        weights = _axis_weights(4, 2, 3)
        assert weights is _axis_weights(4, 2, 3)
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0

    def test_threads_on_a_cold_cache_match_serial(self):
        hr = poiseuille_phantom(
            Grid3(12, 12, 8), radius_voxels=4, vmax_per_frame=[90.0, 70.0], venc=150.0
        )
        lr, _ = degrade_dataset(hr, DegradationConfig(d=(3, 3, 2), noise_psnr_db=15.0))
        serial = upsample_dataset(lr, (3, 3, 2), "tricubic")
        _axis_weights.cache_clear()
        results = [None] * 4

        def work(i):
            results[i] = upsample_dataset(lr, (3, 3, 2), "tricubic")

        assert run_threads(work, len(results)) == []
        for out in results:
            for f_out, f_serial in zip(out.frames, serial.frames):
                for ch in ("magnitude", "u", "v", "w"):
                    assert np.array_equal(f_out.channel(ch).data, f_serial.channel(ch).data)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    @pytest.mark.parametrize("shape,d", RATE_ONE_CASES)
    def test_equals_the_moveaxis_loop(self, method, shape, d, dtype, layout, rng):
        # contracting axis 0 each time gives the same bits; F order is how
        # load_dataset returns its volumes
        a = rng.standard_normal(shape).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal(shape)
        a = np.asarray(a, order=layout)
        out = upsample_array(a, d, method)
        assert out.flags.c_contiguous
        assert np.array_equal(out, _moveaxis_upsample(a, d, method))


class TestUpsampleSpectrum:
    @pytest.mark.parametrize("shape,d", SPECTRUM_CASES)
    def test_matches_the_fft_of_the_upsampled_array(self, shape, d, rng):
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = upsample_spectrum(y, d)
        assert spec.dtype == np.complex128 and spec.flags.c_contiguous
        assert rel_err(spec, fftn_unitary(upsample_array(y, d))) < 1e-14

    def test_cached_spectra_are_read_only(self):
        for rate in (1, 2):
            spectra = _axis_spectra(4, rate, 1)
            assert spectra is _axis_spectra(4, rate, 1)
            with pytest.raises(ValueError):
                spectra[0, 0] = 1.0

    def test_threads_on_a_cold_cache_match_serial(self, rng):
        ys = [rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4)) for _ in range(4)]
        serial = [upsample_spectrum(y, (3, 2, 1)) for y in ys]
        _axis_weights.cache_clear()
        _axis_spectra.cache_clear()
        results = [None] * len(ys)

        def work(i):
            results[i] = upsample_spectrum(ys[i], (3, 2, 1))

        assert run_threads(work, len(results)) == []
        for out, expected in zip(results, serial):
            assert np.array_equal(out, expected)


class TestUpsampleDataset:
    def _lr(self):
        hr = poiseuille_phantom(
            Grid3(8, 8, 8), radius_voxels=3, vmax_per_frame=[90.0, 70.0], venc=150.0
        )
        lr, _ = degrade_dataset(hr, DegradationConfig(d=(2, 2, 2)))
        return lr

    def test_shape_contract(self):
        lr = self._lr()
        up = upsample_dataset(lr, (2, 2, 2), "trilinear")
        assert up.grid.dims == (8, 8, 8)
        assert up.grid.spacing == (1.0, 1.0, 1.0)
        assert len(up.frames) == len(lr.frames)

    def test_identity_at_rate_one(self):
        lr = self._lr()
        same = upsample_dataset(lr, (1, 1, 1), "tricubic")
        for f1, f2 in zip(lr.frames, same.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert np.allclose(f1.channel(ch).data, f2.channel(ch).data, atol=0)

    @pytest.mark.parametrize("method", ["trilinear", "tricubic"])
    @pytest.mark.parametrize("perm", [(1, 0, 2), (2, 1, 0)], ids=["xy", "xz"])
    def test_axis_swap(self, perm, method):
        # swapping x with y or z, with the rates, swaps every upsampled channel
        d = (4, 2, 1)
        hr = helix_phantom(Grid3(16, 12, 8), radius_voxels=3, vmax_per_frame=[90.0], venc=150.0, axis="x")
        lr, _ = degrade_dataset(hr, DegradationConfig(d=d))
        up = upsample_dataset(lr, d, method)
        back = swap_axes(upsample_dataset(swap_axes(lr, perm), tuple(d[p] for p in perm), method), perm)
        for f_up, f_back in zip(up.frames, back.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert rel_err(f_back.channel(ch).data, f_up.channel(ch).data) < 1e-12

    def test_outputs_are_adopted_read_only(self):
        up = upsample_dataset(self._lr(), (2, 2, 2), "tricubic")
        for ch in ("magnitude", "u", "v", "w"):
            data = up.frames[0].channel(ch).data
            with pytest.raises(ValueError):
                data[0, 0, 0] = 0.0
            assert data.base is None or not data.base.flags.writeable
