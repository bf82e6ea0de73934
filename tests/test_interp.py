import sys
import threading

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from flowsr import (
    DegradationConfig,
    Grid3,
    ParameterError,
    ScalarVolume,
    degrade_dataset,
    poiseuille_phantom,
    upsample_dataset,
    upsample_velocity,
)
from flowsr.interp import _axis_weights, upsample_array

from conftest import rel_err

_ORDERS = {"trilinear": 1, "tricubic": 3}
# (LR shape, rates): a cube, odd shapes with mixed rates, single-voxel axes
SEPARABLE_CASES = [
    ((16, 16, 16), (4, 4, 4)),
    ((5, 7, 3), (3, 2, 1)),
    ((1, 4, 2), (2, 3, 2)),
]


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
        errors = []

        def work(i):
            try:
                results[i] = upsample_dataset(lr, (3, 3, 2), "tricubic")
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

    def test_velocity_volume_grid_scaling(self, rng):
        vel = ScalarVolume(Grid3(4, 4, 4, (2.0, 2.0, 2.0)), rng.standard_normal((4, 4, 4)))
        up = upsample_velocity(vel, (2, 2, 2))
        assert up.grid.dims == (8, 8, 8)
        assert up.grid.spacing == (1.0, 1.0, 1.0)
