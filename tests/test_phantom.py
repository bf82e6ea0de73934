import numpy as np
import pytest

from flowsr import (
    Grid3,
    ParameterError,
    helix_phantom,
    poiseuille_phantom,
    pulsatile_profile,
)
from flowsr.phantom import tube_frames


class TestPulsatileProfile:
    def test_first_frame_is_peak(self):
        profile = pulsatile_profile(120.0, 5)
        assert len(profile) == 5
        assert profile[0] == pytest.approx(120.0)
        assert max(profile) == pytest.approx(120.0)
        assert min(profile) > 0


class TestPoiseuille:
    def test_centerline_velocity_is_peak(self):
        # odd transverse dims put the tube center on a voxel
        g = Grid3(17, 17, 8)
        ds = poiseuille_phantom(g, radius_voxels=6, vmax_per_frame=[80.0, 40.0], venc=120.0)
        for frame, vmax in zip(ds.frames, (80.0, 40.0)):
            assert frame.w.data[8, 8, :] == pytest.approx(vmax)
            assert np.all(frame.u.data == 0)
            assert np.all(frame.v.data == 0)

    def test_wall_and_outside_are_zero(self):
        g = Grid3(17, 17, 4)
        R = 4.0
        ds = poiseuille_phantom(g, radius_voxels=R, vmax_per_frame=[50.0], venc=100.0)
        w = ds.frames[0].w.data
        assert w[8 + 4, 8, 0] == 0.0  # voxel exactly at r = R
        assert w[0, 0, 0] == 0.0

    def test_mean_velocity_near_half_peak(self):
        g = Grid3(64, 64, 4)
        ds = poiseuille_phantom(g, radius_voxels=22.0, vmax_per_frame=[100.0], venc=150.0)
        w = ds.frames[0].w.data
        inside = ds.frames[0].magnitude.data > 0.5
        mean_inside = w[inside].mean()
        assert abs(mean_inside - 50.0) / 50.0 < 0.05

    def test_axis_selection(self):
        g = Grid3(4, 9, 9)
        ds = poiseuille_phantom(g, radius_voxels=3, vmax_per_frame=[50.0], venc=100.0, axis="x")
        assert ds.frames[0].u.data[:, 4, 4] == pytest.approx(50.0)
        assert np.all(ds.frames[0].w.data == 0)

    def test_magnitude_levels(self):
        g = Grid3(9, 9, 4)
        ds = poiseuille_phantom(
            g, 3, [50.0], 100.0, magnitude_in=2.0, magnitude_out=0.25
        )
        mag = ds.frames[0].magnitude.data
        assert mag[4, 4, 0] == 2.0
        assert mag[0, 0, 0] == 0.25

    def test_velocity_capped_by_construction(self):
        g = Grid3(16, 16, 4)
        ds = poiseuille_phantom(g, 5, [99.0], 100.0)
        assert np.abs(ds.frames[0].w.data).max() <= 99.0

    def test_aliasing_precondition(self):
        g = Grid3(8, 8, 4)
        with pytest.raises(ParameterError):
            poiseuille_phantom(g, 3, [100.0], 100.0)

    def test_radius_must_fit(self):
        with pytest.raises(ParameterError):
            poiseuille_phantom(Grid3(8, 8, 4), 5.0, [50.0], 100.0)

    def test_frames_share_magnitude_and_zero_volumes(self):
        ds = poiseuille_phantom(Grid3(8, 8, 4), 3, [50.0, 40.0, 30.0], 100.0)
        first = ds.frames[0]
        for f in ds.frames:
            assert f.magnitude is first.magnitude
            assert f.u is first.u and f.v is first.u
        assert not first.u.data.any()
        assert len({id(f.w) for f in ds.frames}) == 3

    @pytest.mark.parametrize("phantom", [poiseuille_phantom, helix_phantom])
    def test_rejects_nan_radius(self, phantom):
        with pytest.raises(ParameterError, match="radius must be finite and > 0"):
            phantom(Grid3(8, 8, 8), float("nan"), [50.0], 150.0)

    def test_deterministic(self):
        g = Grid3(8, 8, 4)
        a = poiseuille_phantom(g, 3, [50.0], 100.0)
        b = poiseuille_phantom(g, 3, [50.0], 100.0)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.w.data, fb.w.data)


class TestHelix:
    def test_center_axis_has_no_swirl(self):
        g = Grid3(17, 17, 8)
        ds = helix_phantom(g, radius_voxels=6, vmax_per_frame=[90.0], venc=150.0)
        f = ds.frames[0]
        assert np.all(f.u.data[8, 8, :] == 0)
        assert np.all(f.v.data[8, 8, :] == 0)
        assert f.w.data[8, 8, 0] > 0

    def test_all_channels_active(self):
        g = Grid3(16, 16, 8)
        ds = helix_phantom(g, radius_voxels=5, vmax_per_frame=[90.0], venc=150.0)
        f = ds.frames[0]
        for ch in ("u", "v", "w"):
            assert np.abs(f.channel(ch).data).max() > 1.0

    def test_interior_divergence_vanishes(self):
        # swirl is linear in the coordinates and the axial term is
        # z-independent, so interior central differences are exact zeros
        g = Grid3(33, 33, 8)
        R = 12.0
        ds = helix_phantom(g, radius_voxels=R, vmax_per_frame=[90.0], venc=150.0)
        f = ds.frames[0]
        du = np.gradient(f.u.data, axis=0)
        dv = np.gradient(f.v.data, axis=1)
        dw = np.gradient(f.w.data, axis=2)
        div = du + dv + dw
        x, y = np.meshgrid(np.arange(33.0) - 16, np.arange(33.0) - 16, indexing="ij")
        deep_inside = ((x**2 + y**2) < (R - 2) ** 2)[:, :, None] & np.ones((1, 1, 8), bool)
        deep_inside[:, :, 0] = deep_inside[:, :, -1] = False
        assert np.abs(div[deep_inside]).max() < 1e-10

    def test_speed_capped_by_peak(self):
        g = Grid3(16, 16, 8)
        ds = helix_phantom(g, radius_voxels=5, vmax_per_frame=[90.0], venc=150.0)
        f = ds.frames[0]
        speed = np.sqrt(f.u.data**2 + f.v.data**2 + f.w.data**2)
        assert speed.max() <= 90.0 + 1e-12

    def test_venc_enforced(self):
        with pytest.raises(ParameterError):
            helix_phantom(Grid3(16, 16, 8), 5, [150.0], 150.0)

    def test_frames_share_magnitude(self):
        ds = helix_phantom(Grid3(16, 16, 8), 5, [90.0, 60.0, 30.0], 150.0)
        assert all(f.magnitude is ds.frames[0].magnitude for f in ds.frames)

    def test_axial_fraction_domain(self):
        with pytest.raises(ParameterError):
            helix_phantom(Grid3(16, 16, 8), 5, [90.0], 150.0, axial_fraction=1.0)


class TestTubeFrames:
    @pytest.mark.parametrize("phantom, build", [("poiseuille", poiseuille_phantom), ("helix", helix_phantom)])
    def test_frames_are_the_phantoms(self, phantom, build):
        g = Grid3(10, 9, 6)
        kwargs = dict(radius_voxels=3, vmax_per_frame=[80.0, 55.0, 30.0], venc=120.0, axis="y",
                      magnitude_out=0.2)
        ds = build(g, **kwargs)
        frames = list(tube_frames(phantom, g, **kwargs))
        assert len(frames) == 3
        for mine, theirs in zip(frames, ds.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert np.array_equal(mine.channel(ch).data, theirs.channel(ch).data)
                assert not mine.channel(ch).data.flags.writeable

    def test_settings_are_checked_before_any_frame(self):
        with pytest.raises(ParameterError, match="reaches venc"):
            tube_frames("poiseuille", Grid3(8, 8, 8), radius_voxels=2, vmax_per_frame=[200.0], venc=100.0)
        with pytest.raises(ParameterError, match="phantom"):
            tube_frames("sphere", Grid3(8, 8, 8), radius_voxels=2, vmax_per_frame=[50.0], venc=100.0)

    def test_each_frame_is_made_when_reached(self):
        frames = tube_frames("helix", Grid3(8, 8, 8), radius_voxels=2, vmax_per_frame=[50.0, 20.0],
                             venc=100.0)
        first = next(frames)
        second = next(frames)
        assert first.u is not second.u and first.magnitude is second.magnitude
        assert next(frames, None) is None
