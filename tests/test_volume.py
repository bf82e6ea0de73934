import numpy as np
import pytest

from flowsr import (
    AcquisitionParams,
    AliasingError,
    ComplexVolume,
    Grid3,
    GridMismatchError,
    ParameterError,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    extract_velocity,
    phase_to_velocity,
    synthesize_complex,
    velocity_to_phase,
)
from flowsr.volume import ravel_lex, unravel_lex

from conftest import random_scalar


class TestGrid3:
    def test_basic(self):
        g = Grid3(4, 5, 6, (1.0, 2.0, 0.5))
        assert g.dims == (4, 5, 6)
        assert g.voxel_count == 120

    @pytest.mark.parametrize("dims", [(0, 4, 4), (4, -1, 4), (4, 4, 0)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ParameterError):
            Grid3(*dims)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ParameterError):
            Grid3(4, 4, 4, (1.0, 0.0, 1.0))

    def test_scaled_and_decimated(self):
        g = Grid3(4, 6, 8, (2.0, 2.0, 2.0))
        up = g.scaled((2, 3, 1))
        assert up.dims == (8, 18, 8)
        assert up.spacing == (1.0, 2.0 / 3.0, 2.0)
        assert up.decimated((2, 3, 1)) == g

    def test_decimated_requires_divisibility(self):
        with pytest.raises(GridMismatchError):
            Grid3(4, 6, 8).decimated((3, 1, 1))


class TestVolumes:
    def test_scalar_volume_validates_size(self):
        with pytest.raises(GridMismatchError):
            ScalarVolume(Grid3(2, 2, 2), np.zeros((2, 2, 3)))

    def test_rejects_nonfinite(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            ScalarVolume(Grid3(2, 2, 2), data)
        with pytest.raises(ParameterError):
            ComplexVolume(Grid3(2, 2, 2), data + 0j * data)

    def test_immutable_after_construction(self):
        vol = ScalarVolume(Grid3(2, 2, 2), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    def test_constructor_copies_input(self):
        data = np.zeros((2, 2, 2))
        vol = ScalarVolume(Grid3(2, 2, 2), data)
        data[0, 0, 0] = 7.0
        assert vol.data[0, 0, 0] == 0.0

    def test_flat_data_uses_lexicographic_order(self):
        flat = np.arange(8.0)
        vol = ScalarVolume(Grid3(2, 2, 2), flat)
        # x fastest: flat index 1 is voxel (1, 0, 0)
        assert vol.data[1, 0, 0] == 1.0
        assert vol.data[0, 1, 0] == 2.0
        assert vol.data[0, 0, 1] == 4.0

    def test_ravel_round_trip(self, rng):
        a = rng.standard_normal((3, 4, 5))
        assert np.array_equal(unravel_lex(ravel_lex(a), (3, 4, 5)), a)


class TestDatasetInvariants:
    def test_acquisition_params(self):
        with pytest.raises(ParameterError):
            AcquisitionParams(venc=0.0)
        with pytest.raises(ParameterError):
            AcquisitionParams(venc=100.0, frame_count=0)

    def test_acquisition_params_reject_infinite_venc(self):
        with pytest.raises(ParameterError, match="finite"):
            AcquisitionParams(venc=float("inf"))

    def _frame(self, grid):
        zero = ScalarVolume(grid, np.zeros(grid.dims))
        return VelocityFrame(magnitude=zero, u=zero, v=zero, w=zero)

    def test_frame_requires_shared_grid(self):
        g = Grid3(2, 2, 2)
        other = ScalarVolume(Grid3(2, 2, 4), np.zeros((2, 2, 4)))
        zero = ScalarVolume(g, np.zeros(g.dims))
        with pytest.raises(GridMismatchError):
            VelocityFrame(magnitude=zero, u=zero, v=other, w=zero)

    def test_dataset_counts_frames(self):
        g = Grid3(2, 2, 2)
        with pytest.raises(GridMismatchError):
            VelocityDataset(AcquisitionParams(venc=100.0, frame_count=2), (self._frame(g),))

    def test_dataset_requires_one_grid(self):
        params = AcquisitionParams(venc=100.0, frame_count=2)
        with pytest.raises(GridMismatchError):
            VelocityDataset(params, (self._frame(Grid3(2, 2, 2)), self._frame(Grid3(2, 2, 4))))


class TestPhaseVelocity:
    def test_velocity_at_venc_maps_to_pi(self):
        g = Grid3(2, 3, 2)
        vel = ScalarVolume(g, np.full(g.dims, 150.0))
        phase = velocity_to_phase(vel, 150.0)
        assert np.allclose(phase.data, np.pi, rtol=0, atol=0)

    def test_zero_velocity_zero_phase(self):
        g = Grid3(2, 2, 2)
        phase = velocity_to_phase(ScalarVolume(g, np.zeros(g.dims)), 80.0)
        assert np.all(phase.data == 0.0)

    def test_half_negative(self):
        g = Grid3(1, 1, 1)
        phase = velocity_to_phase(ScalarVolume(g, [-50.0]), 100.0)
        assert np.allclose(phase.data, -np.pi / 2)

    def test_linearity(self, rng):
        g = Grid3(3, 3, 3)
        vel = random_scalar(g, rng)
        a = velocity_to_phase(ScalarVolume(g, 0.4 * vel.data), 100.0)
        b = velocity_to_phase(vel, 100.0)
        assert np.allclose(a.data, 0.4 * b.data, rtol=1e-14)

    def test_phase_to_velocity_inverse(self, rng):
        g = Grid3(4, 3, 2)
        vel = ScalarVolume(g, 99.0 * (2 * rng.random(g.dims) - 1))
        back = phase_to_velocity(velocity_to_phase(vel, 100.0), 100.0)
        assert np.allclose(back.data, vel.data, rtol=1e-14)
        phase = ScalarVolume(g, np.full(g.dims, np.pi))
        assert np.allclose(phase_to_velocity(phase, 120.0).data, 120.0)

    @pytest.mark.parametrize("venc", [0.0, -1.0])
    def test_nonpositive_venc_rejected(self, venc):
        g = Grid3(1, 1, 1)
        vol = ScalarVolume(g, [0.0])
        with pytest.raises(ParameterError):
            velocity_to_phase(vol, venc)
        with pytest.raises(ParameterError):
            phase_to_velocity(vol, venc)

    def test_infinite_venc_rejected(self):
        vol = ScalarVolume(Grid3(1, 1, 1), [0.0])
        with pytest.raises(ParameterError, match="finite"):
            velocity_to_phase(vol, np.inf)
        with pytest.raises(ParameterError, match="finite"):
            phase_to_velocity(vol, np.inf)


class TestComplexSynthesis:
    def test_unit_magnitude_zero_velocity(self):
        g = Grid3(2, 2, 2)
        sig = synthesize_complex(
            ScalarVolume(g, np.ones(g.dims)), ScalarVolume(g, np.zeros(g.dims)), 100.0
        )
        assert np.allclose(sig.data, 1.0 + 0.0j)

    def test_quarter_turn(self):
        g = Grid3(1, 1, 1)
        sig = synthesize_complex(ScalarVolume(g, [2.0]), ScalarVolume(g, [50.0]), 100.0)
        assert abs(sig.data[0, 0, 0] - 2.0j) < 1e-15

    def test_zero_magnitude(self):
        g = Grid3(1, 1, 1)
        sig = synthesize_complex(ScalarVolume(g, [0.0]), ScalarVolume(g, [73.0]), 100.0)
        assert sig.data[0, 0, 0] == 0.0

    def test_magnitude_preserved(self, rng):
        g = Grid3(4, 4, 4)
        mag = ScalarVolume(g, rng.random(g.dims) + 0.1)
        vel = ScalarVolume(g, 95.0 * (2 * rng.random(g.dims) - 1))
        sig = synthesize_complex(mag, vel, 100.0)
        assert np.allclose(np.abs(sig.data), mag.data, rtol=1e-14, atol=1e-14)

    def test_aliasing_is_hard_error_with_count(self):
        g = Grid3(2, 2, 2)
        vel = np.zeros(g.dims)
        vel[0, 0, 0] = 100.0  # exactly venc counts as aliased
        vel[1, 1, 1] = -130.0
        mag = ScalarVolume(g, np.ones(g.dims))
        with pytest.raises(AliasingError) as excinfo:
            synthesize_complex(mag, ScalarVolume(g, vel), 100.0)
        assert excinfo.value.voxel_count == 2
        assert "2 voxel(s)" in str(excinfo.value)

    def test_negative_magnitude_rejected(self):
        g = Grid3(1, 1, 1)
        with pytest.raises(ParameterError):
            synthesize_complex(ScalarVolume(g, [-1.0]), ScalarVolume(g, [0.0]), 100.0)

    def test_grid_mismatch_rejected(self):
        mag = ScalarVolume(Grid3(2, 2, 2), np.ones((2, 2, 2)))
        vel = ScalarVolume(Grid3(2, 2, 4), np.zeros((2, 2, 4)))
        with pytest.raises(GridMismatchError):
            synthesize_complex(mag, vel, 100.0)


class TestExtraction:
    def test_known_angle(self):
        g = Grid3(1, 1, 1)
        sig = ComplexVolume(g, [3.0 * np.exp(1j * np.pi / 4)])
        mag, vel = extract_velocity(sig, 100.0)
        assert abs(mag.data[0, 0, 0] - 3.0) < 1e-14
        assert abs(vel.data[0, 0, 0] - 25.0) < 1e-12

    def test_zero_signal_convention(self):
        g = Grid3(1, 1, 1)
        mag, vel = extract_velocity(ComplexVolume(g, [0.0 + 0.0j]), 100.0)
        assert mag.data[0, 0, 0] == 0.0
        assert vel.data[0, 0, 0] == 0.0

    def test_round_trip(self, rng):
        g = Grid3(5, 4, 3)
        mag = ScalarVolume(g, rng.random(g.dims) + 0.05)
        vel = ScalarVolume(g, 149.0 * (2 * rng.random(g.dims) - 1))
        mag2, vel2 = extract_velocity(synthesize_complex(mag, vel, 150.0), 150.0)
        assert np.allclose(mag2.data, mag.data, rtol=1e-12)
        assert np.allclose(vel2.data, vel.data, rtol=1e-12, atol=1e-12)
