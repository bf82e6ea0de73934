import numpy as np
import pytest

from flowsr import (
    AcquisitionParams,
    EvalReport,
    FlowMask,
    Grid3,
    GridMismatchError,
    MaskError,
    ParameterError,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    evaluate,
    make_mask,
    mean_relative_error,
    poiseuille_phantom,
    psnr,
)


def _vol(grid, data):
    return ScalarVolume(grid, data)


def _frame(grid, u, v, w, mag=None):
    mag = np.ones(grid.dims) if mag is None else mag
    return VelocityFrame(
        magnitude=_vol(grid, mag), u=_vol(grid, u), v=_vol(grid, v), w=_vol(grid, w)
    )


def _loop_psnr(est, ref, sel, peak):
    total, count = 0.0, 0
    m, n, s = est.shape
    for i in range(m):
        for j in range(n):
            for k in range(s):
                if sel[i, j, k]:
                    total += (est[i, j, k] - ref[i, j, k]) ** 2
                    count += 1
    return 10.0 * np.log10(peak**2 / (total / count))


def _loop_mre(est_uvw, ref_uvw, sel):
    diffs, peaks = [], []
    m, n, s = sel.shape
    for i in range(m):
        for j in range(n):
            for k in range(s):
                if sel[i, j, k]:
                    diff = sum((e[i, j, k] - r[i, j, k]) ** 2 for e, r in zip(est_uvw, ref_uvw))
                    speed = sum(r[i, j, k] ** 2 for r in ref_uvw)
                    diffs.append(np.sqrt(diff))
                    peaks.append(np.sqrt(speed))
    return 100.0 * np.mean(diffs) / max(peaks)


class TestFlowMask:
    def test_empty_mask_rejected(self):
        with pytest.raises(MaskError):
            FlowMask(Grid3(2, 2, 2), np.zeros((2, 2, 2), bool))

    def test_shape_checked(self):
        with pytest.raises(GridMismatchError):
            FlowMask(Grid3(2, 2, 2), np.ones((2, 2, 3), bool))

    def test_tiny_threshold_includes_all_nonzero(self, rng):
        g = Grid3(4, 4, 4)
        mag = rng.random(g.dims)
        mag[0, 0, 0] = 0.0
        mask = make_mask(_vol(g, mag), 1e-9)
        assert mask.voxels.sum() == g.voxel_count - 1

    def test_uniform_magnitude_includes_everything(self):
        g = Grid3(3, 3, 3)
        mask = make_mask(_vol(g, np.ones(g.dims)), 0.99)
        assert mask.voxels.sum() == g.voxel_count

    def test_poiseuille_mask_is_tube_interior(self):
        g = Grid3(16, 16, 8)
        ds = poiseuille_phantom(g, radius_voxels=5, vmax_per_frame=[50.0], venc=100.0)
        mask = make_mask(ds.frames[0].magnitude, 0.1)
        x, y = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        inside = ((x - 7.5) ** 2 + (y - 7.5) ** 2 < 25.0)[:, :, None] & np.ones((1, 1, 8), bool)
        assert np.array_equal(mask.voxels, inside)

    def test_threshold_domain(self):
        g = Grid3(2, 2, 2)
        with pytest.raises(ParameterError):
            make_mask(_vol(g, np.ones(g.dims)), 0.0)
        with pytest.raises(MaskError):
            make_mask(_vol(g, np.zeros(g.dims)), 0.5)


class TestPsnr:
    def test_identical_inputs_sentinel(self, rng):
        g = Grid3(3, 3, 3)
        a = _vol(g, rng.standard_normal(g.dims))
        mask = FlowMask(g, np.ones(g.dims, bool))
        assert psnr(a, a, mask) == np.inf

    def test_constant_offset_closed_form(self):
        g = Grid3(4, 4, 4)
        ref = _vol(g, np.full(g.dims, 5.0))
        est = _vol(g, np.full(g.dims, 5.0 + 0.25))
        mask = FlowMask(g, np.ones(g.dims, bool))
        expected = 10 * np.log10(2.0**2 / 0.25**2)
        assert abs(psnr(est, ref, mask, peak=2.0) - expected) < 1e-12

    def test_matches_loop_oracle(self, rng):
        g = Grid3(5, 4, 3)
        est = rng.standard_normal(g.dims)
        ref = rng.standard_normal(g.dims)
        sel = rng.random(g.dims) > 0.4
        sel[0, 0, 0] = True
        mask = FlowMask(g, sel)
        got = psnr(_vol(g, est), _vol(g, ref), mask, peak=1.7)
        assert abs(got - _loop_psnr(est, ref, sel, 1.7)) < 1e-12

    def test_default_peak_is_masked_ref_peak(self, rng):
        g = Grid3(4, 4, 4)
        ref = np.zeros(g.dims)
        ref[1, 1, 1] = 3.0
        ref[0, 0, 0] = -9.0  # outside the mask, must not set the peak
        sel = np.ones(g.dims, bool)
        sel[0, 0, 0] = False
        est = ref + 0.5
        got = psnr(_vol(g, est), _vol(g, ref), FlowMask(g, sel))
        assert abs(got - 10 * np.log10(3.0**2 / 0.25)) < 1e-12

    def test_mask_locality(self, rng):
        g = Grid3(4, 4, 4)
        sel = np.zeros(g.dims, bool)
        sel[:2] = True
        mask = FlowMask(g, sel)
        ref = rng.standard_normal(g.dims)
        est1 = rng.standard_normal(g.dims)
        est2 = est1.copy()
        est2[3, 3, 3] += 100.0  # outside the mask
        assert psnr(_vol(g, est1), _vol(g, ref), mask, peak=1.0) == psnr(
            _vol(g, est2), _vol(g, ref), mask, peak=1.0
        )

    def test_nonpositive_peak_rejected(self, rng):
        g = Grid3(2, 2, 2)
        zero = _vol(g, np.zeros(g.dims))
        mask = FlowMask(g, np.ones(g.dims, bool))
        with pytest.raises(ParameterError):
            psnr(zero, zero, mask)  # default peak is 0 here


class TestMeanRelativeError:
    def test_identical_is_zero(self, rng):
        g = Grid3(3, 3, 3)
        f = _frame(g, *(rng.standard_normal(g.dims) for _ in range(3)))
        mask = FlowMask(g, np.ones(g.dims, bool))
        assert mean_relative_error(f, f, mask) == 0.0

    def test_single_voxel_scaling(self):
        g = Grid3(2, 2, 2)
        u = np.zeros(g.dims)
        u[0, 0, 0] = 10.0
        ref = _frame(g, u, np.zeros(g.dims), np.zeros(g.dims))
        est = _frame(g, 0.9 * u, np.zeros(g.dims), np.zeros(g.dims))
        sel = np.zeros(g.dims, bool)
        sel[0, 0, 0] = True
        assert abs(mean_relative_error(est, ref, FlowMask(g, sel)) - 10.0) < 1e-12

    def test_matches_loop_oracle(self, rng):
        g = Grid3(4, 3, 3)
        ref_uvw = [rng.standard_normal(g.dims) for _ in range(3)]
        est_uvw = [r + 0.2 * rng.standard_normal(g.dims) for r in ref_uvw]
        sel = rng.random(g.dims) > 0.3
        sel[0, 0, 0] = True
        got = mean_relative_error(
            _frame(g, *est_uvw), _frame(g, *ref_uvw), FlowMask(g, sel)
        )
        assert abs(got - _loop_mre(est_uvw, ref_uvw, sel)) < 1e-12

    def test_rotation_invariance(self, rng):
        # depends only on difference norms and the peak speed, so a global
        # rotation of both fields leaves it unchanged
        g = Grid3(3, 3, 3)
        ref = np.stack([rng.standard_normal(g.dims) for _ in range(3)])
        est = ref + 0.3 * rng.standard_normal(ref.shape)
        theta = 0.7
        R = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1.0],
            ]
        )
        rot = lambda f: np.einsum("ab,bxyz->axyz", R, f)
        mask = FlowMask(g, np.ones(g.dims, bool))
        before = mean_relative_error(_frame(g, *est), _frame(g, *ref), mask)
        after = mean_relative_error(_frame(g, *rot(est)), _frame(g, *rot(ref)), mask)
        assert abs(before - after) < 1e-10

    def test_zero_reference_rejected(self):
        g = Grid3(2, 2, 2)
        zero = np.zeros(g.dims)
        f = _frame(g, zero, zero, zero)
        mask = FlowMask(g, np.ones(g.dims, bool))
        with pytest.raises(ParameterError):
            mean_relative_error(f, f, mask)


def _dataset(grid, frames):
    params = AcquisitionParams(venc=100.0, frame_count=len(frames))
    return VelocityDataset(params, tuple(frames))


class TestEvaluate:
    def _make(self, rng, frames=2):
        g = Grid3(6, 6, 6)
        ref_frames, est_frames, base_frames = [], [], []
        for _ in range(frames):
            mag = np.zeros(g.dims)
            mag[1:5, 1:5, 1:5] = 1.0
            ref_uvw = [rng.standard_normal(g.dims) for _ in range(3)]
            ref_frames.append(_frame(g, *ref_uvw, mag=mag))
            est_frames.append(_frame(g, *(r + 0.1 for r in ref_uvw), mag=mag))
            base_frames.append(_frame(g, *(r + 0.3 for r in ref_uvw), mag=mag))
        return (
            _dataset(g, est_frames),
            _dataset(g, ref_frames),
            _dataset(g, base_frames),
        )

    def test_identical_inputs(self, rng):
        sr, ref, _ = self._make(rng)
        report = evaluate(ref, ref, baseline=None)
        assert all(r.value == np.inf for r in report.records if r.metric == "psnr_db")
        assert all(r.value == 0.0 for r in report.records if r.metric == "mre_percent")

    def test_record_counts(self, rng):
        sr, ref, base = self._make(rng, frames=3)
        report = evaluate(sr, ref, baseline=base)
        psnr_rows = [r for r in report.records if r.metric == "psnr_db"]
        mre_rows = [r for r in report.records if r.metric == "mre_percent"]
        assert len(psnr_rows) == 3 * 3 * 2  # frames x channels x methods
        assert len(mre_rows) == 3 * 2  # frames x methods
        assert {r.method for r in report.records} == {"fsr", "trilinear"}

    def test_better_method_scores_better(self, rng):
        sr, ref, base = self._make(rng)
        report = evaluate(sr, ref, baseline=base)
        assert report.mean("fsr", "psnr_db") > report.mean("trilinear", "psnr_db")
        assert report.mean("fsr", "mre_percent") < report.mean("trilinear", "mre_percent")

    def test_csv_round_trip(self, rng):
        sr, ref, base = self._make(rng)
        report = evaluate(sr, ref, baseline=base)
        text = report.to_csv()
        assert text.startswith("frame,channel,method,metric,value\n")
        assert "\r" not in text
        back = EvalReport.from_csv(text)
        assert back.records == report.records

    def test_frame_count_mismatch(self, rng):
        sr, ref, _ = self._make(rng)
        short = _dataset(ref.grid, list(ref.frames[:1]))
        with pytest.raises(GridMismatchError):
            evaluate(sr, short)

    @pytest.mark.parametrize("explicit_masks", [False, True], ids=["threshold", "explicit"])
    def test_records_equal_the_public_metrics(self, rng, explicit_masks):
        # one pass per frame and method gives exactly what psnr (at the
        # frame's peak masked reference speed) and mean_relative_error give
        sr, ref, base = self._make(rng, frames=3)
        if explicit_masks:
            masks = [FlowMask(ref.grid, rng.random(ref.grid.dims) < 0.5) for _ in ref.frames]
        else:
            masks = [make_mask(f.magnitude) for f in ref.frames]
        report = evaluate(sr, ref, baseline=base, masks=masks if explicit_masks else None)
        expected = []
        for f_idx, (ref_frame, mask) in enumerate(zip(ref.frames, masks)):
            sel = mask.voxels
            peak = float(np.sqrt(sum(ref_frame.channel(c).data[sel] ** 2 for c in "uvw")).max())
            for method, ds in (("fsr", sr), ("trilinear", base)):
                frame = ds.frames[f_idx]
                for ch in "uvw":
                    value = psnr(frame.channel(ch), ref_frame.channel(ch), mask, peak=peak)
                    expected.append((f_idx, ch, method, "psnr_db", value))
                value = mean_relative_error(frame, ref_frame, mask)
                expected.append((f_idx, "all", method, "mre_percent", value))
        got = [(r.frame, r.channel, r.method, r.metric, r.value) for r in report.records]
        assert got == expected

    def test_mask_on_another_grid(self, rng):
        sr, ref, _ = self._make(rng)
        other = Grid3(6, 6, 5)
        masks = [FlowMask(other, np.ones(other.dims, bool))] * len(ref.frames)
        with pytest.raises(GridMismatchError, match="mask 0"):
            evaluate(sr, ref, masks=masks)

    def test_external_masks_respected(self, rng):
        sr, ref, _ = self._make(rng)
        g = ref.grid
        sel = np.zeros(g.dims, bool)
        sel[2, 2, 2] = True
        masks = [FlowMask(g, sel)] * len(ref.frames)
        report = evaluate(sr, ref, masks=masks)
        # single-voxel mask: error 0.1 in each channel, diff norm = 0.1*sqrt(3)
        expected = 100.0 * 0.1 * np.sqrt(3) / np.sqrt(
            sum(ref.frames[0].channel(c).data[2, 2, 2] ** 2 for c in "uvw")
        )
        got = report.values("fsr", "mre_percent")[0]
        assert abs(got - expected) < 1e-10
