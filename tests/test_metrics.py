import dataclasses

import numpy as np
import pytest

from flowsr import (
    AcquisitionParams,
    EvalReport,
    Grid3,
    GridMismatchError,
    MaskError,
    ParameterError,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    evaluate,
    make_mask,
    load_dataset,
    poiseuille_phantom,
    save_dataset,
)

from conftest import reverse_frames


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


def _loop_peak_speed(ref_uvw, sel):
    speeds = []
    m, n, s = sel.shape
    for i in range(m):
        for j in range(n):
            for k in range(s):
                if sel[i, j, k]:
                    speeds.append(np.sqrt(sum(r[i, j, k] ** 2 for r in ref_uvw)))
    return max(speeds)


def _loop_mre(est_uvw, ref_uvw, sel):
    diffs = []
    m, n, s = sel.shape
    for i in range(m):
        for j in range(n):
            for k in range(s):
                if sel[i, j, k]:
                    diff = sum((e[i, j, k] - r[i, j, k]) ** 2 for e, r in zip(est_uvw, ref_uvw))
                    diffs.append(np.sqrt(diff))
    return 100.0 * np.mean(diffs) / _loop_peak_speed(ref_uvw, sel)


class TestFlowMask:
    def test_tiny_threshold_includes_all_nonzero(self, rng):
        g = Grid3(4, 4, 4)
        mag = rng.random(g.dims)
        mag[0, 0, 0] = 0.0
        mask = make_mask(_vol(g, mag), 1e-9)
        assert mask.sum() == g.voxel_count - 1

    def test_uniform_magnitude_includes_everything(self):
        g = Grid3(3, 3, 3)
        mask = make_mask(_vol(g, np.ones(g.dims)), 0.99)
        assert mask.sum() == g.voxel_count

    def test_poiseuille_mask_is_tube_interior(self):
        g = Grid3(16, 16, 8)
        ds = poiseuille_phantom(g, radius_voxels=5, vmax_per_frame=[50.0], venc=100.0)
        mask = make_mask(ds.frames[0].magnitude, 0.1)
        x, y = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        inside = ((x - 7.5) ** 2 + (y - 7.5) ** 2 < 25.0)[:, :, None] & np.ones((1, 1, 8), bool)
        assert np.array_equal(mask, inside)

    def test_threshold_domain(self):
        g = Grid3(2, 2, 2)
        with pytest.raises(ParameterError):
            make_mask(_vol(g, np.ones(g.dims)), 0.0)
        with pytest.raises(MaskError):
            make_mask(_vol(g, np.zeros(g.dims)), 0.5)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_read_only_c_contiguous(self, rng, order):
        # load_dataset returns F-ordered channels; the mask is C-ordered all the same
        g = Grid3(5, 4, 3)
        data = rng.random(g.dims)
        mag = _vol(g, np.asarray(data, order=order))
        assert mag.data.flags[f"{order}_CONTIGUOUS"]
        mask = make_mask(mag, 0.5)
        assert mask.dtype == bool and mask.shape == g.dims
        assert mask.flags.c_contiguous and not mask.flags.writeable
        assert np.array_equal(mask, data >= 0.5 * data.max())


def _dataset(grid, frames):
    params = AcquisitionParams(venc=100.0, frame_count=len(frames))
    return VelocityDataset(params, tuple(frames))


def _scored(est_uvw, ref_uvw, sel):
    """``evaluate``'s records of one frame, by channel, whose reference magnitude is ``sel``."""
    g = Grid3(*sel.shape)
    mag = sel.astype(float)
    est = _dataset(g, [_frame(g, *est_uvw, mag=mag)])
    ref = _dataset(g, [_frame(g, *ref_uvw, mag=mag)])
    return {r.channel: r.value for r in evaluate(est, ref).records}


class TestEvaluate:
    def _make(self, rng, frames=2, mags=None):
        g = Grid3(6, 6, 6)
        if mags is None:
            cube = np.zeros(g.dims)
            cube[1:5, 1:5, 1:5] = 1.0
            mags = [cube] * frames
        ref_frames, est_frames, base_frames = [], [], []
        for mag in mags:
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

    def test_a_label_equal_to_the_sr_label_needs_no_baseline(self, rng):
        # without a baseline there is one method, so its label names no other
        sr, ref, _ = self._make(rng)
        report = evaluate(sr, ref, baseline_method="fsr")
        assert report.records == evaluate(sr, ref).records

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

    def test_records_equal_the_loop_references(self, rng):
        sr, ref, base = self._make(rng, frames=3)
        report = evaluate(sr, ref, baseline=base)
        expected = []
        for f_idx, ref_frame in enumerate(ref.frames):
            mag = ref_frame.magnitude.data
            sel = mag >= 0.1 * mag.max()
            ref_uvw = [ref_frame.channel(ch).data for ch in "uvw"]
            peak = _loop_peak_speed(ref_uvw, sel)
            for method, ds in (("fsr", sr), ("trilinear", base)):
                est_uvw = [ds.frames[f_idx].channel(ch).data for ch in "uvw"]
                for ch, est, r in zip("uvw", est_uvw, ref_uvw):
                    expected.append((f_idx, ch, method, "psnr_db", _loop_psnr(est, r, sel, peak)))
                expected.append((f_idx, "all", method, "mre_percent", _loop_mre(est_uvw, ref_uvw, sel)))
        assert [(r.frame, r.channel, r.method, r.metric) for r in report.records] == [
            e[:4] for e in expected
        ]
        for r, e in zip(report.records, expected):
            assert abs(r.value - e[4]) < 1e-12

    def test_records_keep_their_bits(self, rng):
        # the gathers, sums and means in mask order, as numpy expressions:
        # equal to the last bit, so a stored CSV does not move
        sr, ref, base = self._make(rng, frames=2, mags=[rng.random((6, 6, 6)) for _ in range(2)])
        report = evaluate(sr, ref, baseline=base, mask_threshold=0.3)
        expected = []
        for f_idx, ref_frame in enumerate(ref.frames):
            sel = make_mask(ref_frame.magnitude, 0.3)
            refs = [ref_frame.channel(ch).data[sel] for ch in "uvw"]
            peak = float(np.sqrt((refs[0] ** 2 + refs[1] ** 2) + refs[2] ** 2).max())
            for ds in (sr, base):
                errs = [(ds.frames[f_idx].channel(ch).data[sel] - r) ** 2 for ch, r in zip("uvw", refs)]
                expected += [float(10.0 * np.log10(peak**2 / np.mean(e))) for e in errs]
                expected.append(100.0 * float(np.mean(np.sqrt((errs[0] + errs[1]) + errs[2])) / peak))
        assert [r.value for r in report.records] == expected

    def test_psnr_matches_loop_oracle(self, rng):
        dims = (5, 4, 3)
        est_uvw = [rng.standard_normal(dims) for _ in range(3)]
        ref_uvw = [rng.standard_normal(dims) for _ in range(3)]
        sel = rng.random(dims) > 0.4
        sel[0, 0, 0] = True
        got = _scored(est_uvw, ref_uvw, sel)
        peak = _loop_peak_speed(ref_uvw, sel)
        for ch, est, ref in zip("uvw", est_uvw, ref_uvw):
            assert abs(got[ch] - _loop_psnr(est, ref, sel, peak)) < 1e-12

    def test_mre_matches_loop_oracle(self, rng):
        dims = (4, 3, 3)
        ref_uvw = [rng.standard_normal(dims) for _ in range(3)]
        est_uvw = [r + 0.2 * rng.standard_normal(dims) for r in ref_uvw]
        sel = rng.random(dims) > 0.3
        sel[0, 0, 0] = True
        got = _scored(est_uvw, ref_uvw, sel)
        assert abs(got["all"] - _loop_mre(est_uvw, ref_uvw, sel)) < 1e-12

    def test_constant_offset_closed_form(self):
        dims = (4, 4, 4)
        ref_uvw = [np.full(dims, 3.0), np.full(dims, 4.0), np.zeros(dims)]  # speed 5
        got = _scored([r + 0.25 for r in ref_uvw], ref_uvw, np.ones(dims, bool))
        for ch in "uvw":
            assert abs(got[ch] - 10 * np.log10(5.0**2 / 0.25**2)) < 1e-12
        assert abs(got["all"] - 100.0 * 0.25 * np.sqrt(3) / 5.0) < 1e-12

    def test_single_voxel_scaling(self):
        dims = (2, 2, 2)
        u = np.zeros(dims)
        u[0, 0, 0] = 10.0
        zero = np.zeros(dims)
        sel = np.zeros(dims, bool)
        sel[0, 0, 0] = True
        got = _scored([0.9 * u, zero, zero], [u, zero, zero], sel)
        assert abs(got["all"] - 10.0) < 1e-12
        assert abs(got["u"] - 20.0) < 1e-12  # peak 10, error 1
        assert got["v"] == got["w"] == np.inf

    def test_rotation_invariance(self, rng):
        # the relative error depends only on difference norms and the peak
        # speed, so a global rotation of both fields leaves it unchanged
        dims = (3, 3, 3)
        ref = np.stack([rng.standard_normal(dims) for _ in range(3)])
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
        everywhere = np.ones(dims, bool)
        before = _scored(list(est), list(ref), everywhere)["all"]
        after = _scored(list(rot(est)), list(rot(ref)), everywhere)["all"]
        assert abs(before - after) < 1e-10

    def test_zero_reference_rejected(self):
        zero = np.zeros((2, 2, 2))
        with pytest.raises(ParameterError, match="reference flow is zero"):
            _scored([zero] * 3, [zero] * 3, np.ones(zero.shape, bool))

    def test_mask_locality(self, rng):
        # the estimate where the reference magnitude is 0 never counts
        sr, ref, base = self._make(rng)
        outside = (0, 0, 0)
        assert all(f.magnitude.data[outside] == 0 for f in ref.frames)

        def bumped(ds):
            frames = []
            for f in ds.frames:
                uvw = [f.channel(ch).data.copy() for ch in "uvw"]
                for data in uvw:
                    data[outside] += 100.0
                frames.append(_frame(ds.grid, *uvw, mag=f.magnitude.data))
            return _dataset(ds.grid, frames)

        assert (
            evaluate(bumped(sr), ref, baseline=bumped(base)).records
            == evaluate(sr, ref, baseline=base).records
        )

    def test_single_voxel_mask(self, rng):
        g = Grid3(6, 6, 6)
        mag = np.zeros(g.dims)
        mag[2, 2, 2] = 1.0
        sr, ref, _ = self._make(rng, mags=[mag, mag])
        report = evaluate(sr, ref)
        # error 0.1 in each channel, diff norm = 0.1*sqrt(3)
        for f_idx, frame in enumerate(ref.frames):
            speed = np.sqrt(sum(frame.channel(c).data[2, 2, 2] ** 2 for c in "uvw"))
            got = report.values("fsr", "mre_percent")[f_idx]
            assert abs(got - 100.0 * 0.1 * np.sqrt(3) / speed) < 1e-10

    def test_frame_reversal(self, rng):
        # each frame is scored alone, inside its own reference magnitude's mask
        g = Grid3(6, 6, 6)
        mags = [(rng.random(g.dims) < p).astype(float) for p in (0.3, 0.6, 0.9)]
        sr, ref, base = self._make(rng, mags=mags)
        report = evaluate(sr, ref, baseline=base)
        back = evaluate(reverse_frames(sr), reverse_frames(ref), baseline=reverse_frames(base))
        last = len(mags) - 1
        flipped = [dataclasses.replace(r, frame=last - r.frame) for r in back.records]
        key = lambda r: (r.frame, r.channel, r.method, r.metric)
        assert sorted(flipped, key=key) == sorted(report.records, key=key)

    def test_masks_keyword_is_gone(self, rng):
        sr, ref, _ = self._make(rng)
        with pytest.raises(TypeError):
            evaluate(sr, ref, masks=[make_mask(f.magnitude) for f in ref.frames])


class TestEvaluateFiles:
    """``evaluate`` of volume files reads them channel by channel, and scores them as their loads."""

    def _saved(self, tmp_path, rng, dims=(7, 5, 3), frames=2):
        g = Grid3(*dims)
        paths = {}
        for name, offset in (("sr", 0.1), ("ref", 0.0), ("base", 0.3)):
            data = np.random.default_rng(5)  # one draw per file: the same reference fields
            ds_frames = []
            for _ in range(frames):
                mag = data.random(g.dims)
                uvw = [data.standard_normal(g.dims) + offset * rng.standard_normal(g.dims)
                       for _ in range(3)]
                ds_frames.append(_frame(g, *uvw, mag=mag))
            paths[name] = tmp_path / f"{name}.flw4"
            save_dataset(_dataset(g, ds_frames), paths[name])
        return paths

    @pytest.mark.parametrize("threshold", [0.1, 0.37])
    def test_paths_score_as_their_loads(self, tmp_path, rng, threshold):
        p = self._saved(tmp_path, rng)
        from_files = evaluate(p["sr"], str(p["ref"]), baseline=p["base"], mask_threshold=threshold)
        loaded = evaluate(load_dataset(p["sr"]), load_dataset(p["ref"]),
                          baseline=load_dataset(p["base"]), mask_threshold=threshold)
        assert from_files.to_csv() == loaded.to_csv()

    def test_stored_magnitude_masks_as_its_load(self, tmp_path, rng):
        # float32(0.7) < 0.7: the threshold compares in float64, as for the
        # loaded file, so the voxel stays out of the mask
        g = Grid3(4, 3, 2)
        mag = np.full(g.dims, float(np.float32(0.7)))
        mag[0, 0, 0] = 1.0
        frame = _frame(g, *(rng.standard_normal(g.dims) for _ in range(3)), mag=mag)
        path = tmp_path / "ref.flw4"
        save_dataset(_dataset(g, [frame]), path)
        est = _dataset(g, [_frame(g, *(frame.channel(ch).data + 1.0 for ch in "uvw"), mag=mag)])
        save_dataset(est, tmp_path / "est.flw4")
        from_file = evaluate(tmp_path / "est.flw4", path, mask_threshold=0.7)
        loaded = evaluate(load_dataset(tmp_path / "est.flw4"), load_dataset(path), mask_threshold=0.7)
        assert from_file.to_csv() == loaded.to_csv()
        assert make_mask(load_dataset(path).frames[0].magnitude, 0.7).sum() == 1

    def test_paths_and_datasets_mix(self, tmp_path, rng):
        p = self._saved(tmp_path, rng)
        mixed = evaluate(p["sr"], load_dataset(p["ref"]), baseline=p["base"])
        assert mixed.to_csv() == evaluate(p["sr"], p["ref"], baseline=p["base"]).to_csv()

    def test_dims_mismatch_names_the_method(self, tmp_path, rng):
        p = self._saved(tmp_path, rng)
        (tmp_path / "small").mkdir()
        small = self._saved(tmp_path / "small", rng, dims=(7, 5, 2))
        with pytest.raises(GridMismatchError, match="trilinear grid differs"):
            evaluate(p["sr"], p["ref"], baseline=small["base"])

    def test_bad_threshold_fails_before_any_file_is_opened(self, tmp_path):
        missing = tmp_path / "missing.flw4"
        with pytest.raises(ParameterError, match="threshold_fraction"):
            evaluate(missing, missing, mask_threshold=1.5)

    @pytest.mark.parametrize("labels", [{"baseline_method": "fsr"},
                                        {"sr_method": "tri", "baseline_method": "tri"}])
    def test_equal_method_labels_fail_before_any_file_is_opened(self, tmp_path, labels):
        missing = tmp_path / "missing.flw4"
        with pytest.raises(ParameterError, match="could not be told apart"):
            evaluate(missing, missing, baseline=missing, **labels)
