import dataclasses
import struct
import tracemalloc
import types

import numpy as np
import pytest

import flowsr.volio
from flowsr import (
    AcquisitionParams,
    FormatError,
    Grid3,
    ParameterError,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    load_dataset,
    poiseuille_phantom,
    save_dataset,
)
from flowsr.volio import HEADER_SIZE, MAGIC, VERSION, StreamWriter, open_channels

from conftest import swap_axes


@pytest.fixture
def dataset():
    return poiseuille_phantom(
        Grid3(6, 6, 4, (1.5, 1.5, 2.0)),
        radius_voxels=2,
        vmax_per_frame=[80.0, 55.0],
        venc=130.0,
        magnitude_out=0.1,
    )


def _write(tmp_path, raw: bytes, name="vol.flw4"):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


class TestRoundTrip:
    def test_values_survive_as_float32(self, tmp_path, dataset):
        path = tmp_path / "ds.flw4"
        save_dataset(dataset, path)
        back = load_dataset(path)
        assert back.grid == dataset.grid
        assert back.params.venc == dataset.params.venc
        assert len(back.frames) == len(dataset.frames)
        for f1, f2 in zip(dataset.frames, back.frames):
            for ch in ("magnitude", "u", "v", "w"):
                expected = f1.channel(ch).data.astype(np.float32).astype(np.float64)
                assert np.array_equal(f2.channel(ch).data, expected)

    @pytest.mark.parametrize("perm", [(1, 0, 2), (2, 1, 0)], ids=["xy", "xz"])
    def test_round_trip_commutes_with_axis_swap(self, tmp_path, rng, perm):
        # random samples on unequal dims and spacings: any axis the file
        # layout mixes up shows
        g = Grid3(5, 4, 3, (1.0, 1.5, 2.0))
        frames = [
            VelocityFrame(
                magnitude=ScalarVolume(g, rng.random(g.dims)),
                **{ch: ScalarVolume(g, rng.uniform(-90.0, 90.0, g.dims)) for ch in "uvw"},
            )
            for _ in range(2)
        ]
        ds = VelocityDataset(AcquisitionParams(venc=100.0, frame_count=2), frames)

        def round_trip(ds, name):
            save_dataset(ds, tmp_path / name)
            return load_dataset(tmp_path / name)

        got = round_trip(swap_axes(ds, perm), "swapped.flw4")
        want = swap_axes(round_trip(ds, "plain.flw4"), perm)
        assert got.grid == want.grid and got.params == want.params
        for f_got, f_want in zip(got.frames, want.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert np.array_equal(f_got.channel(ch).data, f_want.channel(ch).data)

    def test_save_load_save_bit_identical(self, tmp_path, dataset):
        p1, p2 = tmp_path / "a.flw4", tmp_path / "b.flw4"
        save_dataset(dataset, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_temp_files_left(self, tmp_path, dataset):
        save_dataset(dataset, tmp_path / "ds.flw4")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.flw4"]

    def test_params_survive(self, tmp_path, dataset):
        # every AcquisitionParams field has to be one the file holds
        assert dataset.params.frame_count > 1
        path = tmp_path / "ds.flw4"
        save_dataset(dataset, path)
        assert load_dataset(path).params == dataset.params

    def test_venc_governs_downstream(self, tmp_path, dataset):
        path = tmp_path / "ds.flw4"
        save_dataset(dataset, path)
        assert load_dataset(path).params.venc == 130.0

    def test_loaded_arrays_are_read_only(self, tmp_path, dataset):
        path = tmp_path / "ds.flw4"
        save_dataset(dataset, path)
        for frame in load_dataset(path).frames:
            for ch in ("magnitude", "u", "v", "w"):
                with pytest.raises(ValueError):
                    frame.channel(ch).data[0, 0, 0] = 1.0

    def test_load_holds_one_float32_channel(self, tmp_path):
        # the float64 dataset is twice the payload; one float32 channel
        # buffer (a quarter of a one-frame payload) is all a load adds to it
        ds = poiseuille_phantom(Grid3(32, 32, 32), radius_voxels=10, vmax_per_frame=[80.0], venc=130.0)
        path = tmp_path / "ds.flw4"
        save_dataset(ds, path)
        payload = path.stat().st_size - HEADER_SIZE
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.3 * payload


class TestSaveDataset:
    def test_save_holds_one_float32_copy_of_a_channel(self, tmp_path):
        ds = poiseuille_phantom(
            Grid3(32, 32, 32), radius_voxels=10, vmax_per_frame=[80.0, 50.0], venc=130.0
        )
        channel_bytes = 4 * ds.grid.voxel_count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_dataset(ds, tmp_path / "ds.flw4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.5 * channel_bytes

    def test_save_refuses_samples_beyond_float32(self, tmp_path, dataset):
        # a channel that overflows float32 would write a file that
        # load_dataset rejects as non-finite
        path = tmp_path / "ds.flw4"
        save_dataset(dataset, path)
        old = path.read_bytes()
        frames = list(dataset.frames)
        huge = ScalarVolume(dataset.grid, np.full(dataset.grid.dims, 1e39))
        frames[1] = dataclasses.replace(frames[1], v=huge)
        bad = dataclasses.replace(dataset, frames=tuple(frames))
        with pytest.raises(ParameterError, match="frame 1 channel v"):
            save_dataset(bad, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.flw4"]

    def test_save_dataset_failing_midway_keeps_the_old_file(self, tmp_path, dataset, monkeypatch):
        path = tmp_path / "ds.flw4"
        save_dataset(dataset, path)
        old = path.read_bytes()
        calls = []
        real = flowsr.volio._channel_bytes

        def fail_on_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return real(*args)

        monkeypatch.setattr(flowsr.volio, "_channel_bytes", fail_on_third)
        with pytest.raises(OSError, match="no space"):
            save_dataset(dataset, path)
        assert len(calls) == 3
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.flw4"]
        calls.clear()
        with pytest.raises(OSError, match="no space"):
            save_dataset(dataset, tmp_path / "new.flw4")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.flw4"]


class TestChannelBytes:
    @pytest.mark.parametrize("dims", [(33, 17, 19), (64, 64, 32), (16, 1, 40), (1, 1, 1)])
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    def test_bytes_of_the_one_pass_cast(self, rng, dims, order):
        # the slab-by-slab transpose writes what one transposing cast writes
        data = rng.standard_normal(dims) * 1e3
        if order == "F":
            data = np.asfortranarray(data)
        elif order == "strided":
            data = rng.standard_normal((2 * dims[0], dims[1], dims[2]))[::2]
        got = flowsr.volio._channel_bytes(data, 0, "u")
        assert got.dtype == np.dtype("<f4") and got.shape == (data.size,)
        assert got.tobytes() == np.asfortranarray(data, dtype="<f4").ravel(order="F").tobytes()


def _stream_targets(tmp_path, names=("a", "b", "c", "d")):
    # four targets holding old bytes, as a pipeline rerun finds them
    paths = [tmp_path / f"{name}.flw4" for name in names]
    for path in paths:
        path.write_bytes(b"old " + path.name.encode())
    return paths


def _targets_unchanged(tmp_path, paths):
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)
    for path in paths:
        assert path.read_bytes() == b"old " + path.name.encode()


def _fill_the_disk(path):
    # two chunks into a StreamWriter file, then the error of a full disk
    with StreamWriter() as out:
        fh = out.file(path)
        fh.write(b"new chunk 0\n")
        fh.write(b"new chunk 1\n")
        raise OSError("no space left on device")


class TestStreamWriter:
    def test_streamed_files_equal_saved_ones(self, tmp_path, dataset):
        save_dataset(dataset, tmp_path / "saved.flw4")
        with StreamWriter() as out:
            streams = [out.volume(tmp_path / f"{i}.flw4", dataset.grid, dataset.params) for i in range(2)]
            for f_idx, frame in enumerate(dataset.frames):  # interleaved, frame by frame
                for stream in streams:
                    stream.write_frame(f_idx, frame)
            out.file(tmp_path / "notes.txt").write(b"done\n")
            assert sorted(p.name for p in tmp_path.iterdir() if not p.name.startswith(".")) == ["saved.flw4"]
            out.commit()
        for i in range(2):
            assert (tmp_path / f"{i}.flw4").read_bytes() == (tmp_path / "saved.flw4").read_bytes()
        assert (tmp_path / "notes.txt").read_bytes() == b"done\n"
        assert not list(tmp_path.glob(".flowsr-*"))

    def test_overflow_in_a_late_frame_keeps_all_four_targets(self, tmp_path, dataset):
        paths = _stream_targets(tmp_path)
        huge = np.full(dataset.grid.dims, 1e39)
        with pytest.raises(ParameterError, match="frame 1 channel w overflows float32"):
            with StreamWriter() as out:
                streams = [out.volume(p, dataset.grid, dataset.params) for p in paths]
                streams[0].write_frame(0, dataset.frames[0])
                streams[0].write_frame(1, dataset.frames[1])
                for stream in streams[1:]:
                    stream.write_frame(0, dataset.frames[0])
                frame = dataset.frames[1]
                for ch in ("magnitude", "u", "v"):
                    streams[3].write(1, ch, frame.channel(ch).data)
                streams[3].write(1, "w", huge)
        _targets_unchanged(tmp_path, paths)

    def test_oserror_in_a_late_frame_keeps_all_four_targets(self, tmp_path, dataset, monkeypatch):
        paths = _stream_targets(tmp_path)
        calls = []
        real = flowsr.volio._channel_bytes

        def fail_late(*args):
            calls.append(args)
            if len(calls) == 16 + 3 * 4 + 3:  # frame 1's v block in the last of the four files
                raise OSError("no space left on device")
            return real(*args)

        monkeypatch.setattr(flowsr.volio, "_channel_bytes", fail_late)
        with pytest.raises(OSError, match="no space"):
            with StreamWriter() as out:
                streams = [out.volume(p, dataset.grid, dataset.params) for p in paths]
                for f_idx, frame in enumerate(dataset.frames):
                    for stream in streams:
                        stream.write_frame(f_idx, frame)
                out.commit()
        assert calls[-1][1:] == (1, "v")
        _targets_unchanged(tmp_path, paths)

    @pytest.mark.parametrize("block", [(0, "u"), (1, "magnitude"), (0, "velocity")])
    def test_block_out_of_order_is_a_format_error(self, tmp_path, dataset, block):
        path = tmp_path / "ds.flw4"
        with pytest.raises(FormatError, match=r"expected \(0, 'magnitude'\)"):
            with StreamWriter() as out:
                out.volume(path, dataset.grid, dataset.params).write(*block, np.zeros(dataset.grid.dims))
        assert list(tmp_path.iterdir()) == []

    def test_block_after_the_last_is_a_format_error(self, tmp_path, dataset):
        with pytest.raises(FormatError, match="expected no block"):
            with StreamWriter() as out:
                stream = out.volume(tmp_path / "ds.flw4", dataset.grid, dataset.params)
                for f_idx, frame in enumerate(dataset.frames):
                    stream.write_frame(f_idx, frame)
                stream.write_frame(2, dataset.frames[0])
        assert list(tmp_path.iterdir()) == []

    def test_block_of_another_shape_is_a_format_error(self, tmp_path, dataset):
        with pytest.raises(FormatError, match="shaped"):
            with StreamWriter() as out:
                out.volume(tmp_path / "ds.flw4", dataset.grid, dataset.params).write(
                    0, "magnitude", np.zeros((2, 2, 2)))
        assert list(tmp_path.iterdir()) == []

    def test_missing_blocks_fail_the_commit(self, tmp_path, dataset):
        paths = _stream_targets(tmp_path, names=("full", "short"))
        with pytest.raises(FormatError, match=r"short.flw4: blocks missing from .*\(1, 'w'\)"):
            with StreamWriter() as out:
                full, short = (out.volume(p, dataset.grid, dataset.params) for p in paths)
                for f_idx, frame in enumerate(dataset.frames):
                    full.write_frame(f_idx, frame)
                short.write_frame(0, dataset.frames[0])
                for ch in ("magnitude", "u", "v"):
                    short.write(1, ch, dataset.frames[1].channel(ch).data)
                out.commit()
        _targets_unchanged(tmp_path, paths)

    def test_failure_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents")
        with pytest.raises(OSError, match="no space"):
            _fill_the_disk(path)
        assert path.read_bytes() == b"old contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failure_creates_no_new_file(self, tmp_path):
        with pytest.raises(OSError, match="no space"):
            _fill_the_disk(tmp_path / "out.txt")
        assert list(tmp_path.iterdir()) == []

    def test_leaving_without_a_commit_writes_nothing(self, tmp_path, dataset):
        with StreamWriter() as out:
            stream = out.volume(tmp_path / "ds.flw4", dataset.grid, dataset.params)
            for f_idx, frame in enumerate(dataset.frames):
                stream.write_frame(f_idx, frame)
        assert list(tmp_path.iterdir()) == []


def _header(magic=MAGIC, version=VERSION, layout=1, dims=(2, 2, 2), frames=1,
            venc=100.0, spacing=(1.0, 1.0, 1.0)):
    return struct.pack("<4sHH4I4d", magic, version, layout, *dims, frames, venc, *spacing)


def _payload(dims=(2, 2, 2), frames=1, value=1.0):
    count = frames * 4 * int(np.prod(dims))
    return np.full(count, value, dtype="<f4").tobytes()


class TestCorruptFiles:
    def test_truncated_header(self, tmp_path):
        path = _write(tmp_path, b"FLW4\x01")
        with pytest.raises(FormatError, match="header"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        raw = _header(magic=b"NOPE") + _payload()
        with pytest.raises(FormatError, match="offset 0"):
            load_dataset(_write(tmp_path, raw))

    def test_bad_version(self, tmp_path):
        raw = _header(version=9) + _payload()
        with pytest.raises(FormatError, match="offset 4"):
            load_dataset(_write(tmp_path, raw))

    def test_bad_layout(self, tmp_path):
        raw = _header(layout=7) + _payload()
        with pytest.raises(FormatError, match="offset 6"):
            load_dataset(_write(tmp_path, raw))

    def test_zero_dims(self, tmp_path):
        raw = _header(dims=(0, 2, 2)) + _payload()
        with pytest.raises(FormatError, match="offset 8"):
            load_dataset(_write(tmp_path, raw))

    def test_zero_frames(self, tmp_path):
        raw = _header(frames=0) + _payload(frames=0)
        with pytest.raises(FormatError, match="offset 20"):
            load_dataset(_write(tmp_path, raw))

    def test_bad_venc(self, tmp_path):
        raw = _header(venc=-5.0) + _payload()
        with pytest.raises(FormatError, match="offset 24"):
            load_dataset(_write(tmp_path, raw))

    def test_bad_spacing(self, tmp_path):
        raw = _header(spacing=(1.0, 0.0, 1.0)) + _payload()
        with pytest.raises(FormatError, match="offset 32"):
            load_dataset(_write(tmp_path, raw))

    def test_truncated_payload_names_offset(self, tmp_path):
        raw = _header() + _payload()[:-8]
        expected_end = HEADER_SIZE + 4 * 8 * 4
        with pytest.raises(FormatError, match=f"ends at offset {expected_end - 8}"):
            load_dataset(_write(tmp_path, raw))

    def test_file_shrinking_after_its_size_is_read(self, tmp_path, monkeypatch):
        # the size check passes, then a channel read comes up short
        path = _write(tmp_path, _header() + _payload()[:-8])
        full = HEADER_SIZE + 4 * 8 * 4
        monkeypatch.setattr(flowsr.volio.os, "fstat", lambda fd: types.SimpleNamespace(st_size=full))
        with pytest.raises(FormatError, match=f"ends at offset {full - 8}"):
            load_dataset(path)

    def test_trailing_garbage(self, tmp_path):
        raw = _header() + _payload() + b"xx"
        with pytest.raises(FormatError, match="trailing data"):
            load_dataset(_write(tmp_path, raw))

    def test_nonfinite_sample_names_frame_and_channel(self, tmp_path):
        samples = np.full(4 * 8, 1.0, dtype="<f4")
        samples[8] = np.inf  # first sample of channel u
        raw = _header() + samples.tobytes()
        with pytest.raises(FormatError, match="frame 0 channel u"):
            load_dataset(_write(tmp_path, raw))


class TestOpenChannels:
    def test_blocks_come_in_file_order_from_one_buffer(self, tmp_path, dataset):
        path = tmp_path / "ds.flw4"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        seen = []
        with open_channels(path) as (grid, params, blocks):
            assert grid == dataset.grid and params == dataset.params
            for f_idx, ch, block in blocks:
                assert block.dtype == np.float32 and block.shape == dataset.grid.dims
                assert not block.flags.writeable
                assert np.array_equal(block, loaded.frames[f_idx].channel(ch).data)
                seen.append((f_idx, ch, block.__array_interface__["data"][0]))
        order = [(f, ch) for f in range(2) for ch in ("magnitude", "u", "v", "w")]
        assert [(f, ch) for f, ch, _ in seen] == order
        assert len({address for _, _, address in seen}) == 1

    def test_header_is_checked_when_opened(self, tmp_path):
        path = _write(tmp_path, _header(frames=2) + _payload(frames=1))
        with pytest.raises(FormatError, match="payload truncated"):
            with open_channels(path):
                pass

    def test_each_block_is_checked_when_reached(self, tmp_path):
        samples = np.full(2 * 4 * 8, 1.0, dtype="<f4")
        samples[-1] = np.nan  # last sample of frame 1 channel w
        path = _write(tmp_path, _header(frames=2) + samples.tobytes())
        blocks = []
        with pytest.raises(FormatError, match=f"frame 1 channel w .*offset {HEADER_SIZE + 7 * 32}"):
            with open_channels(path) as (_, _, stream):
                for f_idx, ch, _ in stream:
                    blocks.append((f_idx, ch))
        assert len(blocks) == 7
