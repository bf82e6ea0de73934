import dataclasses
import pathlib
import re
import shlex
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import flowsr.cli
import flowsr.degrade
import flowsr.interp
import flowsr.solver
import flowsr.volio
from flowsr import (
    ConfigError,
    DegradationConfig,
    EvalReport,
    FormatError,
    Grid3,
    ParameterError,
    RunConfig,
    SolverConfig,
    VelocityDataset,
    degrade_dataset,
    evaluate,
    format_config_text,
    helix_phantom,
    load_dataset,
    parse_config_text,
    pulsatile_profile,
    save_dataset,
    superresolve_dataset,
    upsample_dataset,
)
from flowsr.cli import build_parser, main
from flowsr.interp import _axis_weights
from flowsr.volio import HEADER_SIZE, atomic_write


def run(*argv):
    return main(list(argv))


class _BrokenSpill:
    """``flowsr pipeline``'s spill file with one fault: a failing write or read, or a lost byte."""

    def __init__(self, fh, fault):
        self._fh, self._fault = fh, fault

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def writelines(self, chunks):
        if self._fault == "write":
            raise OSError("no space left on device")
        self._fh.writelines(chunks)

    def seek(self, offset):
        if self._fault == "truncate":
            self._fh.truncate(self._fh.tell() - 1)
        return self._fh.seek(offset)

    def tell(self):
        return self._fh.tell()

    def readinto(self, buffer):
        if self._fault == "read":
            raise OSError("input/output error")
        return self._fh.readinto(buffer)


@pytest.fixture
def hr_file(tmp_path):
    path = tmp_path / "hr.flw4"
    assert (
        run(
            "simulate",
            "--phantom", "poiseuille",
            "--dims", "16,16,16",
            "--frames", "2",
            "--venc", "150",
            "--vmax", "120",
            "--out", str(path),
        )
        == 0
    )
    return path


@pytest.fixture
def lr_file(tmp_path, hr_file):
    path = tmp_path / "lr.flw4"
    assert (
        run(
            "degrade",
            "--in", str(hr_file),
            "--out", str(path),
            "--factor", "2,2,2",
            "--noise-psnr", "15",
            "--seed", "7",
        )
        == 0
    )
    return path


class TestSimulate:
    def test_output_loads(self, hr_file):
        ds = load_dataset(hr_file)
        assert ds.grid.dims == (16, 16, 16)
        assert len(ds.frames) == 2

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("simulate", "--dims", "8,8,8")
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.flw4", tmp_path / "b.flw4"
        for p in (a, b):
            run("simulate", "--dims", "8,8,8", "--frames", "1", "--out", str(p))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_dims_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("simulate", "--dims", "8,8", "--out", "x.flw4")
        assert excinfo.value.code == 2

    def test_infinite_spacing_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "s.flw4"
        assert run("simulate", "--dims", "8,8,8", "--frames", "1", "--spacing", "inf,1,1",
                   "--out", str(out)) == 1
        assert "spacing" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_kernel_fwhm_is_runtime_error(self, tmp_path, capsys):
        # rejected with the config, before any file is written
        out = tmp_path / "run"
        small = ("--dims", "8,8,8", "--frames", "1", "--factor", "2,2,2", "--kernel", "gaussian")
        assert run("pipeline", "--out-dir", str(out), *small, "--kernel-fwhm=-1,2,2") == 1
        assert "kernel_fwhm" in capsys.readouterr().err
        config = tmp_path / "bad.cfg"
        config.write_text("dims = 8,8,8\nframes = 1\nfactor = 2,2,2\nkernel = gaussian\nkernel_fwhm = 0,2,2\n")
        assert run("pipeline", "--out-dir", str(out), "--config", str(config)) == 1
        assert "kernel_fwhm" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.flw4"))

    def test_negative_radius_is_runtime_error(self, tmp_path, capsys):
        # only 0 means the automatic radius
        out = tmp_path / "r.flw4"
        assert run("simulate", "--dims", "8,8,8", "--frames", "1", "--radius", "-3",
                   "--out", str(out)) == 1
        assert "radius" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_are_the_pipeline_defaults(self, tmp_path):
        alone = tmp_path / "hr.flw4"
        assert run("simulate", "--dims", "16,16,16", "--frames", "2", "--out", str(alone)) == 0
        assert run("pipeline", "--out-dir", str(tmp_path / "run"), "--dims", "16,16,16",
                   "--frames", "2", "--factor", "2,2,2") == 0
        assert alone.read_bytes() == (tmp_path / "run" / "hr.flw4").read_bytes()


class TestDegrade:
    def test_writes_sidecar_with_achieved_psnr(self, tmp_path, lr_file):
        side = (tmp_path / "lr.flw4.cal").read_text()
        entries = dict(
            line.split(" = ") for line in side.strip().splitlines()
        )
        assert abs(float(entries["achieved_psnr_db"]) - 15.0) < 0.5
        assert float(entries["sigma"]) > 0
        assert entries["kernel"] == "ideal"

    def test_factor_one_noiseless_is_identity(self, tmp_path, hr_file):
        out = tmp_path / "same.flw4"
        assert run("degrade", "--in", str(hr_file), "--out", str(out), "--factor", "1,1,1") == 0
        a, b = load_dataset(hr_file), load_dataset(out)
        for f1, f2 in zip(a.frames, b.frames):
            for ch in ("magnitude", "u", "v", "w"):
                assert np.array_equal(f1.channel(ch).data, f2.channel(ch).data)

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = run("degrade", "--in", str(tmp_path / "nope.flw4"), "--out", "o", "--factor", "2,2,2")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_nondivisible_factor_is_runtime_error(self, hr_file, tmp_path, capsys):
        code = run(
            "degrade", "--in", str(hr_file), "--out", str(tmp_path / "o.flw4"), "--factor", "3,3,3"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_runtime_error(self, hr_file, tmp_path, capsys):
        out = tmp_path / "o.flw4"
        code = run("degrade", "--in", str(hr_file), "--out", str(out), "--factor", "2,2,2",
                   "--noise-psnr", "15", "--seed", "-2")
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "o.flw4.cal").exists()


    def test_zero_noise_psnr_calibrates_to_0_db(self, hr_file, tmp_path):
        # only pipeline's flag reads <= 0 as noiseless
        out = tmp_path / "o.flw4"
        assert run("degrade", "--in", str(hr_file), "--out", str(out), "--factor", "2,2,2",
                   "--noise-psnr", "0") == 0
        side = (tmp_path / "o.flw4.cal").read_text()
        entries = dict(line.split(" = ") for line in side.strip().splitlines())
        assert entries["target_psnr_db"] == "0.0"
        assert float(entries["sigma"]) > 0

    def test_noise_target_that_underflows_is_runtime_error(self, hr_file, tmp_path, capsys):
        out = tmp_path / "o.flw4"
        assert run("degrade", "--in", str(hr_file), "--out", str(out), "--factor", "2,2,2",
                   "--noise-psnr", "7000") == 1
        assert "error: target PSNR 7000 dB is too high" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "o.flw4.cal").exists()

    def test_a_failing_noise_draw_writes_nothing(self, hr_file, tmp_path, monkeypatch, capsys):
        def failing(*args):
            raise ParameterError("the noise draw failed")

        monkeypatch.setattr(flowsr.degrade, "seeded_rng", failing)
        start = threading.active_count()
        out = tmp_path / "lr.flw4"
        assert run("degrade", "--in", str(hr_file), "--out", str(out), "--factor", "2,2,2",
                   "--noise-psnr", "15") == 1
        assert "error: the noise draw failed" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "lr.flw4.cal").exists()
        assert threading.active_count() == start

    def test_a_missing_calibration_directory_writes_neither_file(self, hr_file, tmp_path, capsys):
        # the volume and its calibration are committed together
        out = tmp_path / "lr.flw4"
        assert run("degrade", "--in", str(hr_file), "--out", str(out), "--factor", "2,2,2",
                   "--noise-psnr", "15", "--calibration-out", str(tmp_path / "missing" / "x.cal")) == 1
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["hr.flw4"]

    @pytest.mark.parametrize("cal_name", ["lr.flw4", "./lr.flw4"])
    def test_calibration_out_on_the_out_path_writes_neither_file(self, hr_file, tmp_path, capsys,
                                                                   cal_name):
        # one writer takes one file per target: the last rename would win
        out = tmp_path / "lr.flw4"
        assert run("degrade", "--in", str(hr_file), "--out", str(out), "--factor", "2,2,2",
                   "--noise-psnr", "15", "--calibration-out", f"{tmp_path}/{cal_name}") == 1
        assert f"error: {tmp_path}/{cal_name}: already an output" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["hr.flw4"]

    @pytest.mark.parametrize("factor", ["2,2,1", "1,1,1"])
    @pytest.mark.parametrize("kernel, noise", [("ideal", "15"), ("ideal", None), ("gaussian", "15"),
                                               ("gaussian", None)])
    def test_output_is_that_of_degrade_dataset(self, hr_file, tmp_path, kernel, noise, factor):
        # the command streams the file frame by frame; at rate 1 its spill takes
        # the loaded frames' x-fastest signals
        out = tmp_path / "lr.flw4"
        argv = ["degrade", "--in", str(hr_file), "--out", str(out), "--factor", factor,
                "--kernel", kernel, "--seed", "3"]
        assert run(*argv, *(() if noise is None else ("--noise-psnr", noise))) == 0
        cfg = DegradationConfig(d=tuple(map(int, factor.split(","))), kernel=kernel,
                                noise_psnr_db=None if noise is None else float(noise), rng_seed=3)
        lr, cal = degrade_dataset(load_dataset(hr_file), cfg)
        save_dataset(lr, tmp_path / "expected.flw4")
        assert out.read_bytes() == (tmp_path / "expected.flw4").read_bytes()
        assert (tmp_path / "lr.flw4.cal").read_text() == flowsr.cli._calibration_text(cal, cfg)


class TestSr:
    def test_fsr_with_reports(self, tmp_path, lr_file):
        out = tmp_path / "sr.flw4"
        rep = tmp_path / "solves.csv"
        code = run(
            "sr",
            "--in", str(lr_file),
            "--out", str(out),
            "--factor", "2,2,2",
            "--method", "fsr",
            "--tau", "0.05",
            "--report-out", str(rep),
        )
        assert code == 0
        assert load_dataset(out).grid.dims == (16, 16, 16)
        lines = rep.read_text().strip().splitlines()
        assert lines[0] == "frame,channel,residual_norm,prior_distance,objective,wall_time_s"
        assert len(lines) == 1 + 2 * 3

    def test_trilinear_method(self, tmp_path, lr_file):
        out = tmp_path / "tri.flw4"
        assert run("sr", "--in", str(lr_file), "--out", str(out), "--factor", "2,2,2",
                   "--method", "trilinear") == 0
        assert load_dataset(out).grid.dims == (16, 16, 16)

    @pytest.mark.parametrize("method, report, message", [
        ("trilinear", "r.csv", "trilinear upsampling makes no solve reports"),
        ("tricubic", "r.csv", "tricubic upsampling makes no solve reports"),
        ("fsr", "./sr.flw4", "sr.flw4 is also --out")])
    def test_a_report_out_that_would_not_be_written_fails_before_the_read(self, tmp_path, capsys,
                                                                           method, report, message):
        # the input is missing, so an error about it would mean it was read first
        assert run("sr", "--in", str(tmp_path / "missing.flw4"), "--out", str(tmp_path / "sr.flw4"),
                   "--factor", "2,2,2", "--method", method,
                   "--report-out", f"{tmp_path}/{report}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --report-out: ") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_zero_tau_is_runtime_error(self, lr_file):
        assert run("sr", "--in", str(lr_file), "--out", "x", "--factor", "2,2,2", "--tau", "0") == 1

    def test_infinite_tau_is_runtime_error(self, lr_file, capsys):
        assert run("sr", "--in", str(lr_file), "--out", "x", "--factor", "2,2,2", "--tau", "inf") == 1
        assert "must be finite and > 0" in capsys.readouterr().err

    def test_factor_below_one_is_runtime_error(self, lr_file, capsys):
        assert run("sr", "--in", str(lr_file), "--out", "x", "--factor", "0,1,1") == 1
        assert ">= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--dims", "0,8,8", "--out", "{out}"), "dims and factor entries must be >= 1"),
    (("degrade", "--in", "{hr}", "--out", "{out}", "--factor", "0,1,1"),
     "dims and factor entries must be >= 1"),
    (("degrade", "--in", "{hr}", "--out", "{out}", "--factor", "2,2,2", "--noise-psnr", "nan"),
     "noise_psnr must be finite"),
    (("degrade", "--in", "{hr}", "--out", "{out}", "--factor", "2,2,2", "--kernel", "gaussian",
      "--kernel-fwhm=nan,2,2"), "kernel_fwhm entries must be > 0"),
    (("sr", "--in", "{lr}", "--out", "{out}", "--factor", "2,2,2", "--tau", "nan"),
     "tau must be finite and > 0"),
    (("sr", "--in", "{lr}", "--out", "{out}", "--factor", "2,2,2", "--kernel", "gaussian",
      "--kernel-fwhm=nan,2,2"), "kernel_fwhm entries must be > 0"),
    (("eval", "--sr", "{hr}", "--ref", "{hr}", "--out", "{out}", "--mask-threshold", "1.5"),
     "mask_threshold must be in (0, 1)"),
    (("oracle-check", "--factor", "0,1,1"), "dims and factor entries must be >= 1"),
    (("pipeline", "--out-dir", "{out}", "--venc", "inf"), "venc must be finite and > 0"),
    (("pipeline", "--out-dir", "{out}", "--noise-psnr", "nan"), "noise_psnr must be finite"),
    (("pipeline", "--out-dir", "{out}", "--vmax", "nan"), "vmax must satisfy"),
    (("simulate", "--magnitude-out=nan", "--out", "{out}"), "magnitude_out must be finite and >= 0"),
    (("simulate", "--magnitude-in=-1", "--out", "{out}"), "magnitude_in must be finite and >= 0"),
    (("simulate", "--spacing=1,inf,1", "--out", "{out}"), "spacing entries must be finite and > 0"),
    (("pipeline", "--out-dir", "{out}", "--magnitude-in=inf"),
     "magnitude_in must be finite and >= 0"),
    (("pipeline", "--out-dir", "{out}", "--magnitude-out=nan"),
     "magnitude_out must be finite and >= 0"),
    (("pipeline", "--out-dir", "{out}", "--spacing=0,1,1"), "spacing entries must be finite and > 0"),
])
def test_out_of_range_setting_fails_before_a_write(tmp_path, lr_file, capsys, argv, message):
    # in every command, RunConfig's message and exit 1, as for a config line; NaN included
    files = sorted(tmp_path.rglob("*"))
    paths = dict(hr=tmp_path / "hr.flw4", lr=lr_file, out=tmp_path / "out")
    assert run(*(arg.format(**paths) for arg in argv)) == 1
    assert "error: " + message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == files


class TestEval:
    def test_identical_inputs_zero_error(self, tmp_path, hr_file):
        out = tmp_path / "metrics.csv"
        assert run("eval", "--sr", str(hr_file), "--ref", str(hr_file), "--out", str(out)) == 0
        report = EvalReport.from_csv(out.read_text())
        assert all(r.value == 0.0 for r in report.records if r.metric == "mre_percent")
        assert all(r.value == np.inf for r in report.records if r.metric == "psnr_db")

    def test_failed_write_keeps_the_old_file(self, tmp_path, hr_file, monkeypatch, capsys):
        out = tmp_path / "metrics.csv"
        out.write_text("old metrics\n")
        before = sorted(p.name for p in tmp_path.iterdir())

        def full_disk(path, chunks):
            def failing():
                yield from chunks
                raise OSError("no space left on device")

            atomic_write(path, failing())

        monkeypatch.setattr(flowsr.cli, "atomic_write", full_disk)
        assert run("eval", "--sr", str(hr_file), "--ref", str(hr_file), "--out", str(out)) == 1
        assert "no space" in capsys.readouterr().err
        assert out.read_text() == "old metrics\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_row_counts_with_baseline(self, tmp_path, hr_file, lr_file):
        sr = tmp_path / "sr.flw4"
        base = tmp_path / "base.flw4"
        run("sr", "--in", str(lr_file), "--out", str(sr), "--factor", "2,2,2", "--tau", "1.0")
        run("sr", "--in", str(lr_file), "--out", str(base), "--factor", "2,2,2",
            "--method", "trilinear")
        out = tmp_path / "metrics.csv"
        assert run("eval", "--sr", str(sr), "--ref", str(hr_file), "--baseline", str(base),
                   "--out", str(out)) == 0
        report = EvalReport.from_csv(out.read_text())
        assert len([r for r in report.records if r.metric == "psnr_db"]) == 2 * 3 * 2
        assert len([r for r in report.records if r.metric == "mre_percent"]) == 2 * 2

    @pytest.mark.parametrize("labels", [("--baseline-label", "fsr"),
                                        ("--sr-label", "tri", "--baseline-label", "tri")])
    def test_equal_method_labels_fail_before_any_file_is_read(self, tmp_path, hr_file, capsys, labels):
        # the two methods' records would share one label; the SR file is missing,
        # so the error shows that nothing was opened
        out = tmp_path / "metrics.csv"
        assert run("eval", "--sr", str(tmp_path / "missing.flw4"), "--ref", str(hr_file),
                   "--baseline", str(hr_file), *labels, "--out", str(out)) == 1
        assert "could not be told apart" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """hr, sr and baseline files of a 3-frame helix on odd, unequal dims."""
    d = tmp_path_factory.mktemp("eval")
    paths = {name: d / f"{name}.flw4" for name in ("hr", "lr", "sr", "base")}
    assert run("simulate", "--phantom", "helix", "--dims", "10,6,5", "--frames", "3",
               "--out", str(paths["hr"])) == 0
    assert run("degrade", "--in", str(paths["hr"]), "--out", str(paths["lr"]),
               "--factor", "2,2,1", "--noise-psnr", "15", "--seed", "2") == 0
    assert run("sr", "--in", str(paths["lr"]), "--out", str(paths["sr"]), "--factor", "2,2,1",
               "--tau", "1.0") == 0
    assert run("sr", "--in", str(paths["lr"]), "--out", str(paths["base"]), "--factor", "2,2,1",
               "--method", "trilinear") == 0
    return paths


def _poked(src, dst, offset, value=np.nan):
    """A copy of ``src`` at ``dst`` with the float32 sample at byte ``offset`` set to ``value``."""
    raw = bytearray(src.read_bytes())
    raw[offset:offset + 4] = np.float32(value).tobytes()
    dst.write_bytes(bytes(raw))
    return dst


class TestEvalStreams:
    """``eval`` reads its files channel by channel and scores them as their loads."""

    @pytest.mark.parametrize("threshold", [None, "0.37"])
    @pytest.mark.parametrize("with_baseline", [True, False])
    def test_csv_equals_the_score_of_the_loaded_files(self, tmp_path, eval_files, with_baseline,
                                                      threshold):
        out = tmp_path / "metrics.csv"
        argv = ["eval", "--sr", str(eval_files["sr"]), "--ref", str(eval_files["hr"]),
                "--out", str(out)]
        if with_baseline:
            argv += ["--baseline", str(eval_files["base"])]
        if threshold:
            argv += ["--mask-threshold", threshold]
        assert run(*argv) == 0
        loaded = evaluate(
            load_dataset(eval_files["sr"]),
            load_dataset(eval_files["hr"]),
            baseline=load_dataset(eval_files["base"]) if with_baseline else None,
            mask_threshold=float(threshold or 0.1),
        )
        assert out.read_bytes() == loaded.to_csv().encode()

    @pytest.mark.parametrize("role", ["sr", "base"])
    def test_nonfinite_magnitude_fails_naming_frame_channel_and_offset(self, tmp_path, eval_files,
                                                                       capsys, role):
        voxels = 10 * 6 * 5
        offset = HEADER_SIZE + 4 * voxels * 4  # frame 1's magnitude block
        files = dict(eval_files)
        files[role] = _poked(eval_files[role], tmp_path / "bad.flw4", offset + 4 * 17)
        out = tmp_path / "metrics.csv"
        assert run("eval", "--sr", str(files["sr"]), "--ref", str(files["hr"]),
                   "--baseline", str(files["base"]), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"non-finite samples in frame 1 channel magnitude (payload block at offset {offset})" in err
        assert not out.exists()

    @pytest.mark.parametrize("mismatch", ["frames", "dims"])
    def test_mismatch_fails_from_the_headers(self, tmp_path, eval_files, capsys, mismatch):
        # the sr file's first sample is NaN: reading any payload would report that instead
        if mismatch == "frames":
            ds = load_dataset(eval_files["sr"])
            short = VelocityDataset(dataclasses.replace(ds.params, frame_count=1), ds.frames[:1])
            save_dataset(short, tmp_path / "sr.flw4")
            expected = "fsr frame count differs from reference"
        else:
            assert run("simulate", "--phantom", "helix", "--dims", "10,6,4", "--frames", "3",
                       "--out", str(tmp_path / "sr.flw4")) == 0
            expected = "fsr grid differs from reference"
        sr = _poked(tmp_path / "sr.flw4", tmp_path / "sr_nan.flw4", HEADER_SIZE)
        out = tmp_path / "metrics.csv"
        assert run("eval", "--sr", str(sr), "--ref", str(eval_files["hr"]), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("role", ["sr", "hr", "base"])
    def test_truncated_file_fails_as_its_load_does(self, tmp_path, eval_files, capsys, role):
        files = dict(eval_files)
        files[role] = tmp_path / "short.flw4"
        files[role].write_bytes(eval_files[role].read_bytes()[:-8])
        with pytest.raises(FormatError) as excinfo:
            load_dataset(files[role])
        out = tmp_path / "metrics.csv"
        assert run("eval", "--sr", str(files["sr"]), "--ref", str(files["hr"]),
                   "--baseline", str(files["base"]), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {excinfo.value}\n"
        assert not out.exists()

    def test_holds_at_most_six_float64_channels(self, tmp_path):
        # the three loaded files alone would be 12 channels; streaming holds
        # three float32 blocks, the mask and the gathered voxels
        p = {name: str(tmp_path / f"{name}.flw4") for name in ("hr", "lr", "sr", "base")}
        assert run("simulate", "--dims", "32,32,32", "--frames", "1", "--out", p["hr"]) == 0
        assert run("degrade", "--in", p["hr"], "--out", p["lr"], "--factor", "2,2,2",
                   "--noise-psnr", "15") == 0
        assert run("sr", "--in", p["lr"], "--out", p["sr"], "--factor", "2,2,2") == 0
        assert run("sr", "--in", p["lr"], "--out", p["base"], "--factor", "2,2,2",
                   "--method", "trilinear") == 0
        argv = ["eval", "--sr", p["sr"], "--ref", p["hr"], "--baseline", p["base"],
                "--out", str(tmp_path / "metrics.csv")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 6 * 8 * 32**3


class TestOracleCheck:
    def test_single_config_passes(self, capsys):
        assert run("oracle-check", "--dims", "8,8,8", "--factor", "2,2,2") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out

    def test_gaussian_kernel_config(self):
        assert run("oracle-check", "--dims", "6,6,6", "--factor", "2,2,1",
                   "--kernel", "gaussian", "--tau", "0.001") == 0

    @staticmethod
    def _drop_alias_count(y_spec, alias, cfg):
        # the LR correction without the prod(d) factor in its denominator,
        # the constant the derivation pins down
        D = np.prod(cfg.d)
        return (np.sqrt(D) * y_spec - alias) / (2.0 * cfg.tau + cfg.gram)

    def test_break_constant_fails_loudly(self, capsys, monkeypatch):
        # negative control of a general kernel's solve
        monkeypatch.setattr(flowsr.solver, "_lr_correction", self._drop_alias_count)
        code = run("oracle-check", "--dims", "8,8,8", "--factor", "2,2,2", "--kernel", "gaussian")
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out + captured.err

    def test_box_constant_fails_loudly(self, capsys, monkeypatch):
        # negative control of the ideal kernel's solve, on its retained box
        monkeypatch.setattr(flowsr.solver, "_lr_correction", self._drop_alias_count)
        code = run("oracle-check", "--dims", "8,8,8", "--factor", "2,2,2")
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out + captured.err

    def test_prior_spectrum_fails_loudly(self, capsys, monkeypatch):
        # negative control of the built-in trilinear prior: its per-axis
        # weight spectra without the unitary 1/sqrt(M) scaling
        def broken(dim, rate, order):
            return scipy.fft.fft(_axis_weights(dim, rate, order) if rate > 1 else np.eye(dim), axis=0)

        monkeypatch.setattr(flowsr.interp, "_axis_spectra", broken)
        code = run("oracle-check", "--dims", "8,8,8", "--factor", "2,2,2")
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out + captured.err
        lines = captured.out.splitlines()
        assert [line for line in lines if line.startswith("[FAIL]") and "prior=trilinear" in line]
        assert [line for line in lines if line.startswith("[ok]") and "prior=explicit" in line]

    def test_negative_seed_is_runtime_error(self, capsys):
        assert run("oracle-check", "--dims", "4,4,4", "--factor", "2,2,2", "--seed", "-1") == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--factor", "0,1,1"), ("--tau", "nan"),
                                      ("--dims", "4,4,4", "--tau", "0")])
    def test_out_of_range_setting_fails_before_any_solve(self, capsys, argv):
        # without --dims the matrix ignores --factor and --tau, but RunConfig checks them
        assert run("oracle-check", *argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "[ok]" not in captured.out

    def test_tolerance_is_not_an_option(self, capsys):
        # ORACLE_TOLERANCE is the judge; no flag can loosen it
        with pytest.raises(SystemExit) as excinfo:
            run("oracle-check", "--tolerance", "1")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


# one invalid value per RunConfig field: pipeline flags, or a config line
# for the fields pipeline has no flag for
BAD_SETTINGS = {
    "phantom": ("--phantom", "sphere"),
    "dims": ("--dims", "0,16,16"),
    "frames": ("--frames", "0"),
    "venc": ("--venc", "0"),
    "vmax": ("--vmax", "200"),
    "radius": ("--radius", "-3"),
    "axis": ("--axis", "q"),
    "magnitude_in": "magnitude_in = -1",
    "magnitude_out": "magnitude_out = -1",
    "spacing": "spacing = inf,1,1",
    "factor": ("--factor", "3,3,3"),
    "kernel": ("--kernel", "box"),
    "kernel_fwhm": ("--kernel-fwhm=0,2,2",),
    "noise_psnr": ("--noise-psnr", "inf"),
    "seed": ("--seed", "-1"),
    "tau": ("--tau", "0"),
    "prior": ("--prior", "none"),
    "baseline": ("--baseline", "fsr"),
    "mask_threshold": ("--mask-threshold", "1.5"),
}
# settings each in range, whose combination leaves no tube voxel in the flow mask
BAD_COMBINATIONS = {
    "no_tube_magnitude": "magnitude_in = 0",
    "tube_below_mask_threshold": "magnitude_in = 0.05\nmagnitude_out = 1",
}


class TestPipeline:
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(RunConfig)] + list(BAD_COMBINATIONS)
    )
    def test_every_bad_setting_fails_before_the_first_write(self, tmp_path, field):
        argv = ["pipeline", "--out-dir", str(tmp_path / "run"),
                "--dims", "16,16,16", "--frames", "1", "--factor", "2,2,2"]
        bad = {**BAD_SETTINGS, **BAD_COMBINATIONS}[field]
        if isinstance(bad, str):
            config = tmp_path / "bad.cfg"
            config.write_text(bad + "\n")
            argv += ["--config", str(config)]
        else:
            argv += bad
        try:
            code = run(*argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code in (1, 2)
        assert not list(tmp_path.rglob("*.flw4"))
        assert not list((tmp_path / "run").rglob("*"))

    def test_mask_holding_the_tube_at_its_threshold_runs(self, tmp_path):
        config = tmp_path / "edge.cfg"
        config.write_text("magnitude_in = 0.1\nmagnitude_out = 1\nmask_threshold = 0.1\n")
        assert run("pipeline", "--out-dir", str(tmp_path / "run"), "--config", str(config),
                   "--dims", "16,16,16", "--frames", "1", "--factor", "2,2,2") == 0

    @pytest.mark.parametrize("magnitudes", [("0", "1"), ("0.05", "1"), ("0", "0")])
    def test_simulate_takes_any_nonnegative_magnitudes(self, tmp_path, magnitudes):
        # simulate builds no flow mask, so only pipeline checks the combination
        assert run("simulate", "--dims", "8,8,8", "--frames", "1",
                   "--magnitude-in", magnitudes[0], "--magnitude-out", magnitudes[1],
                   "--out", str(tmp_path / "hr.flw4")) == 0


    def test_small_end_to_end_and_config_round_trip(self, tmp_path, capsys):
        out1 = tmp_path / "run1"
        code = run(
            "pipeline",
            "--out-dir", str(out1),
            "--dims", "16,16,16",
            "--frames", "2",
            "--factor", "2,2,2",
            "--noise-psnr", "15",
            "--seed", "3",
            "--tau", "1.0",
        )
        assert code == 0
        # these and nothing else: the spilled spectra had no name
        assert sorted(p.name for p in out1.iterdir()) == sorted([
            "hr.flw4",
            "lr.flw4",
            "lr.flw4.cal",
            "sr_fsr.flw4",
            "sr_trilinear.flw4",
            "metrics.csv",
            "solve_reports.csv",
            "summary.txt",
            "effective.cfg",
        ])
        assert "mean PSNR" in (out1 / "summary.txt").read_text()

        capsys.readouterr()
        out2 = tmp_path / "run2"
        assert run("pipeline", "--out-dir", str(out2), "--config", str(out1 / "effective.cfg")) == 0
        for name in ("hr.flw4", "lr.flw4", "sr_fsr.flw4", "sr_trilinear.flw4", "metrics.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_outputs_equal_those_of_the_whole_dataset_stages(self, tmp_path):
        # pipeline streams frame by frame through the cores that the dataset calls wrap
        rc = RunConfig(phantom="helix", dims=(12, 8, 10), frames=3, factor=(2, 2, 1),
                       kernel="gaussian", noise_psnr=12.0, seed=5, tau=0.3, prior="zero-fill",
                       baseline="tricubic", mask_threshold=0.2)
        config = tmp_path / "run.cfg"
        config.write_text(format_config_text(rc))
        run_dir = tmp_path / "run"
        assert run("pipeline", "--out-dir", str(run_dir), "--config", str(config)) == 0

        hr = helix_phantom(Grid3(*rc.dims), radius_voxels=rc.effective_radius(),
                           vmax_per_frame=pulsatile_profile(rc.vmax, rc.frames), venc=rc.venc)
        degradation = DegradationConfig(d=rc.factor, kernel=rc.kernel, noise_psnr_db=rc.noise_psnr,
                                        rng_seed=rc.seed)
        lr, _ = degrade_dataset(hr, degradation)
        cfg = SolverConfig(tau=rc.tau, kernel=degradation.kernel_spectrum(hr.grid), d=rc.factor,
                           prior=rc.prior)
        reports = []
        sr = superresolve_dataset(lr, cfg, hr.grid, reports=reports)
        base = upsample_dataset(lr, rc.factor, rc.baseline)
        for name, ds in (("hr.flw4", hr), ("lr.flw4", lr), ("sr_fsr.flw4", sr), ("sr_tricubic.flw4", base)):
            save_dataset(ds, tmp_path / name)
            assert (run_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
        report = evaluate(sr, hr, base, rc.mask_threshold, "fsr", rc.baseline)
        assert (run_dir / "metrics.csv").read_text() == report.to_csv()
        # each solve keeps its true frame index
        rows = [line.rsplit(",", 1)[0] for line in (run_dir / "solve_reports.csv").read_text().splitlines()]
        assert rows[1:] == [f"{f},{ch},{r.residual_norm!r},{r.prior_distance!r},{r.objective!r}"
                            for f, ch, r in reports]
        assert [row.split(",")[:2] for row in rows[1:]] == [[str(f), c] for f in range(3) for c in "uvw"]

    def test_a_late_failure_leaves_every_file_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        argv = ["pipeline", "--out-dir", str(out), "--dims", "16,16,8", "--frames", "3",
                "--factor", "2,2,2", "--seed", "4"]
        assert run(*argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []
        real = flowsr.volio._channel_bytes

        def fail_in_the_last_block(data, f_idx, channel):
            # the last frame's w goes to hr, lr, sr_fsr and then sr_trilinear
            calls.append((f_idx, channel))
            if calls.count((2, "w")) == 4:
                raise OSError("no space left on device")
            return real(data, f_idx, channel)

        monkeypatch.setattr(flowsr.volio, "_channel_bytes", fail_in_the_last_block)
        assert run(*argv[:-1], "5") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # a first run that fails leaves nothing at all
        calls.clear()
        fresh = tmp_path / "fresh"
        assert run(*argv[:2], str(fresh), *argv[3:]) == 1
        assert list(fresh.iterdir()) == []

    @pytest.mark.parametrize("fault, message", [
        ("write", "no space left on device"), ("read", "input/output error"),
        ("truncate", "spectra spill: short read at byte offset"),
    ])
    def test_a_failing_spill_leaves_every_file_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                         fault, message):
        out = tmp_path / "run"
        argv = ["pipeline", "--out-dir", str(out), "--dims", "16,16,8", "--frames", "3",
                "--factor", "2,2,2", "--seed", "4"]
        assert run(*argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real = tempfile.TemporaryFile

        def broken_spill(*args, dir, **kwargs):
            assert dir == argv[2]  # the spill lives beside the outputs
            return _BrokenSpill(real(*args, dir=dir, **kwargs), fault)

        monkeypatch.setattr(flowsr.cli.tempfile, "TemporaryFile", broken_spill)
        capsys.readouterr()
        assert run(*argv[:-1], "5") == 1
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # a first run that fails leaves nothing at all
        fresh = tmp_path / "fresh"
        argv[2] = str(fresh)
        assert run(*argv) == 1
        assert list(fresh.iterdir()) == []

    def test_a_failing_noise_draw_fails_the_run_and_leaves_no_thread(self, tmp_path, monkeypatch,
                                                                     capsys):
        # the ideal kernel's noise is drawn on a second thread in the first pass;
        # its error comes back through the future, and no thread outlives a run
        argv = ["pipeline", "--dims", "16,16,8", "--frames", "3", "--factor", "2,2,2"]
        start = threading.active_count()
        assert run(*argv, "--out-dir", str(tmp_path / "good")) == 0
        assert threading.active_count() == start
        threads = []

        def failing(*args):
            threads.append(threading.current_thread())
            raise ParameterError("the noise draw failed")

        monkeypatch.setattr(flowsr.degrade, "seeded_rng", failing)
        capsys.readouterr()
        out = tmp_path / "run"
        assert run(*argv, "--out-dir", str(out)) == 1
        assert "error: the noise draw failed" in capsys.readouterr().err
        assert threads and threading.main_thread() not in threads
        assert list(out.iterdir()) == []
        assert threading.active_count() == start

    @pytest.mark.parametrize("command, factor, bound", [
        ("pipeline", "4,4,4", 4 * 8 * 16**3),  # one HR frame in float64
        ("pipeline", "1,1,1", 3 * 16 * 16**3),  # one frame's clean spectra: 3/D of an HR complex128 array
        ("pipeline", "2,2,1", 3 * 16 * 16**3 // 4),
        ("degrade", "2,2,1", 4 * 8 * 16**3),
        ("degrade", "1,1,1", 4 * 8 * 16**3),
    ])
    def test_peak_memory_does_not_grow_with_the_frame_count(self, tmp_path, command, factor, bound):
        # one frame at a time, noisy: 2 to 8 frames adds less than the bound
        def peak(frames):
            if command == "pipeline":
                argv = ["pipeline", "--out-dir", str(tmp_path / f"f{frames}"), "--dims", "16,16,16",
                        "--factor", factor, "--frames", str(frames)]
            else:
                hr = tmp_path / f"hr{frames}.flw4"
                assert run("simulate", "--dims", "16,16,16", "--frames", str(frames), "--out", str(hr)) == 0
                argv = ["degrade", "--in", str(hr), "--out", str(tmp_path / f"lr{frames}.flw4"),
                        "--factor", factor, "--noise-psnr", "15"]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert run(*argv) == 0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(2)  # caches warm: interpolation weights, FFT plans
        assert peak(8) - peak(2) < bound

    def test_nonpositive_noise_psnr_means_noiseless(self, tmp_path):
        out = tmp_path / "run"
        assert run("pipeline", "--out-dir", str(out), "--dims", "16,16,16", "--frames", "1",
                   "--factor", "2,2,2", "--noise-psnr", "0") == 0
        assert "noise_psnr = none\n" in (out / "effective.cfg").read_text()
        assert (out / "lr.flw4.cal").read_text().startswith("sigma = 0.0\n")

    def test_noise_target_that_underflows_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("pipeline", "--out-dir", str(out), "--dims", "8,8,8", "--frames", "1",
                   "--factor", "2,2,2", "--noise-psnr", "7000") == 1
        assert "error: target PSNR 7000 dB is too high" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_takes_every_run_config_field_as_a_flag(self):
        rc = RunConfig(kernel_fwhm=(2.0, 3.0, 4.0))  # no field None, so each has a flag value
        argv = ["pipeline", "--out-dir", "run"]
        for line in format_config_text(rc).splitlines():
            key, value = line.split(" = ")
            argv.append(f"--{key.replace('_', '-')}={value}")
        args = build_parser().parse_args(argv)
        assert RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}) == rc

    def test_magnitude_and_spacing_flags_equal_their_config_lines(self, tmp_path):
        small = ("--dims", "8,8,8", "--frames", "2", "--factor", "2,2,2")
        config = tmp_path / "run.cfg"
        config.write_text("magnitude_in = 0.8\nmagnitude_out = 0.2\nspacing = 1.5,1,2\n")
        assert run("pipeline", "--out-dir", str(tmp_path / "flags"), *small, "--magnitude-in", "0.8",
                   "--magnitude-out", "0.2", "--spacing", "1.5,1,2") == 0
        assert run("pipeline", "--out-dir", str(tmp_path / "config"), *small,
                   "--config", str(config)) == 0
        assert "spacing = 1.5,1.0,2.0\n" in (tmp_path / "flags" / "effective.cfg").read_text()

        def untimed(path):
            # the same files but for the elapsed line and the solves' wall times
            lines = path.read_bytes().splitlines()
            if path.name == "summary.txt":
                return [line for line in lines if not line.startswith(b"elapsed:")]
            if path.name == "solve_reports.csv":
                return [line.rsplit(b",", 1)[0] for line in lines]
            return lines

        names = sorted(p.name for p in (tmp_path / "flags").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "config").iterdir())
        for name in names:
            assert untimed(tmp_path / "flags" / name) == untimed(tmp_path / "config" / name), name

    def test_infinite_venc_is_runtime_error(self, tmp_path):
        assert run("pipeline", "--out-dir", str(tmp_path / "run"), "--venc", "inf") == 1

    def test_nonpositive_kernel_fwhm_is_runtime_error(self, tmp_path, capsys):
        # rejected with the config, before any file is written
        out = tmp_path / "run"
        small = ("--dims", "8,8,8", "--frames", "1", "--factor", "2,2,2", "--kernel", "gaussian")
        assert run("pipeline", "--out-dir", str(out), *small, "--kernel-fwhm=-1,2,2") == 1
        assert "kernel_fwhm" in capsys.readouterr().err
        config = tmp_path / "bad.cfg"
        config.write_text("dims = 8,8,8\nframes = 1\nfactor = 2,2,2\nkernel = gaussian\nkernel_fwhm = 0,2,2\n")
        assert run("pipeline", "--out-dir", str(out), "--config", str(config)) == 1
        assert "kernel_fwhm" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.flw4"))

    def test_negative_seed_is_runtime_error(self, tmp_path, capsys):
        # rejected with the config, before hr.flw4 is written
        out = tmp_path / "run"
        assert run("pipeline", "--out-dir", str(out), "--dims", "16,16,16", "--frames", "1",
                   "--factor", "2,2,2", "--seed", "-1") == 1
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.flw4"))

    def test_infinite_noise_psnr_is_runtime_error(self, tmp_path, capsys):
        # rejected with the config, before hr.flw4 is written; none is noiseless
        out = tmp_path / "run"
        small = ("--dims", "16,16,16", "--frames", "1", "--factor", "2,2,2")
        assert run("pipeline", "--out-dir", str(out), *small, "--noise-psnr", "inf") == 1
        assert "error: noise_psnr must be finite" in capsys.readouterr().err
        config = tmp_path / "inf.cfg"
        config.write_text("dims = 16,16,16\nframes = 1\nfactor = 2,2,2\nnoise_psnr = inf\n")
        assert run("pipeline", "--out-dir", str(out), "--config", str(config)) == 1
        assert "error: noise_psnr must be finite" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.flw4"))

    def test_negative_radius_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("pipeline", "--out-dir", str(out), "--dims", "8,8,8", "--frames", "1",
                   "--factor", "2,2,2", "--radius", "-3") == 1
        assert "radius" in capsys.readouterr().err
        assert not out.exists()


def test_readme_commands_parse():
    # every flowsr command in README's "Command line" block, continuation lines joined
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [words for words in commands if words]
    assert all(words[0] == "flowsr" for words in commands)
    assert {words[1] for words in commands} == {"simulate", "degrade", "sr", "eval", "oracle-check",
                                               "pipeline"}
    for words in commands:
        _run_config_of(build_parser().parse_args(words[1:]))


def _run_config_of(args) -> RunConfig:
    """The RunConfig ``args``' command builds; dims the factor divides stand in for an input file's."""
    settings = flowsr.cli._settings(args)
    if args.command == "simulate":
        return RunConfig(factor=(1, 1, 1), **settings)
    if args.command == "eval":  # its --baseline is a file
        return RunConfig(mask_threshold=args.mask_threshold)
    if args.command in ("degrade", "sr", "oracle-check"):
        settings["dims"] = settings.get("dims") or settings["factor"]
    return RunConfig(**settings)


# texts for each RunConfig field, in range and out; no noise_psnr <= 0, which
# the pipeline command alone reads as noiseless
SETTING_TEXTS = {
    "phantom": ["helix", "sphere"],
    "dims": ["8,8,8", "8 8 8", "0,8,8", "8,8", "8.5,8,8"],
    "frames": ["2", "0", "2.5"],
    "venc": ["150", "0", "inf", "nan"],
    "vmax": ["100", "-100", "200", "nan"],
    "radius": ["3", "-3", "nan"],
    "axis": ["y", "q"],
    "magnitude_in": ["0.5", "-1", "x"],
    "magnitude_out": ["0.2"],
    "spacing": ["1.5,1,2", "inf,1,1"],
    "factor": ["2,2,2", "0,1,1", "3,3,3"],
    "kernel": ["gaussian", "box"],
    "kernel_fwhm": ["2,3,4", "inf,2,2", "nan,2,2", "0,2,2", "none"],
    "noise_psnr": ["15", "nan", "inf", "none", "NONE"],
    "seed": ["7", "-1", "1.5"],
    "tau": ["0.5", "0", "nan", "inf"],
    "prior": ["zero-fill", "none"],
    "baseline": ["tricubic", "fsr"],
    "mask_threshold": ["0.2", "1.5", "nan"],
}


def _from_flag(name, text):
    """The RunConfig of one ``pipeline`` flag, or None when it is refused."""
    try:
        args = build_parser().parse_args(["pipeline", "--out-dir", "run",
                                          f"--{name.replace('_', '-')}={text}"])
        return RunConfig(**flowsr.cli._settings(args))
    except (SystemExit, ConfigError):
        return None


def _from_config_line(name, text):
    try:
        return parse_config_text(f"{name} = {text}\n")
    except ConfigError:
        return None


@pytest.mark.parametrize("name, text", [(f.name, text) for f in dataclasses.fields(RunConfig)
                                        for text in SETTING_TEXTS[f.name]])
def test_flag_parses_and_checks_as_its_config_line(name, text):
    line = _from_config_line(name, text)
    if line is not None and getattr(line, name) is None:  # only a config line clears a setting
        assert _from_flag(name, text) is None
    else:
        assert repr(_from_flag(name, text)) == repr(line)
