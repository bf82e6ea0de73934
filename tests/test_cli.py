import numpy as np
import pytest

import flowsr.cli
import flowsr.solver
from flowsr import EvalReport, load_dataset
from flowsr.cli import main
from flowsr.spectral import alias_sum
from flowsr.volio import atomic_write


def run(*argv):
    return main(list(argv))


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

    def test_zero_tau_is_usage_error(self, lr_file):
        with pytest.raises(SystemExit) as excinfo:
            run("sr", "--in", str(lr_file), "--out", "x", "--factor", "2,2,2", "--tau", "0")
        assert excinfo.value.code == 2

    def test_infinite_tau_is_usage_error(self, lr_file):
        with pytest.raises(SystemExit) as excinfo:
            run("sr", "--in", str(lr_file), "--out", "x", "--factor", "2,2,2", "--tau", "inf")
        assert excinfo.value.code == 2


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


class TestOracleCheck:
    def test_single_config_passes(self, capsys):
        assert run("oracle-check", "--dims", "8,8,8", "--factor", "2,2,2") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out

    def test_gaussian_kernel_config(self):
        assert run("oracle-check", "--dims", "6,6,6", "--factor", "2,2,1",
                   "--kernel", "gaussian", "--tau", "0.001") == 0

    def test_break_constant_fails_loudly(self, capsys, monkeypatch):
        # negative control: a per-bin solve that drops the prod(d) factor from
        # its denominator, the constant the derivation pins down
        def broken(k_spec, cfg):
            lam = cfg.kernel.values
            weights = alias_sum(lam * k_spec, cfg.d) / (2.0 * cfg.tau + cfg.gram)
            return (k_spec - np.conj(lam) * np.tile(weights, cfg.d)) / (2.0 * cfg.tau)

        monkeypatch.setattr(flowsr.solver, "_per_bin_solve", broken)
        code = run("oracle-check", "--dims", "8,8,8", "--factor", "2,2,2")
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out + captured.err


class TestPipeline:
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
        for name in (
            "hr.flw4",
            "lr.flw4",
            "lr.flw4.cal",
            "sr_fsr.flw4",
            "sr_trilinear.flw4",
            "metrics.csv",
            "solve_reports.csv",
            "summary.txt",
            "effective.cfg",
        ):
            assert (out1 / name).exists(), name
        assert "mean PSNR" in (out1 / "summary.txt").read_text()

        capsys.readouterr()
        out2 = tmp_path / "run2"
        assert run("pipeline", "--out-dir", str(out2), "--config", str(out1 / "effective.cfg")) == 0
        for name in ("hr.flw4", "lr.flw4", "sr_fsr.flw4", "sr_trilinear.flw4", "metrics.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_nonpositive_noise_psnr_means_noiseless(self, tmp_path):
        out = tmp_path / "run"
        assert run("pipeline", "--out-dir", str(out), "--dims", "16,16,16", "--frames", "1",
                   "--factor", "2,2,2", "--noise-psnr", "0") == 0
        assert "noise_psnr = none\n" in (out / "effective.cfg").read_text()
        assert (out / "lr.flw4.cal").read_text().startswith("sigma = 0.0\n")

    def test_infinite_venc_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("pipeline", "--out-dir", str(tmp_path / "run"), "--venc", "inf")
        assert excinfo.value.code == 2
