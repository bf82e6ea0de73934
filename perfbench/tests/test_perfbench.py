"""Tests of the benchmark's own arithmetic: self time, spreads, S/H, file reader.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import flw4  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
from flowsr import (  # noqa: E402
    AcquisitionParams, DegradationConfig, Grid3, ScalarVolume, SolverConfig, VelocityDataset,
    VelocityFrame,
)
from flowsr.oracle import build_dense  # noqa: E402
from flowsr.volio import save_dataset  # noqa: E402
from flowsr.volume import ravel_lex, unravel_lex  # noqa: E402


def span(id_, name, start, end, parent=None, run="r0", **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "run": run,
            **attrs}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(0, "cli.pipeline", 0.0, 10.0),
        span(1, "solver.solve", 1.0, 3.0, parent=0),
        span(2, "solver.prior", 2.0, 5.0, parent=0),  # overlaps span 1: counted once
        span(3, "volio.save", 8.0, 12.0, parent=0),  # clipped to the parent's end
        span(4, "spectral.fft", 1.5, 2.5, parent=1),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)


def test_layer_metrics_per_round_and_per_solve():
    tree = []
    for r, base in (("r0", 0.0), ("r1", 100.0)):
        n = len(tree)
        tree += [
            span(n, "cli.sr", base, base + 10.0, run=r),
            span(n + 1, "solver.dataset", base + 1.0, base + 9.0, parent=n, run=r),
            span(n + 2, "solver.solve", base + 2.0, base + 6.0, parent=n + 1, run=r),
            span(n + 3, "solver.prior", base + 2.0, base + 3.0, parent=n + 2, run=r),
            span(n + 4, "spectral.fft", base + 3.0, base + 3.5, parent=n + 2, run=r, kind="hr"),
            span(n + 5, "spectral.fft", base + 3.5, base + 3.75, parent=n + 2, run=r, kind="lr"),
            span(n + 6, "spectral.fft", base + 7.0, base + 7.5, parent=n + 1, run=r, kind="hr"),
        ]
    m = spans.layer_metrics(tree, None, hr_voxels=8)
    assert m["solver.dataset_ms"] == pytest.approx(8000.0)
    assert m["solver.solve_ms"] == pytest.approx(4000.0)
    assert m["solver.prior_ms"] == pytest.approx(1000.0)
    assert m["solver.self_ms"] == pytest.approx(4000.0 - 1000.0 - 750.0)
    assert m["solver.hr_fft_per_solve"] == 1 and m["solver.lr_fft_per_solve"] == 1
    assert m["spectral.fft_calls"] == 3
    assert m["spectral.fft_ms"] == pytest.approx(1250.0)
    assert m["cli.self_ms"] == pytest.approx(2000.0)
    assert m["volio.load_ms"] == 0.0


def test_tracer_skips_a_call_site_the_caller_no_longer_binds(monkeypatch):
    import flowsr.solver
    import flowsr.volume

    monkeypatch.delattr(flowsr.solver, "apply_SH")
    originals = (flowsr.solver.fsr_solve, flowsr.volume.ScalarVolume.__post_init__)
    tracer = spans.Tracer((4, 4, 4), (2, 2, 2))
    tracer.install()
    try:
        assert tracer.missing == ["flowsr.solver.apply_SH"]
        assert flowsr.solver.fsr_solve is not originals[0]
    finally:
        tracer.uninstall()
    assert (flowsr.solver.fsr_solve, flowsr.volume.ScalarVolume.__post_init__) == originals
    assert not hasattr(flowsr.solver, "apply_SH")
    assert spans.layer_metrics([], None, hr_voxels=8)["solver.diag_ms"] == 0.0


def test_spread_is_interquartile_range_over_median():
    median, rel = steady.spread(list(range(1, 11)))
    # exclusive quartiles of 1..10 are 2.75 and 8.25
    assert median == pytest.approx(5.5)
    assert rel == pytest.approx((8.25 - 2.75) / 5.5)
    assert steady.spread([3.0, 3.0, 3.0]) == (3.0, 0.0)


@pytest.mark.parametrize("kind", ["ideal", "gaussian"])
@pytest.mark.parametrize("dims,d", [((4, 4, 2), (2, 2, 1)), ((6, 4, 4), (2, 1, 2))])
def test_numpy_S_and_H_match_the_dense_oracle(kind, dims, d):
    hr = Grid3(*dims)
    kernel = DegradationConfig(d=d, kernel=kind).kernel_spectrum(hr)
    mine = checks.kernel_values(dims, d, kind)
    np.testing.assert_allclose(mine, kernel.values.real, atol=1e-15)
    ops = build_dense(hr, SolverConfig(tau=1.0, kernel=kernel, d=d))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    y = rng.standard_normal(hr.decimated(d).dims) + 1j * rng.standard_normal(hr.decimated(d).dims)
    forward = checks.apply_S(checks.apply_H(x, mine), d)
    dense = unravel_lex(ops.S @ (ops.H @ ravel_lex(x)), ops.lr_grid.dims)
    np.testing.assert_allclose(forward, dense, atol=1e-12)
    adjoint = checks.apply_H(checks.apply_S_adjoint(y, d), mine, adjoint=True)
    dense_adj = unravel_lex(ops.H.conj().T @ (ops.S.T @ ravel_lex(y)), dims)
    np.testing.assert_allclose(adjoint, dense_adj, atol=1e-12)


def test_gradient_residual_vanishes_at_the_dense_solution():
    from flowsr.oracle import dense_solve
    from flowsr import ComplexVolume

    dims, d, tau = (4, 4, 2), (2, 2, 1), 0.3
    hr = Grid3(*dims)
    kernel = DegradationConfig(d=d, kernel="gaussian").kernel_spectrum(hr)
    ops = build_dense(hr, SolverConfig(tau=tau, kernel=kernel, d=d))
    rng = np.random.default_rng(1)
    lr = hr.decimated(d)
    y = rng.standard_normal(lr.dims) + 1j * rng.standard_normal(lr.dims)
    prior = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    x = dense_solve(ComplexVolume(lr, y), ComplexVolume(hr, prior), ops, tau).data
    mine = checks.kernel_values(dims, d, "gaussian")
    assert checks.gradient_residual(x, y, prior, mine, d, tau) < 1e-12
    assert checks.gradient_residual(prior, y, prior, mine, d, tau) > 1e-3


def test_flw4_reader_matches_the_writer(tmp_path):
    grid = Grid3(3, 4, 5, spacing=(1.0, 2.0, 0.5))
    rng = np.random.default_rng(2)
    frames = [
        VelocityFrame(*(ScalarVolume(grid, rng.standard_normal(grid.dims)) for _ in range(4)))
        for _ in range(2)
    ]
    ds = VelocityDataset(AcquisitionParams(venc=150.0, frame_count=2), tuple(frames))
    save_dataset(ds, tmp_path / "a.flw4")
    vol = flw4.read(tmp_path / "a.flw4")
    assert vol.dims == (3, 4, 5) and vol.venc == 150.0 and vol.spacing == (1.0, 2.0, 0.5)
    np.testing.assert_array_equal(vol.velocity(1, "v"), frames[1].v.data.astype(np.float32))
    np.testing.assert_array_equal(vol.magnitude(0), frames[0].magnitude.data.astype(np.float32))


def test_metrics_match_flowsr_evaluate(tmp_path):
    from flowsr import evaluate
    from flowsr.volio import load_dataset

    grid = Grid3(8, 8, 4)
    rng = np.random.default_rng(3)

    def dataset(mag):
        vols = [ScalarVolume(grid, mag)] + [ScalarVolume(grid, rng.uniform(-50, 50, grid.dims))
                                            for _ in range(3)]
        return VelocityDataset(AcquisitionParams(venc=150.0), (VelocityFrame(*vols),))

    mag = (rng.uniform(size=grid.dims) > 0.5).astype(float)
    for name, ds in (("ref", dataset(mag)), ("sr", dataset(mag)), ("base", dataset(mag))):
        save_dataset(ds, tmp_path / f"{name}.flw4")
    report = evaluate(load_dataset(tmp_path / "sr.flw4"), load_dataset(tmp_path / "ref.flw4"),
                      baseline=load_dataset(tmp_path / "base.flw4"))
    (tmp_path / "m.csv").write_text(report.to_csv())
    mine = checks.recompute(flw4.read, tmp_path / "sr.flw4", tmp_path / "base.flw4",
                            tmp_path / "ref.flw4", "trilinear")
    assert checks.max_rel_diff(checks.read_metrics_csv(tmp_path / "m.csv"), mine) < 1e-12
