"""Seeded end-to-end runs still give the outputs recorded in ``tests/golden``.

A characterization test: ``tests/golden/make_golden.py`` stored each case's
LR, fsr and baseline datasets (and, for the ``flowsr pipeline`` case, its
HR file), metric records, solve reports and noise calibration.  Velocities
are compared through the complex signal ``m exp(i pi v / venc)``, which has
no jump where the phase wraps, and every value to 1e-12 relative.  Where
numpy, scipy and the platform equal those recorded in ``meta.json``, the
outputs must also match bit for bit.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

RTOL = 1e-12
DATASETS = ("hr", "lr", "fsr", "baseline")


@pytest.fixture(scope="module", params=sorted(make_golden.CASES))
def case(request):
    name = request.param
    with np.load(GOLDEN / f"{name}.npz") as stored:
        reference = dict(stored)
    return name, reference, make_golden.run_case(name)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    ref = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / ref) if ref > 0 else float(np.abs(a).max(initial=0.0))


def test_references_are_small():
    assert sum(p.stat().st_size for p in GOLDEN.glob("*.npz")) < 1_000_000
    assert {p.stem for p in GOLDEN.glob("*.npz")} == set(make_golden.CASES)


def test_same_outputs_stored(case):
    _, reference, got = case
    assert sorted(got) == sorted(reference)
    for key in reference:
        assert got[key].shape == reference[key].shape, key


def test_signals_within_1e_12(case):
    _, reference, got = case
    for key in DATASETS:
        if key not in reference:
            continue
        for f_idx, (mine, theirs) in enumerate(zip(got[key], reference[key])):
            assert _rel(mine[0], theirs[0]) <= RTOL, f"{key} frame {f_idx} magnitude"
            for c, ch in enumerate("uvw", start=1):
                signal = mine[0] * np.exp(1j * np.pi * mine[c] / make_golden.VENC)
                expected = theirs[0] * np.exp(1j * np.pi * theirs[c] / make_golden.VENC)
                assert _rel(signal, expected) <= RTOL, f"{key} frame {f_idx} channel {ch}"


def test_records_within_1e_12(case):
    _, reference, got = case
    assert list(got["metric_keys"]) == list(reference["metric_keys"])
    assert list(got["report_keys"]) == list(reference["report_keys"])
    for key in ("metric_values", "report_values", "calibration"):
        np.testing.assert_allclose(got[key], reference[key], rtol=RTOL, atol=0, err_msg=key)


def test_bit_for_bit_on_the_recorded_platform(case):
    recorded = json.loads((GOLDEN / "meta.json").read_text(encoding="utf-8"))
    here = make_golden.environment()
    if here != recorded:
        differ = sorted(k for k in recorded if recorded[k] != here.get(k))
        pytest.skip(f"references were made with other {', '.join(differ)}; bits may differ")
    _, reference, got = case
    for key in reference:
        assert np.array_equal(got[key], reference[key]), key
