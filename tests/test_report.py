"""Serialization layer: canonical floats and stable JSON emission."""

import json

import numpy as np
import pytest

from wassdep.report import IndexReport, RateReport, canonical_float, emit_report


def test_canonical_float_is_idempotent():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=10.0, size=200):
        once = canonical_float(float(x))
        assert canonical_float(once) == once


def test_canonical_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            canonical_float(bad)


def test_emit_round_trip_is_byte_identical():
    report = IndexReport(
        index="joint",
        value=0.123456789012345,
        numerator=1.0 / 3.0,
        denominator=2.0 / 7.0,
        p=1.0,
        n=250,
    )
    first = emit_report(report)
    second = emit_report(json.loads(first))
    assert first == second


def test_emit_drops_none_fields_and_sorts_keys():
    report = IndexReport(index="gaussian", value=0.5)
    payload = json.loads(emit_report(report))
    assert "numerator" not in payload
    assert "alpha" not in payload
    keys = list(payload)
    assert keys == sorted(keys)


def test_emit_handles_numpy_scalars():
    payload = {
        "value": np.float64(0.25),
        "n": np.int64(12),
        "flag": np.bool_(True),
    }
    decoded = json.loads(emit_report(payload))
    assert decoded == {"value": 0.25, "n": 12, "flag": True}


def test_emit_rejects_nan_inside_payload():
    with pytest.raises(ValueError):
        emit_report({"value": float("nan")})


def test_rate_report_round_trips():
    report = RateReport(
        experiment="w1_shift",
        sizes=[100, 200],
        mean_errors=[0.1, 0.07],
        slope=-0.51,
        ci_low=-0.6,
        ci_high=-0.4,
        band_low=-0.65,
        band_high=-0.35,
        passed=True,
        replicates=12,
        seed=0,
    )
    payload = json.loads(emit_report(report))
    assert payload["sizes"] == [100, 200]
    assert payload["passed"] is True
    assert emit_report(payload) == emit_report(json.loads(emit_report(payload)))
