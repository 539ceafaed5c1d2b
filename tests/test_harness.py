"""Permutation testing, robustness checks, rate fits, and the demos."""

import numpy as np
import pytest

from wassdep.empirical import PairedSample
from wassdep.exceptions import DataError
from wassdep.harness import (
    RATE_EXPERIMENTS,
    STATISTICS,
    RateExperiment,
    contamination_check,
    discontinuity_demo,
    figure1_table,
    gmd_lipschitz_check,
    permutation_test,
    rate_experiment,
)


def _pair(dependent: bool) -> PairedSample:
    rng = np.random.default_rng(123)
    x = rng.normal(size=60)
    other = rng.normal(size=60)
    y = x + 0.05 * other if dependent else other
    return PairedSample(x, y, seed=0)


def test_statistics_registry_names():
    assert set(STATISTICS) == {"d_joint", "i_joint", "i_conditional", "abs_concordance"}


def test_permutation_test_separates_signal_from_noise():
    _, p_dep = permutation_test(_pair(True), "d_joint", b=49, seed=5)
    _, p_ind = permutation_test(_pair(False), "d_joint", b=49, seed=5)
    assert p_dep == pytest.approx(1.0 / 50.0)
    assert p_ind > 0.2


@pytest.mark.parametrize("k", [-560, -300, 300, 530])
def test_permutation_test_is_exact_at_any_scale(k):
    # Both coordinates times 2^k: every statistic scales exactly, so the
    # p-value is the same and the observed statistic is 2^k times as large.
    sample = _pair(True)
    scaled = PairedSample(sample.xs * 2.0**k, sample.ys * 2.0**k)
    observed, p_value = permutation_test(sample, "d_joint", b=19, seed=5)
    assert permutation_test(scaled, "d_joint", b=19, seed=5) == (observed * 2.0**k, p_value)


def test_permutation_test_is_reproducible():
    first = permutation_test(_pair(True), "d_joint", b=49, seed=5)
    second = permutation_test(_pair(True), "d_joint", b=49, seed=5)
    assert first == second


def test_constant_statistic_gives_p_one():
    observed, p = permutation_test(_pair(False), lambda s, r: 1.0, b=19, seed=0)
    assert observed == 1.0
    assert p == 1.0


def test_permutation_count_floor():
    with pytest.raises(DataError):
        permutation_test(_pair(False), "d_joint", b=5)


def test_unknown_statistic_name():
    with pytest.raises(KeyError):
        permutation_test(_pair(False), "chatterjee")


def test_contamination_toward_the_product_shrinks_dependence():
    result = contamination_check(_pair(True))
    assert result["passed"] is True
    assert [row["eps"] for row in result["rows"]] == [0.0, 0.1, 0.3, 0.5, 1.0]
    full = result["rows"][-1]
    assert full["mixture_power"] == pytest.approx(0.0, abs=1e-9)
    assert all(row["holds"] for row in result["rows"])


def test_mean_discrepancy_transport_stability():
    result = gmd_lipschitz_check(n_pairs=20, seed=3)
    assert result["passed"] is True
    assert all(row["lhs"] <= row["rhs"] + 1e-9 for row in result["rows"])


def test_rate_fit_recovers_an_exact_slope():
    toy = RateExperiment(
        name="toy",
        truth=2.0,
        band=(-0.6, -0.4),
        sizes=(100, 200, 400),
        sampler=lambda n, rng: 2.0 + n**-0.5,
    )
    report = rate_experiment(toy, replicates=3, bootstrap=50)
    assert report.slope == pytest.approx(-0.5, abs=1e-9)
    assert report.ci_low == pytest.approx(-0.5, abs=1e-9)
    assert report.ci_high == pytest.approx(-0.5, abs=1e-9)
    assert report.passed is True
    assert report.sizes == [100, 200, 400]
    assert report.mean_errors[0] == pytest.approx(0.1, abs=1e-12)


def test_rate_experiment_needs_two_sizes():
    with pytest.raises(DataError):
        rate_experiment("w1_shift", sizes=(100,), replicates=2)


def test_registered_experiments_carry_bands_and_sizes():
    assert set(RATE_EXPERIMENTS) == {"w1_shift", "entropic_joint", "joint_w2"}
    for exp in RATE_EXPERIMENTS.values():
        assert exp.band[0] < exp.band[1] <= 0.0
        assert len(exp.sizes) >= 4


def test_closed_form_table_rows():
    rows = figure1_table([0.0, 0.6, 1.0])
    assert rows[0] == {
        "rho": 0.0,
        "conditional_index": 0.0,
        "gaussian_index": 0.0,
        "mori_lower": 0.0,
        "mori_upper": 0.0,
    }
    top = rows[-1]
    assert top["conditional_index"] == pytest.approx(1.0)
    assert top["gaussian_index"] == pytest.approx(1.0)
    assert top["mori_upper"] == pytest.approx(1.0)
    for row in rows:
        assert row["mori_lower"] <= row["mori_upper"] + 1e-12


def test_discontinuity_demo_contrasts_the_estimators():
    demo = discontinuity_demo(n=300, seed=0)
    assert demo["population_value"] == 0.0
    assert demo["exact_grouping_value"] == 1.0
    assert demo["binned_value"] < 0.5
    assert demo["bins"] >= 2
    assert demo["nested_distance"] >= 0.0
    assert demo["n"] == 300 and demo["seed"] == 0
