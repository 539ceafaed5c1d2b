"""Signed concordance via transport distances to the monotone extremes."""

import warnings

import numpy as np
import pytest

from wassdep.concordance import (
    _ks_distance,
    antithetic_denominator,
    concordance_index,
    d_to_diagonal,
    diagonal_transport_map,
    symmetry_threshold,
)
from wassdep.empirical import PairedSample, to_measure
from wassdep.exact import solve_exact
from wassdep.exceptions import DataError, DegenerateMarginalError
from wassdep.measures import CostSpec


def test_copula_mode_hits_the_endpoints_exactly():
    x = np.random.default_rng(11).normal(size=500)
    up = concordance_index(PairedSample(x, np.exp(x), seed=0))
    down = concordance_index(PairedSample(x, -3.0 * x + 1.0, seed=0))
    assert up.value == 1.0
    assert down.value == -1.0


def test_row_order_does_not_matter():
    rng = np.random.default_rng(11)
    u, v = rng.uniform(size=800), rng.uniform(size=800)
    base = concordance_index(PairedSample(u, v, seed=0))
    perm = np.random.default_rng(3).permutation(800)
    shuffled = concordance_index(PairedSample(u[perm], v[perm], seed=0))
    assert shuffled.value == base.value


def test_independent_uniforms_approach_the_closed_form():
    # Population value for independent margins in copula mode:
    # 1 - 2 sqrt(3/10).
    rng = np.random.default_rng(11)
    sample = PairedSample(rng.uniform(size=5000), rng.uniform(size=5000), seed=0)
    closed = 1.0 - 2.0 * np.sqrt(3.0 / 10.0)
    assert concordance_index(sample).value == pytest.approx(closed, abs=0.03)


def test_gaussian_copulas_order_by_correlation():
    rng = np.random.default_rng(99)
    values = []
    for rho in (-0.5, 0.0, 0.5):
        g1 = rng.normal(size=3000)
        g2 = rho * g1 + np.sqrt(1 - rho * rho) * rng.normal(size=3000)
        values.append(concordance_index(PairedSample(g1, g2, seed=0)).value)
    assert values[0] < values[1] < values[2]


def test_antithetic_normalizer_agrees_with_exact_transport():
    # The cost between (x, x) and (x, a-x) clouds is coupling independent,
    # so the distance is available in closed form as 2 std(x).
    for seed in (0, 1, 2):
        x = np.random.default_rng(seed).normal(size=200)
        a = 2.0 * float(np.mean(x))
        closed = antithetic_denominator(x, a)
        anti = to_measure(np.column_stack([x, a - x]))
        diag = to_measure(np.column_stack([x, x]))
        solved = solve_exact(anti, diag, CostSpec(p=2.0)) ** 0.5
        assert closed == pytest.approx(solved, abs=1e-12)
        assert closed == pytest.approx(2.0 * np.std(x), abs=1e-15)


def test_diagonal_map_is_monotone_in_s():
    rng = np.random.default_rng(4)
    sample = PairedSample(rng.normal(size=60), rng.normal(size=60), seed=0)
    s, g = diagonal_transport_map(sample)
    order = np.argsort(s, kind="stable")
    assert np.all(np.diff(g[order]) >= 0)
    assert sorted(g) == sorted(sample.xs[:, 0])


def test_diagonal_distance_is_zero_only_on_the_diagonal():
    x = np.random.default_rng(1).normal(size=50)
    assert d_to_diagonal(PairedSample(x, x.copy(), seed=0)) == 0.0
    assert d_to_diagonal(PairedSample(x, x + 1.0, seed=0)) > 0.0


def test_raw_mode_requires_the_center():
    x = np.random.default_rng(2).normal(size=100)
    a = 2.0 * float(np.mean(x))
    with pytest.raises(DataError, match="center"):
        concordance_index(PairedSample(x, a - x, seed=0), mode="raw")
    # reflecting about the empirical center makes the antithetic endpoint exact
    report = concordance_index(PairedSample(x, a - x, seed=0), mode="raw", a=a)
    assert report.value == pytest.approx(-1.0, abs=1e-9)
    assert report.center == a


def test_symmetry_screen_warns_then_raises():
    x = np.random.default_rng(5).exponential(size=400)
    a = 2.0 * float(np.mean(x))
    with pytest.warns(UserWarning, match="symmetric"):
        antithetic_denominator(x, a)
    with pytest.raises(DataError, match="symmetric"):
        antithetic_denominator(x, a, strict=True)


def test_threshold_formula():
    assert symmetry_threshold(200) == pytest.approx(2.0 * 1.36 * np.sqrt(2.0 / 200))


def test_degenerate_and_invalid_inputs():
    with pytest.raises(DegenerateMarginalError):
        antithetic_denominator(np.ones(10), 2.0)
    with pytest.raises(DataError):
        antithetic_denominator(np.array([1.0]), 2.0)
    x = np.random.default_rng(0).normal(size=20)
    with pytest.raises(ValueError, match="mode"):
        concordance_index(PairedSample(x, x, seed=0), mode="kendall")
    wide = PairedSample(np.random.default_rng(0).normal(size=(10, 2)), np.arange(10.0), seed=0)
    with pytest.raises(DataError):
        d_to_diagonal(wide)


def test_report_dictionary_carries_the_index_name():
    x = np.random.default_rng(8).normal(size=40)
    report = concordance_index(PairedSample(x, x * 2, seed=8))
    payload = report.to_dict()
    assert payload["index"] == "concordance"
    assert payload["mode"] == "copula"
    assert payload["center"] == 1.0
    assert payload["n"] == 40


def test_copula_mode_matches_kendall_direction_on_clayton_like_data():
    # A quick cross-check against a rank statistic with a known sign: the
    # transformed index must agree in sign with Kendall's tau.
    from scipy.stats import kendalltau

    rng = np.random.default_rng(21)
    x = rng.normal(size=600)
    y = 0.4 * x + rng.normal(size=600)
    tau = kendalltau(x, y).statistic
    value = concordance_index(PairedSample(x, y, seed=0)).value
    assert np.sign(value) == np.sign(tau)


def test_raw_mode_screens_equal_laws_like_the_symmetry_screen():
    rng = np.random.default_rng(9)
    x = rng.normal(size=400)
    sample = PairedSample(x, rng.normal(loc=1.0, size=400), seed=0)
    with pytest.warns(UserWarning, match="differ in law: KS distance .* exceeds"):
        concordance_index(sample, a=0.0, mode="raw")
    with pytest.raises(DataError, match="differ in law"):
        concordance_index(sample, a=0.0, mode="raw", strict=True)


@pytest.mark.filterwarnings("ignore:ks_2samp:RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 10, 101, 1000, 10_000, 10_001, 25_000])
def test_ks_distance_matches_scipy(n):
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(n)
    cases = [
        (rng.normal(size=n), rng.normal(size=n)),
        (rng.normal(size=n), rng.normal(0.3, 2.0, size=n)),
        (np.round(rng.normal(size=n), 1), np.round(rng.normal(size=n), 1)),
        (rng.integers(0, 3, size=n).astype(float), rng.integers(1, 4, size=n).astype(float)),
        (np.zeros(n), np.zeros(n)),
    ]
    for first, second in cases:
        want = ks_2samp(first, second).statistic
        got = _ks_distance(first, second)
        if n <= 10_000:  # scipy's exact mode rounds the statistic to k/n
            assert got == want
        else:
            assert abs(got - want) <= 1e-15
