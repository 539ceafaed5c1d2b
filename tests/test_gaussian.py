"""Gaussian dependence index: eigenvalue route, closed form, surrogate fit."""

import warnings

import numpy as np
import pytest

from wassdep.cli import main
from wassdep.empirical import PairedSample
from wassdep.exceptions import DataError, DegenerateMarginalError
from wassdep.gaussian import (
    GaussianDependenceParams,
    fit_gaussian_surrogate,
    gaussian_index_report,
    gaussian_w2,
    i_gaussian,
    i_gaussian_bivariate,
)


def _bivariate(rho: float) -> GaussianDependenceParams:
    return GaussianDependenceParams(np.eye(1), np.eye(1), np.array([[rho]]))


def test_closed_form_frozen_values():
    assert i_gaussian_bivariate(0.0) == 0.0
    assert i_gaussian_bivariate(1.0) == pytest.approx(1.0, abs=1e-12)
    assert i_gaussian_bivariate(-1.0) == pytest.approx(1.0, abs=1e-12)
    assert i_gaussian_bivariate(0.6) == pytest.approx(0.17520617977219358, abs=1e-14)
    assert i_gaussian_bivariate(0.3) < i_gaussian_bivariate(0.6)
    with pytest.raises(ValueError):
        i_gaussian_bivariate(2.0)


def test_eigenvalue_route_matches_closed_form():
    for rho in np.linspace(-0.99, 0.99, 23):
        assert i_gaussian(_bivariate(float(rho))) == pytest.approx(
            i_gaussian_bivariate(float(rho)), abs=1e-12
        )


def test_singular_joint_covariance_is_handled():
    # rho = 1 makes the joint covariance rank-1 but still PSD.
    assert i_gaussian(_bivariate(1.0)) == pytest.approx(1.0, abs=1e-9)
    assert i_gaussian(_bivariate(-1.0)) == pytest.approx(1.0, abs=1e-9)


def test_zero_cross_covariance_gives_exactly_zero():
    sx = np.diag([2.0, 1.0])
    sy = np.array([[1.5]])
    assert i_gaussian(GaussianDependenceParams(sx, sy, np.zeros((2, 1)))) == 0.0


def test_unequal_block_sizes_are_padded():
    sx = np.diag([2.0, 1.0])
    sy = np.array([[1.5]])
    sxy = np.array([[0.3], [0.1]])
    value = i_gaussian(GaussianDependenceParams(sx, sy, sxy))
    assert 0.0 < value < 1.0


def test_covariance_validation():
    with pytest.raises(DataError, match="symmetric"):
        GaussianDependenceParams(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(1), np.zeros((2, 1)))
    with pytest.raises(DataError, match="positive semidefinite"):
        GaussianDependenceParams(np.array([[-1.0]]), np.eye(1), np.zeros((1, 1)))
    with pytest.raises(DataError, match="shape"):
        GaussianDependenceParams(np.eye(2), np.eye(1), np.zeros((1, 2)))
    # blocks fine, joint not PSD: |rho| > 1 in disguise
    with pytest.raises(DataError):
        GaussianDependenceParams(np.eye(1), np.eye(1), np.array([[1.3]]))


def test_degenerate_marginals_are_rejected():
    with pytest.raises(DegenerateMarginalError):
        i_gaussian(GaussianDependenceParams(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))))


def test_surrogate_fit_recovers_planted_correlation():
    rng = np.random.default_rng(42)
    n = 50_000
    rho = 0.6
    x = rng.normal(size=n)
    y = rho * x + np.sqrt(1 - rho * rho) * rng.normal(size=n)
    params = fit_gaussian_surrogate(PairedSample(x, y, seed=42))
    assert i_gaussian(params) == pytest.approx(i_gaussian_bivariate(rho), abs=0.02)


def test_surrogate_fit_validation():
    rng = np.random.default_rng(0)
    tiny = PairedSample(rng.normal(size=2), rng.normal(size=2), seed=0)
    with pytest.raises(DataError, match="more rows"):
        fit_gaussian_surrogate(tiny)
    flat = PairedSample(np.ones(10), rng.normal(size=10), seed=0)
    with pytest.raises(DegenerateMarginalError):
        fit_gaussian_surrogate(flat)
    x = rng.normal(size=30)
    dup = PairedSample(np.column_stack([x, x]), rng.normal(size=30), seed=0)
    with pytest.warns(UserWarning, match="rank deficient"):
        fit_gaussian_surrogate(dup)


def test_report_schema():
    rng = np.random.default_rng(7)
    sample = PairedSample(rng.normal(size=200), rng.normal(size=200), seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gaussian_index_report(sample)
    assert report.index == "gaussian"
    assert report.p == 2.0
    assert report.n == 200
    assert 0.0 <= report.value <= 1.0


SCALES = [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]


@pytest.mark.parametrize("c", SCALES)
def test_index_does_not_depend_on_units(c):
    sx = np.array([[2.0, 0.3], [0.3, 1.0]])
    sy = np.array([[1.5]])
    sxy = np.array([[0.4], [-0.2]])
    unit = i_gaussian(GaussianDependenceParams(sx, sy, sxy))
    scaled = i_gaussian(GaussianDependenceParams(c * c * sx, c * c * sy, c * c * sxy))
    assert 0.0 < unit < 1.0
    assert scaled == pytest.approx(unit, abs=1e-12)


@pytest.mark.parametrize("c", SCALES)
def test_indefinite_block_is_rejected_at_every_scale(c):
    with pytest.raises(DataError, match="not positive semidefinite") as info:
        GaussianDependenceParams(np.diag([c, -1e-3 * c]), np.array([[c]]), np.zeros((2, 1)))
    assert "np.float64" not in str(info.value)


@pytest.mark.parametrize("c", [1e-100, 1e-80, 1e78])
def test_index_holds_at_units_whose_fourth_power_leaves_the_float_range(c):
    rng = np.random.default_rng(6)
    x = rng.normal(size=500)
    y = 0.6 * x + 0.8 * rng.normal(size=500)
    unit = gaussian_index_report(PairedSample(x, y)).value
    scaled = gaussian_index_report(PairedSample(c * x, c * y)).value
    assert scaled == pytest.approx(unit, abs=1e-12)


def test_cli_output_does_not_depend_on_units(tmp_path, capsys):
    rng = np.random.default_rng(6)
    x = rng.normal(size=500)
    y = 0.6 * x + 0.8 * rng.normal(size=500)
    outputs = []
    for c in (1.0, 1e-6):
        path = tmp_path / f"pair{c}.csv"
        rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(c * x, c * y)]
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        assert main(["index", "gaussian", "--file", str(path), "--x", "0", "--y", "1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"value": 0.177333014222' in outputs[0]


def test_index_numerator_is_half_the_squared_gaussian_w2():
    rng = np.random.default_rng(17)
    for m1, m2 in [(1, 1), (2, 3), (3, 2)]:
        a = rng.normal(size=(m1 + m2 + 4, m1 + m2))
        joint = a.T @ a
        params = GaussianDependenceParams(joint[:m1, :m1], joint[m1:, m1:], joint[:m1, m1:])
        lx = np.sort(np.linalg.eigvalsh(params.sigma_x))[::-1]
        ly = np.sort(np.linalg.eigvalsh(params.sigma_y))[::-1]
        depth = max(m1, m2)
        lx, ly = np.pad(lx, (0, depth - m1)), np.pad(ly, (0, depth - m2))
        denominator = np.trace(joint) - np.sum(np.sqrt(lx * lx + ly * ly))
        zero = np.zeros(m1 + m2)
        half_w2 = gaussian_w2(zero, params.joint(), zero, params.independent()) ** 2 / 2
        assert i_gaussian(params) * denominator == pytest.approx(half_w2, rel=1e-10)
