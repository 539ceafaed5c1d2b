"""The quantile route against its searchsorted form, bit for bit.

``_reference_quantile_cost`` is the route as it stood before it read each
segment's quantile index off the merged breakpoints: it sorts the pooled
levels and looks every midpoint up in both laws. The two must agree with
``==`` on every input, so no conditional index moves by a bit.
"""

import math

import numpy as np
import pytest

from wassdep.empirical import PairedSample, partition, to_measure
from wassdep.exact import _quantile_cost, wasserstein_1d
from wassdep.measures import DiscreteMeasure, _quantile_form


def _reference_quantile_cost(x: np.ndarray, wx: np.ndarray, y: np.ndarray, wy: np.ndarray, p: float) -> float:
    """Integral of |Fx^{-1} - Fy^{-1}|^p over (0,1) for discrete laws.

    Quantiles are the right-continuous generalized inverses; tied atoms stack
    their mass. The integrand is piecewise constant between the merged
    cumulative-weight breakpoints, so the integral is an exact finite sum.
    """
    ox = np.argsort(x, kind="stable")
    oy = np.argsort(y, kind="stable")
    xs, cwx = x[ox], np.cumsum(wx[ox])
    ys, cwy = y[oy], np.cumsum(wy[oy])
    levels = np.concatenate([cwx[:-1], cwy[:-1]])
    levels = np.sort(levels[(levels > 0.0) & (levels < 1.0)])
    edges = np.concatenate([[0.0], levels, [1.0]])
    seg = np.diff(edges)
    mids = edges[:-1] + seg / 2
    qx = xs[np.minimum(np.searchsorted(cwx, mids, side="left"), len(xs) - 1)]
    qy = ys[np.minimum(np.searchsorted(cwy, mids, side="left"), len(ys) - 1)]
    gaps = np.abs(qx - qy)
    if p != 1:
        gaps = gaps ** p
    return float((seg * gaps).sum())


def _assert_same_bits(x, wx, y, wy):
    for p in (1.0, 2.0, 3.0):
        for a, wa, b, wb in ((x, wx, y, wy), (y, wy, x, wx)):
            cost = _quantile_cost(*_quantile_form(a, wa), *_quantile_form(b, wb), p)
            assert cost == _reference_quantile_cost(a, wa, b, wb, p)


def test_every_bins_group_of_a_large_sample_matches_the_reference():
    rng = np.random.default_rng(9973)
    n, rho = 200_000, 0.6
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    sample = PairedSample(x, y)
    family = partition(sample, "bins")
    marginal = to_measure(sample.ys)
    y, wy = marginal.points[:, 0], marginal.weights
    target = _quantile_form(y, wy)
    assert family.k > 40
    for p in (1.0, 2.0, 3.0):
        for law in family.laws:
            x, wx = law.points[:, 0], law.weights
            cost = _quantile_cost(*_quantile_form(x, wx), *target, p)
            assert cost == _reference_quantile_cost(x, wx, y, wy, p)


def _small_law(rng, kind):
    n = int(rng.integers(1, 9))
    if kind == "tied":
        atoms = rng.integers(-2, 3, size=n).astype(float)
    else:
        atoms = rng.normal(size=n)
    if kind in ("uniform", "tied"):
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.dirichlet(np.ones(n))
        if kind == "zeros" and n > 1:
            weights[rng.random(n) < 0.4] = 0.0
            if weights.sum() == 0.0:
                weights[0] = 1.0
            weights /= weights.sum()
    return atoms, weights


@pytest.mark.parametrize("kind", ["uniform", "tied", "weighted", "zeros"])
def test_seeded_small_laws_match_the_reference(kind):
    rng = np.random.default_rng(["uniform", "tied", "weighted", "zeros"].index(kind))
    for _ in range(300):
        _assert_same_bits(*_small_law(rng, kind), *_small_law(rng, kind))


def test_single_atoms_and_zero_weight_ends_match_the_reference():
    one = (np.array([0.5]), np.array([1.0]))
    spread = (np.array([3.0, -1.0, 0.0, 2.0]), np.array([0.0, 0.25, 0.75, 0.0]))
    _assert_same_bits(*one, *one)
    _assert_same_bits(*one, *spread)
    _assert_same_bits(*spread, *spread)


def test_cumulative_weights_that_end_below_one_match_the_reference():
    tenths = np.full(10, 0.1)
    assert np.cumsum(tenths)[-1] < 1.0
    x = np.arange(10.0)
    _assert_same_bits(x, tenths, x[::-1] * 0.5, tenths)
    _assert_same_bits(x, tenths, np.array([4.0, 7.0]), np.array([0.5, 0.5]))
    _assert_same_bits(x, tenths, np.linspace(-1.0, 1.0, 7), np.full(7, 1.0 / 7))


def test_a_midpoint_that_rounds_onto_its_edge_is_read_as_the_reference_reads_it():
    # Levels 0.5 and the next float above it bound a one-ulp segment whose
    # midpoint ties to the even edge 0.5. There the first law is still on its
    # atom 0 while counting breakpoints would already have moved to 1e6.
    c = np.nextafter(0.5, 1.0)
    x, wx = np.array([0.0, 1e6]), np.array([0.5, 0.5])
    y, wy = np.array([0.0, 1e6]), np.array([c, 1.0 - c])
    assert 0.5 + (c - 0.5) / 2 == 0.5
    assert _reference_quantile_cost(x, wx, y, wy, 1.0) == 0.0
    _assert_same_bits(x, wx, y, wy)
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        base = np.sort(rng.random(k))
        levels = np.concatenate([base, np.nextafter(base, 1.0)])
        wx = np.diff(np.concatenate([[0.0], base, [1.0]]))
        wy = np.diff(np.concatenate([[0.0], np.sort(levels), [1.0]]))
        _assert_same_bits(rng.normal(size=k + 1), wx, rng.normal(size=2 * k + 1), wy)


@pytest.mark.parametrize("offset, scale", [(1e6, 1.0), (0.0, 1e-12), (0.0, 1e12), (1e6, 1e-12)])
def test_shifted_and_scaled_data_match_the_reference(offset, scale):
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 400))
        x = offset + scale * rng.normal(size=n)
        y = offset + scale * np.round(rng.normal(size=m), 1)
        _assert_same_bits(x, rng.dirichlet(np.ones(n)), y, np.full(m, 1.0 / m))


def test_wasserstein_1d_is_the_reference_root_on_unsorted_tied_and_weighted_laws():
    rng = np.random.default_rng(5)
    one = DiscreteMeasure(np.array([0.5]))
    laws = [one, DiscreteMeasure(np.array([3.0, -1.0, 0.0, 2.0]), np.array([0.0, 0.25, 0.75, 0.0]))]
    for kind in ("uniform", "tied", "weighted", "zeros"):
        laws += [DiscreteMeasure(*_small_law(rng, kind)) for _ in range(10)]
    for p in (1.0, 2.0, 3.0):
        for a in laws:
            for b in laws[::7]:
                ref = _reference_quantile_cost(a.points[:, 0], a.weights, b.points[:, 0], b.weights, p)
                assert wasserstein_1d(a, b, p) == ref ** (1 / p)
