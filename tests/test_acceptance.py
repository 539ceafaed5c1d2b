"""End-to-end gates for the whole package.

Each test here is a self-contained check of one user-facing guarantee:
solver-against-oracle agreement, closed-form reproduction, estimator accuracy
against planted Gaussian truths, entropic solver contracts, invariances,
robustness inequalities, convergence-rate bands, and the calibration of the
permutation test. Where a wall-clock budget is part of the guarantee the test
asserts it.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import kstest

from wassdep.concordance import antithetic_denominator, concordance_index
from wassdep.conditional import gaussian_conditional_index, i_conditional
from wassdep.empirical import PairedSample, product_estimator, to_measure
from wassdep.entropic import sinkhorn_discrepancy, sinkhorn_divergence
from wassdep.exact import solve_exact, wasserstein_1d
from wassdep.gaussian import fit_gaussian_surrogate, i_gaussian, i_gaussian_bivariate
from wassdep.harness import (
    contamination_check,
    discontinuity_demo,
    figure1_table,
    gmd_lipschitz_check,
    permutation_test,
    rate_experiment,
)
from wassdep.joint import d_joint_entropic, i_joint, mori_gaussian_bounds
from wassdep.measures import CostSpec, DiscreteMeasure, cost_matrix


def _gaussian_pair(rho: float, n: int, rng: np.random.Generator, seed: int = 0) -> PairedSample:
    x = rng.normal(size=n)
    y = rho * x + np.sqrt(1.0 - rho * rho) * rng.normal(size=n)
    return PairedSample(x, y, seed=seed)


def test_exact_solver_matches_brute_force_and_quantile_oracles():
    start = time.perf_counter()

    # Route one: uniform equal-count instances against exhaustive search over
    # every assignment, written here from scratch.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        a = to_measure(rng.normal(size=(n, d)))
        b = to_measure(rng.normal(size=(n, d)))
        spec = CostSpec(p=p)
        costs = cost_matrix(a, b, spec)
        best = min(
            sum(costs[i, perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n))
        ) / n
        assert solve_exact(a, b, spec) == pytest.approx(best, abs=1e-9)

    # Route two: weighted 1D instances, quantile integral against the LP.
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 51))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        first = DiscreteMeasure(rng.normal(size=(n, 1)), rng.dirichlet(np.ones(n)))
        second = DiscreteMeasure(rng.normal(size=(m, 1)), rng.dirichlet(np.ones(m)))
        spec = CostSpec(p=p)
        assert wasserstein_1d(first, second, p=p) == pytest.approx(
            solve_exact(first, second, spec) ** (1.0 / p), abs=1e-8
        )

    assert time.perf_counter() - start < 10.0


def test_closed_form_index_table_on_the_correlation_grid():
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 41)
    rows = figure1_table(grid)
    worst = 0.0
    for rho, row in zip(grid, rows):
        conditional = 1.0 - np.sqrt(1.0 - rho * rho)
        gaussian = (2.0 - np.sqrt(1.0 + rho) - np.sqrt(1.0 - rho)) / (2.0 - np.sqrt(2.0))
        lower = abs(1.0 - np.sqrt(1.0 - rho))
        upper = np.sqrt(1.0 - np.sqrt(1.0 - rho * rho))
        worst = max(
            worst,
            abs(row["conditional_index"] - conditional),
            abs(row["gaussian_index"] - gaussian),
            abs(row["mori_lower"] - lower),
            abs(row["mori_upper"] - upper),
        )
    assert worst <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_binned_conditional_estimator_recovers_gaussian_truth():
    start = time.perf_counter()
    n = 20_000
    for rho in (0.0, 0.3, 0.6, 0.9):
        truth = gaussian_conditional_index(rho)
        hits = 0
        for seed in range(10):
            sample = _gaussian_pair(rho, n, np.random.default_rng(1000 + seed), seed=seed)
            value = i_conditional(sample, mode="bins", p=2.0).value
            hits += abs(value - truth) <= 0.05
        assert hits >= 9, f"rho={rho}: only {hits}/10 replicates within 0.05"
    assert time.perf_counter() - start < 60.0


def test_gaussian_surrogate_index_recovers_planted_correlations():
    start = time.perf_counter()
    n = 50_000
    for rho in (0.0, 0.3, 0.6, 0.9):
        sample = _gaussian_pair(rho, n, np.random.default_rng(42))
        value = i_gaussian(fit_gaussian_surrogate(sample))
        assert value == pytest.approx(i_gaussian_bivariate(rho), abs=0.02)
    assert time.perf_counter() - start < 10.0


def test_joint_index_lands_inside_gaussian_brackets():
    start = time.perf_counter()
    n = 500
    for rho in (0.3, 0.6, 0.9):
        lower, upper = mori_gaussian_bounds(rho)
        hits = 0
        for seed in range(10):
            sample = _gaussian_pair(rho, n, np.random.default_rng(7000 + seed), seed=seed)
            value = i_joint(sample, rng=np.random.default_rng(seed)).value
            hits += lower - 0.05 <= value <= upper + 0.05
        assert hits >= 9, f"rho={rho}: only {hits}/10 inside the widened bracket"
    assert time.perf_counter() - start < 120.0


def test_entropic_solver_contracts():
    # Self-transport is free of dependence signal: debiased value vanishes.
    for k in range(50):
        rng = np.random.default_rng(k)
        n = int(rng.integers(5, 31))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        w = rng.random(n) + 0.05
        measure = DiscreteMeasure(pts, w / w.sum())
        spec = CostSpec(p=2.0)
        eps = 0.5 * float(np.median(cost_matrix(measure, measure, spec)))
        assert sinkhorn_divergence(measure, measure, eps, spec) <= 1e-6

    # The entropic cost approaches the exact cost from above as the
    # regularization is cut 10x and 100x below the cost scale.
    for k in range(20):
        rng = np.random.default_rng(100 + k)
        na, nb = (int(v) for v in rng.integers(8, 25, size=2))
        a = to_measure(rng.normal(size=(na, 2)))
        b = to_measure(rng.normal(size=(nb, 2)) + 0.5)
        spec = CostSpec(p=2.0)
        exact = solve_exact(a, b, spec)
        med = float(np.median(cost_matrix(a, b, spec)))
        gaps = []
        for factor, tol, max_iter in (
            (1.0, 1e-9, 10_000),
            (0.1, 1e-8, 50_000),
            (0.01, 1e-6, 100_000),
        ):
            cost = sinkhorn_discrepancy(a, b, factor * med, spec, tol=tol, max_iter=max_iter)
            gaps.append(abs(cost - exact))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1], f"instance {k}: gaps {gaps}"

    # An exactly factorized sample carries no signal for the debiased value.
    vals = np.array([0.0, 1.0, 2.0, 3.5])
    sample = PairedSample(np.repeat(vals, 4), np.tile(vals, 4), seed=0)
    joint, product = product_estimator(sample, "full", np.random.default_rng(0))
    med = float(np.median(cost_matrix(joint, product, CostSpec(p=2.0))))
    value = d_joint_entropic(sample, 0.1 * med, estimator="full", rng=np.random.default_rng(0))
    assert value <= 1e-6


def test_concordance_endpoints_population_value_and_monotonicity():
    x = np.random.default_rng(11).normal(size=500)
    assert concordance_index(PairedSample(x, x.copy(), seed=0)).value == 1.0
    assert concordance_index(PairedSample(x, 1.0 - x, seed=0)).value == -1.0

    rng = np.random.default_rng(11)
    big = PairedSample(rng.uniform(size=50_000), rng.uniform(size=50_000), seed=0)
    assert concordance_index(big).value == pytest.approx(-0.095, abs=0.02)

    for seed in (0, 1, 2):
        xs = np.random.default_rng(seed).normal(size=200)
        a = 2.0 * float(np.mean(xs))
        closed = antithetic_denominator(xs, a)
        solved = solve_exact(
            to_measure(np.column_stack([xs, a - xs])),
            to_measure(np.column_stack([xs, xs])),
            CostSpec(p=2.0),
        ) ** 0.5
        assert abs(closed - solved) <= 1e-2

    data_rng = np.random.default_rng(99)
    values = []
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        sample = _gaussian_pair(rho, 5000, data_rng)
        values.append(concordance_index(sample).value)
    assert all(u < v for u, v in zip(values, values[1:]))


def test_similarity_and_rank_invariances():
    # Scaling both coordinates by one common factor (with arbitrary shifts
    # and sign flips) must not move the normalized joint index.
    rng = np.random.default_rng(2)
    x = rng.normal(size=120)
    y = 0.6 * x + 0.8 * rng.normal(size=120)
    plain = i_joint(PairedSample(x, y, seed=2), rng=np.random.default_rng(7))
    moved = i_joint(
        PairedSample(x * 3.7 + 11.0, y * (-3.7) + 4.0, seed=2),
        rng=np.random.default_rng(7),
    )
    assert abs(plain.value - moved.value) <= 1e-12

    # Strictly increasing x-transforms relabel the groups without touching
    # the grouped y-laws: the exact-grouping value must not move a bit.
    xt = np.repeat(np.arange(6.0), 10)
    yt = 0.5 * xt + np.random.default_rng(1).normal(size=60)
    before = i_conditional(PairedSample(xt, yt, seed=0), mode="exact", p=2.0)
    after = i_conditional(PairedSample(np.exp(xt), yt, seed=0), mode="exact", p=2.0)
    assert after.value == before.value
    assert 0.0 < before.value < 1.0

    # Copula-mode concordance sees only the ranks.
    rng = np.random.default_rng(14)
    u = rng.normal(size=300)
    v = 0.5 * u + rng.normal(size=300)
    base = concordance_index(PairedSample(u, v, seed=0))
    warped = concordance_index(PairedSample(np.exp(u), v**3 + 2.0 * v, seed=0))
    assert warped.value == base.value


def test_robustness_checks_and_discontinuity_demo():
    assert gmd_lipschitz_check()["passed"] is True

    rng = np.random.default_rng(123)
    x = rng.normal(size=60)
    dependent = PairedSample(x, x + 0.05 * rng.normal(size=60), seed=0)
    assert contamination_check(dependent)["passed"] is True

    demo = discontinuity_demo(n=1000, seed=0)
    assert demo["exact_grouping_value"] == 1.0
    assert demo["binned_value"] < 0.5


def test_rate_slopes_fall_in_their_bands():
    start = time.perf_counter()
    for name in ("w1_shift", "entropic_joint"):
        passes = sum(rate_experiment(name, seed=seed).passed for seed in (0, 1, 2))
        assert passes >= 2, f"{name}: only {passes}/3 seeded runs inside the band"
    assert time.perf_counter() - start < 300.0


def test_permutation_test_calibration_and_power():
    # Null calibration: p-values of independent draws look uniform.
    p_values = []
    for k in range(500):
        rng = np.random.default_rng(300_000 + k)
        sample = PairedSample(rng.normal(size=100), rng.normal(size=100), seed=k)
        _, p = permutation_test(sample, "d_joint", b=99, seed=k)
        p_values.append(p)
    assert kstest(p_values, "uniform").pvalue > 0.01

    # Power against a strong signal.
    rejections = 0
    for k in range(50):
        sample = _gaussian_pair(0.8, 200, np.random.default_rng(500_000 + k), seed=k)
        _, p = permutation_test(sample, "d_joint", b=99, seed=k)
        rejections += p <= 0.05
    assert rejections >= 45
