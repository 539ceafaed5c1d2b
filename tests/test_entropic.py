"""Log-domain Sinkhorn contracts: marginals, bounds, limits, failure mode."""

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from wassdep import (
    CostSpec,
    SinkhornConvergenceError,
    cost_matrix,
    sinkhorn_discrepancy,
    sinkhorn_divergence,
    solve_exact,
    to_measure,
)
from wassdep import entropic
from wassdep.entropic import _sinkhorn_potentials, logsumexp


def _instance(seed, n=11, m=8, d=2):
    rng = np.random.default_rng(seed)
    return to_measure(rng.normal(size=(n, d))), to_measure(rng.normal(size=(m, d)) + 0.3)


def _rebuilt_plan(src, dst, eps, spec=CostSpec(p=2.0), tol=1e-9, max_iter=10_000, symmetric=False):
    """The plan and cost matrix that sinkhorn_discrepancy solves, rebuilt
    from the potentials by the same expression."""
    cost = cost_matrix(src, dst, spec)
    log_a, log_b = np.log(src.weights), np.log(dst.weights)
    f, g, _ = _sinkhorn_potentials(cost, log_a, log_b, eps, tol, max_iter, symmetric)
    return np.exp(log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - cost) / eps), cost


def test_plan_marginals_match_within_tolerance():
    src, dst = _instance(0)
    for target, symmetric in ((dst, False), (src, True)):  # alternating, then averaged sweeps
        plan, _ = _rebuilt_plan(src, target, 0.5, symmetric=symmetric)
        assert np.abs(plan.sum(axis=1) - src.weights).max() <= 1e-8
        assert np.abs(plan.sum(axis=0) - target.weights).max() <= 1e-8
        assert np.all(plan >= 0)


def test_regularized_value_upper_bounds_exact_cost():
    for seed in range(5):
        src, dst = _instance(seed)
        exact = solve_exact(src, dst, CostSpec(p=2.0))
        value = sinkhorn_discrepancy(src, dst, eps=0.8)
        assert value >= exact - 1e-9


def test_gap_shrinks_as_regularization_shrinks():
    src, dst = _instance(3)
    spec = CostSpec(p=2.0)
    exact = solve_exact(src, dst, spec)
    med = float(np.median(cost_matrix(src, dst, spec)))
    gaps = []
    for mult, tol in ((1.0, 1e-9), (0.3, 1e-9), (0.1, 1e-9)):
        value = sinkhorn_discrepancy(src, dst, mult * med, spec, tol=tol)
        gaps.append(value - exact)
    assert gaps[0] > gaps[1] > gaps[2] > -1e-9


def test_value_approaches_exact_cost_for_small_eps():
    src, dst = _instance(4, n=9, m=9)
    spec = CostSpec(p=2.0)
    exact = solve_exact(src, dst, spec)
    med = float(np.median(cost_matrix(src, dst, spec)))
    value = sinkhorn_discrepancy(src, dst, 0.01 * med, spec, tol=1e-6, max_iter=200_000)
    assert value == pytest.approx(exact, abs=0.05 * max(exact, 1.0))


def test_self_divergence_is_zero():
    src, _ = _instance(5)
    assert sinkhorn_divergence(src, src, eps=0.7) == 0.0


def test_divergence_is_symmetric_and_nonnegative():
    src, dst = _instance(6)
    ab = sinkhorn_divergence(src, dst, eps=0.9)
    ba = sinkhorn_divergence(dst, src, eps=0.9)
    assert ab >= 0.0
    assert ab == pytest.approx(ba, rel=1e-6, abs=1e-10)
    assert ab > 1e-3  # distinct clouds separated by a shift


def test_divergence_detects_equal_measures_under_distinct_atom_lists():
    # same measure written as 4 atoms and as a duplicated 8-atom list
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    a = to_measure(pts)
    b = to_measure(np.vstack([pts, pts]))
    assert sinkhorn_divergence(a, b, eps=0.5) <= 1e-8


def test_symmetric_path_agrees_with_alternating_path():
    """The self-solve shortcut must not change the reported value."""
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(10, 2))
    a = to_measure(pts)
    b = to_measure(pts.copy())  # bit-equal points: symmetric shortcut
    b2 = to_measure((pts * 3.0) / 3.0)  # same measure up to rounding: alternating path
    assert not np.array_equal(a.points, b2.points)
    v_sym = sinkhorn_discrepancy(a, b, 0.6)
    v_alt = sinkhorn_discrepancy(a, b2, 0.6)
    assert v_sym == pytest.approx(v_alt, rel=1e-6, abs=1e-8)


def test_raises_with_achieved_violation_when_budget_too_small():
    src, dst = _instance(8)
    with pytest.raises(SinkhornConvergenceError) as err:
        sinkhorn_discrepancy(src, dst, eps=0.05, tol=1e-12, max_iter=3)
    assert err.value.achieved_violation > 0.0
    assert "violation" in str(err.value)


@pytest.mark.parametrize("symmetric", [False, True])
def test_convergence_error_names_eps_budget_and_tolerance(symmetric):
    src, dst = _instance(12)
    with pytest.raises(SinkhornConvergenceError) as err:
        sinkhorn_discrepancy(src, src if symmetric else dst, eps=0.05, tol=1e-12, max_iter=3)
    assert err.value.eps == 0.05
    assert err.value.achieved_violation > 1e-12
    message = str(err.value)
    assert "after 3 iterations" in message
    assert "eps 5.000e-02" in message
    assert "tol 1.0e-12" in message


def _lse_cases():
    rng = np.random.default_rng(2024)
    for shape in ((1, 9), (9, 1), (1, 1), (20, 17), (60, 48)):
        yield rng.normal(size=shape) * 30.0
        ties = np.round(rng.normal(size=shape), 1)
        ties[..., 0] = ties.max()  # every row shares the global maximum
        yield ties
        holes = rng.normal(size=shape)
        holes[rng.random(shape) < 0.3] = -np.inf
        # a finite first row and column: no slice is all -inf
        holes[:, 0] = holes[:, 0].clip(-1.0, 1.0)
        holes[0, :] = holes[0, :].clip(-1.0, 1.0)
        yield holes


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_scipy(axis):
    for a in _lse_cases():
        want = scipy_logsumexp(a, axis=axis)
        got = logsumexp(a, axis)
        assert got.shape == want.shape
        np.testing.assert_array_max_ulp(got, want, maxulp=2)


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_of_an_all_minus_inf_slice_is_minus_inf(axis):
    a = np.full((3, 4), -np.inf)
    a[1, 2] = 0.5
    got = logsumexp(a, axis)
    blank = np.ones(a.shape[1 - axis], dtype=bool)
    blank[2 if axis == 0 else 1] = False
    assert np.all(got[blank] == -np.inf)
    assert got[~blank][0] == 0.5


def test_sinkhorn_values_are_pinned():
    """Values captured before the log-sum-exp moved in-module; both paths."""
    src, dst = _instance(11)
    assert sinkhorn_discrepancy(src, dst, eps=0.3) == 1.1508495085778316
    plan, cost = _rebuilt_plan(src, dst, 0.3)
    assert float(np.sum(plan * cost)) == 0.8060086003488018
    assert sinkhorn_discrepancy(src, src, eps=0.3) == 0.548812654668838
    assert sinkhorn_divergence(src, dst, eps=0.3) == 0.610446153314319


def test_rejects_nonpositive_eps():
    src, dst = _instance(9)
    with pytest.raises(ValueError):
        sinkhorn_discrepancy(src, dst, eps=0.0)
    with pytest.raises(ValueError):
        sinkhorn_discrepancy(src, dst, eps=-1.0)


def test_deep_regularization_stays_finite_in_log_domain():
    """Potentials survive eps three orders below the median cost."""
    src, dst = _instance(10, n=7, m=7)
    spec = CostSpec(p=2.0)
    med = float(np.median(cost_matrix(src, dst, spec)))
    value = sinkhorn_discrepancy(src, dst, 1e-3 * med, spec, tol=1e-4, max_iter=200_000)
    assert np.isfinite(value)
    plan, _ = _rebuilt_plan(src, dst, 1e-3 * med, spec, tol=1e-4, max_iter=200_000)
    assert np.all(np.isfinite(plan))


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_rejects_non_finite_eps_before_any_sweep(eps, monkeypatch):
    src, dst = _instance(9)
    monkeypatch.setattr(entropic, "cost_matrix", None)  # refused before the cost is built
    with pytest.raises(ValueError, match="finite positive"):
        sinkhorn_discrepancy(src, dst, eps=eps)


def test_sweep_work_is_one_update_for_self_transport_and_two_otherwise(monkeypatch):
    """5 sweeps make 5 log-sum-exps on a self-transport problem (g = f, no
    g-update) and 10 on a two-measure problem."""
    calls = []

    def counted(a, axis):
        calls.append(axis)
        return logsumexp(a, axis)

    monkeypatch.setattr(entropic, "logsumexp", counted)
    src, dst = _instance(3, n=8, m=7)
    for target, symmetric, want in ((src, True, 5), (dst, False, 10)):
        calls.clear()
        with pytest.raises(SinkhornConvergenceError):  # eps = 100 is above every ladder level
            _rebuilt_plan(src, target, 100.0, tol=1e-300, max_iter=5, symmetric=symmetric)
        assert len(calls) == want


def test_plan_that_misses_its_marginals_is_refused():
    """At tiny eps the potentials round onto a fixed point that passes the
    stopping test; the returned plan's own marginals are checked instead."""
    rng0, rng1 = np.random.default_rng(0), np.random.default_rng(1)
    src, dst = to_measure(rng0.normal(size=(6, 2))), to_measure(rng1.normal(size=(5, 2)))
    assert sinkhorn_discrepancy(src, dst, eps=1e-8) >= solve_exact(src, dst, CostSpec(p=2.0))
    for eps in (1e-16, 1e-300):
        with pytest.raises(SinkhornConvergenceError) as err:
            sinkhorn_discrepancy(src, dst, eps=eps)
        assert err.value.eps == eps
        assert err.value.achieved_violation > 0.1
        assert "misses its marginals" in str(err.value)
