"""Exact solver against independent oracles.

The assignment-path oracle enumerates all n! pairings; the LP path is pinned
by a closed-form 2x2 vertex search and by the 1D quantile formula, which
never touches the solver.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import wassdep
from wassdep import (
    ConditionalFamily,
    CostSpec,
    DiscreteMeasure,
    adapted_wasserstein,
    cost_matrix,
    gaussian_w2,
    solve_exact,
    to_measure,
    wasserstein_1d,
)
from wassdep.exceptions import DataError


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Minimum mean cost over all row-to-column bijections."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, j] for i, j in enumerate(perm))
        best = min(best, total)
    return best / n


def two_by_two_vertex_cost(cost: np.ndarray, a, b) -> float:
    """Closed-form optimum of a 2x2 transport problem.

    The feasible set has one free parameter (the mass sent from row 0 to
    column 0), the objective is linear in it, so the optimum sits at an
    endpoint of the parameter interval.
    """
    lo = max(0.0, a[0] + b[0] - 1.0)
    hi = min(a[0], b[0])
    best = np.inf
    for t in (lo, hi):
        val = (
            t * cost[0, 0]
            + (a[0] - t) * cost[0, 1]
            + (b[0] - t) * cost[1, 0]
            + (a[1] - b[0] + t) * cost[1, 1]
        )
        best = min(best, val)
    return best


def test_assignment_path_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        src = to_measure(rng.normal(size=(n, d)))
        dst = to_measure(rng.normal(size=(n, d)))
        spec = CostSpec(p=float(rng.choice([1.0, 2.0])))
        plan = solve_exact(src, dst, spec)
        want = brute_force_assignment_cost(cost_matrix(src, dst, spec))
        assert abs(plan.cost - want) <= 1e-9


def test_lp_path_matches_two_by_two_vertices():
    rng = np.random.default_rng(1)
    for _ in range(60):
        a = rng.dirichlet([2.0, 2.0])
        b = rng.dirichlet([2.0, 2.0])
        src = DiscreteMeasure(rng.normal(size=(2, 2)), a)
        dst = DiscreteMeasure(rng.normal(size=(2, 2)), b)
        spec = CostSpec(p=2.0)
        plan = solve_exact(src, dst, spec)
        want = two_by_two_vertex_cost(cost_matrix(src, dst, spec), a, b)
        assert abs(plan.cost - want) <= 1e-9


def test_plan_marginals_and_nonnegativity():
    rng = np.random.default_rng(2)
    src = DiscreteMeasure(rng.normal(size=(7, 2)), rng.dirichlet(np.ones(7)))
    dst = DiscreteMeasure(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
    plan = solve_exact(src, dst, CostSpec(p=1.0))
    row, col = plan.marginals()
    assert np.all(plan.mass >= 0)
    assert np.allclose(row, src.weights, atol=1e-9)
    assert np.allclose(col, dst.weights, atol=1e-9)


def test_identical_measures_cost_zero():
    m = to_measure(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 0.5]]))
    assert solve_exact(m, m, CostSpec(p=2.0)).cost == pytest.approx(0.0, abs=1e-12)


def test_metric_properties_on_random_triples():
    """Symmetry and the triangle inequality for the rooted distance."""
    rng = np.random.default_rng(3)
    spec = CostSpec(p=2.0)
    for _ in range(20):
        ms = [to_measure(rng.normal(size=(int(rng.integers(2, 6)), 2))) for _ in range(3)]
        dab = solve_exact(ms[0], ms[1], spec).distance
        dba = solve_exact(ms[1], ms[0], spec).distance
        dac = solve_exact(ms[0], ms[2], spec).distance
        dcb = solve_exact(ms[2], ms[1], spec).distance
        assert dab == pytest.approx(dba, abs=1e-9)
        assert dab <= dac + dcb + 1e-9


def test_distance_scales_with_homogeneity():
    rng = np.random.default_rng(4)
    src = to_measure(rng.normal(size=(6, 2)))
    dst = to_measure(rng.normal(size=(6, 2)))
    for p in (1.0, 2.0, 3.0):
        spec = CostSpec(p=p)
        base = solve_exact(src, dst, spec).distance
        scaled = solve_exact(
            DiscreteMeasure(src.points * 2.5, src.weights),
            DiscreteMeasure(dst.points * 2.5, dst.weights),
            spec,
        ).distance
        assert scaled == pytest.approx(2.5 * base, rel=1e-9)


def test_lp_failure_raises_exact_solver_error(monkeypatch):
    # Non-uniform weights take the LP route; a failed LP must not be read as
    # an optimum.
    failed = SimpleNamespace(success=False, status=4, message="numerical difficulties")
    monkeypatch.setattr(wassdep.exact, "linprog", lambda *args, **kwargs: failed)
    src = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
    dst = to_measure(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(wassdep.ExactSolverError, match="numerical difficulties"):
        solve_exact(src, dst, CostSpec(p=1.0))
    assert issubclass(wassdep.ExactSolverError, wassdep.WassdepError)


# ---------------------------------------------------------------------------
# 1D quantile route
# ---------------------------------------------------------------------------


def test_wasserstein_1d_hand_cases():
    two = to_measure(np.array([0.0, 1.0]))
    shifted = to_measure(np.array([1.0, 2.0]))
    assert wasserstein_1d(two, shifted, p=1.0) == pytest.approx(1.0)
    assert wasserstein_1d(two, shifted, p=2.0) == pytest.approx(1.0)

    # non-uniform weights split one quantile segment
    src = to_measure(np.array([0.0, 2.0]))
    dst = DiscreteMeasure(np.array([0.0, 2.0]), np.array([0.75, 0.25]))
    assert wasserstein_1d(src, dst, p=1.0) == pytest.approx(0.5)
    assert wasserstein_1d(src, dst, p=2.0) == pytest.approx(1.0)


def test_wasserstein_1d_matches_lp_on_random_instances():
    rng = np.random.default_rng(5)
    for k in range(40):
        n, m = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        if k % 2:
            src = DiscreteMeasure(rng.normal(size=n), rng.dirichlet(np.ones(n)))
            dst = DiscreteMeasure(rng.normal(size=m), rng.dirichlet(np.ones(m)))
        else:
            src = to_measure(rng.normal(size=n))
            dst = to_measure(rng.normal(size=m))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        direct = wasserstein_1d(src, dst, p=p)
        solver = solve_exact(src, dst, CostSpec(p=p)).distance
        assert direct == pytest.approx(solver, abs=1e-8)


def test_wasserstein_1d_rejects_higher_dimension():
    m = to_measure(np.zeros((3, 2)))
    with pytest.raises(Exception):
        wasserstein_1d(m, m, p=1.0)


# ---------------------------------------------------------------------------
# Gaussian closed form
# ---------------------------------------------------------------------------


def test_gaussian_w2_mean_shift_and_1d():
    assert gaussian_w2([0.0], [[1.0]], [3.0], [[1.0]]) == pytest.approx(3.0)
    # 1D closed form: (mu1-mu2)^2 + (s1-s2)^2
    got = gaussian_w2([1.0], [[4.0]], [0.0], [[1.0]])
    assert got == pytest.approx(np.sqrt(1.0 + 1.0))


def test_gaussian_w2_commuting_diagonal():
    s1 = np.diag([1.0, 4.0])
    s2 = np.diag([9.0, 16.0])
    want = np.sqrt((1 - 3) ** 2 + (2 - 4) ** 2)
    assert gaussian_w2([0, 0], s1, [0, 0], s2) == pytest.approx(want)


def test_gaussian_w2_zero_on_equal_inputs():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert gaussian_w2([1, 2], cov, [1, 2], cov) == pytest.approx(0.0, abs=1e-9)


def test_gaussian_w2_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        gaussian_w2([0, 0], bad, [0, 0], np.eye(2))


def test_gaussian_w2_rejects_an_indefinite_second_covariance_in_either_slot():
    # A singular first covariance hides the second one's negative eigenvalue
    # from the cross term, so the second covariance needs its own check.
    singular, indefinite = np.diag([1.0, 0.0]), np.diag([1.0, -1.0])
    with pytest.raises(DataError, match="second covariance is not positive semidefinite"):
        gaussian_w2([0, 0], singular, [0, 0], indefinite)
    with pytest.raises(DataError, match="first covariance is not positive semidefinite"):
        gaussian_w2([0, 0], indefinite, [0, 0], singular)


# ---------------------------------------------------------------------------
# Nested (two-stage) distance
# ---------------------------------------------------------------------------


def test_adapted_wasserstein_single_atom_reduces_to_inner_distance():
    outer = np.array([0.0])
    law1 = ConditionalFamily(outer, (to_measure(np.array([0.0, 1.0])),), np.array([1.0]))
    law2 = ConditionalFamily(outer, (DiscreteMeasure.dirac(0.0),), np.array([1.0]))
    assert adapted_wasserstein(law1, law2, CostSpec(p=1.0)) == pytest.approx(0.5)


def test_adapted_wasserstein_couples_outer_atoms():
    cond_a = DiscreteMeasure.dirac(0.0)
    cond_b = DiscreteMeasure.dirac(10.0)
    law1 = ConditionalFamily(np.array([0.0, 1.0]), (cond_a, cond_b), np.array([0.5, 0.5]))
    law2 = ConditionalFamily(np.array([0.0, 1.0]), (cond_a, cond_b), np.array([0.5, 0.5]))
    assert adapted_wasserstein(law1, law2, CostSpec(p=1.0)) == pytest.approx(0.0, abs=1e-12)
    # swapping the conditionals forces either an outer move or an inner move
    law3 = ConditionalFamily(np.array([0.0, 1.0]), (cond_b, cond_a), np.array([0.5, 0.5]))
    got = adapted_wasserstein(law1, law3, CostSpec(p=1.0))
    assert got == pytest.approx(1.0)
