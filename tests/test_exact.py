"""Exact solver against independent oracles.

The assignment-path oracle enumerates all n! pairings; the LP path is pinned
by a closed-form 2x2 vertex search and by the 1D quantile formula, which
never touches the solver. The assignment route for clouds of different sizes
is pinned by scipy's LP on the same cost.
"""

import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import wassdep
from wassdep import (
    ConditionalFamily,
    CostSpec,
    DiscreteMeasure,
    PairedSample,
    adapted_wasserstein,
    cost_matrix,
    d_conditional,
    gaussian_w2,
    i_joint,
    product_estimator,
    solve_exact,
    solve_from_cost,
    to_measure,
    wasserstein_1d,
)
from wassdep.empirical import dirac_transport_cost
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


def lp_transport_cost(cost: np.ndarray, a, b) -> float:
    """Optimal transport cost by scipy's HiGHS LP with dense constraints."""
    n, m = cost.shape
    constraints = np.vstack([np.kron(np.eye(n), np.ones((1, m))), np.kron(np.ones((1, n)), np.eye(m))])
    res = scipy.optimize.linprog(
        cost.ravel(), A_eq=constraints, b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs"
    )
    assert res.success
    return float(res.fun)


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not be taken")


def test_assignment_path_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        src = to_measure(rng.normal(size=(n, d)))
        dst = to_measure(rng.normal(size=(n, d)))
        spec = CostSpec(p=float(rng.choice([1.0, 2.0])))
        got = solve_exact(src, dst, spec)
        want = brute_force_assignment_cost(cost_matrix(src, dst, spec))
        assert abs(got - want) <= 1e-9


def test_lp_path_matches_two_by_two_vertices():
    rng = np.random.default_rng(1)
    for _ in range(60):
        a = rng.dirichlet([2.0, 2.0])
        b = rng.dirichlet([2.0, 2.0])
        src = DiscreteMeasure(rng.normal(size=(2, 2)), a)
        dst = DiscreteMeasure(rng.normal(size=(2, 2)), b)
        spec = CostSpec(p=2.0)
        got = solve_exact(src, dst, spec)
        want = two_by_two_vertex_cost(cost_matrix(src, dst, spec), a, b)
        assert abs(got - want) <= 1e-9


def test_identical_measures_cost_zero():
    m = to_measure(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 0.5]]))
    assert solve_exact(m, m, CostSpec(p=2.0)) == pytest.approx(0.0, abs=1e-12)


def test_metric_properties_on_random_triples():
    """Symmetry and the triangle inequality for the rooted distance."""
    rng = np.random.default_rng(3)
    spec = CostSpec(p=2.0)
    for _ in range(20):
        ms = [to_measure(rng.normal(size=(int(rng.integers(2, 6)), 2))) for _ in range(3)]
        dab, dba, dac, dcb = (
            solve_exact(ms[i], ms[j], spec) ** 0.5 for i, j in ((0, 1), (1, 0), (0, 2), (2, 1))
        )
        assert dab == pytest.approx(dba, abs=1e-9)
        assert dab <= dac + dcb + 1e-9


def test_distance_scales_with_homogeneity():
    rng = np.random.default_rng(4)
    src = to_measure(rng.normal(size=(6, 2)))
    dst = to_measure(rng.normal(size=(6, 2)))
    for p in (1.0, 2.0, 3.0):
        spec = CostSpec(p=p)
        base = solve_exact(src, dst, spec) ** (1.0 / p)
        scaled = solve_exact(
            DiscreteMeasure(src.points * 2.5, src.weights),
            DiscreteMeasure(dst.points * 2.5, dst.weights),
            spec,
        ) ** (1.0 / p)
        assert scaled == pytest.approx(2.5 * base, rel=1e-9)


@pytest.mark.parametrize("k", [-560, -300, 300, 530])
@pytest.mark.parametrize("n, m", [(9, 9), (6, 8)])
def test_scalar_clouds_cost_exactly_scale_times_as_much_at_any_scale(k, n, m):
    # The assignment, on equal and on unequal sizes: |u - v| scales exactly at
    # either end of the float range, and so does the sum of assigned costs.
    rng = np.random.default_rng([n, m])
    src, dst = to_measure(rng.normal(size=n)), to_measure(rng.normal(size=m))
    unit = solve_exact(src, dst, CostSpec())
    scaled = solve_exact(to_measure(src.points * 2.0**k), to_measure(dst.points * 2.0**k), CostSpec())
    assert unit > 0.0
    assert scaled == unit * 2.0**k


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_cost_beyond_the_float_range_is_refused(p):
    # 2-D distances near 1e160 square past the float range inside cdist; at
    # p = 2 a scalar one's power does too. Both are refused before the solver.
    rng = np.random.default_rng(0)
    clouds = [to_measure(rng.normal(size=(6, 2)) * 1e160), to_measure(rng.normal(size=(8, 2)) * 1e160)]
    scalar = [to_measure(rng.normal(size=5) * 1e160), to_measure(rng.normal(size=30) * 1e160)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for src, dst in [clouds] + ([scalar] if p == 2 else []):
            with pytest.raises(DataError, match="leaves the float range"):
                solve_exact(src, dst, CostSpec(p=p))
        for bad in (np.inf, np.nan, -np.inf):
            with pytest.raises(DataError, match="leaves the float range"):
                solve_from_cost(np.array([[0.0, 1.0], [bad, 0.0]]), np.full(2, 0.5), np.full(2, 0.5))


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
# Assignment route for uniform weights on n != m atoms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize(
    "n, m, duplicated",
    [(60, 48, False), (48, 60, True), (30, 10, False), (10, 30, True), (16, 20, True)],
)
def test_unequal_uniform_clouds_are_assigned_not_solved_as_an_lp(monkeypatch, n, m, duplicated, p):
    rng = np.random.default_rng([n, m, int(p)])
    if duplicated:  # points of a 3 x 3 grid, so every point repeats
        src, dst = (to_measure(rng.integers(0, 3, size=(k, 2)).astype(float)) for k in (n, m))
    else:
        src, dst = to_measure(rng.normal(size=(n, 2))), to_measure(rng.normal(size=(m, 2)))
    cost = cost_matrix(src, dst, CostSpec(p=p))
    want = lp_transport_cost(cost, src.weights, dst.weights)
    monkeypatch.setattr(wassdep.exact, "linprog", _refuse)
    got = solve_from_cost(cost, src.weights, dst.weights)
    assert want > 0
    assert abs(got - want) <= 1e-12 * want


def test_clouds_whose_expansion_repeats_each_cost_too_often_go_to_the_lp(monkeypatch):
    # lcm(61, 48) = 2928 repeats each cost entry 2928 times; the LP is faster.
    rng = np.random.default_rng(61)
    src, dst = to_measure(rng.normal(size=(61, 2))), to_measure(rng.normal(size=(48, 2)))
    cost = cost_matrix(src, dst, CostSpec(p=2.0))
    want = lp_transport_cost(cost, src.weights, dst.weights)
    monkeypatch.setattr(wassdep.exact, "linear_sum_assignment", _refuse)
    got = solve_from_cost(cost, src.weights, dst.weights)
    assert abs(got - want) <= 1e-12 * want


def test_equal_sizes_assign_the_cost_itself(monkeypatch):
    rng = np.random.default_rng(7)
    src, dst = to_measure(rng.normal(size=(40, 2))), to_measure(rng.normal(size=(40, 2)))
    cost = cost_matrix(src, dst, CostSpec(p=2.0))
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    seen = []

    def record(matrix):
        seen.append(matrix)
        return scipy.optimize.linear_sum_assignment(matrix)

    monkeypatch.setattr(wassdep.exact, "linear_sum_assignment", record)
    assert solve_from_cost(cost, src.weights, dst.weights) == cost[rows, cols].sum() * src.weights[0]
    assert len(seen) == 1 and seen[0] is cost


def test_full_product_joint_index_matches_its_lp_value(monkeypatch):
    # The full estimator transports 12 sample atoms onto 144 product atoms.
    rng = np.random.default_rng(12)
    x = rng.normal(size=12)
    sample = PairedSample(x, 0.6 * x + rng.normal(size=12), seed=0)
    joint, product = product_estimator(sample, "full")
    cost = cost_matrix(joint, product, CostSpec(p=1.0, factor_dims=(1, 1)))
    want = lp_transport_cost(cost, joint.weights, product.weights)
    monkeypatch.setattr(wassdep.exact, "linprog", _refuse)
    report = i_joint(sample, estimator="full")
    assert abs(report.numerator - want) <= 1e-12


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
        solver = solve_exact(src, dst, CostSpec(p=p)) ** (1.0 / p)
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
    law1 = ConditionalFamily.from_laws(outer, (to_measure(np.array([0.0, 1.0])),), np.array([1.0]))
    law2 = ConditionalFamily.from_laws(outer, (DiscreteMeasure.dirac(0.0),), np.array([1.0]))
    assert adapted_wasserstein(law1, law2, p=1.0) == pytest.approx(0.5)


def test_adapted_wasserstein_couples_outer_atoms():
    cond_a = DiscreteMeasure.dirac(0.0)
    cond_b = DiscreteMeasure.dirac(10.0)
    law1 = ConditionalFamily.from_laws(np.array([0.0, 1.0]), (cond_a, cond_b), np.array([0.5, 0.5]))
    law2 = ConditionalFamily.from_laws(np.array([0.0, 1.0]), (cond_a, cond_b), np.array([0.5, 0.5]))
    assert adapted_wasserstein(law1, law2, p=1.0) == pytest.approx(0.0, abs=1e-12)
    # swapping the conditionals forces either an outer move or an inner move
    law3 = ConditionalFamily.from_laws(np.array([0.0, 1.0]), (cond_b, cond_a), np.array([0.5, 0.5]))
    got = adapted_wasserstein(law1, law3, p=1.0)
    assert got == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Zero-weight atoms: every route costs a law as if they were dropped
# ---------------------------------------------------------------------------


def _with_zero_weights(rng, n, dim):
    """A law on n moderate-scale atoms, three of which weigh 0, and the same
    law with those three dropped. In one dimension the zeros sit on the
    smallest atom, the largest, and one tied with a kept atom."""
    points = 5.0 + 3.0 * rng.normal(size=(n, dim))
    weights = rng.random(n) + 0.1
    order = np.argsort(points[:, 0])
    zeros = [order[0], order[n // 2], order[-1]]
    points[order[n // 2]] = points[order[n // 2 + 1]]
    weights[zeros] = 0.0
    weights /= weights.sum()
    keep = weights > 0
    return DiscreteMeasure(points, weights), DiscreteMeasure(points[keep], weights[keep])


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_zero_weight_atoms_cost_nothing_on_the_quantile_route(p):
    rng = np.random.default_rng(40)
    (a, a_kept), (b, b_kept) = _with_zero_weights(rng, 9, 1), _with_zero_weights(rng, 7, 1)
    want = wasserstein_1d(a_kept, b_kept, p) ** p
    for src, dst in ((a, b), (a, b_kept), (a_kept, b)):
        assert wasserstein_1d(src, dst, p) ** p == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_zero_weight_atoms_cost_nothing_in_the_transport_lp(p):
    rng = np.random.default_rng(41)
    (a, a_kept), (b, b_kept) = _with_zero_weights(rng, 10, 2), _with_zero_weights(rng, 8, 2)
    spec = CostSpec(p=p)
    want = solve_exact(a_kept, b_kept, spec)
    for src, dst in ((a, b), (a, b_kept), (a_kept, b)):
        assert solve_exact(src, dst, spec) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_zero_weight_atoms_cost_nothing_under_the_forced_coupling(p, dim):
    law, kept = _with_zero_weights(np.random.default_rng(42), 11, dim)
    point = np.full((1, dim), 4.5)
    want = dirac_transport_cost(point, kept, p)
    assert dirac_transport_cost(point, law, p) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_zero_weight_atoms_cost_nothing_in_a_conditional_family(p):
    # The last law keeps one atom, so dropping its zeros makes it a dirac.
    rng = np.random.default_rng(43)
    pairs = [_with_zero_weights(rng, n, 1) for n in (6, 9, 5)]
    lone = DiscreteMeasure([[2.0], [7.0], [7.5]], [0.0, 1.0, 0.0])
    pairs.append((lone, DiscreteMeasure([[7.0]])))
    reps, group_weights = np.arange(4.0), np.array([0.4, 0.3, 0.2, 0.1])
    family = ConditionalFamily.from_laws(reps, [law for law, _ in pairs], group_weights)
    dropped = ConditionalFamily.from_laws(reps, [kept for _, kept in pairs], group_weights)
    assert d_conditional(family, p) ** p == pytest.approx(d_conditional(dropped, p) ** p, rel=1e-12)


# ---------------------------------------------------------------------------
# Single-atom sources
# ---------------------------------------------------------------------------


def _dirac_and_law(m, dim, weighted):
    """A point a, a law on m atoms, and each atom's distance from a: moving
    a onto the law has one coupling, which costs sum_j w_j |a - y_j|^p."""
    rng = np.random.default_rng([m, dim, weighted])
    a = rng.normal(size=dim)
    law = DiscreteMeasure(rng.normal(size=(m, dim)), rng.dirichlet(np.ones(m)) if weighted else None)
    return a, law, np.sqrt(((law.points - a) ** 2).sum(axis=1))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m, weighted, refused", [(20, False, "linprog"), (21, False, "linear_sum_assignment"),
                                                  (9, True, "linear_sum_assignment")])
def test_a_single_atom_costs_its_mean_distance_on_either_solver_route(monkeypatch, p, dim, m, weighted, refused):
    # Up to 20 uniform atoms take the assignment, more or weighted ones the LP.
    a, law, gaps = _dirac_and_law(m, dim, weighted)
    want = float(np.sum(law.weights * gaps**p))
    monkeypatch.setattr(wassdep.exact, refused, _refuse)
    for src, dst in ((DiscreteMeasure.dirac(a), law), (law, DiscreteMeasure.dirac(a))):
        assert abs(solve_exact(src, dst, CostSpec(p=p)) - want) <= 1e-12 * want


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True])
def test_a_single_atom_costs_its_mean_distance_on_the_closed_forms(p, weighted):
    # The quantile integral, the forced coupling and, at p = 1 or 2 against a
    # uniform law, the sweep's one-atom group.
    a, law, gaps = _dirac_and_law(12, 1, weighted)
    want = float(np.sum(law.weights * gaps**p))
    got = [
        wassdep.exact._quantile_cost(*DiscreteMeasure.dirac(a).quantile_form, *law.quantile_form, p),
        dirac_transport_cost(a[None, :], law, p)[0],
    ]
    if p in (1.0, 2.0) and not weighted:
        got.append(wassdep.exact._group_powers(a, np.array([0]), law.points[:, 0], p)[0])
    assert all(abs(value - want) <= 1e-12 * want for value in got)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_single_atom_costs_its_mean_distance_under_sinkhorn(p, dim):
    # The only plan from a single atom is the product of the marginals, whose
    # KL penalty is 0, so the regularized value is the plain mean cost.
    a, law, gaps = _dirac_and_law(9, dim, True)
    want = float(np.sum(law.weights * gaps**p))
    for src, dst in ((DiscreteMeasure.dirac(a), law), (law, DiscreteMeasure.dirac(a))):
        assert abs(wassdep.sinkhorn_discrepancy(src, dst, 0.5, CostSpec(p=p)) - want) <= 1e-9 * want
