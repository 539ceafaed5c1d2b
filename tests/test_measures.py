"""Construction and validation of measures, cost specs, and cost matrices;
a measure's support, and the solvers' invariance to how its atoms are listed."""

import numpy as np
import pytest
import scipy.optimize
from scipy.spatial.distance import cdist

from wassdep import (
    CostSpec, DataError, DiscreteMeasure, cost_matrix, mixture, product_measure, sinkhorn_discrepancy, solve_exact
)
from wassdep import exact, measures


def test_uniform_weights_by_default():
    m = DiscreteMeasure(np.arange(5.0))
    assert m.points.shape == (5, 1)
    assert np.allclose(m.weights, 0.2)


def test_weights_renormalized_within_tolerance():
    w = np.array([0.25, 0.25, 0.25, 0.25]) * (1.0 + 5e-10)
    m = DiscreteMeasure(np.arange(4.0), w)
    assert m.weights.sum() == 1.0


def test_weights_rejected_beyond_tolerance():
    with pytest.raises(ValueError, match="sum"):
        DiscreteMeasure(np.arange(4.0), np.full(4, 0.3))


def test_negative_and_nonfinite_weights_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.arange(3.0), np.array([0.5, 0.6, -0.1]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.arange(3.0), np.array([0.5, np.nan, 0.5]))


def test_points_must_be_finite_and_nonempty():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.empty((0, 2)))


def test_dirac_constructor():
    m = DiscreteMeasure.dirac([1.0, 2.0])
    assert m.n == 1 and m.dim == 2
    assert m.weights[0] == 1.0


# ---------------------------------------------------------------------------
# CostSpec validation
# ---------------------------------------------------------------------------


def test_cost_spec_requires_p_at_least_one():
    with pytest.raises(ValueError):
        CostSpec(p=0.5)
    with pytest.raises(ValueError):
        CostSpec(p=np.inf)


def test_factor_dims_default_to_unit_weights():
    assert CostSpec(factor_dims=(2, 3)).weights == (1.0, 1.0)
    assert CostSpec().factor_dims == CostSpec().weights == ()
    for dims in [(1, 0), (2, -1)]:
        with pytest.raises(ValueError, match="factor_dims"):
            CostSpec(factor_dims=dims)


def test_weights_need_one_finite_positive_value_per_factor():
    for weights in [(1.0,), (1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError, match="one weight per factor"):
            CostSpec(factor_dims=(1, 1), weights=weights)
    with pytest.raises(ValueError, match="one weight per factor"):
        CostSpec(weights=(1.0,))
    for weights in [(0.0, 1.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf)]:
        with pytest.raises(ValueError, match="finite and strictly positive"):
            CostSpec(factor_dims=(1, 1), weights=weights)


def test_alpha_needs_two_factors_and_positive_alpha():
    # the alpha cost alpha * d_X + d_Y is the weights (alpha, 1) on two factors
    assert CostSpec(factor_dims=(1, 2), weights=(2.5, 1.0)).weights == (2.5, 1.0)
    with pytest.raises(ValueError, match="one weight per factor"):
        CostSpec(factor_dims=(1, 1, 1), weights=(2.5, 1.0))
    for alpha in [0.0, -1.0, np.nan]:
        with pytest.raises(ValueError, match="finite and strictly positive"):
            CostSpec(factor_dims=(1, 1), weights=(alpha, 1.0))


def test_scaled_needs_matching_positive_scales():
    # the scaled cost sum_k s_k * d_k is the weights (s_1, ..., s_K)
    with pytest.raises(ValueError, match="one weight per factor"):
        CostSpec(factor_dims=(1, 1), weights=(1.0,))
    with pytest.raises(ValueError, match="finite and strictly positive"):
        CostSpec(factor_dims=(1, 1), weights=(1.0, -2.0))


# ---------------------------------------------------------------------------
# Cost matrices
# ---------------------------------------------------------------------------


def test_cost_matrix_single_euclidean_power():
    src = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]))
    dst = DiscreteMeasure(np.array([[0.0, 3.0]]))
    c1 = cost_matrix(src, dst, CostSpec(p=1.0))
    c2 = cost_matrix(src, dst, CostSpec(p=2.0))
    assert np.allclose(c1[:, 0], [3.0, np.sqrt(10.0)])
    assert np.allclose(c2[:, 0], [9.0, 10.0])


def test_cost_matrix_weighted_sum_pins_cdist_bits():
    rng = np.random.default_rng(4)
    src = DiscreteMeasure(rng.normal(size=(9, 3)))
    dst = DiscreteMeasure(rng.normal(size=(7, 3)))
    dx = cdist(src.points[:, :1], dst.points[:, :1])
    dy = cdist(src.points[:, 1:], dst.points[:, 1:])
    plain = cost_matrix(src, dst, CostSpec(factor_dims=(1, 2), weights=(1, 1)))
    assert np.array_equal(plain, dx + dy)
    a = 2.5
    weighted = cost_matrix(src, dst, CostSpec(factor_dims=(1, 2), weights=(a, 1)))
    assert np.array_equal(weighted, a * dx + dy)
    squared = cost_matrix(src, dst, CostSpec(p=2.0, factor_dims=(1, 2)))
    assert np.array_equal(squared, (dx + dy) ** 2)
    assert np.array_equal(cost_matrix(src, dst, CostSpec()), cdist(src.points, dst.points))


def test_cost_matrix_alpha_and_scaled():
    # The two weightings the joint index builds: alpha * d_x + d_y, and each
    # factor divided by its own scale.
    src = DiscreteMeasure(np.array([[0.0, 0.0]]))
    dst = DiscreteMeasure(np.array([[2.0, 5.0]]))
    ca = cost_matrix(src, dst, CostSpec(p=1.0, factor_dims=(1, 1), weights=(3.0, 1.0)))
    cs = cost_matrix(src, dst, CostSpec(p=1.0, factor_dims=(1, 1), weights=(1 / 2.0, 1 / 5.0)))
    assert np.isclose(ca[0, 0], 3.0 * 2.0 + 5.0)
    assert np.isclose(cs[0, 0], 2.0)


def test_cost_matrix_dimension_mismatch():
    a = DiscreteMeasure(np.zeros((2, 2)))
    b = DiscreteMeasure(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        cost_matrix(a, b, CostSpec())
    with pytest.raises(ValueError, match="dimension"):
        cost_matrix(a, a, CostSpec(factor_dims=(2, 2)))


def test_product_measure_grid():
    first = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    second = DiscreteMeasure(np.array([5.0]), np.array([1.0]))
    prod = product_measure(first, second)
    assert prod.n == 2 and prod.dim == 2
    assert np.allclose(prod.weights, [0.25, 0.75])
    assert np.allclose(prod.points, [[0.0, 5.0], [1.0, 5.0]])


def test_mixture_weights_and_errors():
    a = DiscreteMeasure(np.array([0.0]))
    b = DiscreteMeasure(np.array([1.0, 2.0]))
    mix = mixture([a, b], [0.3, 0.7])
    assert mix.n == 3
    assert np.allclose(mix.weights, [0.3, 0.35, 0.35])
    with pytest.raises(ValueError):
        mixture([a, b], [0.3, 0.3])
    with pytest.raises(ValueError):
        mixture([a], [])


def test_mixture_accepts_coefficients_within_the_weight_tolerance():
    a = DiscreteMeasure(np.array([0.0]))
    b = DiscreteMeasure(np.array([1.0, 2.0]))
    mix = mixture([a, b], [0.3, 0.7 + 0.9e-9])
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        mixture([a, b], [0.3, 0.7 + 1.1e-9])


def test_cost_matrix_beyond_physical_memory_is_refused(monkeypatch):
    m = DiscreteMeasure(np.random.default_rng(0).normal(size=(100, 2)))
    monkeypatch.setattr(measures, "PHYSICAL_MEMORY", 100 * 100 * 8)
    assert cost_matrix(m, m, CostSpec()).shape == (100, 100)
    monkeypatch.setattr(measures, "PHYSICAL_MEMORY", 100 * 100 * 8 - 1)
    with pytest.raises(DataError, match=r"100 x 100 cost matrix needs 80000 bytes"):
        cost_matrix(m, m, CostSpec(p=2.0))


# ---------------------------------------------------------------------------
# Support: coincident atoms merged, and the solvers see only the law
# ---------------------------------------------------------------------------


def test_support_merges_coincident_atoms_in_lexsort_order():
    points = [[1.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, -1.0]]
    m = DiscreteMeasure(points, [0.1, 0.2, 0.3, 0.0, 0.25, 0.15])
    assert m.support.points.tolist() == [[0.0, 1.0], [0.0, 2.0], [1.0, -1.0], [1.0, 0.0]]
    assert m.support.weights.tolist() == pytest.approx([0.0, 0.45, 0.15, 0.4], abs=1e-15)
    assert m.support is m.support  # cached


def test_support_of_distinct_atoms_is_their_lexsort():
    points = np.random.default_rng(3).normal(size=(9, 2))
    m = DiscreteMeasure(points)
    order = np.lexsort(points.T[::-1])
    assert np.array_equal(m.support.points, points[order])
    assert np.array_equal(m.support.weights, m.weights)


def _split(measure, rng, copies, even=False):
    """The same law with atom i listed copies[i] times, rows shuffled. Its
    weight is split among the copies at random, or evenly (``even``, with one
    copy count for all atoms) so that uniform weights stay uniform."""
    reps = np.repeat(np.arange(measure.n), copies)
    perm = rng.permutation(len(reps))
    if even:
        return DiscreteMeasure(measure.points[reps][perm])
    share = rng.random(len(reps)) + 0.1
    share /= np.bincount(reps, weights=share)[reps]
    return DiscreteMeasure(measure.points[reps][perm], (measure.weights[reps] * share)[perm])


def _laws(seed, dim, weighted, sizes):
    rng = np.random.default_rng([seed, dim, weighted])
    laws = [DiscreteMeasure(rng.normal(size=(n, dim)), rng.dirichlet(np.ones(n)) if weighted else None) for n in sizes]
    return rng, laws


def _recording(monkeypatch, name):
    seen = []
    solve = getattr(scipy.optimize, name)

    def record(first, *args, **kwargs):
        seen.append(first.size)
        return solve(first, *args, **kwargs)

    monkeypatch.setattr(exact, name, record)
    return seen


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("copies", [2, 3])
def test_evenly_split_uniform_atoms_stay_on_the_assignment_route(monkeypatch, p, dim, copies):
    # 6 atoms against 6, then 6 * copies against 6: each cost entry repeats at
    # most 20 times, so both are assignments and nothing is merged.
    assigned = _recording(monkeypatch, "linear_sum_assignment")
    monkeypatch.setattr(exact, "linprog", lambda *args, **kwargs: pytest.fail("took the LP route"))
    for seed in range(5):
        rng, (a, b) = _laws(seed, dim, False, (6, 6))
        want = solve_exact(a, b, CostSpec(p=p))
        split = _split(a, rng, copies, even=True)
        for got in (solve_exact(split, b, CostSpec(p=p)), solve_exact(b, split, CostSpec(p=p))):
            assert abs(got - want) <= 1e-12 * want
    assert sorted(set(assigned)) == [36, (6 * copies) ** 2]


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_split_atoms_are_merged_back_on_the_lp_route(monkeypatch, p, dim, weighted):
    # 7 atoms against 16 is an LP; so is the split one, solved on 7 x 16 again.
    for seed in range(5):
        rng, (a, b) = _laws(seed, dim, weighted, (7, 16))
        want = solve_exact(a, b, CostSpec(p=p))
        split = _split(a, rng, rng.integers(1, 4, size=7))
        posed = _recording(monkeypatch, "linprog")
        for got in (solve_exact(split, b, CostSpec(p=p)), solve_exact(b, split, CostSpec(p=p))):
            assert abs(got - want) <= 1e-12 * want
        assert posed == [7 * 16, 7 * 16]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_split_atoms_leave_the_entropic_value(dim, weighted):
    # tol is pinned: at the default 1e-9 the two stopping points differ by up
    # to about 1e-8 relative.
    for seed in range(5):
        rng, (a, b) = _laws(seed, dim, weighted, (7, 16))
        want = sinkhorn_discrepancy(a, b, 0.5, tol=1e-12)
        split = _split(a, rng, rng.integers(1, 4, size=7))
        for got in (sinkhorn_discrepancy(split, b, 0.5, tol=1e-12), sinkhorn_discrepancy(b, split, 0.5, tol=1e-12)):
            assert abs(got - want) <= 1e-9 * want
