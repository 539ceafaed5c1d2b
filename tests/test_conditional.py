"""Conditional dependence: averaged conditional-to-marginal transport."""

import numpy as np
import pytest

from wassdep.conditional import (
    _transport_power,
    adapted_wasserstein,
    d_conditional,
    d_conditional_entropic,
    gaussian_conditional_index,
    i_conditional,
    w_lipschitz_estimate,
)
from wassdep.empirical import ConditionalFamily, PairedSample, gmd_plugin, partition, to_measure
from wassdep.exact import _quantile_cost, solve_exact, solve_from_cost, wasserstein_1d
from wassdep.exceptions import DataError
from wassdep.measures import CostSpec, DiscreteMeasure, _quantile_form


def _tied_sample():
    x = np.repeat(np.arange(6.0), 10)
    y = 0.5 * x + np.random.default_rng(1).normal(size=60)
    return PairedSample(x, y, seed=0)


def test_two_group_hand_values():
    # Groups are dirac(0) and dirac(1); the marginal is uniform on {0,0,1,1},
    # so each group pays mean distance 1/2 (p=1) or mean square 1/2 (p=2).
    sample = PairedSample(np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]), seed=0)
    family = partition(sample, "exact")
    assert d_conditional(family, p=1.0) == pytest.approx(0.5, abs=1e-12)
    assert d_conditional(family, p=2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_zero_when_each_conditional_equals_the_marginal():
    sample = PairedSample(np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0]), seed=0)
    family = partition(sample, "exact")
    assert d_conditional(family, p=1.0) == 0.0


def test_gaussian_closed_form():
    assert gaussian_conditional_index(0.0) == 0.0
    assert gaussian_conditional_index(1.0) == pytest.approx(1.0)
    assert gaussian_conditional_index(0.6) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValueError):
        gaussian_conditional_index(-1.2)


def test_functional_sample_scores_exactly_one():
    x = np.repeat(np.arange(5.0), 3)
    y = x * x - 2.0 * x
    report = i_conditional(PairedSample(x, y, seed=0), mode="exact", p=1.0)
    assert report.value == 1.0
    assert report.numerator == report.denominator


def test_exact_grouping_is_discontinuous_on_continuous_data():
    # With all-distinct x every conditional is a dirac, so even an
    # independent sample is scored as perfectly dependent.
    rng = np.random.default_rng(0)
    sample = PairedSample(rng.normal(size=300), rng.normal(size=300), seed=0)
    assert i_conditional(sample, mode="exact").value == 1.0


def test_exact_mode_never_exceeds_one_on_tied_data():
    report = i_conditional(_tied_sample(), mode="exact", p=2.0)
    assert report.value <= 1.0 + 1e-12
    assert report.value > 0.0
    assert report.exceeds_unit is False


def test_binned_mode_is_small_under_independence():
    rng = np.random.default_rng(0)
    sample = PairedSample(rng.normal(size=300), rng.normal(size=300), seed=0)
    report = i_conditional(sample, mode="bins", p=1.0)
    assert report.value < 0.35
    assert report.partition == "bins"
    assert report.to_dict()["bins"] >= 1


def _solver_d_conditional(family, p):
    """d_conditional with every group's cost from the exact solver."""
    marginal = family.pooled_marginal()
    costs = [solve_exact(law, marginal, CostSpec(p=p)) for law in family.laws]
    return float(np.dot(family.group_weights, costs)) ** (1.0 / p)


def test_quantile_route_matches_the_solver_route():
    family = partition(_tied_sample(), "exact")
    for p in (1.0, 2.0, 3.0):
        a = d_conditional(family, p=p)
        b = _solver_d_conditional(family, p)
        assert a == pytest.approx(b, abs=1e-12)


def _shuffled_tied_sample():
    # Unequal group sizes, y rounded to one decimal so it has ties, rows shuffled.
    rng = np.random.default_rng(7)
    x = np.repeat(np.arange(6.0), [3, 9, 4, 17, 6, 11])
    y = np.round(0.5 * x + rng.normal(size=x.size), 1)
    order = rng.permutation(x.size)
    return PairedSample(x[order], y[order], seed=0)


def _unsorted_costs(family, marginal, p):
    """Each group's quantile cost against the marginal, both forms built here
    from the atoms in their original order."""
    assert not any(np.all(law.points == law.points[0]) for law in family.laws)
    target = _quantile_form(marginal.points[:, 0], marginal.weights)
    return np.array(
        [_quantile_cost(*_quantile_form(law.points[:, 0], law.weights), *target, p) for law in family.laws]
    )


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sorting_the_marginal_once_changes_no_bits(p):
    sample = _shuffled_tied_sample()
    marginal = to_measure(sample.ys)
    assert len(np.unique(sample.ys)) < sample.n

    for snap_y in (False, True):
        family = partition(sample, "bins", snap_y=snap_y)
        pooled = family.pooled_marginal() if snap_y else marginal
        expected = float(np.dot(family.group_weights, _unsorted_costs(family, pooled, p)))
        report = i_conditional(sample, mode="bins", p=p, snap_y=snap_y)
        assert report.numerator == expected

    family = partition(sample, "exact")
    row_costs = np.empty(sample.n)
    for idx, cost in zip(family.groups, _unsorted_costs(family, marginal, p)):
        row_costs[idx] = cost
    expected = float(np.dot(marginal.weights, row_costs))
    assert i_conditional(sample, mode="exact", p=p).numerator == expected


def test_bins_mode_sorts_each_group_law_once_and_the_marginal_once(monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.normal(size=5000)
    sample = PairedSample(x, 0.6 * x + 0.8 * rng.normal(size=5000), seed=0)
    family = partition(sample, "bins")
    assert family.k == 17 and all(law.n > 1 for law in family.laws)
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or argsort(*a, **kw))
    assert i_conditional(sample, "bins").bins == family.k
    assert len(calls) == family.k + 1


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_quantile_route_matches_the_solver_route_on_weighted_laws(p):
    family = partition(_shuffled_tied_sample(), "exact")
    rng = np.random.default_rng(11)
    laws = []
    for law in family.laws:
        w = rng.uniform(0.1, 1.0, size=law.n)
        laws.append(DiscreteMeasure(law.points, w / w.sum()))
    weighted = ConditionalFamily(
        representatives=family.representatives,
        laws=tuple(laws),
        group_weights=family.group_weights,
        groups=family.groups,
    )
    a = d_conditional(weighted, p=p)
    b = _solver_d_conditional(weighted, p)
    assert a == pytest.approx(b, abs=1e-9)


def test_entropic_average_sits_above_exact_and_grows_with_eps():
    sample = _tied_sample()
    family = partition(sample, "exact")
    exact_power = d_conditional(family, p=2.0) ** 2.0
    small = d_conditional_entropic(family, 0.05, CostSpec(p=2.0))
    big = d_conditional_entropic(family, 1.0, CostSpec(p=2.0))
    assert exact_power <= small + 1e-9
    assert small <= big + 1e-9


def test_lipschitz_ratio_recovers_a_linear_slope():
    x = np.repeat(np.arange(4.0), 2)
    family = partition(PairedSample(x, 2.0 * x, seed=0), "exact")
    assert w_lipschitz_estimate(family, p=1.0) == pytest.approx(2.0, abs=1e-12)


def test_lipschitz_needs_distinct_groups():
    x = np.repeat(np.arange(2.0), 3)
    family = partition(PairedSample(x, x, seed=0), "exact")
    single = ConditionalFamily(
        representatives=family.representatives[:1],
        laws=family.laws[:1],
        group_weights=np.array([1.0]),
        groups=family.groups[:1],
    )
    with pytest.raises(DataError):
        w_lipschitz_estimate(single)
    stacked = ConditionalFamily(
        representatives=np.zeros((2, 1)),
        laws=family.laws,
        group_weights=family.group_weights,
        groups=family.groups,
    )
    with pytest.raises(DataError):
        w_lipschitz_estimate(stacked)


def test_partition_mode_is_validated():
    with pytest.raises(ValueError):
        i_conditional(_tied_sample(), mode="kmeans")


# The route selector against the solver, law by law and in both directions.


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_every_route_matches_the_solver_on_weighted_laws(p):
    family = partition(_shuffled_tied_sample(), "exact")
    rng = np.random.default_rng(11)
    laws = []
    for law in family.laws:
        w = rng.uniform(0.1, 1.0, size=law.n)
        laws.append(DiscreteMeasure(law.points, w / w.sum()))
    laws.append(DiscreteMeasure.dirac(0.7))
    marginal = DiscreteMeasure(
        np.vstack([law.points for law in laws]),
        np.concatenate([law.weights for law in laws]) / len(laws),
    )
    for law in laws:
        want = solve_exact(law, marginal, CostSpec(p=p))
        assert _transport_power(law, marginal, p) == pytest.approx(want, abs=1e-9)
        assert _transport_power(marginal, law, p) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_one_point_route_matches_the_solver_in_two_dimensions(p):
    rng = np.random.default_rng(12)
    target = DiscreteMeasure(rng.normal(size=(9, 2)), rng.dirichlet(np.ones(9)))
    for point in rng.normal(size=(4, 2)):
        law = DiscreteMeasure.dirac(point)
        want = solve_exact(law, target, CostSpec(p=p))
        assert _transport_power(law, target, p) == pytest.approx(want, abs=1e-9)
    tied = DiscreteMeasure(np.repeat(target.points[:1], 3, axis=0))
    want = solve_exact(tied, target, CostSpec(p=p))
    assert _transport_power(tied, target, p) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_nested_distance_matches_solver_inner_costs(p):
    rng = np.random.default_rng(13)
    x1, x2 = rng.normal(size=(3, 1)), rng.normal(size=(4, 1))
    conds1 = tuple(DiscreteMeasure.dirac(pt) for pt in rng.normal(size=(2, 2))) + (
        to_measure(rng.normal(size=(4, 2))),
    )
    conds2 = (DiscreteMeasure.dirac(rng.normal(size=2)),) + tuple(
        DiscreteMeasure(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5))) for _ in range(3)
    )
    law1 = ConditionalFamily(x1, conds1, np.full(3, 1 / 3))
    law2 = ConditionalFamily(x2, conds2, rng.dirichlet(np.ones(4)))
    inner = np.array([[solve_exact(a, b, CostSpec(p=p)) for b in conds2] for a in conds1])
    outer = np.abs(x1 - x2.T) ** p
    total = solve_from_cost(outer + inner, law1.group_weights, law2.group_weights)
    want = total ** (1.0 / p)
    assert adapted_wasserstein(law1, law2, p=p) == pytest.approx(want, abs=1e-9)


def test_partition_goes_straight_into_the_nested_distance():
    rng = np.random.default_rng(14)
    x, y = rng.normal(size=300), rng.normal(size=300)
    family = partition(PairedSample(x, y), "bins")
    shifted = partition(PairedSample(x, y + 0.25), "bins")
    assert adapted_wasserstein(family, family, p=1.0) == pytest.approx(0.0, abs=1e-12)
    # Same representatives and weights, every conditional moved by 0.25:
    # no coupling beats the diagonal one, which pays exactly the shift.
    assert adapted_wasserstein(family, shifted, p=1.0) == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("mode", ["bins", "exact"])
def test_order_below_one_is_rejected_in_both_modes(mode):
    with pytest.raises(ValueError, match="p must be"):
        i_conditional(_tied_sample(), mode=mode, p=0.5)


def _order_calls(p):
    rng = np.random.default_rng(0)
    sample = PairedSample(np.repeat([0.0, 1.0, 2.0], 4), rng.normal(size=12), seed=0)
    family = partition(sample, "exact")
    law = to_measure(sample.ys)
    return {
        "wasserstein_1d": lambda: wasserstein_1d(law, family.laws[0], p),
        "d_conditional": lambda: d_conditional(family, p),
        "w_lipschitz_estimate": lambda: w_lipschitz_estimate(family, p),
        "gmd_plugin": lambda: gmd_plugin(law, p),
    }


@pytest.mark.parametrize("p", [0.5, np.nan, np.inf])
@pytest.mark.parametrize("name", ["wasserstein_1d", "d_conditional", "w_lipschitz_estimate", "gmd_plugin"])
def test_public_entry_points_reject_a_bad_order(name, p):
    """Every order outside [1, inf) is refused, as CostSpec refuses it."""
    with pytest.raises(ValueError, match="cost exponent p"):
        _order_calls(p)[name]()
