"""Conditional dependence: averaged conditional-to-marginal transport."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from wassdep import conditional, empirical, exact, measures
from wassdep.conditional import (
    _group_costs,
    adapted_wasserstein,
    d_conditional,
    d_conditional_entropic,
    gaussian_conditional_index,
    gmd_plugin,
    i_conditional,
    w_lipschitz_estimate,
)
from wassdep.empirical import ConditionalFamily, PairedSample, partition, to_measure
from wassdep.exact import _group_powers, _quantile_cost, solve_exact, solve_from_cost, wasserstein_1d
from wassdep.exceptions import DataError
from wassdep.joint import i_joint
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


def _oracle_power(group, marginal, p):
    """W_p^p between the uniform laws on two sets of values, exactly: both
    quantile functions merged on integer levels in units of 1/(n m), gaps
    and sums in np.longdouble."""
    n, m = len(marginal), len(group)
    z = np.sort(marginal).astype(np.longdouble)
    a = np.sort(group).astype(np.longdouble)
    levels = np.union1d(np.arange(m + 1) * n, np.arange(n + 1) * m)
    gaps = np.abs(a[levels[:-1] // n] - z[levels[:-1] // m]) ** int(p)
    return np.sum(np.diff(levels) * gaps) / (n * m)


def _oracle_numerator(groups, marginal, p):
    """The conditional numerator: group costs weighted by group size over n."""
    return sum(len(g) * _oracle_power(g, marginal, p) for g in groups) / len(marginal)


def _assert_matches_the_oracle(sample, mode, p, snap_y=False):
    family = partition(sample, mode, snap_y=snap_y)
    groups = [law.points[:, 0] for law in family.laws]
    marginal = np.concatenate(groups)  # the snapped rows when snap_y is set
    report = i_conditional(sample, mode=mode, p=p, snap_y=snap_y)
    want = _oracle_numerator(groups, marginal, p)
    assert abs(report.numerator - want) <= 1e-13 * want
    if mode == "exact":
        want = _oracle_numerator([[y] for y in marginal], marginal, p)
        assert abs(report.denominator - want) <= 1e-13 * want


def test_a_snapped_two_dimensional_y_is_solved_on_merged_supports(monkeypatch):
    # Snapped 2-D y rows take at most phi^2 values, so each group's LP is
    # posed on its distinct atoms against the target's distinct atoms, not on
    # the 1,000 rows (10 LPs of up to 277,000 variables and 19 s before).
    # The value is the one the row-by-row LPs gave, 0.5374941344905662.
    n = 1000
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    sample = PairedSample(x, np.column_stack([x + 0.3 * rng.normal(size=n), rng.normal(size=n)]))
    family = partition(sample, "bins", snap_y=True)
    distinct = [len(np.unique(law.points, axis=0)) for law in family.laws]
    target = len(np.unique(family.points, axis=0))
    posed = []

    def record(c, *args, **kwargs):
        posed.append(c.size)
        return scipy.optimize.linprog(c, *args, **kwargs)

    monkeypatch.setattr(exact, "linprog", record)
    value = i_conditional(sample, "bins", snap_y=True).value
    assert abs(value - 0.5374941344905662) <= 1e-12 * 0.5374941344905662
    assert posed == [atoms * target for atoms in distinct if atoms > 1]


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sorting_the_marginal_once_changes_no_bits(p):
    # The sweep sorts the y column once and each group once, so every mode
    # lands on the exact value, and the binned numerator does not depend on
    # the order of the rows, bit for bit.
    sample = _shuffled_tied_sample()
    assert len(np.unique(sample.ys)) < sample.n
    _assert_matches_the_oracle(sample, "bins", p)
    _assert_matches_the_oracle(sample, "bins", p, snap_y=True)
    _assert_matches_the_oracle(sample, "exact", p)
    reversed_rows = PairedSample(sample.xs[::-1], sample.ys[::-1], seed=0)
    for snap_y in (False, True):
        report = i_conditional(sample, mode="bins", p=p, snap_y=snap_y)
        assert i_conditional(reversed_rows, mode="bins", p=p, snap_y=snap_y).numerator == report.numerator


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize(
    "x_scale, y_scale, y_offset, snap_y",
    [(1.0, 1.0, 1e6, True), (1e12, 1e12, 0.0, True), (1e-12, 1e-12, 0.0, False)],
)
def test_the_sweep_agrees_with_the_oracle_off_unit_scale(p, x_scale, y_scale, y_offset, snap_y):
    # x rounded to one decimal, so exact mode has groups of many rows.
    rng = np.random.default_rng(5)
    x = rng.normal(size=1500)
    y = 0.6 * x + 0.8 * rng.normal(size=1500)
    sample = PairedSample(np.round(x, 1) * x_scale, y * y_scale + y_offset, seed=0)
    _assert_matches_the_oracle(sample, "exact", p)
    _assert_matches_the_oracle(sample, "bins", p)
    if snap_y:
        _assert_matches_the_oracle(sample, "bins", p, snap_y=True)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_bins_mode_stays_exact_at_twenty_thousand_rows(p):
    # The merge of cumulative weights drifts by about n ulps; here it drifted
    # past 1e-13 of the numerator, which the sweep's integer levels do not.
    rng = np.random.default_rng(20)
    x = rng.normal(size=20_000)
    _assert_matches_the_oracle(PairedSample(x, 0.6 * x + 0.8 * rng.normal(size=20_000)), "bins", p)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_the_sweep_matches_the_quantile_route_against_a_target_of_another_size(p):
    # Uniform groups with ties against a uniform target of N != n values,
    # group by group through the route that merges quantile forms.
    rng = np.random.default_rng(21)
    target = np.round(rng.normal(size=37), 1)
    sizes = [1, 3, 5, 5, 8, 37, 12]
    values = np.round(rng.normal(0.3, 1.5, size=sum(sizes)), 1)
    values[1:4] = 0.4  # a group of one repeated value is a dirac
    starts = np.cumsum(sizes) - sizes
    values[starts[5] : starts[5] + 37] = rng.permutation(target)  # the target itself
    costs = _group_powers(values, starts, target, p)
    want = _quantile_form(target, np.full(37, 1.0 / 37))
    for g, group in enumerate(np.split(values, starts[1:])):
        form = _quantile_form(group, np.full(len(group), 1.0 / len(group)))
        assert abs(costs[g] - _quantile_cost(*form, *want, p)) <= 1e-12
    assert costs[5] == 0.0
    assert _group_powers(target[::-1], np.array([0]), target, p)[0] == 0.0


def test_bins_mode_sorts_each_group_law_once_and_the_marginal_once(monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.normal(size=5000)
    sample = PairedSample(x, 0.6 * x + 0.8 * rng.normal(size=5000), seed=0)
    family = partition(sample, "bins")
    assert family.k == 17 and all(law.n > 1 for law in family.laws)
    sorts, argsorts = [], []
    sort, argsort = np.sort, np.argsort
    # Only sorts of y values count.
    monkeypatch.setattr(np, "sort", lambda a, *r, **kw: sorts.append(a.dtype.kind == "f") or sort(a, *r, **kw))
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: argsorts.append(1) or argsort(*a, **kw))
    for p in (1.0, 2.0):
        sorts.clear()
        assert i_conditional(sample, "bins", p=p).bins == family.k
        # At p = 1 the denominator, gmd_ustat, sorts the y column once more.
        assert sum(sorts) == family.k + 1 + (p == 1.0)
    assert argsorts == []


def _raise(*args, **kwargs):
    raise AssertionError("a per-row dirac cost was computed")


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_mode_and_the_plugin_discrepancy_make_no_per_row_dirac_call(monkeypatch, p):
    monkeypatch.setattr(empirical, "dirac_transport_cost", _raise)
    monkeypatch.setattr(conditional, "dirac_transport_cost", _raise)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=2000), rng.normal(size=2000)
    report = i_conditional(PairedSample(x, y, seed=0), mode="exact", p=p)
    assert report.value == 1.0
    assert gmd_plugin(to_measure(y), p) == report.denominator
    tied = np.round(x, 1)
    report = i_conditional(PairedSample(tied, np.sin(3.0 * tied), seed=0), mode="exact", p=p)
    assert len(np.unique(tied)) < 2000 and report.value == 1.0
    assert 0.0 < i_conditional(PairedSample(tied, y, seed=0), mode="exact", p=p).value < 1.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_exact_mode_with_one_row_per_group_reads_the_routes_once(monkeypatch, p):
    # Every group is one row, so the numerator is the plug-in discrepancy:
    # one selector call serves both, bit for bit.
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=500), rng.normal(size=500)
    calls, select = [], conditional._group_costs
    monkeypatch.setattr(conditional, "_group_costs", lambda *a: calls.append(1) or select(*a))
    report = i_conditional(PairedSample(x, y, seed=0), mode="exact", p=p)
    assert len(calls) == 1
    assert report.value == 1.0 and report.denominator == gmd_plugin(to_measure(y), p)
    calls.clear()
    i_conditional(PairedSample(np.round(x, 1), y, seed=0), mode="exact", p=p)
    assert len(calls) == 2  # tied x: the groups, then every row for the discrepancy


@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("tied", [False, True])
def test_exact_mode_on_a_2d_function_reads_one(monkeypatch, p, tied):
    rng = np.random.default_rng(12)
    x = rng.normal(size=1500)
    x = np.round(x, 1) if tied else x
    y = np.column_stack([np.sin(3.0 * x), x * x])
    calls, kernel = [], conditional.dirac_transport_cost
    monkeypatch.setattr(conditional, "dirac_transport_cost", lambda *a: calls.append(len(a[0])) or kernel(*a))
    report = i_conditional(PairedSample(x, y, seed=0), mode="exact", p=p)
    # One kernel call per selector call: the groups, then (tied x) every row.
    assert calls == ([len(np.unique(x)), 1500] if tied else [1500])
    assert report.value == 1.0 and report.denominator == gmd_plugin(to_measure(y), p)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_the_selector_costs_every_dirac_group_in_one_kernel_call(monkeypatch, p):
    # Groups 0, 2 and 3 coincide, groups 1 and 4 do not; 2-D, so the others
    # go to the solver.
    points = np.array([[0, 0], [0, 0], [1, 2], [3, 1], [2, 2], [5, 5], [5, 5], [5, 5], [1, 1], [1, 0]], float)
    starts = np.array([0, 2, 4, 5, 8])
    target = to_measure(np.random.default_rng(13).normal(size=(40, 2)))
    calls, kernel = [], conditional.dirac_transport_cost
    monkeypatch.setattr(conditional, "dirac_transport_cost", lambda *a: calls.append(a[0].tolist()) or kernel(*a))
    costs = _group_costs(points, starts, None, target, p)
    assert calls == [[[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]]]
    for g, atoms in enumerate(np.split(points, starts[1:])):
        want = solve_exact(DiscreteMeasure(atoms), target, CostSpec(p=p))
        assert costs[g] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_quantile_route_matches_the_solver_route_on_weighted_laws(p):
    family = partition(_shuffled_tied_sample(), "exact")
    rng = np.random.default_rng(11)
    laws = []
    for law in family.laws:
        w = rng.uniform(0.1, 1.0, size=law.n)
        laws.append(DiscreteMeasure(law.points, w / w.sum()))
    weighted = ConditionalFamily.from_laws(family.representatives, laws, family.group_weights)
    a = d_conditional(weighted, p=p)
    b = _solver_d_conditional(weighted, p)
    assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_weighted_target_is_not_swept_as_uniform(p):
    rng = np.random.default_rng(15)
    z, w = rng.normal(size=30), rng.dirichlet(np.ones(30))
    want = float(w @ np.abs(z[:, None] - z[None, :]) ** p @ w)
    assert gmd_plugin(DiscreteMeasure(z, w), p) == pytest.approx(want, abs=1e-12)
    family = partition(_shuffled_tied_sample(), "exact")
    skewed = ConditionalFamily(family.representatives, rng.dirichlet(np.ones(family.k)), family.points, family.starts)
    assert d_conditional(skewed, p) == pytest.approx(_solver_d_conditional(skewed, p), abs=1e-12)


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
    estimate = w_lipschitz_estimate(family, p=1.0)
    assert type(estimate) is float
    assert estimate == pytest.approx(2.0, abs=1e-12)


def test_lipschitz_needs_distinct_groups():
    x = np.repeat(np.arange(2.0), 3)
    family = partition(PairedSample(x, x, seed=0), "exact")
    single = ConditionalFamily.from_laws(family.representatives[:1], family.laws[:1], np.array([1.0]))
    with pytest.raises(DataError):
        w_lipschitz_estimate(single)
    stacked = ConditionalFamily.from_laws(np.zeros((2, 1)), family.laws, family.group_weights)
    with pytest.raises(DataError):
        w_lipschitz_estimate(stacked)


def test_partition_mode_is_validated():
    with pytest.raises(ValueError):
        i_conditional(_tied_sample(), mode="kmeans")


# The route selector against the solver, law by law and in both directions.


def _transport_power(law, target, p):
    """The route selector on a family of one group: W_p^p from law to target."""
    return _group_costs(law.points, np.zeros(1, dtype=np.int64), law.weights, target, p)[0]


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
    law1 = ConditionalFamily.from_laws(x1, conds1, np.full(3, 1 / 3))
    law2 = ConditionalFamily.from_laws(x2, conds2, rng.dirichlet(np.ones(4)))
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


SCALES = [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]


@pytest.mark.parametrize("snap_y", [False, True])
@pytest.mark.parametrize("dx", [1, 2])
@pytest.mark.parametrize("c", SCALES)
def test_bins_do_not_depend_on_the_units_of_x(c, dx, snap_y):
    # Cubes are integer indices over a box widened relative to each axis's
    # range, so x -> c x + b moves no row to another cube at any scale.
    rng = np.random.default_rng(30 + dx)
    x = rng.uniform(size=(2000, dx))
    y = x.sum(axis=1) + 0.3 * rng.normal(size=2000)
    unit = i_conditional(PairedSample(x, y, seed=0), "bins", snap_y=snap_y)
    assert unit.bins > 1 and 0.0 < unit.value < 1.0
    for b in (0.0, -2.5 * c, 1e3 * c):
        moved = i_conditional(PairedSample(c * x + b, y, seed=0), "bins", snap_y=snap_y)
        assert (moved.value, moved.bins, moved.numerator) == (unit.value, unit.bins, unit.numerator)
    if dx == 2:  # each axis in its own units
        moved = i_conditional(PairedSample(x * [c, 1.0 / c], y, seed=0), "bins", snap_y=snap_y)
        assert (moved.value, moved.bins) == (unit.value, unit.bins)


@pytest.mark.parametrize("level", [0.0, -3.0, 1e12])
def test_a_constant_x_axis_is_one_bin(level):
    rng = np.random.default_rng(31)
    x = rng.uniform(size=300)
    y = x + 0.3 * rng.normal(size=300)
    flat = partition(PairedSample(np.full(300, level), y), "bins")
    assert flat.k == 1 and flat.representatives.tolist() == [[level]]
    assert i_conditional(PairedSample(np.full(300, level), y), "bins").value == 0.0
    both = partition(PairedSample(np.column_stack([x, np.full(300, level)]), y), "bins", phi=4)
    assert both.k == 4 and np.all(both.representatives[:, 1] == level)
    assert np.array_equal(both.rows, partition(PairedSample(x, y), "bins", phi=4).rows)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("mode, few, many", [("bins", 3, 40), ("exact", 0, 3)])
def test_scalar_y_builds_no_measure_per_group(monkeypatch, p, mode, few, many):
    # Bins mode takes the cube count, exact mode the decimals x is rounded to.
    rng = np.random.default_rng(32)
    x = rng.normal(size=3000)
    y = 0.6 * x + 0.8 * rng.normal(size=3000)
    built, init = [], DiscreteMeasure.__post_init__
    monkeypatch.setattr(DiscreteMeasure, "__post_init__", lambda self: built.append(1) or init(self))
    counts = []
    for size in (few, many):
        phi = size if mode == "bins" else None
        sample = PairedSample(x if mode == "bins" else np.round(x, size), y, seed=0)
        groups = partition(sample, mode, phi=phi).k
        built.clear()
        i_conditional(sample, mode, p=p, phi=phi)
        counts.append((groups, len(built)))
    (k_few, built_few), (k_many, built_many) = counts
    assert k_many > 10 * k_few
    assert built_many == built_few <= 3


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_mode_scores_one_on_two_hundred_thousand_distinct_rows(p):
    # The discontinuity at scale: every group is one row, so a functional y
    # and an independent y both read exactly 1.
    rng = np.random.default_rng(33)
    x = rng.normal(size=200_000)
    assert len(np.unique(x)) == x.size
    for y in (np.sin(3.0 * x) + x, rng.normal(size=200_000)):
        report = i_conditional(PairedSample(x, y, seed=0), "exact", p=p)
        assert report.value == 1.0 and report.numerator == report.denominator


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("mode", ["bins", "exact"])
def test_d_conditional_on_a_partition_takes_the_one_sweep(monkeypatch, p, mode):
    # A family from partition weighs each group by its share of the rows, so
    # its marginal is the uniform law on the rows and no group is costed by
    # the quantile route.
    monkeypatch.setattr(conditional, "_quantile_cost", _raise)
    rng = np.random.default_rng(34)
    x = rng.normal(size=2000)
    y = 0.6 * x + 0.8 * rng.normal(size=2000)
    family = partition(PairedSample(np.round(x, 1), y, seed=0), mode)
    groups = [law.points[:, 0] for law in family.laws]
    want = float(_oracle_numerator(groups, np.concatenate(groups), p)) ** (1.0 / p)
    assert abs(d_conditional(family, p=p) - want) <= 1e-13 * want


def test_nested_distance_refuses_an_outer_cost_beyond_physical_memory(monkeypatch):
    monkeypatch.setattr(measures, "PHYSICAL_MEMORY", 100)
    family = partition(_tied_sample(), "exact")
    with pytest.raises(DataError, match=f"{family.k} x {family.k} cost matrix"):
        adapted_wasserstein(family, family)


_THREAD_PROBE = """
import json
import numpy as np
from wassdep.conditional import d_conditional, gmd_plugin, i_conditional
from wassdep.empirical import PairedSample, gmd_ustat, partition, to_measure

values = {}
for n in (20_000, 200_000):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    y = 0.6 * x + 0.8 * rng.normal(size=n)
    sample, tied = PairedSample(x, y), PairedSample(np.round(x, 2), y)
    bins, exact = i_conditional(sample, "bins"), i_conditional(tied, "exact")
    values[n] = [
        gmd_ustat(y),
        gmd_plugin(to_measure(y)),
        bins.numerator,
        bins.value,
        exact.numerator,
        exact.denominator,
        d_conditional(partition(sample, "bins")),
        d_conditional(partition(tied, "exact"), p=2.0),
    ]
# 2-D y off the closed forms: the pair-cost kernel's blocks.
y2 = np.random.default_rng(2).normal(size=(3000, 2))
values["2d"] = [gmd_ustat(y2), gmd_ustat(y2, 3.0), gmd_plugin(to_measure(y2)), gmd_plugin(to_measure(y2), 3.0)]
print(json.dumps(values))
"""


def test_values_do_not_depend_on_the_blas_thread_count():
    # A BLAS dot product splits a long vector across threads, so its bits
    # depend on the thread count; every weighted sum here is numpy's own.
    src = str(Path(conditional.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True)
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Coincident copies of a group's atoms
# ---------------------------------------------------------------------------


def _flat(groups):
    """The rows of a list of (k_g, d) groups, one after another, and where each group starts."""
    return np.vstack(groups), np.cumsum([0] + [len(g) for g in groups[:-1]])


def _split_group(atoms, weights, rng):
    """The same law with each atom listed 1 to 3 times, rows shuffled, its
    weight split among the copies at random."""
    reps = np.repeat(np.arange(len(atoms)), rng.integers(1, 4, size=len(atoms)))
    perm = rng.permutation(len(reps))
    share = rng.random(len(reps)) + 0.1
    share /= np.bincount(reps, weights=share)[reps]
    return atoms[reps][perm], (weights[reps] * share)[perm]


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not be taken")


def _close(got, want):
    return bool(np.all(np.abs(got - want) <= 1e-12 * want))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_evenly_split_atoms_leave_the_sweep(monkeypatch, p):
    # Uniform groups stay uniform when every atom is listed equally often;
    # the one-atom group becomes a group of coincident atoms.
    rng = np.random.default_rng(70)
    target = to_measure(rng.normal(size=40))
    groups = [rng.normal(size=(k, 1)) for k in (5, 1, 3)]
    monkeypatch.setattr(conditional, "_quantile_cost", _refuse)
    monkeypatch.setattr(conditional, "dirac_transport_cost", _refuse)
    want = _group_costs(*_flat(groups), None, target, p)
    for copies in (2, 3):
        split = [np.repeat(g, copies, axis=0)[rng.permutation(len(g) * copies)] for g in groups]
        assert _close(_group_costs(*_flat(split), None, target, p), want)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_split_atoms_leave_the_quantile_route(monkeypatch, p):
    rng = np.random.default_rng(71)
    target = DiscreteMeasure(rng.normal(size=30), rng.dirichlet(np.ones(30)))
    groups = [rng.normal(size=(k, 1)) for k in (5, 2, 7)]
    weights = [rng.dirichlet(np.ones(len(g))) for g in groups]
    monkeypatch.setattr(conditional, "_group_powers", _refuse)
    monkeypatch.setattr(conditional, "solve_exact", _refuse)
    want = _group_costs(*_flat(groups), np.concatenate(weights), target, p)
    for _ in range(5):
        split = [_split_group(g, w, rng) for g, w in zip(groups, weights)]
        got = _group_costs(*_flat([g for g, _ in split]), np.concatenate([w for _, w in split]), target, p)
        assert _close(got, want)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_split_atoms_leave_the_forced_coupling(monkeypatch, p, dim):
    # Each one-atom group becomes 2 to 4 coincident copies of weights summing to 1.
    rng = np.random.default_rng([72, dim])
    target = DiscreteMeasure(rng.normal(size=(30, dim)), rng.dirichlet(np.ones(30)))
    atoms = rng.normal(size=(4, dim))
    monkeypatch.setattr(conditional, "_group_powers", _refuse)
    monkeypatch.setattr(conditional, "_quantile_cost", _refuse)
    monkeypatch.setattr(conditional, "solve_exact", _refuse)
    want = _group_costs(atoms, np.arange(4), None, target, p)
    copies = rng.integers(2, 5, size=4)
    split = [np.repeat(a[None, :], c, axis=0) for a, c in zip(atoms, copies)]
    weights = np.concatenate([rng.dirichlet(np.ones(c)) for c in copies])
    assert _close(_group_costs(*_flat(split), weights, target, p), want)
    assert _close(_group_costs(*_flat(split), None, target, p), want)


def test_every_report_flags_exactly_the_values_above_one():
    # Small samples of a noisy function: the split estimator's numerator,
    # from a third of the rows, often exceeds the denominator.
    flags = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        sample = PairedSample(x, np.sin(3 * x) + 0.1 * rng.normal(size=12), seed=seed)
        for p in (1.0, 2.0):
            reports = [i_joint(sample, estimator, p=p) for estimator in ("split", "permute", "full")]
            reports += [i_conditional(sample, mode, p=p) for mode in ("bins", "exact")]
            for report in reports:
                assert report.exceeds_unit == (report.value > 1.0)
                flags.add(report.exceeds_unit)
    assert flags == {False, True}
