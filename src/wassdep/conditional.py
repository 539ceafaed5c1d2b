"""Dependence measured through the conditional laws of Y given X.

The raw measure averages (in the p-th power sense) the transport distance
between each conditional law and the Y-marginal. Dividing the averaged power
by the marginal's with-replacement mean discrepancy gives an index in [0,1]:
zero when every conditional equals the marginal, one when Y is a function
of X.

A :class:`~wassdep.empirical.ConditionalFamily` holds its groups' y rows as
one array cut at ``starts``. Every W_p^p here comes from one route selector,
:func:`_group_costs`: one prefix-sum sweep for uniform scalar groups at p = 1
or 2, else one blocked pair-cost kernel call for all groups whose atoms
coincide and the quantile integral or the exact solver for each other group.
:func:`gmd_plugin` is the selector with every atom its own group, and exact
mode reduces the same kernel row costs with the same weighted sum, so a
sample with all-distinct x values and Y = f(X) yields an index of exactly
1.0, bit for bit. That exactness is also what makes the estimator
discontinuous: an independent continuous sample has all-distinct x too.
"""

from __future__ import annotations

import numpy as np

from .empirical import (
    ConditionalFamily,
    PairedSample,
    dirac_transport_cost,
    gmd_ustat,
    partition,
    to_measure,
)
from .entropic import sinkhorn_discrepancy
from .exact import _group_powers, _quantile_cost, solve_exact, solve_from_cost
from .exceptions import DataError, DegenerateMarginalError
from .measures import CostSpec, DiscreteMeasure, _quantile_form, _weighted_sum, cost_matrix
from .report import IndexReport

__all__ = [
    "gmd_plugin",
    "d_conditional",
    "i_conditional",
    "gaussian_conditional_index",
    "d_conditional_entropic",
    "w_lipschitz_estimate",
    "adapted_wasserstein",
]


def _group_costs(
    points: np.ndarray, starts: np.ndarray, weights: np.ndarray | None, target: DiscreteMeasure, p: float
) -> np.ndarray:
    """W_p^p from each group of a flat family to ``target``: the one place in
    the package that picks a transport route for a conditional cost.

    Group g is ``points[starts[g]:starts[g + 1]]`` with its slice of
    ``weights`` (None: every group uniform). Uniform scalar groups against a
    uniform scalar target at p = 1 or 2 take one ``_group_powers`` sweep.
    Otherwise one vectorized compare finds every group whose atoms coincide,
    and one ``dirac_transport_cost`` call, before the loop, costs all of them
    by the forced coupling. In the loop a scalar group takes the quantile
    integral against the target's cached quantile form; any other group is
    built as a measure for the solver."""
    tw = target.weights
    if weights is None and points.shape[1] == target.dim == 1 and p in (1, 2) and np.all(tw == tw[0]):
        return _group_powers(points[:, 0], starts, target.points[:, 0], p)
    bounds = np.append(starts, len(points))
    dirac = np.logical_and.reduceat(np.all(points == points[np.repeat(starts, np.diff(bounds))], axis=1), starts)
    costs = np.empty(len(starts))
    costs[dirac] = dirac_transport_cost(points[starts[dirac]], target, p)
    for g in np.flatnonzero(~dirac):
        lo, hi = bounds[g], bounds[g + 1]
        atoms = points[lo:hi]
        w = None if weights is None else weights[lo:hi]
        if atoms.shape[1] == target.dim == 1:
            form = _quantile_form(atoms[:, 0], np.full(hi - lo, 1.0 / (hi - lo)) if w is None else w)
            costs[g] = _quantile_cost(*form, *target.quantile_form, p)
        else:
            costs[g] = solve_exact(DiscreteMeasure(atoms, w), target, CostSpec(p=p))
    return costs


def gmd_plugin(measure: DiscreteMeasure, p: float = 1.0) -> float:
    """With-replacement mean p-th power discrepancy of a weighted measure:
    :func:`_group_costs` with every atom its own group against the measure,
    then the weighted sum exact mode's numerator takes, so the two agree bit
    for bit on a functional sample."""
    rows = _group_costs(measure.points, np.arange(measure.n), None, measure, p)
    return _weighted_sum(measure.weights, rows)


def d_conditional(family: ConditionalFamily, p: float = 1.0) -> float:
    """Averaged conditional-to-marginal transport distance.

    Returns (sum_g w_g W_p(law_g, marginal)^p)^(1/p) against the family's
    pooled y-marginal, each group's term from :func:`_group_costs`. Zero iff
    every group law equals the marginal. When every group is uniform and
    weighs its share of the rows, as from :func:`partition`, the marginal is
    the uniform law on the rows, so scalar groups take the one sweep.
    """
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    by_rows = family.weights is None and np.array_equal(family.group_weights, family.sizes / len(family.points))
    target = to_measure(family.points) if by_rows else family.pooled_marginal()
    costs = _group_costs(family.points, family.starts, family.weights, target, p)
    return _weighted_sum(family.group_weights, costs) ** (1.0 / p)


def gaussian_conditional_index(rho: float) -> float:
    """Population conditional index of a bivariate Gaussian: 1 - sqrt(1-rho^2)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    return float(1.0 - np.sqrt(1.0 - rho * rho))


def i_conditional(
    sample: PairedSample,
    mode: str = "bins",
    p: float = 1.0,
    phi: int | None = None,
    snap_y: bool = False,
) -> IndexReport:
    """Normalized conditional dependence index.

    ``exact`` mode groups equal x rows and divides by the with-replacement
    discrepancy of the empirical y-marginal; this preserves the functional
    equality case at finite n (Y = f(X) gives exactly 1). ``bins`` mode
    groups x into cubes and divides by the unbiased pair statistic. Both
    modes reject p < 1, as every transport cost does.
    """
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    family = partition(sample, mode, phi=phi, snap_y=snap_y)
    target = to_measure(family.points if snap_y else sample.ys)
    costs = _group_costs(family.points, family.starts, family.weights, target, p)
    if mode == "exact":
        row_costs = np.empty(sample.n)
        row_costs[family.rows] = np.repeat(costs, family.sizes)
        numerator_p = _weighted_sum(target.weights, row_costs)
        # One row per group: these are gmd_plugin's row costs and weighted sum.
        denominator_p = numerator_p if family.k == sample.n else gmd_plugin(target, p)
    else:
        numerator_p = _weighted_sum(family.group_weights, costs)
        denominator_p = gmd_ustat(sample.ys, p)

    if denominator_p <= 0.0:
        raise DegenerateMarginalError("y-marginal is empirically constant")
    value = numerator_p / denominator_p
    return IndexReport(
        index="conditional",
        value=value,
        numerator=numerator_p,
        denominator=denominator_p,
        p=p,
        partition=mode,
        n=sample.n,
        seed=sample.seed,
        exceeds_unit=bool(value > 1.0),
        bins=family.k if mode == "bins" else None,
    )


def d_conditional_entropic(
    family: ConditionalFamily,
    eps: float,
    spec: CostSpec | None = None,
) -> float:
    """Average entropic transport cost from conditionals to the pooled marginal.

    Not debiased: it does not vanish when all conditionals equal the marginal
    (self-transport keeps an entropic bias). It stays below the plug-in
    product-coupling bound, whose entropy penalty is zero.
    """
    marginal = family.pooled_marginal()
    values = np.array([sinkhorn_discrepancy(law, marginal, eps, spec) for law in family.laws])
    return _weighted_sum(family.group_weights, values)


def w_lipschitz_estimate(family: ConditionalFamily, p: float = 1.0) -> float:
    """Largest observed ratio W_p(law_g, law_h) / |x_g - x_h| over group
    pairs with distinct representatives: an empirical lower bound on the
    conditional law's modulus of continuity."""
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    if family.k < 2:
        raise DataError("need at least 2 groups")
    reps, starts, weights = family.representatives, family.starts, family.weights
    ratios = []
    for h in range(1, family.k):
        # Only the groups before h, so each unordered pair is costed once.
        before = None if weights is None else weights[: starts[h]]
        costs = _group_costs(family.points[: starts[h]], starts[:h], before, family.laws[h], p)
        gaps = cost_matrix(DiscreteMeasure(reps[:h]), DiscreteMeasure(reps[h : h + 1]), CostSpec())[:, 0]
        ratios.extend(costs[gaps != 0.0] ** (1.0 / p) / gaps[gaps != 0.0])
    if not ratios:
        raise DataError("all group representatives coincide")
    return float(max(ratios))


def adapted_wasserstein(law1: ConditionalFamily, law2: ConditionalFamily, p: float = 1.0) -> float:
    """Nested transport distance between two conditional families.

    Outer exact OT over the laws of X where moving x to x' costs
    ``|x - x'|^p`` plus ``W_p^p`` between the attached conditional laws; the
    p-th root of the optimum is returned.
    """
    if law1.representatives.shape[1] != law2.representatives.shape[1]:
        raise ValueError("first-coordinate dimensions disagree")
    if law1.points.shape[1] != law2.points.shape[1]:
        raise ValueError("conditional dimensions disagree")
    spec = CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    outer = cost_matrix(DiscreteMeasure(law1.representatives), DiscreteMeasure(law2.representatives), spec)
    inner = np.column_stack([_group_costs(law1.points, law1.starts, law1.weights, b, p) for b in law2.laws])
    total = solve_from_cost(outer + inner, law1.group_weights, law2.group_weights)
    return max(total, 0.0) ** (1.0 / p)
