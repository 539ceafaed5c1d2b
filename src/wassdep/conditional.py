"""Dependence measured through the conditional laws of Y given X.

The raw measure averages (in the p-th power sense) the transport distance
between each conditional law and the Y-marginal. Dividing the averaged power
by the marginal's with-replacement mean discrepancy gives an index in [0,1]:
zero when every conditional equals the marginal, one when Y is a function
of X.

The one-point-conditional fast path and the plug-in discrepancy are computed
through the same helper and the same dot-product reduction, so a sample with
all-distinct x values and Y = f(X) yields an index of exactly 1.0, bit for
bit. That exactness is also what makes the estimator discontinuous: an
independent continuous sample has all-distinct x too.
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
from .exact import _quantile_cost, solve_exact
from .exceptions import DataError, DegenerateMarginalError
from .measures import CostSpec, DiscreteMeasure
from .report import IndexReport

__all__ = [
    "d_conditional",
    "d_conditional_1d",
    "i_conditional",
    "gaussian_conditional_index",
    "d_conditional_entropic",
    "w_lipschitz_estimate",
]


def _aggregate_atoms(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge exactly-equal rows, summing their weights; rows lexsorted."""
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    w = weights[order]
    new_group = np.any(pts[1:] != pts[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(new_group)[0] + 1])
    merged_w = np.add.reduceat(w, starts)
    return pts[starts], merged_w


def _check_marginal(family: ConditionalFamily, marginal: DiscreteMeasure, tol: float = 1e-9):
    pooled = family.pooled_marginal()
    pa, wa = _aggregate_atoms(pooled.points, pooled.weights)
    pb, wb = _aggregate_atoms(marginal.points, marginal.weights)
    if pa.shape != pb.shape or not np.allclose(pa, pb, atol=tol, rtol=0.0):
        raise DataError("marginal does not match the family's pooled y-law")
    if not np.allclose(wa, wb, atol=tol, rtol=0.0):
        raise DataError("marginal weights do not match the family's pooled y-law")


def _is_dirac(law: DiscreteMeasure) -> bool:
    return law.n == 1 or bool(np.all(law.points == law.points[0]))


def _sorted_marginal(marginal: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Scalar marginal atoms and weights in stable ascending order.

    ``_quantile_cost`` stably argsorts its inputs itself; on input already in
    that order the argsort is the identity, so sorting once per call changes
    no bit of any group's cost while sparing one full sort per group.
    """
    order = np.argsort(marginal.points[:, 0], kind="stable")
    return marginal.points[order, 0], marginal.weights[order]


def _group_power_cost(
    law: DiscreteMeasure,
    marginal: DiscreteMeasure,
    p: float,
    sorted_y: tuple[np.ndarray, np.ndarray] | None,
) -> float:
    """W_p^p between one conditional law and the marginal.

    ``sorted_y`` is the marginal from :func:`_sorted_marginal` to take the
    quantile route, or None to solve the transport problem. The dirac route
    reads the marginal in its original order, on which the exact 1.0 of a
    functional sample depends.
    """
    if _is_dirac(law):
        return dirac_transport_cost(law.points[0], marginal.points, marginal.weights, p)
    if sorted_y is not None:
        return _quantile_cost(law.points[:, 0], law.weights, *sorted_y, p)
    return solve_exact(law, marginal, CostSpec(p=p)).cost


def _family_power(
    family: ConditionalFamily,
    marginal: DiscreteMeasure,
    p: float,
    sorted_y: tuple[np.ndarray, np.ndarray] | None,
) -> float:
    costs = np.array(
        [_group_power_cost(law, marginal, p, sorted_y) for law in family.laws]
    )
    return float(np.dot(family.group_weights, costs))


def d_conditional(
    family: ConditionalFamily,
    marginal: DiscreteMeasure,
    p: float = 1.0,
    check: bool = True,
) -> float:
    """Averaged conditional-to-marginal transport distance.

    Returns (sum_g w_g W_p(law_g, marginal)^p)^(1/p) with each group distance
    from the exact solver (one-point conditionals take the forced-coupling
    shortcut). Zero iff every group law equals the marginal.
    """
    if check:
        _check_marginal(family, marginal)
    return _family_power(family, marginal, p, None) ** (1.0 / p)


def d_conditional_1d(
    family: ConditionalFamily,
    marginal: DiscreteMeasure,
    p: float = 1.0,
    check: bool = True,
) -> float:
    """Same value as :func:`d_conditional` for scalar y, via per-group
    quantile integrals instead of transport solves."""
    if marginal.dim != 1:
        raise DataError("the quantile route needs one-dimensional y")
    if check:
        _check_marginal(family, marginal)
    return _family_power(family, marginal, p, _sorted_marginal(marginal)) ** (1.0 / p)


def gaussian_conditional_index(rho: float) -> float:
    """Population conditional index of a bivariate Gaussian: 1 - sqrt(1-rho^2)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    return float(1.0 - np.sqrt(1.0 - rho * rho))


def _plugin_power(marginal: DiscreteMeasure, p: float) -> float:
    """With-replacement mean discrepancy, accumulated exactly like the
    all-dirac numerator: one forced-coupling cost per row, then one dot."""
    rows = np.array(
        [
            dirac_transport_cost(marginal.points[i], marginal.points, marginal.weights, p)
            for i in range(marginal.n)
        ]
    )
    return float(np.dot(marginal.weights, rows))


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
    groups x into cubes and divides by the unbiased pair statistic.
    """
    if mode not in ("exact", "bins"):
        raise ValueError(f"unknown partition mode {mode!r}")
    family = partition(sample, mode, phi=phi, snap_y=snap_y)
    marginal = family.pooled_marginal() if snap_y else to_measure(sample.ys)
    sorted_y = _sorted_marginal(marginal) if sample.dy == 1 else None

    if mode == "exact":
        costs = np.empty(family.k)
        for g, law in enumerate(family.laws):
            costs[g] = _group_power_cost(law, marginal, p, sorted_y)
        row_costs = np.empty(sample.n)
        for g, idx in enumerate(family.groups):
            row_costs[idx] = costs[g]
        numerator_p = float(np.dot(marginal.weights, row_costs))
        denominator_p = _plugin_power(marginal, p)
    else:
        numerator_p = _family_power(family, marginal, p, sorted_y)
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
        extras={"bins": family.k if mode == "bins" else None},
    )


def d_conditional_entropic(
    family: ConditionalFamily,
    marginal: DiscreteMeasure,
    eps: float,
    spec: CostSpec | None = None,
    check: bool = True,
) -> float:
    """Average entropic transport cost from conditionals to the marginal.

    Not debiased: it does not vanish when all conditionals equal the marginal
    (self-transport keeps an entropic bias). It stays below the plug-in
    product-coupling bound, whose entropy penalty is zero.
    """
    if check:
        _check_marginal(family, marginal)
    values = np.array(
        [sinkhorn_discrepancy(law, marginal, eps, spec)[1] for law in family.laws]
    )
    return float(np.dot(family.group_weights, values))


def w_lipschitz_estimate(family: ConditionalFamily, p: float = 1.0) -> float:
    """Largest observed ratio W_p(law_g, law_h) / |x_g - x_h| over group
    pairs with distinct representatives: an empirical lower bound on the
    conditional law's modulus of continuity."""
    k = family.k
    if k < 2:
        raise DataError("need at least 2 groups")
    best = None
    quantile = family.laws[0].dim == 1
    for g in range(k):
        for h in range(g + 1, k):
            gap = float(np.linalg.norm(family.representatives[g] - family.representatives[h]))
            if gap == 0.0:
                continue
            if quantile:
                cost = _quantile_cost(
                    family.laws[g].points[:, 0],
                    family.laws[g].weights,
                    family.laws[h].points[:, 0],
                    family.laws[h].weights,
                    p,
                )
            else:
                cost = solve_exact(family.laws[g], family.laws[h], CostSpec(p=p)).cost
            ratio = cost ** (1.0 / p) / gap
            best = ratio if best is None else max(best, ratio)
    if best is None:
        raise DataError("all group representatives coincide")
    return best
