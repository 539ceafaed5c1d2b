"""Dependence measured through the conditional laws of Y given X.

The raw measure averages (in the p-th power sense) the transport distance
between each conditional law and the Y-marginal. Dividing the averaged power
by the marginal's with-replacement mean discrepancy gives an index in [0,1]:
zero when every conditional equals the marginal, one when Y is a function
of X.

Every W_p^p between two discrete laws here goes through one route selector,
:func:`_transport_power`. Its one-point fast path and the plug-in discrepancy
are computed through the same helper and the same dot-product reduction, so a
sample with all-distinct x values and Y = f(X) yields an index of exactly
1.0, bit for bit. That exactness is also what makes the estimator discontinuous: an
independent continuous sample has all-distinct x too.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .empirical import (
    ConditionalFamily,
    PairedSample,
    dirac_transport_cost,
    gmd_plugin,
    gmd_ustat,
    partition,
    to_measure,
)
from .entropic import sinkhorn_discrepancy
from .exact import _quantile_cost, solve_exact, solve_from_cost
from .exceptions import DataError, DegenerateMarginalError
from .measures import CostSpec, DiscreteMeasure, _quantile_form
from .report import IndexReport

__all__ = [
    "d_conditional",
    "i_conditional",
    "gaussian_conditional_index",
    "d_conditional_entropic",
    "w_lipschitz_estimate",
    "adapted_wasserstein",
]


def _is_dirac(law: DiscreteMeasure) -> bool:
    return law.n == 1 or bool(np.all(law.points == law.points[0]))


def _transport_power(law: DiscreteMeasure, target: DiscreteMeasure, p: float) -> float:
    """W_p^p between two discrete laws, by the cheapest exact route.

    A one-point law has only the forced coupling; it reads the target in its
    original order, on which the exact 1.0 of a functional sample depends.
    Scalar laws take the quantile integral between the law's quantile form,
    built for this call, and the target's, built once per measure. The law's
    form is not kept: in the conditional indices each group law meets the
    marginal once, so keeping it would only hold a second copy of its atoms
    for the life of the family. Anything else goes to the exact solver,
    which picks assignment or LP itself.
    """
    if _is_dirac(law):
        return dirac_transport_cost(law.points[0], target.points, target.weights, p)
    if law.dim == target.dim == 1:
        return _quantile_cost(*_quantile_form(law.points[:, 0], law.weights), *target.quantile_form, p)
    return solve_exact(law, target, CostSpec(p=p))


def _family_power(family: ConditionalFamily, marginal: DiscreteMeasure, p: float) -> float:
    costs = np.array([_transport_power(law, marginal, p) for law in family.laws])
    return float(np.dot(family.group_weights, costs))


def d_conditional(family: ConditionalFamily, p: float = 1.0) -> float:
    """Averaged conditional-to-marginal transport distance.

    Returns (sum_g w_g W_p(law_g, marginal)^p)^(1/p) against the family's
    pooled y-marginal, each group's term by :func:`_transport_power` (forced
    coupling, quantile integral for scalar y, or the exact solver). Zero iff
    every group law equals the marginal.
    """
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    return _family_power(family, family.pooled_marginal(), p) ** (1.0 / p)


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
    marginal = family.pooled_marginal() if snap_y else to_measure(sample.ys)

    if mode == "exact":
        row_costs = np.empty(sample.n)
        for law, idx in zip(family.laws, family.groups):
            row_costs[idx] = _transport_power(law, marginal, p)
        numerator_p = float(np.dot(marginal.weights, row_costs))
        denominator_p = gmd_plugin(marginal, p)
    else:
        numerator_p = _family_power(family, marginal, p)
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
    return float(np.dot(family.group_weights, values))


def w_lipschitz_estimate(family: ConditionalFamily, p: float = 1.0) -> float:
    """Largest observed ratio W_p(law_g, law_h) / |x_g - x_h| over group
    pairs with distinct representatives: an empirical lower bound on the
    conditional law's modulus of continuity."""
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    k = family.k
    if k < 2:
        raise DataError("need at least 2 groups")
    best = None
    for g in range(k):
        for h in range(g + 1, k):
            gap = float(np.linalg.norm(family.representatives[g] - family.representatives[h]))
            if gap == 0.0:
                continue
            cost = _transport_power(family.laws[g], family.laws[h], p)
            ratio = cost ** (1.0 / p) / gap
            best = ratio if best is None else max(best, ratio)
    if best is None:
        raise DataError("all group representatives coincide")
    return best


def adapted_wasserstein(law1: ConditionalFamily, law2: ConditionalFamily, p: float = 1.0) -> float:
    """Nested transport distance between two conditional families.

    Outer exact OT over the laws of X where moving x to x' costs
    ``|x - x'|^p`` plus ``W_p^p`` between the attached conditional laws; the
    p-th root of the optimum is returned.
    """
    if law1.representatives.shape[1] != law2.representatives.shape[1]:
        raise ValueError("first-coordinate dimensions disagree")
    if law1.laws[0].dim != law2.laws[0].dim:
        raise ValueError("conditional dimensions disagree")
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    outer = cdist(law1.representatives, law2.representatives)
    if p != 1:
        outer = outer ** p
    inner = np.empty((law1.k, law2.k))
    for i, cond_i in enumerate(law1.laws):
        for j, cond_j in enumerate(law2.laws):
            inner[i, j] = _transport_power(cond_i, cond_j, p)
    total = solve_from_cost(outer + inner, law1.group_weights, law2.group_weights)
    return max(total, 0.0) ** (1.0 / p)
