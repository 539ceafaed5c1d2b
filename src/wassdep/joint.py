"""Dependence measured as transport distance from the independent coupling.

The raw measure is the exact Wasserstein distance between the (estimated)
joint law and the (estimated) product of its marginals. Normalizing by the
cheapest way to decouple one coordinate -- resampling it independently, whose
cost is a mean discrepancy of that marginal -- yields an index in [0,1] that
vanishes exactly under independence and reaches 1 on 1-Lipschitz functional
relationships.
"""

from __future__ import annotations

import numpy as np

from .exact import solve_exact
from .exceptions import DataError, DegenerateMarginalError
from .empirical import PairedSample, _derangement, gmd_ustat, product_estimator, to_measure
from .entropic import sinkhorn_divergence
from .measures import CostSpec, DiscreteMeasure, _as_points, product_measure
from .report import IndexReport

__all__ = [
    "d_joint",
    "i_joint",
    "mori_gaussian_bounds",
    "d_joint_entropic",
    "marti_index",
    "default_marti_sets",
    "d_joint_multivariate",
    "reference_measure_variant",
]


def d_joint(joint: DiscreteMeasure, product: DiscreteMeasure, spec: CostSpec) -> float:
    """Exact transport distance between a joint law and a product law."""
    return solve_exact(joint, product, spec) ** (1.0 / spec.p)


def i_joint(
    sample: PairedSample,
    estimator: str = "permute",
    variant: str = "min_gmd",
    rng: np.random.Generator | None = None,
    p: float = 1.0,
    alpha: float | None = None,
) -> IndexReport:
    """Normalized joint dependence index.

    ``min_gmd`` divides the transport distance by the smaller marginal mean
    discrepancy (the cost of independently resampling that coordinate), which
    requires an additive cost for the bound to hold: the sum of the factor
    distances, or ``alpha * d_x + d_y`` when ``alpha`` is given.
    ``scaled_metric`` instead weights each factor distance by the inverse of
    its own mean discrepancy (to the power 1/p), making the distance
    self-normalized with denominator 1; it builds that cost itself, so it
    rejects ``alpha``.

    The raw ratio is reported even when sampling noise pushes it above 1;
    the report carries an exceedance flag instead of clipping.
    """
    dims = (sample.dx, sample.dy)
    if variant == "scaled_metric":
        if alpha is not None:
            raise ValueError("the scaled_metric variant builds its own cost and takes no alpha")
    elif variant == "min_gmd":
        # Built before the discrepancies so that a bad alpha is reported as
        # a bad weight, not as the degenerate marginal it would make.
        spec = CostSpec(p=p, factor_dims=dims, weights=(1.0 if alpha is None else alpha, 1.0))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    gmd_x = gmd_ustat(sample.xs, p)
    gmd_y = gmd_ustat(sample.ys, p)
    if alpha is not None:
        gmd_x = alpha ** p * gmd_x
    if min(gmd_x, gmd_y) <= 0.0:
        raise DegenerateMarginalError("a marginal is empirically constant")
    if variant == "scaled_metric":
        spec = CostSpec(p=p, factor_dims=dims, weights=(gmd_x ** (-1.0 / p), gmd_y ** (-1.0 / p)))
        denominator = 1.0
    else:
        denominator = min(gmd_x, gmd_y) ** (1.0 / p)
    joint, product = product_estimator(sample, estimator, rng)
    numerator = d_joint(joint, product, spec)

    value = numerator / denominator
    return IndexReport(
        index="joint",
        value=value,
        numerator=numerator,
        denominator=denominator,
        p=p,
        # q = 1 marks the plain sum; the recorded benchmark outputs carry it.
        q=1.0 if variant == "min_gmd" and alpha is None else None,
        alpha=alpha,
        estimator=estimator,
        variant=variant,
        n=sample.n,
        seed=sample.seed,
        exceeds_unit=bool(value > 1.0),
    )


def mori_gaussian_bounds(rho: float) -> tuple[float, float]:
    """Closed-form bracket for the joint index of a bivariate Gaussian.

    Returns (|1 - sqrt(1-rho)|, sqrt(1 - sqrt(1-rho^2))). Both endpoints are
    0 at rho = 0 and 1 at rho = 1; the lower endpoint is valid but not tight
    for negative rho.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    lower = abs(1.0 - np.sqrt(1.0 - rho))
    upper = float(np.sqrt(1.0 - np.sqrt(1.0 - rho * rho)))
    return float(lower), upper


def d_joint_entropic(
    sample: PairedSample,
    eps: float,
    spec: CostSpec | None = None,
    estimator: str = "permute",
    rng: np.random.Generator | None = None,
    **solver_options,
) -> float:
    """Debiased entropic dependence: Sinkhorn divergence between the joint
    and product estimates. Nonnegative; vanishes (within solver tolerance)
    when the sample is an exact product law. Extra keyword arguments (tol,
    max_iter) reach the solver; deep regularization needs a looser tol."""
    joint, product = product_estimator(sample, estimator, rng)
    return sinkhorn_divergence(joint, product, eps, spec, **solver_options)


def marti_index(
    joint: DiscreteMeasure,
    c0: list[DiscreteMeasure],
    c1: list[DiscreteMeasure],
    spec: CostSpec,
) -> float:
    """Position of the joint law between an independence set and a maximal
    dependence set: d(joint, C0) / (d(joint, C0) + d(joint, C1))."""
    if not c0 or not c1:
        raise DataError("both candidate sets must be nonempty")
    d0 = min(d_joint(joint, m, spec) for m in c0)
    d1 = min(d_joint(joint, m, spec) for m in c1)
    if d0 + d1 == 0.0:
        raise DataError("joint law belongs to both candidate sets")
    return d0 / (d0 + d1)


def default_marti_sets(
    sample: PairedSample, rng: np.random.Generator | None = None
) -> tuple[list[DiscreteMeasure], list[DiscreteMeasure]]:
    """Default candidate sets for 1D pairs: the permuted product as the
    independence witness; the comonotone and antimonotone rearrangements of
    the observed marginals as the maximal-dependence witnesses."""
    if sample.dx != 1 or sample.dy != 1:
        raise DataError("default candidate sets are defined for 1D pairs")
    _, product = product_estimator(sample, "permute", rng)
    xs = np.sort(sample.xs[:, 0])
    ys = np.sort(sample.ys[:, 0])
    comonotone = to_measure(np.column_stack([xs, ys]))
    antimonotone = to_measure(np.column_stack([xs, ys[::-1]]))
    return [product], [comonotone, antimonotone]


def d_joint_multivariate(
    blocks: list[np.ndarray],
    rng: np.random.Generator | None = None,
    p: float = 1.0,
) -> float:
    """Mutual-dependence distance for m coordinate blocks.

    The cost is the sum of the blocks' Euclidean distances. The product law
    is estimated with an independent fixed-point-free permutation per block
    beyond the first (the first block keeps the identity; only relative
    alignment matters). With m = 2 this reduces to the pairwise measure.
    """
    if len(blocks) < 2:
        raise DataError("need at least 2 blocks")
    mats = [_as_points(b, "block") for b in blocks]
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise DataError("blocks must have equal row counts")
    if rng is None:
        rng = np.random.default_rng(0)
    permuted = [mats[0]] + [m[_derangement(n, rng)] for m in mats[1:]]
    spec = CostSpec(p=p, factor_dims=tuple(m.shape[1] for m in mats))
    joint = to_measure(np.hstack(mats))
    product = to_measure(np.hstack(permuted))
    return d_joint(joint, product, spec)


def reference_measure_variant(
    sample: PairedSample,
    ref_x: DiscreteMeasure,
    ref_y: DiscreteMeasure,
    spec: CostSpec | None = None,
) -> float:
    """Dependence relative to a fixed product reference law.

    Returns W2^2(joint, ref_x x ref_y) - W2^2(empirical product, ref_x x ref_y),
    using the full n^2-atom empirical product. Zero when the sample is
    exactly a product law; positive under either monotone coupling.
    """
    if spec is None:
        spec = CostSpec(p=2.0)
    if ref_x.dim != sample.dx or ref_y.dim != sample.dy:
        raise DataError("reference dimensions do not match the sample")
    reference = product_measure(ref_x, ref_y)
    joint, product = product_estimator(sample, "full")
    w2_joint = solve_exact(joint, reference, spec)
    w2_product = solve_exact(product, reference, spec)
    return float(w2_joint - w2_product)
