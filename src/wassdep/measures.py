"""Discrete measures, ground-cost specifications, and transport plans.

Everything downstream works with finitely supported probability measures on
R^d. A ground cost is described by a :class:`CostSpec`: Euclidean distances
within each factor of a product space, a combinator across factors, and the
transport order ``p``. :func:`cost_matrix` realizes the pairwise ``d^p`` costs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import DataError

__all__ = [
    "DiscreteMeasure",
    "TransportPlan",
    "CostSpec",
    "cost_matrix",
    "product_measure",
    "mixture",
]

# Inputs whose weights sum within this tolerance of 1 are renormalized;
# anything further off is rejected as malformed rather than silently rescaled.
WEIGHT_TOL = 1e-9

_COMBINATORS = ("single", "lq", "alpha", "scaled")


# Bytes of physical memory. A dense cost matrix larger than this cannot be
# held, so cost_matrix refuses it before cdist asks for it.
try:
    PHYSICAL_MEMORY: int | None = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):  # the platform does not report it
    PHYSICAL_MEMORY = None


def _as_points(points, name: str = "points") -> np.ndarray:
    """The rows as a finite, nonempty (n, d) float array; a vector is one column.

    The one validator of every array of observations or atoms; it raises
    DataError naming the array.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise DataError(f"{name} must form a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise DataError(f"{name} must be finite")
    return pts


def _as_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(
            f"weights sum to {total!r}; farther than {WEIGHT_TOL} from 1"
        )
    return w / total


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure: a weighted point cloud in R^d.

    Weights default to uniform. Non-uniform weights must sum to 1 within
    1e-9 and are renormalized exactly to 1.
    """

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_points(self.points)
        n = pts.shape[0]
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = _as_weights(self.weights, n)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(pt[None, :], np.array([1.0]))

    @cached_property
    def sorted_first_coordinate(self) -> tuple[np.ndarray, np.ndarray]:
        """First-coordinate atoms and their weights in stable ascending order.

        Sorted once per measure, so the quantile route of every transport
        problem against this measure reads it instead of sorting again.
        """
        order = np.argsort(self.points[:, 0], kind="stable")
        return self.points[order, 0], self.weights[order]


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two discrete measures together with its cost.

    ``cost`` is the expected p-th power of the ground distance under the plan;
    ``distance`` is ``cost ** (1/p)`` for the spec that produced the plan.
    """

    mass: np.ndarray
    cost: float
    distance: float

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mass.sum(axis=1), self.mass.sum(axis=0)


@dataclass(frozen=True)
class CostSpec:
    """Ground-cost descriptor.

    The distance between two points of the (product) space is built from the
    Euclidean distance within each factor:

    - ``single``: one factor, plain Euclidean distance;
    - ``lq``: ``(sum_k d_k^q) ** (1/q)`` across factors, q >= 1;
    - ``alpha``: ``alpha * d_1 + d_2`` for exactly two factors, alpha > 0;
    - ``scaled``: ``sum_k d_k / scales[k]`` with strictly positive scales.

    ``factor_dims`` lists the ambient dimension of each factor and is required
    for every combinator except ``single``. The matrix entry produced by
    :func:`cost_matrix` is the combined distance raised to the power ``p``.
    """

    p: float = 1.0
    combinator: str = "single"
    q: float = 1.0
    alpha: float = 1.0
    scales: tuple[float, ...] = ()
    factor_dims: tuple[int, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 1:
            raise ValueError("cost exponent p must be a finite real >= 1")
        if self.combinator not in _COMBINATORS:
            raise ValueError(f"unknown combinator {self.combinator!r}")
        if self.combinator == "single":
            if self.factor_dims:
                object.__setattr__(self, "factor_dims", ())
            return
        dims = tuple(int(d) for d in self.factor_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("factor_dims must list >= 2 positive dimensions")
        object.__setattr__(self, "factor_dims", dims)
        if self.combinator == "lq" and (not np.isfinite(self.q) or self.q < 1):
            raise ValueError("lq combinator needs q >= 1")
        if self.combinator == "alpha":
            if len(dims) != 2:
                raise ValueError("alpha combinator is defined for two factors")
            if not np.isfinite(self.alpha) or self.alpha <= 0:
                raise ValueError("alpha must be strictly positive")
        if self.combinator == "scaled":
            scales = tuple(float(s) for s in self.scales)
            if len(scales) != len(dims):
                raise ValueError("need one scale per factor")
            if any(not np.isfinite(s) or s <= 0 for s in scales):
                raise ValueError("scales must be strictly positive")
            object.__setattr__(self, "scales", scales)

    @property
    def ambient_dim(self) -> int | None:
        """Total dimension the spec expects, or None when unconstrained."""
        return sum(self.factor_dims) if self.factor_dims else None


def cost_matrix(src: DiscreteMeasure, dst: DiscreteMeasure, spec: CostSpec) -> np.ndarray:
    """Pairwise ``d(x_i, y_j) ** p`` under the given cost spec.

    Raises ValueError when the ambient dimensions disagree with each other or
    with the spec's factor structure, and DataError when the matrix's bytes
    exceed the machine's physical memory.
    """
    if src.dim != dst.dim:
        raise ValueError(f"dimension mismatch: {src.dim} vs {dst.dim}")
    nbytes = src.n * dst.n * 8
    if PHYSICAL_MEMORY is not None and nbytes > PHYSICAL_MEMORY:
        raise DataError(
            f"a {src.n} x {dst.n} cost matrix needs {nbytes} bytes, "
            f"more than the {PHYSICAL_MEMORY} bytes of physical memory"
        )
    if spec.combinator == "single":
        dist = cdist(src.points, dst.points)
    else:
        if spec.ambient_dim != src.dim:
            raise ValueError(
                f"spec expects total dimension {spec.ambient_dim}, measures have {src.dim}"
            )
        parts = []
        offset = 0
        for d in spec.factor_dims:
            parts.append(cdist(src.points[:, offset:offset + d], dst.points[:, offset:offset + d]))
            offset += d
        if spec.combinator == "lq":
            if spec.q == 1:  # in place: fewer fresh pages per call, same bits
                dist = parts[0]
                for pk in parts[1:]:
                    dist += pk
            else:
                dist = sum(pk ** spec.q for pk in parts) ** (1.0 / spec.q)
        elif spec.combinator == "alpha":
            dist = spec.alpha * parts[0] + parts[1]
        else:  # scaled
            dist = sum(pk / s for pk, s in zip(parts, spec.scales))
    if spec.p == 1:
        return dist
    return dist ** spec.p


def product_measure(first: DiscreteMeasure, second: DiscreteMeasure) -> DiscreteMeasure:
    """Independent product: all atom pairs with outer-product weights."""
    left = np.repeat(first.points, second.n, axis=0)
    right = np.tile(second.points, (first.n, 1))
    weights = np.outer(first.weights, second.weights).ravel()
    return DiscreteMeasure(np.hstack([left, right]), weights)


def mixture(components: Sequence[DiscreteMeasure], coefficients: Sequence[float]) -> DiscreteMeasure:
    """Convex combination of measures on a common space, atoms concatenated."""
    if len(components) == 0 or len(components) != len(coefficients):
        raise ValueError("need one coefficient per component")
    coeffs = np.asarray(coefficients, dtype=float)
    if np.any(coeffs < 0) or abs(coeffs.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError("coefficients must be a probability vector")
    dims = {m.dim for m in components}
    if len(dims) != 1:
        raise ValueError("components live in different dimensions")
    points = np.vstack([m.points for m in components])
    weights = np.concatenate([c * m.weights for c, m in zip(coeffs, components)])
    return DiscreteMeasure(points, weights / weights.sum())
