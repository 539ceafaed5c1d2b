"""Discrete measures and ground-cost specifications.

Everything downstream works with finitely supported probability measures on
R^d. A ground cost is described by a :class:`CostSpec`: the transport order
``p`` and, on a product space, the dimension and weight of each factor; the
distance is the weighted sum of the factors' Euclidean distances, or the
plain Euclidean distance when no factors are given. :func:`cost_matrix`
realizes the pairwise ``d^p`` costs.
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
    "CostSpec",
    "cost_matrix",
    "product_measure",
    "mixture",
]

# Inputs whose weights sum within this tolerance of 1 are renormalized;
# anything further off is rejected as malformed rather than silently rescaled.
WEIGHT_TOL = 1e-9


# Bytes of physical memory. A dense cost matrix larger than this cannot be
# held, so _check_cost_size refuses it before anything asks for it.
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
    def quantile_form(self) -> tuple[np.ndarray, np.ndarray]:
        """The first coordinate's law as :func:`_quantile_form` gives it.

        Built once per measure, so the quantile route of every transport
        problem against this measure reads it instead of sorting again.
        """
        return _quantile_form(self.points[:, 0], self.weights)

    @cached_property
    def support(self) -> "DiscreteMeasure":
        """The distinct rows in lexsort order, each carrying the summed weight of
        its atoms (a zero-weight atom stays): one form per law, however listed."""
        order, starts = _runs(self.points)
        return DiscreteMeasure(self.points[order[starts]], np.add.reduceat(self.weights[order], starts))


def _weighted_sum(weights: np.ndarray, values: np.ndarray, p: float = 1.0) -> float | np.ndarray:
    """sum_i weights[i] * values[..., i] ** p, one per row of a 2-D ``values``,
    by numpy's pairwise sum: the one weighted sum in the package. No bit of a
    row's sum depends on the other rows or, as a BLAS dot's would, on threads."""
    if p != 1:
        values = values ** p
    total = (weights * values).sum(axis=-1)
    return total if total.ndim else float(total)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexsort order of the rows of ``keys`` (first column first) and
    where each run of equal rows starts in it: the one test of coincident rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    return order, np.concatenate([[0], np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1])


def _quantile_form(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A scalar law's atoms in stable ascending order and their cumulative
    weights: the breakpoints and values of its quantile function."""
    order = np.argsort(values, kind="stable")
    return values[order], np.cumsum(weights[order])


@dataclass(frozen=True)
class CostSpec:
    """Ground-cost descriptor.

    With no ``factor_dims`` the distance between two points is Euclidean.
    Otherwise the space is a product whose k-th factor spans the next
    ``factor_dims[k]`` coordinates, and the distance is
    ``sum_k weights[k] * d_k`` over the factors' Euclidean distances ``d_k``.
    ``weights`` default to all ones; given, they hold one finite, strictly
    positive weight per factor. The matrix entry produced by
    :func:`cost_matrix` is the distance raised to the power ``p``.
    """

    p: float = 1.0
    factor_dims: tuple[int, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 1:
            raise ValueError("cost exponent p must be a finite real >= 1")
        dims = tuple(int(d) for d in self.factor_dims)
        if any(d < 1 for d in dims):
            raise ValueError("factor_dims must be positive")
        weights = tuple(float(w) for w in self.weights) or (1.0,) * len(dims)
        if len(weights) != len(dims):
            raise ValueError(f"need one weight per factor, got {len(weights)} for {len(dims)}")
        if not all(np.isfinite(w) and w > 0 for w in weights):
            raise ValueError(f"factor weights must be finite and strictly positive, got {weights}")
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "weights", weights)


def _check_cost_size(rows: int, cols: int) -> None:
    """Raise DataError when a rows x cols cost matrix exceeds physical memory."""
    if PHYSICAL_MEMORY is not None and rows * cols * 8 > PHYSICAL_MEMORY:
        raise DataError(f"a {rows} x {cols} cost matrix needs {rows * cols * 8} bytes, "
                        f"more than the {PHYSICAL_MEMORY} bytes of physical memory")


def cost_matrix(src: DiscreteMeasure, dst: DiscreteMeasure, spec: CostSpec) -> np.ndarray:
    """Pairwise ``d(x_i, y_j) ** p`` under the given cost spec: the one code
    that measures a distance between rows. A one-column factor's distance is
    ``|u - v|``, exact at any scale; a wider factor's comes from cdist, whose
    squares keep it within about 1e+-154.

    Raises ValueError when the ambient dimensions disagree with each other or
    with the spec's factor structure, and DataError when the matrix's bytes
    exceed the machine's physical memory.
    """
    if src.dim != dst.dim:
        raise ValueError(f"dimension mismatch: {src.dim} vs {dst.dim}")
    dims, weights = (spec.factor_dims, spec.weights) if spec.factor_dims else ((src.dim,), (1.0,))
    if sum(dims) != src.dim:
        raise ValueError(f"spec expects total dimension {sum(dims)}, measures have {src.dim}")
    _check_cost_size(src.n, dst.n)
    # Weighted and summed in place: a fresh n x m temporary per factor costs page faults.
    dist = None
    offset = 0
    for d, w in zip(dims, weights):
        u, v = src.points[:, offset:offset + d], dst.points[:, offset:offset + d]
        offset += d
        part = cdist(u, v) if d > 1 else u - v.T
        if d == 1:  # |u - v| in place: cdist's sqrt((u - v)^2) bit for bit, with no square to leave the range
            np.abs(part, out=part)
        if w != 1:
            part *= w
        if dist is None:
            dist = part
        else:
            dist += part
    if spec.p == 1:
        return dist
    with np.errstate(over="ignore"):  # a power past the float range is inf, which the solvers refuse
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
    return DiscreteMeasure(points, weights)
