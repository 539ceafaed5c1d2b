"""Sample containers, product-measure estimators, and rank transforms.

Everything here turns raw paired observations into the discrete measures the
dependence functionals consume: empirical joint laws, estimated product
laws (sample splitting, permutation, or the full n^2 grid), conditional-law
partitions, mean-discrepancy statistics, and copula/rank normalizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .exact import _group_powers
from .exceptions import DataError
from .measures import CostSpec, DiscreteMeasure, _as_points, _as_weights, cost_matrix, mixture, product_measure

__all__ = [
    "PairedSample",
    "ConditionalFamily",
    "to_measure",
    "gmd_ustat",
    "gmd_plugin",
    "dirac_transport_cost",
    "product_estimator",
    "copula_transform",
    "multivariate_ranks",
    "partition",
    "default_bin_count",
]


@dataclass(frozen=True)
class PairedSample:
    """n paired observations (x_i, y_i) plus the seed that produced them."""

    xs: np.ndarray
    ys: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "xs", _as_points(self.xs, "xs"))
        object.__setattr__(self, "ys", _as_points(self.ys, "ys"))
        if self.xs.shape[0] != self.ys.shape[0]:
            raise DataError(
                f"row counts differ: {self.xs.shape[0]} x-rows vs {self.ys.shape[0]} y-rows"
            )

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dx(self) -> int:
        return self.xs.shape[1]

    @property
    def dy(self) -> int:
        return self.ys.shape[1]

    def joint_rows(self) -> np.ndarray:
        return np.hstack([self.xs, self.ys])


def to_measure(rows) -> DiscreteMeasure:
    """Empirical distribution of the rows: uniform mass 1/n on each row.

    Repeated rows stay as separate atoms; the measures module treats them as
    one logical atom of accumulated mass.
    """
    return DiscreteMeasure(rows)


# ---------------------------------------------------------------------------
# Mean discrepancy statistics
# ---------------------------------------------------------------------------


def gmd_ustat(rows, p: float = 1.0) -> float:
    """Unbiased mean p-th power discrepancy: mean of |z_i - z_j|^p over i != j.

    Closed forms cover the common cases (p=2 any dimension, p=1 in one
    dimension); everything else goes through the pairwise cost matrix.
    """
    m = DiscreteMeasure(rows)
    z, n = m.points, m.n
    if n < 2:
        raise DataError("mean discrepancy needs at least 2 rows")
    if p == 2:
        # sum_{i,j} |z_i - z_j|^2 = 2n sum|c_i|^2 - 2|sum c_i|^2 for centered c.
        centered = z - z.mean(axis=0)
        sq = np.einsum("ij,ij->", centered, centered)
        drift = centered.sum(axis=0)
        total = 2.0 * n * sq - 2.0 * float(drift @ drift)
        return max(float(total / (n * (n - 1))), 0.0)
    if p == 1 and z.shape[1] == 1:
        s = np.sort(z[:, 0])
        coeff = 2.0 * np.arange(1 - n, n, 2)
        return float(np.dot(coeff, s) / (n * (n - 1)))
    c = cost_matrix(m, m, CostSpec(p=p))
    return float((c.sum() - np.trace(c)) / (n * (n - 1)))


def gmd_plugin(measure: DiscreteMeasure, p: float = 1.0) -> float:
    """With-replacement mean p-th power discrepancy of a weighted measure.

    A scalar measure with uniform weights at p = 1 or 2 reads every row's
    cost from ``exact._group_powers``, each row its own group; any other
    takes one :func:`dirac_transport_cost` per row. One dot product follows:
    the same reduction as an all-dirac conditional numerator, so the two
    agree bit for bit on a functional sample.
    """
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    weights = measure.weights
    if measure.dim == 1 and p in (1, 2) and np.all(weights == weights[0]):
        rows = _group_powers(measure.points[:, 0], np.arange(measure.n), p)
    else:
        rows = np.array(
            [dirac_transport_cost(measure.points[i], measure.points, weights, p) for i in range(measure.n)]
        )
    return float(np.dot(weights, rows))


def dirac_transport_cost(point: np.ndarray, support: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Expected d(point, Z)^p under the discrete law (support, weights).

    This is the p-th power transport cost from a one-point mass, whose
    coupling is forced. Shared by the plug-in discrepancy and the
    dirac-conditional fast path precisely so the two agree bit for bit.
    """
    gaps = support - point
    if support.shape[1] == 1:
        d = np.abs(gaps[:, 0])
    else:
        d = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
    if p != 1:
        d = d ** p
    return float(np.dot(weights, d))


# ---------------------------------------------------------------------------
# Product-measure estimators
# ---------------------------------------------------------------------------


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation with no fixed point, by rejection."""
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def product_estimator(
    sample: PairedSample,
    mode: str = "permute",
    rng: np.random.Generator | None = None,
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Estimate (joint law, product of marginals) from one paired sample.

    Modes:
      - ``split``: thirds of the sample; the joint estimate uses the first
        third, the product pairs x from the second third with y from the
        last. Leftover rows when n is not divisible by 3 are dropped.
      - ``permute``: joint on all rows; product pairs x_i with y_{sigma(i)}
        for a random fixed-point-free permutation sigma drawn from ``rng``.
      - ``full``: joint on all rows; product is the full n^2 atom grid.
    """
    n = sample.n
    if mode == "split":
        k = n // 3
        if k < 1:
            raise DataError("split mode needs at least 3 rows")
        joint = np.hstack([sample.xs[:k], sample.ys[:k]])
        prod = np.hstack([sample.xs[k : 2 * k], sample.ys[2 * k : 3 * k]])
        return to_measure(joint), to_measure(prod)
    if mode == "permute":
        if n < 2:
            raise DataError("permute mode needs at least 2 rows")
        if rng is None:
            rng = np.random.default_rng(sample.seed)
        joint = sample.joint_rows()
        prod = np.hstack([sample.xs, sample.ys[_derangement(n, rng)]])
        return to_measure(joint), to_measure(prod)
    if mode == "full":
        joint = to_measure(sample.joint_rows())
        prod = product_measure(to_measure(sample.xs), to_measure(sample.ys))
        return joint, prod
    raise ValueError(f"unknown estimator mode {mode!r}")


# ---------------------------------------------------------------------------
# Rank and copula transforms
# ---------------------------------------------------------------------------


def _rank_order(col: np.ndarray) -> np.ndarray:
    """0-based ranks with ties broken by original row index."""
    order = np.argsort(col, kind="stable")
    ranks = np.empty(len(col), dtype=np.int64)
    ranks[order] = np.arange(len(col))
    return ranks


def rank_grid_values(ranks: np.ndarray, n: int) -> np.ndarray:
    """Map integer ranks to the uniform grid (rank + 0.5) / n.

    Kept as the single site performing this arithmetic so every consumer
    (copula transform, antithetic constructions) gets bitwise-equal grids.
    """
    return (ranks + 0.5) / n


def copula_transform(sample: PairedSample) -> PairedSample:
    """Normalized-rank transform of a 1D pair: each margin becomes the grid
    (rank + 0.5)/n, joint ordering preserved, ties broken by row index."""
    if sample.dx != 1 or sample.dy != 1:
        raise DataError("copula transform needs one-dimensional margins")
    n = sample.n
    u = rank_grid_values(_rank_order(sample.xs[:, 0]), n)
    v = rank_grid_values(_rank_order(sample.ys[:, 0]), n)
    return PairedSample(u[:, None], v[:, None], seed=sample.seed)


def multivariate_ranks(points, grid) -> np.ndarray:
    """Optimal-assignment ranks: index of the grid point coupled to each row.

    The coupling is exact transport with uniform weights and
    squared-Euclidean cost; in one dimension with a sorted grid it reduces to
    the ordinary rank order.
    """
    pts = _as_points(points, "points")
    g = _as_points(grid, "grid")
    if pts.shape != g.shape:
        raise DataError("points and grid must have identical shapes")
    rows, cols = linear_sum_assignment(cdist(pts, g, "sqeuclidean"))
    assignment = np.empty(pts.shape[0], dtype=np.int64)
    assignment[rows] = cols
    return assignment


# ---------------------------------------------------------------------------
# Conditional-law partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalFamily:
    """A law of X on one or more atoms, with one conditional y-law per atom.

    ``groups``, set by :func:`partition`, holds the sample rows behind each
    atom. Group weights must sum to 1 within 1e-9 and are kept as given.
    """

    representatives: np.ndarray
    laws: tuple[DiscreteMeasure, ...]
    group_weights: np.ndarray
    groups: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        reps = _as_points(self.representatives, "representatives")
        laws = tuple(self.laws)
        if len(laws) != reps.shape[0]:
            raise DataError("need exactly one conditional law per representative")
        if len({law.dim for law in laws}) != 1:
            raise DataError("conditional laws live in different dimensions")
        weights = np.asarray(self.group_weights, dtype=float)
        _as_weights(weights, len(laws))  # checked only: rescaling would move output bits
        if self.groups:
            seen = np.sort(np.concatenate([np.asarray(g) for g in self.groups]))
            if np.any(seen[1:] == seen[:-1]):
                raise DataError("groups overlap")
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "group_weights", weights)

    @property
    def k(self) -> int:
        return len(self.laws)

    def pooled_marginal(self) -> DiscreteMeasure:
        """Mixture of the group laws with the group weights: the y-marginal."""
        return mixture(self.laws, self.group_weights)


def default_bin_count(n: int, x_dim: int) -> int:
    """Per-axis cube count: n^(1/3) for scalar x, n^(1/2) otherwise."""
    phi = round(n ** (1.0 / 3.0)) if x_dim == 1 else round(n ** 0.5)
    return max(int(phi), 1)


def _snap_to_centers(values: np.ndarray, phi: int) -> np.ndarray:
    """Map each coordinate to the center of its cube in a phi^d grid over the
    (slightly inflated) empirical bounding box."""
    lo = values.min(axis=0) - 1e-9
    hi = values.max(axis=0) + 1e-9
    width = (hi - lo) / phi
    idx = np.clip(np.floor((values - lo) / width).astype(np.int64), 0, phi - 1)
    return lo + (idx + 0.5) * width


def row_groups(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows and where each run of equal rows starts.

    ``points[order[starts[g]]]`` is the g-th distinct row in ascending order,
    and each run lists its rows in their original order.
    """
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    new_group = np.any(pts[1:] != pts[:-1], axis=1)
    return order, np.concatenate([[0], np.flatnonzero(new_group) + 1])


def partition(
    sample: PairedSample,
    mode: str = "exact",
    phi: int | None = None,
    snap_y: bool = False,
) -> ConditionalFamily:
    """Group the rows into a conditional family.

    ``exact`` groups equal x rows; ``bins`` snaps each x to the center of its
    cube in a ``phi``-per-axis grid over the data's bounding box and groups
    by cube. ``snap_y`` additionally coarsens the y-values onto their own
    cube centers (the variant used in the rate analysis; off by default
    because the plain plug-in is the natural estimator).
    """
    n = sample.n
    if mode == "exact":
        keys = sample.xs
    elif mode == "bins":
        if phi is None:
            phi = default_bin_count(n, sample.dx)
        if phi < 1:
            raise DataError("bin count must be at least 1")
        if phi > 2**53:
            raise DataError("bin count must be at most 2**53, the largest integer a float holds exactly")
        keys = _snap_to_centers(sample.xs, phi)
    else:
        raise ValueError(f"unknown partition mode {mode!r}")

    ys = sample.ys
    if snap_y:
        if mode != "bins":
            raise DataError("snap_y only applies to bins mode")
        ys = _snap_to_centers(ys, phi)

    order, starts = row_groups(keys)
    bounds = np.append(starts, n)
    groups = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    laws = [to_measure(ys[idx]) for idx in groups]
    weights = np.diff(bounds).astype(float) / n
    return ConditionalFamily(
        representatives=keys[order[starts]],
        laws=tuple(laws),
        group_weights=weights,
        groups=tuple(groups),
    )
