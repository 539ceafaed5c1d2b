"""Sample containers, product-measure estimators, and rank transforms.

Everything here turns raw paired observations into the discrete measures the
dependence functionals consume: empirical joint laws, estimated product
laws (sample splitting, permutation, or the full n^2 grid), conditional-law
partitions, mean-discrepancy statistics, and copula/rank normalizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from .exceptions import DataError
from .measures import (
    WEIGHT_TOL, CostSpec, DiscreteMeasure, _as_points, _as_weights, _runs, _weighted_sum, cost_matrix, product_measure
)

__all__ = [
    "PairedSample",
    "ConditionalFamily",
    "to_measure",
    "gmd_ustat",
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

    Repeated rows stay separate atoms; its ``support`` merges them into one
    atom of accumulated mass, read by the LP route and Sinkhorn's same-law test.
    """
    return DiscreteMeasure(rows)


# ---------------------------------------------------------------------------
# Mean discrepancy statistics
# ---------------------------------------------------------------------------


def gmd_ustat(rows, p: float = 1.0) -> float:
    """Unbiased mean p-th power discrepancy: mean of |z_i - z_j|^p over i != j.

    Closed forms cover the common cases (p=2 any dimension, p=1 in one
    dimension); everything else is n/(n-1) times the pair-cost kernel's mean.
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
        total = 2.0 * n * sq - 2.0 * _weighted_sum(drift, drift)
        return max(float(total / (n * (n - 1))), 0.0)
    if p == 1 and z.shape[1] == 1:
        s = np.sort(z[:, 0])
        coeff = 2.0 * np.arange(1 - n, n, 2)
        return _weighted_sum(coeff, s) / (n * (n - 1))
    return n / (n - 1) * _weighted_sum(m.weights, dirac_transport_cost(z, m, p))


def dirac_transport_cost(points: np.ndarray, target: DiscreteMeasure, p: float) -> np.ndarray:
    """Expected d(z, Z)^p under ``target`` for each row z of ``points``: the
    pair-cost kernel shared by the forced coupling and both mean discrepancies.
    Each row is its own ``_weighted_sum``, so no bit depends on its block,
    and every distance comes from :func:`cost_matrix`."""
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    # Blocks of about 2^16 pairs. gmd_plugin, scalar p = 3, n = 10,000, median of 5
    # fresh runs, 2-core VM: 2^14 cells 0.54 s, 2^16 0.52 s, 2^18 0.59 s, 2^22 1.01 s.
    step = max(2**16 // target.n, 1)
    costs = np.empty(len(points))
    for lo in range(0, len(points), step):
        dist = cost_matrix(DiscreteMeasure(points[lo:lo + step]), target, CostSpec())
        dist **= p  # in place: a second block-sized array per block makes glibc trim and re-fault pages
        costs[lo:lo + step] = _weighted_sum(target.weights, dist)
    return costs


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
    rows, cols = linear_sum_assignment(cost_matrix(DiscreteMeasure(pts), DiscreteMeasure(g), CostSpec(p=2.0)))
    assignment = np.empty(pts.shape[0], dtype=np.int64)
    assignment[rows] = cols
    return assignment


# ---------------------------------------------------------------------------
# Conditional-law partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalFamily:
    """A law of X on k atoms with one conditional y-law per atom, held flat.

    Group g's atoms are ``points[starts[g]:starts[g + 1]]``, the last group
    running to the end. ``weights`` holds each atom's weight within its
    group, or is None when every group is uniform; ``rows``, set by
    :func:`partition`, holds each atom's sample row. Group weights must sum
    to 1 within 1e-9 and are kept as given.
    """

    representatives: np.ndarray
    group_weights: np.ndarray
    points: np.ndarray
    starts: np.ndarray
    weights: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "representatives", _as_points(self.representatives, "representatives"))
        object.__setattr__(self, "group_weights", np.asarray(self.group_weights, dtype=float))
        object.__setattr__(self, "points", _as_points(self.points, "points"))
        object.__setattr__(self, "starts", np.asarray(self.starts, dtype=np.int64))
        if self.starts.shape != (len(self.representatives),) or self.starts[0] != 0 or np.any(self.sizes < 1):
            raise DataError("need exactly one nonempty conditional law per representative")
        _as_weights(self.group_weights, self.k)  # checked only: rescaling would move output bits
        if self.weights is not None:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
            fits = self.weights.shape == self.points.shape[:1] and np.all(self.weights >= 0)
            if not fits or np.any(np.abs(np.add.reduceat(self.weights, self.starts) - 1.0) > WEIGHT_TOL):
                raise ValueError("atom weights must be nonnegative and sum to 1 within each group")

    @classmethod
    def from_laws(cls, representatives, laws, group_weights) -> "ConditionalFamily":
        """The family whose g-th representative carries the measure ``laws[g]``."""
        if len({law.dim for law in laws}) != 1:
            raise DataError("need one or more conditional laws, all in one dimension")
        sizes = np.array([law.n for law in laws])
        uniform = all(np.all(law.weights == law.weights[0]) for law in laws)
        weights = None if uniform else np.concatenate([law.weights for law in laws])
        points = np.vstack([law.points for law in laws])
        return cls(representatives, group_weights, points, np.cumsum(sizes) - sizes, weights)

    @property
    def k(self) -> int:
        return len(self.starts)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts, append=len(self.points))

    @cached_property
    def laws(self) -> tuple[DiscreteMeasure, ...]:
        """Each group's atoms as a measure, built on first use."""
        weights = [None] * self.k if self.weights is None else np.split(self.weights, self.starts[1:])
        return tuple(map(DiscreteMeasure, np.split(self.points, self.starts[1:]), weights))

    def pooled_marginal(self) -> DiscreteMeasure:
        """Every atom at its group's weight times its weight in the group: the y-marginal."""
        within = np.repeat(1.0 / self.sizes, self.sizes) if self.weights is None else self.weights
        return DiscreteMeasure(self.points, np.repeat(self.group_weights, self.sizes) * within)


def default_bin_count(n: int, x_dim: int) -> int:
    """Per-axis cube count: n^(1/3) for scalar x, n^(1/2) otherwise."""
    phi = round(n ** (1.0 / 3.0)) if x_dim == 1 else round(n ** 0.5)
    return max(int(phi), 1)


def _cubes(values: np.ndarray, phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's integer cube index in a phi^d grid over the data's bounding
    box, widened by 1e-9 of each axis's range on either side so that the
    cubes do not depend on the data's units, and the box's lower corner and
    cube width per axis. A constant axis is one cube of width 0."""
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    lo = lo - 1e-9 * span
    width = span * (1.0 + 2e-9) / phi
    idx = np.floor((values - lo) / np.where(width > 0, width, 1.0)).astype(np.int64)
    return np.clip(idx, 0, phi - 1), lo, width


def partition(
    sample: PairedSample,
    mode: str = "exact",
    phi: int | None = None,
    snap_y: bool = False,
) -> ConditionalFamily:
    """Group the rows into a conditional family.

    ``exact`` groups equal x rows; ``bins`` groups x by its integer cube in
    a ``phi``-per-axis grid over the data's bounding box, and represents each
    group by its cube's center. ``snap_y`` additionally coarsens the y-values
    onto their own cube centers (the variant used in the rate analysis; off
    by default because the plain plug-in is the natural estimator). ``phi``
    and ``snap_y`` are refused in ``exact`` mode, which has no cubes. Groups
    come in ascending key order, each listing its rows in their original order:
    the runs of ``measures._runs``, which also builds every measure's support.
    """
    n, ys = sample.n, sample.ys
    if mode == "exact":
        if snap_y:
            raise DataError("snap_y only applies to bins mode")
        if phi is not None:
            raise DataError("a bin count only applies to bins mode")
        keys = sample.xs
    elif mode == "bins":
        if phi is None:
            phi = default_bin_count(n, sample.dx)
        if phi < 1:
            raise DataError("bin count must be at least 1")
        if phi > 2**53:
            raise DataError("bin count must be at most 2**53, the largest integer a float holds exactly")
        keys, lo, width = _cubes(sample.xs, phi)
        if snap_y:
            y_idx, y_lo, y_width = _cubes(ys, phi)
            ys = y_lo + (y_idx + 0.5) * y_width
    else:
        raise ValueError(f"unknown partition mode {mode!r}")

    order, starts = _runs(keys)
    first = keys[order[starts]]
    representatives = first if mode == "exact" else lo + (first + 0.5) * width
    return ConditionalFamily(representatives, np.diff(starts, append=n) / n, ys[order], starts, rows=order)
