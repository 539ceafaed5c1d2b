"""Exact discrete optimal transport and the one-dimensional closed form.

The exact solver treats the two standard regimes separately: equal-size
uniform instances reduce to a linear assignment problem (an optimal vertex of
the Birkhoff polytope is a permutation), while general marginals go through
the sparse transport linear program. Both return certified optima of the same
LP, so every downstream index can lean on them as oracles.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .exceptions import ExactSolverError
from .measures import CostSpec, DiscreteMeasure, cost_matrix

__all__ = [
    "solve_exact",
    "solve_from_cost",
    "wasserstein_1d",
]


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


def solve_from_cost(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Minimal ``<plan, cost>`` over couplings of weight vectors a and b.

    Used by :func:`solve_exact` and by callers that assemble composite cost
    matrices themselves (nested transport).
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (n,) or b.shape != (m,):
        raise ValueError("marginal lengths do not match the cost matrix")
    if abs(a.sum() - b.sum()) > 1e-9:
        raise ValueError(f"infeasible marginals: masses {a.sum()!r} vs {b.sum()!r}")

    if n == m and np.all(a == a[0]) and np.all(b == b[0]):
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() * a[0])

    # General marginals: sparse transport LP. One of the n+m equality rows is
    # redundant; HiGHS copes, but the column sums are rescaled to eliminate
    # any rounding gap between the two mass totals.
    b = b * (a.sum() / b.sum())
    row_sum = sparse.kron(sparse.eye(n, format="csr"), np.ones((1, m)), format="csr")
    col_sum = sparse.kron(np.ones((1, n)), sparse.eye(m, format="csr"), format="csr")
    constraints = sparse.vstack([row_sum, col_sum], format="csr")
    rhs = np.concatenate([a, b])
    res = linprog(cost.ravel(), A_eq=constraints, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise ExactSolverError(f"transport LP failed: {res.message}")
    return float(res.fun)


def solve_exact(src: DiscreteMeasure, dst: DiscreteMeasure, spec: CostSpec) -> float:
    """Optimal transport cost between two discrete measures under ``spec``.

    Returns the minimal expected ``d^p``, clamped at 0: ``W_p^p`` of order
    ``spec.p``, whose p-th root is the Wasserstein distance.
    """
    cost = cost_matrix(src, dst, spec)
    return max(solve_from_cost(cost, src.weights, dst.weights), 0.0)


# ---------------------------------------------------------------------------
# One-dimensional closed form
# ---------------------------------------------------------------------------


def _quantile_cost(xs: np.ndarray, cwx: np.ndarray, ys: np.ndarray, cwy: np.ndarray, p: float) -> float:
    """Integral of |Fx^{-1} - Fy^{-1}|^p over (0,1) for two discrete laws,
    each given as its quantile form: atoms in ascending order and their
    cumulative weights (``measures._quantile_form``).

    Quantiles are the right-continuous generalized inverses; tied atoms stack
    their mass. The integrand is piecewise constant between the merged
    cumulative-weight breakpoints, so the integral is an exact finite sum.

    Segment t of the merge is read at its midpoint m_t, where each law's
    quantile is its atom at ``searchsorted(cw, m_t)``, clamped to the last
    atom. No midpoint is looked up: while m_t lies above its left edge, that
    clamped index is the law's count of cumulative weights <= 0 plus the
    number of its inner levels merged before t. Only a midpoint that rounds
    onto its left edge, in a segment of zero or one ulp, is searched.
    """
    # Each law's inner levels: the slice [lo, hi) of cw[:-1] strictly inside (0, 1).
    x0 = int(np.searchsorted(cwx[:-1], 0.0, side="right"))
    x1 = int(np.searchsorted(cwx[:-1], 1.0, side="left"))
    y0 = int(np.searchsorted(cwy[:-1], 0.0, side="right"))
    y1 = int(np.searchsorted(cwy[:-1], 1.0, side="left"))
    # Both runs of inner levels are sorted, so inserting x's into y's is
    # their sorted merge; x's level j lands at merged position at[j].
    pos = np.searchsorted(cwy[y0:y1], cwx[x0:x1])
    edges = np.concatenate([[0.0], np.insert(cwy[y0:y1], pos, cwx[x0:x1]), [1.0]])
    seg = np.diff(edges)
    mids = edges[:-1] + seg / 2
    at = pos + np.arange(len(pos))
    # x's atom x0 + j holds from the segment after its level j - 1 through
    # the one ending at its level j; y's atom y0 + i holds once more for each
    # x level merged just before its level i.
    qx = np.repeat(xs[x0 : x1 + 1], np.diff(at, prepend=-1, append=len(seg) - 1))
    qy = np.insert(ys[y0 : y1 + 1], pos, ys[y0 + pos])
    on_edge = np.flatnonzero(mids <= edges[:-1])
    qx[on_edge] = xs[np.minimum(np.searchsorted(cwx, mids[on_edge]), len(xs) - 1)]
    qy[on_edge] = ys[np.minimum(np.searchsorted(cwy, mids[on_edge]), len(ys) - 1)]
    gaps = np.abs(qx - qy)
    if p != 1:
        gaps = gaps ** p
    return float(np.dot(seg, gaps))


def wasserstein_1d(src: DiscreteMeasure, dst: DiscreteMeasure, p: float = 1.0) -> float:
    """L^p distance between the empirical quantile functions of two 1D laws."""
    if src.dim != 1 or dst.dim != 1:
        raise ValueError("wasserstein_1d needs one-dimensional measures")
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    return _quantile_cost(*src.quantile_form, *dst.quantile_form, p) ** (1.0 / p)
