"""Exact discrete optimal transport and the one-dimensional closed forms.

The exact solver returns certified optima of the transport LP, so every
downstream index can lean on it as an oracle. Uniform weights on n and m
atoms are one linear assignment on L = lcm(n, m) atoms (an optimal vertex
of the Birkhoff polytope is a permutation) when n == m or while each cost
entry is repeated at most 20 times, the measured crossover; anything else
is the sparse transport LP, on merged supports. Between scalar laws
``_quantile_cost`` merges two quantile forms, and ``_group_powers`` sweeps
every group of a column against one uniform target at p = 1 or 2. Which
route a conditional cost takes is decided only in ``conditional._group_costs``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .exceptions import DataError, ExactSolverError
from .measures import CostSpec, DiscreteMeasure, _weighted_sum, cost_matrix

__all__ = [
    "solve_exact",
    "solve_from_cost",
    "wasserstein_1d",
]


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


def _assignable(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether weights a and b take the assignment route: both uniform, and
    n == m (``cost`` itself is assigned) or the expansion to L = lcm(n, m)
    atoms repeats each cost entry at most 20 times (L * L <= 20 * n * m)."""
    n, m = len(a), len(b)
    lcm = math.lcm(n, m)
    return lcm * lcm <= 20 * n * m and bool(np.all(a == a[0]) and np.all(b == b[0]))


def solve_from_cost(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Minimal ``<plan, cost>`` over couplings of weight vectors a and b.

    Weights that :func:`_assignable` accepts are solved as one assignment on
    L = lcm(n, m) atoms; every other case as the sparse transport LP.

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
    if not np.isfinite(cost.max()) or not np.isfinite(cost.min()):
        raise DataError("a distance or its p-th power leaves the float range")

    # The scaled transport polytope has integral vertices (Peyre & Cuturi,
    # Computational Optimal Transport, 2019), so the assignment on the
    # expanded matrix solves the LP. It beats the LP while each entry of cost
    # is repeated at most 20 times and loses from about 30 on. 2-D normal
    # clouds, p = 2, 2-core VM, numpy 2.4.6, scipy 1.17.1; best of 3 below
    # L = 1500, one run above:
    #
    #   n x m      L     repeats  LP        assignment
    #   60 x 48    240   20       18.6 ms   2.9 ms
    #   500 x 400  2000  20       1761 ms   678 ms
    #   100 x 2000 2000  20       3966 ms   2001 ms
    #   360 x 300  1800  30       1017 ms   949 ms
    #   90 x 80    720   72       36.9 ms   59.9 ms
    #   61 x 48    2928  2928     14.8 ms   4218 ms
    #
    # At 20 repeats the expanded matrix takes 160 bytes per entry of cost,
    # against a peak-RSS rise of about 1.2 KB per entry for the HiGHS LP.
    # n == m repeats nothing and assigns cost itself.
    if _assignable(a, b):
        lcm = math.lcm(n, m)
        if n != m:
            cost = cost[np.ix_(np.arange(n).repeat(lcm // n), np.arange(m).repeat(lcm // m))]
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() * a[0] / (lcm // n))

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
    ``spec.p``, whose p-th root is the Wasserstein distance. The optimum
    depends only on the laws, so off the assignment route a measure whose
    atoms coincide is solved on its :attr:`~DiscreteMeasure.support`.
    """
    if not _assignable(src.weights, dst.weights):
        src, dst = (m.support if m.support.n < m.n else m for m in (src, dst))
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
    return _weighted_sum(seg, np.abs(qx - qy), p)


# Atoms per block of :func:`_group_powers`. Only the sorted values, their
# prefix sums and the group atoms are held at full length; a block's
# temporaries take a few hundred KB.
_SWEEP_BLOCK = 1 << 15


def _group_powers(values: np.ndarray, starts: np.ndarray, target: np.ndarray, p: float) -> np.ndarray:
    """W_p^p, for p in {1, 2}, from the uniform law on each group of
    ``values`` to the uniform law on the n values of ``target``.

    Group g is ``values[starts[g]:starts[g + 1]]``, the last one running to
    the end. A group of m values, all equal, is one dirac (m = 1); a group
    equal to the target as a multiset costs exactly 0.

    The target is sorted once into z and centred on the sorted values'
    mean, so the result does not depend on its order. Levels are integer
    counts in units of 1/(n m): a group's j-th smallest atom a holds on
    [j n, (j + 1) n] and z_i on [i m, (i + 1) m], so the target segment
    under level L is L // m. Over an atom's interval the integrals of Q and
    Q^2, Q the target's quantile function, follow from the prefix sums of
    z and z^2. At p = 1 the interval splits where Q crosses a, at level m
    times the count of z below a; only an atom whose interval straddles its
    crossing searches for it. No running sum of 1/n enters a level.

    A dirac's cost depends only on its value and the target, so exact-mode
    rows and the plug-in discrepancy, which both read it here, agree bit
    for bit on a functional sample.
    """
    n = len(target)
    z = np.sort(target)
    mean = z.mean()
    z -= mean
    s1 = np.zeros(n + 1)
    np.cumsum(z, out=s1[1:])
    if p == 2:
        s2 = np.zeros(n + 1)
        np.cumsum(z * z, out=s2[1:])
    atoms = values - mean
    sizes = np.diff(starts, append=len(values))
    for g in np.flatnonzero(sizes > 1):
        group = slice(starts[g], starts[g] + sizes[g])
        atoms[group] = np.sort(atoms[group])
    m_of = np.where(atoms[starts] == atoms[starts + sizes - 1], 1, sizes)
    totals = np.zeros(len(starts))

    for first in range(0, len(values), _SWEEP_BLOCK):
        stop = min(first + _SWEEP_BLOCK, len(values))
        pos = np.arange(first, stop)
        g = np.searchsorted(starts, pos, side="right") - 1
        j = pos - starts[g]
        m = m_of[g]
        live = j < m  # a dirac group keeps its first atom only
        j = np.minimum(j, m - 1)
        a = atoms[first:stop]
        lo, hi = j * n, (j + 1) * n
        q0, r0 = np.divmod(lo, m)
        q1, r1 = np.divmod(hi, m)
        z0, z1 = z[q0], z[np.minimum(q1, n - 1)]  # q1 == n only with r1 == 0
        if p == 2:
            # n m times the integrals of Q and Q^2 over the atom's interval.
            d1 = m * (s1[q1] - s1[q0]) + (r1 * z1 - r0 * z0)
            d2 = m * (s2[q1] - s2[q0]) + (r1 * z1 * z1 - r0 * z0 * z0)
            cost = n * a * a - 2 * a * d1 + d2
        else:
            # Q < a below the crossing level c m + rc and Q >= a from it on.
            top = z[(hi - 1) // m]
            up = a > top
            c, rc = np.where(up, q1, q0), np.where(up, r1, r0)
            inside = (a > z0) & ~up
            c[inside] = np.searchsorted(z, a[inside])
            rc[inside] = 0
            zc = z[np.minimum(c, n - 1)]
            lc = c * m + rc
            below = a * (lc - lo) - (m * (s1[c] - s1[q0]) + (rc * zc - r0 * z0))
            above = m * (s1[q1] - s1[c]) + (r1 * z1 - rc * zc) - a * (hi - lc)
            cost = below + above
        cost[~live] = 0.0
        part = np.bincount(g - g[0], weights=cost)
        totals[g[0] : g[0] + len(part)] += part
    same = [g for g in np.flatnonzero(sizes == n) if np.array_equal(atoms[starts[g] : starts[g] + n], z)]
    totals[same] = 0.0
    return np.maximum(totals / (n * m_of), 0.0)


def wasserstein_1d(src: DiscreteMeasure, dst: DiscreteMeasure, p: float = 1.0) -> float:
    """L^p distance between the empirical quantile functions of two 1D laws."""
    if src.dim != 1 or dst.dim != 1:
        raise ValueError("wasserstein_1d needs one-dimensional measures")
    CostSpec(p=p)  # the one check on p: ValueError unless p >= 1
    return _quantile_cost(*src.quantile_form, *dst.quantile_form, p) ** (1.0 / p)
