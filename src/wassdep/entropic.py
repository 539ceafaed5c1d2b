"""Entropy-regularized optimal transport in the log domain.

Implements the symmetric Sinkhorn iteration on dual potentials with
log-sum-exp updates, so small regularization strengths stay numerically
stable. The reported value is the regularized objective
``<plan, cost> + eps * KL(plan | a x b)``, which upper-bounds the exact
transport cost and decreases monotonically as ``eps`` shrinks.
"""

from __future__ import annotations

import numpy as np

from .exceptions import SinkhornConvergenceError
from .measures import CostSpec, DiscreteMeasure, cost_matrix

__all__ = ["sinkhorn_discrepancy", "sinkhorn_divergence"]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``, bit for bit as scipy's ``logsumexp``.

    Same steps as scipy 1.17 without its array-API dispatch, which costs
    several times the arithmetic on a sweep-sized matrix: the maxima are
    shifted out of the sum and counted (m), so the result is
    ``log1p(s / m) + log(m) + max``. A slice that is all ``-inf`` gives
    ``-inf``.
    """
    amax = a.max(axis, keepdims=True)
    top = a == amax
    m = top.sum(axis, keepdims=True)
    with np.errstate(invalid="ignore"):  # -inf - -inf on an all -inf slice
        shifted = np.exp(a - amax)
    shifted[top] = 0.0
    s = shifted.sum(axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + amax).squeeze(axis)


def _sweeps(
    cost: np.ndarray,
    log_a: np.ndarray,
    log_b: np.ndarray,
    a: np.ndarray,
    eps: float,
    tol: float,
    max_iter: int,
    f: np.ndarray,
    g: np.ndarray,
    symmetric: bool,
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Dual updates at one regularization level.

    With the plan built from (f, g), its i-th row sum equals
    ``a_i * exp((f_i - f_i') / eps)`` where f' is the next f-update, so the
    stopping test costs nothing beyond the updates themselves. Two measures
    alternate f- and g-updates, after which the column sums are exact. A
    self-transport problem (equal marginals, symmetric cost) keeps g = f and
    averages each f-update, which removes the zigzag that alternating
    updates make around the shared optimum.
    """
    violation = np.inf
    with np.errstate(over="ignore"):  # at tiny eps the violation overflows to inf: unmet
        for it in range(max_iter):
            new_f = -eps * logsumexp(log_b[None, :] + (g[None, :] - cost) / eps, axis=1)
            if it:
                violation = float(np.abs(a * np.expm1((f - new_f) / eps)).max())
                if violation <= tol:
                    return f, g, violation, True
            if symmetric:
                f = g = 0.5 * (f + new_f)
            else:
                f = new_f
                g = -eps * logsumexp(log_a[:, None] + (f[:, None] - cost) / eps, axis=0)
    return f, g, violation, False


def _sinkhorn_potentials(
    cost: np.ndarray,
    log_a: np.ndarray,
    log_b: np.ndarray,
    eps: float,
    tol: float,
    max_iter: int,
    symmetric: bool = False,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Converged dual potentials at regularization ``eps``.

    Small eps relative to the cost spread converges slowly from a cold
    start, so the target level is warm-started through a geometric ladder of
    decreasing regularizations (loosely converged, fixed budget each); only
    the final level must meet ``tol`` within ``max_iter`` sweeps.
    """
    a = np.exp(log_a)
    spread = float(cost.max() - cost.min()) if cost.size else 0.0
    f = np.zeros(cost.shape[0])
    g = np.zeros(cost.shape[1])
    level = spread / 8.0
    while level > eps * 4.0:
        f, g, _, _ = _sweeps(cost, log_a, log_b, a, level, 1e-3, 200, f, g, symmetric)
        level /= 4.0
    f, g, violation, done = _sweeps(cost, log_a, log_b, a, eps, tol, max_iter, f, g, symmetric)
    if not done:
        raise SinkhornConvergenceError(
            f"marginal violation {violation:.3e} after {max_iter} iterations "
            f"at eps {eps:.3e} (tol {tol:.1e})",
            achieved_violation=violation,
            eps=eps,
        )
    return f, g, violation


def sinkhorn_discrepancy(
    src: DiscreteMeasure,
    dst: DiscreteMeasure,
    eps: float,
    spec: CostSpec | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Entropy-regularized transport between two discrete measures.

    Returns the value of the regularized objective: the plain transport
    cost ``<plan, d^p>`` plus the scaled KL penalty, which for the optimal
    plan equals ``<plan, f + g>`` by the dual optimality conditions. Raises
    :class:`SinkhornConvergenceError` unless both marginals of the plan lie
    within ``2 * tol``: at tiny eps the potentials can round onto a fixed
    point that the stopping test alone would accept.
    """
    if not 0 < eps < np.inf:
        raise ValueError("regularization strength eps must be a finite positive real")
    if spec is None:
        spec = CostSpec(p=2.0)
    cost = cost_matrix(src, dst, spec)
    with np.errstate(divide="ignore"):
        log_a = np.log(src.weights)
        log_b = np.log(dst.weights)
    symmetric = src is dst or (
        src.points.shape == dst.points.shape
        and np.array_equal(src.points, dst.points)
        and np.array_equal(src.weights, dst.weights)
    )
    f, g, _ = _sinkhorn_potentials(cost, log_a, log_b, eps, tol, max_iter, symmetric)
    log_plan = log_a[:, None] + log_b[None, :] + (f[:, None] + g[None, :] - cost) / eps
    with np.errstate(over="ignore"):  # an overflowing plan fails the check below
        plan = np.exp(log_plan)
    misses = np.concatenate([plan.sum(axis=1) - src.weights, plan.sum(axis=0) - dst.weights])
    violation = float(np.abs(misses).max())
    if not violation <= 2 * tol:  # a nan fails too
        message = f"plan misses its marginals by {violation:.3e} at eps {eps:.3e} (tol {tol:.1e})"
        raise SinkhornConvergenceError(message, achieved_violation=violation, eps=eps)
    # KL(plan | a x b) = <plan, (f + g - cost)/eps>, hence the tidy value below.
    value = float(np.sum(plan * (f[:, None] + g[None, :])))
    return max(value, 0.0)


def sinkhorn_divergence(
    src: DiscreteMeasure,
    dst: DiscreteMeasure,
    eps: float,
    spec: CostSpec | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Debiased entropic discrepancy.

    ``S(P, Q) = W_eps(P, Q) - (W_eps(P, P) + W_eps(Q, Q)) / 2``, clamped at
    zero. Vanishes when the measures coincide and restores metric-like
    behavior that the raw regularized objective lacks.
    """
    cross = sinkhorn_discrepancy(src, dst, eps, spec, tol=tol, max_iter=max_iter)
    self_src = sinkhorn_discrepancy(src, src, eps, spec, tol=tol, max_iter=max_iter)
    self_dst = sinkhorn_discrepancy(dst, dst, eps, spec, tol=tol, max_iter=max_iter)
    return max(cross - 0.5 * (self_src + self_dst), 0.0)
