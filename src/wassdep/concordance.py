"""Signed concordance from transport distances to the two monotone extremes.

For a scalar pair whose margins agree in law, the distance to the comonotone
coupling (the diagonal) admits a sorting closed form: couple the i-th order
statistic of s = x + y with the i-th order statistic of x. Within a tied-s
block the total cost separates additively, so any tie-break gives the same
value. The distance between the antithetic coupling and the diagonal
collapses to 2 std(x), giving the normalization; the signed index is
1 - 2 * numerator / denominator, reaching +1 exactly on y = x and -1 exactly
on y = a - x.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.stats import ks_2samp

from .empirical import PairedSample, _rank_order, copula_transform, rank_grid_values
from .exceptions import DataError, DegenerateMarginalError
from .report import IndexReport

__all__ = [
    "diagonal_transport_map",
    "d_to_diagonal",
    "antithetic_denominator",
    "concordance_index",
]


def diagonal_transport_map(sample: PairedSample) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated monotone map from s = x + y onto the x order statistics.

    Returns (s, g) aligned with the sample rows: row i's mass at (x_i, y_i)
    is sent to (g_i, g_i) on the diagonal, where g is non-decreasing in s
    (ties in s resolved by x, which keeps the table monotone and the total
    cost tie-break independent).
    """
    if sample.dx != 1 or sample.dy != 1:
        raise DataError("the diagonal map needs a scalar pair")
    x = sample.xs[:, 0]
    s = x + sample.ys[:, 0]
    order = np.lexsort((x, s))
    g = np.empty_like(x)
    g[order] = np.sort(x)
    return s, g


def d_to_diagonal(sample: PairedSample) -> float:
    """Transport distance (order 2) from the sample's joint law to the
    comonotone law of its x-margin with itself."""
    _, g = diagonal_transport_map(sample)
    x = sample.xs[:, 0]
    y = sample.ys[:, 0]
    cost = np.mean((x - g) ** 2) + np.mean((y - g) ** 2)
    return float(np.sqrt(cost))


def symmetry_threshold(n: int) -> float:
    """Twice the 95% two-sample Kolmogorov-Smirnov band for equal sizes."""
    return 2.0 * 1.36 * np.sqrt(2.0 / n)


def _screen_same_law(first: np.ndarray, second: np.ndarray, what: str, strict: bool) -> None:
    """Warn, or raise DataError in strict mode, when the two-sample KS distance
    between two equal-size samples exceeds :func:`symmetry_threshold`."""
    ks = ks_2samp(first, second).statistic
    limit = symmetry_threshold(len(first))
    if ks > limit:
        message = f"{what}: KS distance {ks:.3f} exceeds {limit:.3f}"
        if strict:
            raise DataError(message)
        warnings.warn(message, stacklevel=3)


def antithetic_denominator(x, a: float, strict: bool = False) -> float:
    """Distance between the antithetic coupling (x, a-x) and the diagonal.

    The coupling cost separates additively, so every transport plan between
    the two costs the same and the distance collapses to 2 std(x) when x is
    symmetric about a/2. Symmetry is screened with a two-sample KS distance
    between x and a - x; violations warn (or raise in strict mode).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) < 2:
        raise DataError("need at least 2 observations")
    spread = float(np.std(x))
    if spread == 0.0:
        raise DegenerateMarginalError("x is constant")
    _screen_same_law(x, a - x, f"x does not look symmetric about {a / 2}", strict)
    return 2.0 * spread


def _copula_pair_and_antithetic(sample: PairedSample) -> tuple[PairedSample, PairedSample]:
    """Rank-transformed pair plus its exact antithetic partner.

    The partner's y-grid is built from the reversed integer ranks through
    the same grid arithmetic as the transform itself, so a strictly
    decreasing raw relationship reproduces it bit for bit.
    """
    n = sample.n
    cop = copula_transform(sample)
    rx = _rank_order(sample.xs[:, 0])
    anti = rank_grid_values((n - 1) - rx, n)
    return cop, PairedSample(cop.xs, anti[:, None], seed=sample.seed)


def concordance_index(
    sample: PairedSample,
    a: float | None = None,
    mode: str = "copula",
    strict: bool = False,
) -> IndexReport:
    """Signed concordance index 1 - 2 * d(joint, diagonal) / d(antithetic, diagonal).

    ``copula`` mode rank-transforms both margins first (center a = 1), which
    guarantees the symmetry and equal-margins preconditions; ``raw`` mode
    uses the data as-is and requires the center of symmetry ``a``. The value
    is exactly 1 when y = x rowwise and, in copula mode, exactly -1 when y is
    a strictly decreasing function of x.
    """
    if mode == "copula":
        cop, anti = _copula_pair_and_antithetic(sample)
        numerator = d_to_diagonal(cop)
        denominator = d_to_diagonal(anti)
        center = 1.0
    elif mode == "raw":
        if a is None:
            raise DataError("raw mode needs the symmetry center a")
        x = sample.xs[:, 0]
        _screen_same_law(x, sample.ys[:, 0], "x and y differ in law", strict)
        numerator = d_to_diagonal(sample)
        denominator = antithetic_denominator(x, a, strict=strict)
        center = float(a)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if denominator <= 0.0:
        raise DegenerateMarginalError("degenerate normalization")
    value = 1.0 - 2.0 * (numerator / denominator)
    return IndexReport(
        index="concordance",
        value=value,
        numerator=numerator,
        denominator=denominator,
        center=center,
        mode=mode,
        n=sample.n,
    )
