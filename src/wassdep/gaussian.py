"""Gaussian closed forms: the order-2 distance, the dependence index, the surrogate fit.

Both closed forms rest on one scale-relative PSD check and one matrix root
trace. For a centered Gaussian pair the transport distance to the independent
version, and its supremum over covariance-constrained couplings, reduce to
eigenvalue expressions of the covariance blocks. The resulting ratio is an
index in [0,1] that is exactly 0 when the cross-covariance vanishes. Fitting
it to arbitrary data measures only the dependence visible to second moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .empirical import PairedSample
from .exceptions import DataError, DegenerateMarginalError
from .report import IndexReport

__all__ = [
    "gaussian_w2",
    "GaussianDependenceParams",
    "i_gaussian",
    "i_gaussian_bivariate",
    "fit_gaussian_surrogate",
    "gaussian_index_report",
]

# A covariance whose smallest eigenvalue dips below -RELATIVE_PSD_TOL * ||S||
# is treated as genuinely indefinite instead of silently clamped.
RELATIVE_PSD_TOL = 1e-8


def _psd_eigh(mat, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (clamped at zero) and eigenvectors of a symmetric PSD matrix.

    Both checks are relative to the matrix's own scale, so a covariance is
    accepted or rejected alike in any units: an asymmetry beyond
    RELATIVE_PSD_TOL * max|S_ij|, or an eigenvalue below
    -RELATIVE_PSD_TOL * max|lambda|, raises DataError.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DataError(f"{what} must be a square matrix")
    if np.abs(mat - mat.T).max() > RELATIVE_PSD_TOL * np.abs(mat).max():
        raise DataError(f"{what} is not symmetric")
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2)
    bound = RELATIVE_PSD_TOL * float(np.abs(vals).max())
    if vals.min() < -bound:
        raise DataError(
            f"{what} is not positive semidefinite: eigenvalue {vals.min():.6g} below {-bound:.6g}"
        )
    return np.clip(vals, 0.0, None), vecs


def _root_trace(s1: np.ndarray, s2: np.ndarray, what: str) -> float:
    """tr((S1^(1/2) S2 S1^(1/2))^(1/2)), the sum of the square roots of its eigenvalues.

    ``what`` names S1 in the PSD check's messages; the product is the "cross term".
    """
    vals, vecs = _psd_eigh(s1, what)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inner = root @ s2 @ root
    kappa, _ = _psd_eigh((inner + inner.T) / 2, "cross term")
    return float(np.sqrt(kappa).sum())


def gaussian_w2(mean1, cov1, mean2, cov2) -> float:
    """Order-2 Wasserstein distance between two Gaussian laws.

    sqrt(||a1-a2||^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})), with
    matrix square roots taken through symmetric eigendecompositions. Negative
    eigenvalues within 1e-8 of the spectral scale are clamped to zero; beyond
    that the input is rejected as indefinite.
    """
    a1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    a2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    s1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    s2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    if a1.shape != a2.shape or s1.shape != s2.shape or s1.shape[0] != a1.shape[0]:
        raise ValueError("mean/covariance shapes disagree")
    _psd_eigh(s2, "second covariance")
    trace_term = float(np.trace(s1) + np.trace(s2) - 2.0 * _root_trace(s1, s2, "first covariance"))
    squared = float(np.sum((a1 - a2) ** 2)) + trace_term
    return float(np.sqrt(max(squared, 0.0)))


@dataclass(frozen=True)
class GaussianDependenceParams:
    """Covariance blocks of a jointly Gaussian pair (X, Y)."""

    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_xy: np.ndarray

    def __post_init__(self):
        blocks = []
        for mat, what in ((self.sigma_x, "x-covariance"), (self.sigma_y, "y-covariance")):
            mat = np.atleast_2d(np.asarray(mat, dtype=float))
            _psd_eigh(mat, what)
            blocks.append((mat + mat.T) / 2)
        sx, sy = blocks
        sxy = np.atleast_2d(np.asarray(self.sigma_xy, dtype=float))
        if sxy.shape != (sx.shape[0], sy.shape[0]):
            raise DataError("cross-covariance shape does not match the blocks")
        object.__setattr__(self, "sigma_x", sx)
        object.__setattr__(self, "sigma_y", sy)
        object.__setattr__(self, "sigma_xy", sxy)
        _psd_eigh(self.joint(), "joint covariance")

    @property
    def m1(self) -> int:
        return self.sigma_x.shape[0]

    @property
    def m2(self) -> int:
        return self.sigma_y.shape[0]

    def joint(self) -> np.ndarray:
        return np.block([[self.sigma_x, self.sigma_xy], [self.sigma_xy.T, self.sigma_y]])

    def independent(self) -> np.ndarray:
        """Covariance of the decoupled pair: block-diagonal of the margins."""
        out = np.zeros((self.m1 + self.m2, self.m1 + self.m2))
        out[: self.m1, : self.m1] = self.sigma_x
        out[self.m1 :, self.m1 :] = self.sigma_y
        return out


def i_gaussian(params: GaussianDependenceParams) -> float:
    """Eigenvalue form of the Gaussian dependence index.

    Numerator: tr(joint) - sum_j sqrt(kappa_j), the kappa_j being the
    eigenvalues of S^(1/2) S0 S^(1/2) for joint covariance S and decoupled
    covariance S0 (this is half the squared order-2 distance between the two
    Gaussians, since both traces agree). Denominator: the same expression
    with the coupling supremum, tr(joint) - sum sqrt(lx_j^2 + ly_j^2) over
    descending marginal eigenvalues, the shorter list padded with zeros.
    """
    joint = params.joint()
    # The ratio is scale-free, but S^(1/2) S0 S^(1/2) grows as the fourth
    # power of the data's units and leaves the float range near 1e+-77.
    # Dividing every block by the power of 4 nearest tr(S) is exact, and its
    # square root is an exact power of 2, so in-range values keep every bit.
    trace = float(np.trace(joint))
    unit = math.ldexp(1.0, -2 * round(math.log2(trace) / 2)) if trace > 0 else 1.0
    joint = joint * unit
    trace *= unit
    root_trace = _root_trace(joint, params.independent() * unit, "joint covariance")

    depth = max(params.m1, params.m2)
    lx = np.zeros(depth)
    ly = np.zeros(depth)
    lx[: params.m1] = np.sort(np.linalg.eigvalsh(params.sigma_x * unit))[::-1]
    ly[: params.m2] = np.sort(np.linalg.eigvalsh(params.sigma_y * unit))[::-1]
    sup_term = float(np.sum(np.sqrt(lx * lx + ly * ly)))

    denominator = trace - sup_term
    if denominator <= 1e-10 * trace:
        raise DegenerateMarginalError("both marginals are degenerate")
    value = (trace - root_trace) / denominator
    if value > 1.0 + 1e-9 or value < -1e-9:
        raise DataError(f"index {value!r} escaped [0, 1]; input is ill-conditioned")
    return float(min(max(value, 0.0), 1.0))


def i_gaussian_bivariate(rho: float) -> float:
    """Closed form for unit-variance scalar blocks:
    (2 - sqrt(1+rho) - sqrt(1-rho)) / (2 - sqrt(2))."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    return float((2.0 - np.sqrt(1.0 + rho) - np.sqrt(1.0 - rho)) / (2.0 - np.sqrt(2.0)))


def fit_gaussian_surrogate(sample: PairedSample) -> GaussianDependenceParams:
    """Covariance blocks of the Gaussian with the data's second moments.

    A nonzero surrogate index witnesses covariance structure only; it does
    not certify dependence of non-Gaussian data, and independence of the
    data only drives it to zero asymptotically.
    """
    n, dx = sample.n, sample.dx
    if n <= dx + sample.dy:
        raise DataError("need more rows than total dimensions")
    cov = np.cov(sample.joint_rows(), rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    if np.any(np.diag(cov) <= 0.0):
        raise DegenerateMarginalError("a data column is constant")
    if np.linalg.matrix_rank(cov) < cov.shape[0]:
        warnings.warn("sample covariance is rank deficient", stacklevel=2)
    return GaussianDependenceParams(
        sigma_x=cov[:dx, :dx],
        sigma_y=cov[dx:, dx:],
        sigma_xy=cov[:dx, dx:],
    )


def gaussian_index_report(sample: PairedSample) -> IndexReport:
    """Fit the surrogate and evaluate the index, packaged for emission."""
    params = fit_gaussian_surrogate(sample)
    value = i_gaussian(params)
    return IndexReport(
        index="gaussian",
        value=value,
        p=2.0,
        n=sample.n,
        seed=sample.seed,
    )
