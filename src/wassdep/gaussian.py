"""Dependence index for Gaussian vectors, and the surrogate fit for data.

For a centered Gaussian pair the transport distance to the independent
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
from .exact import _psd_eigh, _psd_sqrt
from .exceptions import DataError, DegenerateMarginalError
from .report import IndexReport

__all__ = [
    "GaussianDependenceParams",
    "i_gaussian",
    "i_gaussian_bivariate",
    "fit_gaussian_surrogate",
    "gaussian_index_report",
]


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
    root = _psd_sqrt(joint, "joint covariance")
    inner = root @ (params.independent() * unit) @ root
    kappa, _ = _psd_eigh((inner + inner.T) / 2, "kappa matrix")

    depth = max(params.m1, params.m2)
    lx = np.zeros(depth)
    ly = np.zeros(depth)
    lx[: params.m1] = np.sort(np.linalg.eigvalsh(params.sigma_x * unit))[::-1]
    ly[: params.m2] = np.sort(np.linalg.eigvalsh(params.sigma_y * unit))[::-1]
    sup_term = float(np.sum(np.sqrt(lx * lx + ly * ly)))

    denominator = trace - sup_term
    if denominator <= 1e-10 * trace:
        raise DegenerateMarginalError("both marginals are degenerate")
    value = (trace - float(np.sqrt(kappa).sum())) / denominator
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
