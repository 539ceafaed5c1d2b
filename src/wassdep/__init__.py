"""Transport-based measures and indices of statistical dependence.

Dependence between paired observations is quantified as the optimal
transport distance between their joint law and a suitable reference:
the product of the marginals, the family of conditional laws against the
marginal, the decoupled Gaussian with matched second moments, or the two
monotone extreme couplings. Exact solvers, entropic approximations, the
closed forms, and the statistical harness live in the submodules and are
re-exported here.
"""

from .concordance import (
    antithetic_denominator,
    concordance_index,
    d_to_diagonal,
    diagonal_transport_map,
)
from .conditional import (
    adapted_wasserstein,
    d_conditional,
    d_conditional_entropic,
    gaussian_conditional_index,
    gmd_plugin,
    i_conditional,
    w_lipschitz_estimate,
)
from .empirical import (
    ConditionalFamily,
    PairedSample,
    copula_transform,
    default_bin_count,
    gmd_ustat,
    multivariate_ranks,
    partition,
    product_estimator,
    to_measure,
)
from .entropic import sinkhorn_discrepancy, sinkhorn_divergence
from .exact import solve_exact, solve_from_cost, wasserstein_1d
from .exceptions import (
    DataError,
    DegenerateMarginalError,
    ExactSolverError,
    SinkhornConvergenceError,
    WassdepError,
)
from .gaussian import (
    GaussianDependenceParams,
    fit_gaussian_surrogate,
    gaussian_w2,
    i_gaussian,
    i_gaussian_bivariate,
)
from .harness import (
    RATE_EXPERIMENTS,
    STATISTICS,
    contamination_check,
    discontinuity_demo,
    figure1_table,
    gmd_lipschitz_check,
    permutation_test,
    rate_experiment,
)
from .joint import (
    d_joint,
    d_joint_entropic,
    d_joint_multivariate,
    default_marti_sets,
    i_joint,
    marti_index,
    mori_gaussian_bounds,
    reference_measure_variant,
)
from .measures import (
    CostSpec,
    DiscreteMeasure,
    cost_matrix,
    mixture,
    product_measure,
)
from .report import IndexReport, RateReport, emit_report

__version__ = "0.1.0"

__all__ = [
    "CostSpec",
    "DiscreteMeasure",
    "cost_matrix",
    "mixture",
    "product_measure",
    "solve_exact",
    "solve_from_cost",
    "wasserstein_1d",
    "gaussian_w2",
    "adapted_wasserstein",
    "sinkhorn_discrepancy",
    "sinkhorn_divergence",
    "PairedSample",
    "ConditionalFamily",
    "to_measure",
    "gmd_ustat",
    "gmd_plugin",
    "product_estimator",
    "copula_transform",
    "multivariate_ranks",
    "partition",
    "default_bin_count",
    "d_joint",
    "i_joint",
    "mori_gaussian_bounds",
    "d_joint_entropic",
    "marti_index",
    "default_marti_sets",
    "d_joint_multivariate",
    "reference_measure_variant",
    "d_conditional",
    "i_conditional",
    "gaussian_conditional_index",
    "d_conditional_entropic",
    "w_lipschitz_estimate",
    "GaussianDependenceParams",
    "i_gaussian",
    "i_gaussian_bivariate",
    "fit_gaussian_surrogate",
    "diagonal_transport_map",
    "d_to_diagonal",
    "antithetic_denominator",
    "concordance_index",
    "STATISTICS",
    "RATE_EXPERIMENTS",
    "permutation_test",
    "contamination_check",
    "rate_experiment",
    "figure1_table",
    "discontinuity_demo",
    "gmd_lipschitz_check",
    "IndexReport",
    "RateReport",
    "emit_report",
    "WassdepError",
    "DataError",
    "DegenerateMarginalError",
    "SinkhornConvergenceError",
    "ExactSolverError",
]
