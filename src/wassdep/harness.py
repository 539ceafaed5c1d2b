"""Independence testing, robustness checks, and convergence-rate experiments.

Everything here is statistical tooling built on the exact machinery: a
permutation test driver with named statistics, mixture-contamination and
mean-discrepancy stability checks that assert finite-sample inequalities,
slope experiments against known population values, the closed-form index
table over a correlation grid, and the exact-grouping discontinuity
demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .concordance import concordance_index
from .conditional import adapted_wasserstein, gaussian_conditional_index, gmd_plugin, i_conditional
from .empirical import ConditionalFamily, PairedSample, partition, product_estimator, to_measure
from .exact import solve_exact, wasserstein_1d
from .exceptions import DataError
from .gaussian import i_gaussian_bivariate
from .joint import d_joint, d_joint_entropic, i_joint, mori_gaussian_bounds
from .measures import CostSpec, DiscreteMeasure, mixture
from .report import RateReport

__all__ = [
    "STATISTICS",
    "permutation_test",
    "contamination_check",
    "RateExperiment",
    "RATE_EXPERIMENTS",
    "rate_experiment",
    "figure1_table",
    "discontinuity_demo",
    "gmd_lipschitz_check",
]


# ---------------------------------------------------------------------------
# Permutation testing
# ---------------------------------------------------------------------------


def _stat_d_joint(sample: PairedSample, rng: np.random.Generator) -> float:
    joint, product = product_estimator(sample, "permute", rng)
    spec = CostSpec(p=1.0, factor_dims=(sample.dx, sample.dy))
    return d_joint(joint, product, spec)


def _stat_i_joint(sample: PairedSample, rng: np.random.Generator) -> float:
    return i_joint(sample, rng=rng).value


def _stat_i_conditional(sample: PairedSample, rng: np.random.Generator) -> float:
    return i_conditional(sample, "bins").value


def _stat_abs_concordance(sample: PairedSample, rng: np.random.Generator) -> float:
    return abs(concordance_index(sample, mode="copula").value)


STATISTICS: dict[str, Callable[[PairedSample, np.random.Generator], float]] = {
    "d_joint": _stat_d_joint,
    "i_joint": _stat_i_joint,
    "i_conditional": _stat_i_conditional,
    "abs_concordance": _stat_abs_concordance,
}


def permutation_test(
    sample: PairedSample,
    statistic: str | Callable[[PairedSample, np.random.Generator], float] = "d_joint",
    b: int = 99,
    seed: int = 0,
) -> tuple[float, float]:
    """Independence test by permuting the y rows.

    Returns (observed statistic, p-value) with the add-one estimate
    p = (1 + #{permuted >= observed}) / (b + 1). Each replicate gets its own
    spawned stream, so results are reproducible from (seed, n, b) alone.
    """
    if b < 19:
        raise DataError("need at least 19 permutation replicates")
    stat = STATISTICS[statistic] if isinstance(statistic, str) else statistic
    streams = np.random.default_rng(seed).spawn(b + 1)
    observed = stat(sample, streams[0])
    exceed = 0
    for r in range(1, b + 1):
        perm = streams[r].permutation(sample.n)
        shuffled = PairedSample(sample.xs, sample.ys[perm], seed=sample.seed)
        if stat(shuffled, streams[r]) >= observed:
            exceed += 1
    return observed, (1 + exceed) / (b + 1)


# ---------------------------------------------------------------------------
# Robustness checks
# ---------------------------------------------------------------------------


def contamination_check(
    sample: PairedSample,
    eps_grid=(0.0, 0.1, 0.3, 0.5, 1.0),
    p: float = 1.0,
    seed: int = 0,
) -> dict:
    """Mixing a joint law toward its own product estimate can only shrink
    the dependence: checks W^p(mixture, product) <= (1-eps) W^p(joint,
    product) + 1e-8 pointwise on the grid (the contaminant term vanishes
    because the contaminant is the product itself)."""
    rng = np.random.default_rng(seed)
    joint, product = product_estimator(sample, "permute", rng)
    spec = CostSpec(p=p, factor_dims=(sample.dx, sample.dy))
    base = solve_exact(joint, product, spec)
    rows = []
    ok = True
    for eps in eps_grid:
        mixed = mixture([joint, product], [1.0 - eps, eps])
        lhs = solve_exact(mixed, product, spec)
        rhs = (1.0 - eps) * base
        holds = lhs <= rhs + 1e-8
        ok = ok and holds
        rows.append({"eps": float(eps), "mixture_power": lhs, "bound": rhs, "holds": holds})
    return {"check": "contamination", "base_power": base, "rows": rows, "passed": ok}


def gmd_lipschitz_check(
    n_pairs: int = 50, p: float = 1.0, dim: int = 1, seed: int = 0
) -> dict:
    """Mean discrepancy is 2-Lipschitz under transport: checks
    |gmd(P)^(1/p) - gmd(Q)^(1/p)| <= 2 W_p(P, Q) + 1e-9 on random weighted
    discrete pairs."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for _ in range(n_pairs):
        ms = []
        for _ in range(2):
            k = int(rng.integers(2, 25))
            pts = rng.normal(scale=rng.uniform(0.5, 3.0), size=(k, dim)) + rng.normal(
                scale=2.0, size=dim
            )
            w = rng.random(k) + 0.05
            ms.append(DiscreteMeasure(pts, w / w.sum()))
        lhs = abs(gmd_plugin(ms[0], p) ** (1.0 / p) - gmd_plugin(ms[1], p) ** (1.0 / p))
        rhs = 2.0 * solve_exact(ms[0], ms[1], CostSpec(p=p)) ** (1.0 / p)
        holds = bool(lhs <= rhs + 1e-9)
        ok = ok and holds
        rows.append({"lhs": float(lhs), "rhs": float(rhs), "holds": holds})
    return {"check": "gmd_lipschitz", "pairs": n_pairs, "rows": rows, "passed": ok}


# ---------------------------------------------------------------------------
# Rate experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateExperiment:
    """A sampler with a known population value and an expected slope band."""

    name: str
    truth: float
    band: tuple[float, float]
    sizes: tuple[int, ...]
    sampler: Callable[[int, np.random.Generator], float]


def _sample_w1_shift(n: int, rng: np.random.Generator) -> float:
    first = to_measure(rng.normal(0.0, 1.0, n))
    second = to_measure(rng.normal(1.0, 1.0, n))
    return wasserstein_1d(first, second, p=1.0)


def _independent_pair(n: int, rng: np.random.Generator) -> PairedSample:
    return PairedSample(rng.random(n), rng.random(n))


def _sample_entropic_joint(n: int, rng: np.random.Generator) -> float:
    # Root to the distance scale; the raw divergence is squared-cost-like
    # and would decay one order faster than the band describes.
    return float(np.sqrt(d_joint_entropic(_independent_pair(n, rng), 0.1, CostSpec(p=2.0), rng=rng)))


def _sample_joint_w2(n: int, rng: np.random.Generator) -> float:
    return d_joint(*product_estimator(_independent_pair(n, rng), "permute", rng), CostSpec(p=2.0))


RATE_EXPERIMENTS: dict[str, RateExperiment] = {
    # Distinct 1D laws: the estimate fluctuates around a positive truth at
    # the CLT scale, so the error decays like n^(-1/2).
    "w1_shift": RateExperiment(
        name="w1_shift",
        truth=1.0,
        band=(-0.65, -0.35),
        sizes=(200, 400, 800, 1600, 3200),
        sampler=_sample_w1_shift,
    ),
    # Debiased entropic dependence of an exactly independent law, on the
    # distance scale; the parametric entropic rate puts the error near
    # n^(-1/2) for fixed eps.
    "entropic_joint": RateExperiment(
        name="entropic_joint",
        truth=0.0,
        band=(-0.75, -0.25),
        sizes=(64, 128, 256, 512),
        sampler=_sample_entropic_joint,
    ),
    # Exact distance between coupled empirical measures of one planar law:
    # boundary-dimension case, n^(-1/2) with a log factor.
    "joint_w2": RateExperiment(
        name="joint_w2",
        truth=0.0,
        band=(-0.75, -0.30),
        sizes=(100, 200, 400, 800),
        sampler=_sample_joint_w2,
    ),
}


def rate_experiment(
    experiment: str | RateExperiment,
    sizes: tuple[int, ...] | None = None,
    replicates: int = 12,
    seed: int = 0,
    bootstrap: int = 200,
) -> RateReport:
    """Fit the log-log slope of mean absolute error against sample size.

    Each (size, replicate) cell gets its own spawned stream. The bootstrap
    CI resamples replicates within each size and refits the slope.
    """
    exp = RATE_EXPERIMENTS[experiment] if isinstance(experiment, str) else experiment
    sizes = tuple(sizes) if sizes is not None else exp.sizes
    if len(set(sizes)) < 2:
        raise DataError("need at least 2 distinct sizes")
    if replicates < 1:
        raise DataError(f"replicates must be at least 1, got {replicates}")
    rng = np.random.default_rng(seed)
    streams = rng.spawn(len(sizes) * replicates)
    errors = np.empty((len(sizes), replicates))
    for i, n in enumerate(sizes):
        for r in range(replicates):
            est = exp.sampler(n, streams[i * replicates + r])
            errors[i, r] = abs(est - exp.truth)

    log_n = np.log(np.asarray(sizes, dtype=float))

    def fit(errs: np.ndarray) -> float:
        return float(np.polyfit(log_n, np.log(errs.mean(axis=1)), 1)[0])

    slope = fit(errors)
    boot_rng = np.random.default_rng(seed + 1)
    boot = np.empty(bootstrap)
    for bidx in range(bootstrap):
        picks = boot_rng.integers(0, replicates, size=(len(sizes), replicates))
        boot[bidx] = fit(np.take_along_axis(errors, picks, axis=1))
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return RateReport(
        experiment=exp.name,
        sizes=list(sizes),
        mean_errors=[float(e) for e in errors.mean(axis=1)],
        slope=slope,
        ci_low=float(lo),
        ci_high=float(hi),
        band_low=exp.band[0],
        band_high=exp.band[1],
        passed=bool(exp.band[0] <= slope <= exp.band[1]),
        replicates=replicates,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Closed-form table and the discontinuity demonstration
# ---------------------------------------------------------------------------


def figure1_table(rho_grid) -> list[dict]:
    """Closed-form index curves over a correlation grid: the conditional
    index, the Gaussian index, and the joint-index bracket."""
    rows = []
    for rho in np.asarray(rho_grid, dtype=float):
        lower, upper = mori_gaussian_bounds(rho)
        rows.append(
            {
                "rho": float(rho),
                "conditional_index": gaussian_conditional_index(rho),
                "gaussian_index": i_gaussian_bivariate(rho),
                "mori_lower": lower,
                "mori_upper": upper,
            }
        )
    return rows


def discontinuity_demo(n: int = 1000, seed: int = 0) -> dict:
    """Exact-grouping conditional index on an independent continuous sample.

    All x values are distinct, every conditional is a one-point mass, and
    the plug-in index is exactly 1 even though the population value is 0;
    the binned estimator at the default cube rule stays small. Also reports
    the nested (filtration-respecting) distance between the binned
    conditional family and its decoupled version, the quantity whose
    topology the plug-in estimator fails to respect.
    """
    if n < 1:
        raise DataError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    sample = PairedSample(rng.random(n), rng.random(n), seed=seed)
    if to_measure(sample.xs).support.n != n:
        raise DataError("tied x draws; regenerate with a different seed")

    exact_value = i_conditional(sample, "exact", p=1.0).value
    binned = i_conditional(sample, "bins", p=1.0)

    family = partition(sample, "bins")
    decoupled = ConditionalFamily.from_laws(
        family.representatives, (to_measure(sample.ys),) * family.k, family.group_weights
    )
    nested = adapted_wasserstein(family, decoupled, p=1.0)
    return {
        "n": n,
        "seed": seed,
        "population_value": 0.0,
        "exact_grouping_value": exact_value,
        "binned_value": binned.value,
        "bins": binned.bins,
        "nested_distance": nested,
    }
