"""Joint dependence: transport distance to the product law and its indices."""

import numpy as np
import pytest

from wassdep.empirical import PairedSample, product_estimator, to_measure
from wassdep.exact import solve_exact
from wassdep.exceptions import DataError, DegenerateMarginalError
from wassdep.joint import (
    d_joint,
    d_joint_entropic,
    d_joint_multivariate,
    default_marti_sets,
    i_joint,
    marti_index,
    mori_gaussian_bounds,
    reference_measure_variant,
)
from wassdep import empirical, measures
from wassdep.measures import CostSpec


def _raise(*args, **kwargs):
    raise AssertionError("pair work or the product grid ran before the size check")


@pytest.mark.parametrize("estimator, rows, cols", [("split", 100, 100), ("permute", 300, 300), ("full", 300, 90_000)])
def test_i_joint_refuses_an_oversized_problem_before_any_pair_work(monkeypatch, estimator, rows, cols):
    # A 2-D x at p = 3 takes the pair-cost kernel for its discrepancy, and
    # the full estimator builds an n^2-atom product: neither may run first.
    monkeypatch.setattr(measures, "PHYSICAL_MEMORY", rows * cols * 8 - 1)
    monkeypatch.setattr(empirical, "product_measure", _raise)
    monkeypatch.setattr(empirical, "dirac_transport_cost", _raise)
    rng = np.random.default_rng(0)
    sample = PairedSample(rng.normal(size=(300, 2)), rng.normal(size=300))
    with pytest.raises(DataError, match=f"a {rows} x {cols} cost matrix needs {rows * cols * 8} bytes"):
        i_joint(sample, estimator, p=3.0)


def test_two_point_comonotone_hand_value():
    # joint = uniform {(0,0),(1,1)}; product = uniform on the 4 corners.
    # Under the additive L1 cost a quarter of the mass must reach each
    # off-diagonal corner at distance 1, so W1 = 0.5. The 0/1 marginal has
    # mean discrepancy 1, hence the index is exactly 0.5.
    sample = PairedSample(np.array([0.0, 1.0]), np.array([0.0, 1.0]), seed=0)
    report = i_joint(sample, estimator="full", p=1.0)
    assert report.numerator == pytest.approx(0.5, abs=1e-12)
    assert report.denominator == pytest.approx(1.0, abs=1e-12)
    assert report.value == pytest.approx(0.5, abs=1e-12)
    assert report.exceeds_unit is False


def test_index_invariant_under_coordinatewise_similarity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=120)
    y = 0.6 * x + 0.8 * rng.normal(size=120)
    plain = PairedSample(x, y, seed=2)
    moved = PairedSample(x * 3.7 + 11.0, y * (-3.7) + 4.0, seed=2)
    a = i_joint(plain, rng=np.random.default_rng(7))
    b = i_joint(moved, rng=np.random.default_rng(7))
    assert abs(a.value - b.value) <= 1e-12


@pytest.mark.parametrize("k", [-560, -300, 300, 530])
@pytest.mark.parametrize("estimator, n", [("split", 90), ("permute", 60), ("full", 12)])
def test_scalar_index_is_exact_at_any_scale(k, estimator, n):
    # Powers of two at both ends of the float range: every gap |u - v| scales
    # exactly, so the index is == its unit-scale value and the numerator == 2^k
    # times it. A squared gap would underflow at 2^-560 and overflow at 2^530.
    rng = np.random.default_rng([abs(k), n])
    x = rng.normal(size=n)
    y = 0.6 * x + 0.8 * rng.normal(size=n)
    unit = i_joint(PairedSample(x, y), estimator, rng=np.random.default_rng(1))
    scaled = i_joint(PairedSample(x * 2.0**k, y * 2.0**k), estimator, rng=np.random.default_rng(1))
    assert unit.numerator > 0.0
    assert scaled.value == unit.value
    assert scaled.numerator == unit.numerator * 2.0**k


def test_min_gmd_requires_additive_cost():
    sample = PairedSample(np.arange(6.0), np.arange(6.0), seed=0)
    # The cost is always additive (the sum, or alpha's weighted sum), so
    # there is no q or spec to pass.
    for option, value in [("q", 2.0), ("spec", CostSpec(p=1.0))]:
        with pytest.raises(TypeError, match=option):
            i_joint(sample, **{option: value})
    with pytest.raises(ValueError, match="variant"):
        i_joint(sample, variant="mystery")


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("dx", [1, 2])
def test_alpha_weights_x_like_rescaling_it(p, dx):
    # alpha * d_x is the distance between alpha * x rows, so the alpha index
    # of (x, y) is the plain index of (alpha * x, y).
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, dx))
    y = x[:, :1] + rng.normal(size=(60, 1))
    for a in (0.3, 2.5):
        weighted = i_joint(PairedSample(x, y, seed=4), p=p, alpha=a)
        rescaled = i_joint(PairedSample(a * x, y, seed=4), p=p)
        assert weighted.value == pytest.approx(rescaled.value, rel=1e-12, abs=1e-12)


def test_scaled_metric_ignores_the_units_of_each_factor():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(50, 2))
    y = x[:, :1] + rng.normal(size=(50, 1))
    for p in (1.0, 2.0):
        base = i_joint(PairedSample(x, y, seed=1), variant="scaled_metric", p=p).value
        for c in (1e-6, 1e6):
            for d in (1e-6, 1e6):
                moved = i_joint(PairedSample(c * x, d * y, seed=1), variant="scaled_metric", p=p)
                assert moved.value == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_constant_marginal_is_degenerate():
    sample = PairedSample(np.ones(8), np.arange(8.0), seed=0)
    with pytest.raises(DegenerateMarginalError):
        i_joint(sample)


def test_scaled_metric_variant_self_normalizes():
    rng = np.random.default_rng(5)
    x = rng.normal(size=90)
    sample = PairedSample(x, x + 0.1 * rng.normal(size=90), seed=5)
    report = i_joint(sample, variant="scaled_metric", rng=np.random.default_rng(1))
    assert report.denominator == 1.0
    assert report.value > 0.0


def test_gaussian_bound_endpoints_and_frozen_interior():
    lo0, hi0 = mori_gaussian_bounds(0.0)
    assert lo0 == 0.0 and hi0 == 0.0
    lo1, hi1 = mori_gaussian_bounds(1.0)
    assert lo1 == pytest.approx(1.0) and hi1 == pytest.approx(1.0)
    lo, hi = mori_gaussian_bounds(0.6)
    assert lo == pytest.approx(0.3675444679663241, abs=1e-12)
    assert hi == pytest.approx(0.44721359549995787, abs=1e-12)
    for rho in np.linspace(-1.0, 1.0, 41):
        lo, hi = mori_gaussian_bounds(float(rho))
        assert lo <= hi + 1e-12
    with pytest.raises(ValueError):
        mori_gaussian_bounds(1.5)


def test_entropic_value_approaches_exact_power_cost_on_fixed_atoms():
    sample = PairedSample(np.arange(4.0), np.arange(4.0), seed=0)
    joint, product = product_estimator(sample, "full", np.random.default_rng(0))
    exact = solve_exact(joint, product, CostSpec(p=2.0))
    gaps = []
    for eps, tol in [(2.0, 1e-9), (0.5, 1e-9), (0.1, 1e-8), (0.02, 1e-7)]:
        value = d_joint_entropic(
            sample,
            eps,
            estimator="full",
            rng=np.random.default_rng(0),
            tol=tol,
            max_iter=200_000,
        )
        gaps.append(abs(value - exact))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.03


def test_multivariate_two_blocks_match_pairwise_route():
    x = np.random.default_rng(3).normal(size=40)
    y = np.random.default_rng(4).normal(size=40)
    via_blocks = d_joint_multivariate([x, y], rng=np.random.default_rng(5), p=1.0)
    sample = PairedSample(x, y, seed=0)
    joint, product = product_estimator(sample, "permute", np.random.default_rng(5))
    spec = CostSpec(p=1.0, factor_dims=(1, 1))
    via_pair = d_joint(joint, product, spec)
    assert via_blocks == pytest.approx(via_pair, abs=1e-12)


def test_multivariate_honours_p_and_takes_no_spec():
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    y = x + rng.normal(size=30)
    d1 = d_joint_multivariate([x, y], rng=np.random.default_rng(2), p=1.0)
    d3 = d_joint_multivariate([x, y], rng=np.random.default_rng(2), p=3.0)
    assert d1 != d3
    with pytest.raises(TypeError, match="spec"):
        d_joint_multivariate([x, y], spec=CostSpec(p=2.0, factor_dims=(1, 1)))


def test_multivariate_three_identical_blocks_are_dependent():
    x = np.random.default_rng(3).normal(size=40)
    value = d_joint_multivariate([x, x, x], rng=np.random.default_rng(1), p=1.0)
    assert value > 0.1


def test_multivariate_validates_block_shapes():
    with pytest.raises(DataError):
        d_joint_multivariate([np.arange(4.0)])
    with pytest.raises(DataError):
        d_joint_multivariate([np.arange(4.0), np.arange(5.0)])


def test_position_index_hits_both_endpoints():
    spec = CostSpec(p=1.0)
    a = to_measure(np.array([[0.0], [1.0]]))
    b = to_measure(np.array([[5.0], [6.0]]))
    c = to_measure(np.array([[2.0], [3.0]]))
    assert marti_index(a, [a, c], [b], spec) == 0.0
    assert marti_index(b, [a], [b], spec) == 1.0


def test_position_index_is_a_distance_ratio():
    spec = CostSpec(p=1.0)
    joint = to_measure(np.array([[2.0]]))
    near = to_measure(np.array([[0.0]]))
    far = to_measure(np.array([[10.0]]))
    d0 = solve_exact(joint, near, spec)
    d1 = solve_exact(joint, far, spec)
    assert marti_index(joint, [near], [far], spec) == pytest.approx(d0 / (d0 + d1))


def test_position_index_rejects_bad_candidate_sets():
    spec = CostSpec(p=1.0)
    m = to_measure(np.array([[0.0], [1.0]]))
    with pytest.raises(DataError):
        marti_index(m, [], [m], spec)
    with pytest.raises(DataError):
        marti_index(m, [m], [m], spec)


def test_default_candidate_sets_are_rearrangements():
    rng = np.random.default_rng(8)
    sample = PairedSample(rng.normal(size=25), rng.normal(size=25), seed=8)
    c0, c1 = default_marti_sets(sample, rng=np.random.default_rng(8))
    assert len(c0) == 1 and len(c1) == 2
    como, anti = c1
    assert np.all(np.diff(como.points[:, 0]) >= 0)
    assert np.all(np.diff(como.points[:, 1]) >= 0)
    assert np.all(np.diff(anti.points[:, 1]) <= 0)
    wide = PairedSample(rng.normal(size=(10, 2)), rng.normal(size=10), seed=0)
    with pytest.raises(DataError):
        default_marti_sets(wide)


def test_reference_variant_sign_pattern():
    vals = np.array([0.0, 1.0, 2.0])
    ref = to_measure(vals[:, None])
    grid = PairedSample(np.repeat(vals, 3), np.tile(vals, 3), seed=0)
    assert reference_measure_variant(grid, ref, ref) == pytest.approx(0.0, abs=1e-10)
    como = PairedSample(vals, vals, seed=0)
    anti = PairedSample(vals, vals[::-1].copy(), seed=0)
    assert reference_measure_variant(como, ref, ref) > 0.5
    assert reference_measure_variant(anti, ref, ref) > 0.5
    bad_ref = to_measure(np.zeros((3, 2)))
    with pytest.raises(DataError):
        reference_measure_variant(como, bad_ref, ref)


def test_scaled_metric_rejects_the_options_it_would_ignore():
    rng = np.random.default_rng(6)
    x = rng.normal(size=40)
    sample = PairedSample(x, x + rng.normal(size=40), seed=6)
    with pytest.raises(ValueError, match="takes no alpha"):
        i_joint(sample, variant="scaled_metric", alpha=2.0)
    assert i_joint(sample, variant="scaled_metric").denominator == 1.0
