"""Sample containers, mean discrepancies, estimators, ranks, partitions."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from wassdep import (
    ConditionalFamily,
    CostSpec,
    DataError,
    PairedSample,
    copula_transform,
    default_bin_count,
    gmd_plugin,
    gmd_ustat,
    multivariate_ranks,
    partition,
    product_estimator,
    to_measure,
)
from wassdep.empirical import _snap_to_centers, dirac_transport_cost, rank_grid_values


def test_paired_sample_shapes_and_errors():
    s = PairedSample([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    assert (s.n, s.dx, s.dy) == (3, 1, 1)
    assert s.joint_rows().shape == (3, 2)
    with pytest.raises(DataError, match="row counts"):
        PairedSample([0.0, 1.0], [0.0])
    with pytest.raises(DataError, match="finite"):
        PairedSample([0.0, np.nan], [0.0, 1.0])


def test_gmd_hand_values():
    assert gmd_ustat([0.0, 1.0], p=1.0) == pytest.approx(1.0)
    assert gmd_ustat([0.0, 1.0, 2.0], p=1.0) == pytest.approx(4.0 / 3.0)
    assert gmd_ustat([0.0, 1.0, 2.0], p=2.0) == pytest.approx(2.0)
    assert gmd_plugin(to_measure([0.0, 1.0]), p=1.0) == pytest.approx(0.5)


def test_gmd_fast_paths_match_pairwise():
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=50)
    z = rng.normal(size=(40, 3))

    def reference(rows, p):
        d = cdist(rows, rows) ** p
        n = len(rows)
        return (d.sum() - np.trace(d)) / (n * (n - 1))

    assert gmd_ustat(x1, p=1.0) == pytest.approx(reference(x1[:, None], 1.0), rel=1e-12)
    assert gmd_ustat(z, p=2.0) == pytest.approx(reference(z, 2.0), rel=1e-12)
    assert gmd_ustat(z, p=3.0) == pytest.approx(reference(z, 3.0), rel=1e-12)


def test_gmd_plugin_is_scaled_ustat_for_uniform_weights():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(23, 2))
    for p in (1.0, 2.0):
        plug = gmd_plugin(to_measure(z), p=p)
        u = gmd_ustat(z, p=p)
        assert plug == pytest.approx(u * (len(z) - 1) / len(z), rel=1e-12)


def test_gmd_with_cost_spec_route():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(15, 2))
    spec = CostSpec(p=2.0)
    assert gmd_ustat(z, spec=spec) == pytest.approx(gmd_ustat(z, p=2.0), rel=1e-10)


def test_gmd_needs_two_rows():
    with pytest.raises(DataError):
        gmd_ustat([1.0])


def test_dirac_transport_cost_hand_value():
    support = np.array([[0.0], [1.0], [2.0]])
    w = np.full(3, 1 / 3)
    assert dirac_transport_cost(np.array([0.0]), support, w, 1.0) == pytest.approx(1.0)
    assert dirac_transport_cost(np.array([0.0]), support, w, 2.0) == pytest.approx(5.0 / 3.0)


# ---------------------------------------------------------------------------
# Product estimators
# ---------------------------------------------------------------------------


def test_split_mode_uses_disjoint_thirds():
    xs = np.arange(10.0)
    ys = np.arange(10.0) + 100.0
    joint, prod = product_estimator(PairedSample(xs, ys), "split")
    assert joint.n == 3 and prod.n == 3
    assert np.allclose(joint.points[:, 0], [0, 1, 2])
    assert np.allclose(prod.points[:, 0], [3, 4, 5])
    assert np.allclose(prod.points[:, 1], [106, 107, 108])


def test_permute_mode_is_a_derangement_of_y():
    rng = np.random.default_rng(3)
    xs = np.arange(50.0)
    ys = np.arange(50.0)
    joint, prod = product_estimator(PairedSample(xs, ys), "permute", rng)
    assert joint.n == prod.n == 50
    assert np.array_equal(prod.points[:, 0], xs)
    sigma = prod.points[:, 1].astype(int)
    assert sorted(sigma.tolist()) == list(range(50))
    assert not np.any(sigma == np.arange(50))


def test_permute_mode_accepts_explicit_sigma_and_warns_on_identity():
    xs = np.arange(4.0)
    ys = np.arange(4.0)
    sample = PairedSample(xs, ys)
    _, prod = product_estimator(sample, "permute", sigma=np.array([1, 0, 3, 2]))
    assert np.allclose(prod.points[:, 1], [1, 0, 3, 2])
    with pytest.warns(UserWarning, match="identity"):
        product_estimator(sample, "permute", sigma=np.arange(4))
    with pytest.raises(DataError, match="permutation"):
        product_estimator(sample, "permute", sigma=np.array([0, 0, 1, 2]))


def test_full_mode_builds_the_whole_grid():
    sample = PairedSample([0.0, 1.0], [10.0, 20.0])
    joint, prod = product_estimator(sample, "full")
    assert joint.n == 2
    assert prod.n == 4
    assert np.allclose(sorted(prod.points[:, 1].tolist()), [10, 10, 20, 20])


def test_estimator_mode_errors():
    sample = PairedSample([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        product_estimator(sample, "bogus")
    with pytest.raises(DataError):
        product_estimator(PairedSample([0.0], [0.0]), "split")


# ---------------------------------------------------------------------------
# Ranks and copulas
# ---------------------------------------------------------------------------


def test_rank_grid_values_are_midpoints():
    n = 4
    got = rank_grid_values(np.arange(n), n)
    assert np.array_equal(got, np.array([1, 3, 5, 7]) / 8.0)


def test_copula_transform_invariant_under_increasing_maps():
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    base = copula_transform(PairedSample(x, y))
    moved = copula_transform(PairedSample(np.exp(x), y**3 + 5 * y))
    assert np.array_equal(base.xs, moved.xs)
    assert np.array_equal(base.ys, moved.ys)


def test_copula_transform_outputs_uniform_grid():
    rng = np.random.default_rng(5)
    cop = copula_transform(PairedSample(rng.normal(size=20), rng.normal(size=20)))
    want = np.sort(rank_grid_values(np.arange(20), 20))
    assert np.allclose(np.sort(cop.xs[:, 0]), want)
    assert np.allclose(np.sort(cop.ys[:, 0]), want)


def test_multivariate_ranks_reduce_to_sorting_in_1d():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(12, 1))
    grid = rank_grid_values(np.arange(12), 12)[:, None]
    assigned = multivariate_ranks(pts, grid)
    # the optimal 1D matching is monotone: smallest point gets smallest grid atom
    order = np.argsort(pts[:, 0])
    assert np.array_equal(assigned[order], np.arange(12))


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def test_exact_partition_groups_equal_rows():
    xs = np.array([2.0, 1.0, 2.0, 1.0, 3.0])
    ys = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    family = partition(PairedSample(xs, ys), "exact")
    assert family.k == 3
    assert np.allclose(family.group_weights, [0.4, 0.4, 0.2])
    # representatives are the sorted unique x values
    assert np.allclose(family.representatives[:, 0], [1.0, 2.0, 3.0])
    law_for_two = family.laws[1]
    assert np.allclose(np.sort(law_for_two.points[:, 0]), [10.0, 30.0])


def test_merged_family_reconstructs_the_joint_law():
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 3, size=30).astype(float)
    ys = rng.normal(size=30)
    family = partition(PairedSample(xs, ys), "exact")
    merged = family.merged()
    direct = to_measure(np.column_stack([xs, ys]))
    # same multiset of weighted atoms, possibly in different order
    got = sorted(map(tuple, np.column_stack([merged.points, merged.weights]).tolist()))
    want = sorted(map(tuple, np.column_stack([direct.points, direct.weights]).tolist()))
    assert np.allclose(got, want)


def test_pooled_marginal_total_mass_and_support():
    xs = np.array([0.0, 0.0, 1.0, 1.0])
    ys = np.array([5.0, 6.0, 7.0, 8.0])
    family = partition(PairedSample(xs, ys), "exact")
    pooled = family.pooled_marginal()
    assert pooled.weights.sum() == pytest.approx(1.0)
    assert np.allclose(np.sort(pooled.points[:, 0]), [5, 6, 7, 8])


def test_default_bin_count_rules():
    assert default_bin_count(1000, 1) == 10
    assert default_bin_count(1000, 2) == 32
    assert default_bin_count(1, 1) == 1


def test_bins_partition_snaps_to_cube_centers():
    xs = np.array([0.0, 0.1, 0.9, 1.0])
    ys = np.arange(4.0)
    family = partition(PairedSample(xs, ys), "bins", phi=2)
    assert family.k == 2
    assert np.allclose(family.group_weights, [0.5, 0.5])
    # centers of the two halves of the (slightly inflated) range
    reps = np.sort(family.representatives[:, 0])
    assert reps[0] == pytest.approx(0.25, abs=1e-6)
    assert reps[1] == pytest.approx(0.75, abs=1e-6)


def test_snap_y_only_in_bins_mode():
    sample = PairedSample(np.arange(6.0), np.arange(6.0))
    with pytest.raises(DataError):
        partition(sample, "exact", snap_y=True)
    fam = partition(sample, "bins", phi=2, snap_y=True)
    snapped = np.concatenate([law.points[:, 0] for law in fam.laws])
    assert len(np.unique(snapped)) <= 2


def test_partition_mode_validation():
    sample = PairedSample(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError):
        partition(sample, "nope")
    with pytest.raises(DataError):
        partition(sample, "bins", phi=0)


def test_every_array_is_checked_by_one_validator_that_names_it():
    from wassdep.joint import d_joint_multivariate
    from wassdep.measures import DiscreteMeasure

    bad = np.array([0.0, np.inf, 1.0])
    for call, name in [
        (lambda: PairedSample(bad, [0.0, 1.0, 2.0]), "xs"),
        (lambda: PairedSample([0.0, 1.0, 2.0], np.empty((3, 0))), "ys"),
        (lambda: to_measure(bad), "points"),
        (lambda: DiscreteMeasure(np.empty((0, 2))), "points"),
        (lambda: gmd_ustat(bad), "points"),
        (lambda: multivariate_ranks([0.0, 1.0, 2.0], bad), "grid"),
        (lambda: d_joint_multivariate([[0.0, 1.0, 2.0], bad]), "block"),
    ]:
        with pytest.raises(DataError, match=name):
            call()


def test_gmd_pairwise_route_is_the_cost_matrix(monkeypatch):
    import wassdep.empirical as empirical

    z = np.random.default_rng(3).normal(size=(30, 2))
    calls = []
    real = empirical.cost_matrix
    monkeypatch.setattr(empirical, "cost_matrix", lambda *a: calls.append(1) or real(*a))
    assert gmd_ustat(z, p=3.0) == gmd_ustat(z, spec=CostSpec(p=3.0))
    assert gmd_ustat(z[:, :1], p=1.5) == gmd_ustat(z[:, :1], spec=CostSpec(p=1.5))
    assert len(calls) == 4
    with pytest.raises(ValueError, match="p must be"):
        gmd_ustat(z, p=0.5)


def _unique_partition(sample, mode, phi=None, snap_y=False):
    """The grouping as np.unique(axis=0) gives it: sorted distinct keys, each
    group's rows in their original order."""
    keys, ys = sample.xs, sample.ys
    if mode == "bins":
        phi = default_bin_count(sample.n, sample.dx) if phi is None else phi
        keys = _snap_to_centers(sample.xs, phi)
        if snap_y:
            ys = _snap_to_centers(sample.ys, phi)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    groups = [np.flatnonzero(inverse == g) for g in range(len(uniq))]
    laws = [to_measure(ys[idx]) for idx in groups]
    weights = np.array([len(g) for g in groups], dtype=float) / sample.n
    return uniq, groups, laws, weights


def _partition_cases():
    rng = np.random.default_rng(17)
    tied_x = rng.integers(0, 5, size=(300, 1)).astype(float)
    tied_xy = rng.integers(0, 3, size=(300, 2)).astype(float)
    yield PairedSample(tied_x, rng.normal(size=300)), "exact", None, False
    yield PairedSample(tied_xy, rng.normal(size=(300, 2))), "exact", None, False
    yield PairedSample(-tied_x, rng.normal(size=300)), "bins", 3, False
    yield PairedSample(rng.normal(size=2000), rng.normal(size=2000)), "bins", None, False
    yield PairedSample(rng.normal(size=2000), rng.normal(size=2000)), "bins", None, True
    yield PairedSample(rng.normal(size=(2000, 2)), rng.normal(size=(2000, 2))), "bins", None, False
    yield PairedSample(rng.normal(size=(2000, 2)), rng.normal(size=2000)), "bins", 4, True


@pytest.mark.parametrize("case", list(_partition_cases()), ids=lambda c: f"{c[1]}-d{c[0].dx}-snap{c[3]}")
def test_partition_groups_exactly_as_np_unique_does(case):
    sample, mode, phi, snap_y = case
    family = partition(sample, mode, phi=phi, snap_y=snap_y)
    uniq, groups, laws, weights = _unique_partition(sample, mode, phi, snap_y)
    assert np.array_equal(family.representatives, uniq)
    assert len(family.groups) == len(groups)
    for got, want in zip(family.groups, groups):
        assert np.array_equal(got, want)
    for got, want in zip(family.laws, laws):
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(family.group_weights, weights)


def test_family_rejects_groups_that_share_a_row():
    laws = (to_measure([0.0, 1.0]), to_measure([2.0]))
    reps = np.array([[0.0], [1.0]])
    with pytest.raises(DataError, match="groups overlap"):
        ConditionalFamily(reps, laws, np.array([2 / 3, 1 / 3]), (np.array([3, 0]), np.array([0])))
    ConditionalFamily(reps, laws, np.array([2 / 3, 1 / 3]), (np.array([2, 0]), np.array([1])))


def test_conditional_family_validation():
    cond = to_measure([0.0, 1.0])
    family = ConditionalFamily(np.array([0.0]), (cond,), np.array([1.0]))
    assert family.k == 1
    assert family.groups == ()
    with pytest.raises(ValueError, match="one conditional"):
        ConditionalFamily(np.array([0.0, 1.0]), (cond,), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="one conditional"):
        ConditionalFamily(np.array([0.0]), (), np.array([1.0]))
    with pytest.raises(ValueError, match="dimensions"):
        ConditionalFamily(
            np.array([0.0, 1.0]),
            (cond, to_measure(np.zeros((1, 2)))),
            np.array([0.5, 0.5]),
        )


def test_family_weights_are_checked_within_tolerance():
    laws = (to_measure([0.0]), to_measure([1.0]))
    reps = np.array([0.0, 1.0])
    ConditionalFamily(reps, laws, np.array([0.5, 0.5 + 5e-10]))
    for bad in ([0.5, 0.5 + 2e-9], [0.5, 0.5 - 2e-9], [1.5, -0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="weights"):
            ConditionalFamily(reps, laws, np.array(bad))


def test_family_weights_one_ulp_short_of_one_are_stored_bit_for_bit():
    short = np.nextafter(1.0, 0.0)
    weights = np.array([0.5, short - 0.5])
    assert weights.sum() == short
    family = ConditionalFamily(np.array([0.0, 1.0]), (to_measure([0.0]), to_measure([1.0])), weights)
    assert family.group_weights.tobytes() == weights.tobytes()
