"""Construction and validation of measures, cost specs, and cost matrices."""

import numpy as np
import pytest

from wassdep import CostSpec, DataError, DiscreteMeasure, cost_matrix, mixture, product_measure
from wassdep import measures
from wassdep.measures import TwoStageDiscreteLaw


def test_uniform_weights_by_default():
    m = DiscreteMeasure(np.arange(5.0))
    assert m.points.shape == (5, 1)
    assert np.allclose(m.weights, 0.2)


def test_weights_renormalized_within_tolerance():
    w = np.array([0.25, 0.25, 0.25, 0.25]) * (1.0 + 5e-10)
    m = DiscreteMeasure(np.arange(4.0), w)
    assert m.weights.sum() == 1.0


def test_weights_rejected_beyond_tolerance():
    with pytest.raises(ValueError, match="sum"):
        DiscreteMeasure(np.arange(4.0), np.full(4, 0.3))


def test_negative_and_nonfinite_weights_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.arange(3.0), np.array([0.5, 0.6, -0.1]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.arange(3.0), np.array([0.5, np.nan, 0.5]))


def test_points_must_be_finite_and_nonempty():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.empty((0, 2)))


def test_dirac_constructor():
    m = DiscreteMeasure.dirac([1.0, 2.0])
    assert m.n == 1 and m.dim == 2
    assert m.weights[0] == 1.0


# ---------------------------------------------------------------------------
# CostSpec validation
# ---------------------------------------------------------------------------


def test_cost_spec_requires_p_at_least_one():
    with pytest.raises(ValueError):
        CostSpec(p=0.5)
    with pytest.raises(ValueError):
        CostSpec(p=np.inf)


def test_cost_spec_unknown_combinator():
    with pytest.raises(ValueError, match="combinator"):
        CostSpec(combinator="weird")


def test_lq_needs_factor_dims_and_valid_q():
    with pytest.raises(ValueError):
        CostSpec(combinator="lq")
    with pytest.raises(ValueError):
        CostSpec(combinator="lq", q=0.5, factor_dims=(1, 1))
    spec = CostSpec(combinator="lq", q=2.0, factor_dims=(2, 3))
    assert spec.ambient_dim == 5


def test_alpha_needs_two_factors_and_positive_alpha():
    with pytest.raises(ValueError):
        CostSpec(combinator="alpha", factor_dims=(1, 1, 1))
    with pytest.raises(ValueError):
        CostSpec(combinator="alpha", alpha=0.0, factor_dims=(1, 1))


def test_scaled_needs_matching_positive_scales():
    with pytest.raises(ValueError):
        CostSpec(combinator="scaled", factor_dims=(1, 1), scales=(1.0,))
    with pytest.raises(ValueError):
        CostSpec(combinator="scaled", factor_dims=(1, 1), scales=(1.0, -2.0))


# ---------------------------------------------------------------------------
# Cost matrices
# ---------------------------------------------------------------------------


def test_cost_matrix_single_euclidean_power():
    src = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]))
    dst = DiscreteMeasure(np.array([[0.0, 3.0]]))
    c1 = cost_matrix(src, dst, CostSpec(p=1.0))
    c2 = cost_matrix(src, dst, CostSpec(p=2.0))
    assert np.allclose(c1[:, 0], [3.0, np.sqrt(10.0)])
    assert np.allclose(c2[:, 0], [9.0, 10.0])


def test_cost_matrix_lq_combinator():
    # product space R x R, atoms chosen so each factor distance is visible
    src = DiscreteMeasure(np.array([[0.0, 0.0]]))
    dst = DiscreteMeasure(np.array([[3.0, 4.0]]))
    l1 = cost_matrix(src, dst, CostSpec(p=1.0, combinator="lq", q=1.0, factor_dims=(1, 1)))
    l2 = cost_matrix(src, dst, CostSpec(p=1.0, combinator="lq", q=2.0, factor_dims=(1, 1)))
    assert np.isclose(l1[0, 0], 7.0)
    assert np.isclose(l2[0, 0], 5.0)


def test_cost_matrix_alpha_and_scaled():
    src = DiscreteMeasure(np.array([[0.0, 0.0]]))
    dst = DiscreteMeasure(np.array([[2.0, 5.0]]))
    ca = cost_matrix(src, dst, CostSpec(p=1.0, combinator="alpha", alpha=3.0, factor_dims=(1, 1)))
    cs = cost_matrix(
        src, dst, CostSpec(p=1.0, combinator="scaled", scales=(2.0, 5.0), factor_dims=(1, 1))
    )
    assert np.isclose(ca[0, 0], 3.0 * 2.0 + 5.0)
    assert np.isclose(cs[0, 0], 2.0)


def test_cost_matrix_dimension_mismatch():
    a = DiscreteMeasure(np.zeros((2, 2)))
    b = DiscreteMeasure(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        cost_matrix(a, b, CostSpec())
    with pytest.raises(ValueError, match="dimension"):
        cost_matrix(a, a, CostSpec(combinator="lq", q=1.0, factor_dims=(2, 2)))


def test_product_measure_grid():
    first = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.25, 0.75]))
    second = DiscreteMeasure(np.array([5.0]), np.array([1.0]))
    prod = product_measure(first, second)
    assert prod.n == 2 and prod.dim == 2
    assert np.allclose(prod.weights, [0.25, 0.75])
    assert np.allclose(prod.points, [[0.0, 5.0], [1.0, 5.0]])


def test_mixture_weights_and_errors():
    a = DiscreteMeasure(np.array([0.0]))
    b = DiscreteMeasure(np.array([1.0, 2.0]))
    mix = mixture([a, b], [0.3, 0.7])
    assert mix.n == 3
    assert np.allclose(mix.weights, [0.3, 0.35, 0.35])
    with pytest.raises(ValueError):
        mixture([a, b], [0.3, 0.3])
    with pytest.raises(ValueError):
        mixture([a], [])


def test_two_stage_law_validation():
    cond = DiscreteMeasure(np.array([0.0, 1.0]))
    law = TwoStageDiscreteLaw(np.array([0.0]), np.array([1.0]), (cond,))
    assert law.n == 1
    with pytest.raises(ValueError, match="one conditional"):
        TwoStageDiscreteLaw(np.array([0.0, 1.0]), np.array([0.5, 0.5]), (cond,))
    with pytest.raises(ValueError, match="dimensions"):
        TwoStageDiscreteLaw(
            np.array([0.0, 1.0]),
            np.array([0.5, 0.5]),
            (cond, DiscreteMeasure(np.zeros((1, 2)))),
        )


def test_cost_matrix_beyond_physical_memory_is_refused(monkeypatch):
    m = DiscreteMeasure(np.random.default_rng(0).normal(size=(100, 2)))
    monkeypatch.setattr(measures, "PHYSICAL_MEMORY", 100 * 100 * 8)
    assert cost_matrix(m, m, CostSpec()).shape == (100, 100)
    monkeypatch.setattr(measures, "PHYSICAL_MEMORY", 100 * 100 * 8 - 1)
    with pytest.raises(DataError, match=r"100 x 100 cost matrix needs 80000 bytes"):
        cost_matrix(m, m, CostSpec(p=2.0))
