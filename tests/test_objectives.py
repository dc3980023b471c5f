import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from exsgd.cluster import reduce_mean

from exsgd.objectives import (ObjectiveSpec, ParamVector, _batch_mean,
                              batch_gradient, batch_loss, estimate_constants,
                              finite_difference_gradient, full_gradient,
                              initial_point, loss, loss_sample, make_logistic,
                              make_quadratic, make_tiny_mlp, sample_gradient)


def test_quadratic_gradient_closed_form():
    # f_i = 0.5 (x - a_i)^T A (x - a_i)  =>  grad = A (x - mean a_i)
    obj = make_quadratic(2, 2, diag=[1.0, 4.0], shifts=[[1.0, 0.0], [3.0, 2.0]])
    g = batch_gradient(obj, np.array([1.0, 1.0]), [0, 1])
    assert_array_equal(g, np.array([1.0 - 2.0, 4.0 * (1.0 - 1.0)]))
    g0 = batch_gradient(obj, np.zeros(2), [0])
    assert_array_equal(g0, np.array([-1.0, 0.0]))


def test_full_matrix_quadratic_matches_diag():
    a = np.diag([1.0, 4.0])
    obj_m = make_quadratic(2, 4, generator_seed=3, matrix=a)
    obj_d = make_quadratic(2, 4, generator_seed=3, diag=[1.0, 4.0])
    x = np.array([0.3, -0.7])
    assert_allclose(batch_gradient(obj_m, x, [0, 2]),
                    batch_gradient(obj_d, x, [0, 2]), rtol=1e-15)


@pytest.mark.parametrize("maker,kwargs", [
    (make_quadratic, dict(dimension=3, sample_count=6, generator_seed=1,
                          diag=[0.5, 1.0, 2.0])),
    (make_logistic, dict(dimension=4, sample_count=10, generator_seed=2, l2=0.1)),
    (make_tiny_mlp, dict(widths=(2, 3, 1), sample_count=8, generator_seed=4)),
    (make_tiny_mlp, dict(widths=(2, 3, 3, 2), sample_count=8, generator_seed=5)),
])
def test_gradient_matches_finite_differences(maker, kwargs):
    obj = maker(**kwargs)
    rng = np.random.default_rng(7)
    x = 0.5 * rng.standard_normal(obj.dimension)
    idx = [0, 1, 3]
    got = batch_gradient(obj, x, idx)
    want = finite_difference_gradient(lambda v: batch_loss(obj, v, idx), x)
    assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_batch_loss_is_mean_of_sample_losses():
    obj = make_logistic(3, 5, generator_seed=9)
    x = ParamVector(np.array([0.2, -0.1, 0.4]))
    per = [loss_sample(obj, x, i) for i in range(5)]
    assert_allclose(loss(obj, x), np.mean(per), rtol=1e-14)


def test_batch_gradient_is_mean_of_sample_gradients():
    obj = make_tiny_mlp((2, 2, 1), 6, generator_seed=11)
    x = initial_point(obj)
    stack = np.stack([sample_gradient(obj, x, i).values for i in range(6)])
    assert_allclose(full_gradient(obj, x).values, stack.mean(axis=0), rtol=1e-12)


def test_dataset_generation_is_deterministic():
    a = make_logistic(4, 12, generator_seed=5)
    b = make_logistic(4, 12, generator_seed=5)
    c = make_logistic(4, 12, generator_seed=6)
    assert_array_equal(a.logit_features, b.logit_features)
    assert_array_equal(a.logit_labels, b.logit_labels)
    assert not np.array_equal(a.logit_features, c.logit_features)


def test_initial_point_zero_for_convex_seeded_for_mlp():
    quad = make_quadratic(3, 4)
    assert_array_equal(initial_point(quad).values, np.zeros(3))
    mlp = make_tiny_mlp((2, 3, 1), 4, generator_seed=8)
    x1, x2 = initial_point(mlp), initial_point(mlp)
    assert_array_equal(x1.values, x2.values)
    assert x1.norm() > 0
    # biases start at zero, weight blocks are scaled by init_scale
    w_blk, b_blk = mlp.partition[0], mlp.partition[1]
    assert_array_equal(x1.values[b_blk[0]:b_blk[1]], 0.0)
    x3 = initial_point(mlp, init_scale=2.0)
    assert_allclose(x3.values[w_blk[0]:w_blk[1]],
                    2.0 * x1.values[w_blk[0]:w_blk[1]], rtol=1e-15)


def test_mlp_partition_covers_all_parameters():
    mlp = make_tiny_mlp((3, 4, 2), 5, generator_seed=1)
    x = initial_point(mlp)
    x.validate()
    assert mlp.dimension == 4 * 3 + 4 + 2 * 4 + 2
    assert len(mlp.partition) == 4    # W1, b1, W2, b2


def test_param_vector_partition_validation():
    with pytest.raises(ValueError):
        ParamVector(np.zeros(4), [(0, 2), (3, 4)]).validate()   # gap
    with pytest.raises(ValueError):
        ParamVector(np.zeros(4), [(0, 2), (1, 4)]).validate()   # overlap
    with pytest.raises(ValueError):
        ParamVector(np.zeros(4), [(0, 2)]).validate()           # short
    ParamVector(np.zeros(4), [(0, 2), (2, 4)]).validate()


def test_objective_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        make_quadratic(2, 2, matrix=[[1.0, 0.5], [0.4, 1.0]])   # asymmetric
    with pytest.raises(ValueError):
        make_quadratic(2, 2, matrix=[[1.0, 2.0], [2.0, 1.0]])   # indefinite
    with pytest.raises(ValueError):
        make_quadratic(2, 2, diag=[1.0, -0.1])


def test_index_range_checks():
    obj = make_quadratic(2, 3)
    with pytest.raises(IndexError):
        batch_gradient(obj, np.zeros(2), [3])
    with pytest.raises(IndexError):
        sample_gradient(obj, initial_point(obj), -1)
    with pytest.raises(ValueError):
        batch_gradient(obj, np.zeros(3), [0])   # dimension mismatch


def test_quadratic_constants_hand_computed():
    # a = {(1,0), (3,0)}, A = diag(1,4): abar = (2,0);
    # sigma^2 = max_i ||A(a_i - abar)||^2 = 1; f* = f(abar) = 0.5;
    # r0 = f(0) - f* = 2.5 - 0.5 = 2.
    obj = make_quadratic(2, 2, diag=[1.0, 4.0], shifts=[[1.0, 0.0], [3.0, 0.0]])
    c = estimate_constants(obj, initial_point(obj))
    assert c.lipschitz_L == 4.0
    assert_allclose(c.variance_sigma2, 1.0, rtol=1e-14)
    assert_allclose(c.f_star, 0.5, rtol=1e-14)
    assert_allclose(c.r0, 2.0, rtol=1e-14)


def test_logistic_constants():
    obj = make_logistic(3, 8, generator_seed=2, l2=0.05)
    x0 = initial_point(obj)
    c = estimate_constants(obj, x0)
    want_l = 0.25 * max(np.sum(obj.logit_features ** 2, axis=1)) + 0.05
    assert_allclose(c.lipschitz_L, want_l, rtol=1e-14)
    # sigma^2 is the worst per-sample gradient deviation at x0, brute force
    gbar = batch_gradient(obj, x0.values, np.arange(8))
    devs = [batch_gradient(obj, x0.values, [i]) - gbar for i in range(8)]
    assert_allclose(c.variance_sigma2, max(float(d @ d) for d in devs),
                    rtol=1e-14)


def test_mlp_probed_lipschitz_reasonable():
    obj = make_tiny_mlp((2, 4, 1), 16, generator_seed=3)
    x0 = initial_point(obj)
    c = estimate_constants(obj, x0, probe_budget=8)
    assert c.lipschitz_L > 0
    assert np.isfinite(c.variance_sigma2)
    c2 = estimate_constants(obj, x0, probe_budget=8)
    assert c.lipschitz_L == c2.lipschitz_L     # probing is seeded


def test_logistic_loss_stable_at_huge_margin():
    obj = make_logistic(2, 2, features=[[1.0, 0.0], [0.0, 1.0]],
                        labels=[1.0, -1.0])
    val = batch_loss(obj, np.array([-800.0, 800.0]), [0, 1])
    assert np.isfinite(val) and val == pytest.approx(800.0)
    g = batch_gradient(obj, np.array([-800.0, 800.0]), [0, 1])
    assert np.all(np.isfinite(g))


# ---------------------------------------------------------------------------
# the stacked oracle: one call for K batches, bitwise the K separate calls
# ---------------------------------------------------------------------------

OBJECTIVE_KINDS = ("quadratic", "quadratic_matrix", "logistic", "tiny_mlp")


def _draw_objective(data, kind, seed):
    n = data.draw(st.integers(1, 40), label="N")
    if kind == "tiny_mlp":
        hidden = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=2),
                           label="hidden")
        widths = (data.draw(st.integers(1, 4), label="in"), *hidden,
                  data.draw(st.integers(1, 3), label="out"))
        return make_tiny_mlp(widths, n, generator_seed=seed)
    d = data.draw(st.integers(1, 9), label="d")
    if kind == "logistic":
        return make_logistic(d, n, generator_seed=seed, l2=0.01)
    if kind == "quadratic":
        return make_quadratic(d, n, generator_seed=seed, shift_spread=2.0,
                              diag=np.linspace(0.5, 3.0, d))
    root = np.random.default_rng(seed).standard_normal((d, d))
    return make_quadratic(d, n, generator_seed=seed, matrix=root @ root.T)


@given(kind=st.sampled_from(OBJECTIVE_KINDS), seed=st.integers(0, 2**31 - 1),
       workers=st.integers(1, 16), data=st.data())
@settings(max_examples=120, deadline=None)
def test_stacked_oracle_rows_are_bitwise_single_calls(kind, seed, workers, data):
    obj = _draw_objective(data, kind, seed)
    batch = data.draw(st.integers(1, 24), label="B")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, obj.sample_count, size=(workers, batch))
    points = rng.standard_normal((workers, obj.dimension))
    stacked = batch_gradient(obj, points, idx)
    shared = batch_gradient(obj, points[0], idx)
    assert stacked.shape == shared.shape == (workers, obj.dimension)
    for k in range(workers):
        assert_array_equal(stacked[k], batch_gradient(obj, points[k], idx[k]))
        assert_array_equal(shared[k], batch_gradient(obj, points[0], idx[k]))


@given(kind=st.sampled_from(OBJECTIVE_KINDS), seed=st.integers(0, 2**31 - 1),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_range_indices_are_bitwise_arange(kind, seed, data):
    obj = _draw_objective(data, kind, seed)
    x = np.random.default_rng(seed).standard_normal(obj.dimension)
    everything = np.arange(obj.sample_count)
    assert_array_equal(batch_gradient(obj, x, range(obj.sample_count)),
                       batch_gradient(obj, x, everything))
    assert batch_loss(obj, x, range(obj.sample_count)) == \
        batch_loss(obj, x, everything)


def test_stacked_oracle_index_and_shape_checks():
    obj = make_quadratic(2, 5)
    idx = np.array([[0, 1], [2, 4]])
    with pytest.raises(IndexError):
        batch_gradient(obj, np.zeros(2), np.array([[0, 1], [2, 5]]))
    with pytest.raises(IndexError):
        batch_gradient(obj, np.zeros(2), range(6))
    with pytest.raises(ValueError):
        batch_gradient(obj, np.zeros((3, 2)), idx)       # 3 points, 2 rows
    with pytest.raises(ValueError):
        batch_gradient(obj, np.zeros((2, 2)), [0, 1])    # (K, d) needs a matrix
    with pytest.raises(ValueError):
        batch_gradient(obj, np.zeros(2), range(0))
    with pytest.raises(ValueError):
        batch_loss(obj, np.zeros(2), idx)


@given(seed=st.integers(0, 2**31 - 1), workers=st.integers(1, 16),
       dim=st.integers(1, 8))
@example(seed=0, workers=8, dim=1)
@settings(max_examples=200, deadline=None)
def test_reduce_mean_of_stacked_rows_is_the_ascending_add(seed, workers, dim):
    # numpy's X.sum(axis=0) sums a d = 1 column pairwise once K >= 8, so it
    # can differ from the ascending add in the last bit; reduce_mean must not.
    rows = np.random.default_rng(seed).standard_normal((workers, dim)) * 1e3
    ascending = functools.reduce(lambda acc, row: acc + row, rows[1:],
                                 rows[0].copy()) / workers
    assert_array_equal(reduce_mean(rows), reduce_mean(list(rows)))
    assert_array_equal(reduce_mean(rows), ascending)


@given(kind=st.sampled_from(["quadratic", "quadratic_matrix"]),
       seed=st.integers(0, 2**31 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_cached_quadratic_shift_mean_is_a_fresh_batch_mean(kind, seed, data):
    obj = _draw_objective(data, kind, seed)
    mean = obj.quad_shift_mean
    assert_array_equal(mean, _batch_mean(obj.quad_shifts))
    assert obj.quad_shift_mean is mean and not mean.flags.writeable
    x = np.random.default_rng(seed).standard_normal(obj.dimension)
    # New shifts through dataclasses.replace get a mean of their own.
    moved = dataclasses.replace(obj, quad_shifts=obj.quad_shifts + 1.0)
    assert_array_equal(moved.quad_shift_mean, _batch_mean(moved.quad_shifts))
    assert_array_equal(batch_gradient(moved, x, range(obj.sample_count)),
                       batch_gradient(moved, x, np.arange(obj.sample_count)))
    assert_array_equal(obj.quad_shift_mean, mean)


@pytest.mark.parametrize("bad", [-1, 5, -2**63, 2**63 - 1])
def test_out_of_range_indices_raise(bad):
    obj = make_quadratic(2, 5)
    matrix = np.array([[0, 1, 2], [bad, 4, 3]])
    for indices in ([0, bad], matrix, matrix[:, :2]):
        with pytest.raises(IndexError):
            batch_gradient(obj, np.zeros(2), indices)
    with pytest.raises(IndexError):
        batch_loss(obj, np.zeros(2), [bad])
