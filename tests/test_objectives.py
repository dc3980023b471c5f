import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from exsgd.cluster import reduce_mean

from exsgd import objectives
from exsgd.objectives import (ObjectiveSpec, _batch_mean, _sigma2_at,
                              _sigmoid, batch_gradient,
                              batch_loss, estimate_constants,
                              finite_difference_gradient, initial_point,
                              make_logistic, make_quadratic, make_tiny_mlp,
                              row_dots)
from exsgd.optimizers import HyperParams, _worker_grads


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
    x = np.array([0.2, -0.1, 0.4])
    per = [batch_loss(obj, x, [i]) for i in range(5)]
    assert_allclose(batch_loss(obj, x, range(5)), np.mean(per), rtol=1e-14)


def test_batch_gradient_is_mean_of_sample_gradients():
    obj = make_tiny_mlp((2, 2, 1), 6, generator_seed=11)
    x = initial_point(obj)
    stack = np.stack([batch_gradient(obj, x, [i]) for i in range(6)])
    assert_allclose(batch_gradient(obj, x, range(6)), stack.mean(axis=0),
                    rtol=1e-12)


def test_dataset_generation_is_deterministic():
    a = make_logistic(4, 12, generator_seed=5)
    b = make_logistic(4, 12, generator_seed=5)
    c = make_logistic(4, 12, generator_seed=6)
    assert_array_equal(a.logit_features, b.logit_features)
    assert_array_equal(a.logit_labels, b.logit_labels)
    assert not np.array_equal(a.logit_features, c.logit_features)


def test_initial_point_zero_for_convex_seeded_for_mlp():
    quad = make_quadratic(3, 4)
    assert_array_equal(initial_point(quad), np.zeros(3))
    mlp = make_tiny_mlp((2, 3, 1), 4, generator_seed=8)
    x1, x2 = initial_point(mlp), initial_point(mlp)
    assert_array_equal(x1, x2)
    assert np.linalg.norm(x1) > 0
    # biases start at zero, weight blocks are scaled by init_scale
    w_blk, b_blk = mlp.partition[0], mlp.partition[1]
    assert_array_equal(x1[b_blk[0]:b_blk[1]], 0.0)
    x3 = initial_point(mlp, init_scale=2.0)
    assert_allclose(x3[w_blk[0]:w_blk[1]],
                    2.0 * x1[w_blk[0]:w_blk[1]], rtol=1e-15)


def test_mlp_partition_covers_all_parameters():
    mlp = make_tiny_mlp((3, 4, 2), 5, generator_seed=1)
    assert initial_point(mlp).shape == (mlp.dimension,)
    assert mlp.dimension == 4 * 3 + 4 + 2 * 4 + 2
    assert len(mlp.partition) == 4    # W1, b1, W2, b2
    mlp.validate()


def test_mlp_layout_is_built_once_and_partitions_stay_apart():
    # The unpacking layout is kept per widths tuple; an objective's
    # partition is its own list, which a caller may change.
    first, second = (make_tiny_mlp((3, 4, 2), 5, generator_seed=s)
                     for s in (1, 2))
    assert objectives._mlp_layout((3, 4, 2)) is objectives._mlp_layout((3, 4, 2))
    assert first.partition == second.partition
    assert first.partition is not second.partition
    first.partition.append((0, 1))
    assert second.partition == objectives._mlp_blocks((3, 4, 2))
    x = np.arange(float(second.dimension))
    views = objectives._unpack_mlp([3, 4, 2], x)     # a list keys it too
    for (w, b), (w0, w1), (b0, b1) in zip(views, second.partition[::2],
                                          second.partition[1::2]):
        assert np.shares_memory(w, x) and np.shares_memory(b, x)
        assert w.ravel().tolist() == x[w0:w1].tolist()
        assert b.ravel().tolist() == x[b0:b1].tolist()


def _mlp_maker_by_layer_arrays(widths, sample_count, generator_seed,
                               input_scale, target_noise, init_scale):
    """(inputs, targets, dimension, partition, initial point) of a tiny MLP,
    built as the maker first built them: a teacher held as one array per
    weight and bias, run by its own forward loop, and an initial point
    concatenated from per-layer chunks, with offsets counted here."""
    rng = np.random.default_rng(
        np.random.SeedSequence((generator_seed, objectives._DATA_TAG)))
    inputs = input_scale * rng.standard_normal((sample_count, widths[0]))
    teacher = [(rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in),
                0.1 * rng.standard_normal(fan_out))
               for fan_in, fan_out in zip(widths[:-1], widths[1:])]
    h = inputs
    for l, (w, b) in enumerate(teacher):
        h = h @ w.T + b
        if l < len(teacher) - 1:
            h = np.tanh(h)
    targets = h + target_noise * rng.standard_normal(h.shape)
    partition, cursor = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        partition += [(cursor, cursor + fan_out * fan_in),
                      (cursor + fan_out * fan_in, cursor + fan_out * (fan_in + 1))]
        cursor += fan_out * (fan_in + 1)
    rng = np.random.default_rng(
        np.random.SeedSequence((generator_seed, objectives._INIT_TAG)))
    chunks = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = init_scale * rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        chunks += [w.ravel(), np.zeros(fan_out)]
    return inputs, targets, cursor, partition, np.concatenate(chunks)


_SCALES = st.floats(0.0, 4.0, allow_subnormal=False)


@given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       sample_count=st.integers(1, 40), generator_seed=st.integers(0, 2**31 - 1),
       input_scale=_SCALES, target_noise=_SCALES, init_scale=_SCALES)
@example(widths=[3, 2], sample_count=7, generator_seed=1, input_scale=1.0,
         target_noise=0.1, init_scale=1.0)
@example(widths=[6, 5, 4, 3], sample_count=40, generator_seed=2,
         input_scale=2.0, target_noise=0.0, init_scale=0.5)
@settings(max_examples=150, deadline=None)
def test_mlp_maker_and_initial_point_are_bitwise_the_layer_arrays(
        widths, sample_count, generator_seed, input_scale, target_noise,
        init_scale):
    # Every depth the maker accepts: no hidden layer, one or two.
    obj = make_tiny_mlp(widths, sample_count, generator_seed=generator_seed,
                        input_scale=input_scale, target_noise=target_noise)
    inputs, targets, dim, partition, x0 = _mlp_maker_by_layer_arrays(
        widths, sample_count, generator_seed, input_scale, target_noise,
        init_scale)
    assert obj.mlp_inputs.tobytes() == inputs.tobytes()
    assert obj.mlp_targets.shape == targets.shape
    assert obj.mlp_targets.tobytes() == targets.tobytes()
    assert (obj.dimension, obj.partition) == (dim, partition)
    got = initial_point(obj, init_scale)
    assert got.shape == x0.shape
    assert got.tobytes() == x0.tobytes()


def test_objective_partition_validation():
    quad = make_quadratic(4, 3)
    assert quad.partition == [(0, 4)]     # the default: one block
    for bad in ([(0, 2), (3, 4)],         # gap
                [(0, 2), (1, 4)],         # overlap
                [(0, 2)],                 # short
                [(0, 2), (2, 2), (2, 4)], # empty block
                []):                      # no blocks
        with pytest.raises(ValueError, match="partition"):
            dataclasses.replace(quad, partition=bad).validate()
    dataclasses.replace(quad, partition=[(0, 2), (2, 4)]).validate()


def test_objective_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        make_quadratic(2, 2, matrix=[[1.0, 0.5], [0.4, 1.0]])   # asymmetric
    with pytest.raises(ValueError):
        make_quadratic(2, 2, matrix=[[1.0, 2.0], [2.0, 1.0]])   # indefinite
    with pytest.raises(ValueError):
        make_quadratic(2, 2, diag=[1.0, -0.1])
    with pytest.raises(ValueError, match="diagonal must be nonnegative"):
        make_quadratic(3, 8, diag=[1.0, np.nan, 2.0])


_GIVEN = "for sample_count=24, dimension=2"


@pytest.mark.parametrize("maker,kwargs,message", [
    (make_quadratic, dict(generator_seed=-1), "generator_seed must be >= 0, got -1"),
    (make_logistic, dict(generator_seed=-1), "generator_seed must be >= 0, got -1"),
    (make_quadratic, dict(shift_mean=[2.0, 2.0, 2.0]),
     f"shift_mean has shape (3,), expected (2,) {_GIVEN}"),
    (make_quadratic, dict(shifts=np.zeros((23, 2))),
     f"shifts has shape (23, 2), expected (24, 2) {_GIVEN}"),
    (make_logistic, dict(features=np.zeros((24, 3)), labels=np.ones(24)),
     f"features has shape (24, 3), expected (24, 2) {_GIVEN}"),
    (make_logistic, dict(features=np.zeros((24, 2)), labels=np.ones(23)),
     f"labels has shape (23,), expected (24,) {_GIVEN}"),
    (make_logistic, dict(features=np.zeros((24, 2))),
     "logistic features and labels must be given together"),
    (make_logistic, dict(labels=np.ones(24)),
     "logistic features and labels must be given together"),
    (make_logistic, dict(features=np.zeros((24, 2)), labels=np.zeros(24)),
     "logistic labels must be +-1"),
    # The drawn-data arguments would be ignored, yet recorded in the call.
    *((make_quadratic, dict(shifts=np.zeros((24, 2)), **drawn),
       "shift_mean and shift_spread shape drawn shifts only: "
       "leave them unset with explicit shifts")
      for drawn in (dict(shift_mean=[9.0, 9.0]), dict(shift_spread=5.0),
                    dict(shift_mean=[0.0, 0.0], shift_spread=1.0))),
    (make_logistic, dict(features=np.zeros((24, 2)), labels=np.ones(24),
                         feature_scale=2.0),
     "feature_scale scales drawn features only: "
     "leave it unset with explicit features"),
])
def test_makers_refuse_a_bad_argument_by_its_name(maker, kwargs, message):
    with pytest.raises(ValueError) as err:
        maker(2, 24, **kwargs)
    assert str(err.value) == message


def test_tiny_mlp_and_a_written_objective_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="^generator_seed must be >= 0, got -2$"):
        make_tiny_mlp((2, 3, 1), 24, generator_seed=-2)
    with pytest.raises(ValueError, match="^generator_seed must be >= 0, got -1$"):
        dataclasses.replace(make_tiny_mlp((2, 1), 4), generator_seed=-1).validate()


@pytest.mark.parametrize("widths", [(2,), (2, 3, 3, 3, 1)])
def test_tiny_mlp_refuses_widths_of_the_wrong_length(widths):
    with pytest.raises(ValueError, match=r"^tiny_mlp widths must be \(in, "
                       r"\[h1, \[h2,\]\] out\): at most 2 hidden layers$"):
        make_tiny_mlp(widths, 24)


_QUAD, _MLP = make_quadratic(2, 4), make_tiny_mlp((2, 3, 1), 4)


@pytest.mark.parametrize("obj,changes,message", [
    (_QUAD, dict(kind="bogus"), "unknown objective kind 'bogus'"),
    (_QUAD, dict(sample_count=0), "sample_count must be >= 1"),
    (_QUAD, dict(dimension=0), "dimension must be >= 1"),
    (_QUAD, dict(quad_diag=None), "quadratic objective needs quad_diag or quad_matrix"),
    (_QUAD, dict(quad_shifts=None), "quadratic objective needs quad_shifts"),
    (_MLP, dict(mlp_widths=None), "tiny_mlp widths must be (in, [h1, [h2,]] out)"),
    (_MLP, dict(mlp_widths=(2, 2, 1)),
     "mlp_widths (2, 2, 1) have 9 parameters, but dimension is 13"),
])
def test_a_written_objective_refuses_a_field_it_cannot_run(obj, changes, message):
    with pytest.raises(ValueError) as err:
        dataclasses.replace(obj, **changes).validate()
    assert str(err.value) == message


def test_explicit_arrays_holding_their_shapes_values_are_reshaped():
    obj = make_quadratic(1, 2, shifts=[1.0, 3.0])
    assert obj.quad_shifts.tolist() == [[1.0], [3.0]]
    assert_allclose(make_quadratic(1, 2, shift_mean=2.0).quad_shift_mean, [2.0])


def test_index_range_checks():
    obj = make_quadratic(2, 3)
    with pytest.raises(IndexError):
        batch_gradient(obj, np.zeros(2), [3])
    with pytest.raises(IndexError):
        batch_gradient(obj, initial_point(obj), [-1])
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
    gbar = batch_gradient(obj, x0, np.arange(8))
    devs = [batch_gradient(obj, x0, [i]) - gbar for i in range(8)]
    assert_allclose(c.variance_sigma2, max(float(d @ d) for d in devs),
                    rtol=1e-14)


def test_mlp_probed_lipschitz_reasonable():
    obj = make_tiny_mlp((2, 4, 1), 16, generator_seed=3)
    x0 = initial_point(obj)
    c = estimate_constants(obj, x0)
    assert c.lipschitz_L > 0
    assert np.isfinite(c.variance_sigma2)
    c2 = estimate_constants(obj, x0)
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
    """A small objective of `kind`, one of OBJECTIVE_KINDS, or `logistic_d1`
    or `tiny_mlp_linear` (no hidden layer)."""
    n = data.draw(st.integers(1, 40), label="N")
    if kind.startswith("tiny_mlp"):
        hidden = [] if kind == "tiny_mlp_linear" else data.draw(
            st.lists(st.integers(1, 6), min_size=1, max_size=2), label="hidden")
        widths = (data.draw(st.integers(1, 4), label="in"), *hidden,
                  data.draw(st.integers(1, 3), label="out"))
        return make_tiny_mlp(widths, n, generator_seed=seed)
    d = 1 if kind == "logistic_d1" else data.draw(st.integers(1, 9), label="d")
    if kind.startswith("logistic"):
        return make_logistic(d, n, generator_seed=seed, l2=0.01)
    if kind == "quadratic":
        return make_quadratic(d, n, generator_seed=seed, shift_spread=2.0,
                              diag=np.linspace(0.5, 3.0, d))
    root = np.random.default_rng(seed).standard_normal((d, d))
    return make_quadratic(d, n, generator_seed=seed, matrix=root @ root.T)


@given(kind=st.sampled_from(OBJECTIVE_KINDS), seed=st.integers(0, 2**31 - 1),
       workers=st.integers(1, 16), trials=st.integers(1, 4), data=st.data())
@settings(max_examples=120, deadline=None)
def test_stacked_oracle_rows_are_bitwise_single_calls(kind, seed, workers,
                                                      trials, data):
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
    # The (R, K, B) batches of R trials, at (R, K, d) points, one per worker,
    # or (R, 1, d) points a trial's workers share; with `lead`, both means.
    lead = data.draw(st.none() | st.integers(1, batch), label="lead")
    tensor = rng.integers(0, obj.sample_count, size=(trials, workers, batch))
    per_worker = rng.standard_normal((trials, workers, obj.dimension))
    for pts in (per_worker, per_worker[:, :1]):
        got = batch_gradient(obj, pts, tensor, lead=lead)
        for r, k in np.ndindex(trials, workers):
            want = batch_gradient(obj, pts[r, min(k, len(pts[r]) - 1)],
                                  tensor[r, k], lead=lead)
            if lead is None:
                assert got.shape == (trials, workers, obj.dimension)
                assert got[r, k].tobytes() == want.tobytes()
            else:
                for g, w in zip(got, want):
                    assert g.shape == (trials, workers, obj.dimension)
                    assert g[r, k].tobytes() == w.tobytes()


@given(kind=st.sampled_from(OBJECTIVE_KINDS), seed=st.integers(0, 2**31 - 1),
       workers=st.integers(1, 8), shared=st.booleans(),
       decay=st.sampled_from([0.0, 0.3]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_one_oracle_call_gives_the_sub_batch_past_gradient(
        kind, seed, workers, shared, decay, data):
    # Reference: the two-call form, a second oracle call on the leading b
    # indices of every row.
    obj = _draw_objective(data, kind, seed)
    batch = data.draw(st.integers(1, 24), label="B")
    b = data.draw(st.integers(1, batch), label="b")
    rng = np.random.default_rng(seed)
    batches = rng.integers(0, obj.sample_count, size=(workers, batch))
    points = rng.standard_normal(obj.dimension if shared else (workers, obj.dimension))
    hp = HyperParams(weight_decay=decay)
    grads, past = _worker_grads(obj, points, batches, hp, b)
    assert_array_equal(grads, batch_gradient(obj, points, batches, weight_decay=decay))
    want = batch_gradient(obj, points, batches[:, :b], weight_decay=decay)
    if obj.kind == "quadratic":
        assert_array_equal(past, want)
    else:
        assert np.linalg.norm(past - want) <= 1e-12 * np.linalg.norm(want)


@given(kind=st.sampled_from(OBJECTIVE_KINDS), seed=st.integers(0, 2**31 - 1),
       trials=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_weight_decay_terms_are_added_last(kind, seed, trials, data):
    # A run with weight decay lambda minimizes f + (lambda/2)||x||^2; the
    # oracle adds lambda x and (lambda/2)||x||^2 after the kind's own terms.
    obj = _draw_objective(data, kind, seed)
    decay, every = 0.3, range(obj.sample_count)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((trials, obj.dimension))
    assert_array_equal(batch_gradient(obj, points, every, weight_decay=decay),
                       batch_gradient(obj, points, every) + decay * points)
    shared = points[:, None]
    batches = rng.integers(0, obj.sample_count, size=(trials, 2, 5))
    plain = batch_gradient(obj, shared, batches, lead=3)
    for got, want in zip(batch_gradient(obj, shared, batches, lead=3,
                                        weight_decay=decay), plain):
        assert_array_equal(got, want + decay * shared)
    assert_array_equal(batch_loss(obj, points, every, weight_decay=decay),
                       batch_loss(obj, points, every)
                       + 0.5 * decay * row_dots(points, points))
    assert (batch_loss(obj, points[0], batches[0, 0], weight_decay=decay)
            == batch_loss(obj, points[0], batches[0, 0])
            + 0.5 * decay * row_dots(points[0], points[0]))


def test_lead_takes_a_batch_or_matrix_and_a_count_in_one_to_b():
    obj = make_quadratic(2, 5, generator_seed=1)
    x, idx = np.ones(2), np.array([[0, 1, 2], [2, 4, 3]])
    g, past = batch_gradient(obj, x, idx[1], lead=2)       # a (B,) batch
    assert_array_equal(g, batch_gradient(obj, x, idx[1]))
    assert_array_equal(past, batch_gradient(obj, x, idx[1, :2]))
    for indices, lead in ((idx, 0), (idx, 4), (idx, -1), (idx[0], 4),
                          (range(3), 2)):
        with pytest.raises(ValueError, match="lead") as err:
            batch_gradient(obj, x, indices, lead=lead)
        assert len(str(err.value).splitlines()) == 1


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


@given(kind=st.sampled_from(OBJECTIVE_KINDS), seed=st.integers(0, 2**31 - 1),
       points=st.sampled_from([1, 2, 7, 33]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_stacked_points_are_bitwise_single_point_calls(kind, seed, points, data):
    obj = _draw_objective(data, kind, seed)
    start = data.draw(st.integers(0, obj.sample_count - 1), label="start")
    stop = data.draw(st.integers(start + 1, obj.sample_count), label="stop")
    rows = data.draw(st.sampled_from([range(obj.sample_count),
                                      range(start, stop)]), label="rows")
    stack = 2.0 * np.random.default_rng(seed).standard_normal((points, obj.dimension))
    grads, losses = batch_gradient(obj, stack, rows), batch_loss(obj, stack, rows)
    assert grads.shape == stack.shape and losses.shape == (points,)
    for r, x in enumerate(stack):
        assert grads[r].tobytes() == batch_gradient(obj, x, rows).tobytes()
        assert losses[r:r + 1].tobytes() == \
            np.float64(batch_loss(obj, x, rows)).tobytes()


def _logistic_gradient_by_the_batch_mean(obj, points, rows, lead=None):
    """The logistic gradient as one (..., B, d) temporary of fresh products
    reduced over its batch axis: the form every `range` call had before the
    sample-major sum, and every call on batches before its products were
    formed in the gather.  With `lead`, also the mean over each batch's
    leading `lead` samples."""
    if isinstance(rows, range):
        rows = slice(rows.start, rows.stop)
    phi, y = obj.logit_features[rows], obj.logit_labels[rows]
    m = y * np.matmul(phi, points[..., None])[..., 0]
    terms = (-y * _sigmoid(-m))[..., None] * phi
    g = _batch_mean(terms) + obj.logit_l2 * points
    if lead is None:
        return g
    return g, _batch_mean(terms[..., :lead, :]) + obj.logit_l2 * points


def _d_at_minimum_block(points):
    """The least d at which a block of the sample-major sum of `points`
    points holds only its minimum number of samples."""
    return objectives._SUM_BLOCK // (points * objectives._SUM_BLOCK_MIN_ROWS) + 1


@pytest.mark.parametrize("n,d,points", [
    *((n, d, p) for n in (7, 8, 10, 513) for d in (1, 2, 20) for p in (1, 2, 24)),
    (513, _d_at_minimum_block(24), 24), (100, _d_at_minimum_block(1), 1)])
@pytest.mark.parametrize("features", ["drawn", "zero"])
def test_full_sample_logistic_stack_is_bitwise_single_points_and_the_batch_mean(
        n, d, points, features):
    # d = 1 must keep the batch-axis form: numpy sums an (N, 1) batch axis
    # pairwise, and a sample-major sum would add the stack's samples one by
    # one.  Zero features make every product a signed zero, so the sign of
    # the sum's zero must match too; with l2 = 0 and negative points it shows
    # in the gradient.
    if features == "zero":
        obj = make_logistic(d, n, features=np.zeros((n, d)), labels=np.ones(n))
        stack = -1.0 - np.random.default_rng(n).random((points, d))
    else:
        obj = make_logistic(d, n, generator_seed=n + d, l2=0.01)
        stack = 2.0 * np.random.default_rng(n * d).standard_normal((points, d))
    if d == _d_at_minimum_block(points):
        assert objectives._SUM_BLOCK // (points * d) < objectives._SUM_BLOCK_MIN_ROWS
    for rows in (range(n), range(n // 3, n)):
        got = batch_gradient(obj, stack, rows)
        want = _logistic_gradient_by_the_batch_mean(obj, stack, rows)
        assert got.shape == stack.shape
        assert got.tobytes() == want.tobytes()
        for r, x in enumerate(stack):
            assert got[r].tobytes() == batch_gradient(obj, x, rows).tobytes()
            assert got[r].tobytes() == \
                _logistic_gradient_by_the_batch_mean(obj, x, rows).tobytes()


def _mlp_by_fresh_arrays(obj, values, rows, lead=None):
    """(gradient[, lead gradient], loss) of the MLP by a forward and backward
    pass with a fresh array for every temporary: the form the oracle had
    before its temporaries were formed in place."""
    if isinstance(rows, range):
        rows = slice(rows.start, rows.stop)
    layers = objectives._unpack_mlp(obj.mlp_widths, values)
    acts = [obj.mlp_inputs[rows]]
    for l, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w.swapaxes(-1, -2)) + b
        acts.append(np.tanh(z) if l < len(layers) - 1 else z)
    resid = acts[-1] - obj.mlp_targets[rows]
    loss = 0.5 * np.sum(resid * resid, axis=-1).mean(axis=-1)
    lead_axes, batch = resid.shape[:-2], resid.shape[-2]
    chunks, lead_chunks = [None] * len(layers), [None] * len(layers)
    delta = resid / batch
    for l in range(len(layers) - 1, -1, -1):
        chunks[l] = (np.matmul(delta.swapaxes(-1, -2), acts[l]), delta.sum(axis=-2))
        if lead is not None:
            head = delta[..., :lead, :]
            lead_chunks[l] = (np.matmul(head.swapaxes(-1, -2), acts[l][..., :lead, :]),
                              head.sum(axis=-2))
        if l > 0:
            delta = np.matmul(delta, layers[l][0]) * (1.0 - acts[l] * acts[l])
    g = _concatenate_layers(chunks, lead_axes)
    if lead is None:
        return g, loss
    return g, _concatenate_layers(lead_chunks, lead_axes) * (batch / lead), loss


def _concatenate_layers(chunks, lead_axes):
    """The (weight, bias) gradient of each layer as one parameter vector."""
    return np.concatenate([np.concatenate([gw.reshape(lead_axes + (-1,)), gb], axis=-1)
                           for gw, gb in chunks], axis=-1)


@given(kind=st.sampled_from(["logistic", "logistic_d1", "tiny_mlp",
                             "tiny_mlp_linear"]),
       seed=st.integers(0, 2**31 - 1), trials=st.integers(1, 3),
       workers=st.integers(1, 4), shared=st.booleans(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_oracle_is_bitwise_its_fresh_array_form(kind, seed, trials, workers,
                                                shared, data):
    # The oracle forms its products, activations and residuals in arrays it
    # created itself; every byte must be what fresh temporaries give.
    obj = _draw_objective(data, kind, seed)
    batch = data.draw(st.integers(1, 24), label="B")
    lead = data.draw(st.none() | st.integers(1, batch), label="lead")
    rng = np.random.default_rng(seed)
    tensor = rng.integers(0, obj.sample_count, size=(trials, workers, batch))
    points = rng.standard_normal((trials, 1 if shared else workers, obj.dimension))
    stack = rng.standard_normal((trials, obj.dimension))
    n = obj.sample_count
    for values, indices, b in ((points, tensor, lead), (points[0, 0], tensor[0, 0], lead),
                               (stack, range(n), None), (stack[0], range(n), None)):
        if obj.kind == "logistic" and isinstance(indices, range) and obj.dimension > 1:
            continue                # the sample-major sum has its own test
        got = batch_gradient(obj, values, indices, lead=b)
        if obj.kind == "logistic":
            want = _logistic_gradient_by_the_batch_mean(obj, values, indices, b)
        else:
            *want, loss = _mlp_by_fresh_arrays(obj, values, indices, b)
            if isinstance(indices, range) or indices.ndim == 1:
                assert np.asarray(batch_loss(obj, values, indices)).tobytes() == \
                    loss.tobytes()
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _array_fields(obj):
    """{field: array} of every array the objective holds."""
    return {f.name: value for f in dataclasses.fields(obj)
            if isinstance(value := getattr(obj, f.name), np.ndarray)}


def _array_bytes(obj):
    """{field: (shape, bytes)} of every array the objective holds."""
    return {name: (value.shape, value.tobytes())
            for name, value in _array_fields(obj).items()}


@given(kind=st.sampled_from(OBJECTIVE_KINDS + ("logistic_d1", "tiny_mlp_linear")),
       seed=st.integers(0, 2**31 - 1), trials=st.integers(1, 3),
       workers=st.integers(1, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_oracle_calls_never_write_the_dataset_or_the_points(kind, seed, trials,
                                                            workers, data):
    # A `range` reads views of the dataset, so a temporary formed in place
    # there would overwrite it; so would one formed in a view of the points.
    # A gradient, written through views of its result, must own its memory.
    obj = _draw_objective(data, kind, seed)
    n, d = obj.sample_count, obj.dimension
    batch = data.draw(st.integers(1, 8), label="B")
    start = data.draw(st.integers(0, n - 1), label="start")
    before = _array_bytes(obj)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d)
    stack = rng.standard_normal((trials, d))
    tensor = rng.integers(0, n, size=(trials, workers, batch))
    per_worker = rng.standard_normal((trials, workers, d))
    points = [x, stack, per_worker]
    given_bytes = [p.tobytes() for p in points]
    dataset = list(_array_fields(obj).values())

    def assert_owned(result, values):
        for grad in (result if isinstance(result, tuple) else (result,)):
            assert not any(np.shares_memory(grad, a) for a in [values, *dataset])

    for rows in (range(n), range(start, n)):
        for values in (x, stack):
            assert_owned(batch_gradient(obj, values, rows), values)
            batch_loss(obj, values, rows)
    for values, indices in ((x, tensor[0, 0]), (x, tensor[0]),
                            (per_worker[0], tensor[0]), (per_worker, tensor),
                            (per_worker[:, :1], tensor), (x, tensor)):
        for lead in (None, 1, batch):
            assert_owned(batch_gradient(obj, values, indices, lead=lead), values)
    batch_loss(obj, x, tensor[0, 0])
    _sigma2_at(obj, x)
    estimate_constants(obj, x)
    assert _array_bytes(obj) == before
    assert [p.tobytes() for p in points] == given_bytes


def _peak_bytes(call):
    """Peak bytes that `call()` holds at once, as tracemalloc sees them
    (numpy reports every data buffer to it), after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_oracle_temporaries_stay_within_an_allocation_budget():
    # A logistic step at the (R, K, B) = (1, 8, 128), d = 256, b = 64 shape
    # holds its gather and little else: its products are formed in it.
    obj = make_logistic(256, 2048, generator_seed=1, l2=0.01)
    rng = np.random.default_rng(1)
    batches = rng.integers(0, 2048, size=(1, 8, 128))
    points = rng.standard_normal((1, 8, 256))
    gather = batches.size * 256 * 8
    assert _peak_bytes(lambda: batch_gradient(obj, points, batches, lead=64)) \
        <= 1.1 * gather
    # A full-sample pass of the (32, 64, 64, 4) MLP holds its two hidden
    # activations and one backprop product, each (N, 64); with a fresh array
    # for every temporary it held about 6.2 of them.
    mlp = make_tiny_mlp((32, 64, 64, 4), 1024, generator_seed=1)
    x = 0.1 * rng.standard_normal(mlp.dimension)
    activation = 1024 * 64 * 8
    for call in (lambda: batch_gradient(mlp, x, range(1024)),
                 lambda: batch_loss(mlp, x, range(1024))):
        assert _peak_bytes(call) <= 3.5 * activation


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
    with pytest.raises(ValueError, match="^empty index set$"):
        batch_gradient(obj, np.zeros(2), [])
    with pytest.raises(ValueError, match="got a scalar$"):
        batch_gradient(obj, np.zeros(2), 3)
    with pytest.raises(ValueError):
        batch_loss(obj, np.zeros(2), idx)
    for points in (np.zeros((3, 3)), np.zeros((2, 2, 2))):    # wrong d, 3-D
        with pytest.raises(ValueError):
            batch_gradient(obj, points, range(5))
        with pytest.raises(ValueError):
            batch_loss(obj, points, range(5))
    with pytest.raises(ValueError):
        batch_loss(obj, np.zeros((3, 2)), [0, 1])     # a stack needs a range
    tensor = np.zeros((3, 2, 4), dtype=np.int64)      # 3 trials' 2 batches
    for points in (np.zeros((3, 3, 2)), np.zeros((2, 1, 2)), np.zeros((3, 2))):
        with pytest.raises(ValueError):
            batch_gradient(obj, points, tensor)


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


@given(seed=st.integers(0, 2**31 - 1), trials=st.integers(1, 3),
       workers=st.integers(1, 4), dim=st.integers(1, 9), shared=st.booleans())
@settings(max_examples=100, deadline=None)
def test_row_dots_of_block_views_are_bitwise_row_dots(seed, trials, workers,
                                                      dim, shared):
    # The trust scale and the dispersion take norms of block views of an
    # (R, K, d) stack, or of an (R, 1, d) stack a trial's workers share;
    # each must be bitwise the `@` and `np.linalg.norm` of that row alone.
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((trials, 1 if shared else workers, dim)) * 1e3
    if shared:
        stack = np.broadcast_to(stack, (trials, workers, dim))
    cuts = sorted(rng.choice(np.arange(1, dim), rng.integers(0, dim), replace=False))
    for start, stop in zip([0] + cuts, cuts + [dim]):
        block = stack[..., start:stop]
        dots = row_dots(block, block)
        norms = np.sqrt(dots)
        for row in np.ndindex(block.shape[:-1]):
            v = block[row].copy()
            assert dots[row].hex() == float(v @ v).hex()
            assert norms[row].hex() == float(np.linalg.norm(v)).hex()


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
    # The bound check runs before the gather, whose `take` would wrap a
    # negative index; a read-only int64 view is checked as draw_batches'
    # cached blocks are.
    matrix = np.array([[0, 1, 2], [bad, 4, 3]])
    tensor = np.stack([matrix[::-1], matrix])             # (R, K, B)
    block = np.concatenate([tensor, tensor], axis=-1)
    block.setflags(write=False)
    view = block[..., 1:4]                  # holds bad at [0, 0, 2]
    assert view.dtype == np.int64 and not view.flags.writeable
    for obj in (make_quadratic(2, 5), make_logistic(2, 5),
                make_tiny_mlp((1, 1), 5)):  # d = 2, N = 5
        for indices in ([0, bad], matrix, matrix[:, :2], tensor, view):
            with pytest.raises(IndexError, match="sample index out of range"):
                batch_gradient(obj, np.zeros(2), indices)
        with pytest.raises(IndexError, match="sample index out of range"):
            batch_loss(obj, np.zeros(2), [bad])


# ---------------------------------------------------------------------------
# the logistic sigmoid and the brute-force sigma^2 against their plain forms
# ---------------------------------------------------------------------------

def _masked_sigmoid(z):
    """The two-branch sigmoid on boolean masks, the reference form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                                5e-324, -5e-324, 2.2e-308, -2.2e-308,
                                1e308, -1e308, 745.0, -745.0, 710.0, -710.0])


@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                 max_side=40),
                    elements=st.floats(allow_subnormal=True) | _EDGE_FLOATS))
@settings(max_examples=300, deadline=None)
def test_sigmoid_is_bitwise_the_masked_form(z):
    with np.errstate(invalid="ignore"):     # a signaling NaN input
        got, want = _sigmoid(z), _masked_sigmoid(z)
    assert got.shape == want.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _sigma2_by_single_calls(obj, x):
    gbar = batch_gradient(obj, x, range(obj.sample_count))
    worst = 0.0
    for i in range(obj.sample_count):
        dev = batch_gradient(obj, x, [i]) - gbar
        worst = max(worst, float(dev @ dev))
    return worst


_N = 29
_SIGMA2_OBJECTIVES = {
    "quadratic": lambda: make_quadratic(5, _N, generator_seed=4,
                                        diag=np.linspace(0.5, 3.0, 5),
                                        shift_spread=2.0),
    "quadratic_matrix": lambda: make_quadratic(
        5, _N, generator_seed=4, matrix=np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        + 0.3 * np.ones((5, 5))),
    "logistic": lambda: make_logistic(7, _N, generator_seed=4, l2=0.01),
    "tiny_mlp": lambda: make_tiny_mlp((3, 4, 5, 2), _N, generator_seed=4),
}


@pytest.mark.parametrize("rows", [1, 7, _N])
@pytest.mark.parametrize("kind", sorted(_SIGMA2_OBJECTIVES))
def test_sigma2_is_bitwise_the_loop_of_single_sample_calls(kind, rows,
                                                            monkeypatch):
    obj = _SIGMA2_OBJECTIVES[kind]()
    x = np.random.default_rng(5).standard_normal(obj.dimension)
    want = _sigma2_by_single_calls(obj, x)
    monkeypatch.setattr(objectives, "_SIGMA2_BLOCK", rows * obj.dimension)
    assert _sigma2_at(obj, x).hex() == want.hex()
