import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from exsgd import optimizers
from exsgd.cluster import (EPOCH_PERMUTATION, ClusterConfig, draw_batches,
                           reduce_mean)
from exsgd.gates import QUAD, chain_mismatch, reduction_chains
from exsgd.harness import RunConfig
from exsgd.objectives import (batch_gradient, initial_point, make_logistic,
                              make_quadratic, make_tiny_mlp)
from exsgd.optimizers import (ANISO_STOCHASTIC, CONSTANT, INVERSE_SQRT,
                              ISO_GAUSSIAN, ISO_UNIFORM, SMOOTHOUT_SHARED,
                              WARMUP_CONSTANT, WARMUP_STEP_DECAY, HyperParams,
                              NoiseSpec, NumericAbort, PostLocalConfig,
                              Schedule, draw_noise_directions,
                              effective_gamma_hat, init_state, lr_series,
                              noise_second_moment, step_adam,
                              step_extrap_adam, step_extrap_sgd,
                              step_extrapolated_noise, step_minibatch_sgd,
                              step_nesterov, step_post_local, trust_scale,
                              warmup_increment, worker_dispersion)


def _scalar_quad(shifts=(1.0, 3.0)):
    """d=1 quadratic with A=1; full-batch gradient at x is x - mean(shifts)."""
    shifts = [[s] for s in shifts]
    return make_quadratic(1, len(shifts), shifts=shifts)


def _full_batches(obj, workers_K, t, seed=0):
    # epoch permutation with B=N: every batch is the whole dataset, so the
    # batch-mean gradient is deterministic no matter the permutation
    cfg = ClusterConfig(workers_K=workers_K, local_batch_B=obj.sample_count,
                        master_seed=seed, sampling_mode=EPOCH_PERMUTATION)
    return draw_batches(cfg, obj, t)


def test_sgd_single_step_hand_value():
    # grad at x=0 is 0 - mean{1,3} = -2, so x1 = 0 - 0.1 * (-2) = 0.2
    obj = _scalar_quad()
    st = init_state(initial_point(obj)[None], 1)
    step_minibatch_sgd(st, obj, _full_batches(obj, 1, 0), HyperParams(lr_gamma=0.1))
    assert st.x[0, 0] == 0.2
    assert st.step_t == 1


def test_nesterov_two_steps_match_scalar_recurrence():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 1)
    for t in range(2):
        step_nesterov(st, obj, _full_batches(obj, 1, t), hp)
    # mirror the recurrence in scalar arithmetic
    x, v = 0.0, 0.0
    for _ in range(2):
        half = x + 0.5 * v
        g = half - 2.0
        v = 0.5 * v - 0.1 * g
        x = x + v
    assert st.x[0, 0] == x
    assert st.v[0, 0] == v
    assert abs(st.x[0, 0] - 0.47) < 1e-15


def test_extrap_two_steps_match_scalar_recurrence():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 1)
    for t in range(2):
        step_extrap_sgd(st, obj, _full_batches(obj, 1, t), hp)
    x, v, past = 0.0, 0.0, 0.0
    for t in range(2):
        half = x if t == 0 else x - 0.05 * past     # no lookback at t=0
        half = half + 0.5 * v
        g = half - 2.0
        v = 0.5 * v - 0.1 * g
        x = x + v
        past = g
    assert st.x[0, 0] == x
    assert st.past_grad[0, 0, 0] == past
    assert abs(st.x[0, 0] - 0.46) < 1e-15


def test_extrapolation_skipped_at_step_zero():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.5, momentum_u=0.0)
    st = init_state(initial_point(obj)[None], 1)
    step_extrap_sgd(st, obj, _full_batches(obj, 1, 0), hp)
    assert st.last_info["z"] is None
    assert reduce_mean(st.last_info["halves"])[0, 0] == 0.0   # gradient taken at x0
    assert st.x[0, 0] == 0.2


def test_half_point_is_extrapolate_then_momentum():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 1)
    st.x = np.array([[1.0]])
    st.v = np.array([[0.4]])
    st.past_grad = np.array([[[-2.0]]])
    st.step_t = 3                                    # past data available
    step_extrap_sgd(st, obj, _full_batches(obj, 1, 3), hp)
    # x_half = (x - ghat * past) + u * v = 1.0 + 0.1 + 0.2
    assert (reduce_mean(st.last_info["halves"])[0, 0]
            == (1.0 - 0.05 * -2.0) + 0.5 * 0.4)


def test_gamma_hat_defaults_to_gamma_over_K():
    hp = HyperParams(lr_gamma=0.4)
    assert effective_gamma_hat(hp, 8) == 0.05
    assert effective_gamma_hat(HyperParams(lr_gamma=0.4, inner_lr_gamma_hat=0.3), 8) == 0.3


def _run_chain(step_fn, obj, hp, workers_K, steps, seed=0, **kw):
    cfg = ClusterConfig(workers_K=workers_K, local_batch_B=4, master_seed=seed)
    st = init_state(initial_point(obj)[None], workers_K)
    for t in range(steps):
        step_fn(st, obj, draw_batches(cfg, obj, t), hp, **kw)
    return st


def test_extrap_with_zero_gamma_hat_is_bitwise_nesterov():
    obj = make_logistic(5, 40, generator_seed=2, l2=0.01)
    hp = HyperParams(lr_gamma=0.2, inner_lr_gamma_hat=0.0, momentum_u=0.7)
    a = _run_chain(step_nesterov, obj, hp, 2, 60)
    b = _run_chain(step_extrap_sgd, obj, hp, 2, 60)
    assert_array_equal(a.x, b.x)
    assert_array_equal(a.v, b.v)


def test_nesterov_without_momentum_is_bitwise_sgd():
    obj = make_quadratic(4, 24, generator_seed=3, diag=[0.5, 1.0, 2.0, 4.0])
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.0)
    a = _run_chain(step_minibatch_sgd, obj, hp, 2, 60)
    b = _run_chain(step_nesterov, obj, hp, 2, 60)
    assert_array_equal(a.x, b.x)


def test_extrap_adam_with_zero_gamma_hat_is_bitwise_adam():
    obj = make_logistic(5, 40, generator_seed=4)
    hp = HyperParams(lr_gamma=0.01, inner_lr_gamma_hat=0.0)
    a = _run_chain(step_adam, obj, hp, 2, 60)
    b = _run_chain(step_extrap_adam, obj, hp, 2, 60)
    assert_array_equal(a.x, b.x)
    assert_array_equal(a.adam_m, b.adam_m)
    assert_array_equal(a.adam_v, b.adam_v)


_CHAIN_OBJECTIVES = {
    "quadratic": (lambda seed: make_quadratic(
        4, 32, generator_seed=seed, diag=[0.5, 1.0, 2.0, 3.0]), 0.05),
    "logistic": (lambda seed: make_logistic(5, 32, generator_seed=seed,
                                            l2=0.01), 0.2),
    "tiny_mlp": (lambda seed: make_tiny_mlp((3, 5, 1), 32,
                                            generator_seed=seed), 0.05),
}


@given(kind=st.sampled_from(sorted(_CHAIN_OBJECTIVES)),
       seed=st.integers(0, 2**31 - 1), workers=st.integers(1, 8),
       batch=st.integers(1, 32), u=st.floats(0.0, 0.95))
@settings(max_examples=25, deadline=None)
def test_reduction_chains_hold_for_random_clusters(kind, seed, workers, batch, u):
    # sgd = nesterov(u=0), nesterov(u) = extrap_sgd(gamma_hat=0, u) and
    # adam = extrap_adam(gamma_hat=0), bitwise at every one of 50 steps.
    make, gamma = _CHAIN_OBJECTIVES[kind]
    obj = make(seed % 1000)
    cfg = ClusterConfig(workers_K=workers, local_batch_B=batch, master_seed=seed)
    for reduced, parent, hp in reduction_chains(gamma, u):
        at = chain_mismatch(obj, cfg, reduced, parent, hp, 50)
        assert at is None, (f"{reduced.__name__} vs {parent.__name__} "
                            f"at step {at}")


def test_chain_mismatch_reports_the_step_a_perturbation_lands():
    # One ulp added to one coordinate after step 36 is caught at step 36,
    # and not before it.
    obj = make_quadratic(**QUAD)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=11)
    hp = HyperParams(lr_gamma=0.02, momentum_u=0.7)

    def perturbed(state, obj, batches, hp):
        step_nesterov(state, obj, batches, hp)
        if state.step_t == 37:
            state.x[0, 0] = np.nextafter(state.x[0, 0], np.inf)

    assert chain_mismatch(obj, cfg, perturbed, step_nesterov, hp, 60) == 36
    assert chain_mismatch(obj, cfg, perturbed, step_nesterov, hp, 36) is None


def test_adam_single_step_hand_formula():
    obj = _scalar_quad()        # g0 = -2 at x0 = 0
    hp = HyperParams(lr_gamma=0.1, adam_beta1=0.9, adam_beta2=0.98, adam_eps=1e-9)
    st = init_state(initial_point(obj)[None], 1)
    step_adam(st, obj, _full_batches(obj, 1, 0), hp)
    m = (1.0 - 0.9) * -2.0      # mirror the float ops, (1-b1) is not 0.1
    v = (1.0 - 0.98) * 4.0
    assert st.x[0, 0] == -(0.1 * m / (math.sqrt(v) + 1e-9))
    assert st.adam_m[0, 0] == m and st.adam_v[0, 0] == v


def test_extrap_adam_half_point_denominator_has_no_sqrt():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05,
                     adam_beta1=0.9, adam_beta2=0.98, adam_eps=1e-9)
    st = init_state(initial_point(obj)[None], 1)
    st.adam_m = np.array([[-0.2]])
    st.adam_v = np.array([[0.08]])
    st.past_grad = np.array([[[-2.0]]])
    st.step_t = 1
    step_extrap_adam(st, obj, _full_batches(obj, 1, 1), hp)
    num = 0.9 * -0.2 + (1.0 - 0.9) * -2.0
    den = 0.98 * 0.08 + (1.0 - 0.98) * 4.0 + 1e-9
    assert reduce_mean(st.last_info["halves"])[0, 0] == -(0.05 * num / den)

    st2 = init_state(initial_point(obj)[None], 1)
    st2.adam_m = np.array([[-0.2]])
    st2.adam_v = np.array([[0.08]])
    st2.past_grad = np.array([[[-2.0]]])
    st2.step_t = 1
    hp2 = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05, adam_beta1=0.9,
                      adam_beta2=0.98, adam_eps=1e-9, extrap_denominator_sqrt=True)
    step_extrap_adam(st2, obj, _full_batches(obj, 1, 1), hp2)
    assert (reduce_mean(st2.last_info["halves"])[0, 0]
            == -(0.05 * num / math.sqrt(den)))


def test_past_gradient_reuses_full_batch_evaluation():
    obj = make_quadratic(3, 20, generator_seed=5)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=1)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 2)
    batches = draw_batches(cfg, obj, 0)
    step_extrap_sgd(st, obj, batches, hp)
    for k in range(2):
        want = obj.quad_shifts[batches[0, k]].mean(axis=0)
        # half point at t=0 is x0 = 0, so the stored gradient is -mean(a_i)
        assert_array_equal(st.past_grad[0, k], -want)


def test_sub_batch_past_gradient_uses_leading_indices():
    obj = make_quadratic(3, 20, generator_seed=6)
    cfg = ClusterConfig(workers_K=1, local_batch_B=6, extrap_batch_b=2, master_seed=2)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 1)
    batches = draw_batches(cfg, obj, 0)
    step_extrap_sgd(st, obj, batches, hp, extrap_b=2)
    lead = batches[0, 0, :2]
    assert_array_equal(st.past_grad[0, 0], -obj.quad_shifts[lead].mean(axis=0))


def test_zero_lr_leaves_iterate_unchanged():
    obj = make_quadratic(2, 8, generator_seed=7)
    hp = HyperParams(lr_gamma=0.0, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 1)
    x0 = st.x.copy()
    for t in range(3):
        step_nesterov(st, obj, _full_batches(obj, 1, t), hp)
    assert_array_equal(st.x, x0)


def test_weight_decay_enters_gradient():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, weight_decay=0.5)
    st = init_state(initial_point(obj)[None], 1)
    st.x = np.array([[4.0]])
    step_minibatch_sgd(st, obj, _full_batches(obj, 1, 0), hp)
    g = (4.0 - 2.0) + 0.5 * 4.0
    assert st.x[0, 0] == 4.0 - 0.1 * g


def test_numeric_abort_on_divergence():
    obj = make_quadratic(1, 4, diag=[1e4], shifts=[[1.0], [2.0], [3.0], [4.0]])
    hp = HyperParams(lr_gamma=1.0)      # gamma L = 1e4: wildly unstable
    st = init_state(initial_point(obj)[None], 1)
    with pytest.raises(NumericAbort) as err, np.errstate(over="ignore"):
        for t in range(200):
            step_minibatch_sgd(st, obj, _full_batches(obj, 1, t), hp)
    assert err.value.step < 200
    assert "step" in str(err.value)


_SYNCED_STEPS = {"sgd": step_minibatch_sgd, "nesterov": step_nesterov,
                 "extrap_sgd": step_extrap_sgd, "adam": step_adam}


def _abort_of(step_fn, state, obj, batches, hp):
    with pytest.raises(NumericAbort) as err:
        step_fn(state, obj, batches, hp)
    return err.value.step, err.value.detail, err.value.trials


@pytest.mark.parametrize("method,lars,gamma,bad_shift", [
    (method, lars, gamma, 1e308) for method in _SYNCED_STEPS
    for lars in (0.0, 0.02) for gamma in (0.0, 0.05)
] + [pytest.param("sgd", 0.0, 5.0, 1e307, id="iterate")])
def test_one_check_step_aborts_as_the_gradient_first_step(
        monkeypatch, method, lars, gamma, bad_shift):
    # Three trials of K = 2 workers, B = 1.  Sample 5's shift overflows the
    # reduced gradient (1e308), or leaves it finite and overflows the
    # iterate (1e307 at gamma = 5); trials 1 and 2 draw it at step 2.
    # Trial 1 starts at nonzero weights and trial 2 at zero weights, which
    # LARS leaves at zero, so LARS meets both kinds of block.
    shifts = [[1.0, 1.0]] * 8
    shifts[5] = [bad_shift, bad_shift]
    obj = make_quadratic(2, 8, diag=[10.0, 10.0], shifts=shifts)
    hp = HyperParams(lr_gamma=gamma, momentum_u=0.5, lars_trust=lars)
    step_fn = _SYNCED_STEPS[method]
    state = init_state(np.array([[1.0, 1.0], [1.0, -2.0], [0.0, 0.0]]), 2)
    for good in ([[[0], [1]], [[2], [3]], [[4], [6]]],
                 [[[7], [0]], [[1], [2]], [[3], [4]]]):
        step_fn(state, obj, np.array(good), hp)
    batches = np.array([[[0], [1]], [[5], [2]], [[3], [5]]])
    info = state.last_info
    saved = {name: getattr(state, name).copy() for name in
             ("x", "v", "past_grad", "adam_m", "adam_v")}

    # The reference checks the reduced gradient as it is formed, then the
    # iterate.
    real_reduce = optimizers.reduce_mean

    def reduce_then_check(vectors):
        g = real_reduce(vectors)
        optimizers._check_finite(reference, "reduced gradient", g)
        return g

    reference = dataclasses.replace(state)
    with monkeypatch.context() as patch, np.errstate(over="ignore"):
        patch.setattr(optimizers, "reduce_mean", reduce_then_check)
        want = _abort_of(step_fn, reference, obj, batches, hp)
    assert want[1:] == ("reduced gradient" if bad_shift > 1e307 else "iterate",
                        [1, 2])

    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")      # an invalid operation fails
        assert _abort_of(step_fn, state, obj, batches, hp) == want
    for name, value in saved.items():
        assert_array_equal(getattr(state, name), value)
    assert state.step_t == 2 and state.last_info is info


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lr_gamma=-0.1).validate()
    with pytest.raises(ValueError):
        HyperParams(momentum_u=1.0).validate()
    with pytest.raises(ValueError):
        HyperParams(adam_eps=0.0).validate()
    HyperParams(lr_gamma=0.0).validate()    # degenerate but allowed


# ---------------------------------------------------------------------------
# noise-direction variants
# ---------------------------------------------------------------------------

def test_gaussian_noise_directions_replayable():
    obj = make_quadratic(4, 8)
    st = init_state(initial_point(obj)[None], 3)
    noise = NoiseSpec(kind=ISO_GAUSSIAN, raw_scale=0.3)
    dirs = draw_noise_directions(noise, st, [np.random.default_rng(12)], 3,
                                 obj.partition)[0]
    twin = np.random.default_rng(12)
    for k in range(3):
        assert_array_equal(dirs[k], 0.3 * twin.standard_normal(4))


def test_smoothout_noise_is_shared_across_workers():
    obj = make_quadratic(4, 8)
    st = init_state(initial_point(obj)[None], 3)
    noise = NoiseSpec(kind=SMOOTHOUT_SHARED, raw_scale=0.5)
    dirs = draw_noise_directions(noise, st, [np.random.default_rng(1)], 3,
                                 obj.partition)[0]
    assert_array_equal(dirs[0], dirs[1])
    assert_array_equal(dirs[0], dirs[2])
    assert np.all(np.abs(dirs[0]) <= 0.5)


def test_anisotropic_directions_are_centered_past_gradients():
    obj = make_quadratic(2, 8)
    st = init_state(initial_point(obj)[None], 2)
    st.past_grad = np.array([[[1.0, 3.0], [2.0, -1.0]]])
    dirs = draw_noise_directions(NoiseSpec(kind=ANISO_STOCHASTIC), st,
                                 [np.random.default_rng(0)], 2, obj.partition)[0]
    assert_array_equal(dirs[0] + dirs[1], np.zeros(2))  # exactly centered, K=2
    assert_array_equal(dirs[0], np.array([-0.5, 2.0]))


def test_filter_scaled_noise_matches_block_norms():
    obj = dataclasses.replace(make_quadratic(4, 8), partition=[(0, 2), (2, 4)])
    st = init_state(np.zeros((2, 4)), 3)
    st.x = np.array([[3.0, 4.0, 0.0, 0.0], [1.0, -2.0, 0.5, 0.25]])
    noise = NoiseSpec(kind=ISO_UNIFORM, raw_scale=1.0, filter_scaled=True)
    z = draw_noise_directions(noise, st, [np.random.default_rng(s) for s in (5, 6)],
                              3, obj.partition)
    assert_allclose(np.linalg.norm(z[0, :, :2], axis=-1), 5.0, rtol=1e-14)
    assert_array_equal(z[0, :, 2:], 0.0)    # zero-norm weight block stays quiet
    raw = draw_noise_directions(dataclasses.replace(noise, filter_scaled=False), st,
                                [np.random.default_rng(s) for s in (5, 6)],
                                3, obj.partition)
    want = _filter_scale_loop(raw, st.x, obj.partition)
    assert_array_equal(z.view(np.uint64), want.view(np.uint64))


def _stacked_fresh_draws(noise, rngs, workers, d):
    """The (R, K, d) noise of one step as a stack of fresh per-trial arrays:
    the reference form of `draw_noise_directions`' unscaled draws."""
    s = noise.raw_scale
    draws = {ISO_GAUSSIAN: lambda rng: s * rng.standard_normal((workers, d)),
             ISO_UNIFORM: lambda rng: rng.uniform(-s, s, (workers, d)),
             SMOOTHOUT_SHARED: lambda rng: np.broadcast_to(
                 rng.uniform(-s, s, d), (workers, d))}[noise.kind]
    return np.stack([draws(rng) for rng in rngs])


@given(kind=st.sampled_from([ISO_GAUSSIAN, ISO_UNIFORM, SMOOTHOUT_SHARED]),
       trials=st.integers(1, 3), workers=st.integers(1, 4), dim=st.integers(1, 6),
       raw_scale=st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(0.0, 1e6, allow_subnormal=True)),
       filter_scaled=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_noise_draws_are_bitwise_the_stacked_fresh_draws(
        kind, trials, workers, dim, raw_scale, filter_scaled, seed):
    noise = NoiseSpec(kind=kind, raw_scale=raw_scale, filter_scaled=filter_scaled)
    rng = np.random.default_rng(seed)
    partition = [(0, dim)] if dim == 1 else [(0, dim // 2), (dim // 2, dim)]
    st_ = init_state(_with_zeros(rng, rng.standard_normal((trials, dim)), partition),
                     workers)
    seeds = rng.integers(0, 2 ** 32, trials)
    got = draw_noise_directions(noise, st_, [np.random.default_rng(s) for s in seeds],
                                workers, partition)
    want = _stacked_fresh_draws(noise, [np.random.default_rng(s) for s in seeds],
                                workers, dim)
    if filter_scaled:
        want = trust_scale(want, st_.x, partition, 1.0, 0.0)
    assert got.shape == (trials, workers, dim)
    assert got.tobytes() == want.tobytes()


@given(trials=st.integers(1, 3), workers=st.integers(1, 4), dim=st.integers(1, 6),
       sqrt=st.booleans(), gamma_hat=st.floats(1e-4, 1.0),
       beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.999),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_adam_lookahead_is_bitwise_the_expression_form(
        trials, workers, dim, sqrt, gamma_hat, beta1, beta2, seed):
    rng = np.random.default_rng(seed)
    hp = HyperParams(inner_lr_gamma_hat=gamma_hat, adam_beta1=beta1,
                     adam_beta2=beta2, extrap_denominator_sqrt=sqrt)
    st_ = init_state(rng.standard_normal((trials, dim)), workers)
    st_.step_t = 1
    st_.past_grad = rng.standard_normal((trials, workers, dim))
    st_.adam_m = rng.standard_normal((trials, dim))
    st_.adam_v = rng.random((trials, dim)) ** 2
    pg, m1, m2 = st_.past_grad, st_.adam_m[:, None], st_.adam_v[:, None]
    num = beta1 * m1 + (1.0 - beta1) * pg
    den = beta2 * m2 + (1.0 - beta2) * pg * pg + hp.adam_eps
    if sqrt:
        den = np.sqrt(den)
    want = st_.x[:, None] - gamma_hat * num / den
    halves, z = optimizers.lookahead(st_, hp, workers, "adam")
    assert z is None and halves.shape == want.shape
    assert halves.tobytes() == want.tobytes()


def _oracle_spy(monkeypatch):
    """Record the `lead` of every oracle call a step makes."""
    leads, real = [], optimizers.batch_gradient

    def spy(obj, values, indices, **kwargs):
        leads.append(kwargs.get("lead"))
        return real(obj, values, indices, **kwargs)
    monkeypatch.setattr(optimizers, "batch_gradient", spy)
    return leads


_SUB_BATCH_B, _SUB_BATCH_LEAD = 8, 3


def _noise_sub_batch_run(kind):
    """A two-trial tiny-MLP extrap_noise set-up at b = 3 of B = 8, with LARS
    and (for the IID kinds) filter-scaled noise; batches of steps 0..3."""
    obj = make_tiny_mlp((3, 4, 2), 64, generator_seed=2)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.9, lars_trust=0.02)
    noise = NoiseSpec(kind=kind, raw_scale=0.1,
                      filter_scaled=kind != ANISO_STOCHASTIC)
    cfg = ClusterConfig(workers_K=3, local_batch_B=_SUB_BATCH_B,
                        extrap_batch_b=_SUB_BATCH_LEAD, master_seed=4)
    x0 = np.stack([initial_point(obj), initial_point(obj, init_scale=0.5)])
    return obj, hp, noise, x0, [draw_batches(cfg, obj, t, seeds=[4, 5]) for t in range(4)]


@pytest.mark.parametrize("kind", [ISO_GAUSSIAN, ISO_UNIFORM, SMOOTHOUT_SHARED])
def test_iid_noise_step_forms_no_leading_b_mean(monkeypatch, kind):
    # IID directions read no past gradient, so the step asks the oracle for
    # no leading-b mean, and every value it applies or reports is bitwise
    # that of the step which did form it and stored it.
    obj, hp, noise, x0, steps = _noise_sub_batch_run(kind)
    seeds = [11, 12]
    ref = init_state(x0, 3)
    leads = _oracle_spy(monkeypatch)
    st_ = init_state(x0, 3)
    for t, batches in enumerate(steps):
        halves, z = optimizers.lookahead(ref, hp, 3, "noise", noise, seeds,
                                         obj.partition)
        optimizers._synced_step(ref, obj, batches, hp, optimizers._MOMENTUM_RULE,
                                halves, z, _SUB_BATCH_LEAD)
        assert leads == [_SUB_BATCH_LEAD]
        leads.clear()
        step_extrapolated_noise(st_, obj, batches, hp, noise, seeds,
                                extrap_b=_SUB_BATCH_LEAD)
        assert leads == [None]
        leads.clear()
        assert st_.x.tobytes() == ref.x.tobytes()
        assert st_.v.tobytes() == ref.v.tobytes()
        assert st_.last_info.keys() == ref.last_info.keys()
        for name, value in ref.last_info.items():
            if value is None:
                assert st_.last_info[name] is None, (t, name)
            else:
                assert st_.last_info[name].tobytes() == value.tobytes(), (t, name)
    assert ref.last_info["z"] is not None


def test_anisotropic_noise_step_stores_the_leading_b_mean(monkeypatch):
    obj, hp, noise, x0, steps = _noise_sub_batch_run(ANISO_STOCHASTIC)
    leads = _oracle_spy(monkeypatch)
    st_ = init_state(x0, 3)
    for batches in steps:
        step_extrapolated_noise(st_, obj, batches, hp, noise, [11, 12],
                                extrap_b=_SUB_BATCH_LEAD)
        assert leads == [_SUB_BATCH_LEAD]
        leads.clear()
        _, want = batch_gradient(obj, st_.last_info["halves"], batches,
                                 lead=_SUB_BATCH_LEAD)
        assert st_.past_grad.tobytes() == want.tobytes()


def test_noise_second_moment_values():
    x = initial_point(make_quadratic(6, 4))
    assert noise_second_moment(NoiseSpec(ISO_GAUSSIAN, raw_scale=0.5), x) == 6 * 0.25
    assert noise_second_moment(NoiseSpec(ISO_UNIFORM, raw_scale=0.5), x) == 6 * 0.25 / 3
    assert noise_second_moment(NoiseSpec(ANISO_STOCHASTIC), x) is None
    assert noise_second_moment(
        NoiseSpec(ISO_GAUSSIAN, raw_scale=0.5, filter_scaled=True), x) is None
    assert noise_second_moment(
        NoiseSpec(ISO_GAUSSIAN, noise_sigma_hat2=2.5), x) == 2.5


def test_noise_step_worker_dev_zero_for_shared_kind():
    # identical half points average exactly for K a power of two
    obj = make_quadratic(3, 16, generator_seed=8)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=4)
    hp = HyperParams(lr_gamma=0.05, inner_lr_gamma_hat=0.02, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 2)
    for t in range(3):
        step_extrapolated_noise(st, obj, draw_batches(cfg, obj, t), hp,
                                NoiseSpec(SMOOTHOUT_SHARED, raw_scale=0.1), [9])
    halves = st.last_info["halves"][0]
    dev = halves - reduce_mean(halves)
    assert np.add.reduce(np.add.reduce(dev * dev, -1)) / len(halves) == 0.0


@pytest.mark.parametrize("kind", ["none", "bogus"])
def test_noise_step_without_a_drawing_kind_raises(kind):
    # RunConfig.validate rejects these kinds; a direct step call must not
    # extrapolate along some other kind's noise instead.
    obj = make_quadratic(3, 16, generator_seed=8)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=4)
    hp = HyperParams(lr_gamma=0.05, inner_lr_gamma_hat=0.02, momentum_u=0.5)
    st = init_state(initial_point(obj)[None], 2)
    noise = NoiseSpec(kind=kind, raw_scale=0.1)
    step_extrapolated_noise(st, obj, draw_batches(cfg, obj, 0), hp, noise, [9])
    x = st.x.copy()         # no worker extrapolates at step 0: no draw
    with pytest.raises(ValueError, match=repr(kind)):
        step_extrapolated_noise(st, obj, draw_batches(cfg, obj, 1), hp, noise,
                                [9])
    assert st.step_t == 1
    assert_array_equal(st.x, x)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="bogus").validate()
    with pytest.raises(ValueError):
        NoiseSpec(kind=ANISO_STOCHASTIC, filter_scaled=True).validate()
    with pytest.raises(ValueError, match="noise kind"):
        RunConfig(objective=make_quadratic(1, 2), method="extrap_noise",
                  noise=NoiseSpec(kind="none")).validate()


# ---------------------------------------------------------------------------
# layer-wise trust scaling
# ---------------------------------------------------------------------------

def test_lars_scale_hand_value():
    x = np.array([2.0, 0.0])
    g = np.array([0.0, 4.0])
    scaled = trust_scale(g, x, [(0, 2)], 1.0, 0.0)
    assert np.linalg.norm(scaled) / np.linalg.norm(g) == 0.5   # 1 * 2 / 4
    assert_array_equal(trust_scale(g, np.zeros(2), [(0, 2)], 1.0, 0.0), 0.0)
    assert_array_equal(trust_scale(np.zeros(2), x, [(0, 2)], 1.0, 0.0), 0.0)


def test_lars_weight_decay_in_denominator():
    x, g = np.array([3.0, 4.0]), np.array([0.0, 2.0])
    want = 0.1 * 5.0 / (2.0 + 0.5 * 5.0)
    assert_allclose(trust_scale(g, x, [(0, 2)], 0.1, 0.5), want * g, rtol=1e-15)


def test_apply_lars_is_blockwise():
    x = np.array([2.0, 0.0, 1.0])
    g = np.array([4.0, 0.0, 1.0])
    out = trust_scale(g, x, [(0, 2), (2, 3)], 1.0, 0.0)
    assert_allclose(out[:2], 0.5 * g[:2], rtol=1e-15)
    assert_allclose(out[2:], 1.0 * g[2:], rtol=1e-15)


def _lars_scale_loop(v, x, partition, trust, decay):
    """The reference trust scale: LARS one block of one row at a time, each
    zero-weight or zero-denominator block suppressed to +0.0."""
    x = np.broadcast_to(x if x.ndim == v.ndim else x[:, None], v.shape)
    out = np.empty_like(v)
    for row in np.ndindex(v.shape[:-1]):
        for start, stop in partition:
            g, w = v[row][start:stop], x[row][start:stop]
            x_norm = float(np.linalg.norm(w))
            denom = float(np.linalg.norm(g)) + decay * x_norm
            if x_norm == 0.0 or denom == 0.0:
                out[row][start:stop] = np.zeros_like(g)
            else:
                out[row][start:stop] = (trust * x_norm / denom) * g
    return out


def _filter_scale_loop(zeta, x, partition):
    """The reference filter scale: ||x_j|| zeta_j / ||zeta_j|| one block of
    one row at a time, zero-norm blocks (either side) left +0.0."""
    x = np.broadcast_to(x if x.ndim == zeta.ndim else x[:, None], zeta.shape)
    out = np.zeros_like(zeta)
    for row in np.ndindex(zeta.shape[:-1]):
        for start, stop in partition:
            x_norm = np.linalg.norm(x[row][start:stop])
            z_norm = np.linalg.norm(zeta[row][start:stop])
            if x_norm > 0.0 and z_norm > 0.0:
                out[row][start:stop] = (x_norm / z_norm) * zeta[row][start:stop]
    return out


def _with_zeros(rng, a, partition):
    """`a` with some blocks of rows all zero and some entries +0.0 or -0.0."""
    a = a.copy()
    for row in np.ndindex(a.shape[:-1]):
        for start, stop in partition:
            if rng.random() < 0.25:
                a[row][start:stop] = 0.0
    spots = rng.random(a.shape)
    a[spots < 0.1] = 0.0
    a[(spots >= 0.1) & (spots < 0.2)] = -0.0
    return a


@given(seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 3),
       workers=st.integers(1, 3), dim=st.integers(1, 7),
       x_shape=st.sampled_from(["(R, d)", "(R, 1, d)", "(R, K, d)", "flat"]),
       trust=st.floats(1e-3, 10.0), decay=st.floats(1e-3, 5.0))
@settings(max_examples=150, deadline=None)
def test_trust_scale_is_the_per_row_block_loop(seed, trials, workers, dim,
                                               x_shape, trust, decay):
    # "flat" is the (R, d) stack of a synchronized LARS step; the others are
    # an (R, K, d) stack of worker vectors against each x shape.
    rng = np.random.default_rng(seed)
    cuts = sorted(rng.choice(np.arange(1, dim), rng.integers(0, dim), replace=False))
    partition = list(zip([0] + cuts, cuts + [dim]))
    v_lead = (trials,) if x_shape == "flat" else (trials, workers)
    x_lead = {"(R, 1, d)": (trials, 1), "(R, K, d)": (trials, workers)}.get(
        x_shape, (trials,))
    v = _with_zeros(rng, rng.standard_normal(v_lead + (dim,)), partition)
    x = _with_zeros(rng, rng.standard_normal(x_lead + (dim,)), partition)
    for got, want in ((trust_scale(v, x, partition, trust, decay),
                       _lars_scale_loop(v, x, partition, trust, decay)),
                      (trust_scale(v, x, partition, 1.0, 0.0),
                       _filter_scale_loop(v, x, partition))):
        assert got.shape == v.shape
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lars_applies_to_sgd_update():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, lars_trust=1.0)
    st = init_state(initial_point(obj)[None], 1)
    st.x = np.array([[1.0]])
    step_minibatch_sgd(st, obj, _full_batches(obj, 1, 0), hp)
    # g = -1, trust ratio = 1 * |1| / |-1| = 1, update is -0.1 * (-1)
    assert st.x[0, 0] == 1.1


# ---------------------------------------------------------------------------
# post-local phase
# ---------------------------------------------------------------------------

def test_post_local_is_extrap_before_transition():
    obj = make_quadratic(3, 24, generator_seed=10)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=6)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    plc = PostLocalConfig(transition_step_t0=10 ** 9, local_steps_H=4)
    a = init_state(initial_point(obj)[None], 2)
    b = init_state(initial_point(obj)[None], 2)
    for t in range(20):
        step_extrap_sgd(a, obj, draw_batches(cfg, obj, t), hp)
        step_post_local(b, obj, draw_batches(cfg, obj, t), hp, plc)
    assert_array_equal(a.x, b.x)
    assert b.local_x is None


def test_post_local_dispersion_pattern():
    obj = make_quadratic(3, 64, generator_seed=11, shift_spread=2.0)
    cfg = ClusterConfig(workers_K=4, local_batch_B=4, master_seed=7)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.5)
    plc = PostLocalConfig(transition_step_t0=2, local_steps_H=3)
    st = init_state(initial_point(obj)[None], 4)
    seen_positive = 0
    for t in range(14):
        step_post_local(st, obj, draw_batches(cfg, obj, t), hp, plc)
        disp = worker_dispersion(st)[0]
        if t <= 2:
            assert disp == 0.0          # still synchronized
        elif t % 3 == 0:
            assert disp == 0.0          # averaging step: exact replicas
        else:
            assert disp > 0.0
            seen_positive += 1
    assert seen_positive >= 6


def test_post_local_dispersion_is_the_per_row_norm_max():
    obj = make_quadratic(5, 64, generator_seed=11, shift_spread=2.0)
    cfg = ClusterConfig(workers_K=4, local_batch_B=4)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.5)
    plc = PostLocalConfig(transition_step_t0=1, local_steps_H=4)
    x0 = np.random.default_rng(3).standard_normal((3, obj.dimension))
    st = init_state(x0, 4)
    seen_positive = 0
    for t in range(7):
        step_post_local(st, obj, draw_batches(cfg, obj, t, seeds=[1, 2, 3]),
                        hp, plc)
        want = [0.0] * 3 if st.local_x is None else [
            max(float(np.linalg.norm(row)) for row in trial)
            for trial in st.local_x - st.x[:, None]]
        got = worker_dispersion(st).tolist()
        assert [w.hex() for w in got] == [w.hex() for w in want]
        seen_positive += min(got) > 0.0
    assert seen_positive >= 3


def test_post_local_mean_is_published_iterate():
    obj = make_quadratic(2, 32, generator_seed=12)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=8)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.3)
    plc = PostLocalConfig(transition_step_t0=1, local_steps_H=5)
    st = init_state(initial_point(obj)[None], 2)
    for t in range(8):
        step_post_local(st, obj, draw_batches(cfg, obj, t), hp, plc)
    assert_array_equal(st.x[0], (st.local_x[0, 0] + st.local_x[0, 1]) / 2.0)


def test_post_local_momentum_reset_changes_trajectory():
    obj = make_quadratic(3, 32, generator_seed=13, shift_spread=2.0)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=9)
    plc = PostLocalConfig(transition_step_t0=3, local_steps_H=4)
    keep = init_state(initial_point(obj)[None], 2)
    drop = init_state(initial_point(obj)[None], 2)
    for t in range(10):
        step_post_local(keep, obj, draw_batches(cfg, obj, t),
                        HyperParams(lr_gamma=0.05, momentum_u=0.8), plc)
        step_post_local(drop, obj, draw_batches(cfg, obj, t),
                        HyperParams(lr_gamma=0.05, momentum_u=0.8,
                                    reset_local_momentum=True), plc)
    assert not np.array_equal(keep.x, drop.x)
    assert_array_equal(drop.local_v[0] * 0.0, 0.0)      # buffers exist


def test_post_local_applies_each_workers_lars_scaled_gradient():
    # With gamma = 1 and u = 0 each local buffer is exactly -g_used^k: the
    # worker's own gradient at its half point after per-worker LARS.  The
    # local phase reduces no gradient, so it reports no g_bar.
    obj = make_tiny_mlp((3, 4, 2), 64, generator_seed=4)
    cfg = ClusterConfig(workers_K=3, local_batch_B=4, master_seed=5)
    hp = HyperParams(lr_gamma=1.0, lars_trust=0.02)
    plc = PostLocalConfig(transition_step_t0=1, local_steps_H=2)
    st = init_state(initial_point(obj)[None], 3)
    for t in range(6):
        local_x = st.x if st.local_x is None else st.local_x   # weights before
        batches = draw_batches(cfg, obj, t)
        step_post_local(st, obj, batches, hp, plc)
        if t > 1:
            grads = batch_gradient(obj, st.last_info["halves"], batches)
            want = trust_scale(grads, local_x, obj.partition, 0.02, 0.0)
            assert_array_equal(-st.local_v, want)
            assert "g_bar" not in st.last_info


@pytest.mark.parametrize("workers_K", [1, 3])
@pytest.mark.parametrize("u", [0.0, 0.5])
@pytest.mark.parametrize("gamma_hat", [0.0, None])
@pytest.mark.parametrize("extrap_b,decay", [(None, 0.0), (2, 0.1)])
def test_post_local_looks_ahead_from_each_workers_own_point(
        workers_K, u, gamma_hat, extrap_b, decay):
    # The local phase evaluates at x^k - gamma_hat p^k + u v^k, built from the
    # state before the step, and reports the past gradients it used.
    obj = make_quadratic(3, 32, generator_seed=14, shift_spread=2.0)
    cfg = ClusterConfig(workers_K=workers_K, local_batch_B=4,
                        extrap_batch_b=extrap_b, master_seed=10)
    hp = HyperParams(lr_gamma=0.05, inner_lr_gamma_hat=gamma_hat,
                     momentum_u=u, weight_decay=decay)
    plc = PostLocalConfig(transition_step_t0=2, local_steps_H=3)
    st = init_state(initial_point(obj)[None], workers_K)
    ghat = effective_gamma_hat(hp, workers_K)
    for t in range(10):
        if st.local_x is None:
            xk, vk = st.x[:, None], st.v[:, None]
        else:
            xk, vk = st.local_x.copy(), st.local_v.copy()
        pk = st.past_grad.copy()
        step_post_local(st, obj, draw_batches(cfg, obj, t), hp, plc,
                        extrap_b=extrap_b)
        if t <= plc.transition_step_t0:
            continue
        halves = np.broadcast_to(xk - ghat * pk + u * vk, pk.shape)
        assert_array_equal(st.last_info["halves"], halves)
        assert_array_equal(reduce_mean(st.last_info["halves"]),
                           reduce_mean(halves))
        if ghat != 0.0:
            assert_array_equal(st.last_info["z"], pk)
            assert np.any(reduce_mean(st.last_info["z"]) != 0.0)
        else:
            assert st.last_info["z"] is None


def test_post_local_config_validation():
    with pytest.raises(ValueError):
        PostLocalConfig(transition_step_t0=-1).validate()
    with pytest.raises(ValueError):
        PostLocalConfig(local_steps_H=0).validate()


# ---------------------------------------------------------------------------
# learning-rate schedules
# ---------------------------------------------------------------------------

def test_constant_schedule_scales_base():
    sched = Schedule(kind=CONSTANT, base_lr=0.1, scale_factor=4.0)
    obj = make_quadratic(1, 8)
    cl = ClusterConfig(workers_K=1, local_batch_B=1)
    lrs = lr_series(sched, 1000, cl, obj)
    assert lrs[0] == lrs[999] == 0.4


def test_warmup_increment_hand_value():
    # base 0.1 scaled x32, 5 warmup epochs, N=50000, K=32, B=256:
    # increment = 3.1 / (5 * 50000 / 8192)
    obj = make_quadratic(1, 50000)
    cl = ClusterConfig(workers_K=32, local_batch_B=256)
    sched = Schedule(kind=WARMUP_CONSTANT, base_lr=0.1, scale_factor=32.0,
                     warmup_epochs=5)
    want = 3.1 / (5 * 50000 / 8192)
    assert abs(warmup_increment(sched, cl, obj) - want) < 1e-12
    t_done = math.ceil(5 * 50000 / 8192)
    lrs = lr_series(sched, t_done + 6, cl, obj)
    assert lrs[0] == 0.1
    assert lrs[t_done + 5] == pytest.approx(3.2, rel=1e-12)


def test_warmup_increment_is_zero_without_warmup_epochs():
    # No ramp: `_lr` starts at the peak and never reads the increment.
    obj = make_quadratic(1, 100)
    cl = ClusterConfig(workers_K=2, local_batch_B=10)
    sched = Schedule(kind=WARMUP_CONSTANT, base_lr=0.2, scale_factor=2.0,
                     warmup_epochs=0)
    assert warmup_increment(sched, cl, obj) == 0.0


def test_warmup_ramp_is_linear_and_clipped():
    obj = make_quadratic(1, 100)
    cl = ClusterConfig(workers_K=1, local_batch_B=10)
    sched = Schedule(kind=WARMUP_CONSTANT, base_lr=0.2, scale_factor=2.0,
                     warmup_epochs=2)     # 20 warmup steps
    inc = warmup_increment(sched, cl, obj)
    lrs = lr_series(sched, 3001, cl, obj)
    assert lrs[7] == pytest.approx(0.2 + 7 * inc, rel=1e-15)
    assert lrs[20] == 0.4
    assert lrs[3000] == 0.4


@pytest.mark.parametrize("kind", [WARMUP_CONSTANT, WARMUP_STEP_DECAY])
def test_zero_warmup_epochs_start_at_the_peak(kind):
    obj = make_quadratic(1, 100)
    cl = ClusterConfig(workers_K=1, local_batch_B=10)
    sched = Schedule(kind=kind, base_lr=0.1, scale_factor=4.0, warmup_epochs=0,
                     decay_milestones=(0.5,), total_steps=10)
    lrs = lr_series(sched, 10, cl, obj)
    decayed = 0.4 / 10.0 if kind == WARMUP_STEP_DECAY else 0.4
    assert lrs == [0.4] * 5 + [decayed] * 5


def test_step_decay_hits_exact_fractions():
    obj = make_quadratic(1, 100)
    cl = ClusterConfig(workers_K=1, local_batch_B=10)
    sched = Schedule(kind=WARMUP_STEP_DECAY, base_lr=0.2, scale_factor=2.0,
                     warmup_epochs=1, decay_milestones=(0.5, 0.75),
                     decay_factor=10.0, total_steps=100)
    peak = 0.4
    lrs = lr_series(sched, 100, cl, obj)
    assert lrs[40] == peak
    assert lrs[50] == peak / 10.0
    assert lrs[75] == peak / 100.0
    assert lrs[99] == peak / 100.0


def test_inverse_sqrt_schedule_shape():
    obj = make_quadratic(1, 8)
    cl = ClusterConfig(workers_K=1, local_batch_B=1)
    sched = Schedule(kind=INVERSE_SQRT, base_lr=0.3, warmup_steps_inverse_sqrt=100)
    lrs = lr_series(sched, 400, cl, obj)
    assert lrs[99] == 0.3                    # peak at t = W-1
    assert lrs[49] == 0.3 * 0.5              # mid-ramp
    assert lrs[399] == pytest.approx(0.15, rel=1e-12)


@pytest.mark.parametrize("spec", [
    HyperParams(lr_gamma=math.nan), HyperParams(inner_lr_gamma_hat=math.nan),
    HyperParams(lars_trust=math.nan), HyperParams(weight_decay=math.nan),
    HyperParams(adam_eps=math.nan), HyperParams(adam_beta1=math.nan),
    HyperParams(adam_beta2=1.0), NoiseSpec(ISO_GAUSSIAN, raw_scale=math.nan),
    NoiseSpec(ISO_GAUSSIAN, noise_sigma_hat2=math.nan),
    NoiseSpec(ISO_GAUSSIAN, noise_sigma_hat2=-1.0),
    Schedule(base_lr=math.nan), Schedule(decay_factor=math.nan),
])
def test_config_section_bounds_reject_nan_and_negatives(spec):
    with pytest.raises(ValueError, match="must"):
        spec.validate()


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(kind="bogus").validate()
    with pytest.raises(ValueError):
        Schedule(kind=CONSTANT, base_lr=0.0).validate()
    with pytest.raises(ValueError):
        Schedule(kind=WARMUP_STEP_DECAY, decay_milestones=(0.75, 0.5)).validate()


@pytest.mark.parametrize("field,value", [
    ("decay_factor", 0.0), ("decay_factor", -2.0), ("scale_factor", 0.0),
    ("scale_factor", -2.0), ("warmup_epochs", -1),
    ("warmup_steps_inverse_sqrt", 0), ("total_steps", -5),
])
def test_schedule_rejects_factors_that_break_lr_at(field, value):
    sched = Schedule(kind=WARMUP_STEP_DECAY, **{"total_steps": 100, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        sched.validate()
    with pytest.raises(ValueError, match=f"^{field} must be"):
        lr_series(sched, 61, ClusterConfig(workers_K=1, local_batch_B=1),
                  make_quadratic(1, 8))
