import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from exsgd.cluster import EPOCH_PERMUTATION, ClusterConfig, draw_batches
from exsgd.gates import QUAD, chain_mismatch, reduction_chains
from exsgd.objectives import (initial_point, make_logistic, make_quadratic,
                              make_tiny_mlp)
from exsgd.optimizers import (ANISO_STOCHASTIC, CONSTANT, INVERSE_SQRT,
                              ISO_GAUSSIAN, ISO_UNIFORM, SMOOTHOUT_SHARED,
                              WARMUP_CONSTANT, WARMUP_STEP_DECAY, HyperParams,
                              NoiseSpec, NumericAbort, PostLocalConfig,
                              Schedule, apply_lars, draw_noise_directions,
                              effective_gamma_hat, init_state, lars_scale,
                              lr_at, noise_second_moment, step_adam,
                              step_extrap_adam, step_extrap_sgd,
                              step_extrapolated_noise, step_minibatch_sgd,
                              step_nesterov, step_post_local,
                              warmup_increment)


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
    st = init_state(initial_point(obj), 1)
    step_minibatch_sgd(st, obj, _full_batches(obj, 1, 0), HyperParams(lr_gamma=0.1))
    assert st.x.values[0] == 0.2
    assert st.step_t == 1


def test_nesterov_two_steps_match_scalar_recurrence():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    st = init_state(initial_point(obj), 1)
    for t in range(2):
        step_nesterov(st, obj, _full_batches(obj, 1, t), hp)
    # mirror the recurrence in scalar arithmetic
    x, v = 0.0, 0.0
    for _ in range(2):
        half = x + 0.5 * v
        g = half - 2.0
        v = 0.5 * v - 0.1 * g
        x = x + v
    assert st.x.values[0] == x
    assert st.v[0] == v
    assert abs(st.x.values[0] - 0.47) < 1e-15


def test_extrap_two_steps_match_scalar_recurrence():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05, momentum_u=0.5)
    st = init_state(initial_point(obj), 1)
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
    assert st.x.values[0] == x
    assert st.past_grad[0][0] == past
    assert abs(st.x.values[0] - 0.46) < 1e-15


def test_extrapolation_skipped_at_step_zero():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.5, momentum_u=0.0)
    st = init_state(initial_point(obj), 1)
    step_extrap_sgd(st, obj, _full_batches(obj, 1, 0), hp)
    assert st.last_info["x_half_bar"][0] == 0.0     # gradient taken at x0
    assert st.x.values[0] == 0.2


def test_half_point_is_extrapolate_then_momentum():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05, momentum_u=0.5)
    st = init_state(initial_point(obj), 1)
    st.x.values = np.array([1.0])
    st.v = np.array([0.4])
    st.past_grad = [np.array([-2.0])]
    st.step_t = 3                                    # past data available
    step_extrap_sgd(st, obj, _full_batches(obj, 1, 3), hp)
    # x_half = (x - ghat * past) + u * v = 1.0 + 0.1 + 0.2
    assert st.last_info["x_half_bar"][0] == (1.0 - 0.05 * -2.0) + 0.5 * 0.4


def test_gamma_hat_defaults_to_gamma_over_K():
    hp = HyperParams(lr_gamma=0.4)
    assert effective_gamma_hat(hp, 8) == 0.05
    assert effective_gamma_hat(HyperParams(lr_gamma=0.4, inner_lr_gamma_hat=0.3), 8) == 0.3


def _run_chain(step_fn, obj, hp, workers_K, steps, seed=0, **kw):
    cfg = ClusterConfig(workers_K=workers_K, local_batch_B=4, master_seed=seed)
    st = init_state(initial_point(obj), workers_K)
    for t in range(steps):
        step_fn(st, obj, draw_batches(cfg, obj, t), hp, **kw)
    return st


def test_extrap_with_zero_gamma_hat_is_bitwise_nesterov():
    obj = make_logistic(5, 40, generator_seed=2, l2=0.01)
    hp = HyperParams(lr_gamma=0.2, inner_lr_gamma_hat=0.0, momentum_u=0.7)
    a = _run_chain(step_nesterov, obj, hp, 2, 60)
    b = _run_chain(step_extrap_sgd, obj, hp, 2, 60)
    assert_array_equal(a.x.values, b.x.values)
    assert_array_equal(a.v, b.v)


def test_nesterov_without_momentum_is_bitwise_sgd():
    obj = make_quadratic(4, 24, generator_seed=3, diag=[0.5, 1.0, 2.0, 4.0])
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.0)
    a = _run_chain(step_minibatch_sgd, obj, hp, 2, 60)
    b = _run_chain(step_nesterov, obj, hp, 2, 60)
    assert_array_equal(a.x.values, b.x.values)


def test_extrap_adam_with_zero_gamma_hat_is_bitwise_adam():
    obj = make_logistic(5, 40, generator_seed=4)
    hp = HyperParams(lr_gamma=0.01, inner_lr_gamma_hat=0.0)
    a = _run_chain(step_adam, obj, hp, 2, 60)
    b = _run_chain(step_extrap_adam, obj, hp, 2, 60)
    assert_array_equal(a.x.values, b.x.values)
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
            state.x.values[0] = np.nextafter(state.x.values[0], np.inf)

    assert chain_mismatch(obj, cfg, perturbed, step_nesterov, hp, 60) == 36
    assert chain_mismatch(obj, cfg, perturbed, step_nesterov, hp, 36) is None


def test_adam_single_step_hand_formula():
    obj = _scalar_quad()        # g0 = -2 at x0 = 0
    hp = HyperParams(lr_gamma=0.1, adam_beta1=0.9, adam_beta2=0.98, adam_eps=1e-9)
    st = init_state(initial_point(obj), 1)
    step_adam(st, obj, _full_batches(obj, 1, 0), hp)
    m = (1.0 - 0.9) * -2.0      # mirror the float ops, (1-b1) is not 0.1
    v = (1.0 - 0.98) * 4.0
    assert st.x.values[0] == -(0.1 * m / (math.sqrt(v) + 1e-9))
    assert st.adam_m[0] == m and st.adam_v[0] == v


def test_extrap_adam_half_point_denominator_has_no_sqrt():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05,
                     adam_beta1=0.9, adam_beta2=0.98, adam_eps=1e-9)
    st = init_state(initial_point(obj), 1)
    st.adam_m = np.array([-0.2])
    st.adam_v = np.array([0.08])
    st.past_grad = [np.array([-2.0])]
    st.step_t = 1
    step_extrap_adam(st, obj, _full_batches(obj, 1, 1), hp)
    num = 0.9 * -0.2 + (1.0 - 0.9) * -2.0
    den = 0.98 * 0.08 + (1.0 - 0.98) * 4.0 + 1e-9
    assert st.last_info["x_half_bar"][0] == -(0.05 * num / den)

    st2 = init_state(initial_point(obj), 1)
    st2.adam_m = np.array([-0.2])
    st2.adam_v = np.array([0.08])
    st2.past_grad = [np.array([-2.0])]
    st2.step_t = 1
    hp2 = HyperParams(lr_gamma=0.1, inner_lr_gamma_hat=0.05, adam_beta1=0.9,
                      adam_beta2=0.98, adam_eps=1e-9, extrap_denominator_sqrt=True)
    step_extrap_adam(st2, obj, _full_batches(obj, 1, 1), hp2)
    assert st2.last_info["x_half_bar"][0] == -(0.05 * num / math.sqrt(den))


def test_past_gradient_reuses_full_batch_evaluation():
    obj = make_quadratic(3, 20, generator_seed=5)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=1)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    st = init_state(initial_point(obj), 2)
    batches = draw_batches(cfg, obj, 0)
    step_extrap_sgd(st, obj, batches, hp)
    for k in range(2):
        want = obj.quad_shifts[batches[k]].mean(axis=0)
        # half point at t=0 is x0 = 0, so the stored gradient is -mean(a_i)
        assert_array_equal(st.past_grad[k], -want)


def test_sub_batch_past_gradient_uses_leading_indices():
    obj = make_quadratic(3, 20, generator_seed=6)
    cfg = ClusterConfig(workers_K=1, local_batch_B=6, extrap_batch_b=2, master_seed=2)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    st = init_state(initial_point(obj), 1)
    batches = draw_batches(cfg, obj, 0)
    step_extrap_sgd(st, obj, batches, hp, extrap_b=2)
    lead = batches[0, :2]
    assert_array_equal(st.past_grad[0], -obj.quad_shifts[lead].mean(axis=0))


def test_zero_lr_leaves_iterate_unchanged():
    obj = make_quadratic(2, 8, generator_seed=7)
    hp = HyperParams(lr_gamma=0.0, momentum_u=0.5)
    st = init_state(initial_point(obj), 1)
    x0 = st.x.values.copy()
    for t in range(3):
        step_nesterov(st, obj, _full_batches(obj, 1, t), hp)
    assert_array_equal(st.x.values, x0)


def test_weight_decay_enters_gradient():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, weight_decay=0.5)
    st = init_state(initial_point(obj), 1)
    st.x.values = np.array([4.0])
    step_minibatch_sgd(st, obj, _full_batches(obj, 1, 0), hp)
    g = (4.0 - 2.0) + 0.5 * 4.0
    assert st.x.values[0] == 4.0 - 0.1 * g


def test_numeric_abort_on_divergence():
    obj = make_quadratic(1, 4, diag=[1e4], shifts=[[1.0], [2.0], [3.0], [4.0]])
    hp = HyperParams(lr_gamma=1.0)      # gamma L = 1e4: wildly unstable
    st = init_state(initial_point(obj), 1)
    with pytest.raises(NumericAbort) as err, np.errstate(over="ignore"):
        for t in range(200):
            step_minibatch_sgd(st, obj, _full_batches(obj, 1, t), hp)
    assert err.value.step < 200
    assert "step" in str(err.value)


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
    st = init_state(initial_point(obj), 3)
    noise = NoiseSpec(kind=ISO_GAUSSIAN, raw_scale=0.3)
    dirs = draw_noise_directions(noise, st, np.random.default_rng(12), 3)
    twin = np.random.default_rng(12)
    for k in range(3):
        assert_array_equal(dirs[k], 0.3 * twin.standard_normal(4))


def test_smoothout_noise_is_shared_across_workers():
    obj = make_quadratic(4, 8)
    st = init_state(initial_point(obj), 3)
    noise = NoiseSpec(kind=SMOOTHOUT_SHARED, raw_scale=0.5)
    dirs = draw_noise_directions(noise, st, np.random.default_rng(1), 3)
    assert_array_equal(dirs[0], dirs[1])
    assert_array_equal(dirs[0], dirs[2])
    assert np.all(np.abs(dirs[0]) <= 0.5)


def test_anisotropic_directions_are_centered_past_gradients():
    obj = make_quadratic(2, 8)
    st = init_state(initial_point(obj), 2)
    st.past_grad = [np.array([1.0, 3.0]), np.array([2.0, -1.0])]
    dirs = draw_noise_directions(NoiseSpec(kind=ANISO_STOCHASTIC), st,
                                 np.random.default_rng(0), 2)
    assert_array_equal(dirs[0] + dirs[1], np.zeros(2))  # exactly centered, K=2
    assert_array_equal(dirs[0], np.array([-0.5, 2.0]))


def test_filter_scaled_noise_matches_block_norms():
    obj = make_quadratic(4, 8)
    st = init_state(initial_point(obj), 1)
    st.x.values = np.array([3.0, 4.0, 0.0, 0.0])
    st.x.partition = [(0, 2), (2, 4)]
    noise = NoiseSpec(kind=ISO_UNIFORM, raw_scale=1.0, filter_scaled=True)
    z, = draw_noise_directions(noise, st, np.random.default_rng(5), 1)
    assert_allclose(np.linalg.norm(z[:2]), 5.0, rtol=1e-14)
    assert_array_equal(z[2:], 0.0)      # zero-norm weight block stays quiet


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
    st = init_state(initial_point(obj), 2)
    rng = np.random.default_rng(9)
    for t in range(3):
        step_extrapolated_noise(st, obj, draw_batches(cfg, obj, t), hp,
                                NoiseSpec(SMOOTHOUT_SHARED, raw_scale=0.1), rng)
    assert st.last_info["worker_dev2"] == 0.0


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="bogus").validate()
    with pytest.raises(ValueError):
        NoiseSpec(kind=ANISO_STOCHASTIC, filter_scaled=True).validate()
    with pytest.raises(ValueError):
        obj = make_quadratic(1, 2)
        st = init_state(initial_point(obj), 1)
        step_extrapolated_noise(st, obj, _full_batches(obj, 1, 0),
                                HyperParams(lr_gamma=0.1),
                                NoiseSpec(kind="none"), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# layer-wise trust scaling
# ---------------------------------------------------------------------------

def test_lars_scale_hand_value():
    hp = HyperParams(lr_gamma=1.0, lars_trust=1.0, weight_decay=0.0)
    x = np.array([2.0, 0.0])
    g = np.array([0.0, 4.0])
    scaled = lars_scale(g, x, hp)
    assert np.linalg.norm(scaled) / np.linalg.norm(g) == 0.5   # 1 * 2 / 4
    assert_array_equal(lars_scale(g, np.zeros(2), hp), 0.0)
    assert_array_equal(lars_scale(np.zeros(2), x, hp), 0.0)


def test_lars_weight_decay_in_denominator():
    hp = HyperParams(lr_gamma=1.0, lars_trust=0.1, weight_decay=0.5)
    x, g = np.array([3.0, 4.0]), np.array([0.0, 2.0])
    want = 0.1 * 5.0 / (2.0 + 0.5 * 5.0)
    assert_allclose(lars_scale(g, x, hp), want * g, rtol=1e-15)


def test_apply_lars_is_blockwise():
    hp = HyperParams(lr_gamma=1.0, lars_trust=1.0)
    x = np.array([2.0, 0.0, 1.0])
    g = np.array([4.0, 0.0, 1.0])
    out = apply_lars(g, x, [(0, 2), (2, 3)], hp)
    assert_allclose(out[:2], 0.5 * g[:2], rtol=1e-15)
    assert_allclose(out[2:], 1.0 * g[2:], rtol=1e-15)


def test_lars_applies_to_sgd_update():
    obj = _scalar_quad()
    hp = HyperParams(lr_gamma=0.1, lars_trust=1.0)
    st = init_state(initial_point(obj), 1)
    st.x.values = np.array([1.0])
    step_minibatch_sgd(st, obj, _full_batches(obj, 1, 0), hp)
    # g = -1, trust ratio = 1 * |1| / |-1| = 1, update is -0.1 * (-1)
    assert st.x.values[0] == 1.1


# ---------------------------------------------------------------------------
# post-local phase
# ---------------------------------------------------------------------------

def test_post_local_is_extrap_before_transition():
    obj = make_quadratic(3, 24, generator_seed=10)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=6)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    plc = PostLocalConfig(transition_step_t0=10 ** 9, local_steps_H=4)
    a = init_state(initial_point(obj), 2)
    b = init_state(initial_point(obj), 2)
    for t in range(20):
        step_extrap_sgd(a, obj, draw_batches(cfg, obj, t), hp)
        step_post_local(b, obj, draw_batches(cfg, obj, t), hp, plc)
    assert_array_equal(a.x.values, b.x.values)
    assert b.local_x is None


def test_post_local_dispersion_pattern():
    obj = make_quadratic(3, 64, generator_seed=11, shift_spread=2.0)
    cfg = ClusterConfig(workers_K=4, local_batch_B=4, master_seed=7)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.5)
    plc = PostLocalConfig(transition_step_t0=2, local_steps_H=3)
    st = init_state(initial_point(obj), 4)
    seen_positive = 0
    for t in range(14):
        step_post_local(st, obj, draw_batches(cfg, obj, t), hp, plc)
        disp = st.last_info["worker_dispersion"]
        if t <= 2:
            assert disp == 0.0          # still synchronized
        elif t % 3 == 0:
            assert disp == 0.0          # averaging step: exact replicas
        else:
            assert disp > 0.0
            seen_positive += 1
    assert seen_positive >= 6


def test_post_local_mean_is_published_iterate():
    obj = make_quadratic(2, 32, generator_seed=12)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=8)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.3)
    plc = PostLocalConfig(transition_step_t0=1, local_steps_H=5)
    st = init_state(initial_point(obj), 2)
    for t in range(8):
        step_post_local(st, obj, draw_batches(cfg, obj, t), hp, plc)
    assert_array_equal(st.x.values, (st.local_x[0] + st.local_x[1]) / 2.0)


def test_post_local_momentum_reset_changes_trajectory():
    obj = make_quadratic(3, 32, generator_seed=13, shift_spread=2.0)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=9)
    plc = PostLocalConfig(transition_step_t0=3, local_steps_H=4)
    keep = init_state(initial_point(obj), 2)
    drop = init_state(initial_point(obj), 2)
    for t in range(10):
        step_post_local(keep, obj, draw_batches(cfg, obj, t),
                        HyperParams(lr_gamma=0.05, momentum_u=0.8), plc)
        step_post_local(drop, obj, draw_batches(cfg, obj, t),
                        HyperParams(lr_gamma=0.05, momentum_u=0.8,
                                    reset_local_momentum=True), plc)
    assert not np.array_equal(keep.x.values, drop.x.values)
    assert_array_equal(drop.local_v[0] * 0.0, 0.0)      # buffers exist


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
    assert lr_at(sched, 0, cl, obj) == lr_at(sched, 999, cl, obj) == 0.4


def test_warmup_increment_hand_value():
    # base 0.1 scaled x32, 5 warmup epochs, N=50000, K=32, B=256:
    # increment = 3.1 / (5 * 50000 / 8192)
    obj = make_quadratic(1, 50000)
    cl = ClusterConfig(workers_K=32, local_batch_B=256)
    sched = Schedule(kind=WARMUP_CONSTANT, base_lr=0.1, scale_factor=32.0,
                     warmup_epochs=5)
    want = 3.1 / (5 * 50000 / 8192)
    assert abs(warmup_increment(sched, cl, obj) - want) < 1e-12
    assert lr_at(sched, 0, cl, obj) == 0.1
    t_done = math.ceil(5 * 50000 / 8192)
    assert lr_at(sched, t_done + 5, cl, obj) == pytest.approx(3.2, rel=1e-12)


def test_warmup_ramp_is_linear_and_clipped():
    obj = make_quadratic(1, 100)
    cl = ClusterConfig(workers_K=1, local_batch_B=10)
    sched = Schedule(kind=WARMUP_CONSTANT, base_lr=0.2, scale_factor=2.0,
                     warmup_epochs=2)     # 20 warmup steps
    inc = warmup_increment(sched, cl, obj)
    assert lr_at(sched, 7, cl, obj) == pytest.approx(0.2 + 7 * inc, rel=1e-15)
    assert lr_at(sched, 20, cl, obj) == 0.4
    assert lr_at(sched, 3000, cl, obj) == 0.4


def test_step_decay_hits_exact_fractions():
    obj = make_quadratic(1, 100)
    cl = ClusterConfig(workers_K=1, local_batch_B=10)
    sched = Schedule(kind=WARMUP_STEP_DECAY, base_lr=0.2, scale_factor=2.0,
                     warmup_epochs=1, decay_milestones=(0.5, 0.75),
                     decay_factor=10.0, total_steps=100)
    peak = 0.4
    assert lr_at(sched, 40, cl, obj) == peak
    assert lr_at(sched, 50, cl, obj) == peak / 10.0
    assert lr_at(sched, 75, cl, obj) == peak / 100.0
    assert lr_at(sched, 99, cl, obj) == peak / 100.0


def test_inverse_sqrt_schedule_shape():
    obj = make_quadratic(1, 8)
    cl = ClusterConfig(workers_K=1, local_batch_B=1)
    sched = Schedule(kind=INVERSE_SQRT, base_lr=0.3, warmup_steps_inverse_sqrt=100)
    assert lr_at(sched, 99, cl, obj) == 0.3                    # peak at t = W-1
    assert lr_at(sched, 49, cl, obj) == 0.3 * 0.5              # mid-ramp
    assert lr_at(sched, 399, cl, obj) == pytest.approx(0.15, rel=1e-12)
    with pytest.raises(ValueError):
        lr_at(sched, -1, cl, obj)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(kind="bogus").validate()
    with pytest.raises(ValueError):
        Schedule(kind=CONSTANT, base_lr=0.0).validate()
    with pytest.raises(ValueError):
        Schedule(kind=WARMUP_STEP_DECAY, decay_milestones=(0.75, 0.5)).validate()
