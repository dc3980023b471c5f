import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from exsgd.cluster import ClusterConfig, draw_batches, reduce_mean
from exsgd import theory
from exsgd.gates import rate_bound_hold_fraction, replay_trials
from exsgd.objectives import (TheoryConstants, batch_gradient,
                              estimate_constants, initial_point, make_logistic, make_quadratic, make_tiny_mlp)
from exsgd.optimizers import (HyperParams, effective_gamma_hat, init_state,
                              step_extrap_sgd, step_nesterov)
from exsgd.theory import (EXTRAP_NOISE, EXTRAP_SGD, NESTEROV, POST_LOCAL, SGD,
                          build_virtual_sequence, check_descent_identity,
                          check_proximity_inequalities, critical_batch_size,
                          epsilon_horizon, finish_report, rate_bound,
                          smoothness_estimate, smoothness_estimates,
                          stepsize_cap, tune_stepsize,
                          tuned_hyperparams)

# one shared problem scale for the closed-form oracles below
CONSTS = TheoryConstants(lipschitz_L=2.0, variance_sigma2=8.0, f_star=0.0,
                         r0=1.0, horizon_T=1000)
CLUSTER = ClusterConfig(workers_K=2, local_batch_B=4)      # KB = 8


# ---------------------------------------------------------------------------
# closed-form bounds, hand-computed oracles
# ---------------------------------------------------------------------------

def test_sgd_bound_hand_value():
    # 2 r0/(gamma T) + gamma L sigma^2/(KB) = 0.2 + 0.2
    rep = rate_bound(SGD, CONSTS, HyperParams(lr_gamma=0.1), CLUSTER, 100)
    assert_allclose(rep.bound_value, 0.4, rtol=1e-12)
    assert rep.stepsize_cap == 0.5
    assert rep.holds is None                   # nothing measured yet


def test_nesterov_bound_hand_value():
    # bracket = 0.5/10 + 0.1*2/(2*0.25) = 0.45; prefactor 1/(1 - 0.45)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    rep = rate_bound(NESTEROV, CONSTS, hp, CLUSTER, 100)
    assert_allclose(rep.bound_value, 0.45 / 0.55, rtol=1e-12)
    assert_allclose(rep.stepsize_cap, 2.0 * 0.25 / (2.0 * 1.125), rtol=1e-15)


def test_nesterov_bound_is_infinite_at_the_cap():
    cap = stepsize_cap(NESTEROV, CONSTS, 0.5)
    rep = rate_bound(NESTEROV, CONSTS,
                     HyperParams(lr_gamma=cap, momentum_u=0.5), CLUSTER, 100)
    assert math.isinf(rep.bound_value)


def test_extrap_bound_hand_value():
    # 0.25 + (4*0.02^2*4/4 + 0.04*2*2.5/(0.25*8)) * 8 = 0.25 + 0.8128
    hp = HyperParams(lr_gamma=0.04, momentum_u=0.5)    # gamma_hat -> 0.02
    rep = rate_bound(EXTRAP_SGD, CONSTS, hp, CLUSTER, 100)
    assert_allclose(rep.bound_value, 1.0628, rtol=1e-12)
    assert rep.constants_used["gamma_hat"] == 0.02
    assert rep.constants_used["b"] == 4


def test_noise_bound_hand_value():
    # 0.25 + 0.48 + (4 + 0.5/0.01) * 2*0.02^2*100*0.5 = 0.25 + 0.48 + 2.16
    hp = HyperParams(lr_gamma=0.04, inner_lr_gamma_hat=0.02, momentum_u=0.5)
    rep = rate_bound(EXTRAP_NOISE, CONSTS, hp, CLUSTER, 100, sigma_hat2=0.5)
    assert_allclose(rep.bound_value, 2.89, rtol=1e-12)


def test_bound_validity_caps_are_enforced():
    with pytest.raises(ValueError):
        rate_bound(SGD, CONSTS, HyperParams(lr_gamma=0.6), CLUSTER, 100)
    with pytest.raises(ValueError):
        rate_bound(SGD, CONSTS, HyperParams(lr_gamma=0.0), CLUSTER, 100)
    with pytest.raises(ValueError):
        rate_bound(SGD, CONSTS, HyperParams(lr_gamma=0.1), CLUSTER, 0)
    with pytest.raises(ValueError):     # gamma_hat above u^2 gamma/(1-u)^2
        rate_bound(EXTRAP_SGD, CONSTS,
                   HyperParams(lr_gamma=0.04, inner_lr_gamma_hat=0.05,
                               momentum_u=0.5), CLUSTER, 100)
    with pytest.raises(ValueError):     # noise variant is momentum-only
        rate_bound(EXTRAP_NOISE, CONSTS,
                   HyperParams(lr_gamma=0.04, inner_lr_gamma_hat=0.01),
                   CLUSTER, 100, sigma_hat2=0.5)
    with pytest.raises(ValueError):     # missing noise second moment
        rate_bound(EXTRAP_NOISE, CONSTS,
                   HyperParams(lr_gamma=0.04, inner_lr_gamma_hat=0.01,
                               momentum_u=0.5), CLUSTER, 100)
    with pytest.raises(ValueError):
        rate_bound("adam", CONSTS, HyperParams(lr_gamma=0.01), CLUSTER, 100)
    # post_local's local phase drifts: it has no closed-form bound
    with pytest.raises(ValueError, match="no rate bound"):
        stepsize_cap(POST_LOCAL, CONSTS, 0.5)
    with pytest.raises(ValueError, match="no rate bound"):
        rate_bound(POST_LOCAL, CONSTS,
                   HyperParams(lr_gamma=0.04, momentum_u=0.5), CLUSTER, 100)
    with pytest.raises(ValueError, match="no critical batch size"):
        critical_batch_size(POST_LOCAL, CONSTS, 0.5)


def test_rate_bound_hold_fraction_refuses_trials_without_a_rate_report():
    # Sample 5's shift 1e308 overflows every step whose batch holds it, so
    # each of the six trials aborts within 20 steps and has no rate report.
    shifts = [[1.0, 1.0]] * 32
    shifts[5] = [1e308, 1e308]
    obj = make_quadratic(2, 32, diag=[10.0, 10.0], shifts=shifts)
    cluster = ClusterConfig(workers_K=2, local_batch_B=1)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^extrap_sgd: 6 of 6 trials have no rate report$"):
        rate_bound_hold_fraction(obj, EXTRAP_SGD, cluster, 20, 0.5, 6, 3)


def test_finish_report_fills_measurements():
    rep = rate_bound(SGD, CONSTS, HyperParams(lr_gamma=0.1), CLUSTER, 100)
    finish_report(rep, [0.5, 0.3, 0.2])
    assert rep.measured_min_grad_norm2 == 0.2
    assert_allclose(rep.measured_avg_grad_norm2, 1.0 / 3.0, rtol=1e-15)
    assert rep.holds is True            # 1/3 <= 0.4
    rep2 = rate_bound(SGD, CONSTS, HyperParams(lr_gamma=0.1), CLUSTER, 100)
    finish_report(rep2, [0.5, 0.6])
    assert rep2.holds is False
    with pytest.raises(ValueError, match="^empty gradient-norm series$"):
        finish_report(rep2, [])


# ---------------------------------------------------------------------------
# stepsize tuning and batch-size limits
# ---------------------------------------------------------------------------

def test_tuned_stepsize_two_case_rule():
    # statistics-dominated: candidate sqrt(2 r0 KB/(L sigma^2 T)) = 0.1 < cap
    got = tune_stepsize(SGD, CONSTS, CLUSTER, 100)
    assert_allclose(got, math.sqrt(2.0 * 8.0 / (2.0 * 8.0 * 100)), rtol=1e-15)
    # optimization-dominated: tiny horizon clips at the cap 1/L
    assert tune_stepsize(SGD, CONSTS, CLUSTER, 1) == 0.5
    noiseless = TheoryConstants(lipschitz_L=2.0, variance_sigma2=0.0,
                                f_star=0.0, r0=1.0)
    assert tune_stepsize(SGD, noiseless, CLUSTER, 100) == 0.5
    with pytest.raises(ValueError, match="^horizon_T must be >= 1$"):
        tune_stepsize(SGD, CONSTS, CLUSTER, 0)


def test_tuned_stepsize_momentum_variants():
    u = 0.5
    scale = 2.0 * 1.0 * 8.0 / (2.0 * 8.0 * 400)
    assert_allclose(tune_stepsize(NESTEROV, CONSTS, CLUSTER, 400, u),
                    math.sqrt(scale * 0.5 ** 3), rtol=1e-15)
    assert_allclose(
        tune_stepsize(EXTRAP_SGD, CONSTS, CLUSTER, 400, u),
        math.sqrt(scale * (0.125 + 1.5 + 1.0) * 0.5 ** 3 / 10.5), rtol=1e-15)
    assert_allclose(tune_stepsize(EXTRAP_NOISE, CONSTS, CLUSTER, 400, u),
                    math.sqrt(scale * 0.5 ** 3 / 1.5), rtol=1e-15)


def test_tuned_hyperparams_pick_admissible_gamma_hat():
    hp = tuned_hyperparams(EXTRAP_SGD, CONSTS, CLUSTER, 400, momentum_u=0.5)
    # u^2/(1-u)^2 = 1 at u = 0.5, so gamma/K = gamma/2 is the tighter cap
    assert hp.inner_lr_gamma_hat == hp.lr_gamma / 2.0
    assert tuned_hyperparams(EXTRAP_SGD, CONSTS, CLUSTER, 400).inner_lr_gamma_hat == 0.0
    assert tuned_hyperparams(NESTEROV, CONSTS, CLUSTER, 400, 0.5).inner_lr_gamma_hat is None
    # the tuned pair must evaluate without tripping the validity caps
    rate_bound(EXTRAP_SGD, CONSTS, hp, CLUSTER, 400)


def test_critical_batch_size_hand_values():
    # base = sigma^2 T/(L r0) = 8 * 1000 / 2 = 4000
    assert_allclose(critical_batch_size(SGD, CONSTS), 4000.0, rtol=1e-12)
    assert_allclose(critical_batch_size(NESTEROV, CONSTS, 0.5),
                    4000.0 * 0.5 / 1.125 ** 2, rtol=1e-12)
    assert_allclose(critical_batch_size(EXTRAP_SGD, CONSTS, 0.5),
                    4000.0 * 10.5 * 0.5 / 2.625 ** 3, rtol=1e-12)
    no_horizon = TheoryConstants(lipschitz_L=2.0, variance_sigma2=8.0,
                                 f_star=0.0, r0=1.0)
    with pytest.raises(ValueError):
        critical_batch_size(SGD, no_horizon)


@pytest.mark.parametrize("lipschitz_L", [0.0, -1.0, math.nan])
def test_bounds_refuse_a_nonpositive_lipschitz_constant(lipschitz_L):
    # Every rate-bound, tuning and speedup path goes through stepsize_cap,
    # which would divide by L.
    flat = dataclasses.replace(CONSTS, lipschitz_L=lipschitz_L)
    for method in (SGD, NESTEROV, EXTRAP_SGD, EXTRAP_NOISE):
        with pytest.raises(ValueError, match="lipschitz_L > 0"):
            stepsize_cap(method, flat, 0.5)
    with pytest.raises(ValueError, match="lipschitz_L > 0"):
        rate_bound(SGD, flat, HyperParams(lr_gamma=0.1), CLUSTER, 100)
    with pytest.raises(ValueError, match="lipschitz_L > 0"):
        tune_stepsize(NESTEROV, flat, CLUSTER, 100, 0.5)
    with pytest.raises(ValueError, match="lipschitz_L > 0"):
        epsilon_horizon(SGD, flat, CLUSTER, 0.1)


@pytest.mark.parametrize("field,value", [
    ("lipschitz_L", -1.0), ("variance_sigma2", -1.0), ("r0", -1.0),
    ("lipschitz_L", math.nan), ("variance_sigma2", math.nan), ("r0", math.nan),
])
def test_theory_constants_refuse_a_negative_or_nan_entry(field, value):
    with pytest.raises(ValueError, match="^TheoryConstants entries must be nonnegative$"):
        dataclasses.replace(CONSTS, **{field: value}).validate()


@pytest.mark.parametrize("field,value", [
    ("lipschitz_L", math.inf), ("variance_sigma2", math.inf), ("r0", math.inf),
    ("f_star", math.inf), ("f_star", -math.inf), ("f_star", math.nan),
])
def test_theory_constants_refuse_a_non_finite_entry_by_name(field, value):
    # A NaN L, sigma^2 or r0 is refused as not nonnegative (above).
    with pytest.raises(ValueError, match=f"^theory constant {field} must be "
                                         f"finite, got {value}$"):
        dataclasses.replace(CONSTS, **{field: value}).validate()


@pytest.mark.parametrize("lipschitz_L,r0", [(0.0, 1.0), (2.0, 0.0),
                                            (2.0, -1.0)])
def test_critical_batch_size_refuses_a_zero_scale(lipschitz_L, r0):
    # sigma^2 T / (L r0) has no value when L r0 <= 0 (r0 = 0: x0 is optimal).
    consts = dataclasses.replace(CONSTS, lipschitz_L=lipschitz_L, r0=r0)
    for method in (SGD, NESTEROV, EXTRAP_SGD):
        with pytest.raises(ValueError, match=r"lipschitz_L \* r0 > 0"):
            critical_batch_size(method, consts, 0.5)


def test_epsilon_horizon_boundary():
    # tuned sgd bound is 4/sqrt(T) here, so eps = 0.1 needs T ~ 1600
    t_star = epsilon_horizon(SGD, CONSTS, CLUSTER, 0.1)
    assert abs(t_star - 1600) <= 1

    def bound_at(T):
        hp = tuned_hyperparams(SGD, CONSTS, CLUSTER, T)
        return rate_bound(SGD, CONSTS, hp, CLUSTER, T).bound_value

    assert bound_at(t_star) <= 0.1 < bound_at(t_star - 1)
    with pytest.raises(ValueError):
        epsilon_horizon(SGD, CONSTS, CLUSTER, 0.0)
    # 4/sqrt(T) is still above 1e-9 at the last doubling, T = 2**50.
    with pytest.raises(ValueError, match="^bound never reaches epsilon=1e-09$"):
        epsilon_horizon(SGD, CONSTS, CLUSTER, 1e-9)
    # extrap_noise's bound grows with T; no horizon is searched for it.
    with pytest.raises(ValueError,
                       match=r"^sigma_hat2 \(noise second moment\) is required$"):
        epsilon_horizon(EXTRAP_NOISE, CONSTS, CLUSTER, 0.1, 0.5)


def test_epsilon_horizon_scaling_with_batch():
    # below the critical batch size the tuned bound is ~1/sqrt(KB T), so
    # quadrupling KB at fixed eps divides the horizon by four
    small = epsilon_horizon(SGD, CONSTS, ClusterConfig(workers_K=1, local_batch_B=4), 0.25)
    big = epsilon_horizon(SGD, CONSTS, ClusterConfig(workers_K=4, local_batch_B=4), 0.25)
    assert small == pytest.approx(4 * big, rel=0.01)


# ---------------------------------------------------------------------------
# virtual sequence and proximity checks
# ---------------------------------------------------------------------------

def _record_sync_run(step_fn, obj, hp, cfg, steps, gamma_hat):
    """Run a synchronized optimizer and assemble the trajectory arrays."""
    st = init_state(initial_point(obj)[None], cfg.workers_K)
    xs, vs, halves, gs, xis, dev2 = [], [], [], [], [], []
    for t in range(steps):
        xs.append(st.x[0].copy())
        vs.append(st.v[0].copy())
        step_fn(st, obj, draw_batches(cfg, obj, t), hp)
        info = st.last_info
        points, z = info["halves"][0], info["z"]
        half_bar = reduce_mean(points)
        dev = points - half_bar
        halves.append(half_bar)
        gs.append(info["g_bar"][0])
        xis.append(np.zeros_like(half_bar) if z is None else reduce_mean(z[0]))
        dev2.append(np.add.reduce(np.add.reduce(dev * dev, -1)) / len(points))
    x, v = st.x[0], st.v[0]
    xs.append(x.copy())
    vs.append(v.copy())
    # terminal lookahead from stored state only: no fresh gradient needed
    xi_term = reduce_mean(st.past_grad[0]) if gamma_hat != 0.0 else np.zeros_like(v)
    xis.append(xi_term)
    halves.append(x - gamma_hat * xi_term + hp.momentum_u * v)
    vseq = build_virtual_sequence(np.stack(xs), np.stack(vs), np.stack(halves),
                                  np.stack(gs), np.stack(xis), hp.lr_gamma,
                                  gamma_hat, hp.momentum_u)
    return vseq, dev2


def test_descent_identity_nesterov_roundoff_only():
    obj = make_quadratic(4, 32, generator_seed=1, diag=[0.5, 1.0, 2.0, 4.0])
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=3)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.8)
    vseq, _ = _record_sync_run(step_nesterov, obj, hp, cfg, 200, gamma_hat=0.0)
    resid = check_descent_identity(vseq)
    assert resid.shape == (200,)
    assert resid.max() < 1e-12


def test_descent_identity_extrap_roundoff_only():
    obj = make_quadratic(4, 32, generator_seed=2)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=4)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.6)
    ghat = effective_gamma_hat(hp, 2)
    vseq, _ = _record_sync_run(step_extrap_sgd, obj, hp, cfg, 200, gamma_hat=ghat)
    assert check_descent_identity(vseq).max() < 1e-12


def test_descent_identity_flags_corrupted_trajectory():
    obj = make_quadratic(3, 16, generator_seed=5)
    cfg = ClusterConfig(workers_K=1, local_batch_B=4, master_seed=5)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.5)
    vseq, _ = _record_sync_run(step_nesterov, obj, hp, cfg, 50, gamma_hat=0.0)
    bad = build_virtual_sequence(vseq.x, vseq.v, vseq.x_bar_half,
                                 vseq.g_bar_half + 0.01, vseq.xi_bar,
                                 vseq.gamma, vseq.gamma_hat, vseq.momentum_u)
    assert check_descent_identity(bad).max() > 1e-4


def test_proximity_inequalities_hold_on_recorded_run():
    obj = make_quadratic(4, 64, generator_seed=6, shift_spread=2.0)
    cfg = ClusterConfig(workers_K=4, local_batch_B=8, master_seed=6)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.7)
    ghat = effective_gamma_hat(hp, 4)
    assert ghat <= 0.7 ** 2 * 0.05 / 0.3 ** 2        # precondition by design
    vseq, dev2 = _record_sync_run(step_extrap_sgd, obj, hp, cfg, 300, gamma_hat=ghat)
    checks = check_proximity_inequalities(
        vseq, worker_dev2=dev2, sigma2=64.0, extrap_batch_b=8,
        uses_past_gradients=True)
    assert checks["momentum_energy"]["holds"] is True
    assert checks["lookahead_proximity"]["holds"] is True
    assert checks["worker_deviation"]["holds"] is True


def test_proximity_missing_inputs_are_reported_not_guessed():
    obj = make_quadratic(2, 16, generator_seed=7)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=7)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.5)
    vseq, dev2 = _record_sync_run(step_extrap_sgd, obj, hp, cfg, 20,
                                  gamma_hat=effective_gamma_hat(hp, 2))
    checks = check_proximity_inequalities(vseq, worker_dev2=dev2, sigma2=None,
                                          extrap_batch_b=4)
    assert checks["worker_deviation"]["holds"] is None
    assert checks["worker_deviation"]["precondition_ok"] is False
    no_dev = check_proximity_inequalities(vseq)
    assert "worker_deviation" not in no_dev


def test_worker_deviation_iid_branch_uses_noise_moment():
    obj = make_quadratic(2, 16, generator_seed=8)
    cfg = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=8)
    hp = HyperParams(lr_gamma=0.05, inner_lr_gamma_hat=0.02, momentum_u=0.5)
    vseq, _ = _record_sync_run(step_extrap_sgd, obj, hp, cfg, 20, gamma_hat=0.02)
    checks = check_proximity_inequalities(
        vseq, worker_dev2=[1e-3] * 20, sigma_hat2=0.5, uses_past_gradients=False)
    rhs = 2.0 * 0.02 ** 2 * 0.5
    assert_allclose(checks["worker_deviation"]["rhs"], rhs, rtol=1e-15)
    assert checks["worker_deviation"]["holds"] is False      # 1e-3 > 4e-4


def test_worker_deviation_of_a_replay_without_extrapolation_is_zero_on_zero():
    # sgd and nesterov evaluate every worker at the shared point: gamma_hat
    # = 0, so both stated bounds are 0 and the deviation is exactly 0.
    obj = make_quadratic(3, 32, generator_seed=9)
    cluster = ClusterConfig(workers_K=2, local_batch_B=4)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.5)
    for method in (SGD, NESTEROV):
        for trial in replay_trials(obj, method, cluster, hp, 30, 2, 4):
            assert trial.proximity["worker_deviation"] == {
                "lhs": 0.0, "rhs": 0.0, "holds": True, "precondition_ok": True,
                "note": "gamma_hat = 0: the workers share each point"}
    # extrap_sgd keeps its past-gradient bound 4 gamma_hat^2 sigma^2 / b.
    sigma2 = estimate_constants(obj, initial_point(obj),
                                horizon_T=30).variance_sigma2
    ghat = effective_gamma_hat(hp, 2)
    for trial in replay_trials(obj, EXTRAP_SGD, cluster, hp, 30, 2, 4):
        check = trial.proximity["worker_deviation"]
        assert check["lhs"] > 0.0 and check["precondition_ok"] is True
        assert check["rhs"] == 4.0 * ghat ** 2 * sigma2 / 4
        assert check["holds"] is (check["lhs"] <= check["rhs"])
        assert check["note"] == ("expectation bound, checked as a per-trial "
                                 "time average")


def test_virtual_sequence_shape_validation():
    with pytest.raises(ValueError):
        build_virtual_sequence(np.zeros((3, 2)), np.zeros((4, 2)),
                               np.zeros((4, 2)), np.zeros((3, 2)),
                               np.zeros((4, 2)), 0.1, 0.0, 0.5)


def test_virtual_sequence_reduces_to_iterates_without_momentum():
    obj = make_quadratic(3, 16, generator_seed=9)
    cfg = ClusterConfig(workers_K=1, local_batch_B=4, master_seed=9)
    hp = HyperParams(lr_gamma=0.1, momentum_u=0.0)
    vseq, _ = _record_sync_run(step_nesterov, obj, hp, cfg, 10, gamma_hat=0.0)
    assert_array_equal(vseq.y_bar[1:], vseq.x_bar_half[1:])
    assert_array_equal(vseq.y_bar[0], vseq.x[0])


# ---------------------------------------------------------------------------
# smoothness probing
# ---------------------------------------------------------------------------

def test_smoothness_along_eigendirections():
    obj = make_quadratic(2, 2, diag=[1.0, 4.0], shifts=[[0.0, 0.0], [0.0, 0.0]])
    x = np.zeros(2)
    assert smoothness_estimate(obj, x, np.array([0.0, 1.0])) == 4.0
    assert smoothness_estimate(obj, x, np.array([1.0, 0.0])) == 1.0
    mixed = smoothness_estimate(obj, x, np.array([1.0, 1.0]))
    assert 1.0 < mixed < 4.0


def test_smoothness_probes_the_objective_with_weight_decay():
    # The probe reads the oracle's gradient of f + (lambda/2)||x||^2, so on
    # an eigendirection it finds the eigenvalue plus lambda.
    obj = make_quadratic(2, 2, diag=[1.0, 4.0], shifts=[[0.0, 0.0], [0.0, 0.0]])
    x = np.zeros(2)
    for axis, curvature in (([0.0, 1.0], 4.0), ([1.0, 0.0], 1.0)):
        got = smoothness_estimate(obj, x, np.array(axis), weight_decay=0.5)
        assert got == pytest.approx(curvature + 0.5, rel=1e-12)
    rows = np.array([[0.3, -0.2], [1.0, 2.0]])
    updates = np.array([[0.0, 1.0], [1.0, 1.0]])
    got = smoothness_estimates(obj, rows, updates, weight_decay=0.5)
    assert got == [smoothness_estimate(obj, x, u, weight_decay=0.5)
                   for x, u in zip(rows, updates)]


def test_smoothness_handles_zero_update():
    obj = make_quadratic(2, 2, diag=[1.0, 4.0])
    assert smoothness_estimate(obj, np.zeros(2), np.zeros(2)) == 0.0


def _probe_loop(obj, x, update, probes, fraction):
    """The probe as one single-point full-gradient call per point."""
    if float(np.linalg.norm(update)) == 0.0:
        return 0.0
    everything = range(obj.sample_count)
    base = batch_gradient(obj, x, everything)
    best = 0.0
    for j in range(1, probes + 1):
        delta = (j * fraction) * update
        g = batch_gradient(obj, x + delta, everything)
        best = max(best, float(np.linalg.norm(g - base) / np.linalg.norm(delta)))
    return best


@pytest.mark.parametrize("obj", [
    make_quadratic(3, 64, generator_seed=5, matrix=[[2.0, 0.5, 0.0],
                                                   [0.5, 1.0, 0.25],
                                                   [0.0, 0.25, 0.5]]),
    make_logistic(5, 40, generator_seed=2, l2=1e-3),
    make_tiny_mlp((3, 4, 2), 24, generator_seed=3)], ids=["dense", "logistic", "mlp"])
@pytest.mark.parametrize("block", [None, 1, 200])
def test_stacked_probe_rows_are_bitwise_the_single_point_loop(obj, block,
                                                               monkeypatch):
    # One stacked call (or blocks of `block` doubles, down to one point a
    # call) gives every row the value of its own loop of single calls; a
    # zero update row gives 0.0 without probing.
    if block is not None:
        monkeypatch.setattr(theory, "_SIGMA2_BLOCK", block)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, obj.dimension))
    updates = 0.1 * rng.standard_normal((4, obj.dimension))
    updates[2] = 0.0
    for probes, fraction in ((8, 0.30), (3, 1.7)):
        got = smoothness_estimates(obj, x, updates, probes, fraction)
        want = [_probe_loop(obj, x_r, u_r, probes, fraction)
                for x_r, u_r in zip(x, updates)]
        assert got[2] == 0.0
        assert_array_equal(np.array(got).view(np.uint64),
                           np.array(want).view(np.uint64))
        assert smoothness_estimate(obj, x[1], updates[1], probes, fraction) == want[1]


@pytest.mark.parametrize("probes,fraction", [
    (0, 0.3), (-3, 0.3), (8, 0.0), (8, -0.3), (8, math.nan), (8, math.inf)])
def test_smoothness_rejects_bad_probe_settings(probes, fraction):
    obj = make_quadratic(2, 8, generator_seed=1, diag=[1.0, 4.0])
    with pytest.raises(ValueError, match="smoothness probes"):
        smoothness_estimate(obj, np.zeros(2), np.array([0.0, 1.0]),
                            probes=probes, fraction=fraction)
