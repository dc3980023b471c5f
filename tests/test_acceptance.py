"""Acceptance gate: nine end-to-end checks of the library's core claims.

Each test is one checklist item and prints a single PASS line with the
measured numbers (visible under ``pytest -s``); with ``pytest -v`` the
per-test PASSED/FAILED column is the pass/fail report.  The checks are
property-based or run on small frozen instances whose constants are known
analytically -- nothing here tries to reproduce large-cluster wall-clock
numbers.  Instances, seeds, and trial counts are pinned so the whole file
is deterministic; the stochastic bound checks (stationarity, proximity,
speedup) must hold in at least 95% of 30 independent trials.

Checklist order:
  1. reduction chains collapse bitwise (extrapolation off -> momentum off)
  2. virtual-sequence descent identity holds to 1e-8 per step
  3. tuned stationarity bounds dominate measured gradient norms
  4. proximity bounds (lookahead + worker deviation) hold
  5. linear speedup below the critical batch size, saturation above it
  6. smoothness probe exact on a quadratic; extrapolation ordering on a net
  7. warmup / step-decay / trust-ratio formulas match closed forms
  8. post-local averaging: zero dispersion at syncs, positive between
  9. worker threading and trial stacking never change persisted bytes
"""

import filecmp
import os
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from exsgd import harness
from exsgd.cluster import ClusterConfig
from exsgd.gates import (QUAD, chain_mismatch, protocol_formulas,
                         rate_bound_hold_fraction, reduction_chains,
                         replay_trials)
from exsgd.harness import RunConfig, run, speedup_study, write_outputs
from exsgd.objectives import (estimate_constants, initial_point, make_logistic,
                              make_quadratic, make_tiny_mlp)
from exsgd.optimizers import HyperParams, NoiseSpec, PostLocalConfig
from exsgd.theory import smoothness_estimate, stepsize_cap, tuned_hyperparams

# Shared frozen instances: the gate quadratic QUAD (exsgd.gates) and the
# tiny net that the smoothness-ordering check also uses.
MLP = dict(widths=(4, 12, 1), sample_count=64, generator_seed=3,
           target_noise=0.2)


def test_reduction_chains_bitwise():
    # With extrapolation disabled each method must reproduce its parent
    # bitwise, on every objective family and at every step: extrapolated
    # SGD (gamma_hat = 0) == Nesterov, Nesterov (u = 0) == plain SGD, and
    # extrapolated Adam (gamma_hat = 0) == Adam.  Shared batch RNG.
    objectives = {
        "quadratic": (make_quadratic(**QUAD), 0.02),
        "logistic": (make_logistic(5, 40, generator_seed=2, l2=0.01), 0.2),
        "tiny_mlp": (make_tiny_mlp(**MLP), 0.05),
    }
    cluster = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=11)
    pairs_checked = 0
    for name, (obj, gamma) in objectives.items():
        for reduced, parent, hp in reduction_chains(gamma, 0.7):
            at = chain_mismatch(obj, cluster, reduced, parent, hp, 200)
            assert at is None, (f"{name}: {reduced.__name__} diverged from "
                                f"{parent.__name__} at step {at}")
            pairs_checked += 1
    assert pairs_checked == 9
    print(f"PASS reduction chains: {pairs_checked}/9 pairs bitwise-identical "
          f"over 200 steps")


def test_descent_identity_residuals():
    # The averaged virtual sequence y_t must satisfy the one-step descent
    # identity y_{t+1} = y_t - (gamma / (1 - u)) g_t at every step, with
    # relative residual <= 1e-8, for both momentum methods on a quadratic
    # and on the tiny net.
    tol = 1e-8
    worst = 0.0
    for obj, gamma in ((make_quadratic(**QUAD), 0.005),
                       (make_tiny_mlp(**MLP), 0.02)):
        for method in ("nesterov", "extrap_sgd"):
            trial, = replay_trials(
                obj, method, ClusterConfig(workers_K=2, local_batch_B=4),
                HyperParams(lr_gamma=gamma, momentum_u=0.7), 1000, 1, 5)
            assert not trial.aborted
            assert trial.descent_residuals.shape == (1000,)
            peak = float(trial.descent_residuals.max())
            assert peak <= tol, f"{method} residual {peak:.3e} > {tol}"
            worst = max(worst, peak)
    print(f"PASS descent identity: worst relative residual {worst:.2e} "
          f"<= {tol} over 4 runs x 1000 steps")


def test_stationarity_rate_bounds():
    # On the analytic quadratic, with the stepsize chosen by the tuner,
    # the non-convex stationarity bound must dominate the measured average
    # squared gradient norm in >= 95% of 30 trials, for both momentum
    # methods and every (K, B) combination.  (Slowest test in the file:
    # 8 settings x 30 trials x 2000 steps.)
    obj = make_quadratic(**QUAD)
    consts = estimate_constants(obj, initial_point(obj), horizon_T=2000)
    assert consts.lipschitz_L == pytest.approx(4.0)
    summary = []
    for method in ("nesterov", "extrap_sgd"):
        for workers in (1, 4):
            for batch in (4, 16):
                cluster = ClusterConfig(workers_K=workers, local_batch_B=batch)
                hp = tuned_hyperparams(method, consts, cluster, 2000,
                                       momentum_u=0.5)
                assert hp.lr_gamma <= stepsize_cap(method, consts, 0.5)
                # Raises if a trial has no rate report.
                frac = rate_bound_hold_fraction(obj, method, cluster, 2000,
                                                0.5, 30, 77)
                assert frac >= 0.95, (
                    f"{method} K={workers} B={batch}: bound held in a "
                    f"fraction {frac:.3f} of 30 trials")
                summary.append(frac)
    print(f"PASS stationarity bounds: hold fraction >= 0.95 in all "
          f"{len(summary)} method/cluster settings "
          f"(min {min(summary):.2f})")


def test_proximity_bounds():
    # Lookahead proximity (the iterate stays within the momentum-energy
    # envelope of its virtual sequence) and worker deviation (local
    # half-points spread no more than the extrapolation stepsize allows)
    # must each hold in >= 95% of 30 trials.  Past-gradient extrapolation
    # first, then the injected-noise variant with its own deviation bound.
    obj = make_quadratic(**QUAD)
    cluster = ClusterConfig(workers_K=4, local_batch_B=8)
    trials = replay_trials(obj, "extrap_sgd", cluster,
                           HyperParams(lr_gamma=0.005, momentum_u=0.7),
                           400, 30, 99)
    fractions = {}
    for key in ("momentum_energy", "lookahead_proximity", "worker_deviation"):
        held = sum(t.proximity[key]["holds"] for t in trials)
        assert all(t.proximity[key]["precondition_ok"] for t in trials)
        fractions[key] = held / 30
        assert fractions[key] >= 0.95, f"{key} held in only {held}/30 trials"

    noise_trials = replay_trials(
        obj, "extrap_noise", cluster,
        HyperParams(lr_gamma=0.005, inner_lr_gamma_hat=0.00125,
                    momentum_u=0.7), 400, 30, 100,
        noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.05))
    held = sum(t.proximity["worker_deviation"]["holds"] for t in noise_trials)
    fractions["noise_worker_deviation"] = held / 30
    assert held / 30 >= 0.95, f"noise deviation held in only {held}/30 trials"
    print(f"PASS proximity bounds: hold fractions "
          f"{ {k: round(v, 3) for k, v in fractions.items()} }")


def test_linear_speedup_and_saturation():
    # High-noise quadratic with exactly known sigma^2: below the predicted
    # critical batch size, doubling K*B must roughly halve the tuned steps
    # to reach epsilon (ratio in [1.6, 2.4]); far above it the ratio must
    # collapse below 1.3.  30 trials per grid point, none censored.
    d, n, radius = 4, 32, 2.0
    shifts = np.tile(np.full(d, 1.5), (n, 1))
    for i in range(n):
        axis = (i // 2) % d
        shifts[i, axis] += radius if i % 2 == 0 else -radius
    obj = make_quadratic(d, n, diag=[0.5, 0.75, 1.0, 1.0], shifts=shifts)

    base = RunConfig(objective=obj,
                     cluster=ClusterConfig(workers_K=1, local_batch_B=2),
                     method="sgd", hyperparams=HyperParams(lr_gamma=0.1),
                     total_steps_T=10, trials=30, master_seed=2024)
    below = speedup_study(base, [(1, 2), (1, 4), (1, 8)], epsilon=0.2)
    assert max(row["kb"] for row in below["rows"]) < below["critical_kb"]
    ratios = []
    for small, large in zip(below["rows"], below["rows"][1:]):
        assert small["censored"] == 0 and large["censored"] == 0
        ratio = small["mean_steps"] / large["mean_steps"]
        assert 1.6 <= ratio <= 2.4, (
            f"KB {small['kb']}->{large['kb']}: speedup {ratio:.3f} "
            f"outside [1.6, 2.4]")
        ratios.append(ratio)

    above = speedup_study(base, [(16, 32), (32, 32)], epsilon=0.2)
    assert min(row["kb"] for row in above["rows"]) > above["critical_kb"]
    first, second = above["rows"]
    saturated = first["mean_steps"] / second["mean_steps"]
    assert saturated < 1.3, f"saturated speedup {saturated:.3f} >= 1.3"
    print(f"PASS speedup: below-critical doubling ratios "
          f"{[round(r, 2) for r in ratios]} in [1.6, 2.4]; "
          f"above-critical ratio {saturated:.2f} < 1.3")


def test_smoothness_probe_and_ordering():
    # (a) On a diag(1, 4) quadratic the directional smoothness probe along
    # the steep axis must return the top curvature 4.0 to within 1e-9.
    obj = make_quadratic(2, 8, generator_seed=1, diag=[1.0, 4.0])
    est = smoothness_estimate(obj, np.zeros(2), np.array([0.0, 1.0]))
    assert est == pytest.approx(4.0, abs=1e-9)

    # (b) On the tiny net, extrapolated SGD must travel through regions
    # that are on average no sharper than Nesterov's at the same settings:
    # compare the two methods' mean estimated smoothness over ten seeds
    # (ordering of the means only -- single seeds may cross).
    net = make_tiny_mlp(**MLP)
    hp = HyperParams(lr_gamma=0.05, momentum_u=0.9)

    def mean_smoothness(method):
        per_seed = []
        for seed in range(10):
            cfg = RunConfig(objective=net,
                            cluster=ClusterConfig(workers_K=4, local_batch_B=8),
                            method=method, hyperparams=hp, total_steps_T=60,
                            record_every=1, record_smoothness_every=1,
                            trials=1, master_seed=seed)
            records = run(cfg).trials[0].records
            vals = [r.smoothness_L for r in records
                    if not np.isnan(r.smoothness_L) and r.smoothness_L > 0]
            per_seed.append(np.mean(vals))
        return float(np.mean(per_seed))

    nesterov_mean = mean_smoothness("nesterov")
    extrap_mean = mean_smoothness("extrap_sgd")
    assert extrap_mean <= nesterov_mean, (
        f"extrapolation saw sharper regions: {extrap_mean:.5f} > "
        f"{nesterov_mean:.5f}")
    print(f"PASS smoothness: probe error {abs(est - 4.0):.1e} <= 1e-9; "
          f"mean L extrap {extrap_mean:.4f} <= nesterov {nesterov_mean:.4f}")


def test_schedule_and_lars_formulas():
    # Closed-form checks of the large-batch training protocol pieces: the
    # gradual-warmup increment to 1e-12, and the post-decay rate and a LARS
    # trust ratio exactly (instances in gates.protocol_formulas).
    rows = protocol_formulas()
    assert len(rows) == 3
    for name, ok, detail in rows:
        assert ok, f"{name}: {detail}"
    print(f"PASS protocol formulas: {', '.join(name for name, _, _ in rows)}")


def test_post_local_dispersion_pattern():
    # After the transition step the workers run H local steps between
    # averagings: dispersion across local iterates must be exactly zero at
    # every averaging step (and in the synchronous phase) and strictly
    # positive in between, for ten independent seeds.
    cfg = RunConfig(
        objective=make_quadratic(3, 64, generator_seed=11, shift_spread=2.0),
        cluster=ClusterConfig(workers_K=4, local_batch_B=4),
        method="post_local",
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        post_local=PostLocalConfig(transition_step_t0=2, local_steps_H=3),
        total_steps_T=15, trials=10, master_seed=42)
    zeros = positives = 0
    for trial in run(cfg).trials:
        for rec in trial.records:
            if rec.step <= 2 or rec.step % 3 == 0:
                assert rec.worker_dispersion == 0.0, (
                    f"dispersion {rec.worker_dispersion} at sync step "
                    f"{rec.step}")
                zeros += 1
            else:
                assert rec.worker_dispersion > 0.0, (
                    f"zero dispersion at local step {rec.step}")
                positives += 1
    assert positives == 10 * 8
    print(f"PASS post-local dispersion: {zeros} sync records exactly zero, "
          f"{positives} local records positive across 10 seeds")


def test_thread_determinism_byte_identical(tmp_path):
    # Neither the thread count nor how many trials advance together may leak
    # into results: the same config run with 1 and 4 threads, and with its
    # trials stacked or one at a time, has to persist byte-identical files.
    cfg = RunConfig(
        objective=make_quadratic(**QUAD),
        cluster=ClusterConfig(workers_K=4, local_batch_B=4),
        method="extrap_sgd",
        hyperparams=HyperParams(lr_gamma=0.01, momentum_u=0.6),
        total_steps_T=50, record_virtual_sequence=True,
        trials=2, master_seed=13)
    assert harness._chunk_size(cfg) >= 2      # by default both trials stack
    one_at_a_time = mock.patch.object(harness, "_CHUNK_WORDS", 1)
    dirs = []
    for name, threads, chunking in (("threads_1", 1, nullcontext()),
                                    ("threads_4", 4, nullcontext()),
                                    ("one_trial_chunks", 1, one_at_a_time)):
        out_dir = tmp_path / name
        with chunking:
            write_outputs(run(cfg, threads=threads), out_dir)
        dirs.append(out_dir)
    names = sorted(os.listdir(dirs[0]))
    for other in dirs[1:]:
        assert names == sorted(os.listdir(other))
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], other, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == names
    print(f"PASS thread determinism: {len(names)} output files "
          f"byte-identical between 1 and 4 threads and between stacked and "
          f"one-at-a-time trials")
