"""
The checks behind the theory gates, shared by `exsgd verify` (quick sizes)
and tests/test_acceptance.py (the pinned gate sizes, seeds and thresholds).
"""

import numpy as np

from .cluster import ClusterConfig, draw_batches
from .harness import RunConfig, run
from .objectives import (estimate_constants, initial_point, make_quadratic,
                         row_dots)
from .optimizers import (WARMUP_STEP_DECAY, HyperParams, Schedule, init_state,
                         lr_series, step_adam, step_extrap_adam,
                         step_extrap_sgd, step_minibatch_sgd, step_nesterov,
                         trust_scale, warmup_increment)
from .theory import tuned_hyperparams

# The gate quadratic: its constants are analytic (L = 4), and its nonzero
# shift mean puts x0 = 0 far from the optimum.
QUAD = dict(dimension=6, sample_count=48, generator_seed=21,
            diag=[0.5, 0.8, 1.2, 2.0, 3.0, 4.0],
            shift_spread=3.0, shift_mean=[1.5] * 6)


def reduction_chains(gamma, u):
    """(reduced, parent, hp) for the chains that must hold bitwise:
    extrap_sgd with gamma_hat = 0 is nesterov (momentum u), nesterov with
    u = 0 is sgd, and extrap_adam with gamma_hat = 0 is adam."""
    return [
        (step_extrap_sgd, step_nesterov,
         HyperParams(lr_gamma=gamma, inner_lr_gamma_hat=0.0, momentum_u=u)),
        (step_nesterov, step_minibatch_sgd, HyperParams(lr_gamma=gamma)),
        (step_extrap_adam, step_adam,
         HyperParams(lr_gamma=0.01, inner_lr_gamma_hat=0.0)),
    ]


def chain_mismatch(obj, cluster, reduced, parent, hp, steps):
    """The first step after which `reduced` and `parent`, fed the same
    batches, hold different iterates; None if they agree bitwise for all
    `steps` steps.  Each runs one trial, a stack of one row."""
    a, b = (init_state(initial_point(obj)[None], cluster.workers_K)
            for _ in range(2))
    for t in range(steps):
        batches = draw_batches(cluster, obj, t)
        reduced(a, obj, batches, hp)
        parent(b, obj, batches, hp)
        if not np.array_equal(a.x, b.x):
            return t
    return None


def replay_trials(obj, method, cluster, hp, steps, trials, seed, noise=None):
    """The trials of a seeded `steps`-step run with the virtual-sequence
    replay on; only the last step is recorded."""
    return run(RunConfig(objective=obj, cluster=cluster, method=method,
                         hyperparams=hp, noise=noise, total_steps_T=steps,
                         record_every=steps, record_virtual_sequence=True,
                         trials=trials, master_seed=seed)).trials


def rate_bound_hold_fraction(obj, method, cluster, steps, u, trials, seed):
    """The share of `trials` seeded runs, at the stepsize that
    theory.tuned_hyperparams picks for `steps` steps, in which the
    stationarity bound dominates the measured average squared gradient norm
    (an infinite bound, which decides nothing, does not count as holding).
    Raises ValueError if a trial has no rate report."""
    consts = estimate_constants(obj, initial_point(obj), horizon_T=steps)
    hp = tuned_hyperparams(method, consts, cluster, steps, momentum_u=u)
    reports = [t.rate_report for t in
               replay_trials(obj, method, cluster, hp, steps, trials, seed)]
    if None in reports:
        raise ValueError(f"{method}: {reports.count(None)} of {trials} "
                         f"trials have no rate report")
    return sum(r.holds is True for r in reports) / trials


def protocol_formulas():
    """(name, ok, detail) rows for the closed forms of the large-batch
    protocol: the gradual-warmup increment (gamma = 0.1 scaled x32, K = 32,
    B = 256, 5 warmup epochs, N = 50000), the rate after the second decay
    milestone, and a LARS trust ratio (||x|| = 2, ||g|| = 4, trust 1)."""
    obj = make_quadratic(2, 50000, generator_seed=0)
    cluster = ClusterConfig(workers_K=32, local_batch_B=256)
    sched = Schedule(kind=WARMUP_STEP_DECAY, base_lr=0.1, scale_factor=32.0,
                     warmup_epochs=5, total_steps=1000)
    inc = warmup_increment(sched, cluster, obj)
    want = 3.1 / (5 * 50000 / 8192)     # (K gamma - gamma) / (5 N / (K B))
    peak = sched.base_lr * sched.scale_factor
    lr_end = lr_series(sched, 801, cluster, obj)[800]
    grad = np.array([0.0, 4.0])
    scaled = trust_scale(grad, np.array([2.0, 0.0]), [(0, 2)], 1.0, 0.0)
    ratio = float(np.sqrt(row_dots(scaled, scaled))
                  / np.sqrt(row_dots(grad, grad)))
    return [
        ("warmup increment formula", abs(inc - want) <= 1e-12,
         f"{inc!r} vs {want!r}"),
        ("post-decay lr == peak/100", lr_end == peak / 100,
         f"{lr_end!r} vs {peak / 100!r}"),
        ("lars trust ratio == 0.5", ratio == 0.5, f"{ratio!r}"),
    ]
