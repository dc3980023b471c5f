"""
Update rules for the simulated cluster.

All methods share the same skeleton per step t:

    lookahead point(s)  ->  per-worker batch gradients  ->  fixed-order
    reduction  ->  buffer/parameter update

`lookahead` decides the evaluation points of every step, post-local's local
phase included, and the directions the harness replay reads.

- sgd:          x <- x - gamma * g(x)
- nesterov:     x_half = x + u v;  v <- u v - gamma g(x_half);  x <- x + v
- extrap_sgd:   per worker, x_quarter^k = x - gamma_hat * past_grad[k], then
                the nesterov lines evaluated at x_half^k = x_quarter^k + u v.
                past_grad[k] is the batch-mean gradient the worker computed at
                its previous half point (stored, never recomputed), so the
                extrapolation costs no extra gradient evaluations.  With
                extrap_b = b < B it is the mean over the batch's leading b
                indices, reduced in the same oracle call.  The
                extrapolation is skipped at t = 0 (past_grad = 0).
- extrap_noise: extrapolation direction replaced by a noise draw zeta^k
                (isotropic gaussian/uniform, optionally filter-scaled;
                a shared draw; or centered past stochastic gradients).
- adam /        moment-based updates without bias correction; extrap_adam
  extrap_adam:  extrapolates per worker through the stored moments and past
                gradient before the shared moment update.
- post_local:   synchronized extrap_sgd until step t0, then per-worker local
                extrap updates, each worker looking ahead from its own x^k
                and v^k, with model averaging every H steps.

Weight decay lambda (when nonzero) enters as +lambda*x at every gradient
evaluation, identically across methods: the oracle adds it
(`batch_gradient`'s `weight_decay`), and only LARS's trust ratio reads
lambda here.  LARS (when trust > 0) rescales each block of the reduced
gradient before the main update.

Trial stack: a state holds R trials of one config at once, R >= 1, and
every array keeps the trial axis first and the worker axis as its own axis.
x, v and the Adam moments are (R, d); past gradients and the post-local
x^k / v^k are (R, K, d); a step's `batches` are the (R, K, B) int64 tensor of
`cluster.draw_batches`, entry [r, k] worker k's batch in trial r (so K is
`batches.shape[1]`); and a noise step takes the R trial seeds.  The workers
evaluate at (R, 1, d) points, shared by a trial's workers, or (R, K, d)
points, one per worker, and one oracle call per step evaluates every
worker of every trial at once, for every extrap_b: with b < B the same call
also returns the leading-b means the workers store (`batch_gradient`'s
`lead`), so the oracle evaluates exactly R * K * B samples per step.  Entry
[r, k] is bitwise what a separate call for that batch returns, and the
worker mean is still `cluster.reduce_mean`, an ascending add over each
trial's K rows, so trial r of a step is bitwise the step of a stack of that
trial alone, and the reduction chains sgd = nesterov(u=0),
nesterov = extrap_sgd(gamma_hat=0) and adam = extrap_adam(gamma_hat=0) hold
bitwise.

Step functions mutate `state` in place and return it.  A step reduces
nothing it does not apply: `state.last_info` holds its raw evaluation points
"halves", (R, 1, d) or (R, K, d) as above, its (R, K, d) directions "z"
(None when no worker extrapolated), and in a synchronized step the (R, d)
reduced gradient "g_bar" as applied after LARS.  `step_reports` reduces
points and directions, of one step or a stacked block of steps, to the mean
half point, worker deviation and mean direction that the theory checks read,
and `worker_dispersion` gives post-local's worker spread from the state.  A
step that meets a non-finite value raises before it changes the state, and
`NumericAbort.trials` lists the trials (rows of x) that hold it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# map_workers is unused by the steps; benchmark/tracer.py patches
# this name, so the import stays until the tracer changes with it.
from .cluster import map_workers, reduce_mean  # noqa: F401
from .objectives import batch_gradient, row_dots

NOISE_NONE = "none"
ISO_GAUSSIAN = "isotropic_gaussian"
ISO_UNIFORM = "isotropic_uniform"
SMOOTHOUT_SHARED = "smoothout_shared"
ANISO_STOCHASTIC = "anisotropic_stochastic"
NOISE_KINDS = (NOISE_NONE, ISO_GAUSSIAN, ISO_UNIFORM, SMOOTHOUT_SHARED, ANISO_STOCHASTIC)

CONSTANT = "constant"
WARMUP_CONSTANT = "warmup_constant"
WARMUP_STEP_DECAY = "warmup_step_decay"
INVERSE_SQRT = "inverse_sqrt"
SCHEDULE_KINDS = (CONSTANT, WARMUP_CONSTANT, WARMUP_STEP_DECAY, INVERSE_SQRT)

_NOISE_TAG = 31   # seeds step t's noise draw as (trial seed, _NOISE_TAG, t)


class NumericAbort(RuntimeError):
    """A gradient or iterate went non-finite; the run stops with a record.
    `trials` lists the rows of the state's trial stack that went non-finite."""

    def __init__(self, step, detail, trials):
        super().__init__(f"non-finite value at step {step}: {detail}")
        self.step = step
        self.detail = detail
        self.trials = trials


@dataclass
class HyperParams:
    lr_gamma: float = 0.1
    inner_lr_gamma_hat: float = None   # None -> gamma / K at use time
    momentum_u: float = 0.0
    lars_trust: float = 0.0            # 0 disables LARS
    weight_decay: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-9
    extrap_denominator_sqrt: bool = False   # literal update has no sqrt there
    reset_local_momentum: bool = False      # post-local: zero v^k at t0 instead of copying v

    def validate(self):
        # 0 is allowed as the degenerate no-op stepsize (x provably unchanged).
        # Each check is written so that a NaN fails it.
        if not self.lr_gamma >= 0:
            raise ValueError("lr_gamma must be >= 0")
        if self.inner_lr_gamma_hat is not None and not self.inner_lr_gamma_hat >= 0:
            raise ValueError("inner_lr_gamma_hat must be >= 0")
        if not 0.0 <= self.momentum_u < 1.0:
            raise ValueError("momentum_u must lie in [0, 1)")
        if not self.lars_trust >= 0:
            raise ValueError("lars_trust must be >= 0")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.adam_beta1 < 1.0:
            raise ValueError("adam_beta1 must lie in [0, 1)")
        if not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError("adam_beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be > 0")
        return self


def effective_gamma_hat(hp, workers_K):
    """gamma_hat, defaulting to gamma / K when unset."""
    if hp.inner_lr_gamma_hat is None:
        return hp.lr_gamma / workers_K
    return hp.inner_lr_gamma_hat


@dataclass
class NoiseSpec:
    kind: str = NOISE_NONE
    filter_scaled: bool = False
    raw_scale: float = 1.0
    noise_sigma_hat2: float = 0.0   # 0 -> derived by noise_second_moment

    def validate(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not self.raw_scale >= 0:
            raise ValueError("raw_scale must be >= 0")
        if not self.noise_sigma_hat2 >= 0:
            raise ValueError("noise_sigma_hat2 must be >= 0")
        if self.filter_scaled and self.kind == ANISO_STOCHASTIC:
            raise ValueError("filter_scaled applies to isotropic/shared noise only")
        return self


def noise_second_moment(noise, x):
    """E||zeta^k||^2 for the IID kinds (the sigma_hat^2 of the theory).

    Returns the configured value if set; otherwise derives it from the raw
    distribution (d s^2 gaussian, d s^2/3 uniform).  Filter-scaled noise has
    ||zeta_block|| == ||x_block||, so its second moment tracks the iterate
    and is not a constant: None unless configured explicitly.  Anisotropic
    past-gradient noise is not IID: also None.
    """
    if noise.noise_sigma_hat2 > 0:
        return noise.noise_sigma_hat2
    if noise.kind == ANISO_STOCHASTIC or noise.filter_scaled:
        return None
    d = x.size
    if noise.kind == ISO_GAUSSIAN:
        return d * noise.raw_scale ** 2
    return d * noise.raw_scale ** 2 / 3.0   # uniform half-width raw_scale


@dataclass
class Schedule:
    kind: str = CONSTANT
    base_lr: float = 0.1           # small-batch gamma
    scale_factor: float = 1.0      # K for linear scaling
    warmup_epochs: int = 5
    decay_milestones: tuple[float, ...] = (0.5, 0.75)   # fractions of total training samples
    decay_factor: float = 10.0
    warmup_steps_inverse_sqrt: int = 1000
    total_steps: int = 0           # filled by the harness when 0

    def validate(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.base_lr > 0:
            raise ValueError("base_lr must be > 0")
        if not self.scale_factor > 0:
            raise ValueError("scale_factor must be > 0")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if not self.decay_factor > 0:
            raise ValueError("decay_factor must be > 0")
        if self.warmup_steps_inverse_sqrt < 1:
            raise ValueError("warmup_steps_inverse_sqrt must be >= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        ms = tuple(self.decay_milestones)
        if any(not 0 < m < 1 for m in ms) or list(ms) != sorted(set(ms)):
            raise ValueError("decay_milestones must be strictly increasing in (0, 1)")
        return self


@dataclass
class PostLocalConfig:
    transition_step_t0: int = 0
    local_steps_H: int = 1

    def validate(self):
        if self.transition_step_t0 < 0:
            raise ValueError("transition_step_t0 must be >= 0")
        if self.local_steps_H < 1:
            raise ValueError("local_steps_H must be >= 1")
        return self


@dataclass
class OptimizerState:
    x: np.ndarray                 # (R, d) iterates, one per trial
    v: np.ndarray                 # (R, d) momentum buffers v_t
    past_grad: np.ndarray         # (R, K, d) stored local batch-mean gradients
    adam_m: np.ndarray
    adam_v: np.ndarray
    local_x: np.ndarray = None    # (R, K, d), post-local phase only
    local_v: np.ndarray = None
    step_t: int = 0
    last_info: dict = field(default_factory=dict, repr=False)

    def keep_trials(self, rows):
        """Keep only the trials at `rows` (ascending)."""
        for name in ("x", "v", "adam_m", "adam_v", "past_grad", "local_x",
                     "local_v"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[rows])


def init_state(x0, workers_K):
    """The state of the trials starting at the rows of the (R, d) `x0`."""
    return OptimizerState(
        x=x0.copy(), v=np.zeros_like(x0),
        past_grad=np.zeros((len(x0), workers_K, x0.shape[-1])),
        adam_m=np.zeros_like(x0), adam_v=np.zeros_like(x0),
    )


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _worker_grads(obj, halves, batches, hp, extrap_b):
    """All workers' (R, K, d) batch gradients and the past gradients they
    store for the next step, from one oracle call on the (R, K, B) batches:
    the same evaluation when extrap_b is B (or None), else the mean over each
    batch's leading extrap_b indices that the call reduces alongside
    (`lead`).  `halves` holds the (R, 1, d) points a trial's workers share
    or the (R, K, d) points of each worker."""
    if extrap_b is None or extrap_b == batches.shape[-1]:
        grads = batch_gradient(obj, halves, batches, weight_decay=hp.weight_decay)
        return grads, grads   # reuse: extrapolation stays evaluation-free
    return batch_gradient(obj, halves, batches, lead=extrap_b,
                          weight_decay=hp.weight_decay)


def trust_scale(v, x, partition, trust, decay):
    """Block j of each row of the (..., d) stack `v` scaled by the trust ratio
    trust ||x_j|| / (||v_j|| + decay ||x_j||), `x` the rows' weights (an
    (R, d) `x` is shared by the workers of an (R, K, d) `v`); a block with
    zero weights or a zero denominator is suppressed to +0.0.  LARS is
    (lars_trust, weight_decay); filter-scaled noise, ||x_j|| zeta_j /
    ||zeta_j||, is (1, 0)."""
    if x.ndim < v.ndim:
        x = x[:, None]
    out = np.zeros(v.shape)
    for start, stop in partition:
        vj, xj = v[..., start:stop], x[..., start:stop]
        x_norm = np.sqrt(row_dots(xj, xj))
        denom = np.sqrt(row_dots(vj, vj)) + decay * x_norm
        keep = (x_norm != 0.0) & (denom != 0.0)
        scale = trust * x_norm / np.where(keep, denom, 1.0)
        out[..., start:stop] = np.where(keep[..., None], scale[..., None] * vj, 0.0)
    return out


def _check_finite(state, name, arr):
    """NumericAbort at `state`'s step if `arr`, whose first axis is the
    trial axis, holds a non-finite value; the abort lists those trials."""
    # np.logical_and.reduce is what ndarray.all calls, without its wrapper.
    if not np.logical_and.reduce(np.isfinite(arr), None):
        trials = [r for r, row in enumerate(arr) if not np.isfinite(row).all()]
        raise NumericAbort(state.step_t, name, trials)


def _momentum_update(v, u, gamma, g):
    # u == 0 skips the no-op multiply so sgd/nesterov iterates agree bitwise
    if u != 0.0:
        return u * v - gamma * g
    return -(gamma * g)


def step_reports(halves, z=None):
    """The mean half point, the mean squared distance of the workers' half
    points from it and the mean direction, from raw step values with any
    leading axes: `halves` holds (..., 1, d) points a trial's workers share
    or (..., K, d) points of each worker, and `z` the (..., K, d) directions
    or None (the mean direction is then None).  Entry [...] of each is
    bitwise the reduction of that entry alone: `reduce_mean` and the sums
    below reduce each row on its own, so a block of steps reduces in one
    call."""
    if halves.shape[-2] == 1:   # a point a trial's workers share is its mean
        half_bar, dev2 = halves[..., 0, :], np.zeros(halves.shape[:-2])
    else:
        half_bar = reduce_mean(halves)
        dev = halves - half_bar[..., None, :]
        # np.add.reduce is what np.sum and np.mean call, bitwise, without
        # their per-call wrappers; numpy parses a positional axis faster.
        dev2 = np.add.reduce(np.add.reduce(dev * dev, -1), -1) / halves.shape[-2]
    return half_bar, dev2, None if z is None else reduce_mean(z)


def worker_dispersion(state):
    """Each trial's largest distance of a worker's x^k from the published x
    in post-local's local phase, an (R,) array; zeros before it."""
    if state.local_x is None:
        return np.zeros(len(state.x))
    spread = state.local_x - state.x[:, None]
    return np.fmax.reduce(np.sqrt(row_dots(spread, spread)), -1, initial=0.0)


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

_SGD_RULE, _MOMENTUM_RULE, _ADAM_RULE = "sgd", "momentum", "adam"


def _synced_step(state, obj, batches, hp, rule, halves, z=None,
                 extrap_b=None):
    """The body every synchronized step shares.

    The workers evaluate at `halves`: the (R, 1, d) points a trial's workers
    share in sgd, nesterov and adam, or the (R, K, d) per-worker half points
    of the extrapolated methods, reached along the directions `z`.  They
    store their fresh gradients as the next past gradients.  `rule` is the
    update applied to the reduced gradient.
    """
    x = state.x
    grads, past = _worker_grads(obj, halves, batches, hp, extrap_b)
    g = reduce_mean(grads)
    _check_finite(state, "reduced gradient", g)
    g_used = (trust_scale(g, x, obj.partition, hp.lars_trust, hp.weight_decay)
              if hp.lars_trust > 0 else g)
    if rule == _ADAM_RULE:
        m_new = hp.adam_beta1 * state.adam_m + (1.0 - hp.adam_beta1) * g_used
        v_new = hp.adam_beta2 * state.adam_v + (1.0 - hp.adam_beta2) * g_used * g_used
        x_new = x - hp.lr_gamma * m_new / (np.sqrt(v_new) + hp.adam_eps)
        buffers = {"adam_m": m_new, "adam_v": v_new}
    elif rule == _MOMENTUM_RULE:
        v_new = _momentum_update(state.v, hp.momentum_u, hp.lr_gamma, g_used)
        x_new = x + v_new
        buffers = {"v": v_new}
    else:
        x_new = x - hp.lr_gamma * g_used
        buffers = {}
    _check_finite(state, "iterate", x_new)
    for name, value in buffers.items():
        setattr(state, name, value)
    return _step_tail(state, x_new, past,
                      {"halves": halves, "z": z, "g_bar": g_used})


def _step_tail(state, x_new, past, info):
    """The end of every step, its values checked finite: store the (R, d)
    iterate `x_new` and the `past` gradients, advance t, and keep the step's
    raw values `info` as `last_info`."""
    state.x = x_new
    state.step_t += 1
    state.past_grad = past
    state.last_info = info
    return state


def step_minibatch_sgd(state, obj, batches, hp):
    """Plain mini-batch SGD: x <- x - gamma * mean_k mean_i grad f_i(x)."""
    return _synced_step(state, obj, batches, hp, _SGD_RULE, state.x[:, None])


def step_nesterov(state, obj, batches, hp):
    """Three-line Nesterov recurrence, gradient at the shared lookahead."""
    halves, z = lookahead(state, hp, batches.shape[1], None)
    return _synced_step(state, obj, batches, hp, _MOMENTUM_RULE, halves, z)


def step_extrap_sgd(state, obj, batches, hp, extrap_b=None):
    """Gradient extrapolation from the stored past local batch gradients."""
    halves, z = lookahead(state, hp, batches.shape[1], "past")
    return _synced_step(state, obj, batches, hp, _MOMENTUM_RULE, halves, z,
                        extrap_b)


def step_extrapolated_noise(state, obj, batches, hp, noise, seed, extrap_b=None):
    """Extrapolation along a seeded noise direction instead of past gradients;
    `seed` holds the R trial seeds."""
    halves, z = lookahead(state, hp, batches.shape[1], "noise", noise, seed,
                          obj.partition)
    return _synced_step(state, obj, batches, hp, _MOMENTUM_RULE, halves, z,
                        extrap_b)


def lookahead(state, hp, n_workers, direction, noise=None, seed=None,
              partition=None):
    """Step t = `state.step_t`'s evaluation points and directions z.

    The points start from each trial's x and v, shared by its workers, or,
    once post-local's local phase has set `state.local_x`, from each
    worker's own x^k and v^k.  `direction` (`theory.Method.direction`) None
    gives nesterov's points x + u v, (R, 1, d) when shared; the others give
    the (R, K, d) points x - gamma_hat z^k + u v with z^k the stored past
    gradient ("past"), a draw seeded by (trial seed, _NOISE_TAG, t) for each
    of the R trial seeds in `seed` ("noise"), or the Adam-preconditioned past
    gradient ("adam", without momentum).  At t = 0 and with gamma_hat = 0 no
    worker extrapolates.  z is the (R, K, d) stack of the z^k; None without
    extrapolation and for "adam", whose direction no replay reads.
    """
    u = 0.0 if direction == "adam" else hp.momentum_u   # Adam keeps no v
    if state.local_x is None:   # each trial's point against its K workers
        x, v = state.x[:, None], state.v[:, None]
    else:
        x, v = state.local_x, state.local_v
    ghat = effective_gamma_hat(hp, n_workers)
    z = None
    if direction is None:
        quarters = x
    elif ghat == 0.0 or state.step_t == 0:
        quarters = np.broadcast_to(x, (len(x), n_workers, x.shape[-1]))
    elif direction == "adam":
        pg, m1, m2 = state.past_grad, state.adam_m[:, None], state.adam_v[:, None]
        num = hp.adam_beta1 * m1 + (1.0 - hp.adam_beta1) * pg
        den = hp.adam_beta2 * m2 + (1.0 - hp.adam_beta2) * pg * pg + hp.adam_eps
        if hp.extrap_denominator_sqrt:
            den = np.sqrt(den)
        quarters = x - ghat * num / den
    else:
        if direction == "noise":
            rngs = [np.random.default_rng(
                np.random.SeedSequence((s, _NOISE_TAG, state.step_t)))
                for s in seed]
            z = draw_noise_directions(noise, state, rngs, n_workers, partition)
        else:
            z = state.past_grad
        quarters = x - ghat * z
    if u == 0.0:
        return quarters, z
    return quarters + u * v, z


def draw_noise_directions(noise, state, rngs, n_workers, partition):
    """The (R, K, d) extrapolation directions for one step: trial r's drawn
    from `rngs[r]` in ascending worker order (the shared kind draws once),
    the trials in ascending order; filter-scaled noise is scaled per block
    of the objective's `partition`."""
    x = state.x
    if noise.kind == ANISO_STOCHASTIC:
        past = state.past_grad
        return past - reduce_mean(past)[:, None]
    raw = np.stack([_raw_noise(noise, rng, n_workers, x.shape[-1])
                    for rng in rngs])
    if not noise.filter_scaled:
        return raw
    return trust_scale(raw, x, partition, 1.0, 0.0)


def _raw_noise(noise, rng, n_workers, d):
    """One trial's (K, d) unscaled draws from `rng`; ValueError for a kind
    that draws none, so an unvalidated `noise` cannot extrapolate."""
    if noise.kind == SMOOTHOUT_SHARED:
        shared = rng.uniform(-noise.raw_scale, noise.raw_scale, d)
        return np.broadcast_to(shared, (n_workers, d))
    if noise.kind == ISO_GAUSSIAN:
        return noise.raw_scale * rng.standard_normal((n_workers, d))
    if noise.kind == ISO_UNIFORM:
        return rng.uniform(-noise.raw_scale, noise.raw_scale, (n_workers, d))
    raise ValueError(f"noise kind {noise.kind!r} draws no extrapolation direction")


def step_adam(state, obj, batches, hp):
    """Reference Adam without bias correction (the gamma_hat = 0 baseline)."""
    return _synced_step(state, obj, batches, hp, _ADAM_RULE, state.x[:, None])


def step_extrap_adam(state, obj, batches, hp, extrap_b=None):
    """Adam with a per-worker moment-preconditioned extrapolation step.

    The extrapolation denominator is beta2*v + (1-beta2)*g_past^2 + eps,
    literally without a square root; set hp.extrap_denominator_sqrt for the
    sqrt variant.  Moments are shared, updated from the reduced gradient,
    without bias correction.  Extrapolation is skipped at t = 0.
    """
    halves, z = lookahead(state, hp, batches.shape[1], "adam")
    return _synced_step(state, obj, batches, hp, _ADAM_RULE, halves, z,
                        extrap_b)


def step_post_local(state, obj, batches, hp, plc, extrap_b=None):
    """Synchronized extrap_sgd until t0, then local updates with averaging.

    For t > t0 each worker runs the extrap update on its own (x^k, v^k) with
    local gradients only; whenever t mod H == 0, the post-update x^k are all
    replaced by their mean (momentum buffers stay local).  At the transition
    the workers inherit the global momentum buffer (or zeros when
    hp.reset_local_momentum is set).
    """
    t = state.step_t
    if t <= plc.transition_step_t0:
        return step_extrap_sgd(state, obj, batches, hp, extrap_b=extrap_b)

    shape = batches.shape[:2] + state.x.shape[-1:]      # (R, K, d)
    if state.local_x is None:
        state.local_x = np.broadcast_to(state.x[:, None], shape).copy()
        state.local_v = (np.zeros(shape) if hp.reset_local_momentum else
                         np.broadcast_to(state.v[:, None], shape).copy())
    halves, z = lookahead(state, hp, batches.shape[1], "past")
    grads, past = _worker_grads(obj, halves, batches, hp, extrap_b)
    _check_finite(state, "local gradients", grads)
    g_used = (trust_scale(grads, state.local_x, obj.partition, hp.lars_trust,
                          hp.weight_decay) if hp.lars_trust > 0 else grads)
    local_v = _momentum_update(state.local_v, hp.momentum_u, hp.lr_gamma, g_used)
    local_x = state.local_x + local_v
    mean_x = reduce_mean(local_x)
    _check_finite(state, "iterate", mean_x)
    if t % plc.local_steps_H == 0:
        local_x = np.broadcast_to(mean_x[:, None], shape).copy()
    state.local_x, state.local_v = local_x, local_v
    return _step_tail(state, mean_x, past, {"halves": halves, "z": z})


# ---------------------------------------------------------------------------
# learning-rate schedules
# ---------------------------------------------------------------------------

def warmup_increment(sched, cluster, obj):
    """Per-iteration lr increment (K gamma - gamma) / (H_w N / (KB))."""
    peak = sched.base_lr * sched.scale_factor
    steps = sched.warmup_epochs * obj.sample_count / (cluster.workers_K * cluster.local_batch_B)
    if steps <= 0:
        return 0.0
    return (peak - sched.base_lr) / steps


def lr_series(sched, steps, cluster, obj):
    """The learning rates of steps 0 .. steps - 1 under `sched`, with the
    schedule validated once."""
    sched.validate()
    return [_lr(sched, t, cluster, obj) for t in range(steps)]


def _lr(sched, t, cluster, obj):
    peak = sched.base_lr * sched.scale_factor
    if sched.kind == CONSTANT:
        return peak
    if sched.kind == INVERSE_SQRT:
        w = sched.warmup_steps_inverse_sqrt
        step = t + 1
        return peak * min(step / w, math.sqrt(w / step))
    lr = peak           # zero warmup epochs: the peak from step 0
    if sched.warmup_epochs > 0:
        lr = min(sched.base_lr + t * warmup_increment(sched, cluster, obj), peak)
    if sched.kind == WARMUP_STEP_DECAY and sched.total_steps > 0:
        passed = sum(1 for m in sched.decay_milestones if t >= m * sched.total_steps)
        lr = lr / sched.decay_factor ** passed
    return lr
