"""
Update rules for the simulated cluster.

All methods share the same skeleton per step t:

    lookahead point(s)  ->  per-worker batch gradients  ->  fixed-order
    reduction  ->  buffer/parameter update

- sgd:          x <- x - gamma * g(x)
- nesterov:     x_half = x + u v;  v <- u v - gamma g(x_half);  x <- x + v
- extrap_sgd:   per worker, x_quarter^k = x - gamma_hat * past_grad[k], then
                the nesterov lines evaluated at x_half^k = x_quarter^k + u v.
                past_grad[k] is the batch-mean gradient the worker computed at
                its previous half point (stored, never recomputed), so the
                extrapolation costs no extra gradient evaluations.  The
                extrapolation is skipped at t = 0 (past_grad = 0).
- extrap_noise: extrapolation direction replaced by a noise draw zeta^k
                (isotropic gaussian/uniform, optionally filter-scaled;
                a shared draw; or centered past stochastic gradients).
- adam /        moment-based updates without bias correction; extrap_adam
  extrap_adam:  extrapolates per worker through the stored moments and past
                gradient before the shared moment update.
- post_local:   synchronized extrap_sgd until step t0, then per-worker local
                extrap updates with model averaging every H steps.

Weight decay (when nonzero) enters as +lambda*x at every gradient evaluation,
identically across methods.  LARS (when trust > 0) rescales each block of the
reduced gradient before the main update.

Per-worker state is stacked: past gradients, half points and the post-local
x^k / v^k are (K, d) arrays with one row per worker, and one oracle call on
`batches`, the (K, B) int64 index matrix of `cluster.draw_batches` whose row
k is worker k's batch (so `len(batches)` is K), evaluates all K workers'
batch gradients at once.
Row k is bitwise what a separate call for worker k returns, and the worker
mean is still `cluster.reduce_mean`, an ascending add over the rows, so the
reduction chains sgd = nesterov(u=0), nesterov = extrap_sgd(gamma_hat=0) and
adam = extrap_adam(gamma_hat=0) hold bitwise.

Step functions mutate `state` in place and return it; per-step quantities
needed by the theory checks (mean half point, reduced gradient, mean
extrapolation direction, worker deviation) are left in `state.last_info`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# map_workers is unused by the stacked steps; benchmark/tracer.py patches
# this name, so the import stays until the tracer changes with it.
from .cluster import map_workers, reduce_mean  # noqa: F401
from .objectives import ParamVector, batch_gradient

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


class NumericAbort(RuntimeError):
    """A gradient or iterate went non-finite; the run stops with a record."""

    def __init__(self, step, detail):
        super().__init__(f"non-finite value at step {step}: {detail}")
        self.step = step
        self.detail = detail


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
        # 0 is allowed as the degenerate no-op stepsize (x provably unchanged)
        if self.lr_gamma < 0:
            raise ValueError("lr_gamma must be >= 0")
        if self.inner_lr_gamma_hat is not None and self.inner_lr_gamma_hat < 0:
            raise ValueError("inner_lr_gamma_hat must be >= 0")
        if not 0.0 <= self.momentum_u < 1.0:
            raise ValueError("momentum_u must lie in [0, 1)")
        if self.lars_trust < 0:
            raise ValueError("lars_trust must be >= 0")
        if self.weight_decay < 0:
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
        if self.raw_scale < 0:
            raise ValueError("raw_scale must be >= 0")
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
    d = x.dim
    if noise.kind == ISO_GAUSSIAN:
        return d * noise.raw_scale ** 2
    return d * noise.raw_scale ** 2 / 3.0   # uniform half-width raw_scale


@dataclass
class Schedule:
    kind: str = CONSTANT
    base_lr: float = 0.1           # small-batch gamma
    scale_factor: float = 1.0      # K for linear scaling
    warmup_epochs: int = 5
    decay_milestones: tuple = (0.5, 0.75)   # fractions of total training samples
    decay_factor: float = 10.0
    warmup_steps_inverse_sqrt: int = 1000
    total_steps: int = 0           # filled by the harness when 0

    def validate(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.base_lr > 0:
            raise ValueError("base_lr must be > 0")
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
    x: ParamVector
    v: np.ndarray                 # momentum buffer v_t
    past_grad: np.ndarray         # (K, d) stored local batch-mean gradients
    adam_m: np.ndarray
    adam_v: np.ndarray
    local_x: np.ndarray = None    # (K, d), post-local phase only
    local_v: np.ndarray = None
    step_t: int = 0
    last_info: dict = field(default_factory=dict, repr=False)


def init_state(x0, workers_K):
    d = x0.dim
    return OptimizerState(
        x=x0.copy(), v=np.zeros(d), past_grad=np.zeros((workers_K, d)),
        adam_m=np.zeros(d), adam_v=np.zeros(d),
    )


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _batch_grad(obj, values, indices, hp):
    g = batch_gradient(obj, values, indices)
    if hp.weight_decay != 0.0:
        g = g + hp.weight_decay * values
    return g


def _worker_grads(obj, halves, batches, hp, extrap_b):
    """All K workers' batch gradients from one oracle call on the (K, B) matrix,
    and the past gradients they store for the next step: the same evaluation,
    or, when extrap_b < B, one more call on each row's leading extrap_b indices.
    `halves` is one shared (d,) point or a (K, d) point per worker."""
    grads = _batch_grad(obj, halves, batches, hp)
    if extrap_b is None or extrap_b == batches.shape[1]:
        return grads, grads   # reuse: extrapolation stays evaluation-free
    return grads, _batch_grad(obj, halves, batches[:, :extrap_b], hp)


def lars_scale(grad_block, x_block, hp):
    """Trust-ratio rescaling of one gradient block; direction unchanged.

    scale = trust * ||x_j|| / (||g_j|| + lambda ||x_j||); zero-weight or
    zero-denominator blocks get scale 0 (block update suppressed).
    """
    x_norm = float(np.linalg.norm(x_block))
    denom = float(np.linalg.norm(grad_block)) + hp.weight_decay * x_norm
    if x_norm == 0.0 or denom == 0.0:
        return np.zeros_like(grad_block)
    return (hp.lars_trust * x_norm / denom) * grad_block


def apply_lars(grad, x_values, partition, hp):
    out = np.empty_like(grad)
    for start, stop in partition:
        out[start:stop] = lars_scale(grad[start:stop], x_values[start:stop], hp)
    return out


def _check_finite(step, name, arr):
    if not np.isfinite(arr).all():
        raise NumericAbort(step, name)


def _momentum_update(v, u, gamma, g):
    # u == 0 skips the no-op multiply so sgd/nesterov iterates agree bitwise
    if u != 0.0:
        return u * v - gamma * g
    return -(gamma * g)


def _worker_dev2(halves, half_bar):
    """Mean squared distance of the (K, d) half points from their mean."""
    if len(halves) == 1:
        return 0.0
    dev = halves - half_bar
    # np.add.reduce is what np.sum and np.mean call, bitwise, without their
    # per-call wrappers.
    return float(np.add.reduce(np.add.reduce(dev * dev, axis=1)) / len(halves))


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

_SGD_RULE, _MOMENTUM_RULE, _ADAM_RULE = "sgd", "momentum", "adam"


def _synced_step(state, obj, batches, hp, rule, halves, xi_bar=None,
                 extrap_b=None):
    """The body every synchronized step shares.

    The workers evaluate at `halves`: the shared (d,) point of sgd, nesterov
    and adam, or the (K, d) per-worker half points of the extrapolated
    methods, which also store their fresh gradients as the next past
    gradients and report the mean and spread of their half points.  `rule`
    is the update applied to the reduced gradient.
    """
    x = state.x.values
    grads, past = _worker_grads(obj, halves, batches, hp, extrap_b)
    g = reduce_mean(grads)
    _check_finite(state.step_t, "reduced gradient", g)
    g_used = apply_lars(g, x, state.x.partition, hp) if hp.lars_trust > 0 else g
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
    _check_finite(state.step_t, "iterate", x_new)
    for name, value in buffers.items():
        setattr(state, name, value)
    state.x.values = x_new
    state.step_t += 1
    if halves.ndim == 2:
        state.past_grad = past
        half_bar = reduce_mean(halves)
        dev2 = _worker_dev2(halves, half_bar)
    else:
        half_bar, dev2 = halves.copy(), 0.0
    state.last_info = {
        "x_half_bar": half_bar, "g_bar": g,
        "xi_bar": xi_bar if xi_bar is not None else np.zeros_like(g),
        "worker_dev2": dev2, "worker_dispersion": 0.0,
    }
    return state


def step_minibatch_sgd(state, obj, batches, hp):
    """Plain mini-batch SGD: x <- x - gamma * mean_k mean_i grad f_i(x)."""
    return _synced_step(state, obj, batches, hp, _SGD_RULE, state.x.values)


def step_nesterov(state, obj, batches, hp):
    """Three-line Nesterov recurrence, gradient at the shared lookahead."""
    x, v, u = state.x.values, state.v, hp.momentum_u
    x_half = x + u * v if u != 0.0 else x
    return _synced_step(state, obj, batches, hp, _MOMENTUM_RULE, x_half)


def _extrap_momentum_step(state, obj, batches, hp, directions, extrap_b):
    """Nesterov at the per-worker half points x - gamma_hat z^k + u v.

    `directions` is the (K, d) array of extrapolation directions, or None
    when extrapolation is skipped.
    """
    x, n_workers = state.x.values, len(batches)
    if directions is None:
        quarters = np.broadcast_to(x, (n_workers, x.size))
        xi_bar = None
    else:
        quarters = x - effective_gamma_hat(hp, n_workers) * directions
        xi_bar = reduce_mean(directions)
    u = hp.momentum_u
    halves = quarters + u * state.v if u != 0.0 else quarters
    return _synced_step(state, obj, batches, hp, _MOMENTUM_RULE, halves,
                        xi_bar, extrap_b)


def step_extrap_sgd(state, obj, batches, hp, extrap_b=None):
    """Gradient extrapolation from the stored past local batch gradients."""
    ghat = effective_gamma_hat(hp, len(batches))
    if ghat != 0.0 and state.step_t > 0:
        directions = np.asarray(state.past_grad)
    else:
        directions = None   # skipped at t=0 or with gamma_hat = 0
    return _extrap_momentum_step(state, obj, batches, hp, directions, extrap_b)


def step_extrapolated_noise(state, obj, batches, hp, noise, rng, extrap_b=None):
    """Extrapolation along a noise direction zeta^k instead of past gradients."""
    noise.validate()
    if noise.kind == NOISE_NONE:
        raise ValueError("noise.kind must not be 'none' for step_extrapolated_noise")
    ghat = effective_gamma_hat(hp, len(batches))
    if ghat != 0.0 and state.step_t > 0:
        directions = draw_noise_directions(noise, state, rng, len(batches))
    else:
        directions = None
    return _extrap_momentum_step(state, obj, batches, hp, directions, extrap_b)


def draw_noise_directions(noise, state, rng, n_workers):
    """The (K, d) extrapolation directions for one step, drawn in ascending
    worker order (the shared kind draws once)."""
    d = state.x.dim
    if noise.kind == ANISO_STOCHASTIC:
        past = np.asarray(state.past_grad)
        return past - reduce_mean(past)
    if noise.kind == SMOOTHOUT_SHARED:
        shared = rng.uniform(-noise.raw_scale, noise.raw_scale, d)
        raw = np.broadcast_to(shared, (n_workers, d))
    elif noise.kind == ISO_GAUSSIAN:
        raw = noise.raw_scale * rng.standard_normal((n_workers, d))
    else:  # ISO_UNIFORM
        raw = rng.uniform(-noise.raw_scale, noise.raw_scale, (n_workers, d))
    if not noise.filter_scaled:
        return raw
    return np.stack([_filter_scale(z, state.x) for z in raw])


def _filter_scale(zeta, x):
    """Per block: ||x_block|| * zeta_block / ||zeta_block||; zero-norm blocks
    (either side) produce zero noise for that block."""
    out = np.zeros_like(zeta)
    for start, stop in x.partition:
        x_norm = np.linalg.norm(x.values[start:stop])
        z_norm = np.linalg.norm(zeta[start:stop])
        if x_norm > 0.0 and z_norm > 0.0:
            out[start:stop] = (x_norm / z_norm) * zeta[start:stop]
    return out


def step_adam(state, obj, batches, hp):
    """Reference Adam without bias correction (the gamma_hat = 0 baseline)."""
    return _synced_step(state, obj, batches, hp, _ADAM_RULE, state.x.values)


def step_extrap_adam(state, obj, batches, hp, extrap_b=None):
    """Adam with a per-worker moment-preconditioned extrapolation step.

    The extrapolation denominator is beta2*v + (1-beta2)*g_past^2 + eps,
    literally without a square root; set hp.extrap_denominator_sqrt for the
    sqrt variant.  Moments are shared, updated from the reduced gradient,
    without bias correction.  Extrapolation is skipped at t = 0.
    """
    x, n_workers = state.x.values, len(batches)
    ghat = effective_gamma_hat(hp, n_workers)
    if ghat != 0.0 and state.step_t > 0:
        pg = np.asarray(state.past_grad)
        num = hp.adam_beta1 * state.adam_m + (1.0 - hp.adam_beta1) * pg
        den = hp.adam_beta2 * state.adam_v + (1.0 - hp.adam_beta2) * pg * pg + hp.adam_eps
        if hp.extrap_denominator_sqrt:
            den = np.sqrt(den)
        halves = x - ghat * num / den
    else:
        halves = np.broadcast_to(x, (n_workers, x.size))
    return _synced_step(state, obj, batches, hp, _ADAM_RULE, halves,
                        extrap_b=extrap_b)


def step_post_local(state, obj, batches, hp, plc, extrap_b=None):
    """Synchronized extrap_sgd until t0, then local updates with averaging.

    For t > t0 each worker runs the extrap update on its own (x^k, v^k) with
    local gradients only; whenever t mod H == 0, the post-update x^k are all
    replaced by their mean (momentum buffers stay local).  At the transition
    the workers inherit the global momentum buffer (or zeros when
    hp.reset_local_momentum is set).
    """
    plc.validate()
    t = state.step_t
    if t <= plc.transition_step_t0:
        return step_extrap_sgd(state, obj, batches, hp, extrap_b=extrap_b)

    n_workers = len(batches)
    if state.local_x is None:
        state.local_x = np.tile(state.x.values, (n_workers, 1))
        if hp.reset_local_momentum:
            state.local_v = np.zeros((n_workers, state.x.dim))
        else:
            state.local_v = np.tile(state.v, (n_workers, 1))
    local_x = np.asarray(state.local_x)
    local_v = np.asarray(state.local_v)

    u = hp.momentum_u
    ghat = effective_gamma_hat(hp, n_workers)
    quarters = local_x - ghat * np.asarray(state.past_grad) if ghat != 0.0 else local_x
    halves = quarters + u * local_v if u != 0.0 else quarters
    grads, past = _worker_grads(obj, halves, batches, hp, extrap_b)
    _check_finite(t, "local gradients", grads)

    g_used = grads
    if hp.lars_trust > 0:
        g_used = np.stack([apply_lars(gk, xk, state.x.partition, hp)
                           for gk, xk in zip(grads, local_x)])
    local_v = _momentum_update(local_v, u, hp.lr_gamma, g_used)
    local_x = local_x + local_v
    mean_x = reduce_mean(local_x)
    if t % plc.local_steps_H == 0:
        local_x = np.tile(mean_x, (n_workers, 1))
    state.local_x, state.local_v, state.past_grad = local_x, local_v, past
    _check_finite(t, "iterate", mean_x)
    dispersion = max(float(np.linalg.norm(xk - mean_x)) for xk in local_x)
    state.x.values = mean_x
    state.step_t += 1
    half_bar = reduce_mean(halves)
    state.last_info = {
        "x_half_bar": half_bar, "g_bar": reduce_mean(grads),
        "xi_bar": np.zeros_like(mean_x), "worker_dev2": _worker_dev2(halves, half_bar),
        "worker_dispersion": dispersion,
    }
    return state


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


def lr_at(sched, t, cluster, obj):
    """Learning rate at step t under `sched`."""
    if t < 0:
        raise ValueError("step t must be >= 0")
    sched.validate()
    peak = sched.base_lr * sched.scale_factor
    if sched.kind == CONSTANT:
        return peak
    if sched.kind == INVERSE_SQRT:
        w = max(1, sched.warmup_steps_inverse_sqrt)
        step = t + 1
        return peak * min(step / w, math.sqrt(w / step))
    lr = min(sched.base_lr + t * warmup_increment(sched, cluster, obj), peak)
    if sched.kind == WARMUP_STEP_DECAY and sched.total_steps > 0:
        passed = sum(1 for m in sched.decay_milestones if t >= m * sched.total_steps)
        lr = lr / sched.decay_factor ** passed
    return lr
