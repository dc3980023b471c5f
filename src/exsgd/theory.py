"""
Numerical verification of the convergence theory.

Everything here works on recorded trajectories (arrays of iterates, momentum
buffers, half/lookahead points, reduced gradients, mean extrapolation
directions) plus the problem constants (L, sigma^2, r0).

The central object is the *virtual sequence* y_bar_t: a weighted combination
of consecutive lookahead points that turns the momentum recursion into plain
gradient descent,

    y_bar_{t+1} - y_bar_t = -(gamma / (1 - u)) * g_bar_{t+1/2}     (exactly),

where g_bar_{t+1/2} is the reduced stochastic gradient actually applied at
step t.  `check_descent_identity` verifies this telescoping identity to float
precision; `check_proximity_inequalities` verifies that the virtual sequence
stays near the evaluation points (so that guarantees stated on y_bar transfer
to the actual iterates); `rate_bound` evaluates the closed-form convergence
bounds so a run can be checked against them; `critical_batch_size` and
`tune_stepsize` expose the batch-size / stepsize rules those bounds imply.

Inequality checks use a 1e-12 relative slack: the mathematical statements are
exact, but both sides are computed in floating point.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import _SIGMA2_BLOCK, batch_gradient, row_dots
from .optimizers import HyperParams, effective_gamma_hat

_REL_SLACK = 1e-12
_MAX_DOUBLINGS = 50    # epsilon_horizon gives up past T = 2**50

SGD = "sgd"
NESTEROV = "nesterov"
EXTRAP_SGD = "extrap_sgd"
EXTRAP_NOISE = "extrap_noise"
EXTRAP_ADAM = "extrap_adam"
ADAM = "adam"
POST_LOCAL = "post_local"


@dataclass(frozen=True)
class Method:
    """What sets one method apart within the unified framework."""
    summary: str            # one line for `exsgd list-methods`
    step: str               # the name of its `optimizers.step_*` function
    direction: str = None   # extrapolation along None, "past", "noise" or "adam"
    bounded: bool = False   # closed-form rate bound plus virtual-sequence replay
    needs: str = None       # the RunConfig section the method requires
    momentum: bool = True   # applies hp.momentum_u; the replay takes u = 0 if not


METHOD_TABLE = {
    SGD: Method("mini-batch SGD: x <- x - gamma * reduced batch gradient",
                "step_minibatch_sgd", bounded=True, momentum=False),
    NESTEROV: Method("momentum SGD, gradient taken at the lookahead x + u*v",
                     "step_nesterov", bounded=True),
    EXTRAP_SGD: Method("each worker first steps along its stored past batch "
                       "gradient, then the usual momentum update follows",
                       "step_extrap_sgd", "past", bounded=True),
    EXTRAP_NOISE: Method("like extrap_sgd but the lookahead direction is drawn "
                         "noise (gaussian/uniform/shared/centered past gradients)",
                         "step_extrapolated_noise", "noise", bounded=True,
                         needs="noise"),
    ADAM: Method("Adam without bias correction (reference baseline)",
                 "step_adam", momentum=False),
    EXTRAP_ADAM: Method("Adam whose workers look ahead through the stored "
                        "moments and their past gradient before the shared "
                        "moment update", "step_extrap_adam", "adam",
                        momentum=False),
    POST_LOCAL: Method("synchronized extrap_sgd until step t0, then per-worker "
                       "local updates with model averaging every H steps",
                       "step_post_local", "past", needs="post_local"),
}
METHODS = tuple(METHOD_TABLE)


@dataclass
class VirtualSequence:
    """Trajectory arrays; row t is step t.

    x, v, x_bar_half, xi_bar have T+1 rows (x_bar_half[T] is the terminal
    lookahead point, reachable without any extra gradient evaluation);
    g_bar_half has T rows.  y_bar is derived, T+1 rows.
    """
    x: np.ndarray
    v: np.ndarray
    x_bar_half: np.ndarray
    g_bar_half: np.ndarray
    xi_bar: np.ndarray
    y_bar: np.ndarray
    gamma: float
    gamma_hat: float
    momentum_u: float


def build_virtual_sequence(x, v, x_bar_half, g_bar_half, xi_bar,
                           gamma, gamma_hat, momentum_u):
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    x_bar_half = np.asarray(x_bar_half, dtype=np.float64)
    g_bar_half = np.asarray(g_bar_half, dtype=np.float64)
    xi_bar = np.asarray(xi_bar, dtype=np.float64)
    steps = g_bar_half.shape[0]
    for name, arr, rows in (("x", x, steps + 1), ("v", v, steps + 1),
                            ("x_bar_half", x_bar_half, steps + 1),
                            ("xi_bar", xi_bar, steps + 1)):
        if arr.shape[0] != rows:
            raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    u = momentum_u
    y_bar = np.empty_like(x_bar_half)
    y_bar[0] = x[0]
    if steps > 0:
        # (x_bar_{t+1/2} - u x_bar_{t-1/2} + gamma u g_{t-1/2}
        #  + gamma_hat (xi_t - u xi_{t-1})) / (1 - u)
        y_bar[1:] = (x_bar_half[1:] - u * x_bar_half[:-1]
                     + gamma * u * g_bar_half
                     + gamma_hat * (xi_bar[1:] - u * xi_bar[:-1])) / (1.0 - u)
    return VirtualSequence(x=x, v=v, x_bar_half=x_bar_half, g_bar_half=g_bar_half,
                           xi_bar=xi_bar, y_bar=y_bar, gamma=gamma,
                           gamma_hat=gamma_hat, momentum_u=momentum_u)


def check_descent_identity(vs):
    """Per-step norms of y_bar_{t+1} - y_bar_t + (gamma/(1-u)) g_bar_{t+1/2}.

    The identity is exact, so the residuals measure float round-off only.
    """
    coef = vs.gamma / (1.0 - vs.momentum_u)
    resid = vs.y_bar[1:] - vs.y_bar[:-1] + coef * vs.g_bar_half
    return np.linalg.norm(resid, axis=1)


def _ineq(lhs, rhs, precondition_ok=True, note=""):
    holds = bool(lhs <= rhs * (1.0 + _REL_SLACK) + 1e-300) if precondition_ok else None
    return {"lhs": float(lhs), "rhs": float(rhs), "holds": holds,
            "precondition_ok": bool(precondition_ok), "note": note}


def check_proximity_inequalities(vs, worker_dev2=None, sigma2=None,
                                 sigma_hat2=None, extrap_batch_b=None,
                                 uses_past_gradients=True):
    """Named proximity checks for one recorded trajectory.

    - momentum_energy:     sum_t ||v_t||^2 <= gamma^2/(1-u)^2 sum ||g_bar||^2
    - lookahead_proximity: sum_t ||y_bar_t - x_bar_{t+1/2}||^2 bounded by
      c * u^4 gamma^2/(1-u)^4 * sum ||g_bar||^2 with c = 1 when gamma_hat = 0
      and c = 4 when extrapolating (requires gamma_hat <= u^2 gamma/(1-u)^2)
    - worker_deviation:    time-average of (1/K) sum_k ||x^k_half - x_bar_half||^2
      against 4 gamma_hat^2 sigma^2 / b (stored past gradients) or
      2 gamma_hat^2 sigma_hat2 (IID noise directions), both 0 when
      gamma_hat = 0; the statement is an expectation bound, so this check is
      expected to hold on most trials, not every trial.

    Returns {name: {lhs, rhs, holds, precondition_ok, note}}; `holds` is None
    when a precondition fails or an input is missing.
    """
    u, gamma, ghat = vs.momentum_u, vs.gamma, vs.gamma_hat
    g2 = float(np.sum(vs.g_bar_half ** 2))
    out = {}

    v2 = float(np.sum(vs.v ** 2))
    out["momentum_energy"] = _ineq(v2, gamma ** 2 / (1.0 - u) ** 2 * g2)

    steps = vs.g_bar_half.shape[0]
    gap2 = float(np.sum((vs.y_bar[:steps] - vs.x_bar_half[:steps]) ** 2))
    ghat_cap = u ** 2 * gamma / (1.0 - u) ** 2
    if ghat == 0.0:
        out["lookahead_proximity"] = _ineq(
            gap2, u ** 4 * gamma ** 2 / (1.0 - u) ** 4 * g2)
    else:
        pre = uses_past_gradients and ghat <= ghat_cap * (1.0 + _REL_SLACK)
        out["lookahead_proximity"] = _ineq(
            gap2, 4.0 * u ** 4 * gamma ** 2 / (1.0 - u) ** 4 * g2,
            precondition_ok=pre,
            note="needs gamma_hat <= u^2 gamma/(1-u)^2 and past-gradient directions")

    if worker_dev2 is not None:
        lhs = float(np.mean(worker_dev2))
        if uses_past_gradients:
            if sigma2 is None or not extrap_batch_b:
                out["worker_deviation"] = _ineq(
                    lhs, math.nan, precondition_ok=False,
                    note="sigma2 and extrap_batch_b required")
            else:
                pre = ghat <= ghat_cap * (1.0 + _REL_SLACK)
                out["worker_deviation"] = _ineq(
                    lhs, 4.0 * ghat ** 2 * sigma2 / extrap_batch_b,
                    precondition_ok=pre,
                    note="expectation bound, checked as a per-trial time average")
        elif sigma_hat2 is not None:
            out["worker_deviation"] = _ineq(
                lhs, 2.0 * ghat ** 2 * sigma_hat2,
                note="expectation bound, checked as a per-trial time average")
        elif ghat == 0.0:
            # Both bounds are 0 and so is the deviation.
            out["worker_deviation"] = _ineq(
                lhs, 0.0, note="gamma_hat = 0: the workers share each point")
        else:
            out["worker_deviation"] = _ineq(
                lhs, math.nan, precondition_ok=False,
                note="sigma_hat2 unknown for this noise kind")
    return out


# ---------------------------------------------------------------------------
# closed-form rate bounds
# ---------------------------------------------------------------------------

@dataclass
class RateBoundReport:
    method: str
    bound_value: float
    stepsize_cap: float
    constants_used: dict = field(default_factory=dict)
    measured_min_grad_norm2: float = math.nan
    measured_avg_grad_norm2: float = math.nan
    holds: bool = None


def stepsize_cap(method, constants, momentum_u=0.0):
    """Largest gamma for which the method's bound is stated."""
    L, u = constants.lipschitz_L, momentum_u
    if not L > 0:
        raise ValueError(f"rate bounds need lipschitz_L > 0, got {L!r}")
    if method == SGD:
        return 1.0 / L
    if method == NESTEROV:
        return 2.0 * (1.0 - u) ** 2 / (L * (u ** 3 + 1.0))
    if method == EXTRAP_SGD:
        return (1.0 - u) ** 2 / (L * (1.0 + 3.0 * u + u ** 3))
    if method == EXTRAP_NOISE:
        return (1.0 - u) ** 2 / (L * (1.0 + u + u ** 3))
    raise ValueError(f"no rate bound for method {method!r}")


def rate_bound(method, constants, hp, cluster, horizon_T, sigma_hat2=None):
    """Evaluate the stationarity bound E[(1/T) sum ||grad f||^2] <= ... .

    Raises ValueError when the stepsizes violate the bound's validity caps.
    The `measured_*` fields are left for the caller to fill from a run (see
    `finish_report`); `holds` compares the measured average to the bound.
    """
    if horizon_T < 1:
        raise ValueError("horizon_T must be >= 1")
    L, s2, r0 = constants.lipschitz_L, constants.variance_sigma2, constants.r0
    gamma, u = hp.lr_gamma, hp.momentum_u
    if gamma <= 0:
        raise ValueError("rate bounds need lr_gamma > 0")
    KB = cluster.workers_K * cluster.local_batch_B
    cap = stepsize_cap(method, constants, u)
    if gamma > cap * (1.0 + _REL_SLACK):
        raise ValueError(f"gamma {gamma} above the cap {cap} for {method}")
    used = {"L": L, "sigma2": s2, "r0": r0, "gamma": gamma, "momentum_u": u,
            "K": cluster.workers_K, "B": cluster.local_batch_B, "T": horizon_T}

    if method == SGD:
        bound = 2.0 * r0 / (gamma * horizon_T) + gamma * L * s2 / KB
    elif method == NESTEROV:
        denom = 1.0 - L * gamma * (u ** 3 + 1.0) / (2.0 * (1.0 - u) ** 2)
        bracket = ((1.0 - u) * r0 / (gamma * horizon_T)
                   + gamma * L / (2.0 * (1.0 - u) ** 2) * s2 / KB)
        bound = bracket / denom if denom > 0 else math.inf
    elif method == EXTRAP_SGD:
        ghat = effective_gamma_hat(hp, cluster.workers_K)
        ghat_cap = u ** 2 * gamma / (1.0 - u) ** 2
        if ghat > ghat_cap * (1.0 + _REL_SLACK):
            raise ValueError(
                f"gamma_hat {ghat} above the cap u^2 gamma/(1-u)^2 = {ghat_cap}")
        used["gamma_hat"] = ghat
        b = used["b"] = cluster.effective_extrap_b()
        bound = (2.0 * (1.0 - u) * r0 / (gamma * horizon_T)
                 + (4.0 * ghat ** 2 * L ** 2 / b
                    + gamma * L * (1.0 + 3.0 * u) / ((1.0 - u) ** 2 * KB)) * s2)
    else:   # EXTRAP_NOISE: stepsize_cap rejected the methods without a bound
        if u == 0.0:
            raise ValueError("the noise-extrapolation bound needs momentum_u > 0")
        if sigma_hat2 is None:
            raise ValueError("sigma_hat2 (noise second moment) is required")
        ghat = effective_gamma_hat(hp, cluster.workers_K)
        used["gamma_hat"] = ghat
        used["sigma_hat2"] = sigma_hat2
        bound = (2.0 * (1.0 - u) * r0 / (gamma * horizon_T)
                 + gamma * L * (1.0 + u) / ((1.0 - u) ** 2 * KB) * s2
                 + (L ** 2 + (1.0 - u) ** 2 * L / (gamma * u ** 3 * cluster.workers_K))
                 * 2.0 * ghat ** 2 * horizon_T * sigma_hat2)
    return RateBoundReport(method=method, bound_value=float(bound),
                           stepsize_cap=cap, constants_used=used)


def finish_report(report, grad_norm2_series):
    series = np.asarray(grad_norm2_series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("empty gradient-norm series")
    report.measured_min_grad_norm2 = float(series.min())
    report.measured_avg_grad_norm2 = float(series.mean())
    report.holds = bool(report.measured_avg_grad_norm2
                        <= report.bound_value * (1.0 + _REL_SLACK))
    return report


def critical_batch_size(method, constants, momentum_u=0.0):
    """KB below which the statistical term dominates the bound (unit
    constants): larger aggregate batches past this point stop buying steps."""
    L, s2 = constants.lipschitz_L, constants.variance_sigma2
    r0, T = constants.r0, constants.horizon_T
    if T < 1:
        raise ValueError("constants.horizon_T must be set (>= 1)")
    if not L * r0 > 0:
        raise ValueError("a critical batch size needs lipschitz_L * r0 > 0, "
                         f"got L={L!r}, r0={r0!r}")
    base = s2 * T / (L * r0)
    u = momentum_u
    if method == SGD:
        return base
    if method == NESTEROV:
        return base * (1.0 - u) / (u ** 3 + 1.0) ** 2
    if method == EXTRAP_SGD:
        return base * (19.0 * u + 1.0) * (1.0 - u) / (u ** 3 + 3.0 * u + 1.0) ** 3
    raise ValueError(f"no critical batch size for method {method!r}")


def tune_stepsize(method, constants, cluster, horizon_T, momentum_u=0.0):
    """Constant stepsize from the two-case rule: the bound-minimizing
    candidate when it is admissible, otherwise the validity cap."""
    if horizon_T < 1:
        raise ValueError("horizon_T must be >= 1")
    L, s2, r0 = constants.lipschitz_L, constants.variance_sigma2, constants.r0
    u = momentum_u
    cap = stepsize_cap(method, constants, u)
    if s2 == 0.0:
        return cap
    KB = cluster.workers_K * cluster.local_batch_B
    scale = 2.0 * r0 * KB / (L * s2 * horizon_T)
    if method == SGD:
        candidate = math.sqrt(scale)
    elif method == NESTEROV:
        candidate = math.sqrt(scale * (1.0 - u) ** 3)
    elif method == EXTRAP_SGD:
        candidate = math.sqrt(
            scale * (u ** 3 + 3.0 * u + 1.0) * (1.0 - u) ** 3 / (19.0 * u + 1.0))
    else:   # EXTRAP_NOISE: stepsize_cap rejected the methods without a rule
        candidate = math.sqrt(scale * (1.0 - u) ** 3 / (1.0 + u))
    return min(cap, candidate)


def tuned_hyperparams(method, constants, cluster, horizon_T, momentum_u=0.0):
    """HyperParams with the tuned gamma (and an admissible gamma_hat)."""
    gamma = tune_stepsize(method, constants, cluster, horizon_T, momentum_u)
    u = momentum_u
    ghat = None
    if method == EXTRAP_SGD:   # the cap is 0 when u = 0
        ghat = min(gamma / cluster.workers_K, u ** 2 * gamma / (1.0 - u) ** 2)
    return HyperParams(lr_gamma=gamma, inner_lr_gamma_hat=ghat, momentum_u=u)


def epsilon_horizon(method, constants, cluster, epsilon, momentum_u=0.0):
    """Smallest integer T whose tuned bound is <= epsilon.

    The tuned bound is non-increasing in T for the methods with vanishing
    bounds (sgd / nesterov / extrap_sgd), so doubling + bisection is exact.
    extrap_noise's bound grows with T through its noise term, and
    `rate_bound` refuses it without the noise second moment.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")

    def bound(T):
        hp = tuned_hyperparams(method, constants, cluster, T, momentum_u)
        return rate_bound(method, constants, hp, cluster, T).bound_value

    if bound(1) <= epsilon:
        return 1
    lo, hi = 1, 2
    for _ in range(_MAX_DOUBLINGS):
        if bound(hi) <= epsilon:
            break
        lo, hi = hi, hi * 2
    else:
        raise ValueError(f"bound never reaches epsilon={epsilon}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# smoothness probing
# ---------------------------------------------------------------------------

def smoothness_estimate(obj, x_values, update_direction, probes=8, fraction=0.30,
                        *, weight_decay=0.0):
    """Local smoothness along an update direction.

    Probes x + j * fraction * update for j = 1..probes and returns the largest
    gradient-difference ratio ||grad F(x_j) - grad F(x)|| / ||x_j - x||, where
    F = f + (weight_decay / 2) ||x||^2 is the objective a run minimizes (the
    oracle adds the decay term).  Returns 0.0 for a zero update direction,
    and NaN when every probe's ratio is NaN, as when the probes overflow or
    underflow onto x; a run then records its `smoothness_L` as null.
    Raises ValueError unless probes >= 1 and fraction is finite and > 0.
    """
    return smoothness_estimates(
        obj, np.asarray(x_values, dtype=np.float64)[None],
        np.asarray(update_direction, dtype=np.float64)[None], probes, fraction,
        weight_decay=weight_decay)[0]


def smoothness_estimates(obj, x_rows, updates, probes=8, fraction=0.30, *,
                         weight_decay=0.0):
    """`smoothness_estimate` at each row of the (R, d) `x_rows` along the same
    row of `updates`, one value per row.  The 1 + probes points of all rows
    go to stacked full-gradient calls of at most `_SIGMA2_BLOCK` // (N d)
    points each (one call at gate sizes); a stacked row is bitwise its
    single-point call, so each value is bitwise the probe of its row alone."""
    if not (probes >= 1 and math.isfinite(fraction) and fraction > 0):
        raise ValueError(f"smoothness probes must be >= 1 and fraction finite "
                         f"and > 0, got probes={probes}, fraction={fraction}")
    x_rows = np.asarray(x_rows, dtype=np.float64)
    updates = np.asarray(updates, dtype=np.float64)
    best = np.zeros(len(x_rows))
    moving = np.flatnonzero(updates.any(-1)).tolist()
    if not moving:
        return best.tolist()
    steps = np.array([j * fraction for j in range(1, probes + 1)])
    deltas = steps[:, None] * updates[moving, None]         # (M, probes, d)
    bases = x_rows[moving, None]
    points = np.concatenate([bases, bases + deltas], axis=1).reshape(
        -1, x_rows.shape[-1])
    size = max(1, _SIGMA2_BLOCK // (obj.sample_count * obj.dimension))
    grads = np.concatenate([
        batch_gradient(obj, points[lo:lo + size], range(obj.sample_count),
                       weight_decay=weight_decay)
        for lo in range(0, len(points), size)]).reshape(len(moving), probes + 1, -1)
    g = grads[:, 1:] - grads[:, :1]
    ratios = np.sqrt(row_dots(g, g)) / np.sqrt(row_dots(deltas, deltas))
    best[moving] = np.fmax.reduce(ratios, -1)   # skips NaN as max
    return best.tolist()
