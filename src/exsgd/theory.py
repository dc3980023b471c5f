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
to the actual iterates).

Each bounded method states its stationarity bound once, as the `Bound` row
(cap, a, b, c, k) of its METHOD_TABLE entry:

    bound(gamma) = (a/gamma + b gamma + c gamma^2) / (1 - k gamma),   gamma <= cap.

Every rule reads that row and holds no formula of its own: `stepsize_cap`
is the row's cap, `rate_bound` evaluates the row so a run can be checked
against it, `tune_stepsize` is the row's exact minimizer on (0, cap], and
`critical_batch_size` is the one aggregate batch at which the statistical
term b gamma meets the optimization term a/gamma at the cap.

Inequality checks use a 1e-12 relative slack: the mathematical statements are
exact, but both sides are computed in floating point.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .cluster import ClusterConfig
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


class Bound(NamedTuple):
    """One method's stationarity bound, E[(1/T) sum_t ||grad f(x_t)||^2] <=

        (a/gamma + b gamma + c gamma^2) / (1 - k gamma)   for 0 < gamma <= cap.

    Each entry maps the problem `p` that `_problem` builds to its value, so a
    caller evaluates only the entries it reads (`stepsize_cap` needs no
    cluster or horizon).  p holds L, s2 = sigma^2, r0, u, T, K, KB,
    b_extrap (the past-gradient batch b), rho = gamma_hat/gamma and
    s_hat2 = sigma_hat^2, the noise second moment."""
    cap: Callable
    a: Callable
    b: Callable
    c: Callable = lambda p: 0.0
    k: Callable = lambda p: 0.0


@dataclass(frozen=True)
class Method:
    """What sets one method apart within the unified framework."""
    summary: str            # one line for `exsgd list-methods`
    step: str               # the name of its `optimizers.step_*` function
    direction: str = None   # extrapolation along None, "past", "noise" or "adam"
    needs: str = None       # the RunConfig section the method requires
    momentum: bool = True   # applies hp.momentum_u; the replay takes u = 0 if not
    bound: Bound = None     # its rate bound, if the theory states one

    @property
    def bounded(self):
        """A rate bound, and so the virtual-sequence replay, applies."""
        return self.bound is not None


_SGD_ROW = Bound(cap=lambda p: 1.0 / p.L,
                 a=lambda p: 2.0 * p.r0 / p.T,
                 b=lambda p: p.L * p.s2 / p.KB)
# cap = 1/k, where the bound's denominator reaches 0
_NESTEROV_ROW = Bound(cap=lambda p: 2.0 * (1.0 - p.u) ** 2 / (p.L * (p.u ** 3 + 1.0)),
                      a=lambda p: (1.0 - p.u) * p.r0 / p.T,
                      b=lambda p: p.L * p.s2 / (2.0 * (1.0 - p.u) ** 2 * p.KB),
                      k=lambda p: p.L * (p.u ** 3 + 1.0) / (2.0 * (1.0 - p.u) ** 2))
# c: the worker spread 4 gamma_hat^2 L^2 sigma^2 / b of the past-gradient steps
_EXTRAP_SGD_ROW = Bound(
    cap=lambda p: (1.0 - p.u) ** 2 / (p.L * (1.0 + 3.0 * p.u + p.u ** 3)),
    a=lambda p: 2.0 * (1.0 - p.u) * p.r0 / p.T,
    b=lambda p: p.L * (1.0 + 3.0 * p.u) * p.s2 / ((1.0 - p.u) ** 2 * p.KB),
    c=lambda p: 4.0 * p.rho ** 2 * p.L ** 2 * p.s2 / p.b_extrap)
# extrap_sgd's a; b and c add the noise terms
# (L^2 + (1-u)^2 L/(gamma u^3 K)) 2 gamma_hat^2 T sigma_hat^2, which grow with
# T.  Without noise (s_hat2 = 0, as when tuning) b skips its noise part, which
# would divide by u^3 = 0 at u = 0.
_EXTRAP_NOISE_ROW = _EXTRAP_SGD_ROW._replace(
    cap=lambda p: (1.0 - p.u) ** 2 / (p.L * (1.0 + p.u + p.u ** 3)),
    b=lambda p: (p.L * (1.0 + p.u) * p.s2 / ((1.0 - p.u) ** 2 * p.KB)
                 + (2.0 * (1.0 - p.u) ** 2 * p.L * p.rho ** 2 * p.T * p.s_hat2
                    / (p.u ** 3 * p.K) if p.s_hat2 else 0.0)),
    c=lambda p: 2.0 * p.L ** 2 * p.rho ** 2 * p.T * p.s_hat2)

METHOD_TABLE = {
    SGD: Method("mini-batch SGD: x <- x - gamma * reduced batch gradient",
                "step_minibatch_sgd", momentum=False, bound=_SGD_ROW),
    NESTEROV: Method("momentum SGD, gradient taken at the lookahead x + u*v",
                     "step_nesterov", bound=_NESTEROV_ROW),
    EXTRAP_SGD: Method("each worker first steps along its stored past batch "
                       "gradient, then the usual momentum update follows",
                       "step_extrap_sgd", "past", bound=_EXTRAP_SGD_ROW),
    EXTRAP_NOISE: Method("like extrap_sgd but the lookahead direction is drawn "
                         "noise (gaussian/uniform/shared/centered past gradients)",
                         "step_extrapolated_noise", "noise", needs="noise",
                         bound=_EXTRAP_NOISE_ROW),
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
    rows = g_bar_half.shape[0] + 1
    for name, arr in (("x", x), ("v", v), ("x_bar_half", x_bar_half),
                      ("xi_bar", xi_bar)):
        if arr.shape[0] != rows:
            raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    u = momentum_u
    y_bar = np.empty_like(x_bar_half)
    y_bar[0] = x[0]
    # (x_bar_{t+1/2} - u x_bar_{t-1/2} + gamma u g_{t-1/2}
    #  + gamma_hat (xi_t - u xi_{t-1})) / (1 - u); no rows when no step was taken
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


def _problem(constants, u, T, cluster=None, rho=0.0, s_hat2=0.0):
    """The problem a Bound entry reads; K = B = b = 1 without a cluster.
    Every cap divides by L, so L <= 0 is refused here."""
    L, cl = constants.lipschitz_L, cluster or ClusterConfig()
    if not L > 0:
        raise ValueError(f"rate bounds need lipschitz_L > 0, got {L!r}")
    K, B, b = cl.workers_K, cl.local_batch_B, cl.effective_extrap_b()
    return SimpleNamespace(L=L, s2=constants.variance_sigma2, r0=constants.r0,
                           u=u, T=T, K=K, KB=K * B, b_extrap=b, rho=rho, s_hat2=s_hat2)


def _extrap_ratio(workers_K, u):
    """gamma_hat/gamma of a tuned extrap_sgd run: 1/K, or the proximity cap
    u^2/(1-u)^2 where that is smaller (it is 0 at u = 0)."""
    return min(1.0 / workers_K, u ** 2 / (1.0 - u) ** 2)


def stepsize_cap(method, constants, momentum_u=0.0):
    """Largest gamma for which the method's bound is stated."""
    entry = METHOD_TABLE.get(method)
    if entry is None or not entry.bounded:
        raise ValueError(f"no rate bound for method {method!r}")
    return entry.bound.cap(_problem(constants, momentum_u, constants.horizon_T))


def rate_bound(method, constants, hp, cluster, horizon_T, sigma_hat2=None):
    """Evaluate the stationarity bound E[(1/T) sum ||grad f||^2] <= ... .

    The bound is the method's `Bound` at gamma, +inf where its denominator
    1 - k gamma is not positive.  Raises ValueError when the stepsizes
    violate the bound's validity caps.  The `measured_*` fields are left for
    the caller to fill from a run (see `finish_report`); `holds` compares the
    measured average to the bound.
    """
    if horizon_T < 1:
        raise ValueError("horizon_T must be >= 1")
    gamma, u = hp.lr_gamma, hp.momentum_u
    if gamma <= 0:
        raise ValueError("rate bounds need lr_gamma > 0")
    cap = stepsize_cap(method, constants, u)
    if gamma > cap * (1.0 + _REL_SLACK):
        raise ValueError(f"gamma {gamma} above the cap {cap} for {method}")
    used = {"L": constants.lipschitz_L, "sigma2": constants.variance_sigma2,
            "r0": constants.r0, "gamma": gamma, "momentum_u": u,
            "K": cluster.workers_K, "B": cluster.local_batch_B, "T": horizon_T}
    direction, row = METHOD_TABLE[method].direction, METHOD_TABLE[method].bound
    ghat = effective_gamma_hat(hp, cluster.workers_K) if direction else 0.0
    if direction == "past":
        ghat_cap = u ** 2 * gamma / (1.0 - u) ** 2
        if ghat > ghat_cap * (1.0 + _REL_SLACK):
            raise ValueError(
                f"gamma_hat {ghat} above the cap u^2 gamma/(1-u)^2 = {ghat_cap}")
        used.update(gamma_hat=ghat, b=cluster.effective_extrap_b())
    elif direction == "noise":
        if u == 0.0:
            raise ValueError("the noise-extrapolation bound needs momentum_u > 0")
        if sigma_hat2 is None:
            raise ValueError("sigma_hat2 (noise second moment) is required")
        used.update(gamma_hat=ghat, sigma_hat2=sigma_hat2)
    p = _problem(constants, u, horizon_T, cluster, ghat / gamma, sigma_hat2)
    denom = 1.0 - row.k(p) * gamma
    bound = ((row.a(p) / gamma + row.b(p) * gamma + row.c(p) * gamma ** 2)
             / denom if denom > 0 else math.inf)
    return RateBoundReport(method=method, bound_value=float(bound),
                           stepsize_cap=cap, constants_used=used)


def finish_report(report, grad_norm2_series):
    """Fill the measured fields from a run's grad_norm2 series.  `holds` is
    None when the bound is not finite: it then states nothing."""
    series = np.asarray(grad_norm2_series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("empty gradient-norm series")
    report.measured_min_grad_norm2 = float(series.min())
    avg = report.measured_avg_grad_norm2 = float(series.mean())
    report.holds = (bool(avg <= report.bound_value * (1.0 + _REL_SLACK))
                    if math.isfinite(report.bound_value) else None)
    return report


def critical_batch_size(method, constants, momentum_u=0.0):
    """The aggregate batch K*B at which the bound's statistical term b gamma
    equals its optimization term a/gamma at gamma = cap, for the horizon
    constants.horizon_T; b falls as 1/KB, so that is b(KB) KB cap^2 / a.

    Below it the statistical term dominates at the cap, so a larger batch
    lets a larger tuned stepsize buy fewer steps; past it the stepsize is
    held by the cap and the gain saturates (the critical batch of McCandlish
    et al. 2018, arXiv 1812.06162).  For sgd it is where the tuned stepsize
    meets the cap.  extrap_noise has none: its bound grows with T.
    """
    L, r0, T = constants.lipschitz_L, constants.r0, constants.horizon_T
    if T < 1:
        raise ValueError("constants.horizon_T must be set (>= 1)")
    if not L * r0 > 0:
        raise ValueError("a critical batch size needs lipschitz_L * r0 > 0, "
                         f"got L={L!r}, r0={r0!r}")
    entry = METHOD_TABLE.get(method)
    if entry is None or not entry.bounded or entry.direction == "noise":
        raise ValueError(f"no critical batch size for method {method!r}")
    row, p = entry.bound, _problem(constants, momentum_u, T)     # KB = 1
    return row.b(p) * row.cap(p) ** 2 / row.a(p)


def tune_stepsize(method, constants, cluster, horizon_T, momentum_u=0.0):
    """The gamma in (0, cap] that minimizes the method's bound.

    The bound's derivative has the sign of its numerator h(gamma) = -a
    + 2 a k gamma + b gamma^2 + 2 c gamma^3 - c k gamma^4, which increases
    on (0, cap] for every row (none has both c and k).  So the minimizer is
    the cap when h(cap) <= 0, and otherwise h's root, which bisection finds
    to adjacent floats.  extrap_sgd's gamma_hat/gamma is the ratio
    `tuned_hyperparams` sets; extrap_noise tunes without its noise term.
    A zero a (r0 = 0) gives 0.0.
    """
    if horizon_T < 1:
        raise ValueError("horizon_T must be >= 1")
    cap = stepsize_cap(method, constants, momentum_u)
    row = METHOD_TABLE[method].bound
    p = _problem(constants, momentum_u, horizon_T, cluster,
                 _extrap_ratio(cluster.workers_K, momentum_u))
    a, b, c, k = row.a(p), row.b(p), row.c(p), row.k(p)

    def h(g):
        return -a + 2.0 * a * k * g + b * g ** 2 + 2.0 * c * g ** 3 - c * k * g ** 4

    if h(cap) <= 0:
        return cap
    lo, hi = 0.0, cap       # h(lo) < 0 <= h(hi), or lo = 0 = a
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if h(mid) < 0 else (lo, mid)
    return lo


def tuned_hyperparams(method, constants, cluster, horizon_T, momentum_u=0.0):
    """HyperParams with the tuned gamma (and an admissible gamma_hat)."""
    gamma = tune_stepsize(method, constants, cluster, horizon_T, momentum_u)
    ghat = (_extrap_ratio(cluster.workers_K, momentum_u) * gamma
            if method == EXTRAP_SGD else None)
    return HyperParams(lr_gamma=gamma, inner_lr_gamma_hat=ghat, momentum_u=momentum_u)


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

    lo, hi = 0, 1           # no horizon below lo + 1 reaches epsilon
    for _ in range(_MAX_DOUBLINGS + 1):
        if bound(hi) <= epsilon:
            break
        lo, hi = hi, hi * 2
    else:
        raise ValueError(f"bound never reaches epsilon={epsilon}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= epsilon else (mid, hi)
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
