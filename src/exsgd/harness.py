"""
Seeded experiment runner.

Composes objective + cluster + method + schedule, runs seeded trials, records
metrics, optionally replays the trajectory through the theory checks, and
persists everything as plain files (JSONL per trial, one manifest, CSV
aggregates, JSON theory report).

Determinism contract: every trial is a pure function of (master_seed, trial
index) and the config, and output files contain no timestamps or environment
details, so repeated runs are byte-identical.  Trials run serially and each
step evaluates all K workers in one stacked oracle call on the (K, B) batch
matrix; the `threads` argument of `run` is accepted and has no effect.
Method facts come from `theory.METHOD_TABLE`; `_step_once` is the one place
that binds a method to its step function.
"""

import csv
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import theory
from .cluster import ClusterConfig, draw_batches, reduce_mean
from .objectives import (ObjectiveSpec, batch_gradient, batch_loss,
                         estimate_constants, initial_point)
from .optimizers import (HyperParams, NoiseSpec, PostLocalConfig, Schedule,
                         NumericAbort, draw_noise_directions, effective_gamma_hat,
                         init_state, lr_at, noise_second_moment, step_adam,
                         step_extrap_adam, step_extrap_sgd,
                         step_extrapolated_noise, step_minibatch_sgd,
                         step_nesterov, step_post_local)

_NOISE_TAG = 31


@dataclass
class RunConfig:
    objective: ObjectiveSpec = None
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    method: str = theory.SGD
    hyperparams: HyperParams = field(default_factory=HyperParams)
    schedule: Schedule = None
    noise: NoiseSpec = None
    post_local: PostLocalConfig = None
    total_steps_T: int = 100
    record_every: int = 1
    record_virtual_sequence: bool = False
    record_smoothness_every: int = 0
    trials: int = 1
    master_seed: int = 0
    init_scale: float = 1.0

    def validate(self):
        if self.objective is None:
            raise ValueError("objective is required")
        self.objective.validate()
        self.cluster.validate(self.objective)
        if self.method not in theory.METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        self.hyperparams.validate()
        if self.schedule is not None:
            self.schedule.validate()
        needs = theory.METHOD_TABLE[self.method].needs
        if needs is not None:
            if getattr(self, needs) is None:
                raise ValueError(f"method {self.method} needs a {needs} config")
            getattr(self, needs).validate()
        if self.total_steps_T < 1:
            raise ValueError("total_steps_T must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.record_smoothness_every < 0:
            raise ValueError("record_smoothness_every must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        return self


def _takes(value, typ):
    """Whether a config field annotated `typ` takes `value`: a float field
    also takes an int, and, bool being an int subclass, only a bool field
    takes a bool."""
    takes = (int, float) if typ is float else typ
    return isinstance(value, takes) and isinstance(value, bool) == (typ is bool)


def _is_list_of(value, ok):
    return isinstance(value, (list, tuple)) and all(ok(v) for v in value)


# The config fields that hold sequences: what each holds, and the check of
# one element.
_SEQUENCE_FIELDS = {
    (Schedule, "decay_milestones"): ("a list of numbers",
                                     lambda m: _takes(m, float)),
    (ObjectiveSpec, "mlp_widths"): ("a list of ints", lambda w: _takes(w, int)),
    (ObjectiveSpec, "partition"): (
        "a list of [start, stop] int pairs",
        lambda p: _is_list_of(p, lambda i: _takes(i, int)) and len(p) == 2),
}


def check_field_types(node, path=""):
    """Check each scalar and sequence field of a config, and of its sections,
    against its annotation, so that `validate` sees only well-typed values.
    Null is allowed only where the default is None."""
    for f in dataclasses.fields(node):
        value, name = getattr(node, f.name), path + f.name
        if value is None:
            if f.default is not None:
                raise ValueError(f"{name} must not be null")
        elif dataclasses.is_dataclass(f.type):
            check_field_types(value, name + ".")
        elif (type(node), f.name) in _SEQUENCE_FIELDS:
            what, ok = _SEQUENCE_FIELDS[type(node), f.name]
            if not _is_list_of(value, ok):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        elif f.type in (int, float, bool, str) and not _takes(value, f.type):
            raise ValueError(f"{name} must be {f.type.__name__}, got {value!r}")


@dataclass
class MetricsRecord:
    step: int
    lr: float
    train_loss: float
    grad_norm2: float
    smoothness_L: float = math.nan
    worker_dispersion: float = 0.0
    wall_events: dict = field(default_factory=dict)


@dataclass
class TrialResult:
    trial: int
    seed: int
    records: list
    final_x: np.ndarray
    steps_done: int
    aborted: bool = False
    abort_detail: str = ""
    reached_epsilon: bool = False
    virtual_sequence: object = None
    descent_residuals: np.ndarray = None     # relative, one per step
    proximity: dict = None
    rate_report: object = None
    rate_error: str = ""
    grad_norm2_series: np.ndarray = None


@dataclass
class RunResult:
    config: RunConfig
    trials: list
    trial_seeds: list


def trial_seed(master_seed, trial):
    ss = np.random.SeedSequence((master_seed, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _full_grad_norm2(obj, values, weight_decay):
    g = batch_gradient(obj, values, range(obj.sample_count))
    if weight_decay != 0.0:
        g = g + weight_decay * values
    return float(g @ g)


def _train_loss(obj, values, weight_decay):
    loss = batch_loss(obj, values, range(obj.sample_count))
    if weight_decay != 0.0:
        loss += 0.5 * weight_decay * float(values @ values)
    return float(loss)


def _step_once(config, state, obj, cl, batches, hp_t, seed, t):
    m = config.method
    if m == theory.SGD:
        return step_minibatch_sgd(state, obj, batches, hp_t)
    if m == theory.NESTEROV:
        return step_nesterov(state, obj, batches, hp_t)
    if m == theory.EXTRAP_SGD:
        return step_extrap_sgd(state, obj, batches, hp_t,
                               extrap_b=cl.extrap_batch_b)
    if m == theory.EXTRAP_NOISE:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _NOISE_TAG, t)))
        return step_extrapolated_noise(state, obj, batches, hp_t, config.noise,
                                       rng, extrap_b=cl.extrap_batch_b)
    if m == theory.ADAM:
        return step_adam(state, obj, batches, hp_t)
    if m == theory.EXTRAP_ADAM:
        return step_extrap_adam(state, obj, batches, hp_t,
                                extrap_b=cl.extrap_batch_b)
    return step_post_local(state, obj, batches, hp_t, config.post_local,
                           extrap_b=cl.extrap_batch_b)


def _terminal_half_point(config, state, hp, cl, seed, horizon_T):
    """x_bar_{T+1/2} and xi_bar_T, reachable without gradient evaluations."""
    x, v, u = state.x.values, state.v, hp.momentum_u
    direction = theory.METHOD_TABLE[config.method].direction
    ghat = effective_gamma_hat(hp, cl.workers_K)
    if direction is None or ghat == 0.0 or horizon_T == 0:
        xi = np.zeros_like(x)
    elif direction == "past":
        xi = reduce_mean(state.past_grad)
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, _NOISE_TAG, horizon_T)))
        xi = reduce_mean(draw_noise_directions(config.noise, state, rng,
                                               cl.workers_K))
    half = x - ghat * xi
    if u != 0.0:    # sgd never moves v off zero
        half = half + u * v
    return half, xi


def _relative_descent_residuals(vs):
    resid = theory.check_descent_identity(vs)
    step_norm = (vs.gamma / (1.0 - vs.momentum_u)) * np.linalg.norm(
        vs.g_bar_half, axis=1)
    y_norm = np.linalg.norm(vs.y_bar, axis=1)
    denom = np.maximum.reduce([y_norm[:-1], y_norm[1:], step_norm,
                               np.ones_like(step_norm)])
    return resid / denom


def _run_trial(config, trial, stop_epsilon=None):
    obj = config.objective
    seed = trial_seed(config.master_seed, trial)
    cl = dataclasses.replace(config.cluster, master_seed=seed)
    sched = config.schedule
    if sched is not None and sched.total_steps == 0:
        sched = dataclasses.replace(sched, total_steps=config.total_steps_T)
    hp = config.hyperparams

    x0 = initial_point(obj, config.init_scale)
    state = init_state(x0, cl.workers_K)
    method = theory.METHOD_TABLE[config.method]
    want_vs = config.record_virtual_sequence and method.bounded

    if want_vs:
        # Step t writes row t + 1 of xs and vbuf and row t of the rest; the
        # replay writes the terminal half point and direction as row T.
        steps, d = config.total_steps_T, obj.dimension
        xs, vbuf, halves, xibars = (np.empty((steps + 1, d)) for _ in range(4))
        gbars = np.empty((steps, d))
        dev2s, grad_series = np.empty(steps), np.empty(steps)
        xs[0], vbuf[0] = x0.values, state.v
    records = []
    aborted, abort_detail = False, ""
    reached = False
    t = 0
    for t in range(config.total_steps_T):
        lr = lr_at(sched, t, cl, obj) if sched is not None else hp.lr_gamma
        hp_t = hp if lr == hp.lr_gamma else dataclasses.replace(hp, lr_gamma=lr)
        batches = draw_batches(cl, obj, t)
        x_before = state.x.values
        try:
            _step_once(config, state, obj, cl, batches, hp_t, seed, t)
        except NumericAbort as exc:
            aborted, abort_detail = True, str(exc)
            records.append(MetricsRecord(
                step=t, lr=lr, train_loss=math.nan, grad_norm2=math.nan,
                worker_dispersion=math.nan,
                wall_events=_wall_events(cl, t + 1)))
            break
        info = state.last_info
        record_now = (t % config.record_every == 0) or (t == config.total_steps_T - 1)
        need_grad = want_vs or record_now or stop_epsilon is not None
        gn2 = (_full_grad_norm2(obj, info["x_half_bar"], hp.weight_decay)
               if need_grad else math.nan)
        if want_vs:
            xs[t + 1], vbuf[t + 1] = state.x.values, state.v
            halves[t], gbars[t], xibars[t] = (info["x_half_bar"], info["g_bar"],
                                              info["xi_bar"])
            dev2s[t], grad_series[t] = info["worker_dev2"], gn2
        if record_now:
            sm = math.nan
            if (config.record_smoothness_every
                    and t % config.record_smoothness_every == 0):
                update = state.x.values - x_before
                sm = theory.smoothness_estimate(obj, x_before, update)
            records.append(MetricsRecord(
                step=t, lr=lr,
                train_loss=_train_loss(obj, state.x.values, hp.weight_decay),
                grad_norm2=gn2, smoothness_L=sm,
                worker_dispersion=info["worker_dispersion"],
                wall_events=_wall_events(cl, t + 1)))
        if stop_epsilon is not None and gn2 <= stop_epsilon:
            reached = True
            t += 1
            break
    else:
        t = config.total_steps_T

    result = TrialResult(trial=trial, seed=seed, records=records,
                         final_x=state.x.values.copy(), steps_done=t,
                         aborted=aborted, abort_detail=abort_detail,
                         reached_epsilon=reached)
    if want_vs and not aborted and stop_epsilon is None:
        horizon = config.total_steps_T
        const_lr = sched is None or all(
            lr_at(sched, s, cl, obj) == hp.lr_gamma for s in range(horizon))
        if const_lr:
            ghat = effective_gamma_hat(hp, cl.workers_K) if method.direction else 0.0
            halves[horizon], xibars[horizon] = _terminal_half_point(
                config, state, hp, cl, seed, horizon)
            vs = theory.build_virtual_sequence(xs, vbuf, halves, gbars, xibars,
                                               hp.lr_gamma, ghat, hp.momentum_u)
            result.virtual_sequence = vs
            result.descent_residuals = _relative_descent_residuals(vs)
            result.grad_norm2_series = grad_series
            constants = estimate_constants(obj, x0, horizon_T=horizon)
            sig_hat2 = (noise_second_moment(config.noise, x0)
                        if method.direction == "noise" else None)
            result.proximity = theory.check_proximity_inequalities(
                vs, worker_dev2=dev2s,
                sigma2=constants.variance_sigma2, sigma_hat2=sig_hat2,
                extrap_batch_b=cl.extrap_batch_b,
                uses_past_gradients=method.direction == "past")
            try:
                report = theory.rate_bound(config.method, constants, hp, cl,
                                           horizon, sigma_hat2=sig_hat2)
                result.rate_report = theory.finish_report(
                    report, result.grad_norm2_series)
            except ValueError as exc:
                result.rate_error = str(exc)
    return result


def _wall_events(cl, steps):
    return {
        "reductions": steps,
        "worker_batches": cl.workers_K * steps,
        "samples_seen": cl.workers_K * cl.local_batch_B * steps,
    }


def run(config, threads=1):
    """Execute config.trials seeded trials; see module docstring (`threads`
    has no effect)."""
    config.validate()
    trials = [_run_trial(config, i) for i in range(config.trials)]
    seeds = [t.seed for t in trials]
    return RunResult(config=config, trials=trials, trial_seeds=seeds)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            return _jsonable(value.tolist())
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        # Strict JSON has neither: NaN becomes null and +-inf a string.
        if math.isnan(value):
            return None
        return "Infinity" if value > 0 else "-Infinity"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=1,
                  allow_nan=False)
        fh.write("\n")


def write_outputs(result, out_dir):
    """manifest.json + trial_<i>.jsonl + aggregate.csv (+ theory_report.json)."""
    os.makedirs(out_dir, exist_ok=True)
    from . import __version__
    manifest = {
        "version": __version__,
        "config": _jsonable(result.config),
        "trial_seeds": result.trial_seeds,
    }
    _dump_json(manifest, os.path.join(out_dir, "manifest.json"))

    for tr in result.trials:
        path = os.path.join(out_dir, f"trial_{tr.trial}.jsonl")
        with open(path, "w") as fh:
            for rec in tr.records:
                fh.write(json.dumps(_jsonable(rec), sort_keys=True,
                                    allow_nan=False))
                fh.write("\n")
            if tr.aborted:
                fh.write(json.dumps({"abort": tr.abort_detail,
                                     "step": tr.steps_done},
                                    sort_keys=True, allow_nan=False))
                fh.write("\n")

    agg_path = os.path.join(out_dir, "aggregate.csv")
    with open(agg_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "seed", "steps_done", "final_train_loss",
                    "final_grad_norm2", "min_grad_norm2", "aborted"])
        for tr in result.trials:
            losses = [r.train_loss for r in tr.records
                      if not math.isnan(r.train_loss)]
            gns = [r.grad_norm2 for r in tr.records
                   if not math.isnan(r.grad_norm2)]
            w.writerow([tr.trial, tr.seed, tr.steps_done,
                        repr(losses[-1]) if losses else "",
                        repr(gns[-1]) if gns else "",
                        repr(min(gns)) if gns else "",
                        int(tr.aborted)])

    if any(tr.virtual_sequence is not None or tr.rate_error for tr in result.trials):
        payload = {"trials": []}
        for tr in result.trials:
            entry = {"trial": tr.trial, "seed": tr.seed}
            if tr.descent_residuals is not None:
                entry["descent_residual_max_relative"] = float(
                    tr.descent_residuals.max())
            if tr.proximity is not None:
                entry["proximity"] = tr.proximity
            if tr.rate_report is not None:
                entry["rate_bound"] = tr.rate_report
            if tr.rate_error:
                entry["rate_bound_error"] = tr.rate_error
            payload["trials"].append(entry)
        holds = [tr.rate_report.holds for tr in result.trials
                 if tr.rate_report is not None]
        if holds:
            payload["rate_bound_hold_fraction"] = sum(holds) / len(holds)
        _dump_json(payload, os.path.join(out_dir, "theory_report.json"))


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def speedup_study(base, kb_grid, epsilon, budget_factor=4):
    """Steps-to-epsilon per aggregate batch size KB.

    For each (K, B): the horizon T_eps at which the tuned bound first reaches
    epsilon fixes the stepsize (theory.tuned_hyperparams at that horizon);
    trials then run until the recorded grad_norm2 drops to epsilon, with a
    budget of budget_factor * T_eps steps (censored entries report no finite
    steps-to-epsilon).  The returned table carries the per-point tuned gamma,
    whether it sits at the stability cap, and the unit-constant critical KB
    evaluated at the first grid point's horizon for context.  Every point's
    cluster is validated before any point runs.
    """
    base.validate()
    method = theory.METHOD_TABLE[base.method]
    if not method.bounded or method.direction == "noise":
        raise ValueError(f"speedup_study needs a rate bound that vanishes as "
                         f"T grows; {base.method} has none")
    obj = base.objective
    x0 = initial_point(obj, base.init_scale)
    constants = estimate_constants(obj, x0)
    u = base.hyperparams.momentum_u
    clusters = []
    for K, B in kb_grid:
        cl = dataclasses.replace(base.cluster, workers_K=K, local_batch_B=B,
                                 extrap_batch_b=None)
        try:
            clusters.append(cl.validate(obj))
        except ValueError as exc:
            raise ValueError(f"speedup point K={K} B={B}: {exc}") from exc
    rows = []
    critical_kb = None
    for cl in clusters:
        K, B = cl.workers_K, cl.local_batch_B
        t_eps = theory.epsilon_horizon(base.method, constants, cl, epsilon, u)
        hp = theory.tuned_hyperparams(base.method, constants, cl, t_eps, u)
        hp = dataclasses.replace(
            hp, lars_trust=base.hyperparams.lars_trust,
            weight_decay=base.hyperparams.weight_decay)
        cap = theory.stepsize_cap(base.method, constants, u)
        if critical_kb is None:
            const_t = dataclasses.replace(constants, horizon_T=t_eps)
            critical_kb = theory.critical_batch_size(base.method, const_t, u)
        cfg = dataclasses.replace(base, cluster=cl, hyperparams=hp,
                                  schedule=None, record_virtual_sequence=False,
                                  total_steps_T=max(1, budget_factor * t_eps))
        steps, censored = [], 0
        for i in range(base.trials):
            tr = _run_trial(cfg, i, stop_epsilon=epsilon)
            if tr.reached_epsilon:
                steps.append(tr.steps_done)
            else:
                censored += 1
        rows.append({
            "workers_K": K, "local_batch_B": B, "kb": K * B,
            "gamma": hp.lr_gamma, "gamma_at_cap": bool(hp.lr_gamma >= cap),
            "predicted_T": t_eps,
            "mean_steps": float(np.mean(steps)) if steps else None,
            "trials": base.trials, "censored": censored,
        })
    return {"epsilon": epsilon, "critical_kb": critical_kb, "rows": rows}


def apply_override(config, path, value):
    """Return a copy of `config` with the dotted-path field replaced."""
    parts = path.split(".")
    def rebuild(node, idx):
        if idx == len(parts) - 1:
            if not hasattr(node, parts[idx]):
                raise ValueError(f"unknown config field {path!r}")
            return dataclasses.replace(node, **{parts[idx]: value})
        child = getattr(node, parts[idx], None)
        if child is None:
            raise ValueError(f"unknown config field {path!r}")
        return dataclasses.replace(node, **{parts[idx]: rebuild(child, idx + 1)})
    return rebuild(config, 0)


def sweep(base, grid):
    """Cartesian hyperparameter sweep.

    grid: {dotted path: [values...]}.  Every point is type-checked and
    validated before any point runs.  Each point runs its own `trials` trials
    and reports mean/std of final train loss and the min grad_norm2.  The
    result flags whether the best point (lowest mean final loss) touches the
    grid boundary on any swept axis with more than one value.
    """
    if not grid:
        raise ValueError("empty sweep grid")
    keys = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cfg = base
        for key, val in zip(keys, combo):
            cfg = apply_override(cfg, key, val)
        try:
            check_field_types(cfg)
            points.append((combo, cfg.validate()))
        except ValueError as exc:
            raise ValueError(f"sweep point {dict(zip(keys, combo))}: {exc}") from exc
    rows = []
    for combo, cfg in points:
        finals, min_gns, aborted = [], [], 0
        for i in range(cfg.trials):
            tr = _run_trial(cfg, i)
            if tr.aborted:
                aborted += 1
            losses = [r.train_loss for r in tr.records
                      if not math.isnan(r.train_loss)]
            gns = [r.grad_norm2 for r in tr.records if not math.isnan(r.grad_norm2)]
            if losses:
                finals.append(losses[-1])
            if gns:
                min_gns.append(min(gns))
        rows.append({
            "point": dict(zip(keys, combo)),
            "final_loss_mean": float(np.mean(finals)) if finals else math.inf,
            "final_loss_std": float(np.std(finals)) if finals else math.nan,
            "min_grad_norm2_mean": float(np.mean(min_gns)) if min_gns else math.nan,
            "aborted": aborted,
        })
    best = min(rows, key=lambda r: r["final_loss_mean"])
    boundary = False
    for k in keys:
        vals = grid[k]
        if len(vals) > 1 and best["point"][k] in (vals[0], vals[-1]):
            boundary = True
    return {"rows": rows, "best": best["point"], "boundary_optimum": boundary}
