"""
Seeded experiment runner.

Composes objective + cluster + method + schedule, runs seeded trials, records
metrics, optionally replays the trajectory through the theory checks, and
persists everything as plain files (JSONL per trial, one manifest, CSV
aggregates, JSON theory report).

Determinism contract: every trial is a pure function of (master_seed, trial
index) and the config.  Worker-evaluation threads never change results, and
output files contain no timestamps or environment details, so repeated runs
are byte-identical.
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

_SYNC_METHODS = (theory.SGD, theory.NESTEROV, theory.EXTRAP_SGD, theory.EXTRAP_NOISE)


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
        if self.method == theory.EXTRAP_NOISE:
            if self.noise is None:
                raise ValueError("method extrap_noise needs a noise spec")
            self.noise.validate()
        if self.method == theory.POST_LOCAL:
            if self.post_local is None:
                raise ValueError("method post_local needs a post_local config")
            self.post_local.validate()
        if self.total_steps_T < 1:
            raise ValueError("total_steps_T must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.record_smoothness_every < 0:
            raise ValueError("record_smoothness_every must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        return self


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
    g = batch_gradient(obj, values, np.arange(obj.sample_count))
    if weight_decay != 0.0:
        g = g + weight_decay * values
    return float(g @ g)


def _train_loss(obj, values, weight_decay):
    loss = batch_loss(obj, values, np.arange(obj.sample_count))
    if weight_decay != 0.0:
        loss += 0.5 * weight_decay * float(values @ values)
    return float(loss)


def _step_once(config, state, obj, cl, batches, hp_t, seed, t, threads):
    m = config.method
    if m == theory.SGD:
        return step_minibatch_sgd(state, obj, batches, hp_t, threads)
    if m == theory.NESTEROV:
        return step_nesterov(state, obj, batches, hp_t, threads)
    if m == theory.EXTRAP_SGD:
        return step_extrap_sgd(state, obj, batches, hp_t, threads,
                               extrap_b=cl.extrap_batch_b)
    if m == theory.EXTRAP_NOISE:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _NOISE_TAG, t)))
        return step_extrapolated_noise(state, obj, batches, hp_t, config.noise,
                                       rng, threads, extrap_b=cl.extrap_batch_b)
    if m == theory.ADAM:
        return step_adam(state, obj, batches, hp_t, threads)
    if m == theory.EXTRAP_ADAM:
        return step_extrap_adam(state, obj, batches, hp_t, threads,
                                extrap_b=cl.extrap_batch_b)
    return step_post_local(state, obj, batches, hp_t, config.post_local,
                           threads, extrap_b=cl.extrap_batch_b)


def _terminal_half_point(config, state, hp, cl, seed, horizon_T):
    """x_bar_{T+1/2} and xi_bar_T, reachable without gradient evaluations."""
    x, v, u = state.x.values, state.v, hp.momentum_u
    m = config.method
    ghat = effective_gamma_hat(hp, cl.workers_K)
    if m == theory.SGD or ghat == 0.0 or horizon_T == 0:
        xi = np.zeros_like(x)
    elif m == theory.EXTRAP_SGD:
        xi = reduce_mean(state.past_grad)
    elif m == theory.EXTRAP_NOISE:
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, _NOISE_TAG, horizon_T)))
        xi = reduce_mean(draw_noise_directions(config.noise, state, rng,
                                               cl.workers_K))
    else:
        xi = np.zeros_like(x)
    half = x - ghat * xi
    if m != theory.SGD and u != 0.0:
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


def _run_trial(config, trial, threads=1, stop_epsilon=None):
    obj = config.objective
    seed = trial_seed(config.master_seed, trial)
    cl = dataclasses.replace(config.cluster, master_seed=seed)
    sched = config.schedule
    if sched is not None and sched.total_steps == 0:
        sched = dataclasses.replace(sched, total_steps=config.total_steps_T)
    hp = config.hyperparams

    x0 = initial_point(obj, config.init_scale)
    state = init_state(x0, cl.workers_K)
    want_vs = config.record_virtual_sequence and config.method in _SYNC_METHODS

    xs = [x0.values.copy()]
    vbuf = [state.v.copy()]
    halves, gbars, xibars, dev2s = [], [], [], []
    grad_series = []
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
            _step_once(config, state, obj, cl, batches, hp_t, seed, t, threads)
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
            xs.append(state.x.values.copy())
            vbuf.append(state.v.copy())
            halves.append(info["x_half_bar"])
            gbars.append(info["g_bar"])
            xibars.append(info["xi_bar"])
            dev2s.append(info["worker_dev2"])
            grad_series.append(gn2)
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
            ghat = (effective_gamma_hat(hp, cl.workers_K)
                    if config.method in (theory.EXTRAP_SGD, theory.EXTRAP_NOISE)
                    else 0.0)
            term_half, term_xi = _terminal_half_point(config, state, hp, cl,
                                                      seed, horizon)
            halves.append(term_half)
            xibars.append(term_xi)
            vs = theory.build_virtual_sequence(
                np.stack(xs), np.stack(vbuf), np.stack(halves),
                np.stack(gbars), np.stack(xibars),
                hp.lr_gamma, ghat, hp.momentum_u)
            result.virtual_sequence = vs
            result.descent_residuals = _relative_descent_residuals(vs)
            result.grad_norm2_series = np.asarray(grad_series)
            constants = estimate_constants(obj, x0, horizon_T=horizon)
            uses_past = config.method == theory.EXTRAP_SGD
            sig_hat2 = (noise_second_moment(config.noise, x0)
                        if config.method == theory.EXTRAP_NOISE else None)
            result.proximity = theory.check_proximity_inequalities(
                vs, worker_dev2=np.asarray(dev2s),
                sigma2=constants.variance_sigma2, sigma_hat2=sig_hat2,
                extrap_batch_b=cl.extrap_batch_b,
                uses_past_gradients=uses_past)
            if config.method in (theory.SGD, theory.NESTEROV, theory.EXTRAP_SGD,
                                 theory.EXTRAP_NOISE):
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
    """Execute config.trials seeded trials; see module docstring."""
    config.validate()
    trials = [_run_trial(config, i, threads) for i in range(config.trials)]
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

def speedup_study(base, kb_grid, epsilon, threads=1, budget_factor=4):
    """Steps-to-epsilon per aggregate batch size KB.

    For each (K, B): the horizon T_eps at which the tuned bound first reaches
    epsilon fixes the stepsize (theory.tuned_hyperparams at that horizon);
    trials then run until the recorded grad_norm2 drops to epsilon, with a
    budget of budget_factor * T_eps steps (censored entries report no finite
    steps-to-epsilon).  The returned table carries the per-point tuned gamma,
    whether it sits at the stability cap, and the unit-constant critical KB
    evaluated at the first grid point's horizon for context.
    """
    base.validate()
    if base.method not in (theory.SGD, theory.NESTEROV, theory.EXTRAP_SGD):
        raise ValueError("speedup_study supports sgd, nesterov and extrap_sgd")
    obj = base.objective
    x0 = initial_point(obj, base.init_scale)
    constants = estimate_constants(obj, x0)
    u = base.hyperparams.momentum_u
    rows = []
    critical_kb = None
    for K, B in kb_grid:
        cl = dataclasses.replace(base.cluster, workers_K=K, local_batch_B=B,
                                 extrap_batch_b=None)
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
            tr = _run_trial(cfg, i, threads, stop_epsilon=epsilon)
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


def sweep(base, grid, threads=1):
    """Cartesian hyperparameter sweep.

    grid: {dotted path: [values...]}.  Each point runs base.trials trials and
    reports mean/std of final train loss and the min grad_norm2.  The result
    flags whether the best point (lowest mean final loss) touches the grid
    boundary on any swept axis with more than one value.
    """
    base.validate()
    if not grid:
        raise ValueError("empty sweep grid")
    keys = sorted(grid)
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cfg = base
        for key, val in zip(keys, combo):
            cfg = apply_override(cfg, key, val)
        finals, min_gns, aborted = [], [], 0
        for i in range(base.trials):
            tr = _run_trial(cfg, i, threads)
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
