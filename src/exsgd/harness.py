"""
Seeded experiment runner.

Composes objective + cluster + method + schedule, runs seeded trials, records
metrics, optionally replays the trajectory through the theory checks, and
persists everything as plain files (JSONL per trial, one manifest, CSV
aggregates, JSON theory report).  The manifest writes a maker-built
objective as its maker call (`ObjectiveSpec.maker_call`), which `from_doc`
rebuilds bitwise, and any other objective field by field.

Determinism contract: every trial is a pure function of (master_seed, trial
index) and the config, and output files contain no timestamps or environment
details, so repeated runs are byte-identical.  The trials of a config
advance together in chunks of at most `_CHUNK_WORDS` // (max(N, K B) d)
trials, fewer where a stream's cached index blocks are larger.  A chunk of
R trials, one or more, is one optimizer state of R stacked trials: each step
draws the (R, K, B) batches of its R trial seeds in one `draw_batches` call
and evaluates all R K workers in one oracle call, and trial r of the stack
is bitwise the trial run alone.  A trial that aborts or stops leaves the
stack, and later steps keep only the running trials' rows of the chunk's
draw; the replay stays per trial, and runs only at a constant stepsize.
The `threads` argument of `run` is accepted and has no effect.
A chunk writes its recorded steps' metrics into one NaN-initialised table, a
row per trial and a column per recorded step, and builds each trial's
records from its row once, when the chunk ends.  A step leaves its raw
evaluation points and directions in `state.last_info`, reduced by nothing.
The full-gradient norm at x_bar_{t+1/2} and the train loss at x_{t+1}, each
a pass over all N samples, wait until a block of steps is due, one point per
running trial and step, at most `objectives._SIGMA2_BLOCK` // (N d) of
them.  Then one `step_reports` call reduces the block's raw points (and, in
a replay, directions) to the mean half points, worker deviations and mean
directions, and one stacked oracle call evaluates each metric; every value
is bitwise its single-step reduction and single-point call, so neither the
block nor the chunk size ever shows in an output.  The replay's terminal
row T is the same reduction of step T's `lookahead` points and directions.
A run with a stopping rule evaluates each step's norms at once.
Post-local's worker dispersion is taken from the state at the recorded
steps.
A run without a stopping rule whose one-point full-sample pass is larger
than a metric block, N d > `objectives._SIGMA2_BLOCK` (so its chunks hold
one trial and its blocks one step), evaluates each block on one helper
thread while the steps go on: the block's `step_reports` and oracle calls
on range(N), the same calls in the same order, so the bytes are those of
the inline path.  The helper touches no state and no batch cache.  At most
one block is in flight; it is joined before the next block is handed over,
before a trial that aborts or stops leaves the stack (an abort first
evaluates the pending steps inline), and before the chunk's last block and
its records.  A block owns copies of its raw points and directions (and,
without a replay, its iterates), taken at hand-over, so the steps refill
the same buffers.  An error on the helper re-raises at the next join, and
the thread ends with the trials of a `run`, `sweep` or `speedup_study`
point.  The `threads` argument chooses none of this.
numpy's floating-point warnings are off while trials run; numpy's error
state is per thread, so the helper's executor sets its thread's once, when
the thread starts.  A trial reports a non-finite step value only as the
`NumericAbort` that ends it, also under `python -W error`.
Every gradient, loss, smoothness probe and theory constant is of
f + (lambda/2)||x||^2, the objective a run with weight decay lambda
minimizes: the oracle and `estimate_constants` add the decay terms, given
`weight_decay`.
Method facts come from `theory.METHOD_TABLE`; `_step_once` calls the step
function that a method's entry names.  Config values have one schema, the
dataclass and maker annotations: `from_doc` reads whole documents, and
`apply_override` reads a dotted path as the same key in a config file.
"""

import contextlib
import csv
import dataclasses
import functools
import inspect
import io
import itertools
import json
import math
import os
import re
import reprlib
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import objectives, theory
from .cluster import ClusterConfig, cached_indices, draw_batches
# reduce_mean is unused here; benchmark/tracer.py patches this name, so the
# import stays until the tracer changes with it.
from .cluster import reduce_mean  # noqa: F401
from .objectives import (MAKERS, ObjectiveSpec, batch_gradient, batch_loss,
                         estimate_constants, initial_point, row_dots)
from .optimizers import (NOISE_NONE, HyperParams, NoiseSpec, PostLocalConfig,
                         Schedule, NumericAbort, effective_gamma_hat, init_state,
                         lookahead, lr_series, noise_second_moment,
                         step_reports, worker_dispersion)
# `_step_once` calls these by name from this module, where
# benchmark/tracer.py patches them.
from .optimizers import (step_adam, step_extrap_adam, step_extrap_sgd,  # noqa: F401
                         step_extrapolated_noise, step_minibatch_sgd,
                         step_nesterov, step_post_local)


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
        if self.cluster.master_seed != 0:
            raise ValueError("cluster.master_seed must be 0; trials are seeded by master_seed")
        if self.method not in theory.METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        self.hyperparams.validate()
        for section in (self.schedule, self.noise, self.post_local):
            if section is not None:
                section.validate()
        needs = theory.METHOD_TABLE[self.method].needs
        if needs is not None and getattr(self, needs) is None:
            raise ValueError(f"method {self.method} needs a {needs} config")
        if self.method == theory.EXTRAP_NOISE and self.noise.kind == NOISE_NONE:
            raise ValueError("method extrap_noise needs a noise kind other than 'none'")
        if self.total_steps_T < 1:
            raise ValueError("total_steps_T must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.record_smoothness_every < 0:
            raise ValueError("record_smoothness_every must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        return self


def from_doc(cls, doc, name=""):
    """`cls`, or the objective of the `maker` that `doc` names, built from the
    JSON object `doc` at dotted path `name` ("" for a whole config), its keys
    checked against the signature and its values by `_typed`."""
    section = name or "config"
    if not isinstance(doc, dict):
        raise ValueError(f"{section!r} must be an object, got {reprlib.repr(doc)}")
    doc = dict(doc)
    maker = doc.pop("maker", None) if cls is ObjectiveSpec else None
    factory = cls if maker is None else MAKERS.get(str(maker))
    if factory is None:
        raise ValueError(f"unknown objective maker {maker!r}")
    params = _parameters(factory)
    missing = [key for key, p in params.items()
               if p.default is p.empty and key not in doc]
    for problem, keys in (("unknown", sorted(set(doc) - set(params))),
                          ("missing", sorted(missing))):
        if keys:
            raise ValueError(f"{problem} {section} fields: {keys}")
    return factory(**{key: _typed(f"{name}.{key}" if name else key,
                                  params[key].annotation, params[key].default, value)
                      for key, value in doc.items()})


@functools.cache
def _parameters(factory):
    """`inspect.signature(factory).parameters`, read once per factory."""
    return inspect.signature(factory).parameters


def _typed(name, typ, default, value):
    """JSON `value` as the field `name` annotated `typ` holds it: a section as
    its class, an array as float64, a list as `typ`'s container of checked
    elements; a float field also takes an int, every number must be finite,
    and null needs a None default."""
    if value is None:
        if default is not None:
            raise ValueError(f"{name} must not be null")
        return None
    if dataclasses.is_dataclass(typ):
        return value if isinstance(value, typ) else from_doc(typ, value, name)
    try:
        return _as(typ, value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {_describe(typ)}, "
                         f"got {reprlib.repr(value)}") from None


def _as(typ, value):
    """`value` as `typ` holds it; TypeError, ValueError or OverflowError (an
    int beyond every float) if it does not fit."""
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if typ is np.ndarray:
        array = np.asarray(value)
        if array.dtype.kind in "iuf" and np.isfinite(array).all():
            return array.astype(np.float64, copy=False)
    elif origin in (list, tuple):
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if isinstance(value, (list, tuple)) and len(args) == len(value):
            return origin(map(_as, args, value))
    elif (isinstance(value, (int, float) if typ is float else typ)
          and isinstance(value, bool) == (typ is bool)     # bool subclasses int
          and (typ is not float or math.isfinite(value))):
        return value
    raise TypeError(typ)


def _describe(typ):
    """What a `typ` value must be; KeyError if `_typed` cannot handle `typ`."""
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if origin is list or (origin is tuple and args[-1] is Ellipsis):
        return f"a list of {_describe(args[0])}"
    if origin is tuple:
        return "[" + ", ".join(map(_describe, args)) + "]"
    return {int: "int", float: "finite float", bool: "bool", str: "str",
            np.ndarray: "an array of finite numbers"}[typ]


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


# The columns of a chunk's metric table, in `MetricsRecord`'s field order.
_LOSS, _GN2, _SMOOTHNESS, _DISPERSION = range(4)


def _evaluate_pending(obj, weight_decay, pending, buf, table, alive):
    """Evaluate the metrics of the `pending` (row, column or None) steps, at
    consecutive rows, and empty it.  Entry i of buf["halves"] (and of
    buf["z"], if present) holds the raw points (directions) of pending step
    i, and one `step_reports` call reduces them all.  The full-gradient norm
    is taken at each step's mean half point and, for each step with a
    column, the train loss at row + 1 of buf["x"], both written to that
    column of `table` at the rows `alive`.  A replay's series, buf["half"],
    ["dev2"], ["xi"] and ["gn2"], get the reports and norms at the pending
    rows.  A buf row holds the values of the R running trials.  Returns the
    last step's gradient norms, one per trial.  Each metric is one stacked
    oracle call, at weight decay `weight_decay`, whose entry r is bitwise the
    single-point value."""
    d, trials, every = obj.dimension, len(alive), range(obj.sample_count)
    n, lo = len(pending), pending[0][0]
    half, dev2, xi = step_reports(buf["halves"][:n],
                                  buf["z"][:n] if "z" in buf else None)
    g = batch_gradient(obj, half.reshape(-1, d), every,
                       weight_decay=weight_decay)
    gn2s = row_dots(g, g).reshape(n, trials)
    if "half" in buf:
        buf["half"][lo:lo + n], buf["dev2"][lo:lo + n] = half, dev2
        buf["gn2"][lo:lo + n] = gn2s
        if xi is not None:
            buf["xi"][lo:lo + n] = xi
    recorded = [(row, column) for row, column in pending if column is not None]
    if recorded:
        rows, columns = np.array(recorded).T
        at = np.ix_(alive, columns)
        table[..., _GN2][at] = gn2s[rows - lo].T
        losses = batch_loss(obj, buf["x"][rows + 1].reshape(-1, d), every,
                            weight_decay=weight_decay)
        table[..., _LOSS][at] = losses.reshape(-1, trials).T
    pending.clear()
    return gn2s[-1]


def _replay_constants(config):
    """A function returning the theory constants that every replayed trial of
    `config` reads; they are computed at its first call only."""
    obj = config.objective
    return functools.cache(lambda: estimate_constants(
        obj, initial_point(obj, config.init_scale),
        horizon_T=config.total_steps_T,
        weight_decay=config.hyperparams.weight_decay))


def _step_once(config, state, obj, cl, batches, hp_t, seed):
    """One step through the `step_*` function that `config.method`'s table
    entry names, looked up in this module at call time."""
    method = theory.METHOD_TABLE[config.method]
    args = [state, obj, batches, hp_t]
    if method.needs is not None:
        args.append(getattr(config, method.needs))
    if method.direction == "noise":
        args.append(seed)
    extra = {"extrap_b": cl.effective_extrap_b()} if method.direction else {}
    return globals()[method.step](*args, **extra)


def _relative_descent_residuals(vs):
    resid = theory.check_descent_identity(vs)
    step_norm = (vs.gamma / (1.0 - vs.momentum_u)) * np.linalg.norm(
        vs.g_bar_half, axis=1)
    y_norm = np.linalg.norm(vs.y_bar, axis=1)
    denom = np.maximum.reduce([y_norm[:-1], y_norm[1:], step_norm,
                               np.ones_like(step_norm)])
    return resid / denom


# 8-byte words that one chunk of trials may hold in one stacked step's
# gathered samples, its full-gradient metric or the cached index blocks of
# its batch streams: a chunk advances at most _CHUNK_WORDS // (the larger
# of max(N, K B) d and `cluster.cached_indices`) trials together, so the
# gate-size quadratics stack 16 to 64 trials and a wide objective runs one
# at a time.
_CHUNK_WORDS = 2 ** 18


def _trial_words(config):
    """The words one trial of `config` adds to a chunk (see above)."""
    obj, cl = config.objective, config.cluster
    return max(max(obj.sample_count, cl.workers_K * cl.local_batch_B)
               * obj.dimension, cached_indices(cl, obj))


def _chunk_size(config):
    return max(1, _CHUNK_WORDS // _trial_words(config))


def _lr_series(config):
    """Each step's learning rate, shared by all trials of `config`:
    `hyperparams.lr_gamma` at every step without a schedule."""
    sched = config.schedule
    if sched is None:
        return [config.hyperparams.lr_gamma] * config.total_steps_T
    if sched.total_steps == 0:
        sched = dataclasses.replace(sched, total_steps=config.total_steps_T)
    return lr_series(sched, config.total_steps_T, config.cluster,
                     config.objective)


def _trial_results(config, stop_epsilon=None):
    """The results of all `config.trials` trials of the validated `config`,
    in order, run in chunks of `_chunk_size(config)` trials that advance
    together (`_run_trials`).  numpy's floating-point warnings are off while
    they run: a step's non-finite value is reported once, as the
    `NumericAbort` of its finite checks that ends the trial."""
    constants, lrs = _replay_constants(config), _lr_series(config)
    chunk, obj = _chunk_size(config), config.objective
    # A run whose one-point full-sample pass is larger than a metric block
    # evaluates its metrics on one helper thread, beside its steps; numpy's
    # error state is per thread, so the thread sets its own when it starts.
    helper = (ThreadPoolExecutor(1, initializer=functools.partial(
                  np.seterr, all="ignore"))
              if stop_epsilon is None and
              obj.sample_count * obj.dimension > objectives._SIGMA2_BLOCK
              else None)
    results = []
    with helper or contextlib.nullcontext(), np.errstate(all="ignore"):
        for lo in range(0, config.trials, chunk):
            results += _run_trials(
                config, range(lo, min(lo + chunk, config.trials)),
                constants, lrs, stop_epsilon, helper)
    return results


def _run_trials(config, trials, constants, lrs, stop_epsilon=None, helper=None):
    """The results of the trials of `config` with the indices `trials`,
    advanced together as one state of stacked trials whose row r is trial
    trials[r]; each result is bitwise that of its trial run alone.
    `constants` is `_replay_constants(config)`, called only by a replay, and
    `lrs` is `_lr_series(config)`.  A trial that meets a non-finite value
    ends with an all-NaN record at that step and leaves the stack; the
    others go on.  With `stop_epsilon` a trial stops after the first step
    whose full-gradient norm is <= it, and no trial is replayed.  With the
    single-worker executor `helper` each full metric block is evaluated on
    its thread while the steps go on, one block at a time."""
    obj, cl = config.objective, config.cluster
    method = theory.METHOD_TABLE[config.method]
    hp = config.hyperparams
    if not method.momentum:     # the update applies none, so the replay neither
        hp = dataclasses.replace(hp, momentum_u=0.0)
    one_rate = len(set(lrs)) == 1
    if one_rate:                # scheduled or not, the rate the steps apply
        hp = dataclasses.replace(hp, lr_gamma=lrs[0])
    steps, d, workers = config.total_steps_T, obj.dimension, cl.workers_K
    results = [TrialResult(trial=i, seed=trial_seed(config.master_seed, i),
                           records=None, final_x=None, steps_done=steps)
               for i in trials]
    # Every step draws the batches of the whole chunk under one seed tuple;
    # the running trials are the rows `alive` of it.
    chunk = tuple(tr.seed for tr in results)
    alive, live, seeds = list(range(len(chunk))), list(results), list(chunk)
    x0 = initial_point(obj, config.init_scale)
    state = init_state(np.tile(x0, (len(chunk), 1)), workers)
    # The replay assumes one stepsize.
    want_vs = (config.record_virtual_sequence and method.bounded
               and stop_epsilon is None and one_rate)
    # A row per trial of the chunk and a column per recorded step, NaN
    # until written: the metric table that each trial's records are read from.
    recorded = [t for t in range(steps)
                if t % config.record_every == 0 or t == steps - 1]
    columns = {t: column for column, t in enumerate(recorded)}
    table = np.full((len(chunk), len(recorded), 4), math.nan)
    # Steps whose metrics are due wait in `pending` until a block of `size`
    # steps is full: one stacked call then reduces the block's raw half
    # points and directions (`step_reports`) and one evaluates each metric
    # for all of them, a point per trial and step and at most
    # `_SIGMA2_BLOCK` doubles of (point, N, d) for the whole chunk.  A
    # stopping rule needs every step's norms at once, so it evaluates each
    # step on its own.  A pending step's raw points are entry i of
    # buf["halves"], its directions entry i of buf["z"] in a replay that
    # extrapolates, with i its place in the block, and its points row r + 1
    # of buf["x"]; r is the step in a replay and i otherwise.
    size = 1 if stop_epsilon is not None else min(steps, max(
        1, objectives._SIGMA2_BLOCK // (obj.sample_count * d * len(chunk))))
    pending, shape = [], state.x.shape
    points = workers if method.direction else 1   # a shared point is (R, 1, d)
    buf = {"x": np.empty(((steps if want_vs else size) + 1,) + shape),
           "halves": np.empty((size, len(chunk), points, d))}
    if want_vs:
        # Row t + 1 of "v" and row t of the rest hold step t's values too;
        # the replay writes the terminal half point and direction as row T.
        # A method that never extrapolates keeps xi = 0.
        buf["v"], buf["half"] = (np.empty((steps + 1,) + shape) for _ in range(2))
        buf["xi"] = np.zeros((steps + 1,) + shape)
        if method.direction:
            buf["z"] = np.empty((size, len(chunk), workers, d))
        buf["gbar"] = np.empty((steps,) + shape)
        buf["dev2"], buf["gn2"] = (np.empty((steps,) + shape[:-1]) for _ in range(2))
        buf["x"][0], buf["v"][0] = state.x, state.v
    inflight = None             # the block on the helper, a Future

    def join():
        """Wait for the block in flight, re-raising what it raised."""
        if inflight is not None:
            inflight.result()

    def retire(rows, x, **fields):
        """Take the running trials at `rows` off the stack, after the block
        in flight and their pending steps: each gets `fields` and its row of
        `x` as its final_x.  Returns the rows that go on."""
        nonlocal alive, live, seeds
        join()
        if pending:
            _evaluate_pending(obj, hp.weight_decay, pending, buf, table, alive)
        for row in rows:
            vars(live[row]).update(fields, final_x=x[row].copy())
        kept = [r for r in range(len(live)) if r not in rows]
        alive = [alive[r] for r in kept]
        live, seeds = [results[r] for r in alive], [chunk[r] for r in alive]
        if live:        # with none left the run ends
            state.keep_trials(kept)
            for name, values in buf.items():
                buf[name] = values[:, kept]
        return kept

    for t in range(steps):
        lr = lrs[t]
        hp_t = hp if lr == hp.lr_gamma else dataclasses.replace(hp, lr_gamma=lr)
        batches = draw_batches(cl, obj, t, chunk)
        if len(alive) < len(chunk):
            batches = batches[alive]
        while live:
            x_before = state.x
            try:
                _step_once(config, state, obj, cl, batches, hp_t, seeds)
                break
            except NumericAbort as exc:
                batches = batches[retire(exc.trials, x_before, aborted=True,
                                         abort_detail=str(exc), steps_done=t)]
        if not live:
            break
        info = state.last_info
        column = columns.get(t)
        if column is not None:
            # train_loss and grad_norm2 are written when the block is.
            table[:, column, _DISPERSION][alive] = worker_dispersion(state)
            if (config.record_smoothness_every
                    and t % config.record_smoothness_every == 0):
                table[:, column, _SMOOTHNESS][alive] = theory.smoothness_estimates(
                    obj, x_before, state.x - x_before,
                    weight_decay=hp.weight_decay)
        if want_vs or column is not None or stop_epsilon is not None:
            at = len(pending)
            row = t if want_vs else at
            buf["halves"][at], buf["x"][row + 1] = info["halves"], state.x
            if want_vs:
                buf["v"][t + 1], buf["gbar"][t] = state.v, info["g_bar"]
                if "z" in buf:
                    z = info["z"]
                    buf["z"][at] = 0.0 if z is None else z
            pending.append((row, column))
        if len(pending) == size and helper is not None:
            join()
            # The block owns copies of the arrays the steps refill; a
            # replay's rows of "x" are per step, never reused.
            owned = ("halves", "z") if want_vs else ("halves", "x")
            block = {**buf, **{name: buf[name].copy() for name in owned
                               if name in buf}}
            inflight = helper.submit(_evaluate_pending, obj, hp.weight_decay,
                                     pending, block, table, alive)
            pending = []
        elif len(pending) == size:
            gn2s = _evaluate_pending(obj, hp.weight_decay, pending, buf, table,
                                     alive)
            reached = ([] if stop_epsilon is None else
                       np.flatnonzero(gn2s <= stop_epsilon).tolist())
            if reached:
                retire(reached, state.x, reached_epsilon=True, steps_done=t + 1)
                if not live:
                    break
    join()
    if pending:
        _evaluate_pending(obj, hp.weight_decay, pending, buf, table, alive)
    for row, tr in enumerate(live):
        tr.final_x = state.x[row].copy()
    # An aborted trial's last record reads the column of the first recorded
    # step at or after its abort step, which it never wrote: all NaN.
    for tr, row in zip(results, table.tolist()):
        at = [t for t in recorded if t < tr.steps_done]
        at += [tr.steps_done] if tr.aborted else []
        tr.records = [MetricsRecord(t, lrs[t], *row[column], wall_events={
            "reductions": t + 1, "worker_batches": workers * (t + 1),
            "samples_seen": workers * cl.local_batch_B * (t + 1)})
            for column, t in enumerate(at)]

    if want_vs and live:
        ghat = effective_gamma_hat(hp, workers) if method.direction else 0.0
        # Row T is step T's own evaluation points and directions, reduced
        # like every other row; no gradient is evaluated.
        half, _, xi = step_reports(*lookahead(
            state, hp, workers, method.direction, config.noise, seeds,
            obj.partition))
        buf["half"][steps] = half
        if xi is not None:
            buf["xi"][steps] = xi
        replay = constants()
        sig_hat2 = (noise_second_moment(config.noise, x0)
                    if method.direction == "noise" else None)
        for row, tr in enumerate(live):
            # Trial row's own series, contiguous.
            x, v, half, xi, gbar, dev2, gn2 = (
                np.ascontiguousarray(buf[name][:, row])
                for name in ("x", "v", "half", "xi", "gbar", "dev2", "gn2"))
            vs = theory.build_virtual_sequence(x, v, half, gbar, xi, hp.lr_gamma,
                                               ghat, hp.momentum_u)
            tr.virtual_sequence = vs
            tr.descent_residuals = _relative_descent_residuals(vs)
            tr.grad_norm2_series = gn2
            tr.proximity = theory.check_proximity_inequalities(
                vs, worker_dev2=dev2,
                sigma2=replay.variance_sigma2, sigma_hat2=sig_hat2,
                extrap_batch_b=cl.effective_extrap_b(),
                uses_past_gradients=method.direction == "past")
            try:
                report = theory.rate_bound(config.method, replay, hp, cl,
                                           steps, sigma_hat2=sig_hat2)
                tr.rate_report = theory.finish_report(report, gn2)
            except ValueError as exc:
                tr.rate_error = str(exc)
    return results


def run(config, threads=1):
    """Execute config.trials seeded trials; see module docstring (`threads`
    has no effect)."""
    config.validate()
    trials = _trial_results(config)
    seeds = [t.seed for t in trials]
    return RunResult(config=config, trials=trials, trial_seeds=seeds)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# The encoder of a trial_*.jsonl line, shared by every line.
_encode_line = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _jsonable(value):
    """`value` in the types JSON holds: arrays and numpy scalars as Python
    lists and numbers, NaN as null and +-inf as strings, a maker-built
    objective as its maker call, other dataclasses as dicts of their fields
    and tuples as lists.  Anything else JSON cannot hold, such as an
    `np.bool_`, is returned unchanged, so the encoder raises TypeError on it."""
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        # Strict JSON has neither: NaN becomes null and +-inf a string.
        if math.isnan(value):
            return None
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, ObjectiveSpec) and value.maker_call is not None:
        return _jsonable(value.maker_call)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# The trial line of a `MetricsRecord` whose `wall_events` has the keys a run
# records, as `_encode_line` writes it (keys sorted), each value's text in place.
_RECORD_LINE = (
    '{{"grad_norm2": {}, "lr": {}, "smoothness_L": {}, "step": {}, '
    '"train_loss": {}, "wall_events": {{"reductions": {}, "samples_seen": {}, '
    '"worker_batches": {}}}, "worker_dispersion": {}}}\n').format
_WALL_KEYS = frozenset(("reductions", "samples_seen", "worker_batches"))
# The JSON text of a non-finite float, keyed by its repr.
_NON_FINITE = {"nan": "null", "inf": '"Infinity"', "-inf": '"-Infinity"'}


def _json_value(value):
    """`_encode_line(_jsonable(value))`, read off `repr` for an int or float."""
    kind = type(value)
    if kind is float or kind is int:
        text = repr(value)
        return _NON_FINITE.get(text, text)
    return _encode_line(_jsonable(value))


def _record_line(line):
    """`_encode_line(_jsonable(line)) + "\n"`: `_RECORD_LINE` of the values'
    `_json_value` for a `MetricsRecord` with a run's `wall_events` keys, and
    the encoder's line for anything else."""
    events = getattr(line, "wall_events", None)
    if (type(line) is not MetricsRecord or type(events) is not dict
            or events.keys() != _WALL_KEYS):
        return _encode_line(_jsonable(line)) + "\n"
    return _RECORD_LINE(*map(_json_value, (
        line.grad_norm2, line.lr, line.smoothness_L, line.step, line.train_loss,
        events["reductions"], events["samples_seen"], events["worker_batches"],
        line.worker_dispersion)))


def _json_text(payload):
    """`_jsonable`'s form of `payload` as strict JSON text, indented by one."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def _dump_json(payload, path):
    """`_json_text(payload)` at `path`, making its directory; the text is
    built first, so a value JSON cannot hold raises TypeError and neither
    the directory nor the file is made."""
    text = _json_text(payload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _final_metrics(tr):
    """The last train loss and grad_norm2 that `tr` recorded and its least
    grad_norm2, each skipping NaN (an abort record's) and None if no record
    holds one."""
    losses = [r.train_loss for r in tr.records if not math.isnan(r.train_loss)]
    gns = [r.grad_norm2 for r in tr.records if not math.isnan(r.grad_norm2)]
    return (losses[-1] if losses else None, gns[-1] if gns else None,
            min(gns) if gns else None)


def write_outputs(result, out_dir):
    """manifest.json + trial_<i>.jsonl + aggregate.csv (+ theory_report.json);
    an earlier run's trial file or theory report that this run does not write
    is removed, so `out_dir` ends as a fresh directory would.  The text of
    every file is built before any file is touched, so a value JSON cannot
    hold raises TypeError and writes nothing."""
    from . import __version__
    texts = {"manifest.json": _json_text({
        "version": __version__,
        "config": result.config,
        "trial_seeds": result.trial_seeds,
    })}
    for tr in result.trials:
        lines = tr.records + ([{"abort": tr.abort_detail, "step": tr.steps_done}]
                              if tr.aborted else [])
        texts[f"trial_{tr.trial}.jsonl"] = "".join(map(_record_line, lines))

    aggregate = io.StringIO()
    w = csv.writer(aggregate)
    w.writerow(["trial", "seed", "steps_done", "final_train_loss",
                "final_grad_norm2", "min_grad_norm2", "aborted"])
    for tr in result.trials:
        w.writerow([tr.trial, tr.seed, tr.steps_done,
                    *("" if v is None else repr(v) for v in _final_metrics(tr)),
                    int(tr.aborted)])
    texts["aggregate.csv"] = aggregate.getvalue()

    if any(tr.virtual_sequence is not None or tr.rate_error
           for tr in result.trials):
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
        # A report whose bound is not finite decides nothing (holds None).
        holds = [tr.rate_report.holds for tr in result.trials
                 if getattr(tr.rate_report, "holds", None) is not None]
        if holds:
            payload["rate_bound_hold_fraction"] = sum(holds) / len(holds)
        texts["theory_report.json"] = _json_text(payload)

    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        if (name not in texts
                and re.fullmatch(r"trial_[0-9]+\.jsonl|theory_report\.json", name)):
            os.remove(os.path.join(out_dir, name))
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

_SPEEDUP_BUDGET = 4     # a speedup point's trials run at most 4 T_eps steps


def speedup_study(base, kb_grid, epsilon):
    """Steps-to-epsilon per aggregate batch size KB.

    For each (K, B): the horizon T_eps at which the tuned bound first reaches
    epsilon fixes the stepsize (theory.tuned_hyperparams at that horizon);
    trials then run until the recorded grad_norm2 drops to epsilon, with a
    budget of _SPEEDUP_BUDGET * T_eps steps (censored entries report no finite
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
    with np.errstate(all="ignore"):     # a non-finite constant is refused
        constants = estimate_constants(
            obj, x0, weight_decay=base.hyperparams.weight_decay).validate()
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
                                  total_steps_T=max(1, _SPEEDUP_BUDGET * t_eps))
        trials = _trial_results(cfg, stop_epsilon=epsilon)
        steps = [tr.steps_done for tr in trials if tr.reached_epsilon]
        rows.append({
            "workers_K": K, "local_batch_B": B, "kb": K * B,
            "gamma": hp.lr_gamma, "gamma_at_cap": bool(hp.lr_gamma >= cap),
            "predicted_T": t_eps,
            "mean_steps": float(np.mean(steps)) if steps else None,
            "trials": base.trials, "censored": len(trials) - len(steps),
        })
    return {"epsilon": epsilon, "critical_kb": critical_kb, "rows": rows}


def apply_override(config, path, value):
    """A copy of `config` with the dotted `path` set to `value` as the same key
    in a config file sets it: an unset section is built from the rest of the
    path, a maker argument calls a maker-built objective's maker again, and any
    other objective key sets that field and drops the maker call."""
    keys = path.split(".")
    def rebuild(node, depth):
        key, last = keys[depth], depth == len(keys) - 1
        call = getattr(node, "maker_call", None) or {}
        if last and key != "maker" and key in call:   # wins over a field
            return from_doc(ObjectiveSpec, {**call, key: value}, ".".join(keys[:depth]))
        p = (_parameters(type(node)).get(key)
             if dataclasses.is_dataclass(node) else None)
        if p is None:
            raise ValueError(f"unknown config field {path!r}")
        child = getattr(node, key)
        if last or child is None and dataclasses.is_dataclass(p.annotation):
            doc = functools.reduce(lambda v, k: {k: v}, reversed(keys[depth + 1:]), value)
            child = _typed(".".join(keys[:depth + 1]), p.annotation, p.default, doc)
        else:
            child = rebuild(child, depth + 1)
        return dataclasses.replace(node, **{key: child})
    return rebuild(config, 0)


def sweep(base, grid):
    """Cartesian hyperparameter sweep.

    grid: {dotted path: [JSON values...]}.  Every point is built through
    `apply_override` and validated before any point runs.  Each point runs its own `trials` trials
    and reports mean/std of final train loss and the min grad_norm2.  The
    result flags whether the best point (lowest mean final loss) touches the
    grid boundary on any swept axis with more than one value.
    """
    if not grid:
        raise ValueError("empty sweep grid")
    keys = sorted(grid)
    for key in keys:
        if not grid[key]:
            raise ValueError(f"sweep grid {key!r} has no values")
    points = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        try:
            cfg = base
            for key, val in zip(keys, combo):
                cfg = apply_override(cfg, key, val)
            points.append((combo, cfg.validate()))
        except ValueError as exc:
            raise ValueError(f"sweep point {dict(zip(keys, combo))}: {exc}") from exc
    rows = []
    for combo, cfg in points:
        trials = _trial_results(cfg)
        metrics = [_final_metrics(tr) for tr in trials]
        finals = [final for final, _, _ in metrics if final is not None]
        min_gns = [least for _, _, least in metrics if least is not None]
        with np.errstate(all="ignore"):     # an inf loss gives a NaN std
            rows.append({
                "point": dict(zip(keys, combo)),
                "final_loss_mean": float(np.mean(finals)) if finals else math.inf,
                "final_loss_std": float(np.std(finals)) if finals else math.nan,
                "min_grad_norm2_mean": (float(np.mean(min_gns)) if min_gns
                                        else math.nan),
                "aborted": sum(tr.aborted for tr in trials),
            })
    best = min(rows, key=lambda r: r["final_loss_mean"])
    boundary = any(len(grid[k]) > 1 and best["point"][k] in (grid[k][0], grid[k][-1])
                   for k in keys)
    return {"rows": rows, "best": best["point"], "boundary_optimum": boundary}
