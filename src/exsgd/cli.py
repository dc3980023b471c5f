"""
Command-line front end.

Subcommands: run, sweep, speedup, verify, smoothness, list-methods.
Configs are JSON documents mirroring RunConfig field names; --set overrides
use dotted paths (hyperparams.lr_gamma=0.2).  Exit codes: 0 success,
1 validation/usage error, 2 runtime abort (partial results are kept).
"""

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__, harness, theory
from .cluster import ClusterConfig, draw_batches
from .objectives import (ObjectiveSpec, batch_gradient, estimate_constants,
                         initial_point, make_logistic, make_quadratic,
                         make_tiny_mlp)
from .optimizers import (HyperParams, NoiseSpec, PostLocalConfig, Schedule,
                         init_state, lars_scale, lr_at, step_adam,
                         step_extrap_adam, step_extrap_sgd,
                         step_minibatch_sgd, step_nesterov, warmup_increment)

_METHOD_SUMMARY = (
    ("sgd", "mini-batch SGD: x <- x - gamma * reduced batch gradient"),
    ("nesterov", "momentum SGD, gradient taken at the lookahead x + u*v"),
    ("extrap_sgd", "each worker first steps along its stored past batch "
                   "gradient, then the usual momentum update follows"),
    ("extrap_noise", "like extrap_sgd but the lookahead direction is drawn "
                     "noise (gaussian/uniform/shared/centered past gradients)"),
    ("adam", "Adam without bias correction (reference baseline)"),
    ("extrap_adam", "Adam whose workers look ahead through the stored moments "
                    "and their past gradient before the shared moment update"),
    ("post_local", "synchronized extrap_sgd until step t0, then per-worker "
                   "local updates with model averaging every H steps"),
)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _construct(section, factory, doc):
    """factory(**doc), reporting a malformed section as a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"config section {section!r} must be an object")
    params = inspect.signature(factory).parameters
    unknown = sorted(set(doc) - set(params))
    if unknown:
        raise ValueError(f"unknown {section} fields: {unknown}")
    missing = sorted(name for name, p in params.items()
                     if p.default is p.empty and name not in doc)
    if missing:
        raise ValueError(f"missing {section} fields: {missing}")
    return factory(**doc)


def _build_objective(doc):
    if not isinstance(doc, dict):
        raise ValueError("config section 'objective' must be an object")
    doc = dict(doc)
    maker = doc.pop("maker", None)
    if maker == "quadratic":
        return _construct("objective", make_quadratic, doc)
    if maker == "logistic":
        return _construct("objective", make_logistic, doc)
    if maker == "tiny_mlp":
        return _construct("objective", make_tiny_mlp, doc)
    if maker is not None:
        raise ValueError(f"unknown objective maker {maker!r}")
    for key in ("quad_diag", "quad_matrix", "quad_shifts", "logit_features",
                "logit_labels", "mlp_inputs", "mlp_targets"):
        if doc.get(key) is not None:
            doc[key] = np.asarray(doc[key], dtype=np.float64)
    if doc.get("partition") is not None:
        doc["partition"] = [tuple(p) for p in doc["partition"]]
    if doc.get("mlp_widths") is not None:
        doc["mlp_widths"] = tuple(doc["mlp_widths"])
    return _construct("objective", ObjectiveSpec, doc)


def build_config(doc):
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    doc = dict(doc)
    if "objective" not in doc:
        raise ValueError("config must define 'objective'")
    kwargs = {"objective": _build_objective(doc.pop("objective"))}
    if "cluster" in doc:
        kwargs["cluster"] = _construct("cluster", ClusterConfig, doc.pop("cluster"))
    if "hyperparams" in doc:
        kwargs["hyperparams"] = _construct("hyperparams", HyperParams,
                                           doc.pop("hyperparams"))
    if doc.get("schedule") is not None:
        sched = doc.pop("schedule")
        if isinstance(sched, dict) and "decay_milestones" in sched:
            sched = dict(sched, decay_milestones=tuple(sched["decay_milestones"]))
        kwargs["schedule"] = _construct("schedule", Schedule, sched)
    else:
        doc.pop("schedule", None)
    if doc.get("noise") is not None:
        kwargs["noise"] = _construct("noise", NoiseSpec, doc.pop("noise"))
    else:
        doc.pop("noise", None)
    if doc.get("post_local") is not None:
        kwargs["post_local"] = _construct("post_local", PostLocalConfig,
                                          doc.pop("post_local"))
    else:
        doc.pop("post_local", None)
    for key in ("method", "total_steps_T", "record_every",
                "record_virtual_sequence", "record_smoothness_every",
                "trials", "master_seed", "init_scale"):
        if key in doc:
            kwargs[key] = doc.pop(key)
    if doc:
        raise ValueError(f"unknown config fields: {sorted(doc)}")
    return harness.RunConfig(**kwargs)


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path, overrides, seed=None):
    with open(path) as fh:
        doc = json.load(fh)
    config = build_config(doc)
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        config = harness.apply_override(config, key.strip(), _parse_value(raw))
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args):
    config = load_config(args.config, args.set, args.seed)
    result = harness.run(config, threads=args.threads)
    harness.write_outputs(result, args.out)
    aborted = [t.trial for t in result.trials if t.aborted]
    for tr in result.trials:
        last = tr.records[-1] if tr.records else None
        if tr.aborted:
            print(f"trial {tr.trial}: aborted at step {tr.steps_done} ({tr.abort_detail})")
        elif last is not None:
            print(f"trial {tr.trial}: {tr.steps_done} steps, "
                  f"final loss {last.train_loss:.6g}, "
                  f"grad_norm2 {last.grad_norm2:.6g}")
    print(f"wrote {args.out}")
    return 2 if aborted else 0


def _parse_grid(items):
    grid = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"--grid expects KEY=V1,V2,..., got {item!r}")
        key, _, raw = item.partition("=")
        grid[key.strip()] = [_parse_value(v) for v in raw.split(",") if v]
    if not grid:
        raise ValueError("sweep needs at least one --grid KEY=V1,V2,...")
    return grid


def _cmd_sweep(args):
    config = load_config(args.config, args.set, args.seed)
    grid = _parse_grid(args.grid)
    table = harness.sweep(config, grid, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    harness._dump_json(table, os.path.join(args.out, "sweep.json"))
    for row in table["rows"]:
        print(f"{row['point']} -> final loss "
              f"{row['final_loss_mean']:.6g} +- {row['final_loss_std']:.2g}")
    print(f"best: {table['best']}"
          + ("  [warning: boundary optimum]" if table["boundary_optimum"] else ""))
    print(f"wrote {args.out}/sweep.json")
    return 0


def _parse_kb(items):
    grid = []
    for item in items or ():
        txt = item.lower().replace(":", "x")
        parts = txt.split("x")
        if len(parts) != 2:
            raise ValueError(f"--kb expects KxB (e.g. 4x16), got {item!r}")
        grid.append((int(parts[0]), int(parts[1])))
    if not grid:
        raise ValueError("speedup needs at least one --kb KxB")
    return grid


def _cmd_speedup(args):
    config = load_config(args.config, args.set, args.seed)
    kb_grid = _parse_kb(args.kb)
    table = harness.speedup_study(config, kb_grid, args.epsilon,
                                  threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    harness._dump_json(table, os.path.join(args.out, "speedup.json"))
    print(f"epsilon {table['epsilon']}, predicted critical KB "
          f"{table['critical_kb']:.6g}")
    prev = None
    for row in table["rows"]:
        cap_note = " (cap)" if row["gamma_at_cap"] else ""
        line = (f"K={row['workers_K']} B={row['local_batch_B']} "
                f"(KB={row['kb']}): gamma {row['gamma']:.4g}{cap_note}, "
                f"mean steps {row['mean_steps']}")
        if row["censored"]:
            line += f" [{row['censored']} censored]"
        if prev and prev["mean_steps"] and row["mean_steps"]:
            line += f", speedup x{prev['mean_steps'] / row['mean_steps']:.2f}"
        print(line)
        prev = row
    print(f"wrote {args.out}/speedup.json")
    return 0


def _cmd_smoothness(args):
    if args.config:
        config = load_config(args.config, args.set, args.seed)
        obj = config.objective
        x0 = initial_point(obj, config.init_scale)
        g = -batch_gradient(obj, x0.values, np.arange(obj.sample_count))
        est = theory.smoothness_estimate(obj, x0.values, g,
                                         probes=args.probes,
                                         fraction=args.fraction)
        print(f"estimated L along -grad at x0: {est:.9g}")
        if obj.kind == "quadratic":
            const = estimate_constants(obj, x0)
            print(f"analytic L: {const.lipschitz_L:.9g}")
    else:
        obj = make_quadratic(2, 8, generator_seed=1, diag=[1.0, 4.0])
        est = theory.smoothness_estimate(
            obj, np.zeros(2), np.array([0.0, 1.0]),
            probes=args.probes, fraction=args.fraction)
        print(f"diag(1,4) demo, probing along the steep axis: {est:.9g}")
    return 0


def _cmd_list_methods(_args):
    for name, text in _METHOD_SUMMARY:
        print(f"{name:13s} {text}")
    return 0


# ---------------------------------------------------------------------------
# verify: the built-in theory suite on quadratics
# ---------------------------------------------------------------------------

def _chain_runs_equal(obj, cl, steps, pairs, threads):
    """Run two step functions on identical batch streams; compare iterates."""
    for step_a, hp_a, step_b, hp_b in pairs:
        sa = init_state(initial_point(obj), cl.workers_K)
        sb = init_state(initial_point(obj), cl.workers_K)
        for t in range(steps):
            batches = draw_batches(cl, obj, t)
            step_a(sa, obj, batches, hp_a, threads)
            step_b(sb, obj, batches, hp_b, threads)
            if not np.array_equal(sa.x.values, sb.x.values):
                return False, t
    return True, None


def _verify_checks(threads=1):
    checks = []
    obj = make_quadratic(6, 48, generator_seed=5, shift_spread=2.0)
    cl = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=11)
    x0 = initial_point(obj)
    const = estimate_constants(obj, x0)
    gamma = 0.5 / const.lipschitz_L

    ok, at = _chain_runs_equal(obj, cl, 200, [
        (step_extrap_sgd, HyperParams(lr_gamma=gamma, inner_lr_gamma_hat=0.0,
                                      momentum_u=0.9),
         step_nesterov, HyperParams(lr_gamma=gamma, momentum_u=0.9)),
    ], threads)
    checks.append(("extrap_sgd(gamma_hat=0) == nesterov, 200 steps", ok,
                   f"first mismatch at step {at}" if not ok else ""))
    ok, at = _chain_runs_equal(obj, cl, 200, [
        (step_nesterov, HyperParams(lr_gamma=gamma, momentum_u=0.0),
         step_minibatch_sgd, HyperParams(lr_gamma=gamma)),
    ], threads)
    checks.append(("nesterov(u=0) == sgd, 200 steps", ok,
                   f"first mismatch at step {at}" if not ok else ""))
    ok, at = _chain_runs_equal(obj, cl, 200, [
        (step_extrap_adam, HyperParams(lr_gamma=gamma, inner_lr_gamma_hat=0.0),
         step_adam, HyperParams(lr_gamma=gamma)),
    ], threads)
    checks.append(("extrap_adam(gamma_hat=0) == adam, 200 steps", ok,
                   f"first mismatch at step {at}" if not ok else ""))

    for method, u in ((theory.NESTEROV, 0.8), (theory.EXTRAP_SGD, 0.6)):
        cfg = harness.RunConfig(
            objective=obj, cluster=cl, method=method,
            hyperparams=HyperParams(lr_gamma=gamma, momentum_u=u),
            total_steps_T=300, record_virtual_sequence=True, trials=1,
            master_seed=3)
        tr = harness.run(cfg, threads=threads).trials[0]
        worst = float(tr.descent_residuals.max())
        checks.append((f"descent identity ({method}), rel residual <= 1e-8",
                       worst <= 1e-8, f"max {worst:.3g}"))
        prox_ok = all(c["holds"] for c in tr.proximity.values()
                      if c["holds"] is not None)
        checks.append((f"proximity inequalities ({method})", prox_ok,
                       json.dumps(harness._jsonable(tr.proximity))
                       if not prox_ok else ""))

    trials = 6
    for method, u in ((theory.SGD, 0.0), (theory.NESTEROV, 0.5),
                      (theory.EXTRAP_SGD, 0.5)):
        horizon = 800
        const_t = dataclasses.replace(const, horizon_T=horizon)
        hp = theory.tuned_hyperparams(method, const_t, cl, horizon, u)
        cfg = harness.RunConfig(
            objective=obj, cluster=cl, method=method, hyperparams=hp,
            total_steps_T=horizon, record_virtual_sequence=True,
            trials=trials, master_seed=17)
        result = harness.run(cfg, threads=threads)
        holds = [t.rate_report.holds for t in result.trials
                 if t.rate_report is not None]
        frac = sum(holds) / len(holds) if holds else 0.0
        checks.append((f"rate bound holds ({method}, {trials} trials)",
                       frac >= 5 / 6, f"fraction {frac:.2f}"))

    sched = Schedule(kind="warmup_constant", base_lr=0.1, scale_factor=32,
                     warmup_epochs=5)
    big_obj = dataclasses.replace(obj, sample_count=50000)
    big_cl = ClusterConfig(workers_K=32, local_batch_B=256)
    inc = warmup_increment(sched, big_cl, big_obj)
    want = 3.1 / (5 * 50000 / 8192)
    checks.append(("warmup increment formula", abs(inc - want) <= 1e-12,
                   f"{inc!r} vs {want!r}"))
    sched2 = Schedule(kind="warmup_step_decay", base_lr=0.1, scale_factor=32,
                      warmup_epochs=5, total_steps=1000)
    peak = 0.1 * 32
    lr_end = lr_at(sched2, 990, big_cl, big_obj)
    checks.append(("post-decay lr == peak/100", lr_end == peak / 100,
                   f"{lr_end!r} vs {peak / 100!r}"))
    scale = lars_scale(np.array([4.0, 0.0]), np.array([0.0, 2.0]),
                       HyperParams(lr_gamma=1.0, lars_trust=1.0,
                                   weight_decay=0.0))
    got = float(np.linalg.norm(scale) / 4.0)
    checks.append(("lars scale (trust=1, ||x||=2, ||g||=4) == 0.5",
                   got == 0.5, f"{got!r}"))
    return checks


def _cmd_verify(args):
    checks = _verify_checks(threads=args.threads)
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        mark = "✓" if ok else "✗"
        line = f"{mark} {name:<{width}}"
        if detail and not ok:
            line += f"  {detail}"
        print(line)
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload = [{"check": n, "passed": bool(ok), "detail": d}
                   for n, ok, d in checks]
        harness._dump_json(payload, os.path.join(args.out, "theory_report.json"))
        print(f"wrote {args.out}/theory_report.json")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------

def _add_common(p, config_required=True):
    p.add_argument("--config", required=config_required,
                   help="JSON config mirroring RunConfig fields")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted-path override, repeatable")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="worker-evaluation threads (results unchanged)")
    p.add_argument("--seed", type=int, default=None, help="master seed override")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="exsgd",
        description="Distributed large-batch optimization testbed with "
                    "gradient-extrapolation methods and theory verification.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("run", help="execute seeded trials and persist results")
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="hyperparameter grid sweep")
    _add_common(p)
    p.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                   help="swept dotted-path values, repeatable")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("speedup", help="steps-to-epsilon vs aggregate batch size")
    _add_common(p)
    p.add_argument("--kb", action="append", metavar="KxB",
                   help="cluster shape, repeatable (e.g. --kb 2x8 --kb 4x8)")
    p.add_argument("--epsilon", type=float, required=True,
                   help="target squared gradient norm")
    p.set_defaults(fn=_cmd_speedup)

    p = sub.add_parser("verify",
                       help="run the theory checks on built-in quadratics")
    _add_common(p, config_required=False)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("smoothness", help="probe local smoothness")
    _add_common(p, config_required=False)
    p.add_argument("--probes", type=int, default=8)
    p.add_argument("--fraction", type=float, default=0.30)
    p.set_defaults(fn=_cmd_smoothness)

    p = sub.add_parser("list-methods", help="describe the available methods")
    p.set_defaults(fn=_cmd_list_methods)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
