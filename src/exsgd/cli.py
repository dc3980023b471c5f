"""
Command-line front end.

Subcommands: run, sweep, speedup, verify, smoothness, list-methods.
Configs are JSON documents mirroring RunConfig, built by `harness.from_doc`;
--set and --grid put JSON values at dotted paths (hyperparams.lr_gamma=0.2),
each the config file's key, through `harness.apply_override`; a --grid
KEY=V1,V2 is the JSON array [V1,V2], else split at commas.  Exit codes: 0
success, 1 validation/usage error, 2 runtime abort (partial results are kept).
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, gates, harness, theory
from .cluster import ClusterConfig
from .objectives import (batch_gradient, estimate_constants, initial_point,
                         make_quadratic, row_dots)
from .optimizers import HyperParams


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path, overrides, seed=None):
    """The config file at `path` with `overrides` and `seed` applied, validated."""
    with open(path) as fh:
        config = harness.from_doc(harness.RunConfig, json.load(fh))
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        config = harness.apply_override(config, key.strip(), _parse_value(raw))
    if seed is not None:
        config = harness.apply_override(config, "master_seed", seed)
    return config.validate()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args):
    config = load_config(args.config, args.set, args.seed)
    result = harness.run(config, threads=args.threads)
    harness.write_outputs(result, args.out)
    for tr in result.trials:
        if tr.aborted:
            print(f"trial {tr.trial}: aborted at step {tr.steps_done} ({tr.abort_detail})")
        else:       # every finished trial records its last step
            print(f"trial {tr.trial}: {tr.steps_done} steps, "
                  f"final loss {tr.records[-1].train_loss:.6g}, "
                  f"grad_norm2 {tr.records[-1].grad_norm2:.6g}")
    print(f"wrote {args.out}")
    return 2 if any(tr.aborted for tr in result.trials) else 0


def _parse_grid(items):
    grid = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"--grid expects KEY=V1,V2,..., got {item!r}")
        key, _, raw = item.partition("=")
        values = _parse_value(f"[{raw}]")    # a JSON array first: values may hold commas
        grid[key.strip()] = (values if isinstance(values, list)
                             else [_parse_value(v) for v in raw.split(",") if v])
    if not grid:
        raise ValueError("sweep needs at least one --grid KEY=V1,V2,...")
    return grid


def _cmd_sweep(args):
    config = load_config(args.config, args.set, args.seed)
    grid = _parse_grid(args.grid)
    table = harness.sweep(config, grid)
    harness._dump_json(table, os.path.join(args.out, "sweep.json"))
    for row in table["rows"]:
        print(f"{row['point']} -> final loss "
              f"{row['final_loss_mean']:.6g} +- {row['final_loss_std']:.2g}")
    print(f"best: {table['best']}"
          + ("  [warning: boundary optimum]" if table["boundary_optimum"] else ""))
    print(f"wrote {args.out}/sweep.json")
    return 2 if any(row["aborted"] for row in table["rows"]) else 0


def _parse_kb(items):
    grid = []
    for item in items or ():
        try:
            k, b = item.lower().replace(":", "x").split("x")
            grid.append((int(k), int(b)))
        except ValueError:
            raise ValueError(f"--kb expects KxB (e.g. 4x16), got {item!r}") from None
    if not grid:
        raise ValueError("speedup needs at least one --kb KxB")
    return grid


def _cmd_speedup(args):
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise ValueError(f"--epsilon must be a finite number > 0, "
                         f"got {args.epsilon!r}")
    config = load_config(args.config, args.set, args.seed)
    kb_grid = _parse_kb(args.kb)
    table = harness.speedup_study(config, kb_grid, args.epsilon)
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
    if args.set and not args.config:
        raise ValueError("--set needs --config")
    if args.config:
        config = load_config(args.config, args.set)
        obj, decay = config.objective, config.hyperparams.weight_decay
        x0 = initial_point(obj, config.init_scale)
        # What cannot be probed is refused in one line, not warned about.
        with np.errstate(all="ignore"):
            g = -batch_gradient(obj, x0, range(obj.sample_count),
                                weight_decay=decay)
            # Each probe divides by a multiple of ||g||.
            if not math.isfinite(row_dots(g, g)):
                raise ValueError("the gradient at x0 has no finite norm "
                                 "to probe along")
            est = theory.smoothness_estimate(obj, x0, g,
                                             probes=args.probes,
                                             fraction=args.fraction,
                                             weight_decay=decay)
            if not math.isfinite(est):
                raise ValueError(f"estimated L along -grad at x0 is not "
                                 f"finite, got {est!r}")
            print(f"estimated L along -grad at x0: {est:.9g}")
            if obj.kind == "quadratic":
                const = estimate_constants(obj, x0, weight_decay=decay)
                print(f"analytic L: {const.lipschitz_L:.9g}")
    else:
        obj = make_quadratic(2, 8, generator_seed=1, diag=[1.0, 4.0])
        est = theory.smoothness_estimate(
            obj, np.zeros(2), np.array([0.0, 1.0]),
            probes=args.probes, fraction=args.fraction)
        print(f"diag(1,4) demo, probing along the steep axis: {est:.9g}")
    return 0


def _cmd_list_methods(_args):
    for name, method in theory.METHOD_TABLE.items():
        print(f"{name:13s} {method.summary}")
    return 0


# ---------------------------------------------------------------------------
# verify: the built-in theory suite on quadratics
# ---------------------------------------------------------------------------

def _verify_checks():
    obj = make_quadratic(**gates.QUAD)
    cl = ClusterConfig(workers_K=2, local_batch_B=4, master_seed=11)
    run_cl = ClusterConfig(workers_K=2, local_batch_B=4)   # a run seeds each trial
    checks = []
    for reduced, parent, hp in gates.reduction_chains(0.02, 0.9):
        at = gates.chain_mismatch(obj, cl, reduced, parent, hp, 200)
        checks.append((f"{reduced.__name__} reduces to {parent.__name__}, "
                       f"200 steps", at is None,
                       "" if at is None else f"first mismatch at step {at}"))
    for method in (theory.NESTEROV, theory.EXTRAP_SGD):
        tr, = gates.replay_trials(obj, method, run_cl, HyperParams(
            lr_gamma=0.005, momentum_u=0.7), 300, 1, 5)
        worst = float(tr.descent_residuals.max())
        checks.append((f"descent identity ({method}), rel residual <= 1e-8",
                       worst <= 1e-8, f"max {worst:.3g}"))
        failed = [k for k, c in tr.proximity.items() if c["holds"] is False]
        checks.append((f"proximity inequalities ({method})", not failed,
                       f"failed: {failed}" if failed else ""))
    for method, u in ((theory.SGD, 0.0), (theory.NESTEROV, 0.5),
                      (theory.EXTRAP_SGD, 0.5)):
        frac = gates.rate_bound_hold_fraction(obj, method, run_cl, 800, u, 6, 17)
        checks.append((f"rate bound holds ({method}, 6 trials)",
                       frac >= 5 / 6, f"fraction {frac:.2f}"))
    return checks + gates.protocol_formulas()


def _cmd_verify(args):
    checks = _verify_checks()
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
        payload = [{"check": n, "passed": bool(ok), "detail": d}
                   for n, ok, d in checks]
        harness._dump_json(payload, os.path.join(args.out, "theory_report.json"))
        print(f"wrote {args.out}/theory_report.json")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------

def _add_common(p, run_options=True):
    """--config and --set; with run_options, a required --config, --out and
    --seed."""
    p.add_argument("--config", required=run_options,
                   help="JSON config mirroring RunConfig fields")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted-path override, repeatable")
    if run_options:
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed override")


@functools.cache
def build_parser():
    """The `exsgd` argument parser, built once per process: parsing leaves
    no state in it, so every `main` call sees a fresh one's behaviour."""
    ap = argparse.ArgumentParser(
        prog="exsgd",
        description="Distributed large-batch optimization testbed with "
                    "gradient-extrapolation methods and theory verification.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("run", help="execute seeded trials and persist results")
    _add_common(p)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect (each step "
                        "evaluates all workers in one stacked call)")
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
    p.add_argument("--out", help="also write the checks to "
                                 "OUT/theory_report.json")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("smoothness", help="probe local smoothness")
    _add_common(p, run_options=False)
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
