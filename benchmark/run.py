"""exsgd benchmark: one workload, closed loop, one process.

    python3 benchmark/run.py --workload theory_gate --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  The run builds the workload's inputs from --seed (set-up,
repeated SETUP_REPEATS times), then repeats rounds of the workload until
--seconds have passed (at least MIN_ROUNDS rounds), checking every operation.

Operation times are scaled to nominal machine speed by a fixed reference
computation timed between operations (reference.py); raw wall-clock figures
are printed beside them.  --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics, with
the traced/untraced ratio as the tracing overhead.  Human-readable lines come
first; the last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See benchmark/README.md for the workloads and metrics.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

# One caller, at most two threads (the CLI's worker pool): keep BLAS from
# adding threads of its own, so runs on a shared machine stay comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_BASE = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

# (name, unit) of the per-layer metrics.  Time metrics are medians over traced
# rounds; every other metric is a count that must repeat exactly per round,
# except the top-layer verdict, which holds only if it held in every round.
TIME_UNITS = ("s", "us", "ns")
ALL_ROUNDS = ("trace.top_layer_is_predicted",)
PER_LAYER = (
    ("cluster.draw_batches.calls", "count"),
    ("cluster.draw_batches.self_s", "s"),
    ("cluster.draw_batches.us_per_call", "us"),
    ("cluster.map_workers.calls", "count"),
    ("cluster.map_workers.overhead_s", "s"),
    ("cluster.reduce_mean.calls_per_step", "count"),
    ("cluster.reduce_mean.self_s", "s"),
    ("cluster.reduced_bytes_per_step", "bytes_computed"),
    ("objectives.batch_gradient.step.calls", "count"),
    ("objectives.batch_gradient.step.samples", "count"),
    ("objectives.batch_gradient.step.self_s", "s"),
    ("objectives.batch_gradient.step.ns_per_sample", "ns"),
    ("objectives.batch_gradient.metrics.calls", "count"),
    ("objectives.batch_gradient.metrics.samples", "count"),
    ("objectives.batch_gradient.metrics.self_s", "s"),
    ("objectives.batch_loss.self_s", "s"),
    ("objectives.estimate_constants.self_s", "s"),
    ("theory.replay_s", "s"),
    ("optimizers.step.calls", "count"),
    ("optimizers.step.self_s", "s"),
    ("optimizers.step.us_p50", "us"),
    ("optimizers.step.us_p99", "us"),
    ("optimizers.oracle_calls_per_step", "count"),
    ("optimizers.oracle_samples_per_step", "count"),
    ("harness.run.self_s", "s"),
    ("harness.write_outputs.s", "s"),
    ("harness.write_outputs.bytes", "bytes"),
    ("harness.wall_events_samples_ratio", "ratio"),
    ("cli.load_config.s", "s"),
    ("cli.main.self_s", "s"),
    ("theory.descent_residual_max", "relative"),
    ("theory.rate_bound_hold_frac", "fraction"),
    ("trace.unwrapped_s", "s"),
    ("trace.top_layer_is_predicted", "count"),
    ("trace_overhead_frac", "fraction"),
)


def import_program():
    """Import exsgd afresh from this checkout's src/ (set-up time includes it)."""
    if not os.path.isfile(os.path.join(SRC, "exsgd", "__init__.py")):
        raise FileNotFoundError(f"exsgd sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "exsgd" or m.startswith("exsgd.")]:
        del sys.modules[name]
    pkg = importlib.import_module("exsgd")
    importlib.import_module("exsgd.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"exsgd imported from {pkg.__file__}, not {SRC}")
    return pkg


def normalized(seconds, refs, nominal_s):
    """Seconds at nominal machine speed: each time is scaled by the reference
    measured just before and just after it (refs has one more entry)."""
    return [t * nominal_s / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(seconds)]


def set_up(workload, seed, work_dir, reference):
    """SETUP_REPEATS full set-ups; returns (package, inputs, raw seconds,
    normalized seconds), the times as medians over the set-ups."""
    times, refs, ex, inputs = [], [reference.measure()], None, None
    for rep in range(SETUP_REPEATS):
        ex = inputs = None
        rep_dir = os.path.join(work_dir, f"setup_{rep}")
        os.makedirs(rep_dir)
        start = time.perf_counter()
        ex = import_program()
        inputs = workload.build(ex, seed, rep_dir)
        times.append(time.perf_counter() - start)
        refs.append(reference.measure())
    return (ex, inputs, statistics.median(times),
            statistics.median(normalized(times, refs, reference.nominal_s)))


class Run:
    """Rounds of one workload and what they produced."""

    def __init__(self, ex, workload, inputs, work_dir, reference):
        self.ex, self.workload, self.inputs = ex, workload, inputs
        self.work_dir, self.reference = work_dir, reference
        self.round_walls, self.traced_normalized = [], []  # per-round sums
        self.op_seconds, self.op_normalized = [], []
        self.digests, self.failures, self.snapshots = [], [], []
        self.attempted = self.failed = self.steps_per_round = 0
        self.first_out_dirs = None

    def one_round(self, tracer=None):
        round_dir = os.path.join(self.work_dir, f"round_{len(self.digests)}")
        os.makedirs(round_dir)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            outcome = self.workload.run_round(self.ex, self.inputs, round_dir,
                                              self.reference)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.failures.extend(outcome.failures)
        self.steps_per_round = outcome.steps
        self.digests.append(self.workload.digest(outcome))
        wall = sum(outcome.op_seconds)
        norm = normalized(outcome.op_seconds, outcome.ref_seconds,
                          self.reference.nominal_s)
        if tracer is None:
            self.round_walls.append(wall)
            self.op_seconds.append(outcome.op_seconds)
            self.op_normalized.append(norm)
        else:
            self.traced_normalized.append(sum(norm))
            self.snapshots.append(snapshot(tracer, wall))
        if self.first_out_dirs is None and outcome.out_dirs:
            self.first_out_dirs = outcome.out_dirs
        else:
            shutil.rmtree(round_dir)


def snapshot(tracer, wall):
    """The traced round's aggregates, taken before the tracer is reset."""
    agg = tracer.aggregate()
    agg["wall"] = wall
    agg["step_us"] = np.asarray(agg["durations"].get("optimizers.step", [])) * 1e6
    agg["results"] = list(tracer.results)
    agg["write_bytes"] = sum(
        len(data) for data in workloads.dir_files(tracer.out_dirs).values())
    return agg


def layer_metrics(snap, predicted):
    calls, self_s, extra = snap["calls"], snap["self"], snap["extra"]
    steps = calls.get("optimizers.step", 0)
    per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    draws = calls.get("cluster.draw_batches", 0)
    step_calls = calls.get("objectives.batch_gradient.step", 0)
    step_samples = extra.get("objectives.batch_gradient.step", 0)
    residuals, holds, wall_samples = [], [], 0
    for result in snap["results"]:
        for tr in result.trials:
            if tr.descent_residuals is not None:
                residuals.append(float(np.max(tr.descent_residuals)))
            if tr.rate_report is not None:
                holds.append(bool(tr.rate_report.holds))
            if tr.records:
                wall_samples += tr.records[-1].wall_events.get("samples_seen", 0)
    step_us = snap["step_us"]
    top = max(self_s, key=self_s.get)
    values = {
        "cluster.draw_batches.calls": draws,
        "cluster.draw_batches.self_s": self_s.get("cluster.draw_batches", 0.0),
        "cluster.draw_batches.us_per_call":
            per(self_s.get("cluster.draw_batches", 0.0), draws, 1e6),
        "cluster.map_workers.calls": calls.get("cluster.map_workers", 0),
        "cluster.map_workers.overhead_s": self_s.get("cluster.map_workers", 0.0),
        "cluster.reduce_mean.calls_per_step": per_step(calls.get("cluster.reduce_mean", 0)),
        "cluster.reduce_mean.self_s": self_s.get("cluster.reduce_mean", 0.0),
        "cluster.reduced_bytes_per_step": per_step(extra.get("cluster.reduce_mean", 0)),
        "objectives.batch_gradient.step.calls": step_calls,
        "objectives.batch_gradient.step.samples": step_samples,
        "objectives.batch_gradient.step.self_s":
            self_s.get("objectives.batch_gradient.step", 0.0),
        "objectives.batch_gradient.step.ns_per_sample":
            per(self_s.get("objectives.batch_gradient.step", 0.0), step_samples, 1e9),
        "objectives.batch_gradient.metrics.calls":
            calls.get("objectives.batch_gradient.metrics", 0),
        "objectives.batch_gradient.metrics.samples":
            extra.get("objectives.batch_gradient.metrics", 0),
        "objectives.batch_gradient.metrics.self_s":
            self_s.get("objectives.batch_gradient.metrics", 0.0),
        "objectives.batch_loss.self_s": self_s.get("objectives.batch_loss", 0.0),
        "objectives.estimate_constants.self_s":
            self_s.get("objectives.estimate_constants", 0.0),
        "theory.replay_s": self_s.get("theory.replay", 0.0),
        "optimizers.step.calls": steps,
        "optimizers.step.self_s": self_s.get("optimizers.step", 0.0),
        "optimizers.step.us_p50": float(np.percentile(step_us, 50)) if steps else 0.0,
        "optimizers.step.us_p99": float(np.percentile(step_us, 99)) if steps else 0.0,
        "optimizers.oracle_calls_per_step": per_step(step_calls),
        "optimizers.oracle_samples_per_step": per_step(step_samples),
        "harness.run.self_s": self_s.get("harness.run", 0.0),
        "harness.write_outputs.s": self_s.get("harness.write_outputs", 0.0),
        "harness.write_outputs.bytes": snap["write_bytes"],
        "harness.wall_events_samples_ratio": per(step_samples, wall_samples, 1.0),
        "cli.load_config.s": self_s.get("cli.load_config", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "theory.descent_residual_max": max(residuals, default=0.0),
        "theory.rate_bound_hold_frac": sum(holds) / len(holds) if holds else 0.0,
        "trace.unwrapped_s": snap["wall"] - snap["outer"],
        "trace.top_layer_is_predicted": int(top == predicted),
    }
    accounted = sum(self_s.values()) - snap["overlap"] + values["trace.unwrapped_s"]
    return values, top, accounted


def spread(values):
    return f"median of {len(values)}; min {min(values):.4f}, max {max(values):.4f}"


def report_end_to_end(run, setup_raw, setup_s, out):
    # wall_s sums each operation's median over rounds: one slow round on a
    # shared machine moves a median, not the sum.  Times are at nominal
    # machine speed (reference.py); the raw wall-clock figures are printed too.
    wall = sum(statistics.median(col) for col in zip(*run.op_normalized))
    raw = sum(statistics.median(col) for col in zip(*run.op_seconds))
    metrics = {
        "wall_s": (wall, "s"),
        "steps_per_s": (run.steps_per_round / wall, "steps/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    out(f"raw wall-clock: pass {raw:.4f} s, {run.steps_per_round / raw:.6g} steps/s, "
        f"set-up {setup_raw:.4f} s; rounds {spread(run.round_walls)}; "
        f"{len(run.op_seconds[0])} operations and {run.steps_per_round} steps per round")
    for name, (value, unit) in metrics.items():
        out(f"{name} {value:.6g} {unit}")
    return metrics


def report_per_layer(run, predicted, out):
    per_round = []
    for snap in run.snapshots:
        values, top, accounted = layer_metrics(snap, predicted)
        per_round.append(values)
        out(f"traced round: wall {snap['wall']:.4f} s; self times "
            f"{sum(snap['self'].values()):.4f} s - pool-thread overlap "
            f"{snap['overlap']:.4f} s + unwrapped {values['trace.unwrapped_s']:.4f} s "
            f"= {accounted:.4f} s; top self-time layer {top} "
            f"({snap['self'][top] / snap['wall']:.1%}), predicted {predicted}: "
            f"{'match' if top == predicted else 'MISMATCH'}")
    metrics, unstable = {}, []
    for name, unit in PER_LAYER:
        if name == "trace_overhead_frac":
            value = (statistics.median(run.traced_normalized)
                     / statistics.median(map(sum, run.op_normalized)) - 1.0)
        elif unit in TIME_UNITS:
            value = statistics.median(v[name] for v in per_round)
        elif name in ALL_ROUNDS:
            value = min(v[name] for v in per_round)
        else:
            value = per_round[0][name]
            if any(v[name] != value for v in per_round[1:]):
                unstable.append(name)
        metrics[name] = (value, unit)
        out(f"{name} {value:.6g} {unit}")
    shares = sorted(run.snapshots[0]["self"].items(), key=lambda kv: -kv[1])
    out("self-time shares of the first traced round: " + ", ".join(
        f"{k} {v / run.snapshots[0]['wall']:.1%}" for k, v in shares))
    return metrics, unstable


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    out = print

    work_dir = os.path.join(WORK_BASE, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        ex, inputs, setup_raw, setup_s = set_up(
            workload, args.seed, work_dir, Reference(workload.setup_reference))
        run = Run(ex, workload, inputs, work_dir, Reference(workload.round_reference))
        tracer = tracing.Tracer(ex) if args.trace else None
        start = time.perf_counter()
        min_rounds = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
        while True:
            run.one_round()
            if tracer is not None:
                run.one_round(tracer)
            # Stop at the round boundary nearest to --seconds.
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(run.round_walls)
            if len(run.round_walls) >= min_rounds and elapsed + per_round / 2 >= args.seconds:
                break
        out(f"workload {args.workload}, seed {args.seed}: "
            f"{len(run.digests)} rounds in {time.perf_counter() - start:.1f} s, "
            f"working set {inputs['working_set_bytes']} bytes")
        out(f"digest sha256:{run.digests[0]}")
        correct = True
        if len(set(run.digests)) != 1:
            out(f"outputs differ between rounds: {sorted(set(run.digests))}")
            correct = False
        if workload.final_check is not None:
            passed, detail = workload.final_check(ex, inputs, work_dir, run.first_out_dirs)
            out(detail)
            correct = correct and passed
        for failure in run.failures:
            out(f"FAILED {failure}")
        out(f"error_rate {run.failed / run.attempted:.6g} "
            f"({run.failed}/{run.attempted} operations)")
        if tracer is None:
            metrics = report_end_to_end(run, setup_raw, setup_s, out)
        else:
            metrics, unstable = report_per_layer(run, workload.predicted_top_layer, out)
            if unstable:
                out(f"counts differ between traced rounds: {unstable}")
                correct = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_BASE)
        except OSError:
            pass    # another run still uses it
    print(json.dumps({
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
