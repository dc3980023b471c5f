"""The three benchmark workloads: inputs from a seed, one timed round, checks.

A round is one pass over a workload's configs.  Rounds of one run repeat the
same configs, so their outputs, digests and traced counts must agree.  The
checks test invariants (no abort, descent residual, loss decrease, files
present and strict JSON), not golden bytes, so a declared output change does
not count as a failure.

Every function takes the imported `exsgd` package as `ex` and looks its
functions up by attribute at call time, so the tracer's patches apply.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time
import traceback
import zlib
from contextlib import redirect_stdout

import numpy as np

DESCENT_RESIDUAL_BOUND = 1e-8     # acceptance gate 2's relative bound


def derive_seeds(seed, workload, count):
    """Generator and master seeds for one workload, all derived from --seed."""
    ss = np.random.SeedSequence([seed % 2**64, zlib.crc32(workload.encode())])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint32)]


@dataclasses.dataclass
class Outcome:
    """What one round produced: checked operations and the data to digest."""
    ops: int = 0
    failed: int = 0
    steps: int = 0
    failures: list = dataclasses.field(default_factory=list)
    op_seconds: list = dataclasses.field(default_factory=list)
    # reference seconds before each operation and after the last one
    ref_seconds: list = dataclasses.field(default_factory=list)
    trials: list = dataclasses.field(default_factory=list)   # library workloads
    out_dirs: list = dataclasses.field(default_factory=list)  # cli workload


def _array_bytes(*arrays):
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _objective_bytes(obj):
    return _array_bytes(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))


def library_digest(outcome):
    """sha256 of every trial's final_x and records, in run order."""
    h = hashlib.sha256()
    for tr in outcome.trials:
        h.update(np.ascontiguousarray(tr.final_x).tobytes())
        records = [dataclasses.asdict(r) for r in tr.records]
        h.update(json.dumps(records, sort_keys=True).encode())
    return h.hexdigest()


def _measure_reference(outcome, reference):
    if reference is not None:
        outcome.ref_seconds.append(reference.measure())


def _run_library(ex, configs, check, reference):
    """One operation per config; every config runs one trial."""
    outcome = Outcome()
    for cfg in configs:
        _measure_reference(outcome, reference)
        start = time.perf_counter()
        try:
            (tr,) = ex.harness.run(cfg).trials
            problem = check(tr)
        except Exception:      # a crash is a failed operation, not a lost run
            tr, problem = None, traceback.format_exc(limit=3)
        outcome.op_seconds.append(time.perf_counter() - start)
        outcome.ops += 1
        if problem:
            outcome.failed += 1
            outcome.failures.append(f"{cfg.method}: {problem}")
        if tr is not None:
            outcome.steps += tr.steps_done
            outcome.trials.append(tr)
    _measure_reference(outcome, reference)
    return outcome


# ---------------------------------------------------------------------------
# theory_gate: acceptance gate 3's shape on the analytic quadratic
# ---------------------------------------------------------------------------

GATE_STEPS = 2000
GATE_MOMENTUM = 0.5


def build_theory_gate(ex, seed, work_dir):
    gen_seed, master_seed = derive_seeds(seed, "theory_gate", 2)
    obj = ex.objectives.make_quadratic(
        6, 48, generator_seed=gen_seed, diag=[0.5, 0.8, 1.2, 2.0, 3.0, 4.0],
        shift_spread=3.0, shift_mean=[1.5] * 6)
    x0 = ex.objectives.initial_point(obj)
    consts = ex.objectives.estimate_constants(obj, x0, horizon_T=GATE_STEPS)
    configs = []
    for method in ("nesterov", "extrap_sgd"):
        for workers in (1, 4):
            for batch in (4, 16):
                cluster = ex.cluster.ClusterConfig(workers_K=workers,
                                                   local_batch_B=batch)
                hp = ex.theory.tuned_hyperparams(method, consts, cluster,
                                                 GATE_STEPS, GATE_MOMENTUM)
                configs.append(ex.harness.RunConfig(
                    objective=obj, cluster=cluster, method=method,
                    hyperparams=hp, total_steps_T=GATE_STEPS,
                    record_every=GATE_STEPS, record_virtual_sequence=True,
                    trials=1, master_seed=master_seed))
    return {"configs": configs, "working_set_bytes": _objective_bytes(obj)}


def _check_gate_trial(tr):
    if tr.aborted:
        return f"aborted: {tr.abort_detail}"
    if tr.descent_residuals is None:
        return "no descent residuals"
    worst = float(np.max(tr.descent_residuals))
    if not worst <= DESCENT_RESIDUAL_BOUND:
        return f"relative descent residual {worst:.3g} > {DESCENT_RESIDUAL_BOUND:g}"
    if tr.rate_report is None:
        return f"no rate report ({tr.rate_error or 'missing'})"
    return ""


def run_theory_gate(ex, inputs, round_dir, reference):
    return _run_library(ex, inputs["configs"], _check_gate_trial, reference)


# ---------------------------------------------------------------------------
# wide_models: oracle arithmetic dominates (d = 256 and d = 6532)
# ---------------------------------------------------------------------------

WIDE_STEPS = 150
WIDE_RECORD_EVERY = 50


def build_wide_models(ex, seed, work_dir):
    logit_seed, mlp_seed, master_seed = derive_seeds(seed, "wide_models", 3)
    mk = ex.objectives
    logistic = mk.make_logistic(256, 8192, generator_seed=logit_seed, l2=1e-4)
    mlp = mk.make_tiny_mlp((32, 64, 64, 4), 4096, generator_seed=mlp_seed)
    cluster = ex.cluster.ClusterConfig(workers_K=8, local_batch_B=128,
                                       extrap_batch_b=64,
                                       sampling_mode="epoch_permutation")
    HP = ex.optimizers.HyperParams

    def config(obj, method, hp, **extra):
        return ex.harness.RunConfig(
            objective=obj, cluster=cluster, method=method, hyperparams=hp,
            total_steps_T=WIDE_STEPS, record_every=WIDE_RECORD_EVERY,
            trials=1, master_seed=master_seed, **extra)

    configs = [
        config(logistic, "extrap_sgd", HP(lr_gamma=0.5, momentum_u=0.9)),
        config(mlp, "extrap_adam", HP(lr_gamma=1e-3)),
        config(mlp, "post_local", HP(lr_gamma=0.05, momentum_u=0.9),
               post_local=ex.optimizers.PostLocalConfig(
                   transition_step_t0=WIDE_STEPS // 3, local_steps_H=4)),
        config(mlp, "extrap_noise",
               HP(lr_gamma=0.05, momentum_u=0.9, lars_trust=0.02),
               noise=ex.optimizers.NoiseSpec(kind="isotropic_gaussian",
                                             filter_scaled=True)),
    ]
    return {"configs": configs,
            "working_set_bytes": _objective_bytes(logistic) + _objective_bytes(mlp)}


def _check_wide_trial(tr):
    if tr.aborted:
        return f"aborted: {tr.abort_detail}"
    losses = [r.train_loss for r in tr.records]
    if len(losses) < 2:
        return "fewer than two recorded losses"
    if not (math.isfinite(losses[-1]) and losses[-1] < losses[0]):
        return f"final loss {losses[-1]!r} not finite and below first {losses[0]!r}"
    return ""


def run_wide_models(ex, inputs, round_dir, reference):
    return _run_library(ex, inputs["configs"], _check_wide_trial, reference)


# ---------------------------------------------------------------------------
# cli_threads: `exsgd run --threads 2` for all seven methods, in-process
# ---------------------------------------------------------------------------

CLI_METHODS = ("sgd", "nesterov", "extrap_sgd", "extrap_noise", "adam",
               "extrap_adam", "post_local")
CLI_VIRTUAL_SEQUENCE = ("extrap_sgd", "extrap_noise")
CLI_STEPS = 150
CLI_THREADS = 2


def cli_config_docs(gen_seed, master_seed):
    """One JSON config per method; the CLI regenerates the dataset from it."""
    docs = {}
    for method in CLI_METHODS:
        doc = {
            "objective": {"maker": "logistic", "dimension": 20,
                          "sample_count": 512, "generator_seed": gen_seed,
                          "l2": 1e-3},
            "cluster": {"workers_K": 4, "local_batch_B": 16},
            "method": method,
            "hyperparams": {"lr_gamma": 0.005, "momentum_u": 0.5},
            "total_steps_T": CLI_STEPS, "record_every": 1, "trials": 2,
            "master_seed": master_seed,
            "record_virtual_sequence": method in CLI_VIRTUAL_SEQUENCE,
        }
        if method in ("adam", "extrap_adam"):
            doc["hyperparams"] = {"lr_gamma": 0.01}
        if method == "extrap_noise":
            doc["noise"] = {"kind": "isotropic_gaussian", "raw_scale": 0.1}
        if method == "post_local":
            doc["post_local"] = {"transition_step_t0": CLI_STEPS // 2,
                                 "local_steps_H": 4}
        docs[method] = doc
    return docs


def build_cli_threads(ex, seed, work_dir):
    gen_seed, master_seed = derive_seeds(seed, "cli_threads", 2)
    paths = {}
    for method, doc in cli_config_docs(gen_seed, master_seed).items():
        path = os.path.join(work_dir, f"config_{method}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        paths[method] = path
    # The CLI builds the dataset itself; this copy only sizes the working set.
    obj = ex.objectives.make_logistic(20, 512, generator_seed=gen_seed, l2=1e-3)
    return {"config_paths": paths, "working_set_bytes": _objective_bytes(obj)}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def check_cli_outputs(out_dir, rc, virtual_sequence):
    """Problems found in one `exsgd run` output directory; returns
    (problem text or "", steps completed)."""
    if rc != 0:
        return f"exit code {rc}", 0
    names = set(os.listdir(out_dir))
    wanted = {"manifest.json", "aggregate.csv"}
    if virtual_sequence:
        wanted.add("theory_report.json")
    missing = sorted(wanted - names)
    if missing:
        return f"missing {missing}", 0
    trial_files = sorted(n for n in names if n.startswith("trial_") and n.endswith(".jsonl"))
    if not trial_files:
        return "no trial_*.jsonl", 0
    try:
        for name in names:
            with open(os.path.join(out_dir, name)) as fh:
                text = fh.read()
            if name.endswith(".json"):
                _strict_json(text)
            elif name.endswith(".jsonl"):
                for line in text.splitlines():
                    _strict_json(line)
    except ValueError as exc:      # json.JSONDecodeError is a ValueError
        return f"{name}: {exc}", 0
    with open(os.path.join(out_dir, "aggregate.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(trial_files):
        return "aggregate.csv rows do not match trial files", 0
    return "", sum(int(row["steps_done"]) for row in rows)


def run_cli(ex, inputs, round_dir, reference, threads=CLI_THREADS):
    outcome = Outcome()
    for method, path in inputs["config_paths"].items():
        out_dir = os.path.join(round_dir, method)
        _measure_reference(outcome, reference)
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                rc = ex.cli.main(["run", "--config", path, "--out", out_dir,
                                  "--threads", str(threads)])
            problem, steps = check_cli_outputs(out_dir, rc,
                                               method in CLI_VIRTUAL_SEQUENCE)
        except Exception:      # a crash is a failed operation, not a lost run
            problem, steps = traceback.format_exc(limit=3), 0
        outcome.op_seconds.append(time.perf_counter() - start)
        outcome.ops += 1
        outcome.steps += steps
        if problem:
            outcome.failed += 1
            outcome.failures.append(f"{method}: {problem}")
        outcome.out_dirs.append(out_dir)
    _measure_reference(outcome, reference)
    return outcome


def dir_files(out_dirs):
    """{relative path: bytes} of every file the CLI persisted."""
    files = {}
    for out_dir in out_dirs:
        if not os.path.isdir(out_dir):     # the run failed before writing
            continue
        base = os.path.basename(out_dir)
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[f"{base}/{name}"] = fh.read()
    return files


def check_thread_identity(ex, inputs, work_dir, out_dirs):
    """`exsgd run --threads 1` must persist the bytes that --threads 2 did
    (acceptance gate 9's property); returns (passed, one-line report)."""
    t1_dir = os.path.join(work_dir, "threads_1")
    os.makedirs(t1_dir)
    outcome = run_cli(ex, inputs, t1_dir, None, threads=1)
    two, one = dir_files(out_dirs), dir_files(outcome.out_dirs)
    passed = outcome.failed == 0 and one == two
    return passed, (f"thread identity: {len(two)} files at --threads {CLI_THREADS} "
                    f"vs --threads 1: {'byte-identical' if passed else 'DIFFERENT'}")


def cli_digest(outcome):
    h = hashlib.sha256()
    for name, data in sorted(dir_files(outcome.out_dirs).items()):
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class Workload:
    build: object
    run_round: object
    digest: object
    predicted_top_layer: str
    setup_reference: str           # reference kinds (reference.py) that scale
    round_reference: str           # the set-up and the operations
    final_check: object = None     # untimed, after the rounds


WORKLOADS = {
    "theory_gate": Workload(build_theory_gate, run_theory_gate, library_digest,
                            "cluster.draw_batches", "mixed", "mixed"),
    "wide_models": Workload(build_wide_models, run_wide_models, library_digest,
                            "objectives.batch_gradient.step", "arrays", "arrays"),
    "cli_threads": Workload(build_cli_threads, run_cli, cli_digest,
                            "cluster.map_workers", "mixed", "pooled",
                            check_thread_identity),
}
