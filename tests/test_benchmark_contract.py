"""The benchmark's contract with the package.

`benchmark/tracer.py` wraps exsgd functions by patching names in the modules
that call them, among them the `harness.step_*` names that `_step_once`
dispatches through, and `benchmark/workloads.py` reads trial records as
dataclasses.  These tests load both files by path, unchanged, and fail if a
patched name disappears, if a step stops going through those names, or if
the records the workloads digest and check change.
"""

import importlib.util
import math
import pathlib

import numpy as np
import pytest

import exsgd
import exsgd.cli  # noqa: F401  (the tracer patches exsgd.cli)
from exsgd import objectives
from exsgd.cluster import ClusterConfig
from exsgd.harness import RunConfig
from exsgd.objectives import make_logistic, make_quadratic
from exsgd.optimizers import HyperParams, NoiseSpec, PostLocalConfig
from exsgd.theory import METHODS

_BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"
_MODULES = ("cli", "cluster", "harness", "objectives", "optimizers", "theory")


def _load(name):
    """benchmark/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  _BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("method,extrap_b,trials", [
    *(pytest.param(method, b, trials, id=method + tag + suffix)
      for method in METHODS for b, tag in ((None, ""), (2, "-b2"))
      for trials, suffix in ((1, ""), (3, "-3trials")))])
def test_tracer_counts_every_step_and_uninstalls(method, extrap_b, trials):
    # A chunk of 3 trials is one stacked state: still one batch draw, one
    # step call and one step-oracle call per step.
    _, calls = _traced_run(RunConfig(
        objective=make_quadratic(3, 24, generator_seed=2),
        cluster=ClusterConfig(workers_K=2, local_batch_B=4,
                              extrap_batch_b=extrap_b),
        method=method, hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.1),
        post_local=PostLocalConfig(transition_step_t0=2, local_steps_H=2),
        total_steps_T=5, trials=trials))
    assert calls["cluster.draw_batches"] == 5
    assert calls["optimizers.step"] == 5
    assert calls["objectives.batch_gradient.step"] == 5   # one per step, any b


def _aborting_config(trials, **extra):
    """`trials` trials of which some abort, at different steps: sample 5's
    shift overflows every batch that holds it, so the trials that draw it
    abort at that step."""
    shifts = np.ones((32, 2))
    shifts[5] = 1e308
    return RunConfig(
        objective=make_quadratic(2, 32, shifts=shifts, diag=[10.0, 10.0]),
        cluster=ClusterConfig(workers_K=2, local_batch_B=1),
        method="extrap_sgd",
        hyperparams=HyperParams(lr_gamma=0.01, momentum_u=0.5),
        total_steps_T=20, trials=trials, master_seed=3, **extra)


def test_tracer_counts_one_draw_per_step_when_trials_leave_the_chunk():
    # The chunk still draws once per step it runs, including each aborting
    # step.
    result, calls = _traced_run(_aborting_config(6))
    aborts = {tr.steps_done for tr in result.trials if tr.aborted}
    assert len(aborts) >= 2 and len(aborts) < len(result.trials)
    assert calls["cluster.draw_batches"] == 20


def test_tracer_counts_one_metric_call_of_each_kind_per_metric_block():
    # The full-sample metrics run behind the `harness.batch_gradient` and
    # `harness.batch_loss` names the tracer patches, once per block of
    # recorded steps: one stacked call for the block's 3-trial points.
    obj = make_logistic(20, 512, generator_seed=4, l2=1e-3)
    steps, trials = 20, 3
    size = objectives._SIGMA2_BLOCK // (obj.sample_count * obj.dimension * trials)
    blocks = math.ceil(steps / size)
    assert 1 < blocks < steps
    _, calls = _traced_run(RunConfig(
        objective=obj, cluster=ClusterConfig(workers_K=2, local_batch_B=8),
        method="extrap_sgd",
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        total_steps_T=steps, record_every=1, trials=trials))
    assert calls["objectives.batch_gradient.metrics"] == blocks
    assert calls["objectives.batch_loss"] == blocks


# First 16 hex digits of `workloads.library_digest` over the trials of a
# 3-trial run in which two trials abort, then of a finished 3-trial run.
LIBRARY_DIGEST = "3788ee448bb5d889"


def test_workload_readers_see_the_same_records():
    # The workloads digest `dataclasses.asdict` of each record, check
    # `r.train_loss` and read `records[-1].wall_events`.
    workloads = _load("workloads")
    aborting = exsgd.harness.run(_aborting_config(
        3, record_every=3, record_smoothness_every=2)).trials
    assert [tr.aborted for tr in aborting] == [True, True, False]
    finished = exsgd.harness.run(RunConfig(
        objective=make_logistic(5, 64, generator_seed=2, l2=1e-3),
        cluster=ClusterConfig(workers_K=2, local_batch_B=8),
        method="extrap_sgd",
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        total_steps_T=12, record_every=5, record_smoothness_every=5,
        trials=3, master_seed=4)).trials
    for tr in finished:
        assert workloads._check_wide_trial(tr) == ""
        assert tr.records[-1].wall_events["samples_seen"] == 2 * 8 * 12
    digest = workloads.library_digest(
        workloads.Outcome(trials=aborting + finished))
    assert digest[:16] == LIBRARY_DIGEST


def _traced_run(config):
    """`harness.run(config)` under the tracer, and the tracer's call counts;
    fails unless uninstalling restores every name the tracer patched."""
    before = {name: dict(vars(getattr(exsgd, name))) for name in _MODULES}
    tracer = _load("tracer").Tracer(exsgd)
    tracer.install()
    try:
        result = exsgd.harness.run(config)
    finally:
        tracer.uninstall()
    for name, names in before.items():
        after = vars(getattr(exsgd, name))
        assert all(after[attr] is value for attr, value in names.items()), name
    return result, tracer.aggregate()["calls"]
