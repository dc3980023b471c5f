"""The benchmark tracer's contract with the package.

`benchmark/tracer.py` wraps exsgd functions by patching names in the modules
that call them, among them the `harness.step_*` names that `_step_once`
dispatches through.  These tests load the tracer by path, unchanged, and fail
if a patched name disappears or if a step stops going through those names.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

import exsgd
import exsgd.cli  # noqa: F401  (the tracer patches exsgd.cli)
from exsgd.cluster import ClusterConfig
from exsgd.harness import RunConfig
from exsgd.objectives import make_quadratic
from exsgd.optimizers import HyperParams, NoiseSpec, PostLocalConfig
from exsgd.theory import METHODS

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
_MODULES = ("cli", "cluster", "harness", "objectives", "optimizers", "theory")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", _TRACER)
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


def test_tracer_counts_one_draw_per_step_when_trials_leave_the_chunk():
    # Sample 5's shift overflows every batch that holds it, so the trials
    # that draw it abort at different steps; the chunk still draws once per
    # step it runs, including each aborting step.
    shifts = np.ones((32, 2))
    shifts[5] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        result, calls = _traced_run(RunConfig(
            objective=make_quadratic(2, 32, shifts=shifts, diag=[10.0, 10.0]),
            cluster=ClusterConfig(workers_K=2, local_batch_B=1),
            method="extrap_sgd",
            hyperparams=HyperParams(lr_gamma=0.01, momentum_u=0.5),
            total_steps_T=20, trials=6, master_seed=3))
    aborts = {tr.steps_done for tr in result.trials if tr.aborted}
    assert len(aborts) >= 2 and len(aborts) < len(result.trials)
    assert calls["cluster.draw_batches"] == 20


def _traced_run(config):
    """`harness.run(config)` under the tracer, and the tracer's call counts;
    fails unless uninstalling restores every name the tracer patched."""
    before = {name: dict(vars(getattr(exsgd, name))) for name in _MODULES}
    tracer = _load_tracer().Tracer(exsgd)
    tracer.install()
    try:
        result = exsgd.harness.run(config)
    finally:
        tracer.uninstall()
    for name, names in before.items():
        after = vars(getattr(exsgd, name))
        assert all(after[attr] is value for attr, value in names.items()), name
    return result, tracer.aggregate()["calls"]
