"""The benchmark tracer's contract with the package.

`benchmark/tracer.py` wraps exsgd functions by patching names in the modules
that call them, among them the `harness.step_*` names that `_step_once`
dispatches through.  These tests load the tracer by path, unchanged, and fail
if a patched name disappears or if a step stops going through those names.
"""

import importlib.util
import pathlib

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


@pytest.mark.parametrize("method", METHODS)
def test_tracer_counts_every_step_and_uninstalls(method):
    before = {name: dict(vars(getattr(exsgd, name))) for name in _MODULES}
    tracer = _load_tracer().Tracer(exsgd)
    tracer.install()
    try:
        exsgd.harness.run(RunConfig(
            objective=make_quadratic(3, 24, generator_seed=2),
            cluster=ClusterConfig(workers_K=2, local_batch_B=4),
            method=method, hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
            noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.1),
            post_local=PostLocalConfig(transition_step_t0=2, local_steps_H=2),
            total_steps_T=5, trials=1))
    finally:
        tracer.uninstall()
    calls = tracer.aggregate()["calls"]
    assert calls["optimizers.step"] == 5
    assert calls["objectives.batch_gradient.step"] >= 5
    for name, names in before.items():
        after = vars(getattr(exsgd, name))
        assert all(after[attr] is value for attr, value in names.items()), name
