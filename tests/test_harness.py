import dataclasses
import filecmp
import inspect
import json
import math
import os
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_array_equal

from exsgd import cluster, harness, objectives, optimizers, theory
from exsgd.cluster import (EPOCH_PERMUTATION, ClusterConfig, draw_batches,
                           reduce_mean)
from exsgd.harness import (MetricsRecord, RunConfig, _describe,
                           _dump_json, _encode_line,
                           _jsonable, _lr_series, _parameters,
                           _record_line, _replay_constants,
                           _run_trials, _step_once,
                           _trial_results, apply_override, from_doc, run,
                           speedup_study, sweep, trial_seed, write_outputs)
from exsgd.objectives import (MAKERS, ObjectiveSpec, batch_gradient, batch_loss,
                              estimate_constants, initial_point, make_logistic,
                              make_quadratic, make_tiny_mlp)
from exsgd.optimizers import (ANISO_STOCHASTIC, ISO_GAUSSIAN, ISO_UNIFORM,
                              SMOOTHOUT_SHARED, WARMUP_CONSTANT,
                              WARMUP_STEP_DECAY, HyperParams, NoiseSpec,
                              PostLocalConfig, Schedule, init_state, lr_series)
from exsgd.theory import METHOD_TABLE, METHODS, stepsize_cap


def _base_config(**overrides):
    cfg = RunConfig(
        objective=make_quadratic(4, 32, generator_seed=1, shift_spread=1.5,
                                 shift_mean=[2.0, 2.0, 2.0, 2.0],
                                 diag=[0.5, 1.0, 2.0, 4.0]),
        cluster=ClusterConfig(workers_K=2, local_batch_B=4),
        method="sgd",
        hyperparams=HyperParams(lr_gamma=0.1),
        total_steps_T=40,
        trials=2,
        master_seed=7,
    )
    return dataclasses.replace(cfg, **overrides)


def _grad_norm2(obj, x, weight_decay):
    """The reference full-gradient metric: one single-point oracle call."""
    g = batch_gradient(obj, x, range(obj.sample_count)) + weight_decay * x
    return float(g @ g)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_outputs_are_strict_json_at_the_nesterov_cap(tmp_path):
    obj = _base_config().objective
    cap = stepsize_cap("nesterov", estimate_constants(obj, initial_point(obj)),
                       0.5)
    cfg = _base_config(record_virtual_sequence=True, method="nesterov",
                       hyperparams=HyperParams(lr_gamma=cap, momentum_u=0.5))
    write_outputs(run(cfg), tmp_path)
    for name in os.listdir(tmp_path):
        text = (tmp_path / name).read_text()
        if name.endswith(".json"):
            json.loads(text, parse_constant=_reject_constant)
        elif name.endswith(".jsonl"):
            for line in text.splitlines():
                json.loads(line, parse_constant=_reject_constant)
    report = json.loads((tmp_path / "theory_report.json").read_text())
    # gamma at the cap zeroes the bound's denominator: the bound is infinite
    assert report["trials"][0]["rate_bound"]["bound_value"] == "Infinity"


def test_run_is_deterministic():
    a = run(_base_config())
    b = run(_base_config())
    for ta, tb in zip(a.trials, b.trials):
        assert_array_equal(ta.final_x, tb.final_x)
        assert [r.train_loss for r in ta.records] == [r.train_loss for r in tb.records]
    assert a.trial_seeds == b.trial_seeds


def test_trials_use_distinct_stable_seeds():
    res = run(_base_config(trials=3))
    assert len(set(res.trial_seeds)) == 3
    assert res.trial_seeds[0] == trial_seed(7, 0)
    assert not np.array_equal(res.trials[0].final_x, res.trials[1].final_x)


def test_thread_count_does_not_change_results():
    a = run(_base_config(cluster=ClusterConfig(workers_K=4, local_batch_B=4)))
    b = run(_base_config(cluster=ClusterConfig(workers_K=4, local_batch_B=4)),
            threads=4)
    for ta, tb in zip(a.trials, b.trials):
        assert_array_equal(ta.final_x, tb.final_x)


def test_zero_stepsize_freezes_training_loss():
    res = run(_base_config(hyperparams=HyperParams(lr_gamma=0.0), trials=1))
    losses = [r.train_loss for r in res.trials[0].records]
    assert len(set(losses)) == 1


def test_momentum_descends_on_quadratic_every_seed():
    cfg = _base_config(method="nesterov",
                       hyperparams=HyperParams(lr_gamma=0.02, momentum_u=0.5),
                       total_steps_T=50, trials=30)
    res = run(cfg)
    obj = cfg.objective
    f0 = batch_loss(obj, initial_point(obj), range(obj.sample_count))
    for tr in res.trials:
        assert not tr.aborted
        assert tr.records[-1].train_loss < f0


def test_record_every_thins_records():
    res = run(_base_config(record_every=10, trials=1, total_steps_T=35))
    steps = [r.step for r in res.trials[0].records]
    assert steps == [0, 10, 20, 30, 34]      # always includes the last step


def test_schedule_lr_is_recorded():
    sched = Schedule(kind=WARMUP_CONSTANT, base_lr=0.02, scale_factor=3.0,
                     warmup_epochs=2)
    cfg = _base_config(schedule=sched, trials=1, total_steps_T=20)
    res = run(cfg)
    lrs = lr_series(sched, 20, cfg.cluster, cfg.objective)
    for rec in res.trials[0].records:
        assert rec.lr == lrs[rec.step]


@pytest.mark.parametrize("kind,replayed", [("constant", True),
                                            ("warmup_constant", False)])
def test_trial_computes_each_step_lr_once(monkeypatch, kind, replayed):
    # One lr series per config, validated once, serves every trial; the
    # replay's constant-stepsize check reads it too.
    steps, validations = [], []
    lr, validate = optimizers._lr, Schedule.validate

    def counted_lr(sched, t, *args):
        steps.append(t)
        return lr(sched, t, *args)

    def counted_validate(self):
        validations.append(self.kind)
        return validate(self)

    monkeypatch.setattr(optimizers, "_lr", counted_lr)
    monkeypatch.setattr(Schedule, "validate", counted_validate)
    sched = Schedule(kind=kind, base_lr=0.05, scale_factor=2.0, warmup_epochs=1)
    for trials in (1, 3):
        steps.clear()
        validations.clear()
        cfg = _base_config(method="extrap_sgd", schedule=sched, trials=trials,
                           total_steps_T=12, record_virtual_sequence=True)
        result = run(cfg)
        assert steps == list(range(12))
        # RunConfig.validate checks the schedule, and the lr series once more.
        assert validations == [kind, kind]
        assert [(tr.virtual_sequence is not None) for tr in result.trials] == \
            [replayed] * trials


def test_a_scheduled_run_evaluates_no_replay_it_skips(monkeypatch):
    # The replay assumes one stepsize, so a scheduled run asking for it
    # evaluates the full-gradient norm at its two recorded steps only, one
    # step to a metric block.
    monkeypatch.setattr(objectives, "_SIGMA2_BLOCK", 1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return batch_gradient(*args, **kwargs)

    monkeypatch.setattr(harness, "batch_gradient", counted)
    sched = Schedule(kind=WARMUP_CONSTANT, base_lr=0.05, scale_factor=2.0,
                     warmup_epochs=1)
    steps = 12
    cfg = _base_config(method="extrap_sgd", schedule=sched, trials=1,
                       total_steps_T=steps, record_every=steps,
                       record_virtual_sequence=True)
    trial, = run(cfg).trials
    assert len(calls) == 2
    assert trial.virtual_sequence is None and trial.grad_norm2_series is None
    assert [r.step for r in trial.records] == [0, steps - 1]


def test_a_constant_schedule_replays_the_rate_its_steps_apply():
    # A constant schedule whose rate is not hyperparams.lr_gamma steps as an
    # unscheduled run at its rate does, so it replays as that run does: the
    # replay, gamma_hat = gamma / K and the rate bound read the applied rate.
    cfg = _base_config(
        objective=make_quadratic(3, 24, generator_seed=2, diag=[0.5, 1.0, 2.0]),
        method="nesterov", trials=1, total_steps_T=20,
        record_virtual_sequence=True,
        hyperparams=HyperParams(lr_gamma=0.1, momentum_u=0.5))
    scheduled, = run(dataclasses.replace(
        cfg, schedule=Schedule(kind="constant", base_lr=0.05))).trials
    plain, = run(dataclasses.replace(
        cfg, hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5))).trials
    assert scheduled.virtual_sequence is not None
    assert scheduled.rate_report is not None and not scheduled.rate_error
    _assert_same_trial(scheduled, plain)
    assert repr(scheduled.virtual_sequence) == repr(plain.virtual_sequence)
    for name in ("x", "v", "x_bar_half", "g_bar_half", "xi_bar", "y_bar"):
        assert (getattr(scheduled.virtual_sequence, name).tobytes()
                == getattr(plain.virtual_sequence, name).tobytes())


def test_recorded_smoothness_is_that_of_the_minimized_objective():
    # f_i = (x - a_i)^2 / 2 with weight decay 1 minimizes a curvature-2
    # objective, and every probe along the step must read 2.
    cfg = _base_config(
        objective=make_quadratic(1, 16, generator_seed=4, diag=[1.0]),
        hyperparams=HyperParams(lr_gamma=0.1, weight_decay=1.0),
        trials=2, total_steps_T=12, record_smoothness_every=1)
    for trial in run(cfg).trials:
        assert len(trial.records) == 12
        for record in trial.records:
            assert abs(record.smoothness_L - 2.0) <= 1e-12


def test_abort_is_reported_not_raised(tmp_path):
    cfg = _base_config(
        objective=make_quadratic(2, 8, diag=[1e4, 1e4], shift_spread=1.0),
        hyperparams=HyperParams(lr_gamma=1.0), total_steps_T=300, trials=1)
    res = run(cfg)
    tr = res.trials[0]
    assert tr.aborted and tr.steps_done < 300
    assert "step" in tr.abort_detail
    write_outputs(res, tmp_path)
    lines = (tmp_path / "trial_0.jsonl").read_text().splitlines()
    assert "abort" in json.loads(lines[-1])
    agg = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert agg[1 + tr.trial].endswith(",1")


def test_virtual_sequence_attachment():
    # gamma below the extrap validity cap (1-u)^2/(L(1+3u+u^3)) ~ 0.013
    cfg = _base_config(method="extrap_sgd",
                       hyperparams=HyperParams(lr_gamma=0.01, momentum_u=0.6),
                       record_virtual_sequence=True, trials=1, total_steps_T=60)
    res = run(cfg)
    tr = res.trials[0]
    assert tr.virtual_sequence is not None
    assert tr.virtual_sequence.g_bar_half.shape == (60, 4)
    assert tr.virtual_sequence.x_bar_half.shape == (61, 4)
    assert tr.descent_residuals.max() < 1e-12
    assert tr.proximity["momentum_energy"]["holds"] is True
    assert tr.rate_report is not None
    assert tr.rate_report.holds in (True, False)


def test_rate_cap_violation_is_reported_as_error_string():
    # gamma above 1/L: the run still executes, the report records the reason
    cfg = _base_config(hyperparams=HyperParams(lr_gamma=0.9),
                       record_virtual_sequence=True, trials=1, total_steps_T=20)
    res = run(cfg)
    tr = res.trials[0]
    assert tr.rate_report is None
    assert "cap" in tr.rate_error


def test_smoothness_recording_cadence():
    cfg = _base_config(trials=1, total_steps_T=16, record_smoothness_every=5)
    res = run(cfg)
    by_step = {r.step: r.smoothness_L for r in res.trials[0].records}
    assert all(not math.isnan(by_step[s]) for s in (0, 5, 10, 15))
    assert math.isnan(by_step[3])
    top = max(v for v in by_step.values() if not math.isnan(v))
    assert top <= 4.0 * (1 + 1e-9)          # bounded by the largest eigenvalue


def test_write_outputs_files_and_format(tmp_path):
    cfg = _base_config(record_virtual_sequence=True, method="nesterov",
                       hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5))
    res = run(cfg)
    write_outputs(res, tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert names == ["aggregate.csv", "manifest.json", "theory_report.json",
                     "trial_0.jsonl", "trial_1.jsonl"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["trial_seeds"] == res.trial_seeds
    assert manifest["config"]["hyperparams"]["momentum_u"] == 0.5
    for line in (tmp_path / "trial_0.jsonl").read_text().splitlines():
        rec = json.loads(line)
        assert list(rec) == sorted(rec)
    report = json.loads((tmp_path / "theory_report.json").read_text())
    assert report["rate_bound_hold_fraction"] >= 0.0
    assert len(report["trials"]) == 2


def test_outputs_are_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_outputs(run(_base_config()), d1)
    write_outputs(run(_base_config()), d2)
    for name in os.listdir(d1):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


def test_outputs_over_an_earlier_run_match_a_fresh_directory(tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    write_outputs(run(_base_config(
        trials=4, record_virtual_sequence=True, method="nesterov",
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5))), reused)
    assert {"trial_3.jsonl", "theory_report.json"} <= set(os.listdir(reused))
    (reused / "notes.txt").write_text("not a run output")
    second = run(_base_config(trials=2))
    write_outputs(second, reused)
    write_outputs(second, fresh)
    names = sorted(os.listdir(fresh))
    assert sorted(os.listdir(reused)) == sorted(names + ["notes.txt"])
    for name in names:
        assert filecmp.cmp(reused / name, fresh / name, shallow=False), name


def test_noise_method_runs_and_persists(tmp_path):
    cfg = _base_config(
        method="extrap_noise",
        hyperparams=HyperParams(lr_gamma=0.05, inner_lr_gamma_hat=0.01,
                                momentum_u=0.5),
        noise=NoiseSpec(kind=SMOOTHOUT_SHARED, raw_scale=0.1),
        record_virtual_sequence=True, trials=1, total_steps_T=30)
    res = run(cfg)
    tr = res.trials[0]
    assert tr.descent_residuals.max() < 1e-12
    write_outputs(res, tmp_path)
    assert (tmp_path / "theory_report.json").exists()


def test_post_local_dispersion_visible_in_records():
    cfg = _base_config(
        method="post_local",
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        post_local=PostLocalConfig(transition_step_t0=5, local_steps_H=4),
        cluster=ClusterConfig(workers_K=4, local_batch_B=4),
        trials=1, total_steps_T=20)
    res = run(cfg)
    disp = {r.step: r.worker_dispersion for r in res.trials[0].records}
    assert any(v > 0 for v in disp.values())
    assert all(disp[s] == 0.0 for s in range(6))


def test_config_validation_rejects_incomplete_setups():
    with pytest.raises(ValueError):
        _base_config(method="extrap_noise").validate()   # no noise spec
    with pytest.raises(ValueError):
        _base_config(method="post_local").validate()     # no phase config
    with pytest.raises(ValueError):
        _base_config(method="sgdd").validate()
    with pytest.raises(ValueError):
        _base_config(total_steps_T=0).validate()
    with pytest.raises(ValueError):
        RunConfig().validate()                           # objective required


@pytest.mark.parametrize("field,value,message", [
    ("record_every", 0, "record_every must be >= 1"),
    ("record_smoothness_every", -1, "record_smoothness_every must be >= 0"),
    ("trials", 0, "trials must be >= 1"),
])
def test_run_config_refuses_a_count_below_its_bound(field, value, message):
    with pytest.raises(ValueError) as err:
        _base_config(**{field: value}).validate()
    assert str(err.value) == message


def test_cluster_master_seed_is_rejected():
    # Each trial draws its batches from its own seed, so a cluster seed has
    # no effect on a run.
    cfg = _base_config(cluster=ClusterConfig(workers_K=2, local_batch_B=4,
                                             master_seed=3))
    with pytest.raises(ValueError, match="^cluster.master_seed must be 0"):
        cfg.validate()


@pytest.mark.parametrize("method", ["nesterov", "extrap_sgd"])
def test_replay_records_the_gradient_lars_applied(method):
    # The descent identity holds for the gradient the update applied, which
    # with LARS on is the rescaled one.
    cfg = _base_config(
        objective=make_tiny_mlp((3, 4, 2), 64, generator_seed=3), method=method,
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.9, lars_trust=0.02),
        total_steps_T=30, trials=1, record_virtual_sequence=True)
    tr = run(cfg).trials[0]
    assert float(tr.descent_residuals.max()) <= 1e-8


def _config_classes(cls):
    """`cls` and every config dataclass reachable from its fields."""
    found = [cls]
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            found += _config_classes(f.type)
    return found


@pytest.mark.parametrize("factory", [*_config_classes(RunConfig),
                                     *MAKERS.values()],
                         ids=lambda factory: factory.__name__)
def test_every_config_field_has_an_annotation_the_builder_handles(factory):
    # One builder reads every config document: a field or maker argument
    # whose annotation it does not handle would slip past its checks.
    for name, param in inspect.signature(factory).parameters.items():
        typ = param.annotation
        assert typ is not param.empty, name
        if not dataclasses.is_dataclass(typ):
            assert _describe(typ), name


def test_apply_override_nested_paths():
    cfg = _base_config()
    out = apply_override(cfg, "hyperparams.lr_gamma", 0.25)
    assert out.hyperparams.lr_gamma == 0.25
    assert cfg.hyperparams.lr_gamma == 0.1               # original untouched
    out = apply_override(cfg, "cluster.workers_K", 8)
    assert out.cluster.workers_K == 8
    with pytest.raises(ValueError):
        apply_override(cfg, "hyperparams.bogus", 1)
    with pytest.raises(ValueError):
        apply_override(cfg, "nothing.here", 1)


def test_sweep_single_point_matches_plain_run():
    cfg = _base_config(trials=2)
    table = sweep(cfg, {"hyperparams.lr_gamma": [0.1]})
    res = run(cfg)
    finals = [tr.records[-1].train_loss for tr in res.trials]
    assert table["rows"][0]["final_loss_mean"] == pytest.approx(
        float(np.mean(finals)), rel=1e-15)
    assert table["boundary_optimum"] is False            # single-value axis


def test_sweep_flags_boundary_optimum():
    cfg = _base_config(trials=1, total_steps_T=25)
    table = sweep(cfg, {"hyperparams.lr_gamma": [0.02, 0.05, 0.1]})
    assert table["best"]["hyperparams.lr_gamma"] == 0.1  # monotone here
    assert table["boundary_optimum"] is True
    assert len(table["rows"]) == 3


def test_speedup_study_reports_steps_to_epsilon():
    obj = make_quadratic(3, 256, generator_seed=2, shift_spread=3.0)
    base = RunConfig(objective=obj, cluster=ClusterConfig(workers_K=1, local_batch_B=2),
                     method="sgd", hyperparams=HyperParams(lr_gamma=0.1),
                     total_steps_T=10, trials=5, master_seed=11)
    out = speedup_study(base, [(1, 2), (1, 4)], epsilon=1.0)
    assert out["epsilon"] == 1.0 and out["critical_kb"] > 0
    r1, r2 = out["rows"]
    assert r1["kb"] == 2 and r2["kb"] == 4
    for row in (r1, r2):
        assert row["censored"] == 0
        assert row["mean_steps"] >= 1
    # doubling the aggregate batch must not slow convergence down
    assert r2["mean_steps"] <= r1["mean_steps"]


def test_speedup_study_rejects_unsupported_methods():
    with pytest.raises(ValueError):
        speedup_study(_base_config(method="adam"), [(1, 4)], epsilon=0.5)


# (method, replayed against a rate bound, speedup_study supported, section
# the method needs): what each method's METHOD_TABLE entry must produce.
_METHOD_BEHAVIOUR = [
    ("sgd", True, True, None),
    ("nesterov", True, True, None),
    ("extrap_sgd", True, True, None),
    ("extrap_noise", True, False, "noise"),
    ("adam", False, False, None),
    ("extrap_adam", False, False, None),
    ("post_local", False, False, "post_local"),
]


@pytest.mark.parametrize("name,replayed,speedup,needs", _METHOD_BEHAVIOUR)
def test_method_table_drives_replay_speedup_and_validation(name, replayed,
                                                           speedup, needs):
    assert sorted(METHODS) == sorted(row[0] for row in _METHOD_BEHAVIOUR)
    method = METHOD_TABLE[name]
    assert (method.bounded, method.needs) == (replayed, needs)
    cfg = _base_config(
        method=name, trials=1, total_steps_T=20, record_virtual_sequence=True,
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.1),
        post_local=PostLocalConfig(transition_step_t0=5, local_steps_H=2))
    tr = run(cfg).trials[0]
    assert (tr.virtual_sequence is not None) == replayed
    assert (tr.rate_report is not None or tr.rate_error != "") == replayed
    if speedup:
        table = speedup_study(cfg, [(1, 4)], epsilon=10.0)
        assert table["rows"][0]["kb"] == 4
    else:
        with pytest.raises(ValueError, match="speedup_study"):
            speedup_study(cfg, [(1, 4)], epsilon=10.0)
    for section in ("noise", "post_local"):
        without = dataclasses.replace(cfg, **{section: None})
        if section == needs:
            with pytest.raises(ValueError, match=section):
                without.validate()
        else:
            without.validate()


@given(method=st.sampled_from([name for name in METHODS
                               if METHOD_TABLE[name].bounded]),
       workers=st.integers(1, 4), batch=st.integers(1, 6),
       steps=st.integers(1, 12), u=st.sampled_from([0.0, 0.5]))
@settings(max_examples=25, deadline=None)
def test_virtual_sequence_rows_are_the_stacked_step_values(method, workers,
                                                           batch, steps, u):
    cfg = _base_config(
        method=method, trials=1, total_steps_T=steps,
        record_virtual_sequence=True,
        cluster=ClusterConfig(workers_K=workers, local_batch_B=batch),
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=u),
        noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.1))
    tr = run(cfg).trials[0]
    # Reference: the same trial stepped by hand, its per-step values stacked.
    obj, hp = cfg.objective, cfg.hyperparams
    cl = dataclasses.replace(cfg.cluster, master_seed=tr.seed)
    state = init_state(initial_point(obj)[None], workers)
    xs, vs, halves, gbars, xibars, gn2s = [state.x[0]], [state.v[0]], [], [], [], []
    for t in range(steps):
        _step_once(cfg, state, obj, cl, draw_batches(cl, obj, t), hp, [tr.seed])
        info = state.last_info
        half_bar = reduce_mean(info["halves"][0])
        xs.append(state.x[0])
        vs.append(state.v[0])
        halves.append(half_bar)
        gbars.append(info["g_bar"][0])
        xibars.append(np.zeros(obj.dimension) if info["z"] is None
                      else reduce_mean(info["z"][0]))
        gn2s.append(_grad_norm2(obj, half_bar, hp.weight_decay))
    seq = tr.virtual_sequence
    assert_array_equal(seq.x, np.stack(xs))
    assert_array_equal(seq.v, np.stack(vs))
    assert_array_equal(seq.x_bar_half[:-1], np.stack(halves))
    assert_array_equal(seq.g_bar_half, np.stack(gbars))
    assert_array_equal(seq.xi_bar[:-1], np.stack(xibars))
    assert_array_equal(tr.grad_norm2_series, np.asarray(gn2s))
    # Row T reduces the points and directions of step T, taken by hand.
    _step_once(cfg, state, obj, cl, draw_batches(cl, obj, steps), hp, [tr.seed])
    info = state.last_info
    assert_array_equal(seq.x_bar_half[-1], reduce_mean(info["halves"][0]))
    assert_array_equal(seq.xi_bar[-1], np.zeros(obj.dimension)
                       if info["z"] is None else reduce_mean(info["z"][0]))


@pytest.mark.parametrize("method", ["sgd", "nesterov", "extrap_sgd",
                                    "extrap_noise"])
def test_terminal_direction_is_the_next_steps_direction(method):
    # The replay's terminal row T holds the mean direction that step T would
    # use, decided by the method's METHOD_TABLE direction; step T taken by
    # hand decides it through the method's own step function.
    steps, workers = 6, 3
    cfg = _base_config(
        method=method, trials=1, total_steps_T=steps,
        record_virtual_sequence=True,
        cluster=ClusterConfig(workers_K=workers, local_batch_B=4),
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.1))
    tr = run(cfg).trials[0]
    obj, hp = cfg.objective, cfg.hyperparams
    if not METHOD_TABLE[method].momentum:
        hp = dataclasses.replace(hp, momentum_u=0.0)
    cl = dataclasses.replace(cfg.cluster, master_seed=tr.seed)
    state = init_state(initial_point(obj)[None], workers)
    for t in range(steps + 1):
        _step_once(cfg, state, obj, cl, draw_batches(cl, obj, t), hp, [tr.seed])
    xi_bar = tr.virtual_sequence.xi_bar[steps]
    z = state.last_info["z"]
    assert_array_equal(xi_bar, np.zeros_like(xi_bar) if z is None
                       else reduce_mean(z[0]))
    assert np.any(xi_bar != 0.0) == (METHOD_TABLE[method].direction is not None)


def test_rate_bound_uses_the_constants_of_the_decayed_objective():
    # Weight decay lambda minimizes f + (lambda/2)||x||^2: L grows by lambda.
    obj = make_quadratic(3, 24, generator_seed=2, diag=[1.0, 2.0, 4.0],
                         shift_mean=[1.0, 1.0, 1.0])
    reports = {}
    for decay in (0.0, 3.0):
        cfg = _base_config(
            objective=obj, method="nesterov", trials=1, total_steps_T=30,
            record_virtual_sequence=True,
            hyperparams=HyperParams(lr_gamma=0.02, momentum_u=0.5,
                                    weight_decay=decay))
        reports[decay] = run(cfg).trials[0].rate_report
    plain, decayed = (reports[d].constants_used for d in (0.0, 3.0))
    assert (plain["L"], decayed["L"]) == (4.0, 7.0)
    assert decayed["sigma2"] == plain["sigma2"]
    assert decayed["r0"] == plain["r0"]          # x0 = 0 on a quadratic
    assert reports[3.0].bound_value != reports[0.0].bound_value


def test_decayed_r0_grows_by_half_lambda_x0_norm2():
    obj = make_tiny_mlp((2, 3, 1), 16, generator_seed=4)
    x0 = initial_point(obj)
    plain = estimate_constants(obj, x0)
    decayed = estimate_constants(obj, x0, weight_decay=0.5)
    assert decayed.r0 == plain.r0 + 0.25 * float(x0 @ x0) > plain.r0
    assert decayed.lipschitz_L == plain.lipschitz_L + 0.5
    assert decayed.variance_sigma2 == plain.variance_sigma2


def test_speedup_study_tunes_with_the_decayed_constants():
    cfg = _base_config(method="sgd", trials=1)
    decayed = dataclasses.replace(
        cfg, hyperparams=HyperParams(lr_gamma=0.1, weight_decay=2.0))
    plain_row, = speedup_study(cfg, [(1, 4)], epsilon=10.0)["rows"]
    decayed_row, = speedup_study(decayed, [(1, 4)], epsilon=10.0)["rows"]
    assert decayed_row["gamma"] < plain_row["gamma"]


def test_sweep_checks_every_point_before_running_any():
    cfg = _base_config(trials=1)
    with pytest.raises(ValueError, match="lr_gamma"):
        sweep(cfg, {"hyperparams.lr_gamma": [0.05, -0.05]})
    with pytest.raises(ValueError, match="trials must be int"):
        sweep(cfg, {"trials": ["abc"]})
    with pytest.raises(ValueError, match="^empty sweep grid$"):
        sweep(cfg, {})


def test_extrap_noise_without_noise_is_rejected_before_any_point_runs():
    cfg = _base_config(method="extrap_noise", trials=1,
                       noise=NoiseSpec(kind=ISO_GAUSSIAN, raw_scale=0.1))
    cfg.validate()
    with pytest.raises(ValueError, match="noise kind") as err:
        dataclasses.replace(cfg, noise=NoiseSpec(kind="none")).validate()
    assert len(str(err.value).splitlines()) == 1
    with mock.patch.object(harness, "_run_trials") as runs:
        with pytest.raises(ValueError, match="noise kind"):
            sweep(cfg, {"noise.kind": [ISO_GAUSSIAN, "none"]})
    runs.assert_not_called()


@pytest.mark.parametrize("grid,match", [
    ({"master_seed": [1, -1]}, "^sweep point .*: master_seed must be >= 0$"),
])
def test_seed_overrides_that_cannot_run_are_rejected_before_any_point_runs(
        grid, match):
    # A negative master_seed cannot seed a trial.
    with mock.patch.object(harness, "_run_trials") as runs:
        with pytest.raises(ValueError, match=match) as err:
            sweep(_base_config(trials=1), grid)
    runs.assert_not_called()
    assert len(str(err.value).splitlines()) == 1


def test_whole_objective_override_regenerates_the_data():
    cfg = _base_config()
    doc = {"maker": "quadratic", "dimension": 4, "sample_count": 32,
           "generator_seed": 5, "shift_spread": 1.5}
    out = apply_override(cfg, "objective", doc)
    want = make_quadratic(4, 32, generator_seed=5, shift_spread=1.5)
    assert out.objective.generator_seed == 5
    assert_array_equal(out.objective.quad_shifts, want.quad_shifts)
    seed_one = make_quadratic(4, 32, generator_seed=1, shift_spread=1.5)
    assert not np.array_equal(out.objective.quad_shifts, seed_one.quad_shifts)
    assert_array_equal(initial_point(out.objective), initial_point(want))


def test_generator_seed_sweep_regenerates_each_points_data():
    # Each point calls the maker again with its seed, so it runs what a config
    # whose maker call holds that seed runs.
    cfg = _base_config(trials=1)
    table = sweep(cfg, {"objective.generator_seed": [1, 5]})
    call = {k: v for k, v in cfg.objective.maker_call.items() if k != "maker"}
    for row, seed in zip(table["rows"], (1, 5)):
        obj = make_quadratic(**dict(call, generator_seed=seed))
        tr, = run(dataclasses.replace(cfg, objective=obj)).trials
        assert row["final_loss_mean"] == tr.records[-1].train_loss
    assert table["rows"][0]["final_loss_mean"] != table["rows"][1]["final_loss_mean"]


def test_field_path_drops_the_maker_call_and_later_paths_reach_fields():
    cfg = _base_config()
    out = apply_override(cfg, "objective.quad_diag", [1.0, 1.0, 2.0, 2.0])
    assert out.objective.maker_call is None
    assert_array_equal(out.objective.quad_shifts, cfg.objective.quad_shifts)
    out = apply_override(out, "objective.sample_count", 16)
    assert out.objective.sample_count == 16
    with pytest.raises(ValueError, match="quad_shifts has shape"):
        out.validate()
    with pytest.raises(ValueError, match="unknown config field 'objective.maker'"):
        apply_override(cfg, "objective.maker", "logistic")


def test_path_into_an_unset_section_builds_it_as_a_config_file_does():
    cfg = _base_config()
    out = apply_override(cfg, "schedule.kind", WARMUP_CONSTANT)
    assert out.schedule == Schedule(kind=WARMUP_CONSTANT)
    assert cfg.schedule is None                          # original untouched
    assert (apply_override(cfg, "noise.raw_scale", 0.5).noise
            == from_doc(RunConfig, {"noise": {"raw_scale": 0.5}}).noise)
    with pytest.raises(ValueError, match="unknown noise fields: .'bogus'"):
        apply_override(cfg, "noise.bogus", 1)


def test_config_errors_read_the_same_from_a_cached_signature():
    # Each call reads every signature it needs through `_parameters`: the
    # first after a cache clear computes it, the second reads it back.
    cfg = _base_config()
    cases = [
        lambda: from_doc(RunConfig, {"trials": 2, "bogus": 1}),
        lambda: from_doc(RunConfig, {"noise": {"kind": "none", "scale": 1}}),
        lambda: from_doc(ObjectiveSpec, {"maker": "quadratic", "dimension": 3},
                         "objective"),
        lambda: from_doc(RunConfig, {"hyperparams": {"lr_gamma": "fast"}}),
        lambda: apply_override(cfg, "hyperparams.bogus", 1),
        lambda: apply_override(cfg, "objective.maker", "logistic"),
        lambda: apply_override(cfg, "objective.dimension", 2.5),
        lambda: apply_override(cfg, "noise.bogus", 1),
    ]
    for case in cases:
        messages = []
        _parameters.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                case()
            messages.append(str(err.value))
        assert messages[0] == messages[1] and len(messages[0].splitlines()) == 1
    assert _parameters.cache_info().hits > 0


@st.composite
def _maker_calls(draw):
    """(maker, keyword arguments) of a small maker call; each explicit array
    argument is a list or an array."""
    seed = draw(st.integers(0, 2**32))
    n = draw(st.integers(1, 6))
    as_given = draw(st.sampled_from([np.ndarray.tolist, np.array]))

    def values(shape, elements=st.floats(-4, 4)):
        return as_given(draw(hnp.arrays(np.float64, shape, elements=elements)))

    kind = draw(st.sampled_from(sorted(MAKERS)))
    if kind == "tiny_mlp":
        return make_tiny_mlp, dict(
            widths=draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)),
            sample_count=n, generator_seed=seed)
    d = draw(st.integers(1, 4))
    kwargs = dict(dimension=d, sample_count=n, generator_seed=seed)
    explicit = draw(st.booleans())
    if kind == "logistic":
        if explicit:
            kwargs.update(features=values((n, d)),
                          labels=values((n,), st.sampled_from([-1.0, 1.0])))
        return make_logistic, dict(kwargs, l2=draw(st.sampled_from([0.0, 1e-3, 1])))
    shape = draw(st.sampled_from(["identity", "diag", "matrix"]))
    if shape == "diag":
        kwargs["diag"] = values((d,), st.floats(0, 4))
    elif shape == "matrix":
        root = draw(hnp.arrays(np.int64, (d, d), elements=st.integers(-2, 2)))
        kwargs["matrix"] = as_given(root @ root.T)
    if explicit:
        kwargs["shifts"] = values((n, d))
    return make_quadratic, kwargs


def _assert_same_objective(got, want):
    for f in dataclasses.fields(ObjectiveSpec):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b, f.name


def _manifest(result, out_dir):
    write_outputs(result, out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        return fh.read()


@given(call=_maker_calls())
@settings(max_examples=40, deadline=None)
def test_manifest_objective_is_the_maker_call(call):
    maker, kwargs = call
    obj = maker(**kwargs)
    cfg = RunConfig(objective=obj, total_steps_T=2,
                    cluster=ClusterConfig(workers_K=1, local_batch_B=1),
                    hyperparams=HyperParams(lr_gamma=0.01))
    result = run(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _manifest(result, os.path.join(tmp, "made"))
        doc = json.loads(manifest)["config"]["objective"]
        assert set(doc) == {"maker", *inspect.signature(maker).parameters}
        assert doc["maker"] == obj.kind
        rebuilt = from_doc(ObjectiveSpec, doc)
        _assert_same_objective(rebuilt, obj)
        # The rebuilt call records the same text: an int matrix is float64.
        assert (json.dumps(_jsonable(rebuilt), sort_keys=True)
                == json.dumps(doc, sort_keys=True))

        # An altered objective has no call to record: it is written field by
        # field, and its manifest's config replays every file.
        altered = dataclasses.replace(cfg, objective=dataclasses.replace(obj))
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        doc = json.loads(_manifest(run(altered), first))["config"]
        assert "maker" not in doc["objective"]
        _manifest(run(from_doc(RunConfig, doc)), second)
        for name in os.listdir(first):
            assert filecmp.cmp(os.path.join(first, name),
                               os.path.join(second, name), shallow=False), name

        for value in kwargs.values():
            if isinstance(value, list):
                value.append(value[-1])
            elif isinstance(value, np.ndarray):
                value += 1
        assert _manifest(result, os.path.join(tmp, "mutated")) == manifest


# Values for a maker argument; a drawn value may not fit the other arguments
# (a dimension against an explicit diag, say), which both builds must refuse.
_ARGUMENT_VALUES = {
    "dimension": st.integers(1, 4), "sample_count": st.integers(1, 6),
    "generator_seed": st.integers(0, 2**32),
    "widths": st.lists(st.integers(1, 3), min_size=2, max_size=4),
    "diag": st.lists(st.floats(0, 4), min_size=1, max_size=4),
    "shift_mean": st.lists(st.floats(-4, 4), min_size=1, max_size=4),
    "l2": st.sampled_from([0.0, 1e-3, 1]),
    **dict.fromkeys(["shift_spread", "feature_scale", "input_scale",
                     "target_noise", "f_star"], st.floats(0, 4)),
}


@given(call=_maker_calls(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_maker_argument_path_remakes_the_objective(call, data):
    maker, kwargs = call
    cfg = RunConfig(objective=maker(**kwargs), total_steps_T=2,
                    cluster=ClusterConfig(workers_K=1, local_batch_B=1),
                    hyperparams=HyperParams(lr_gamma=0.01))
    key = data.draw(st.sampled_from(sorted(
        set(inspect.signature(maker).parameters) & set(_ARGUMENT_VALUES))))
    value = data.draw(_ARGUMENT_VALUES[key])
    edited = {**cfg.objective.maker_call, key: value}
    try:
        want = from_doc(ObjectiveSpec, edited, "objective")
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            apply_override(cfg, f"objective.{key}", value).validate()
        assert str(err.value) == str(exc)
        return
    got = apply_override(cfg, f"objective.{key}", value).validate()
    _assert_same_objective(got.objective, want)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        doc = json.loads(_manifest(run(got), first))["config"]
        assert doc["objective"] == json.loads(json.dumps(_jsonable(want.maker_call)))
        assert set(doc["objective"]) == set(edited)
        _manifest(run(from_doc(RunConfig, doc)), second)
        for name in os.listdir(first):
            assert filecmp.cmp(os.path.join(first, name),
                               os.path.join(second, name), shallow=False), name


def test_sweep_runs_each_points_own_trials():
    cfg = _base_config(trials=1)
    table = sweep(cfg, {"trials": [3]})
    finals = [tr.records[-1].train_loss
              for tr in run(dataclasses.replace(cfg, trials=3)).trials]
    assert table["rows"][0]["final_loss_mean"] == float(np.mean(finals))
    assert table["rows"][0]["final_loss_std"] == float(np.std(finals)) > 0


@dataclasses.dataclass
class _Pair:
    left: object
    right: object


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan])
_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.uint8, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
_LEAVES = (st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
           | st.sampled_from(["", "\"", "\\", "\n\t\x00\x7f", "é€😀"])
           | _ARRAYS | st.builds(np.float64, _FLOATS)
           | st.builds(np.int32, st.integers(-2**31, 2**31 - 1)))
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)
                   | st.builds(_Pair, inner, inner)),
    max_leaves=16)


@given(value=_JSON_VALUES)
@example(value=np.array([1.5, math.nan, math.inf, -math.inf, -0.0]))
@example(value={"rows": np.array([[1.0, 2.0], [math.nan, 3.0]]),
                "empty": np.zeros((2, 0)), "scalar": np.float64(math.inf)})
@settings(max_examples=200, deadline=None)
def test_dump_json_writes_strict_json_of_the_jsonable_form(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "value.json")
        _dump_json(value, path)
        with open(path) as fh:
            text = fh.read()
    assert text.endswith("\n")
    assert json.loads(text, parse_constant=_reject_constant) == _jsonable(value)


@pytest.mark.parametrize("value", [np.bool_(True), {"a": [object()]},
                                   np.zeros(2, dtype=complex), {1: 1, "a": 2}])
def test_dump_json_refuses_what_json_cannot_hold_and_writes_nothing(value,
                                                                    tmp_path):
    # A writer streaming into the file would leave "head" there.
    path = tmp_path / "value.json"
    with pytest.raises(TypeError):
        _dump_json({"head": list(range(10_000)), "tail": value}, path)
    assert not path.exists()


def test_dump_json_makes_its_directory_only_for_a_payload_it_can_write(
        tmp_path):
    missing = tmp_path / "a" / "b"
    with pytest.raises(TypeError):
        _dump_json({"x": np.bool_(True)}, missing / "value.json")
    assert not (tmp_path / "a").exists()
    _dump_json({"x": 1}, missing / "value.json")
    assert (missing / "value.json").read_text() == '{\n "x": 1\n}\n'


_EDGE = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
_WRITER_FLOATS = st.floats() | _EDGE | st.builds(np.float64, st.floats() | _EDGE)
_RECORDS = st.builds(
    MetricsRecord, step=st.integers(0, 99), lr=_WRITER_FLOATS,
    train_loss=_WRITER_FLOATS, grad_norm2=_WRITER_FLOATS,
    smoothness_L=_WRITER_FLOATS, worker_dispersion=_WRITER_FLOATS,
    wall_events=st.dictionaries(st.text(max_size=3), st.integers(0, 99),
                                max_size=3))
def test_jsonable_maps_each_kind_to_its_json_form():
    obj = make_logistic(2, 3, generator_seed=1, l2=0.5)
    got = _jsonable({
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "f64": np.float64(0.5), "f32": np.float32(0.25), "i64": np.int64(-3),
        "array": np.array([[1.5, math.nan], [math.inf, -0.0]]),
        "tuple": (np.int32(1), np.float64(-math.inf)),
        "pair": _Pair(np.uint8(7), [math.nan]), "objective": obj})
    assert got == {
        "nan": None, "inf": "Infinity", "-inf": "-Infinity",
        "f64": 0.5, "f32": 0.25, "i64": -3,
        "array": [[1.5, None], ["Infinity", -0.0]],
        "tuple": [1, "-Infinity"],
        "pair": {"left": 7, "right": [None]},
        "objective": {"maker": "logistic", "dimension": 2, "sample_count": 3,
                      "generator_seed": 1, "l2": 0.5, "features": None,
                      "labels": None, "feature_scale": 1.0}}
    assert [type(got[k]) for k in ("f64", "f32", "i64")] == [float, float, int]
    assert type(got["pair"]["left"]) is int
    assert math.copysign(1.0, got["array"][1][1]) == -1.0


# The events `_run_trials` records, the keys of the record line's own format.
_RUN_EVENTS = st.fixed_dictionaries({
    key: st.integers(0, 2**70) | _WRITER_FLOATS | st.booleans()
    for key in ("reductions", "worker_batches", "samples_seen")})


@given(record=_RECORDS | st.builds(
    MetricsRecord, step=st.integers(0, 99) | st.booleans(),
    lr=_WRITER_FLOATS | st.integers(), train_loss=_WRITER_FLOATS,
    grad_norm2=_WRITER_FLOATS, wall_events=_RUN_EVENTS))
@example(record=MetricsRecord(3, 0.05, 1.25, 2e-9, wall_events={
    "reductions": 4, "worker_batches": 16, "samples_seen": 256}))
@example(record=MetricsRecord(0, 0.1, math.inf, -math.inf, smoothness_L=math.inf,
                              worker_dispersion=-math.inf))
@example(record=MetricsRecord(1, -0.0, -0.0, 0.0, smoothness_L=-0.0,
                              worker_dispersion=-0.0))
@example(record=MetricsRecord(2, 1, 0.5, 0.25, wall_events={
    "reductions": 3, "worker_batches": 6, "samples_seen": 2**70}))
@example(record=MetricsRecord(5, np.float64(0.1), np.float64(math.nan),
                              np.float64(-math.inf), np.float64(2.5),
                              np.float64(-0.0), wall_events={
    "reductions": np.int64(6), "worker_batches": 24, "samples_seen": 96.0}))
@example(record=MetricsRecord(True, 0.1, 1.0, 1.0, wall_events={
    "reductions": True, "worker_batches": 2, "samples_seen": 8}))
@settings(max_examples=300, deadline=None)
def test_record_line_is_the_encoded_jsonable_record(record):
    # The examples: a run's record (NaN smoothness_L), +-inf, -0.0, an int
    # lr, numpy fields and a bool step.
    assert _record_line(record) == _encode_line(_jsonable(record)) + "\n"


@pytest.mark.parametrize("value", [
    np.bool_(False), [1.0, np.bool_(True)], {"a": (np.bool_(True),)},
    MetricsRecord(step=0, lr=0.1, train_loss=0.0, grad_norm2=0.0,
                  wall_events={"x": np.bool_(True)}),
    MetricsRecord(step=0, lr=0.1, train_loss=0.0, grad_norm2=0.0,
                  wall_events={"reductions": 1, "worker_batches": 2,
                               "samples_seen": np.bool_(True)}),
    MetricsRecord(step=0, lr=0.1, train_loss=0.0, grad_norm2=np.bool_(False))])
def test_jsonable_leaves_an_np_bool_for_the_encoder_to_refuse(value):
    with pytest.raises(TypeError):
        json.dumps(_jsonable(value), sort_keys=True, allow_nan=False)
    with pytest.raises(TypeError):
        _encode_line(_jsonable(value))
    with pytest.raises(TypeError):
        _record_line(value)


def test_an_unencodable_record_writes_no_output_file(tmp_path):
    # The second trial's last record cannot be written; the first trial's
    # file, built earlier, is not written either.
    res = run(_base_config())
    res.trials[1].records[-1].wall_events = {"x": np.bool_(True)}
    with pytest.raises(TypeError):
        write_outputs(res, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    # Over an earlier run's files, every file keeps its bytes.
    write_outputs(run(_base_config()), tmp_path)
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(TypeError):
        write_outputs(res, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written


def _trial_in_blocks(cfg, block, **kwargs):
    """Trial 0 of `cfg` with metric blocks of `block` steps (None: the
    default size)."""
    obj = cfg.objective
    doubles = (block * obj.sample_count * obj.dimension if block
               else objectives._SIGMA2_BLOCK)
    with mock.patch.object(objectives, "_SIGMA2_BLOCK", doubles):
        return _trial_results(cfg, **kwargs)[0]


def _assert_same_trial(got, want):
    assert repr(got.records) == repr(want.records)
    assert got.final_x.tobytes() == want.final_x.tobytes()
    assert ((got.trial, got.seed, got.steps_done, got.aborted, got.abort_detail,
             got.reached_epsilon, got.rate_error)
            == (want.trial, want.seed, want.steps_done, want.aborted,
                want.abort_detail, want.reached_epsilon, want.rate_error))
    for name in ("grad_norm2_series", "descent_residuals"):
        if getattr(want, name) is None:
            assert getattr(got, name) is None
        else:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert repr(got.proximity) == repr(want.proximity)
    assert repr(got.rate_report) == repr(want.rate_report)


_BLOCK_OBJECTIVES = {
    "quadratic": lambda: make_quadratic(3, 20, generator_seed=1,
                                        diag=[0.5, 1.0, 2.0]),
    "quadratic_matrix": lambda: make_quadratic(
        2, 20, generator_seed=1, matrix=[[2.0, 0.5], [0.5, 1.0]]),
    "logistic": lambda: make_logistic(5, 24, generator_seed=2, l2=0.01),
    "tiny_mlp": lambda: make_tiny_mlp((2, 3, 1), 24, generator_seed=3),
}


@given(method=st.sampled_from(METHODS), kind=st.sampled_from(sorted(_BLOCK_OBJECTIVES)),
       steps=st.integers(1, 12), record_every=st.integers(1, 5),
       decay=st.sampled_from([0.0, 0.1]), replay=st.booleans(),
       smoothness=st.sampled_from([0, 2]))
@settings(max_examples=40, deadline=None)
def test_metric_blocks_do_not_change_a_trial(method, kind, steps, record_every,
                                             decay, replay, smoothness):
    cfg = _base_config(
        objective=_BLOCK_OBJECTIVES[kind](), method=method, trials=1,
        total_steps_T=steps, record_every=record_every,
        record_virtual_sequence=replay, record_smoothness_every=smoothness,
        hyperparams=HyperParams(lr_gamma=0.02, momentum_u=0.5,
                                weight_decay=decay),
        noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.1),
        post_local=PostLocalConfig(transition_step_t0=2, local_steps_H=2))
    want = _trial_in_blocks(cfg, 1)
    for block in (3, None):
        _assert_same_trial(_trial_in_blocks(cfg, block), want)
    # Reference: each metric from a single-point call.
    obj, seq = cfg.objective, want.virtual_sequence
    if seq is None:
        return
    for record in want.records:
        x = seq.x[record.step + 1]
        loss = batch_loss(obj, x, range(obj.sample_count))
        assert record.train_loss == loss + 0.5 * decay * float(x @ x)
        assert record.grad_norm2 == want.grad_norm2_series[record.step] == \
            _grad_norm2(obj, seq.x_bar_half[record.step], decay)


def test_metric_blocks_hold_across_an_abort_inside_a_block():
    cfg = _base_config(
        objective=make_quadratic(2, 8, diag=[1e4, 1e4], shift_spread=1.0),
        hyperparams=HyperParams(lr_gamma=1.0), total_steps_T=300, trials=1)
    want = _trial_in_blocks(cfg, 1)
    done = want.steps_done           # steps before the aborted one
    assert want.aborted and done >= 3
    assert [r.step for r in want.records] == list(range(done + 1))
    # done // 2 + 1 never divides done, and the default block is the whole
    # trial, so the abort falls inside a block.
    for block in (3, done // 2 + 1, None):
        _assert_same_trial(_trial_in_blocks(cfg, block), want)


def test_metric_blocks_keep_the_stopping_rule_exact():
    cfg = _base_config(trials=1, record_every=3)
    norms = [r.grad_norm2 for r in _trial_in_blocks(
        dataclasses.replace(cfg, record_every=1), None).records]
    for epsilon in sorted(norms)[::3]:
        first = next(t for t, gn2 in enumerate(norms) if gn2 <= epsilon)
        want = _trial_in_blocks(cfg, 1, stop_epsilon=epsilon)
        assert want.reached_epsilon and want.steps_done == first + 1
        for block in (3, None):
            _assert_same_trial(
                _trial_in_blocks(cfg, block, stop_epsilon=epsilon), want)


# ---------------------------------------------------------------------------
# the trial axis: R trials of a config advance as one stacked state
# ---------------------------------------------------------------------------

def _chunked(cfg, chunk):
    """A patch of `harness._CHUNK_WORDS` under which `cfg` runs its trials
    in chunks of `chunk`."""
    return mock.patch.object(harness, "_CHUNK_WORDS",
                             chunk * harness._trial_words(cfg))


def _one_trial_runs(cfg, **kwargs):
    """Each trial of `cfg` run alone, at its own trial index."""
    constants, lrs = _replay_constants(cfg), _lr_series(cfg)
    return [_run_trials(cfg, [i], constants, lrs, **kwargs)[0]
            for i in range(cfg.trials)]


def _stepped_final_x(cfg, trial):
    """Trial `trial`'s last iterate from a stack of that trial alone stepped
    through the public step functions, the reference for the stacked rows."""
    obj, T = cfg.objective, cfg.total_steps_T
    seed = trial_seed(cfg.master_seed, trial)
    cl = dataclasses.replace(cfg.cluster, master_seed=seed)
    hp = cfg.hyperparams
    if not METHOD_TABLE[cfg.method].momentum:
        hp = dataclasses.replace(hp, momentum_u=0.0)
    sched = cfg.schedule and dataclasses.replace(cfg.schedule, total_steps=T)
    lrs = sched and lr_series(sched, T, cl, obj)
    state = init_state(initial_point(obj, cfg.init_scale)[None], cl.workers_K)
    for t in range(T):
        hp_t = hp if sched is None else dataclasses.replace(hp, lr_gamma=lrs[t])
        _step_once(cfg, state, obj, cl, draw_batches(cl, obj, t), hp_t, [seed])
    return state.x[0]


@given(method=st.sampled_from(METHODS), kind=st.sampled_from(sorted(_BLOCK_OBJECTIVES)),
       trials=st.sampled_from([1, 2, 5]), sub_batch=st.booleans(),
       decay=st.sampled_from([0.0, 0.1]), scheduled=st.booleans(),
       noise=st.sampled_from([(ISO_GAUSSIAN, False), (ISO_GAUSSIAN, True),
                              (ISO_UNIFORM, False), (SMOOTHOUT_SHARED, True),
                              (ANISO_STOCHASTIC, False)]),
       lars=st.booleans())
@example(method="post_local", kind="tiny_mlp", trials=5, sub_batch=True,
         decay=0.1, scheduled=False, noise=(ISO_GAUSSIAN, False), lars=True)
@example(method="extrap_noise", kind="quadratic_matrix", trials=5,
         sub_batch=False, decay=0.0, scheduled=True,
         noise=(SMOOTHOUT_SHARED, True), lars=False)
@settings(max_examples=30, deadline=None)
def test_stacked_trials_are_bitwise_one_trial_runs(method, kind, trials,
                                                   sub_batch, decay, scheduled,
                                                   noise, lars):
    cfg = _base_config(
        objective=_BLOCK_OBJECTIVES[kind](), method=method, trials=trials,
        total_steps_T=9, record_every=2, record_virtual_sequence=True,
        cluster=ClusterConfig(workers_K=3, local_batch_B=4,
                              extrap_batch_b=2 if sub_batch else None),
        hyperparams=HyperParams(lr_gamma=0.02, momentum_u=0.5,
                                weight_decay=decay,
                                lars_trust=0.02 if lars else 0.0),
        schedule=Schedule(kind=WARMUP_STEP_DECAY, base_lr=0.01,
                          scale_factor=2.0, warmup_epochs=1) if scheduled else None,
        noise=NoiseSpec(kind=noise[0], raw_scale=0.1, filter_scaled=noise[1]),
        post_local=PostLocalConfig(transition_step_t0=2, local_steps_H=2))
    want = _one_trial_runs(cfg)
    for chunk in sorted({1, 2, trials}):
        with _chunked(cfg, chunk):
            assert harness._chunk_size(cfg) == chunk
            got = run(cfg).trials
        assert len(got) == trials
        for g, w in zip(got, want):
            _assert_same_trial(g, w)
    for i, w in enumerate(want):
        assert w.final_x.tobytes() == _stepped_final_x(cfg, i).tobytes()


def _aborting_config():
    """Six trials of which some abort, at different steps: sample 5's shift
    is so large that a batch holding it overflows the gradient, so each
    trial that draws it aborts at that step and the others run on (every
    train loss is inf, since the mean loss covers that sample)."""
    shifts = np.ones((32, 2))
    shifts[5] = 1e308
    return _base_config(
        objective=make_quadratic(2, 32, shifts=shifts, diag=[10.0, 10.0]),
        cluster=ClusterConfig(workers_K=2, local_batch_B=1),
        method="extrap_sgd", hyperparams=HyperParams(lr_gamma=0.01,
                                                     momentum_u=0.5),
        total_steps_T=20, trials=6, master_seed=3)


def _stopping_config():
    """Six trials, an epsilon that four of them reach, at their own steps,
    and two never do, and each trial's gradient norms at every step."""
    cfg = _base_config(trials=6, total_steps_T=60, record_every=4)
    norms = [[r.grad_norm2 for r in tr.records] for tr in run(
        dataclasses.replace(cfg, record_every=1)).trials]
    return cfg, sorted(min(gn2s) for gn2s in norms)[3], norms


def test_an_aborting_trial_leaves_its_siblings_unchanged():
    cfg = _aborting_config()
    with np.errstate(over="ignore", invalid="ignore"):
        want = _one_trial_runs(cfg)
        aborts = sorted(tr.steps_done for tr in want if tr.aborted)
        assert len(set(aborts)) >= 2 and len(aborts) < cfg.trials
        for chunk in (1, 4, 6):
            with _chunked(cfg, chunk):
                got = run(cfg).trials
            for g, w in zip(got, want):
                _assert_same_trial(g, w)
    for tr in want:
        assert tr.records[-1].step == (tr.steps_done if tr.aborted else 19)


def test_speedup_trials_stop_at_their_own_steps():
    cfg, epsilon, norms = _stopping_config()
    want = _one_trial_runs(cfg, stop_epsilon=epsilon)
    stops = [tr.steps_done for tr in want if tr.reached_epsilon]
    assert len(stops) == 4 and len(set(stops)) >= 3
    for tr, gn2s in zip(want, norms):
        first = next((t + 1 for t, gn2 in enumerate(gn2s) if gn2 <= epsilon),
                     None)
        assert tr.steps_done == (first or cfg.total_steps_T)
    tables = []
    for chunk in (1, 4, 6):
        with _chunked(cfg, chunk):
            got = _trial_results(cfg, stop_epsilon=epsilon)
            # A larger epsilon keeps the study's step budgets short.
            tables.append(speedup_study(cfg, [(1, 4), (2, 4)], 20 * epsilon))
        for g, w in zip(got, want):
            _assert_same_trial(g, w)
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("mode,steps", [("with_replacement", 150),
                                        (EPOCH_PERMUTATION, 12)])
def test_thirty_stacked_trials_generate_each_block_once(monkeypatch, mode,
                                                        steps):
    made = []
    new_block = cluster._new_block

    def counted(seed, mode, workers, block, n):
        made.append((seed, block))
        return new_block(seed, mode, workers, block, n)

    monkeypatch.setattr(cluster, "_new_block", counted)
    cluster._blocks.clear()
    cfg = _base_config(trials=30, total_steps_T=steps,
                       cluster=ClusterConfig(workers_K=2, local_batch_B=24,
                                             sampling_mode=mode))
    assert harness._chunk_size(cfg) >= 30      # one chunk: all 30 stacked
    run(cfg)
    size = 32 if mode == EPOCH_PERMUTATION else cluster._BLOCK
    blocks = (steps * 24 - 1) // size + 1      # batches straddle blocks
    assert len(made) == len(set(made)) == 30 * blocks


def test_trials_that_leave_a_chunk_keep_its_one_seed_tuple(monkeypatch):
    # A chunk draws each step once, under the seeds of all its trials, also
    # after some have aborted or stopped; it keeps the running trials' rows.
    stopping, epsilon, _ = _stopping_config()
    draws = []

    def recording(cl, obj, t, seeds=None):
        draws.append((t, tuple(seeds)))
        return draw_batches(cl, obj, t, seeds)

    monkeypatch.setattr(harness, "draw_batches", recording)
    for cfg, kwargs in ((_aborting_config(), {}),
                        (stopping, {"stop_epsilon": epsilon})):
        draws.clear()
        with _chunked(cfg, 6):
            trials = _trial_results(cfg, **kwargs)
        assert any(tr.aborted or tr.reached_epsilon for tr in trials)
        steps = max(tr.steps_done + tr.aborted for tr in trials)
        assert steps == cfg.total_steps_T
        assert draws == [(t, tuple(tr.seed for tr in trials))
                         for t in range(steps)]


def test_a_shrinking_chunk_generates_each_block_once(monkeypatch):
    # Trials that abort or stop leave the stack; the chunk goes on drawing
    # under its own seed tuple, so its cached tensors serve the rest.
    made = []
    new_block = cluster._new_block

    def counted(seed, mode, workers, block, n):
        made.append((seed, block))
        return new_block(seed, mode, workers, block, n)

    monkeypatch.setattr(cluster, "_new_block", counted)
    shifts = np.ones((32, 2))
    shifts[5] = 1e308           # a batch holding sample 5 aborts its trial
    aborting = _base_config(
        objective=make_quadratic(2, 32, shifts=shifts, diag=[10.0, 10.0]),
        cluster=ClusterConfig(workers_K=2, local_batch_B=1),
        method="extrap_sgd", total_steps_T=20, trials=6, master_seed=3)
    stopping = _base_config(trials=6, total_steps_T=300,
                            cluster=ClusterConfig(workers_K=2, local_batch_B=8))
    norms = [min(r.grad_norm2 for r in tr.records)
             for tr in run(dataclasses.replace(stopping, record_every=1)).trials]
    for cfg, epsilon in ((aborting, None), (stopping, sorted(norms)[3])):
        cluster._blocks.clear()
        made.clear()
        trials = _trial_results(cfg, stop_epsilon=epsilon)
        ends = {tr.steps_done for tr in trials if tr.aborted or tr.reached_epsilon}
        assert len(ends) >= 2 and len(made) == len(set(made))


# ---------------------------------------------------------------------------
# a step keeps its raw points and directions; the harness reduces them in
# stacked blocks
# ---------------------------------------------------------------------------

def _logged_steps(log):
    """A patch of `harness._step_once` that logs, after every step that
    completes, each running trial's raw points and directions, its point
    after the step and its post-local worker dispersion by hand, keyed by
    (trial seed, step)."""
    step_once = harness._step_once

    def logged(config, state, obj, cl, batches, hp_t, seed):
        out = step_once(config, state, obj, cl, batches, hp_t, seed)
        info, t = state.last_info, state.step_t - 1
        for row, trial_seed_ in enumerate(seed):
            z = info["z"]
            spread = [0.0] if state.local_x is None else [
                float(np.linalg.norm(w))
                for w in state.local_x[row] - state.x[row]]
            log[trial_seed_, t] = (info["halves"][row].copy(),
                                   None if z is None else z[row].copy(),
                                   state.x[row].copy(), max(spread))
        return out
    return mock.patch.object(harness, "_step_once", logged)


def _by_hand(obj, decay, halves, z):
    """One trial's mean half point, worker deviation, mean direction and
    full-gradient norm at one step, from its raw (K or 1, d) points and its
    (K, d) directions or None."""
    half_bar = reduce_mean(halves)
    dev = halves - half_bar
    dev2 = np.add.reduce(np.add.reduce(dev * dev, -1)) / len(halves)
    xi = np.zeros_like(half_bar) if z is None else reduce_mean(z)
    return half_bar, dev2, xi, _grad_norm2(obj, half_bar, decay)


def _assert_records_are_by_hand(obj, decay, trials, log):
    """Each record of a completed step holds the by-hand norm at its mean
    half point, the loss at its point and the logged dispersion."""
    for tr in trials:
        for r in tr.records:
            if tr.aborted and r.step == tr.steps_done:
                continue        # the abort record
            halves, z, x, spread = log[tr.seed, r.step]
            *_, gn2 = _by_hand(obj, decay, halves, z)
            loss = batch_loss(obj, x, range(obj.sample_count)) \
                + 0.5 * decay * float(x @ x)
            assert (r.grad_norm2, r.train_loss) == (gn2, loss)
            assert r.worker_dispersion.hex() == spread.hex()


@given(method=st.sampled_from([name for name in METHODS
                               if METHOD_TABLE[name].bounded]),
       dim=st.sampled_from([1, 3]), workers=st.sampled_from([1, 3]),
       trials=st.integers(1, 3), block=st.integers(1, 3),
       steps=st.integers(1, 12), record_every=st.integers(1, 3),
       u=st.sampled_from([0.0, 0.5]), decay=st.sampled_from([0.0, 0.1]),
       aborting=st.booleans(), master_seed=st.integers(0, 7))
# Two trials abort, at steps 9 (inside a block) and 10, and one is replayed;
# one trial aborts at step 7, inside a block.
@example(method="extrap_sgd", dim=3, workers=3, trials=3, block=2, steps=12,
         record_every=2, u=0.5, decay=0.0, aborting=True, master_seed=5)
@example(method="extrap_sgd", dim=1, workers=1, trials=3, block=3, steps=12,
         record_every=3, u=0.0, decay=0.1, aborting=True, master_seed=3)
@example(method="extrap_noise", dim=3, workers=3, trials=2, block=2, steps=9,
         record_every=1, u=0.5, decay=0.1, aborting=False, master_seed=0)
@settings(max_examples=40, deadline=None)
def test_replay_rows_are_the_per_step_reductions_of_the_raw_values(
        method, dim, workers, trials, block, steps, record_every, u, decay,
        aborting, master_seed):
    # The replay rows x_bar_half, xi_bar and grad_norm2_series and the
    # worker_dev2 the proximity checks read are bitwise each step's own
    # reductions of the raw points and directions the step kept, for metric
    # blocks of 1-3 steps and with trials that abort inside a block: the
    # shift of sample 5 overflows every batch that holds it.
    shifts = np.random.default_rng(dim).standard_normal((32, dim))
    if aborting:
        shifts[5] = 1e308
    cfg = _base_config(
        objective=make_quadratic(dim, 32, shifts=shifts,
                                 diag=[2.0, 3.0, 4.0][:dim]),
        method=method, trials=trials, total_steps_T=steps,
        record_every=record_every, record_virtual_sequence=True,
        master_seed=master_seed,
        cluster=ClusterConfig(workers_K=workers, local_batch_B=1),
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=u,
                                weight_decay=decay),
        noise=NoiseSpec(kind="isotropic_gaussian", raw_scale=0.1))
    obj = cfg.objective
    log, dev2s = {}, {}
    proximity = theory.check_proximity_inequalities

    def logged_proximity(vs, worker_dev2=None, **kwargs):
        dev2s[id(vs)] = np.asarray(worker_dev2)
        return proximity(vs, worker_dev2=worker_dev2, **kwargs)

    with np.errstate(over="ignore", invalid="ignore"):
        with _logged_steps(log), mock.patch.object(
                theory, "check_proximity_inequalities", logged_proximity), \
                mock.patch.object(objectives, "_SIGMA2_BLOCK",
                                  block * obj.sample_count * dim * trials):
            assert harness._chunk_size(cfg) >= trials
            got = run(cfg).trials
        _assert_records_are_by_hand(obj, decay, got, log)
        for tr in got:
            seq = tr.virtual_sequence
            assert (seq is None) == tr.aborted
            if seq is None:
                continue
            half, dev2, xi, gn2 = (np.stack(rows) for rows in zip(*(
                _by_hand(obj, decay, *log[tr.seed, t][:2])
                for t in range(steps))))
            assert seq.x_bar_half[:-1].tobytes() == half.tobytes()
            assert seq.xi_bar[:-1].tobytes() == xi.tobytes()
            assert tr.grad_norm2_series.tobytes() == gn2.tobytes()
            assert dev2s[id(seq)].tobytes() == dev2.tobytes()


@given(method=st.sampled_from(["sgd", "nesterov", "extrap_sgd"]),
       dim=st.sampled_from([1, 3]), workers=st.sampled_from([1, 3]),
       trials=st.integers(1, 3), record_every=st.integers(1, 3),
       epsilon=st.sampled_from([0.3, 1.0]))
@settings(max_examples=12, deadline=None)
def test_a_speedup_stop_reads_the_per_step_reductions(method, dim, workers,
                                                     trials, record_every,
                                                     epsilon):
    # Each trial stops after the first step whose by-hand norm, at the mean
    # of that step's raw half points, is <= epsilon: after 1-7 steps at
    # d = 1 and 18-650 steps at d = 3.
    obj = make_quadratic(dim, 64, generator_seed=dim, shift_mean=[2.0] * dim,
                         diag=[0.5, 1.0, 2.0][:dim])
    base = _base_config(objective=obj, method=method, trials=trials,
                        record_every=record_every,
                        hyperparams=HyperParams(momentum_u=0.5))
    log, runs = {}, []
    trial_results = harness._trial_results

    def logged_trials(cfg, stop_epsilon=None):
        runs.append((cfg, trial_results(cfg, stop_epsilon)))
        return runs[-1][1]

    with _logged_steps(log), mock.patch.object(harness, "_trial_results",
                                               logged_trials):
        speedup_study(base, [(workers, 2)], epsilon)
    (cfg, got), = runs
    _assert_records_are_by_hand(obj, 0.0, got, log)
    for tr in got:
        norms = [_by_hand(obj, 0.0, *log[tr.seed, t][:2])[-1]
                 for t in range(tr.steps_done)]
        assert tr.reached_epsilon == (norms[-1] <= epsilon)
        assert all(gn2 > epsilon for gn2 in norms[:-1])
        if not tr.reached_epsilon:
            assert tr.steps_done == cfg.total_steps_T


@given(dim=st.sampled_from([1, 3]), workers=st.sampled_from([1, 3]),
       trials=st.integers(1, 3), steps=st.integers(1, 12),
       record_every=st.integers(2, 4), t0=st.integers(0, 3),
       local_h=st.integers(1, 3), block=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_post_local_records_read_the_state_at_recorded_steps(
        dim, workers, trials, steps, record_every, t0, local_h, block):
    # Post-local's dispersion is taken from the state at the recorded steps
    # only, and its norms and losses from the raw half points.
    obj = make_quadratic(dim, 32, generator_seed=dim, shift_spread=2.0)
    cfg = _base_config(
        objective=obj, method="post_local", trials=trials,
        total_steps_T=steps, record_every=record_every,
        cluster=ClusterConfig(workers_K=workers, local_batch_B=2),
        hyperparams=HyperParams(lr_gamma=0.05, momentum_u=0.5),
        post_local=PostLocalConfig(transition_step_t0=t0,
                                   local_steps_H=local_h))
    log = {}
    with _logged_steps(log), mock.patch.object(
            objectives, "_SIGMA2_BLOCK", block * obj.sample_count * dim * trials):
        got = run(cfg).trials
    _assert_records_are_by_hand(obj, 0.0, got, log)
    assert [r.step for r in got[0].records] == sorted(
        {t for t in range(steps) if t % record_every == 0} | {steps - 1})


# ---------------------------------------------------------------------------
# a wide run evaluates its full-sample metrics on one helper thread
# ---------------------------------------------------------------------------

def _wide_quadratic_config(shift, shifted=1, curvature=1.0, **overrides):
    """A d = 64, N = 4100 quadratic, so N d is just above one metric block,
    with A = `curvature` I, whose first `shifted` samples have the shift
    `shift`."""
    shifts = np.random.default_rng(5).standard_normal((4100, 64))
    shifts[:shifted] = shift
    obj = make_quadratic(64, 4100, shifts=shifts, diag=[curvature] * 64)
    assert obj.sample_count * obj.dimension > objectives._SIGMA2_BLOCK
    return _base_config(**{
        "objective": obj, "method": "nesterov",
        "cluster": ClusterConfig(workers_K=2, local_batch_B=8),
        "hyperparams": HyperParams(lr_gamma=0.1, momentum_u=0.5), **overrides})


def _helper_and_inline_outputs(cfg, tmp_path):
    """`cfg`'s trials, after checking that the files it writes with the
    helper thread, which must run and end with the run, are those it writes
    without it (a metric block above N d turns it off)."""
    obj = cfg.objective
    calls = []
    evaluate = harness._evaluate_pending

    def logged(*args):
        calls.append(threading.current_thread())
        return evaluate(*args)

    before, errors = threading.active_count(), np.geterr()
    with mock.patch.object(harness, "_evaluate_pending", logged):
        write_outputs(run(cfg), tmp_path / "helper")
    assert threading.active_count() == before
    assert np.geterr() == errors
    assert any(thread is not threading.main_thread() for thread in calls)
    with mock.patch.object(objectives, "_SIGMA2_BLOCK",
                           obj.sample_count * obj.dimension), \
            mock.patch.object(harness, "_evaluate_pending", logged):
        calls.clear()
        write_outputs(run(cfg), tmp_path / "inline")
    assert calls and all(thread is threading.main_thread() for thread in calls)
    names = sorted(os.listdir(tmp_path / "helper"))
    assert names == sorted(os.listdir(tmp_path / "inline"))
    for name in names:
        assert ((tmp_path / "helper" / name).read_bytes()
                == (tmp_path / "inline" / name).read_bytes()), name
    return run(cfg).trials


def test_the_helper_thread_keeps_an_overflowing_metric_quiet(tmp_path):
    # The losses overflow to inf while every step stays finite; numpy's
    # error state is per thread, so the helper needs its own for
    # `filterwarnings = error` to raise nothing.
    cfg = _wide_quadratic_config(1e200, total_steps_T=30, record_every=10)
    trials = _helper_and_inline_outputs(cfg, tmp_path)
    for tr in trials:
        assert not tr.aborted and np.isfinite(tr.final_x).all()
        assert [r.step for r in tr.records] == [0, 10, 20, 29]
        assert all(r.train_loss == math.inf for r in tr.records)


def test_a_wide_run_aborts_with_a_metric_block_in_flight(tmp_path):
    # The gradient of a batch that holds one of the 41 shifted samples
    # overflows; each step is recorded, so the block of the step before is
    # on the helper, slowed down, when the abort evaluates the pending one.
    # At most one block is ever evaluated at a time.
    evaluate, lock = harness._evaluate_pending, threading.Lock()
    running, most = [0], [0]

    def slow(*args):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        try:
            time.sleep(0.002)
            return evaluate(*args)
        finally:
            with lock:
                running[0] -= 1

    cfg = _wide_quadratic_config(
        1e308, shifted=41, curvature=100.0, total_steps_T=60,
        hyperparams=HyperParams(lr_gamma=1e-3, momentum_u=0.5))
    with mock.patch.object(harness, "_evaluate_pending", slow):
        trials = _helper_and_inline_outputs(cfg, tmp_path)
    assert all(tr.aborted and tr.steps_done >= 2 for tr in trials)
    assert most == [1]


def test_a_helper_error_reraises_in_the_caller_and_ends_the_thread():
    cfg = _wide_quadratic_config(1.0, total_steps_T=20, trials=1)

    def failing(*args):
        raise RuntimeError("metric block failed")

    before = threading.active_count()
    with mock.patch.object(harness, "_evaluate_pending", failing), \
            pytest.raises(RuntimeError, match="^metric block failed$"):
        run(cfg)
    assert threading.active_count() == before
