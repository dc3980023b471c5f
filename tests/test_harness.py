import dataclasses
import filecmp
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from exsgd.cluster import ClusterConfig, draw_batches
from exsgd.harness import (RunConfig, _full_grad_norm2, _step_once,
                           _terminal_half_point, apply_override, run,
                           speedup_study, sweep, trial_seed, write_outputs)
from exsgd.objectives import (ParamVector, estimate_constants, initial_point,
                              loss, make_quadratic)
from exsgd.optimizers import (SMOOTHOUT_SHARED, WARMUP_CONSTANT, HyperParams,
                              NoiseSpec, PostLocalConfig, Schedule, init_state,
                              lr_at)
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
    x0 = initial_point(cfg.objective)
    f0 = loss(cfg.objective, x0)
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
    obj, cl = cfg.objective, cfg.cluster
    for rec in res.trials[0].records:
        assert rec.lr == lr_at(sched, rec.step, cl, obj)


def test_abort_is_reported_not_raised(tmp_path):
    cfg = _base_config(
        objective=make_quadratic(2, 8, diag=[1e4, 1e4], shift_spread=1.0),
        hyperparams=HyperParams(lr_gamma=1.0), total_steps_T=300, trials=1)
    with np.errstate(over="ignore"):
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
    state = init_state(initial_point(obj), workers)
    xs, vs, halves, gbars, xibars, gn2s = [state.x.values], [state.v], [], [], [], []
    for t in range(steps):
        _step_once(cfg, state, obj, cl, draw_batches(cl, obj, t), hp, tr.seed, t)
        info = state.last_info
        xs.append(state.x.values)
        vs.append(state.v)
        halves.append(info["x_half_bar"])
        gbars.append(info["g_bar"])
        xibars.append(info["xi_bar"])
        gn2s.append(_full_grad_norm2(obj, info["x_half_bar"], hp.weight_decay))
    seq = tr.virtual_sequence
    assert_array_equal(seq.x, np.stack(xs))
    assert_array_equal(seq.v, np.stack(vs))
    assert_array_equal(seq.x_bar_half[:-1], np.stack(halves))
    assert_array_equal(seq.g_bar_half, np.stack(gbars))
    assert_array_equal(seq.xi_bar[:-1], np.stack(xibars))
    assert_array_equal(tr.grad_norm2_series, np.asarray(gn2s))
    half, xi = _terminal_half_point(cfg, state, hp, cl, tr.seed, steps)
    assert_array_equal(seq.x_bar_half[-1], half)
    assert_array_equal(seq.xi_bar[-1], xi)


def test_sweep_checks_every_point_before_running_any():
    cfg = _base_config(trials=1)
    with pytest.raises(ValueError, match="lr_gamma"):
        sweep(cfg, {"hyperparams.lr_gamma": [0.05, -0.05]})
    with pytest.raises(ValueError, match="trials must be int"):
        sweep(cfg, {"trials": ["abc"]})


def test_sweep_runs_each_points_own_trials():
    cfg = _base_config(trials=1)
    table = sweep(cfg, {"trials": [3]})
    finals = [tr.records[-1].train_loss
              for tr in run(dataclasses.replace(cfg, trials=3)).trials]
    assert table["rows"][0]["final_loss_mean"] == float(np.mean(finals))
    assert table["rows"][0]["final_loss_std"] == float(np.std(finals)) > 0
