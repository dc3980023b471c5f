import filecmp
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsgd.cli import main
from exsgd.cluster import EPOCH_PERMUTATION, WITH_REPLACEMENT
from exsgd.optimizers import step_minibatch_sgd
from exsgd.theory import METHODS

BASE_CONFIG = {
    "objective": {"maker": "quadratic", "dimension": 3, "sample_count": 24,
                  "generator_seed": 2, "shift_spread": 1.5,
                  "shift_mean": [2.0, 2.0, 2.0]},
    "cluster": {"workers_K": 2, "local_batch_B": 4},
    "method": "nesterov",
    "hyperparams": {"lr_gamma": 0.05, "momentum_u": 0.5},
    "total_steps_T": 30,
    "trials": 2,
    "master_seed": 5,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_run_writes_outputs_and_exits_zero(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["aggregate.csv", "manifest.json",
                                       "trial_0.jsonl", "trial_1.jsonl"]
    text = capsys.readouterr().out
    assert "trial 0:" in text and "trial 1:" in text


def test_run_outputs_identical_across_thread_counts(config_path, tmp_path):
    d1, d2 = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert main(["run", "--config", config_path, "--out", d1]) == 0
    assert main(["run", "--config", config_path, "--out", d2,
                 "--threads", "4"]) == 0
    for name in os.listdir(d1):
        assert filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                           shallow=False), name


def test_set_override_lands_in_manifest(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out,
                 "--set", "hyperparams.lr_gamma=0.02",
                 "--set", "cluster.workers_K=4"]) == 0
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["config"]["hyperparams"]["lr_gamma"] == 0.02
    assert manifest["config"]["cluster"]["workers_K"] == 4


def test_seed_flag_changes_trials(config_path, tmp_path):
    d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["run", "--config", config_path, "--out", d1, "--seed", "1"])
    main(["run", "--config", config_path, "--out", d2, "--seed", "2"])
    a = open(os.path.join(d1, "aggregate.csv")).read()
    b = open(os.path.join(d2, "aggregate.csv")).read()
    assert a != b


def test_run_exit_two_on_numeric_abort(tmp_path):
    doc = dict(BASE_CONFIG)
    doc["method"] = "sgd"
    doc["hyperparams"] = {"lr_gamma": 500.0}
    doc["total_steps_T"] = 400
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    import numpy as np
    with np.errstate(over="ignore"):
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_validation_error_exits_one(tmp_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["hyperparams"] = {"lr_gamma": 0.1, "momentum_u": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "momentum_u" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["objective", "cluster", "hyperparams",
                                     "schedule", "noise", "post_local"])
def test_unknown_nested_key_exits_one_without_traceback(tmp_path, capsys,
                                                        section):
    doc = dict(BASE_CONFIG)
    doc[section] = dict(doc.get(section) or {}, lr_gama=0.1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lr_gama" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("override,field", [
    ("objective.sample_count=100", "quad_shifts"),
    ("objective.dimension=3", "quad_diag"),
])
def test_objective_shape_mismatch_exits_one_before_step_zero(tmp_path, capsys,
                                                              override, field):
    # The arrays of a d=6, N=48 quadratic no longer match the overridden
    # size, which must be caught before the first step.
    doc = dict(BASE_CONFIG, objective={
        "maker": "quadratic", "dimension": 6, "sample_count": 48,
        "generator_seed": 2, "diag": [0.5, 0.8, 1.2, 2.0, 3.0, 4.0]})
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override,field", [
    ("trials=abc", "trials"),
    ("trials=true", "trials"),
    ("total_steps_T=null", "total_steps_T"),
    ("hyperparams.momentum_u=null", "hyperparams.momentum_u"),
    ("cluster.workers_K=1.5", "cluster.workers_K"),
    ("master_seed=1.5", "master_seed"),
    ('init_scale="a"', "init_scale"),
    ("record_virtual_sequence=1", "record_virtual_sequence"),
    ("objective.kind=3", "objective.kind"),
    ("cluster=null", "cluster"),
])
def test_wrongly_typed_value_exits_one_without_traceback(config_path, tmp_path,
                                                         capsys, override,
                                                         field):
    out = tmp_path / "o"
    assert main(["run", "--config", config_path, "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_wrongly_typed_config_file_value_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, total_steps_T=30.0)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: total_steps_T must be int")


def test_section_override_is_built_like_the_config_file(config_path, tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--config", config_path, "--out", str(out),
                 "--set", "method=post_local",
                 "--set", 'post_local={"transition_step_t0":3,"local_steps_H":2}',
                 "--set", "init_scale=1",
                 "--set", "hyperparams.inner_lr_gamma_hat=null"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["post_local"] == {"transition_step_t0": 3, "local_steps_H": 2}
    assert config["init_scale"] == 1


@pytest.mark.parametrize("override,text", [
    ("schedule=3", "'schedule' must be an object"),
    ('noise={"kind":"isotropic_gaussian","scale":0.1}', "unknown noise fields"),
    ('objective={"maker":"quadratic","dimension":3}', "missing objective fields"),
])
def test_malformed_section_override_exits_one(config_path, tmp_path, capsys,
                                              override, text):
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "o"),
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and text in err
    assert len(err.splitlines()) == 1


_OBJECTIVES = {
    "quadratic": {"maker": "quadratic", "dimension": 3, "sample_count": 24,
                  "generator_seed": 2, "shift_spread": 1.5},
    "logistic": {"maker": "logistic", "dimension": 3, "sample_count": 24,
                 "generator_seed": 2, "l2": 1e-3},
    "tiny_mlp": {"maker": "tiny_mlp", "widths": [2, 3, 1], "sample_count": 24,
                 "generator_seed": 2},
}


@given(method=st.sampled_from(METHODS), kind=st.sampled_from(sorted(_OBJECTIVES)),
       mode=st.sampled_from([WITH_REPLACEMENT, EPOCH_PERMUTATION]),
       filter_scaled=st.booleans(), lars=st.booleans(), schedule=st.booleans())
@settings(max_examples=25, deadline=None)
def test_manifest_config_replays_byte_identical(method, kind, mode,
                                                filter_scaled, lars, schedule):
    doc = dict(
        BASE_CONFIG, objective=_OBJECTIVES[kind], method=method,
        cluster={"workers_K": 2, "local_batch_B": 4, "sampling_mode": mode},
        hyperparams={"lr_gamma": 0.02, "momentum_u": 0.5,
                     "lars_trust": 0.02 if lars else 0.0},
        noise={"kind": "isotropic_gaussian", "raw_scale": 0.1,
               "filter_scaled": filter_scaled},
        post_local={"transition_step_t0": 4, "local_steps_H": 2},
        total_steps_T=12, record_virtual_sequence=True)
    if schedule:
        doc["schedule"] = {"kind": "warmup_constant", "base_lr": 0.01,
                           "scale_factor": 2.0, "warmup_epochs": 1}
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["run", "--config", path, "--out", first])
        with open(os.path.join(first, "manifest.json")) as fh:
            manifest = json.load(fh)
        with open(path, "w") as fh:
            json.dump(manifest["config"], fh)
        assert main(["run", "--config", path, "--out", second]) == code
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        for name in names:
            assert filecmp.cmp(os.path.join(first, name),
                               os.path.join(second, name), shallow=False), name


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_codes(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_list_methods_names_every_method(capsys):
    assert main(["list-methods"]) == 0
    text = capsys.readouterr().out
    for name in ("sgd", "nesterov", "extrap_sgd", "extrap_noise",
                 "extrap_adam", "adam", "post_local"):
        assert name in text


def test_sweep_writes_table(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", config_path, "--out", out,
                 "--grid", "hyperparams.lr_gamma=0.02,0.05"]) == 0
    table = json.loads(open(os.path.join(out, "sweep.json")).read())
    assert len(table["rows"]) == 2
    assert "best" in table
    assert "->" in capsys.readouterr().out


def test_sweep_without_grid_exits_one(config_path, tmp_path, capsys):
    assert main(["sweep", "--config", config_path,
                 "--out", str(tmp_path / "o")]) == 1
    assert "grid" in capsys.readouterr().err


def test_speedup_writes_table(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["speedup", "--config", config_path, "--out", out,
                 "--set", "method=sgd", "--set", "trials=3",
                 "--kb", "1x4", "--kb", "2x4", "--epsilon", "2.0"]) == 0
    table = json.loads(open(os.path.join(out, "speedup.json")).read())
    assert [r["kb"] for r in table["rows"]] == [4, 8]
    assert "critical_kb" in table
    assert "mean steps" in capsys.readouterr().out


@pytest.mark.parametrize("kbs,error", [
    (["0x4"], "K=0 B=4: workers_K must be >= 1"),
    (["2x0"], "K=2 B=0: local_batch_B must be >= 1"),
    (["1x4", "2x64"], "K=2 B=64: local_batch_B=64 exceeds sample_count=24"),
])
def test_speedup_with_an_invalid_point_exits_one_and_writes_nothing(
        config_path, tmp_path, capsys, kbs, error):
    out = tmp_path / "o"
    kb_args = [arg for kb in kbs for arg in ("--kb", kb)]
    assert main(["speedup", "--config", config_path, "--out", str(out),
                 "--epsilon", "2.0", *kb_args]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: speedup point {error}\n"
    assert captured.out == "" and not out.exists()


def test_smoothness_demo_prints_top_eigenvalue(capsys):
    assert main(["smoothness"]) == 0
    out = capsys.readouterr().out
    assert "4" in out


def test_smoothness_with_config_reports_analytic_l(config_path, capsys):
    assert main(["smoothness", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "estimated L" in out and "analytic L" in out


@pytest.mark.parametrize("option", [["--fraction", "0"], ["--fraction", "nan"],
                                    ["--probes", "-3"], ["--probes", "0"]])
def test_smoothness_bad_probe_settings_exit_one(config_path, capsys, option):
    assert main(["smoothness", "--config", config_path, *option]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: smoothness probes")
    assert len(captured.err.splitlines()) == 1 and "estimated" not in captured.out


def test_smoothness_takes_no_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["smoothness", "--out", "zz"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_verify_self_check_passes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "descent identity" in out
    assert (tmp_path / "v" / "theory_report.json").exists()


def test_verify_exits_one_when_a_chain_breaks(monkeypatch, capsys):
    monkeypatch.setattr("exsgd.gates.step_extrap_sgd", step_minibatch_sgd)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "first mismatch at step 1" in out and "12/13 checks passed" in out


@pytest.mark.parametrize("grid,field", [
    ("hyperparams.lr_gamma=-0.05,0.05", "lr_gamma"),
    ("trials=abc", "trials"),
    ("schedule=3", "schedule"),
])
def test_sweep_with_an_invalid_point_exits_one_and_writes_nothing(
        config_path, tmp_path, capsys, grid, field):
    out = tmp_path / "o"
    assert main(["sweep", "--config", config_path, "--out", str(out),
                 "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and field in captured.err
    assert len(captured.err.splitlines()) == 1 and "->" not in captured.out
    assert not out.exists()


def _quick_checks():
    return [("a check", True, "")]


def test_verify_writes_its_report_only_with_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("exsgd.cli._verify_checks", _quick_checks)
    monkeypatch.chdir(tmp_path)
    assert main(["verify"]) == 0
    assert os.listdir(tmp_path) == []
    assert main(["verify", "--out", "v"]) == 0
    report = json.loads((tmp_path / "v" / "theory_report.json").read_text())
    assert report == [{"check": "a check", "passed": True, "detail": ""}]
    capsys.readouterr()


@pytest.mark.parametrize("option", [["--config", "/nonexistent.json"],
                                    ["--set", "trials=2"], ["--seed", "3"]])
def test_verify_takes_no_config_options(option, capsys):
    assert main(["verify", *option]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("override,field", [
    ('schedule={"decay_milestones":3}', "schedule.decay_milestones"),
    ('schedule={"decay_milestones":"ab"}', "schedule.decay_milestones"),
    ('schedule={"decay_milestones":[0.5,true]}', "schedule.decay_milestones"),
    ("objective.mlp_widths=3", "objective.mlp_widths"),
    ('objective.mlp_widths=[2,"3",1]', "objective.mlp_widths"),
    ("objective.partition=3", "objective.partition"),
    ("objective.partition=[[0,1.5]]", "objective.partition"),
    ("objective.partition=[[0,1,3]]", "objective.partition"),
    ('objective={"kind":"tiny_mlp","dimension":9,"sample_count":4,'
     '"generator_seed":0,"mlp_widths":3}', "objective.mlp_widths"),
    ('objective={"kind":"quadratic","dimension":1,"sample_count":1,'
     '"generator_seed":0,"quad_diag":[1],"quad_shifts":[[0]],"partition":[3]}',
     "objective.partition"),
])
def test_wrongly_typed_sequence_exits_one_without_traceback(
        config_path, tmp_path, capsys, override, field):
    out = tmp_path / "o"
    assert main(["run", "--config", config_path, "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be a list") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()
