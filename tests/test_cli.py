import filecmp
import json
import os

import pytest

from exsgd.cli import main

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


def test_smoothness_demo_prints_top_eigenvalue(capsys):
    assert main(["smoothness"]) == 0
    out = capsys.readouterr().out
    assert "4" in out


def test_smoothness_with_config_reports_analytic_l(config_path, capsys):
    assert main(["smoothness", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "estimated L" in out and "analytic L" in out


def test_verify_self_check_passes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "descent identity" in out
    assert (tmp_path / "v" / "theory_report.json").exists()
