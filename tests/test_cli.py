import filecmp
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsgd import harness
from exsgd.cli import _parse_grid, build_parser, main
from exsgd.cluster import EPOCH_PERMUTATION, WITH_REPLACEMENT
from exsgd.objectives import make_logistic, make_quadratic
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
    manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
    assert manifest["config"]["hyperparams"]["lr_gamma"] == 0.02
    assert manifest["config"]["cluster"]["workers_K"] == 4


def test_seed_flag_changes_trials(config_path, tmp_path):
    d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["run", "--config", config_path, "--out", d1, "--seed", "1"])
    main(["run", "--config", config_path, "--out", d2, "--seed", "2"])
    a = pathlib.Path(d1, "aggregate.csv").read_text()
    b = pathlib.Path(d2, "aggregate.csv").read_text()
    assert a != b


def test_run_exit_two_on_numeric_abort(tmp_path):
    doc = dict(BASE_CONFIG)
    doc["method"] = "sgd"
    doc["hyperparams"] = {"lr_gamma": 500.0}
    doc["total_steps_T"] = 400
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_run_exits_two_without_a_warning_under_warnings_as_errors(tmp_path):
    # The diverging steps' overflow is reported once, as the abort record:
    # numpy warns of nothing, so `-W error` raises nothing.
    doc = {"objective": {"maker": "quadratic", "dimension": 3,
                         "sample_count": 16, "generator_seed": 1},
           "cluster": {"workers_K": 2, "local_batch_B": 4},
           "method": "nesterov",
           "hyperparams": {"lr_gamma": 1e308, "momentum_u": 0.5},
           "total_steps_T": 5}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    src = str(pathlib.Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "exsgd.cli", "run",
         "--config", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (2, "")
    last = (out / "trial_0.jsonl").read_text().splitlines()[-1]
    assert json.loads(last)["abort"].startswith("non-finite value")


def _diverging_doc():
    """A 2-d quadratic whose first of 32 shifts is 1e308: its theory
    constants and its full-sample norms overflow, and at lr_gamma 10 a step
    whose batch holds sample 0 overflows too."""
    shifts = np.random.default_rng(0).standard_normal((32, 2)).tolist()
    shifts[0] = [1e308, 1e308]
    return {"objective": {"maker": "quadratic", "dimension": 2,
                          "sample_count": 32, "shifts": shifts},
            "cluster": {"workers_K": 2, "local_batch_B": 4},
            "method": "nesterov",
            "hyperparams": {"lr_gamma": 10.0, "momentum_u": 0.5},
            "total_steps_T": 50, "trials": 2}


_SUBCOMMAND_ARGS = {
    "run": ["--out", "{out}"],
    "sweep": ["--out", "{out}", "--grid", "hyperparams.lr_gamma=5.0,10.0"],
    "speedup": ["--out", "{out}", "--kb", "2x4", "--epsilon", "0.1"],
    "smoothness": [],
}


@pytest.mark.parametrize("config", ["diverging", "invalid"])
@pytest.mark.parametrize("subcommand", sorted(_SUBCOMMAND_ARGS))
def test_every_config_subcommand_fails_in_one_line_under_warnings_as_errors(
        tmp_path, subcommand, config):
    # A config that overflows and one with an invalid value end every
    # subcommand that reads a config with exit code 1 (refused) or 2 (a
    # numeric abort), at most one stderr line and no traceback, also under
    # `-W error`, and every file written is strict JSON.
    doc = _diverging_doc()
    if config == "invalid":
        doc["hyperparams"]["momentum_u"] = 1.0
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    src = str(pathlib.Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = [a.format(out=out) for a in _SUBCOMMAND_ARGS[subcommand]]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "exsgd.cli", subcommand,
         "--config", str(path), *args], capture_output=True, text=True, env=env)
    aborts = config == "diverging" and subcommand in ("run", "sweep")
    assert proc.returncode == (2 if aborts else 1)
    assert len(proc.stderr.splitlines()) <= 1 and "Traceback" not in proc.stderr
    if not aborts:
        assert proc.stderr.startswith("error: ")
    if (subcommand, config) == ("speedup", "diverging"):     # the cause, by name
        assert "variance_sigma2 must be finite" in proc.stderr
    for name in os.listdir(out) if out.exists() else ():
        text = (out / name).read_text()
        if name.endswith(".json"):
            json.loads(text, parse_constant=_reject_constant)
        elif name.endswith(".jsonl"):
            for line in text.splitlines():
                json.loads(line, parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


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


def test_extrap_noise_without_noise_exits_one_before_step_zero(tmp_path, capsys):
    doc = dict(BASE_CONFIG, method="extrap_noise", noise={"kind": "none"})
    path = tmp_path / "none.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "noise kind" in err
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("override,field", [
    ("objective.sample_count=100", "quad_shifts"),
    ("objective.dimension=3", "quad_diag"),
])
def test_objective_shape_mismatch_exits_one_before_step_zero(tmp_path, capsys,
                                                              override, field):
    # The arrays of an inline d=6, N=48 quadratic no longer match the
    # overridden size, which must be caught before the first step.  (On a
    # maker-built objective these keys are maker arguments and remake it.)
    obj = make_quadratic(6, 48, generator_seed=2, diag=[0.5, 0.8, 1.2, 2.0, 3.0, 4.0])
    doc = dict(BASE_CONFIG, objective={
        "kind": "quadratic", "dimension": 6, "sample_count": 48,
        "generator_seed": 2, "quad_diag": obj.quad_diag.tolist(),
        "quad_shifts": obj.quad_shifts.tolist()})
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def _inline_logistic():
    """A d=4 logistic objective given by its arrays, with no maker and no
    partition."""
    obj = make_logistic(4, 32, generator_seed=2, l2=1e-3)
    return {"kind": "logistic", "dimension": 4, "sample_count": 32,
            "generator_seed": 2, "logit_l2": 1e-3,
            "logit_features": obj.logit_features.tolist(),
            "logit_labels": obj.logit_labels.tolist()}


@pytest.mark.parametrize("extra", [
    {"hyperparams": {"lr_gamma": 0.05, "momentum_u": 0.5, "lars_trust": 0.02}},
    {"method": "extrap_noise",
     "noise": {"kind": "isotropic_gaussian", "filter_scaled": True}},
])
def test_inline_objective_without_partition_is_one_block(tmp_path, capsys,
                                                         extra):
    # LARS and filter-scaled noise read the partition: a missing one must
    # act as the single block [0, d), byte for byte.
    doc = dict(BASE_CONFIG, objective=_inline_logistic(), **extra)
    outs = []
    for name, partition in (("default", {}),
                            ("explicit", {"partition": [[0, 4]]})):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        objective = dict(doc["objective"], **partition)
        path.write_text(json.dumps(dict(doc, objective=objective)))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
    capsys.readouterr()


def test_empty_partition_exits_one(tmp_path, capsys):
    path, out = tmp_path / "bad.json", tmp_path / "o"
    path.write_text(json.dumps(dict(
        BASE_CONFIG, objective=dict(_inline_logistic(), partition=[]))))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: partition [] must split [0, 4)")
    assert len(err.splitlines()) == 1 and not out.exists()


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
    ('objective={"maker":"quadratic","dimension":"abc","sample_count":24}',
     "objective.dimension"),
    ('objective={"maker":"tiny_mlp","widths":5,"sample_count":24}',
     "objective.widths"),
    ('objective={"maker":"tiny_mlp","widths":[2,"a",1],"sample_count":24}',
     "objective.widths"),
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


# A non-finite number is a validation error wherever it enters: a NaN or
# an infinity would abort the run or be written to the manifest as null or
# a string that cannot be replayed.
@pytest.mark.parametrize("entry,path,value", [
    ("config", "hyperparams.lr_gamma", math.nan),
    ("config", "hyperparams.adam_eps", math.inf),
    ("config", "objective.shift_mean", [2.0, math.nan, 2.0]),
    ("set", "hyperparams.lars_trust", -math.inf),
    ("set", "hyperparams.weight_decay", math.nan),
    pytest.param("set", "hyperparams.momentum_u", 10 ** 400,
                 id="set-hyperparams.momentum_u-int_beyond_every_float"),
    ("set", "objective.quad_diag", [1.0, math.inf, 2.0]),
])
def test_non_finite_number_exits_one_without_output(entry, path, value,
                                                    tmp_path, capsys):
    doc = json.loads(json.dumps(BASE_CONFIG))
    sets = []
    if entry == "config":
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
    else:
        sets = ["--set", f"{path}={json.dumps(value)}"]
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(out),
                 *sets]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path} must be ")
    assert "finite" in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == "" and not out.exists()


def test_config_without_objective_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"method": "sgd"}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: objective is required\n"


def test_cluster_master_seed_exits_one(config_path, tmp_path, capsys):
    # Each trial seeds its own batches, so a cluster seed would have no effect.
    out = tmp_path / "o"
    assert main(["run", "--config", config_path, "--out", str(out),
                 "--set", "cluster.master_seed=12345"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cluster.master_seed must be 0")
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("option,message", [
    (["--set", "master_seed=-1"], "master_seed must be >= 0"),
    (["--seed", "-1"], "master_seed must be >= 0"),
])
def test_seed_override_that_cannot_run_exits_one(config_path, tmp_path, capsys,
                                                  option, message):
    out = tmp_path / "o"
    assert main(["run", "--config", config_path, "--out", str(out),
                 *option]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1 and not out.exists()


def _edited(doc, path, value):
    """A deep copy of the config document `doc` with the dotted `path` set to
    `value`, creating the sections it passes through."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


def _run_files(tmp_path, name, doc, *options):
    """The files `exsgd run` writes for the config `doc` (and `options`),
    by name."""
    path, out = tmp_path / f"{name}.json", tmp_path / name
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(out), *options]) == 0
    return {entry: (out / entry).read_bytes() for entry in os.listdir(out)}


@pytest.mark.parametrize("path,value", [
    ("objective.shift_spread", 0.0),
    ("objective.sample_count", 30),
    ("objective.shift_mean", [1.0, -1.0, 0.5]),
    ("schedule.kind", "inverse_sqrt"),
    ("noise.kind", "isotropic_gaussian"),
    ("post_local.local_steps_H", 3),
])
def test_set_writes_what_the_same_config_file_key_writes(path, value,
                                                         tmp_path, capsys):
    # A dotted path is the config file's key: a maker argument remakes the
    # objective, and an unset section is built from its defaults.
    files = _run_files(tmp_path, "set", BASE_CONFIG,
                       "--set", f"{path}={json.dumps(value)}")
    assert files == _run_files(tmp_path, "file", _edited(BASE_CONFIG, path, value))
    config = json.loads(files["manifest.json"])["config"]
    if path.startswith("objective."):
        assert config["objective"] == _edited(
            dict(BASE_CONFIG["objective"], diag=None, matrix=None, shifts=None),
            path.split(".", 1)[1], value)
    # The manifest's config replays every file byte-identical.
    assert _run_files(tmp_path, "replay", config) == files
    capsys.readouterr()


def test_generator_seed_override_regenerates_the_data(tmp_path, capsys):
    # The maker is called again with the new seed: the run is the seed-5
    # config file's run, not the seed-2 data under a new label.
    files = _run_files(tmp_path, "set", BASE_CONFIG,
                       "--set", "objective.generator_seed=5")
    assert files == _run_files(tmp_path, "five", _edited(
        BASE_CONFIG, "objective.generator_seed", 5))
    assert files["trial_0.jsonl"] != _run_files(
        tmp_path, "two", BASE_CONFIG)["trial_0.jsonl"]
    capsys.readouterr()


@pytest.mark.parametrize("override,message", [
    ("objective.shift_spread=nan", "objective.shift_spread must be finite float"),
    ("schedule.kind=bogus", "unknown schedule kind 'bogus'"),
    # A negative total_steps would switch off the decay milestones.
    ("schedule.total_steps=-5", "total_steps must be >= 0"),
    ('objective={"maker":"bogus","dimension":3,"sample_count":24}',
     "unknown objective maker 'bogus'"),
    # The maker call keeps its 3-entry shift_mean, so a new dimension or an
    # explicit shifts array must fit it and the sample count.
    ("objective.dimension=2", "shift_mean has shape (3,), expected (2,) "
     "for sample_count=24, dimension=2"),
    ("objective.shifts=" + json.dumps([[0.0] * 2] * 23), "shifts has shape "
     "(23, 2), expected (24, 3) for sample_count=24, dimension=3"),
    # A well-shaped shifts array would make that shift_mean and the
    # shift_spread 1.5 dead arguments of the recorded call.
    ("objective.shifts=" + json.dumps([[0.0] * 3] * 24), "shift_mean and "
     "shift_spread shape drawn shifts only: leave them unset with explicit shifts"),
])
def test_bad_value_at_a_maker_argument_or_unset_section_exits_one(
        config_path, tmp_path, capsys, override, message):
    out = tmp_path / "o"
    assert main(["run", "--config", config_path, "--out", str(out),
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("entry", ["config", "set", "grid"])
def test_negative_generator_seed_exits_one_naming_the_argument(entry, tmp_path,
                                                               capsys):
    doc, args = BASE_CONFIG, ["run"]
    if entry == "config":
        doc = _edited(BASE_CONFIG, "objective.generator_seed", -1)
    elif entry == "set":
        args += ["--set", "objective.generator_seed=-1"]
    else:
        args = ["sweep", "--grid", "objective.generator_seed=3,-1"]
    path, out = tmp_path / "c.json", tmp_path / "o"
    path.write_text(json.dumps(doc))
    assert main([*args, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.endswith(
        "generator_seed must be >= 0, got -1\n")
    assert len(err.splitlines()) == 1


def test_every_set_section_is_validated_even_if_the_method_ignores_it(
        tmp_path, capsys):
    doc = dict(BASE_CONFIG, noise={"kind": "bogus", "raw_scale": -1},
               post_local={"local_steps_H": 0})
    path, out = tmp_path / "c.json", tmp_path / "o"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown noise kind 'bogus'\n"
    assert not out.exists()


def test_sgd_theory_report_does_not_depend_on_momentum_u(config_path,
                                                          tmp_path, capsys):
    # sgd applies no momentum, so neither may its replay: its trajectory and
    # its theory report are the same for any momentum_u.
    reports = []
    for u in ("0.5", "0.0"):
        out = tmp_path / u
        assert main(["run", "--config", config_path, "--out", str(out),
                     "--set", "method=sgd", "--set", "hyperparams.lr_gamma=0.02",
                     "--set", f"hyperparams.momentum_u={u}",
                     "--set", "record_virtual_sequence=true"]) == 0
        reports.append((out / "theory_report.json").read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()


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
    ('objective={"maker":"quadratic","dimension":-3,"sample_count":24}',
     "dimension must be >= 1, got -3"),
    ('objective={"maker":"logistic","dimension":3,"sample_count":0}',
     "sample_count must be >= 1, got 0"),
    ('objective={"maker":"tiny_mlp","widths":[2,-1,1],"sample_count":24}',
     "widths[1] must be >= 1, got -1"),
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


def test_manifest_objective_is_the_config_makers_call(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["objective"] == dict(BASE_CONFIG["objective"], diag=None,
                                       matrix=None, shifts=None)


@pytest.mark.parametrize("kind,override", [
    ("quadratic", "objective.quad_diag=[1, 2, 3]"),
    ("logistic", "objective.logit_l2=0.01"),
    ("tiny_mlp", "objective.mlp_f_star=0.001"),
])
def test_altered_objective_is_written_in_full_and_replays(kind, override,
                                                          tmp_path, capsys):
    path, first, second = (tmp_path / name for name in ("c.json", "1", "2"))
    path.write_text(json.dumps(dict(BASE_CONFIG, objective=_OBJECTIVES[kind])))
    assert main(["run", "--config", str(path), "--out", str(first),
                 "--set", override]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert "maker" not in config["objective"]
    assert config["objective"]["kind"] == kind
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(second)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name
    capsys.readouterr()


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_codes(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_main_calls_in_one_process_behave_as_in_a_fresh_one(
        config_path, tmp_path, monkeypatch, capsys):
    # The parser is built once per process; each call below must exit,
    # print and write as it does with a parser built just for it.
    calls = [["run", "--config", config_path, "--out", "out",
              "--set", "hyperparams.lr_gamma=0.02"],
             ["list-methods"],
             ["run", "--config", config_path, "--bogus"],
             ["run", "--config", config_path, "--out", "out",
              "--set", "hyperparams.lr_gamma=0.02"]]

    def outcomes(fresh):
        seen = []
        for i, argv in enumerate(calls):
            if fresh:
                build_parser.cache_clear()
            here = tmp_path / ("fresh" if fresh else "shared") / str(i)
            here.mkdir(parents=True)
            monkeypatch.chdir(here)
            code = main(argv)
            written = {name: (here / "out" / name).read_bytes()
                       for name in sorted(os.listdir(here / "out"))} \
                if (here / "out").exists() else {}
            seen.append((code, capsys.readouterr(), written))
        return seen

    shared = outcomes(fresh=False)
    assert build_parser() is build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 1, 0]
    assert "--bogus" in shared[2][1].err
    assert shared[0] == shared[3] and shared[0][2]
    manifest = json.loads(shared[3][2]["manifest.json"])
    assert manifest["config"]["hyperparams"]["lr_gamma"] == 0.02
    assert shared == outcomes(fresh=True)


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
    table = json.loads(pathlib.Path(out, "sweep.json").read_text())
    assert len(table["rows"]) == 2
    assert "best" in table
    assert "->" in capsys.readouterr().out


def test_sweep_grid_takes_array_values(config_path, tmp_path, capsys):
    # Each grid value is the config file's shift_mean; a row's final loss is
    # the mean over its trials of `run` on that config file.
    out = tmp_path / "out"
    means = [[1.0, 1.0, 1.0], [3.0, -1.0, 0.5]]
    assert main(["sweep", "--config", config_path, "--out", str(out),
                 "--grid", "objective.shift_mean=" + ",".join(map(json.dumps, means))]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert [row["point"] for row in rows] == [{"objective.shift_mean": m} for m in means]
    for row, mean in zip(rows, means):
        files = _run_files(tmp_path, str(mean), _edited(
            BASE_CONFIG, "objective.shift_mean", mean))
        finals = [float(line.split(",")[3]) for line in
                  files["aggregate.csv"].decode().splitlines()[1:]]
        assert row["final_loss_mean"] == float(np.mean(finals))
    assert rows[0]["final_loss_mean"] != rows[1]["final_loss_mean"]
    capsys.readouterr()


def test_grid_values_are_a_json_array_or_else_split_at_commas():
    assert _parse_grid(["a=[1,2],[2,3]", 'b={"k":1},{"k":[2]}', "c=0.1,2,null",
                        "d=isotropic_gaussian,none", "e=1,x,,", "f="]) == {
        "a": [[1, 2], [2, 3]], "b": [{"k": 1}, {"k": [2]}], "c": [0.1, 2, None],
        "d": ["isotropic_gaussian", "none"], "e": [1, "x"], "f": []}


@pytest.mark.parametrize("command,message", [
    (["run", "--set", "trials"], "--set expects KEY=VALUE, got 'trials'"),
    (["sweep", "--grid", "trials"], "--grid expects KEY=V1,V2,..., got 'trials'"),
    (["speedup", "--epsilon", "2.0"], "speedup needs at least one --kb KxB"),
])
def test_option_without_its_value_exits_one_naming_the_option(
        config_path, tmp_path, capsys, command, message):
    out = tmp_path / "o"
    assert main([*command, "--config", config_path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_sweep_without_grid_exits_one(config_path, tmp_path, capsys):
    assert main(["sweep", "--config", config_path,
                 "--out", str(tmp_path / "o")]) == 1
    assert "grid" in capsys.readouterr().err


def test_speedup_writes_table(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["speedup", "--config", config_path, "--out", out,
                 "--set", "method=sgd", "--set", "trials=3",
                 "--kb", "1x4", "--kb", "2x4", "--epsilon", "2.0"]) == 0
    table = json.loads(pathlib.Path(out, "speedup.json").read_text())
    assert [r["kb"] for r in table["rows"]] == [4, 8]
    assert "critical_kb" in table
    assert "mean steps" in capsys.readouterr().out


def test_speedup_prints_how_many_trials_are_censored(config_path, tmp_path,
                                                     monkeypatch, capsys):
    # A budget of one step: no trial reaches epsilon.
    monkeypatch.setattr(harness, "_SPEEDUP_BUDGET", 0)
    assert main(["speedup", "--config", config_path, "--out", str(tmp_path / "o"),
                 "--set", "method=sgd", "--set", "trials=3",
                 "--kb", "1x4", "--epsilon", "2.0"]) == 0
    assert "mean steps None [3 censored]\n" in capsys.readouterr().out


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


@pytest.mark.parametrize("kb", ["2x", "x4", "2x3x4", "axb", "8"])
def test_speedup_with_a_malformed_kb_exits_one_naming_the_option(
        config_path, tmp_path, capsys, kb):
    out = tmp_path / "o"
    assert main(["speedup", "--config", config_path, "--out", str(out),
                 "--epsilon", "2.0", "--kb", kb]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --kb expects KxB (e.g. 4x16), got {kb!r}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("epsilon,shown", [
    ("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")])
def test_speedup_with_a_bad_epsilon_exits_one_naming_the_option(
        config_path, tmp_path, capsys, epsilon, shown):
    out = tmp_path / "o"
    assert main(["speedup", "--config", config_path, "--out", str(out),
                 "--kb", "1x4", "--epsilon", epsilon]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: --epsilon must be a finite number > 0, "
                            f"got {shown}\n")
    assert captured.out == "" and not out.exists()


# A flat quadratic (L = 0) and one whose every sample is its minimum
# (sigma^2 = r0 = 0): the theory has no stepsize cap for the first and no
# critical batch size for either.
_FLAT = dict(BASE_CONFIG, record_virtual_sequence=True, objective=dict(
    BASE_CONFIG["objective"], diag=[0.0, 0.0, 0.0]))
_AT_MINIMUM = dict(BASE_CONFIG, method="sgd", objective=dict(
    BASE_CONFIG["objective"], shift_spread=0.0, shift_mean=None))


def test_run_on_a_flat_objective_records_the_rate_bound_error(tmp_path):
    path, out = tmp_path / "flat.json", tmp_path / "o"
    path.write_text(json.dumps(_FLAT))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "theory_report.json").read_text())
    assert [entry["rate_bound_error"] for entry in report["trials"]] == [
        "rate bounds need lipschitz_L > 0, got 0.0"] * 2


@pytest.mark.parametrize("doc,error", [
    (_FLAT, "rate bounds need lipschitz_L > 0, got 0.0"),
    (_AT_MINIMUM, "a critical batch size needs lipschitz_L * r0 > 0, "
                  "got L=1.0, r0=0.0"),
], ids=["flat", "at-minimum"])
def test_speedup_without_a_bound_exits_one_without_traceback(
        tmp_path, capsys, doc, error):
    path, out = tmp_path / "config.json", tmp_path / "o"
    path.write_text(json.dumps(doc))
    assert main(["speedup", "--config", str(path), "--out", str(out),
                 "--epsilon", "0.1", "--kb", "1x2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == "" and not out.exists()


def test_local_batch_override_moves_the_default_extrap_batch(config_path,
                                                             tmp_path, capsys):
    # An unset extrap_batch_b is B wherever it is read, so overriding B
    # moves it too: the run is the one with b = B = 8 set explicitly.
    outs = {}
    for name, sets in (("unset", []), ("explicit", ["cluster.extrap_batch_b=8"])):
        outs[name] = tmp_path / name
        assert main(["run", "--config", config_path, "--out", str(outs[name]),
                     "--set", "method=extrap_sgd",
                     "--set", "cluster.local_batch_B=8", *(
                         arg for s in sets for arg in ("--set", s))]) == 0
    cluster = json.loads((outs["unset"] / "manifest.json").read_text())[
        "config"]["cluster"]
    assert (cluster["local_batch_B"], cluster["extrap_batch_b"]) == (8, None)
    for name in ("aggregate.csv", "trial_0.jsonl", "trial_1.jsonl"):
        assert filecmp.cmp(outs["unset"] / name, outs["explicit"] / name,
                           shallow=False), name
    capsys.readouterr()


def test_sweep_over_local_batch_keeps_the_default_extrap_batch(config_path,
                                                               tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--config", config_path, "--out", str(out),
                 "--set", "method=extrap_sgd",
                 "--grid", "cluster.local_batch_B=2,4"]) == 0
    table = json.loads((out / "sweep.json").read_text())
    assert [row["point"] for row in table["rows"]] == [
        {"cluster.local_batch_B": 2}, {"cluster.local_batch_B": 4}]
    capsys.readouterr()


def test_smoothness_demo_prints_top_eigenvalue(capsys):
    assert main(["smoothness"]) == 0
    out = capsys.readouterr().out
    assert "4" in out


def test_smoothness_with_config_reports_analytic_l(config_path, capsys):
    assert main(["smoothness", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "estimated L" in out and "analytic L" in out


def test_smoothness_with_config_probes_the_decayed_objective(tmp_path, capsys):
    # A 1-D quadratic of curvature 1 under weight decay 1: both the probe
    # along -grad(f + ||x||^2 / 2) and the analytic L read 2.
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(dict(
        BASE_CONFIG, objective={"maker": "quadratic", "dimension": 1,
                                "sample_count": 8, "generator_seed": 3,
                                "diag": [1.0]},
        hyperparams={"lr_gamma": 0.05, "weight_decay": 1.0})))
    assert main(["smoothness", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "estimated L along -grad at x0", "analytic L"]
    assert float(lines[0].split(":")[1]) == pytest.approx(2.0, rel=1e-8)
    assert float(lines[1].split(":")[1]) == 2.0


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


def test_smoothness_takes_no_seed(capsys):
    assert main(["smoothness", "--seed", "5"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_smoothness_set_without_config_exits_one(capsys):
    assert main(["smoothness", "--set", "trials=2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --set needs --config\n"
    assert captured.out == ""


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
    ("hyperparams.lr_gamma=", "'hyperparams.lr_gamma' has no values"),
    ("hyperparams.lr_gamma=0.05,NaN", "hyperparams.lr_gamma must be finite"),
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


# Golden outputs: `exsgd run` on fixed maker-built configs must write the same
# bytes before and after a refactor.  The shape is the benchmark's cli_threads
# run with fewer steps (logistic d=20, N=512, K=4, B=16, 2 trials), plus one
# tiny-MLP extrap_noise run whose filter-scaled noise and LARS read the
# objective's block partition, and one tiny-MLP extrap_sgd run that stores
# past gradients over b = 5 of the B = 16 indices.  Two more replayed runs, a
# dense-matrix quadratic (nesterov, with smoothness probes) and a tiny MLP
# (extrap_sgd), use weight decay and record every 7th step.
_GOLDEN_STEPS = 40


def _golden_doc(method):
    doc = {
        "objective": {"maker": "logistic", "dimension": 20,
                      "sample_count": 512, "generator_seed": 3, "l2": 1e-3},
        "cluster": {"workers_K": 4, "local_batch_B": 16},
        "method": method,
        "hyperparams": {"lr_gamma": 0.005, "momentum_u": 0.5},
        "total_steps_T": _GOLDEN_STEPS, "record_every": 1, "trials": 2,
        "master_seed": 7,
        "record_virtual_sequence": method in ("extrap_sgd", "extrap_noise"),
    }
    if method in ("adam", "extrap_adam"):
        doc["hyperparams"] = {"lr_gamma": 0.01}
    if method == "extrap_noise":
        doc["noise"] = {"kind": "isotropic_gaussian", "raw_scale": 0.1}
    if method == "post_local":
        doc["post_local"] = {"transition_step_t0": _GOLDEN_STEPS // 2,
                             "local_steps_H": 4}
    return doc


def _golden_mlp_doc():
    return dict(
        _golden_doc("extrap_noise"),
        objective={"maker": "tiny_mlp", "widths": [3, 4, 2],
                   "sample_count": 128, "generator_seed": 3},
        hyperparams={"lr_gamma": 0.05, "momentum_u": 0.9, "lars_trust": 0.02},
        noise={"kind": "isotropic_gaussian", "filter_scaled": True})


def _golden_sub_batch_doc():
    return dict(
        _golden_doc("extrap_sgd"),
        objective={"maker": "tiny_mlp", "widths": [3, 4, 2],
                   "sample_count": 128, "generator_seed": 3},
        cluster={"workers_K": 4, "local_batch_B": 16, "extrap_batch_b": 5},
        hyperparams={"lr_gamma": 0.05, "momentum_u": 0.9})


def _golden_decay_doc(method, objective, lr_gamma, **extra):
    return dict(
        _golden_doc(method), objective=objective, record_every=7,
        record_virtual_sequence=True,
        hyperparams={"lr_gamma": lr_gamma, "momentum_u": 0.5,
                     "weight_decay": 0.01}, **extra)


def _golden_dense_quadratic_doc():
    return _golden_decay_doc(
        "nesterov", {"maker": "quadratic", "dimension": 3, "sample_count": 64,
                     "generator_seed": 5,
                     "matrix": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.25],
                                [0.0, 0.25, 0.5]]},
        0.05, record_smoothness_every=14)


def _golden_mlp_decay_doc():
    return _golden_decay_doc(
        "extrap_sgd", {"maker": "tiny_mlp", "widths": [3, 4, 2],
                       "sample_count": 128, "generator_seed": 3}, 0.002)


# Three runs that stack more trials than two: five extrap_noise trials with a
# shared SmoothOut draw, a warmup/step-decay schedule (so no replay) and
# epoch-permuted batches that cross an epoch boundary; anisotropic
# past-gradient noise over b = 8 of B = 16 with the replay on; and three
# post-local trials whose workers start the local phase with zero momentum.
def _golden_schedule_doc():
    return dict(
        _golden_doc("extrap_noise"), trials=5,
        cluster={"workers_K": 4, "local_batch_B": 16,
                 "sampling_mode": "epoch_permutation"},
        noise={"kind": "smoothout_shared", "raw_scale": 0.05},
        schedule={"kind": "warmup_step_decay", "base_lr": 0.002,
                  "scale_factor": 2.0, "warmup_epochs": 1})


def _golden_anisotropic_doc():
    return dict(
        _golden_doc("extrap_noise"),
        cluster={"workers_K": 4, "local_batch_B": 16, "extrap_batch_b": 8},
        noise={"kind": "anisotropic_stochastic"})


# Two tiny-MLP runs over b = 5 of B = 16: extrap_noise with filter-scaled
# isotropic Gaussian noise and LARS, whose workers store leading-b gradients
# no step reads, and extrap_adam, whose lookahead reads them.
def _golden_mlp_gaussian_sub_batch_doc():
    return dict(_golden_mlp_doc(),
                cluster={"workers_K": 4, "local_batch_B": 16, "extrap_batch_b": 5})


def _golden_mlp_adam_sub_batch_doc():
    return dict(
        _golden_doc("extrap_adam"),
        objective={"maker": "tiny_mlp", "widths": [3, 4, 2],
                   "sample_count": 128, "generator_seed": 3},
        cluster={"workers_K": 4, "local_batch_B": 16, "extrap_batch_b": 5})


def _golden_post_local_reset_doc():
    return dict(
        _golden_doc("post_local"), trials=3,
        hyperparams={"lr_gamma": 0.005, "momentum_u": 0.5,
                     "reset_local_momentum": True})


# Six replayed extrap_sgd trials on a quadratic whose sample 5 has the shift
# 1e308: a batch that holds it overflows the step, so five trials abort, at
# steps 1, 5, 6, 7 and 11, one of them a recorded step, and the sixth runs
# on (every full-sample metric is inf).  Steps are recorded every third,
# smoothness probed every second, so only steps 0, 6, 12 and 18 probe.
def _golden_abort_doc():
    shifts = [[1.0, 1.0]] * 32
    shifts[5] = [1e308, 1e308]
    return dict(
        _golden_doc("extrap_sgd"),
        objective={"maker": "quadratic", "dimension": 2, "sample_count": 32,
                   "diag": [10.0, 10.0], "shifts": shifts},
        cluster={"workers_K": 2, "local_batch_B": 1},
        hyperparams={"lr_gamma": 0.01, "momentum_u": 0.5},
        total_steps_T=20, record_every=3, record_smoothness_every=2,
        trials=6, master_seed=3)


# First 16 hex digits of each written file's sha256.
GOLDEN_DIGESTS = {
    "sgd": {"aggregate.csv": "fd4829fc572c34d8",
            "manifest.json": "a04f31612a933b7e",
            "trial_0.jsonl": "9f4d390953e5bb3f",
            "trial_1.jsonl": "fa03d543d073771e"},
    "nesterov": {"aggregate.csv": "a45e8858af9731bc",
                 "manifest.json": "18f3f43047b399c7",
                 "trial_0.jsonl": "fcf3c4fcbdc1057e",
                 "trial_1.jsonl": "a59ca6b8e9035013"},
    "extrap_sgd": {"aggregate.csv": "80b8d543db30c460",
                   "manifest.json": "5271fee2e9c224ff",
                   "theory_report.json": "a36410ad036c17ec",
                   "trial_0.jsonl": "7acf27c4e1544a1b",
                   "trial_1.jsonl": "03f21fdabd3eef1a"},
    "extrap_noise": {"aggregate.csv": "19ed157f8773db7d",
                     "manifest.json": "feee8e74a7fe5291",
                     "theory_report.json": "b467af5c1dea2dbe",
                     "trial_0.jsonl": "4c7666951acd3165",
                     "trial_1.jsonl": "8abf34ff4b4c198f"},
    "adam": {"aggregate.csv": "f6092c06d7b1dba9",
             "manifest.json": "b495d19e6a2ca9a7",
             "trial_0.jsonl": "542d5e53b57206f6",
             "trial_1.jsonl": "bcf1f00cf9c07fae"},
    "extrap_adam": {"aggregate.csv": "41c438409f3a9b28",
                    "manifest.json": "033e7f0fa9373d08",
                    "trial_0.jsonl": "f8557576fb3e5512",
                    "trial_1.jsonl": "f2338e8c9e8c3769"},
    "post_local": {"aggregate.csv": "f9a5fee495020b1e",
                   "manifest.json": "fdd8b54e95b1325d",
                   "trial_0.jsonl": "19f9262a4510a4bf",
                   "trial_1.jsonl": "2b2e8534e4ede4b5"},
    "tiny_mlp_extrap_noise": {"aggregate.csv": "a68b65b676c9a6fe",
                              "manifest.json": "5e91e3e66b326fcb",
                              "theory_report.json": "e9bc7c6315e03ae0",
                              "trial_0.jsonl": "0e5e2936c819cf95",
                              "trial_1.jsonl": "f13782350d8e37e8"},
    "tiny_mlp_extrap_sgd_sub_batch": {"aggregate.csv": "0dc1670ff597b54d",
                                      "manifest.json": "47ba712aaa23a6b8",
                                      "theory_report.json": "49b28a7973e7aa17",
                                      "trial_0.jsonl": "25f0de4e42d326db",
                                      "trial_1.jsonl": "bce9487220361c36"},
    "dense_quadratic_nesterov_decay": {"aggregate.csv": "b0565450d2e3eb8a",
                                       "manifest.json": "c46313678921a3f4",
                                       "theory_report.json": "f378f0d89c16f3c7",
                                       "trial_0.jsonl": "b1ee64725bf24260",
                                       "trial_1.jsonl": "d5926d9c0a4fe191"},
    "tiny_mlp_extrap_sgd_decay": {"aggregate.csv": "1a666c20368eee71",
                                  "manifest.json": "12c23ef9e7a073da",
                                  "theory_report.json": "222ae51ec84ec521",
                                  "trial_0.jsonl": "b6df5f4fd34941f6",
                                  "trial_1.jsonl": "0ccd17f10a9c06be"},
    "five_trials_schedule_smoothout_epochs": {
        "aggregate.csv": "04b95c5147a26651",
        "manifest.json": "10d9abe0f8a3a5d3",
        "trial_0.jsonl": "2513e366ec8af90f",
        "trial_1.jsonl": "528f8b4d3c40bfc5",
        "trial_2.jsonl": "c86e521bf2cec4e8",
        "trial_3.jsonl": "eb9b72169a05eeb7",
        "trial_4.jsonl": "e53b39eb73a9c7ec"},
    "anisotropic_noise_sub_batch": {"aggregate.csv": "f531137962b618f7",
                                    "manifest.json": "83cbe02a6e5b310a",
                                    "theory_report.json": "c906978bb17d77e1",
                                    "trial_0.jsonl": "51f15e9dff2998ff",
                                    "trial_1.jsonl": "96ac296fecd43a15"},
    "post_local_three_trials_reset": {"aggregate.csv": "17b503d0edec0f3b",
                                      "manifest.json": "d914f79ff3c4622e",
                                      "trial_0.jsonl": "9bf74ec8197d1d26",
                                      "trial_1.jsonl": "270cb75726051622",
                                      "trial_2.jsonl": "967823d24641b701"},
    "six_trials_five_abort": {"aggregate.csv": "33cced95f6bacfe4",
                              "manifest.json": "93c494e7cd9cd058",
                              "theory_report.json": "f5d3e05c32907d8c",
                              "trial_0.jsonl": "dd99854f0fec9bd3",
                              "trial_1.jsonl": "fa76a611b70bba85",
                              "trial_2.jsonl": "08241f71884fa9d8",
                              "trial_3.jsonl": "47c31e1ccbbc5d07",
                              "trial_4.jsonl": "5ef028697d2bef9f",
                              "trial_5.jsonl": "26a6e8b676f8f256"},
    "tiny_mlp_gaussian_noise_sub_batch": {"aggregate.csv": "a68b65b676c9a6fe",
                                          "manifest.json": "9c343ba0185ab07e",
                                          "theory_report.json": "e9bc7c6315e03ae0",
                                          "trial_0.jsonl": "0e5e2936c819cf95",
                                          "trial_1.jsonl": "f13782350d8e37e8"},
    "tiny_mlp_extrap_adam_sub_batch": {"aggregate.csv": "9f22c71fc14fe9c1",
                                       "manifest.json": "cbb4e1da820fae13",
                                       "trial_0.jsonl": "b3362394baa14650",
                                       "trial_1.jsonl": "e3cac4c268c79e2a"},
}


def _written_digests(doc, tmp_path, code=0):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(out)]) == code
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
            for name in sorted(os.listdir(out))}


_GOLDEN_DOCS = {"tiny_mlp_extrap_noise": _golden_mlp_doc,
                "tiny_mlp_extrap_sgd_sub_batch": _golden_sub_batch_doc,
                "dense_quadratic_nesterov_decay": _golden_dense_quadratic_doc,
                "tiny_mlp_extrap_sgd_decay": _golden_mlp_decay_doc,
                "five_trials_schedule_smoothout_epochs": _golden_schedule_doc,
                "anisotropic_noise_sub_batch": _golden_anisotropic_doc,
                "post_local_three_trials_reset": _golden_post_local_reset_doc,
                "six_trials_five_abort": _golden_abort_doc,
                "tiny_mlp_gaussian_noise_sub_batch": _golden_mlp_gaussian_sub_batch_doc,
                "tiny_mlp_extrap_adam_sub_batch": _golden_mlp_adam_sub_batch_doc}


@pytest.mark.parametrize("case", [*METHODS, *_GOLDEN_DOCS])
def test_run_writes_golden_bytes(case, tmp_path, capsys):
    doc = _GOLDEN_DOCS[case]() if case in _GOLDEN_DOCS else _golden_doc(case)
    # The abort case exits 2 past its overflowing steps.
    code = 2 if case == "six_trials_five_abort" else 0
    digests = _written_digests(doc, tmp_path, code=code)
    assert digests == GOLDEN_DIGESTS[case]
    capsys.readouterr()


# First 16 hex digits of the file each other `_dump_json` writer produces on
# a small fixed config, so every writer is pinned byte for byte, not only run.
WRITER_DIGESTS = {
    "sweep": ("sweep.json", "a61faa6a68da2bbc"),
    "speedup": ("speedup.json", "1cb0c53e0a1c5af7"),
    "verify": ("theory_report.json", "13af670d2303f7f7"),
}

_WRITER_ARGS = {
    "sweep": ["--grid", "hyperparams.lr_gamma=0.002,0.005",
              "--grid", "hyperparams.momentum_u=0,0.5"],
    "speedup": ["--kb", "1x4", "--kb", "2x8", "--epsilon", "0.15"],
    "verify": [],
}


@pytest.mark.parametrize("command", sorted(WRITER_DIGESTS))
def test_other_writers_write_golden_bytes(command, tmp_path, capsys):
    argv = [command, "--out", str(tmp_path / "out"), *_WRITER_ARGS[command]]
    if command != "verify":
        doc = dict(_golden_doc("extrap_sgd"), total_steps_T=20,
                   record_virtual_sequence=False)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        argv[1:1] = ["--config", str(path)]
    assert main(argv) == 0
    name, digest = WRITER_DIGESTS[command]
    written = (tmp_path / "out" / name).read_bytes()
    assert hashlib.sha256(written).hexdigest()[:16] == digest
    capsys.readouterr()
