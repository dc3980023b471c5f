"""The checked-in tools under tools/, loaded by path."""

import importlib.util
import json
import pathlib
import subprocess

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

_SNIPPET = '''"""A module docstring
on two lines."""

# a comment line
def f(a, b):
    """A function docstring."""
    return max(a,
               b)   # a two-line call with a trailing comment


text = """a string that is
not a docstring"""
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_not_docstrings_comments_or_blanks(tmp_path,
                                                                 capsys):
    # def, both lines of the call and both lines of the assigned string.
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET)
    tool = _load("code_lines")
    assert tool.code_lines(_SNIPPET) == 5
    assert tool.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == f"     5 {path}\n     5 {path}\n    10 total\n"


# A stand-in for benchmark/run.py: it reports the steps/s in its tree's
# speed.txt, a wall time, and a fixed digest, and logs its speed to the file
# that BENCH_LOG names, so the order of the runs shows.
_FAKE_RUN = '''import json, os, pathlib, sys
root = pathlib.Path(__file__).resolve().parents[1]
speed = float((root / "speed.txt").read_text())
with open(os.environ["BENCH_LOG"], "a") as fh:
    fh.write(f"{speed:g} {' '.join(sys.argv[1:])}\\n")
print("digest sha256:" + "ab" * 32)
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "steps_per_s": {"value": speed, "unit": "steps/s"},
    "wall_s": {"value": 100.0 / speed, "unit": "s"}}}))
'''

_FAKE_BENCHMARK = {"end_to_end": [{"name": "wall_s", "better": "lower"},
                                  {"name": "steps_per_s", "better": "higher"},
                                  {"name": "peak_rss_mb", "better": "lower"}]}


def test_bench_pairs_alternates_the_trees_and_writes_its_schema(
        tmp_path, monkeypatch, capsys):
    repo, log, out = tmp_path / "repo", tmp_path / "runs.log", tmp_path / "b.json"
    (repo / "benchmark").mkdir(parents=True)
    (repo / "benchmark" / "run.py").write_text(_FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(_FAKE_BENCHMARK))
    (repo / "speed.txt").write_text("100")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    (repo / "speed.txt").write_text("110")       # the uncommitted change
    monkeypatch.chdir(repo)
    monkeypatch.setenv("BENCH_LOG", str(log))
    tool = _load("bench_pairs")
    args = ["--parent", "HEAD", "--workload", "wide_models", "--pairs", "3",
            "--seed", "7", "--seconds", "0.5", "--out", str(out)]
    assert tool.main(args) == 0
    assert log.read_text().splitlines() == [
        f"{speed} --workload wide_models --seed 7 --seconds 0.5 --trace 0"
        for speed in ("100", "110", "110", "100", "100", "110")]
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["comparisons", "machine"]
    assert sorted(doc["machine"]) == ["blas", "cpu_model", "nproc", "numpy",
                                      "openblas_coretype", "python"]
    (entry,) = doc["comparisons"]
    assert sorted(entry) == ["change", "correct", "digests", "metrics",
                             "pairs", "parent", "seconds", "seed", "workload"]
    assert (entry["workload"], entry["seed"], entry["correct"]) == (
        "wide_models", 7, True)
    assert entry["change"]["dirty"] is True
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    assert entry["digests"] == {"parent": ["ab" * 32], "change": ["ab" * 32],
                                "equal": True}
    assert sorted(entry["metrics"]) == ["steps_per_s", "wall_s"]
    steps = entry["metrics"]["steps_per_s"]
    assert steps["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert steps["change"]["median"] == 110.0
    assert (steps["better"], steps["wins"], steps["resolved"]) == ("higher", 3, True)
    assert steps["median_gain"] == 10.0 and steps["parent_iqr"] == 0.0
    wall = entry["metrics"]["wall_s"]
    assert (wall["better"], wall["wins"], wall["resolved"]) == ("lower", 3, True)
    # A second seed joins the file; the same workload and seed replaces.
    assert tool.main([*args[:7], "8", *args[8:]]) == 0
    assert tool.main(args) == 0
    assert [(c["workload"], c["seed"]) for c in json.loads(
        out.read_text())["comparisons"]] == [("wide_models", 8), ("wide_models", 7)]
    capsys.readouterr()
