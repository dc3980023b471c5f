"""Compare a change with its parent on one benchmark workload, in pairs.

Exports the parent revision with `git archive` into a temporary directory,
then runs `python3 benchmark/run.py --workload W --seed S --seconds X
--trace 0` in the parent tree and in the working tree `--pairs` times,
alternating which of the two runs first.  Each run's last JSON line gives its
end-to-end metrics and its `digest sha256:` line its output digest.  The
pairs, each side's median and quartiles, the count of pairs in which the
change was better (in the direction `BENCHMARK.json` gives for the metric),
both sides' digests and the machine are written to the JSON file `--out`;
an existing file keeps its comparisons of other workloads or seeds.  Uses
the standard library only.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload wide_models \\
        --pairs 10 --seed 1 --seconds 35 --out BENCH_31.json

A comparison's claim resolves when the change is better in at least 9 of
10 pairs and its median beats the parent's by more than the parent's
interquartile range.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
# Prints numpy's version and BLAS build as JSON, run with the change's Python.
_NUMPY_PROBE = """import json, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": np.__version__, "blas": {
    key: blas.get(key) for key in ("name", "version", "openblas configuration")}}))
"""


def _git(repo, *args, text=True):
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True, text=text).stdout


def export_tree(repo, rev, dest):
    """The files of `rev` in `repo`, written under `dest`."""
    archive = _git(repo, "archive", "--format=tar", rev, text=False)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds):
    """(metrics {name: value}, digest, correct) of one benchmark run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digests = [line.split(":", 1)[1] for line in lines
               if line.startswith("digest sha256:")]
    if proc.returncode != 0 or not lines or not digests:
        raise RuntimeError(f"benchmark run in {tree} failed "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, digests[0], bool(result["correct"])


def summary(values):
    """Median and quartiles of `values`."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs, directions):
    """Per metric, each side's summary, the pairs the change won and
    whether the claim resolves (see the module docstring)."""
    out = {}
    for name, better in directions.items():
        sign = 1.0 if better == "higher" else -1.0
        sides = {side: summary([p[side][name] for p in pairs]) for side in SIDES}
        wins = sum(sign * (p["change"][name] - p["parent"][name]) > 0
                   for p in pairs)
        base = sides["parent"]["median"]
        gain = sign * (sides["change"]["median"] - base)
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {**sides, "better": better, "wins": wins,
                     "median_gain": gain,
                     "relative_gain": gain / abs(base) if base else None,
                     "parent_iqr": spread,
                     "resolved": wins >= 0.9 * len(pairs) and gain > spread}
    return out


def machine(tree):
    """The host and numerical stack the runs measured."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], cwd=tree,
                           capture_output=True, text=True)
    stack = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": stack.get("numpy"), "blas": stack.get("blas"),
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--out", default="BENCH.json", help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    repo = _git(".", "rev-parse", "--show-toplevel").strip()
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        directions = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        export_tree(repo, args.parent, parent)
        trees = {"parent": parent, "change": repo}
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                metrics, digest, correct = run_once(
                    trees[side], args.workload, args.seed, args.seconds)
                pair[side] = {**metrics, "digest": digest, "correct": correct}
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {pair[side].get('steps_per_s', 0):.6g} steps/s"
                for side in SIDES), flush=True)
    digests = {side: sorted({p[side]["digest"] for p in pairs}) for side in SIDES}
    entry = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "parent": {"rev": args.parent,
                   "commit": _git(repo, "rev-parse", args.parent).strip()},
        "change": {"commit": _git(repo, "rev-parse", "HEAD").strip(),
                   "dirty": bool(_git(repo, "status", "--porcelain",
                                      "--untracked-files=no").strip())},
        "pairs": pairs,
        "metrics": compare(pairs, {name: better for name, better in
                                   directions.items() if name in pairs[0]["parent"]}),
        "digests": {**digests, "equal": digests["parent"] == digests["change"]},
        "correct": all(p[side]["correct"] for p in pairs for side in SIDES),
    }
    doc = {"comparisons": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["machine"] = machine(repo)
    doc["comparisons"] = [c for c in doc["comparisons"]
                          if (c["workload"], c["seed"]) != (args.workload, args.seed)]
    doc["comparisons"].append(entry)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, m in entry["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.6g}, change "
              f"{m['change']['median']:.6g}, "
              f"better in {m['wins']}/{args.pairs}, "
              f"{'resolved' if m['resolved'] else 'not resolved'}")
    print(f"digests equal: {entry['digests']['equal']}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
