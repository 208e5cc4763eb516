"""Record the benchmark's metrics over fixed seeds, for the trajectory.

    python3 benchmarks/record.py --seeds 101-110 [--tree LABEL=DIR ...]

For each workload in BENCHMARK.json and each seed, runs
``perfbench/run.py --trace 0`` and then ``--trace 1`` of every tree
(default: this checkout, labelled ``head``), alternating which tree goes
first from seed to seed, and writes ``benchmarks/BENCH_<workload>.json``:
the environment, each tree's per-seed end-to-end and per-layer metrics, the
medians of both, and the lower and upper quartiles of every end-to-end metric
that BENCHMARK.json bounds (``quartiles``) and of every per-layer metric
(``quartiles_per_layer``).  With exactly two trees it also writes, for each
of those metrics, on how many seeds the second tree's run reads better than
the first's (by the metric's ``better``; ties count for neither).  The traced
runs leave their span files in each tree's ``perfbench/out/``.

``peak_rss_mb`` depends on the length of a tree's path, and a run that finds
valid bytecode caches skips compiling, so trees are refused whose resolved
paths differ in length, or that hold ``__pycache__`` under ``src/`` or
``perfbench/`` while bytecode writing is off (``-B`` or
``PYTHONDONTWRITEBYTECODE``, which the runs inherit).  The environment records
both.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    # Under -B as well, the runs and the processes they start write no bytecode.
    child_env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"} if sys.dont_write_bytecode else None
    lines = subprocess.run(argv, cwd=tree, env=child_env, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[len("# env "):])
    result = json.loads(lines[-1])
    metrics = {name: float(rest.split()[0]) for name, sep, rest in
               (ln.partition(": ") for ln in lines[:-1] if not ln.startswith("#")) if sep}
    return env, {"correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": metrics}


def medians(records: list[dict]) -> dict:
    return {name: statistics.median(r["metrics"][name] for r in records)
            for name in records[0]["metrics"]}


def quartiles(records: list[dict], names) -> dict:
    """Lower and upper quartile of each named metric, interpolated linearly
    as numpy's default."""
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in records]
        if len(values) < 2:
            out[name] = values * 2
        else:
            out[name] = statistics.quantiles(values, n=4, method="inclusive")[::2]
    return out


def wins(first: list[dict], second: list[dict], metric: dict) -> int:
    """Seeds on which the second tree's run reads better than the first's."""
    sign = 1 if metric["better"] == "lower" else -1
    name = metric["name"]
    return sum(sign * (a["metrics"][name] - b["metrics"][name]) > 0 for a, b in zip(first, second))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    ap.add_argument("--tree", action="append", default=[], help="LABEL=DIR of a covnet checkout")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        ap.error(f"--seeds must read first-last with first <= last, not '{args.seeds}'")
    trees = {}
    for tree in args.tree:
        label, sep, path = tree.partition("=")
        if not (sep and label and (Path(path) / "perfbench" / "run.py").is_file()):
            ap.error(f"--tree must read LABEL=DIR of a checkout with perfbench/run.py, not '{tree}'")
        trees[label] = path
    trees = trees or {"head": str(ROOT)}
    lengths = {label: len(str(Path(path).resolve())) for label, path in trees.items()}
    if len(set(lengths.values())) > 1:
        ap.error(f"--tree paths must resolve to one length, not {lengths}")
    for label, path in trees.items():
        if sys.dont_write_bytecode and any(
                next((Path(path) / top).rglob("__pycache__"), None) for top in ("src", "perfbench")):
            ap.error(f"bytecode writing is off, yet tree '{label}' holds __pycache__ under "
                     "src/ or perfbench/, so its runs would skip compiling")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        runs, env = {label: [] for label in trees}, None
        for k, seed in enumerate(seeds):
            order = list(trees) if k % 2 == 0 else list(trees)[::-1]
            for label in order:
                env, record = run(Path(trees[label]), workload, seed, spec["run_seconds"], 0)
                runs[label].append({"seed": seed, **record})
            for label in order:
                runs[label][-1]["per_layer"] = run(Path(trees[label]), workload, seed,
                                                   spec["run_seconds"], 1)[1]
        env = {**env, "bytecode": not sys.dont_write_bytecode, "path_length": lengths}
        doc = {"workload": workload, "seeds": [seeds[0], seeds[-1]], "environment": env, "runs": {}}
        for label, records in runs.items():
            per_layer = [r["per_layer"] for r in records]
            doc["runs"][label] = {
                "median": medians(records),
                "quartiles": quartiles(records, [m["name"] for m in spec["end_to_end"]]),
                "median_per_layer": medians(per_layer),
                "quartiles_per_layer": quartiles(per_layer, per_layer[0]["metrics"]),
                "per_seed": records}
        if len(trees) == 2:
            first, second = trees
            doc["wins"] = {"tree": second, "against": first, "seeds": len(seeds), "metrics": {
                m["name"]: wins(runs[first], runs[second], m) for m in spec["end_to_end"]}}
        (ROOT / "benchmarks" / f"BENCH_{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
