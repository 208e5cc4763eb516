"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, at a tiny size, that every workload runs in both modes and prints
every metric BENCHMARK.json names with its unit; that corrupted
certificates are caught as failures (so the checks are live); that the
bipartite battery reproduces acceptance criterion 01's instance sequence;
and that the benchmark refuses to run without the covnet sources.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads and defines the checkout layout
from probe import Counters, Probe

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = ("setup_s", "setup_raw_s", "items_per_s", "latency_p50_ms", "latency_tail_ms",
              "undecided_rate", "failure_rate", "decided_rate", "success_rate", "peak_rss_mb")
# Enough items that the bipartite battery sends one through ``covnet check``.
SMOKE_ITEMS = 12


def bench(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--items", str(SMOKE_ITEMS)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_output(workload: str, trace: int) -> None:
    proc = bench(workload, trace)
    assert proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["attempted"] >= 1, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, result["metrics"]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], (m, result["metrics"][m["name"]])
    printed = {ln.split(":")[0] for ln in lines if not ln.startswith(("#", "{"))}
    names = {m["name"] for m in wanted}
    if not trace:
        names |= set(END_TO_END)
    assert names <= printed, f"{workload}: not printed: {names - printed}"
    if trace:
        assert (run.OUT / f"trace-{workload}-seed3.json").is_file()
    print(f"ok   {workload} --trace {trace}: {result['attempted']} items")


def check_corruption_caught() -> None:
    """Feed the battery checks solver results whose certificates were
    corrupted: a witness with its sign flipped, a decomposition with its
    largest term negated.  Every decided item must then fail."""
    sys.path.insert(0, str(run.SRC))
    import covnet
    import gen
    import numpy as np
    import workloads

    solve = covnet.decompose

    def corrupted(net, m, *args, **kwargs):
        res = solve(net, m, *args, **kwargs)
        if res.witness is not None:
            w = covnet.DualWitness(-res.witness.w, -res.witness.inner_product)
            return type(res)(res.status, witness=w, sweeps=res.sweeps)
        if res.decomposition is not None:
            d = res.decomposition
            name = max(d.terms, key=lambda n: np.linalg.norm(d.terms[n]))
            terms = dict(d.terms, **{name: -d.terms[name]})
            return type(res)(res.status, decomposition=covnet.Decomposition(terms, d.target, 0.0),
                             sweeps=res.sweeps)
        return res

    battery = workloads.MultipartiteBattery(5, 8, None)
    # The all-ones matrix on the triangle is infeasible (acceptance criterion 04).
    battery.items.append((gen.cycle_network(3), np.ones((3, 3)), False))
    covnet.decompose = corrupted
    try:
        decided = {"feasible": 0, "infeasible": 0}
        caught = 0
        for k in range(len(battery.items)):
            counters = Counters()
            found = battery.run_item(k, Probe(trace=False), counters)
            if not counters.undecided:
                decided["infeasible" if counters.infeasible_witness + counters.infeasible_forbidden
                        else "feasible"] += 1
                caught += any(f.wrong for f in found)
    finally:
        covnet.decompose = solve
    total = sum(decided.values())
    assert all(decided.values()) and caught == total, f"{caught} of {decided} corrupted certificates caught"
    print(f"ok   corrupted certificates caught: {caught} of {total} ({decided})")


def check_criterion_01_sequence() -> None:
    """Same seed, same instances as acceptance criterion 01."""
    support = run.ROOT / "tests" / "support.py"
    if not support.is_file():
        print("skip criterion 01 sequence: tests/support.py not present")
        return
    sys.path.insert(0, str(support.parent))
    import numpy as np
    import support as s

    import gen

    rng = np.random.default_rng(101)
    families = []
    for n in range(2, 8):
        families.append(s.path_network(n))
        if n >= 3:
            families.append(s.cycle_network(n))
            families.append(s.star_network(n))
    ours = gen.bipartite_battery(101, 60)
    for k in range(60):
        if rng.random() < 0.5:
            net = families[rng.integers(len(families))]
        else:
            net = s.random_bipartite_network(rng, int(rng.integers(2, 8)))
        cplx = bool(rng.integers(2))
        m = s.random_feasible(net, rng, cplx) if k % 2 == 0 else s.random_boundary_instance(net, rng, cplx)
        our_net, our_m, _ = next(ours)
        assert our_net == net and np.array_equal(our_m, m), f"instance {k} differs"
    print("ok   bipartite battery matches criterion 01 for 60 instances")


def check_refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("bipartite-battery", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok   refuses to run without covnet sources (exit {proc.returncode})")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_output(workload, trace)
    check_corruption_caught()
    check_criterion_01_sequence()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
