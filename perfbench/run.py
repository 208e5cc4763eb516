"""covnet benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bipartite-battery, multipartite-battery, simulate-realize,
dual-approximation (see workloads.py for why each exists).  The items of a
run are made from the seed alone, and their number is fixed per workload
(``WORKLOADS`` in workloads.py), sized so that one pass takes about
``--seconds`` on the reference machine.  A closed loop in this one process
feeds them to covnet one at a time, checking every output, for one whole
pass.

With --trace 0 the run reports the end-to-end metrics.  Among them,
setup_s is the time of ``import covnet`` in a fresh process, scaled by a
calibration to the reference machine's speed (setup_raw_s is unscaled).
With --trace 1 it runs every item once traced and once untraced
(alternating which goes first), writes the spans to perfbench/out/, and
reports per-layer metrics, per-layer self time, the untraced timings and
the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
metrics named in BENCHMARK.json.  Earlier lines print every metric by name
and unit, the failures and the environment.

BENCHMARK.json bounds setup_s, peak_rss_mb, decided_rate (1 - undecided_rate)
and success_rate (1 - failure_rate).  items_per_s, latency_p50_ms and
latency_tail_ms are printed but carry no bound; traced runs record them as
bench.*.  On the batteries they follow how many slow boundary instances a
seed draws, and their spread across seeds is wider than a bound may be.

``failed`` counts the item runs with any failure.  ``correct`` is false when
an answer is wrong: a verdict contradicted by the comparison-matrix test or
by construction, or a certificate or identity that fails its check.  A right
verdict whose certificate no verify_* function can check (the CLI's
comparison-matrix fallback) is a failure but leaves ``correct`` true.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is first imported, here and in
# the set-up subprocesses, which inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from probe import Counters, Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import covnet; "
    "d = time.perf_counter() - t; print(d, covnet.__file__)"
)
# On a shared host, speed can swing by a third within minutes.  Each covnet
# import is followed by these standard-library imports in another fresh
# process; the two swing together, so the ratio of their times holds steady
# where the raw import time does not.
CALIBRATION_MODULES = (
    "asyncio", "concurrent.futures", "ctypes", "csv", "decimal", "difflib", "doctest",
    "email.mime.multipart", "fractions", "ftplib", "http.server", "imaplib", "logging.handlers",
    "mailbox", "pdb", "plistlib", "pydoc", "smtplib", "sqlite3", "ssl", "tarfile", "tracemalloc",
    "unittest", "urllib.request", "uuid", "xml.dom.minidom", "xml.etree.ElementTree",
    "xmlrpc.client", "zipfile",
)
CALIBRATION_SNIPPET = (
    "import time; t = time.perf_counter(); import " + ", ".join(CALIBRATION_MODULES)
    + "; print(time.perf_counter() - t)"
)
# Median calibration time on the reference machine (2-vCPU x86-64 Xeon,
# Python 3.11.7), over 30 fresh processes (quartiles 0.138-0.144 s):
# setup_s is the import time scaled to that machine's speed.
CALIBRATION_REF_S = 0.141


def _fresh_process(snippet: str, env: dict) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()


def measure_setup() -> tuple[float, float]:
    """Median time of ``import covnet`` in fresh processes, scaled to the
    reference machine and raw.  The first import, which may compile
    bytecode, is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        seconds, where = _fresh_process(IMPORT_SNIPPET, env)
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported covnet from {where}, not from {SRC}")
        (calibration,) = _fresh_process(CALIBRATION_SNIPPET, env)
        if i:
            raw.append(float(seconds))
            scaled.append(CALIBRATION_REF_S * float(seconds) / float(calibration))
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten items beyond it, as
    (value, percentile); with ten items or fewer, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_item(workload, k, probe, counters) -> tuple[float, list]:
    """Run item ``k``; return its wall time and the failures found."""
    probe.item = k
    with probe.span("bench", "item") as s:
        found = workload.run_item(k, probe, counters)
    return s.elapsed, [(k, f) for f in found]


def environment(covnet) -> dict:
    import scipy

    backend = getattr(covnet, "solver_backend", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": backend() if backend else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def summary(latencies: list[float], counters: Counters, failed: int) -> dict:
    """The end-to-end metrics of one pass over the items, untraced."""
    busy = sum(latencies)
    value, pct = tail(latencies)
    calls = len(counters.sweeps)
    undecided = counters.undecided / calls if calls else 0.0
    failure = failed / len(latencies)
    print(f"# latency_tail_ms is p{pct:.1f} of {len(latencies)} items")
    return {
        "items_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * value, "ms"),
        "undecided_rate": (undecided, "ratio"),
        "failure_rate": (failure, "ratio"),
        # The complements are what BENCHMARK.json gates: a gated metric may
        # not read 0, and these two rates mostly do.
        "decided_rate": (1.0 - undecided, "ratio"),
        "success_rate": (1.0 - failure, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def end_to_end(workload, count, setup) -> tuple[dict, int, int, list]:
    """One whole pass over the items, untraced."""
    probe, counters, failures = Probe(trace=False), Counters(), []
    latencies = []
    failed = 0
    for k in range(count):
        elapsed, found = run_item(workload, k, probe, counters)
        latencies.append(elapsed)
        failures += found
        failed += bool(found)
    metrics = {"setup_s": (setup[0], "s"), "setup_raw_s": (setup[1], "s")}
    metrics.update(summary(latencies, counters, failed))
    return metrics, count, failed, failures


def per_layer(workload, count, trace_path: Path) -> tuple[dict, int, int, list]:
    """Every item once traced and once untraced.  The layer metrics come
    from the traced calls; bench.* are the end-to-end timings of the
    untraced ones, which no bound could hold (see BENCHMARK.json)."""
    probe, counters, failures = Probe(trace=True), Counters(), []
    plain, plain_counters = Probe(trace=False), Counters()
    plain_latencies, plain_failed = [], 0
    for k in range(count):
        # Alternate the order so neither side always runs with warm caches.
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                failures += run_item(workload, k, probe, counters)[1]
            else:
                elapsed, found = run_item(workload, k, plain, plain_counters)
                plain_latencies.append(elapsed)
                plain_failed += bool(found)
    traced_s = probe.layer_busy("bench")
    untraced_s = sum(plain_latencies)
    untraced = summary(plain_latencies, plain_counters, plain_failed)

    sweeps = counters.sweeps
    swept = sum(sweeps)
    p50, p90, p99 = np.percentile(sweeps, (50, 90, 99)) if sweeps else (0.0, 0.0, 0.0)
    busy = probe.layer_busy
    layer_self = probe.self_times()
    metrics = {
        "bench.items_per_s": untraced["items_per_s"],
        "bench.latency_p50_ms": untraced["latency_p50_ms"],
        "bench.latency_tail_ms": untraced["latency_tail_ms"],
        "decompose.busy_s": (busy("decompose", "decompose"), "s"),
        "decompose.calls": (len(sweeps), "count"),
        "decompose.sweeps_total": (swept, "count"),
        "decompose.sweeps_p50": (float(p50), "count"),
        "decompose.sweeps_p90": (float(p90), "count"),
        "decompose.sweeps_p99": (float(p99), "count"),
        "decompose.us_per_sweep": (1e6 * counters.swept_s / swept if swept else 0.0, "us"),
        "decompose.undecided": (counters.undecided, "count"),
        "decompose.infeasible_witness": (counters.infeasible_witness, "count"),
        "decompose.infeasible_forbidden": (counters.infeasible_forbidden, "count"),
        "decompose.fast_check_busy_s": (busy("decompose", "fast_check_bipartite"), "s"),
        "decompose.verify_busy_s": (busy("decompose", "verify_decomposition")
                                    + busy("decompose", "verify_witness"), "s"),
        "simulate.joint_busy_s": (busy("simulate", "build_joint_distribution"), "s"),
        "simulate.covariance_busy_s": (busy("simulate", "covariance_matrix"), "s"),
        "simulate.independence_busy_s": (busy("simulate", "check_independence"), "s"),
        "simulate.table_entries": (counters.table_entries, "count"),
        "gaussian.busy_s": (busy("gaussian"), "s"),
        "gaussian.samples_per_s": (counters.samples / busy("gaussian", "sample")
                                   if counters.samples else 0.0, "1/s"),
        "witness.approx_busy_s": (busy("witness", "approximate_dual_by_twisted_gram"), "s"),
        "witness.approx_error_max": (counters.approx_error_max, "abs"),
        "embezzle.busy_s": (busy("embezzle"), "s"),
        "inflate.busy_s": (busy("inflate"), "s"),
        "inflate.compress_busy_s": (busy("inflate", "compress_by_vectors"), "s"),
        "cli.calls": (probe.calls.get(("cli", "main"), 0), "count"),
        "cli.busy_s": (busy("cli"), "s"),
        "cli.overhead_s": (counters.cli_overhead_s, "s"),
    }
    for layer in ("decompose", "simulate", "gaussian", "witness", "embezzle", "inflate", "cli", "bench"):
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")

    overhead = {"traced_s": traced_s, "untraced_s": untraced_s,
                "overhead_s": traced_s - untraced_s, "spans": len(probe.spans)}
    print(f"# tracing overhead: {overhead['overhead_s']:+.4f} s over {count} items "
          f"({traced_s:.3f} s traced, {untraced_s:.3f} s untraced, {len(probe.spans)} spans)")
    probe.write(trace_path, {"self_s": layer_self, "overhead": overhead})
    print(f"# spans written to {trace_path}")
    return metrics, count, len({k for k, _ in failures}), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal run length; the item count is fixed per workload and does not follow it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="run this many items instead of the workload's fixed count (smoke tests)")
    args = ap.parse_args(argv)

    if not (SRC / "covnet" / "__init__.py").is_file():
        print(f"error: no covnet sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import covnet
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(covnet)))
    print(f"# --seconds {args.seconds:g} is nominal: one pass over the workload's fixed item count")

    setup = None if args.trace else measure_setup()
    cls, count = WORKLOADS[args.workload]
    count = args.items or count
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = cls(args.seed, count, workdir)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, failures = per_layer(workload, count, trace_path)
        else:
            metrics, attempted, failed, failures = end_to_end(workload, count, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for k, f in failures:
        print(f"# failed item {k}: {f.reason}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": not any(f.wrong for _, f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
