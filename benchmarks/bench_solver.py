"""Benchmark the compiled sweep kernel against the pure-numpy fallback.

Runs the feasibility solver over a fixed battery of random instances with
both backends and reports per-batch wall time plus the speedup.  Verdicts
are cross-checked while we are at it.

    python benchmarks/bench_solver.py [--instances N] [--seed S]
"""

import argparse
import time

import numpy as np

from covnet.solver import available_backends, decompose
from covnet.network import Network


def path_network(n):
    return Network(
        tuple(f"A{i+1}" for i in range(n)),
        tuple(f"s{i}" for i in range(n - 1)),
        tuple((i, i + 1) for i in range(n - 1)),
    )


def cycle_network(n):
    return Network(
        tuple(f"A{i+1}" for i in range(n)),
        tuple(f"s{i}" for i in range(n)),
        tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n)),
    )


def make_instances(rng, count):
    nets = [path_network(n) for n in (3, 5, 7)] + [cycle_network(n) for n in (3, 5, 7)]
    instances = []
    for k in range(count):
        net = nets[int(rng.integers(len(nets)))]
        n = net.n_parties
        m = np.zeros((n, n), dtype=np.complex128)
        for adj in net.sources:
            ix = list(adj)
            a = rng.normal(size=(len(ix), len(ix))) + 1j * rng.normal(size=(len(ix), len(ix)))
            m[np.ix_(ix, ix)] += a @ a.conj().T / len(ix)
        if k % 2:
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (h + h.conj().T)
            allowed = np.zeros((n, n), dtype=bool)
            for adj in net.sources:
                ix = list(adj)
                allowed[np.ix_(ix, ix)] = True
            m += 0.4 * np.where(allowed, h, 0.0)
            lo = float(np.linalg.eigvalsh(m)[0])
            if lo < 0.02:
                m += (0.02 - lo) * np.eye(n)
        instances.append((net, m))
    return instances


def run(backend, instances):
    t0 = time.perf_counter()
    verdicts = []
    sweeps = 0
    for net, m in instances:
        res = decompose(net, m, backend=backend)
        verdicts.append(res.status)
        sweeps += res.sweeps
    return time.perf_counter() - t0, verdicts, sweeps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    instances = make_instances(rng, args.instances)
    backends = available_backends()
    print(f"{args.instances} instances, backends: {', '.join(backends)}")

    results = {}
    for backend in backends:
        elapsed, verdicts, sweeps = run(backend, instances)
        results[backend] = (elapsed, verdicts)
        print(f"{backend:>9}: {elapsed:8.2f}s   {sweeps} sweeps total")

    if len(backends) == 2:
        (fast, (t_fast, v_fast)), (slow, (t_slow, v_slow)) = sorted(
            results.items(), key=lambda kv: kv[1][0]
        )
        mismatches = sum(a != b for a, b in zip(v_fast, v_slow))
        print(f"speedup: {t_slow / t_fast:.1f}x ({fast} over {slow}), "
              f"verdict mismatches: {mismatches}")


if __name__ == "__main__":
    main()
