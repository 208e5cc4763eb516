"""Random-instance generators shared across the test suite."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

import covnet
from covnet.inflate import InflationSpec
from covnet.network import Network
from covnet.simulate import OutputFunctions, ResponseModel, SourceModel
from covnet.witness import TwistedGramSpec


def path_network(n: int) -> Network:
    parties = tuple(f"A{i+1}" for i in range(n))
    return Network(
        parties,
        tuple(f"s{i}" for i in range(n - 1)),
        tuple((i, i + 1) for i in range(n - 1)),
    )


def cycle_network(n: int) -> Network:
    parties = tuple(f"A{i+1}" for i in range(n))
    return Network(
        parties,
        tuple(f"s{i}" for i in range(n)),
        tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n)),
    )


def star_network(n: int) -> Network:
    parties = tuple(f"A{i+1}" for i in range(n))
    return Network(
        parties,
        tuple(f"s{i}" for i in range(n - 1)),
        tuple((0, i) for i in range(1, n)),
    )


def triangle_network() -> Network:
    return cycle_network(3)


def random_bipartite_network(rng: np.random.Generator, n: int) -> Network:
    """Random connected-enough edge set covering every party, no duplicates."""
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(min(n, n if rng.random() < 0.5 else n - 1))}
    if n == 2:
        edges = {(0, 1)}
    extra = rng.integers(0, n)
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        edges.add(tuple(sorted((int(i), int(j)))))
    edges = sorted(edges)
    return Network(
        tuple(f"A{i+1}" for i in range(n)),
        tuple(f"s{k}" for k in range(len(edges))),
        tuple(edges),
    )


def random_ndcs_network(
    rng: np.random.Generator, n: int, multipartite: bool = True
) -> Network:
    """Random NDCS network: greedily add sources whose party pairs are all
    unused (this rules out double common sources and comparable adjacency
    sets at once), then cover leftover parties with fresh edges."""
    used_pairs: set[tuple[int, int]] = set()
    adjs: list[tuple[int, ...]] = []
    target = int(rng.integers(max(1, n - 2), n + 2))
    for _ in range(4 * target):
        if len(adjs) >= target:
            break
        size = 3 if (multipartite and n >= 3 and rng.random() < 0.3) else 2
        size = min(size, n)
        adj = tuple(sorted(int(x) for x in rng.choice(n, size=size, replace=False)))
        pairs = [(adj[a], adj[b]) for a in range(size) for b in range(a + 1, size)]
        if any(pq in used_pairs for pq in pairs):
            continue
        used_pairs.update(pairs)
        adjs.append(adj)
    covered = {i for adj in adjs for i in adj}
    for i in range(n):
        if i in covered:
            continue
        for j in rng.permutation(n):
            j = int(j)
            if j == i:
                continue
            pq = tuple(sorted((i, j)))
            if pq not in used_pairs:
                used_pairs.add(pq)
                adjs.append(pq)
                covered.update(pq)
                break
        else:
            raise RuntimeError("could not cover every party")
    return Network(
        tuple(f"A{i+1}" for i in range(n)),
        tuple(f"s{k}" for k in range(len(adjs))),
        tuple(adjs),
    )


def random_psd(rng: np.random.Generator, n: int, complex_: bool = True) -> np.ndarray:
    a = rng.normal(size=(n, n))
    if complex_:
        a = a + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T / n
    return 0.5 * (m + m.conj().T)


def random_feasible(net: Network, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Sum of random PSD terms, one per source block: feasible by construction."""
    n = net.n_parties
    m = np.zeros((n, n), dtype=np.complex128)
    for adj in net.sources:
        ix = list(adj)
        m[np.ix_(ix, ix)] += random_psd(rng, len(ix), complex_)
    return m


def random_allowed_hermitian(net: Network, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Random Hermitian matrix supported on the union of source blocks."""
    n = net.n_parties
    a = rng.normal(size=(n, n))
    if complex_:
        a = a + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    allowed = np.zeros((n, n), dtype=bool)
    for adj in net.sources:
        ix = list(adj)
        allowed[np.ix_(ix, ix)] = True
    return np.where(allowed, h, 0.0)


def random_boundary_instance(net: Network, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """PSD matrix with allowed support that straddles the feasibility
    boundary: a feasible core plus an allowed-support perturbation, shifted
    on the diagonal to stay PSD with a small margin."""
    m = random_feasible(net, rng, complex_)
    m = m + 0.4 * random_allowed_hermitian(net, rng, complex_)
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < 0.02:
        m = m + (0.02 - lo) * np.eye(net.n_parties)
    return m


def random_classical_model(
    net: Network,
    rng: np.random.Generator,
    max_source_alphabet: int = 4,
    max_output_alphabet: int = 4,
    real_functions: bool = False,
):
    """Random finite-alphabet source pmfs, stochastic responses, and complex
    (or, with ``real_functions``, real) output functions for a network."""
    pmfs = {}
    for name, adj in zip(net.source_names, net.sources):
        shape = tuple(int(rng.integers(2, max_source_alphabet + 1)) for _ in adj)
        p = rng.random(shape) + 0.05
        pmfs[name] = p / p.sum()
    sources = SourceModel(pmfs)
    tables = {}
    outs = {}
    for i, pname in enumerate(net.party_names):
        sig = []
        for a in net.sources_of_party(i):
            slot = net.sources[a].index(i)
            sig.append(pmfs[net.source_names[a]].shape[slot])
        k = int(rng.integers(2, max_output_alphabet + 1))
        t = rng.random(tuple(sig) + (k,)) + 0.05
        tables[pname] = t / t.sum(axis=-1, keepdims=True)
        outs[pname] = rng.normal(size=k)
        if not real_functions:
            outs[pname] = outs[pname] + 1j * rng.normal(size=k)
    return sources, ResponseModel(tables), OutputFunctions(outs)


def random_twisted_spec(net: Network, rng: np.random.Generator, d: int) -> TwistedGramSpec:
    vectors = {}
    for nm in net.party_names:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        vectors[nm] = v / np.linalg.norm(v)
    perms = {
        (net.party_names[i], sname): rng.permutation(d).astype(np.intp)
        for sname, adj in zip(net.source_names, net.sources)
        for i in adj
    }
    return TwistedGramSpec(d, vectors, perms)


def random_inflation_spec(net: Network, rng: np.random.Generator, d: int) -> InflationSpec:
    perms = {
        (net.party_names[i], sname): rng.permutation(d).astype(np.intp)
        for sname, adj in zip(net.source_names, net.sources)
        for i in adj
    }
    return InflationSpec(d, perms)


def random_dual_element(
    net: Network, rng: np.random.Generator, complex_: bool = True
) -> np.ndarray:
    """Random dual-cone element with unit diagonal: random PSD blocks glued
    together, rescaled so every diagonal entry is one."""
    n = net.n_parties
    w = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(w, 1e-9)
    for adj in net.sources:
        ix = list(adj)
        w[np.ix_(ix, ix)] += random_psd(rng, len(ix), complex_)
    d = np.sqrt(np.abs(np.diag(w).real))
    w = w / np.outer(d, d)
    np.fill_diagonal(w, 1.0)
    return w


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this covnet with ``args``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(covnet.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def run_fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this covnet; return
    its stdout.  For process-wide facts such as peak RSS or sys.modules."""
    done = run_python("-c", code)
    done.check_returncode()
    return done.stdout


def fresh_peak_mb(code: str) -> float:
    """Peak RSS in MB of a new interpreter that runs ``code``: its VmHWM,
    which exec resets.  On Linux a child's ru_maxrss starts at the peak of
    the process that forked it, so a large test process would show through."""
    out = run_fresh_python(
        code + "\nimport re\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
    )
    return int(out.split()[-1]) / 1024
