"""Input generators for the benchmark workloads.

These are the benchmark's own copies of the random-instance generators in
``tests/support.py``, so that a refactor of the test helpers cannot change
what the benchmark measures.  Drawing order is kept identical: given the
same seed, ``bipartite_battery`` yields acceptance criterion 01's instance
sequence.  Only top-level ``covnet`` names are used.
"""

from __future__ import annotations

import numpy as np

import covnet


def _network(n: int, adjs) -> covnet.Network:
    adjs = tuple(adjs)
    return covnet.Network(
        tuple(f"A{i+1}" for i in range(n)),
        tuple(f"s{k}" for k in range(len(adjs))),
        adjs,
    )


def path_network(n: int) -> covnet.Network:
    return _network(n, ((i, i + 1) for i in range(n - 1)))


def cycle_network(n: int) -> covnet.Network:
    return _network(n, (tuple(sorted((i, (i + 1) % n))) for i in range(n)))


def star_network(n: int) -> covnet.Network:
    return _network(n, ((0, i) for i in range(1, n)))


def random_bipartite_network(rng: np.random.Generator, n: int) -> covnet.Network:
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(min(n, n if rng.random() < 0.5 else n - 1))}
    if n == 2:
        edges = {(0, 1)}
    extra = rng.integers(0, n)
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        edges.add(tuple(sorted((int(i), int(j)))))
    return _network(n, sorted(edges))


def random_ndcs_network(rng: np.random.Generator, n: int, multipartite: bool = True) -> covnet.Network:
    """Greedily add sources whose party pairs are all unused, then cover
    leftover parties with fresh edges."""
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
    return _network(n, adjs)


def random_psd(rng: np.random.Generator, n: int, complex_: bool = True) -> np.ndarray:
    a = rng.normal(size=(n, n))
    if complex_:
        a = a + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T / n
    return 0.5 * (m + m.conj().T)


def random_feasible(net, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Sum of random PSD terms, one per source block: feasible by construction."""
    n = net.n_parties
    m = np.zeros((n, n), dtype=np.complex128)
    for adj in net.sources:
        ix = list(adj)
        m[np.ix_(ix, ix)] += random_psd(rng, len(ix), complex_)
    return m


def random_allowed_hermitian(net, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
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


def random_boundary_instance(net, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Feasible core plus an allowed-support perturbation, shifted on the
    diagonal to stay PSD with a small margin."""
    m = random_feasible(net, rng, complex_)
    m = m + 0.4 * random_allowed_hermitian(net, rng, complex_)
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < 0.02:
        m = m + (0.02 - lo) * np.eye(net.n_parties)
    return m


def random_classical_model(net, rng: np.random.Generator, max_source_alphabet: int,
                           max_output_alphabet: int, real_functions: bool = False):
    """Random source pmfs, stochastic responses and output functions."""
    pmfs = {}
    for name, adj in zip(net.source_names, net.sources):
        shape = tuple(int(rng.integers(2, max_source_alphabet + 1)) for _ in adj)
        p = rng.random(shape) + 0.05
        pmfs[name] = p / p.sum()
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
        outs[pname] = rng.normal(size=k) if real_functions else rng.normal(size=k) + 1j * rng.normal(size=k)
    return covnet.SourceModel(pmfs), covnet.ResponseModel(tables), covnet.OutputFunctions(outs)


def random_inflation_spec(net, rng: np.random.Generator, d: int) -> covnet.InflationSpec:
    perms = {
        (net.party_names[i], sname): rng.permutation(d).astype(np.intp)
        for sname, adj in zip(net.source_names, net.sources)
        for i in adj
    }
    return covnet.InflationSpec(d, perms)


def random_dual_element(net, rng: np.random.Generator, complex_: bool = True) -> np.ndarray:
    """Random dual-cone element with unit diagonal."""
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


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# -- batteries ------------------------------------------------------------------


def bipartite_battery(seed: int, count: int):
    """Criterion 01's draw: half family networks (path, cycle, star), half
    random bipartite networks, n = 2..7; even k feasible by construction,
    odd k a boundary instance.  Yields (net, m, feasible_by_construction)."""
    rng = np.random.default_rng(seed)
    families = []
    for n in range(2, 8):
        families.append(path_network(n))
        if n >= 3:
            families.append(cycle_network(n))
            families.append(star_network(n))
    for k in range(count):
        if rng.random() < 0.5:
            net = families[rng.integers(len(families))]
        else:
            net = random_bipartite_network(rng, int(rng.integers(2, 8)))
        cplx = bool(rng.integers(2))
        if k % 2 == 0:
            yield net, random_feasible(net, rng, cplx), True
        else:
            yield net, random_boundary_instance(net, rng, cplx), False


def multipartite_battery(seed: int, count: int):
    """NDCS networks, n = 3..7, each with at least one three-party source;
    even k feasible by construction, odd k a boundary instance."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(3, 8))
        net = random_ndcs_network(rng, n)
        while all(len(adj) < 3 for adj in net.sources):
            net = random_ndcs_network(rng, n)
        cplx = bool(rng.integers(2))
        if k % 2 == 0:
            yield net, random_feasible(net, rng, cplx), True
        else:
            yield net, random_boundary_instance(net, rng, cplx), False
