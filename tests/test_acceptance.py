"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Every criterion runs at its stated tolerance with a fixed seed.  The
instance batches are generated once per module where two criteria share
them.
"""

import itertools
import resource
import time

import numpy as np
import pytest

import covnet
from covnet.solver import (
    DualWitness,
    Feasibility,
    decompose,
    fast_check_bipartite,
    verify_decomposition,
    verify_witness,
)
from covnet.embezzle import embezzle_complex, embezzle_real, harmonic_number
from covnet.gaussian import GaussianNetworkModel, sample, sample_covariance
from covnet.inflate import (
    build_inflation,
    compress_by_vectors,
    hadamard_extract,
    inflate_models,
    inflated_covariance,
    sign_inflation,
)
from covnet.linalg import min_eigenvalue, schur_product, spectral_norm
from covnet.simulate import build_joint_distribution, covariance_matrix
from covnet.witness import (
    TwistedGramSpec,
    approximate_dual_by_twisted_gram,
    build_sign_matrix,
    build_twisted_gram,
    is_in_dual_cone,
)
from support import (
    cycle_network,
    path_network,
    random_bipartite_network,
    random_boundary_instance,
    random_classical_model,
    random_dual_element,
    random_feasible,
    random_inflation_spec,
    random_ndcs_network,
    random_twisted_spec,
    star_network,
    triangle_network,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance {num:02d}] {name}: {tag}{suffix}")
    assert ok, f"criterion {num} {name} failed {suffix}"


@pytest.fixture(scope="module")
def simulated_covariance_batch():
    """200 random NDCS networks with simulated covariance matrices (shared
    by criteria 2 and 3)."""
    rng = np.random.default_rng(202)
    batch = []
    for _ in range(200):
        net = random_ndcs_network(rng, int(rng.integers(2, 7)))
        sources, responses, f = random_classical_model(net, rng, 4, 4)
        p = build_joint_distribution(net, sources, responses)
        batch.append((net, covariance_matrix(p, f)))
    return batch


def test_criterion_01_bipartite_oracle_equivalence():
    rng = np.random.default_rng(101)
    families = []
    for n in range(2, 8):
        families.append(path_network(n))
        if n >= 3:
            families.append(cycle_network(n))
            families.append(star_network(n))
    t0 = time.time()
    disagreements = 0
    undecided = 0
    total = 500
    for k in range(total):
        if rng.random() < 0.5:
            net = families[rng.integers(len(families))]
        else:
            net = random_bipartite_network(rng, int(rng.integers(2, 8)))
        cplx = bool(rng.integers(2))
        m = (
            random_feasible(net, rng, cplx)
            if k % 2 == 0
            else random_boundary_instance(net, rng, cplx)
        )
        fast = fast_check_bipartite(net, m, 1e-7)
        res = decompose(net, m)
        if res.status is Feasibility.UNDECIDED:
            undecided += 1
        elif res.status is not fast:
            disagreements += 1
    elapsed = time.time() - t0
    ok = disagreements == 0 and undecided <= 0.02 * total and elapsed < 120.0
    _report(
        1,
        "bipartite oracle equivalence",
        ok,
        f"{total} instances, {disagreements} disagreements, "
        f"{undecided} undecided, {elapsed:.1f}s",
    )


def test_criterion_02_network_covariances_decompose(simulated_covariance_batch):
    worst = 0.0
    for net, c in simulated_covariance_batch:
        cn = np.linalg.norm(c)
        res = decompose(net, c)
        if res.status is not Feasibility.FEASIBLE:
            _report(2, "network covariances decompose", False, f"status {res.status}")
        if not verify_decomposition(net, c, res.decomposition, 1e-7):
            _report(2, "network covariances decompose", False, "verification failed")
        worst = max(worst, res.residual_norm / cn)
    _report(
        2,
        "network covariances decompose",
        worst <= 1e-7,
        f"200 instances, worst residual {worst:.2e} of |C|",
    )


def test_criterion_03_schur_product_positivity(simulated_covariance_batch):
    rng = np.random.default_rng(303)
    checked = 0
    worst = 0.0
    for net, c in simulated_covariance_batch:
        for _ in range(50):
            d = int(rng.integers(1, 7))
            w = build_twisted_gram(net, random_twisted_spec(net, rng, d))
            s = schur_product(c, w)
            rel = min_eigenvalue(s) / max(1e-300, spectral_norm(s))
            worst = min(worst, rel)
            checked += 1
            if rel < -1e-8:
                _report(3, "Schur-product positivity", False, f"min eig ratio {rel:.2e}")
    sign_checked = 0
    for net, c in simulated_covariance_batch:
        if not net.all_bipartite() or net.n_sources > 6:
            continue
        for signs in itertools.product((1, -1), repeat=net.n_sources):
            gamma = build_sign_matrix(net, dict(zip(net.source_names, signs)))
            s = schur_product(c, gamma)
            rel = min_eigenvalue(s) / max(1e-300, spectral_norm(s))
            worst = min(worst, rel)
            sign_checked += 1
            if rel < -1e-8:
                _report(3, "Schur-product positivity", False, f"sign case {rel:.2e}")
    ok = checked == 10_000 and sign_checked > 0
    _report(
        3,
        "Schur-product positivity",
        ok,
        f"{checked} twisted + {sign_checked} sign cases, worst ratio {worst:.1e}",
    )


def test_criterion_04_infeasibility_certificate():
    tri = triangle_network()
    ones = np.ones((3, 3))
    res = decompose(tri, ones)
    ok = res.status is Feasibility.INFEASIBLE
    ok = ok and bool(verify_witness(tri, ones, res.witness, 1e-7))
    ok = ok and res.witness.inner_product <= -1e-3
    # Hand witness (2I - J)/|2I - J|_F: direct computation gives
    # tr(W M) = -3 and |2I - J|_F = 3, so the normalized inner product is -1.
    w = 2 * np.eye(3) - ones
    w = w / np.linalg.norm(w)
    hand = DualWitness(w, float(np.vdot(w, ones).real))
    ok = ok and bool(verify_witness(tri, ones, hand, 1e-7))
    ok = ok and abs(hand.inner_product - (-1.0)) < 1e-12
    _report(
        4,
        "infeasibility certificate",
        ok,
        f"solver ip {res.witness.inner_product:.6f}, hand ip {hand.inner_product:.6f}",
    )


def test_criterion_05_inflation_oracle_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        net = random_ndcs_network(rng, int(rng.integers(3, 5)))
        sources, responses, f = random_classical_model(net, rng, 2, 3)
        c = covariance_matrix(build_joint_distribution(net, sources, responses), f)
        d = int(rng.integers(1, 4))
        spec = random_inflation_spec(net, rng, d)
        infl = build_inflation(net, spec)
        big = inflated_covariance(net, c, spec, np.diag(c).real)
        s2, r2, f2 = inflate_models(net, infl, sources, responses, f)
        oracle = covariance_matrix(build_joint_distribution(infl.network, s2, r2), f2)
        dev = float(np.max(np.abs(big - oracle)))
        worst = max(worst, dev)
        if dev > 1e-10 or not covnet.is_psd(big, 1e-9):
            _report(5, "inflation oracle equivalence", False, f"dev {dev:.2e}")
    _report(5, "inflation oracle equivalence", True, f"100 instances, worst dev {worst:.1e}")


def test_criterion_06_compression_identities():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        net = random_ndcs_network(rng, int(rng.integers(2, 5)))
        c = random_feasible(net, rng)
        d = int(rng.integers(1, 4))
        spec = random_inflation_spec(net, rng, d)
        big = inflated_covariance(net, c, spec, np.diag(c).real)
        vecs = {
            nm: rng.normal(size=d) + 1j * rng.normal(size=d)
            for nm in net.party_names
        }
        w = build_twisted_gram(net, TwistedGramSpec(d, vecs, dict(spec.perms)))
        lhs = compress_by_vectors(big, [vecs[nm] for nm in net.party_names])
        dev = float(np.max(np.abs(lhs - schur_product(c, w))))
        worst = max(worst, dev)
        if dev > 1e-9:
            _report(6, "compression identities", False, f"compress dev {dev:.2e}")
    sign_cases = 0
    for _ in range(10):
        net = random_bipartite_network(rng, int(rng.integers(2, 6)))
        if net.n_sources > 6:
            continue
        c = random_feasible(net, rng, complex_=False)
        for signs in itertools.product((1, -1), repeat=net.n_sources):
            eps = dict(zip(net.source_names, signs))
            big = inflated_covariance(net, c, sign_inflation(net, eps), np.diag(c).real)
            gamma = build_sign_matrix(net, eps)
            dev = float(
                np.max(np.abs(hadamard_extract(big, net.n_parties) - schur_product(c, gamma)))
            )
            worst = max(worst, dev)
            sign_cases += 1
            if dev > 1e-9:
                _report(6, "compression identities", False, f"hadamard dev {dev:.2e}")
    _report(
        6,
        "compression identities",
        sign_cases > 0,
        f"100 compressions + {sign_cases} sign extractions, worst dev {worst:.1e}",
    )


def test_criterion_07_embezzlement_bounds():
    rng = np.random.default_rng(707)
    t0 = time.time()
    rs = (2**12, 2**16, 2**20)
    ok = True
    details = []
    for d in (2, 4, 8):
        phis = [np.full(d, 1.0 / np.sqrt(d))]
        for _ in range(20):
            v = rng.random(d) + 0.01
            phis.append(v / np.linalg.norm(v))
        for phi in phis:
            overlaps = []
            for R in rs:
                res = embezzle_real(phi, R)
                chi_bound = harmonic_number(R // d) / harmonic_number(R)
                if res.overlap.real < chi_bound:
                    ok = False
                    details.append(f"bound breach d={d} R={R}")
                overlaps.append(res.overlap.real)
            if not (overlaps[0] < overlaps[1] < overlaps[2]):
                ok = False
                details.append(f"not strictly increasing d={d}")
        e1 = np.zeros(d)
        e1[0] = 1.0
        for R in rs:
            if abs(embezzle_real(e1, R).overlap - 1.0) > 1e-12:
                ok = False
                details.append(f"basis overlap d={d} R={R}")
    # Complex case at T=2^7, R=2^14.
    T, R = 2**7, 2**14
    for d in (2, 4, 8):
        for _ in range(5):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            phi = v / np.linalg.norm(v)
            res = embezzle_complex(phi, T, R)
            chi_bound = harmonic_number(R // d) / harmonic_number(R) - 2 * np.pi / T
            if res.overlap.real < chi_bound:
                ok = False
                details.append(f"complex bound breach d={d}")
    elapsed = time.time() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    ok = ok and elapsed < 120.0 and peak_gb < 2.0
    _report(
        7,
        "embezzlement bounds",
        ok,
        "; ".join(details) or f"{elapsed:.1f}s, peak {peak_gb:.2f} GB",
    )


def test_criterion_08_dual_approximation():
    rng = np.random.default_rng(808)
    nets = [random_ndcs_network(rng, int(rng.integers(2, 6))) for _ in range(50)]
    for k in range(10_000):
        net = nets[k % len(nets)]
        d = int(rng.integers(1, 7))
        w = build_twisted_gram(net, random_twisted_spec(net, rng, d))
        if not is_in_dual_cone(net, w, 1e-9):
            _report(8, "dual approximation", False, f"spec {k} left the dual cone")
    tri, path = triangle_network(), path_network(3)
    worst_diag = 0.0
    decreases = []
    for k in range(20):
        net = tri if k % 2 == 0 else path
        w = random_dual_element(net, rng, complex_=bool(k % 3))
        errs = []
        for R in (2**12, 2**16):
            _, approx, err = approximate_dual_by_twisted_gram(net, w, 2**7, R)
            worst_diag = max(
                worst_diag, float(np.max(np.abs(np.diag(approx) - np.diag(w))))
            )
            errs.append(err)
        decreases.append(errs[1] < errs[0])
    ok = all(decreases) and worst_diag <= 1e-12
    _report(
        8,
        "dual approximation",
        ok,
        f"10000 specs in cone, 20 approximations, diag dev {worst_diag:.1e}, "
        f"{sum(decreases)}/20 strictly decreasing",
    )


def test_criterion_09_gaussian_tightness():
    net = path_network(3)
    m = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float)
    terms = {
        "s0": np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float),
        "s1": np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=float),
    }
    count = 10**6
    est = sample_covariance(sample(GaussianNetworkModel(net, terms, seed=90210), count))
    se = 5.0 * np.sqrt((np.outer(np.diag(m), np.diag(m)) + m**2) / count)
    ok = bool(np.all(np.abs(est - m) <= se)) and abs(est[0, 2]) <= 0.007
    _report(
        9,
        "Gaussian tightness",
        ok,
        f"max |dev|/SE {np.max(np.abs(est - m) / se):.2f}, corner {est[0, 2]:+.5f}",
    )


def test_criterion_10_cone_laws():
    rng = np.random.default_rng(1010)
    worst_ip = 0.0
    for k in range(100):
        net = random_ndcs_network(rng, int(rng.integers(2, 6)))
        m1 = random_feasible(net, rng)
        m2 = random_feasible(net, rng)
        r = float(rng.uniform(0.1, 10.0))
        for m in (r * m1, m1 + m2):
            res = decompose(net, m)
            if res.status is not Feasibility.FEASIBLE:
                _report(10, "cone laws", False, f"combination not feasible at {k}")
        for _ in range(5):
            w = random_dual_element(net, rng)
            ip = float(np.vdot(w, m1).real)
            worst_ip = min(worst_ip, ip)
            if ip < -1e-9:
                _report(10, "cone laws", False, f"weak duality broken: {ip:.2e}")
    _report(10, "cone laws", True, f"100 recombinations feasible, min ip {worst_ip:.1e}")
