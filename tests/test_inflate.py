"""Inflations: wiring, covariance assembly, oracle equivalence, extractions."""

import itertools
import re

import numpy as np
import pytest

from covnet.inflate import (
    InflationSpec,
    build_inflation,
    compress_by_vectors,
    fourier_extract,
    hadamard_extract,
    inflate_models,
    inflated_covariance,
    shift_inflation,
    sign_inflation,
)
from covnet.formats import inflation_spec_from_json
from covnet.linalg import as_hermitian, is_psd, schur_product
from covnet.network import Network
from covnet.simulate import build_joint_distribution, covariance_matrix
from covnet.witness import TwistedGramSpec, build_sign_matrix, build_twisted_gram
from support import (
    path_network,
    random_bipartite_network,
    random_classical_model,
    random_feasible,
    random_inflation_spec,
    random_ndcs_network,
    triangle_network,
)

PATH_M = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float)


def identity_spec(net, d):
    ident = np.arange(d, dtype=np.intp)
    return InflationSpec(
        d,
        {
            (net.party_names[i], s): ident
            for s, adj in zip(net.source_names, net.sources)
            for i in adj
        },
    )


class TestBuildInflation:
    def test_order_one_isomorphic(self, path_net):
        infl = build_inflation(path_net, identity_spec(path_net, 1))
        assert infl.network.sources == path_net.sources

    def test_triangle_sign_inflation_is_hexagon(self):
        tri = triangle_network()
        spec = sign_inflation(tri, {"s0": 1, "s1": -1, "s2": 1})
        infl = build_inflation(tri, spec)
        net = infl.network
        assert net.n_parties == 6 and net.n_sources == 6
        assert net.all_bipartite()
        # Every party copy keeps degree 2 and the edges form one 6-cycle.
        assert all(len(net.sources_of_party(i)) == 2 for i in range(6))
        adj = {i: [] for i in range(6)}
        for a, b in net.sources:
            adj[a].append(b)
            adj[b].append(a)
        seen, prev, cur = {0}, None, 0
        for _ in range(5):
            nxt = [x for x in adj[cur] if x != prev][0]
            prev, cur = cur, nxt
            seen.add(cur)
        assert len(seen) == 6

    def test_cyclic_shift_keeps_degrees(self):
        path = Network(("A1", "A2", "A3"), ("s0", "s1"), ((0, 1), (1, 2)))
        spec = shift_inflation(path, {"s0": 1, "s1": 2}, 3)
        infl = build_inflation(path, spec)
        for i in range(3):
            base_deg = len(path.sources_of_party(i))
            for k in range(3):
                assert len(infl.network.sources_of_party(i * 3 + k)) == base_deg

    def test_missing_perm(self, path_net):
        spec = InflationSpec(2, {("A1", "s0"): np.arange(2, dtype=np.intp)})
        with pytest.raises(ValueError, match=re.escape("no spec permutation ('A2', 's0')")):
            build_inflation(path_net, spec)

    def test_spec_json_round_trip(self, path_net):
        obj = {"d": 3, "perms": {"A1|s0": [0, 1, 2], "A2|s0": [2, 0, 1],
                                 "A2|s1": [1, 2, 0], "A3|s1": [0, 2, 1]}}
        spec = inflation_spec_from_json(obj)
        assert spec.order == 3
        assert {f"{p}|{s}": perm.tolist() for (p, s), perm in spec.perms.items()} == obj["perms"]
        assert build_inflation(path_net, spec).network.n_parties == 9

    @pytest.mark.parametrize("obj", [
        {"d": True, "perms": {"A1|s0": [0], "A2|s0": [0], "A2|s1": [0], "A3|s1": [0]}},
        {"d": 1, "perms": {"A1": [0]}},
        {"d": 2.5, "perms": {}},
        {"d": 2, "perms": []},
    ])
    def test_spec_json_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            inflation_spec_from_json(obj)


class TestSignInflation:
    def test_all_plus_disjoint_copies(self, path_net):
        spec = sign_inflation(path_net, {"s0": 1, "s1": 1})
        infl = build_inflation(path_net, spec)
        for (a, b) in infl.network.sources:
            assert a % 2 == b % 2  # copies never cross

    def test_minus_crosses_single_source(self):
        net = Network(("A1", "A2"), ("s",), ((0, 1),))
        infl = build_inflation(net, sign_inflation(net, {"s": -1}))
        # Copy k of the source joins A1 copy k with A2 copy 1-k: a 4-cycle.
        assert infl.network.sources == ((0, 3), (1, 2))

    def test_shift_one_matches_sign_minus(self, path_net):
        minus = build_inflation(path_net, sign_inflation(path_net, {"s0": -1, "s1": -1}))
        shifted = build_inflation(path_net, shift_inflation(path_net, {"s0": 1, "s1": 1}, 2))
        assert minus.network.sources == shifted.network.sources

    def test_shift_zero_disjoint(self, path_net):
        infl = build_inflation(path_net, shift_inflation(path_net, {"s0": 0, "s1": 0}, 3))
        for (a, b) in infl.network.sources:
            assert a % 3 == b % 3

    def test_bad_sign(self, path_net):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            sign_inflation(path_net, {"s0": 2, "s1": 1})

    def test_perms_equal_order_two_shift_perms(self, rng):
        for _ in range(30):
            net = random_bipartite_network(rng, int(rng.integers(2, 7)))
            signs = rng.choice([1, -1], size=net.n_sources).tolist()
            sign = sign_inflation(net, dict(zip(net.source_names, signs)))
            shifts = {s: (1 - e) // 2 for s, e in zip(net.source_names, signs)}
            shift = shift_inflation(net, shifts, 2)
            assert sign.order == shift.order == 2
            assert sign.perms.keys() == shift.perms.keys()
            for key, p in sign.perms.items():
                assert np.array_equal(p, shift.perms[key])


def permutation_matrix_reference(net, c, spec):
    """Inflated covariance assembled from dense permutation matrices P with
    P[pi(x), x] = 1: block (i, j) is c_ij * P_i^T P_j."""
    n, d = net.n_parties, spec.order
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for i in range(n):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = c[i, i].real * np.eye(d)
    for sname, adj in zip(net.source_names, net.sources):
        mats = {}
        for i in adj:
            mats[i] = np.zeros((d, d))
            mats[i][spec.perms[(net.party_names[i], sname)], np.arange(d)] = 1.0
        for i, j in itertools.combinations(adj, 2):
            block = c[i, j] * (mats[i].T @ mats[j])
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
            out[j * d : (j + 1) * d, i * d : (i + 1) * d] = block.conj().T
    return out


class TestInflatedCovariance:
    def test_order_one_returns_input(self, path_net):
        out = inflated_covariance(path_net, PATH_M, identity_spec(path_net, 1), np.diag(PATH_M))
        assert np.allclose(out, PATH_M)

    def test_path_sign_blocks(self, path_net):
        spec = sign_inflation(path_net, {"s0": 1, "s1": -1})
        out = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        assert out.shape == (6, 6)
        eye2 = np.eye(2)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(out[0:2, 2:4], PATH_M[0, 1] * eye2)  # eps = +1
        assert np.allclose(out[2:4, 4:6], PATH_M[1, 2] * swap)  # eps = -1
        assert np.allclose(out[0:2, 4:6], 0.0)
        assert is_psd(out, 1e-9)

    def test_diagonal_input(self, triangle_net, rng):
        c = np.diag(rng.random(3))
        spec = identity_spec(triangle_net, 3)
        out = inflated_covariance(triangle_net, c, spec, np.diag(c))
        assert np.allclose(out, np.kron(c * np.eye(3), np.eye(3)))
        assert is_psd(out, 1e-9)

    def test_matches_permutation_matrix_reference(self, rng):
        for _ in range(30):
            net = random_ndcs_network(rng, int(rng.integers(2, 6)))
            c = as_hermitian(random_feasible(net, rng))
            spec = random_inflation_spec(net, rng, int(rng.integers(1, 5)))
            out = inflated_covariance(net, c, spec, np.diag(c).real)
            assert np.array_equal(out, permutation_matrix_reference(net, c, spec))

    def test_real_input_stays_real(self, path_net):
        spec = shift_inflation(path_net, {"s0": 0, "s1": 1}, 2)
        c = np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]])
        real = inflated_covariance(path_net, c, spec, np.diag(c))
        as_complex = inflated_covariance(path_net, c.astype(np.complex128), spec, np.diag(c))
        assert real.dtype == np.float64 and as_complex.dtype == np.complex128
        assert np.array_equal(real, as_complex.real)

    def test_variance_mismatch_named(self, path_net):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            inflated_covariance(path_net, PATH_M, identity_spec(path_net, 2), [1.0, 3.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_variance_named(self, path_net, bad):
        # Written "not <= bound", the check fails for a NaN as for an inf.
        with pytest.raises(ValueError, match=r"\(0, 0\) does not match"):
            inflated_covariance(path_net, PATH_M, identity_spec(path_net, 2), [bad, 2.0, 1.0])

    def test_forbidden_entry_named(self, path_net):
        m = PATH_M.copy()
        m[0, 2] = m[2, 0] = 0.5
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            inflated_covariance(path_net, m, identity_spec(path_net, 2), np.diag(m))

    def test_tolerances_scale_with_c(self, path_net):
        spec = shift_inflation(path_net, {"s0": 0, "s1": 1}, 2)
        c = 1e6 * PATH_M
        c[0, 2] = c[2, 0] = 1e-8  # this and the variance error far below 1e-7 * ||c||_F
        assert inflated_covariance(path_net, c, spec, np.diag(c) + 1e-8).shape == (6, 6)
        c = 1e-12 * PATH_M
        c[0, 2] = c[2, 0] = 1e-10  # 50 to 100 times every other entry
        with pytest.raises(ValueError, match=r"entry \(0, 2\) must vanish"):
            inflated_covariance(path_net, c, spec, np.diag(c))


class TestOracleEquivalence:
    def test_inflated_covariance_matches_simulation(self, rng):
        for _ in range(8):
            net = random_ndcs_network(rng, int(rng.integers(3, 5)))
            sources, responses, f = random_classical_model(net, rng, 2, 3)
            c = covariance_matrix(build_joint_distribution(net, sources, responses), f)
            d = int(rng.integers(1, 4))
            spec = random_inflation_spec(net, rng, d)
            infl = build_inflation(net, spec)
            big = inflated_covariance(net, c, spec, np.diag(c).real)
            s2, r2, f2 = inflate_models(infl, sources, responses, f)
            oracle = covariance_matrix(
                build_joint_distribution(infl.network, s2, r2), f2
            )
            assert np.max(np.abs(big - oracle)) <= 1e-10
            assert is_psd(big, 1e-9)


class TestExtractions:
    @pytest.fixture
    def path_cov_spec(self, path_net):
        spec = sign_inflation(path_net, {"s0": 1, "s1": -1})
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        return spec, big

    def test_hadamard_path_example(self, path_net, path_cov_spec):
        _, big = path_cov_spec
        out = hadamard_extract(big, 3)
        expected = np.array([[1, 1, 0], [1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.allclose(out, expected, atol=1e-12)
        assert is_psd(out, 1e-8)

    def test_hadamard_all_plus_returns_input(self, path_net):
        spec = sign_inflation(path_net, {"s0": 1, "s1": 1})
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        assert np.allclose(hadamard_extract(big, 3), PATH_M, atol=1e-12)

    def test_hadamard_identity_matches_sign_matrix(self, path_net, path_cov_spec):
        _, big = path_cov_spec
        gamma = build_sign_matrix(path_net, {"s0": 1, "s1": -1})
        assert np.allclose(hadamard_extract(big, 3), schur_product(PATH_M, gamma), atol=1e-12)

    def test_hadamard_diagonal_unchanged(self, triangle_net, rng):
        c = np.diag(rng.random(3))
        eps = {"s0": 1, "s1": -1, "s2": -1}
        big = inflated_covariance(triangle_net, c, sign_inflation(triangle_net, eps), np.diag(c))
        assert np.allclose(hadamard_extract(big, 3), c, atol=1e-12)

    def test_hadamard_dimension_check(self):
        with pytest.raises(ValueError, match=re.escape("expected a 4x4 inflated covariance, got (5, 5)")):
            hadamard_extract(np.eye(5), 2)

    def test_fourier_two_matches_hadamard(self, path_net):
        spec = shift_inflation(path_net, {"s0": 0, "s1": 1}, 2)
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        sign_big = inflated_covariance(
            path_net, PATH_M, sign_inflation(path_net, {"s0": 1, "s1": -1}), np.diag(PATH_M)
        )
        assert np.allclose(
            fourier_extract(big, 3, 1), hadamard_extract(sign_big, 3), atol=1e-12
        )

    def test_fourier_component_zero_is_identity_sign(self, path_net):
        spec = shift_inflation(path_net, {"s0": 1, "s1": 3}, 4)
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        assert np.allclose(fourier_extract(big, 3, 0), PATH_M, atol=1e-12)

    @pytest.mark.parametrize("d,component", [(2, 1), (4, 0), (4, 2), (6, 3)])
    def test_real_rows_extract_real(self, path_net, d, component):
        # Every root of unity these rows need is exactly +-1: real input gives
        # a real extraction, equal to the one of the same input as complex.
        # (2, 1) is hadamard_extract's.
        spec = shift_inflation(path_net, {"s0": 0, "s1": d // 2}, d)
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        real = fourier_extract(big, 3, component)
        as_complex = fourier_extract(big.astype(np.complex128), 3, component)
        assert real.dtype == np.float64 and as_complex.dtype == np.complex128
        assert np.array_equal(real, as_complex.real) and not as_complex.imag.any()

    def test_fourier_shift_phase(self, path_net):
        spec = shift_inflation(path_net, {"s0": 1, "s1": 0}, 4)
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        out = fourier_extract(big, 3, 1)
        assert out[0, 1] == pytest.approx(1j * PATH_M[0, 1], abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_fourier_matches_dense_conjugation(self, rng, d):
        n = 3
        a = rng.normal(size=(n * d, n * d)) + 1j * rng.normal(size=(n * d, n * d))
        big = a @ a.conj().T
        grid = np.arange(d)
        f = np.exp(-2j * np.pi * np.outer(grid, grid) / d) / np.sqrt(d)
        u = np.kron(np.eye(n), f)
        dense = u @ big @ u.conj().T
        for component in range(d):
            idx = d * np.arange(n) + component
            ref = dense[np.ix_(idx, idx)]
            assert np.max(np.abs(fourier_extract(big, n, component) - ref)) <= 1e-12
        if d == 2:
            h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
            u = np.kron(np.eye(n), h)
            ref = (u @ big @ u.T)[1::2, 1::2]
            assert np.max(np.abs(hadamard_extract(big, n) - ref)) <= 1e-12

    def test_extraction_psd_for_feasible_input(self, triangle_net, rng):
        from support import random_feasible

        c = random_feasible(triangle_net, rng, complex_=False).real
        for signs in ([1, 1, 1], [1, -1, 1], [-1, -1, 1], [-1, -1, -1]):
            eps = dict(zip(triangle_net.source_names, signs))
            big = inflated_covariance(
                triangle_net, c, sign_inflation(triangle_net, eps), np.diag(c)
            )
            assert is_psd(big, 1e-9)
            assert is_psd(hadamard_extract(big, 3), 1e-8)

    def test_infeasible_input_breaks_extraction(self, triangle_net):
        # All-ones correlations cannot come from the triangle; the sign
        # extraction with one flipped source exposes this as a negative
        # eigenvalue.
        eps = {"s0": 1, "s1": -1, "s2": 1}
        big = inflated_covariance(
            triangle_net, np.ones((3, 3)), sign_inflation(triangle_net, eps), np.ones(3)
        )
        assert not is_psd(big, 1e-8)
        assert not is_psd(hadamard_extract(big, 3), 1e-8)


class TestCompression:
    def test_basis_vector_picks_first_entries(self, path_net):
        spec = sign_inflation(path_net, {"s0": 1, "s1": -1})
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        e1 = np.array([1.0, 0.0])
        out = compress_by_vectors(big, [e1, e1, e1])
        assert np.allclose(out, big[np.ix_([0, 2, 4], [0, 2, 4])])

    def test_real_stays_real_and_complex_computes_as_complex(self, path_net, rng):
        spec = sign_inflation(path_net, {"s0": 1, "s1": -1})
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        assert compress_by_vectors(big, rng.normal(size=(3, 2))).dtype == np.float64
        # A real inflation against complex vectors gives bit for bit what it
        # gives as complex128.
        vecs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        out = compress_by_vectors(big, vecs)
        assert out.dtype == np.complex128
        assert np.array_equal(out, compress_by_vectors(big.astype(np.complex128), vecs))

    def test_scaling(self, path_net):
        spec = sign_inflation(path_net, {"s0": 1, "s1": -1})
        big = inflated_covariance(path_net, PATH_M, spec, np.diag(PATH_M))
        e1 = np.array([1.0, 0.0])
        base = compress_by_vectors(big, [e1, e1, e1])
        scaled = compress_by_vectors(big, [2j * e1, e1, e1])
        assert scaled[0, 0] == pytest.approx(4 * base[0, 0])
        assert scaled[0, 1] == pytest.approx(np.conj(2j) * base[0, 1])

    def test_matches_twisted_gram_schur(self, rng):
        for _ in range(10):
            net = random_ndcs_network(rng, int(rng.integers(3, 5)))
            sources, responses, f = random_classical_model(net, rng, 2, 3)
            c = covariance_matrix(build_joint_distribution(net, sources, responses), f)
            d = int(rng.integers(1, 4))
            spec = random_inflation_spec(net, rng, d)
            big = inflated_covariance(net, c, spec, np.diag(c).real)
            vecs = {}
            for nm in net.party_names:
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                vecs[nm] = v
            w = build_twisted_gram(net, TwistedGramSpec(d, vecs, dict(spec.perms)))
            lhs = compress_by_vectors(big, [vecs[nm] for nm in net.party_names])
            assert np.max(np.abs(lhs - schur_product(c, w))) <= 1e-9


THREE_PARTY = Network(("A1", "A2", "A3"), ("a",), ((0, 1, 2),))
NOT_NDCS = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (1, 2, 3)))
# Source s1 holds A3 alone; the spec below lacks its permutation.
ONE_PARTY_SOURCE = Network(("A1", "A2", "A3"), ("s0", "s1"), ((0, 1), (2,)))
ONE_PARTY_SPEC = InflationSpec(2, {("A1", "s0"): [0, 1], ("A2", "s0"): [1, 0]})


def path_models(net):
    return random_classical_model(net, np.random.default_rng(0), 2, 2)


def without(models, k, name):
    """``models`` with ``name``'s entry dropped from the k-th model."""
    table = {key: v for key, v in models[k][0].items() if key != name}
    return models[:k] + (type(models[k])(table),) + models[k + 1:]


def stray_spec(net, key):
    spec = identity_spec(net, 2)
    return spec._replace(perms={**spec.perms, key: spec.perms["A1", "s0"]})


def fractional_spec(net):
    spec = identity_spec(net, 2)
    return spec._replace(perms={**spec.perms, ("A1", "s0"): [0.5, 1.5]})


@pytest.mark.parametrize("call,message", [
    (lambda net: shift_inflation(THREE_PARTY, {"a": 0}, 2),
     "shift inflation requires bipartite sources"),
    (lambda net: shift_inflation(net, {"s0": 0}, 2), "no shift for source 's1'"),
    (lambda net: shift_inflation(net, {"s0": 0, "s1": 2}, 2),
     "shift for source 's1' must lie in [0, 2)"),
    (lambda net: shift_inflation(net, {"s0": -1, "s1": 0}, 2),
     "shift for source 's0' must lie in [0, 2)"),
    (lambda net: shift_inflation(net, {"s0": 0, "s1": 0}, 0), "inflation order must be >= 1"),
    (lambda net: sign_inflation(net, {"s0": 1}), "no sign value for source 's1'"),
    (lambda net: fourier_extract(np.eye(5), 3, 1),
     "expected an inflated covariance of size n*d with n = 3, got (5, 5)"),
    (lambda net: fourier_extract(np.eye(8), 3, 1),
     "expected an inflated covariance of size n*d with n = 3, got (8, 8)"),
    (lambda net: hadamard_extract(np.eye(6), 2), "expected a 4x4 inflated covariance, got (6, 6)"),
    (lambda net: fourier_extract(np.eye(6), 3, 2), "component must lie in [0, 2)"),
    (lambda net: fourier_extract(np.eye(6), 3, -1), "component must lie in [0, 2)"),
    (lambda net: compress_by_vectors(np.eye(2), []), "need at least one vector"),
    (lambda net: compress_by_vectors(np.eye(3), [[1, 0], [1]]), "vector dimension mismatch"),
    (lambda net: compress_by_vectors(np.eye(5), [[1, 0], [0, 1]]),
     "expected a 4x4 inflated covariance, got (5, 5)"),
    (lambda net: inflated_covariance(NOT_NDCS, np.eye(4), identity_spec(NOT_NDCS, 2), [1] * 4),
     "inflated covariance requires an NDCS network"),
    (lambda net: inflated_covariance(net, np.eye(2), identity_spec(net, 2), [1, 1]),
     "matrix size does not match the network"),
    (lambda net: inflated_covariance(net, np.eye(4), identity_spec(net, 2), [1] * 4),
     "matrix size does not match the network"),
    (lambda net: inflated_covariance(net, np.eye(1), identity_spec(net, 2), [1]),
     "matrix size does not match the network"),
    (lambda net: inflated_covariance(path_network(4), np.eye(3),
                                     identity_spec(path_network(4), 2), [1] * 3),
     "matrix size does not match the network"),
    (lambda net: inflated_covariance(net, PATH_M, identity_spec(net, 2), [1, 2]),
     "expected 3 variances"),
    (lambda net: inflated_covariance(ONE_PARTY_SOURCE, np.eye(3), ONE_PARTY_SPEC, [1] * 3),
     "no spec permutation ('A3', 's1')"),
    (lambda net: build_inflation(net, InflationSpec(0, {})), "inflation order must be >= 1"),
    (lambda net: sign_inflation(THREE_PARTY, {"a": 1}), "sign inflation requires bipartite sources"),
    # A fraction used to pass through or be truncated, and order 0 to give a
    # 0 x 0 matrix.
    (lambda net: fourier_extract(np.eye(6), 3, 1.5), "component must be an integer, got 1.5"),
    (lambda net: shift_inflation(net, {"s0": 0, "s1": 1}, 2.5),
     "inflation order must be an integer, got 2.5"),
    (lambda net: shift_inflation(net, {"s0": 0, "s1": 1.7}, 2),
     "shift for source 's1' must be an integer, got 1.7"),
    (lambda net: sign_inflation(net, {"s0": 1, "s1": 1.9}), "sign for source 's1' must be +1 or -1"),
    (lambda net: inflated_covariance(net, PATH_M, identity_spec(net, 0), [1, 2, 1]),
     "inflation order must be >= 1"),
    (lambda net: build_inflation(net, identity_spec(net, 2)._replace(order=2.0)),
     "inflation order must be an integer, got 2.0"),
    # Images 0.5 and 1.5 used to be truncated to 0 and 1.
    (lambda net: build_inflation(net, fractional_spec(net)),
     "permutation images must be integers, got dtype float64"),
    (lambda net: inflated_covariance(net, PATH_M, fractional_spec(net), PATH_M.diagonal()),
     "permutation images must be integers, got dtype float64"),
    (lambda net: fourier_extract(np.eye(6), 2.0, 1), "n must be an integer, got 2.0"),
    (lambda net: hadamard_extract(np.eye(4), 2.0), "n must be an integer, got 2.0"),
    # A missing model used to raise a bare KeyError.
    (lambda net: inflate_models(build_inflation(net, identity_spec(net, 2)),
                                *without(path_models(net), 0, "s1")),
     "no source model for 's1'"),
    (lambda net: inflate_models(build_inflation(net, identity_spec(net, 2)),
                                *without(path_models(net), 1, "A3")),
     "no response model for party 'A3'"),
    (lambda net: inflate_models(build_inflation(net, identity_spec(net, 2)),
                                *without(path_models(net), 2, "A2")),
     "no output function for party 'A2'"),
    # True equals 1 but is no sign; it used to give the all-plus spec.
    (lambda net: sign_inflation(net, {"s0": True, "s1": -1}), "sign for source 's0' must be +1 or -1"),
    (lambda net: sign_inflation(net, {"s0": 1, "s1": np.True_}),
     "sign for source 's1' must be +1 or -1"),
    # A non-finite vector used to be contracted first and the matrix blamed.
    (lambda net: compress_by_vectors(np.eye(4), [[1, float("nan")], [1, 0]]),
     "vector 0 has a NaN or infinite entry"),
    (lambda net: compress_by_vectors(np.eye(4), [[1, 0], [complex(1, float("inf")), 0]]),
     "vector 1 has a NaN or infinite entry"),
    # The order is read from the matrix, and an empty one or a scalar has none.
    (lambda net: fourier_extract(np.eye(0), 3, 0),
     "expected an inflated covariance of size n*d with n = 3, got (0, 0)"),
    (lambda net: fourier_extract(5.0, 3, 0),
     "expected an inflated covariance of size n*d with n = 3, got ()"),
    # A spec file's permutations are checked where the spec is wired.
    (lambda net: build_inflation(net, inflation_spec_from_json({"d": 2, "perms": {
        "A1|s0": [0, 0], "A2|s0": [0, 1], "A2|s1": [0, 1], "A3|s1": [0, 1]}})),
     "permutation image is not a bijection"),
    # A key off the network's (party, source) pairs used to be ignored.
    (lambda net: build_inflation(net, stray_spec(net, ("A9", "s0"))),
     "stray spec permutation ('A9', 's0')"),
    (lambda net: inflated_covariance(net, PATH_M, stray_spec(net, ("A1", "s1")), PATH_M.diagonal()),
     "stray spec permutation ('A1', 's1')"),
    (lambda net: build_inflation(net, inflation_spec_from_json({"d": 2, "perms": {
        **{f"{p}|{s}": [0, 1] for p, s in identity_spec(net, 2).perms}, "A1|zz": [5, 5]}})),
     "stray spec permutation ('A1', 'zz')"),
], ids=["shift-not-bipartite", "shift-missing", "shift-too-large", "shift-negative",
        "shift-order", "sign-missing", "fourier-shape", "fourier-shape-8x8", "hadamard-shape",
        "fourier-component-high",
        "fourier-component-negative", "compress-no-vectors", "compress-unequal",
        "compress-size", "covariance-not-ndcs", "covariance-size", "covariance-size-4x4",
        "covariance-size-1x1", "covariance-size-3x3-on-4-path", "covariance-variances",
        "covariance-one-party-source-perm", "build-order", "sign-not-bipartite",
        "fourier-component-fraction", "shift-order-fraction",
        "shift-fraction", "sign-fraction", "covariance-order-0", "build-order-float",
        "build-image-fraction", "covariance-image-fraction", "fourier-n-float", "hadamard-n-float",
        "models-source-missing", "models-response-missing", "models-function-missing",
        "sign-bool", "sign-numpy-bool", "compress-vector-nan", "compress-vector-inf",
        "fourier-order-0", "fourier-scalar", "spec-json-not-bijection",
        "build-stray-party", "covariance-party-off-source", "spec-json-stray-source"])
def test_input_checks(path_net, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(path_net)


def test_numpy_integers_inflate_and_extract_alike(path_net):
    spec = shift_inflation(path_net, {"s0": np.int64(1), "s1": np.int64(2)}, np.int64(3))
    expect = shift_inflation(path_net, {"s0": 1, "s1": 2}, 3)
    assert spec.order == 3 and all(np.array_equal(spec.perms[k], expect.perms[k]) for k in expect.perms)
    big = inflated_covariance(path_net, PATH_M, spec, PATH_M.diagonal())
    got = fourier_extract(big, np.int64(3), np.int64(1))
    want = fourier_extract(big, 3, 1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("net", [path_network(3), triangle_network()], ids=["path", "triangle"])
def test_inflated_models_fit_the_inflated_network(net):
    # The models are copied onto the inflation's own base: they used to be
    # read against a separate network argument, so 3-path models on the
    # triangle's inflation lacked every copy of s2.
    infl = build_inflation(net, identity_spec(net, 2))
    sources, responses, f = path_models(net)
    s2, r2, f2 = inflate_models(infl, sources, responses, f)
    assert list(s2.pmfs) == list(infl.network.source_names)
    assert list(r2.tables) == list(f2.values) == list(infl.network.party_names)
    build_joint_distribution(infl.network, s2, r2)
    if net.n_sources == 3:
        with pytest.raises(ValueError, match="no source model for 's2'"):
            inflate_models(infl, *path_models(path_network(3)))
