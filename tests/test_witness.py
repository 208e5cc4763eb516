"""Sign matrices, twisted Gram matrices, dual-cone membership, and the
embezzlement-based approximation."""

import re
import textwrap

import numpy as np
import pytest

from covnet.linalg import schur_product
from covnet.network import Network
from covnet.simulate import build_joint_distribution, covariance_matrix
from covnet.witness import (
    TwistedGramSpec,
    approximate_dual_by_twisted_gram,
    build_sign_matrix,
    build_twisted_gram,
    is_in_dual_cone,
)
from covnet import embezzle
from support import (
    fresh_peak_mb,
    path_network,
    random_classical_model,
    random_dual_element,
    random_ndcs_network,
    random_twisted_spec,
    triangle_network,
)


class TestSignMatrix:
    def test_path_example(self, path_net):
        g = build_sign_matrix(path_net, {"s0": 1, "s1": -1})
        assert np.array_equal(g.real, np.array([[1, 1, 0], [1, 1, -1], [0, -1, 1]]))

    def test_all_plus(self, triangle_net):
        g = build_sign_matrix(triangle_net, {"s0": 1, "s1": 1, "s2": 1})
        assert np.array_equal(g.real, np.ones((3, 3)))

    def test_generalized_conjugates_below_diagonal(self, path_net):
        g = build_sign_matrix(path_net, {"s0": 1j, "s1": 1})
        assert g[0, 1] == 1j and g[1, 0] == -1j

    def test_non_bipartite_rejected(self):
        net = Network(("A1", "A2", "A3"), ("a",), ((0, 1, 2),))
        with pytest.raises(ValueError, match="sign matrix undefined"):
            build_sign_matrix(net, {"a": 1})

    def test_modulus_enforced(self, path_net):
        with pytest.raises(ValueError, match="modulus"):
            build_sign_matrix(path_net, {"s0": 2.0, "s1": 1})


class TestTwistedGram:
    def test_all_basis_identity_perms(self, triangle_net):
        e1 = np.array([1.0, 0.0])
        ident = np.arange(2, dtype=np.intp)
        spec = TwistedGramSpec(
            2,
            {nm: e1 for nm in triangle_net.party_names},
            {
                (triangle_net.party_names[i], s): ident
                for s, adj in zip(triangle_net.source_names, triangle_net.sources)
                for i in adj
            },
        )
        w = build_twisted_gram(triangle_net, spec)
        assert np.allclose(w.real, np.ones((3, 3)))

    def test_swap_kills_entry(self, path_net):
        e1 = np.array([1.0, 0.0])
        ident = np.arange(2, dtype=np.intp)
        swap = ident[::-1].copy()
        spec = TwistedGramSpec(
            2,
            {nm: e1 for nm in path_net.party_names},
            {
                ("A1", "s0"): ident,
                ("A2", "s0"): swap,
                ("A2", "s1"): ident,
                ("A3", "s1"): ident,
            },
        )
        w = build_twisted_gram(path_net, spec)
        assert w[0, 1] == 0
        assert w[1, 2] == 1

    def test_reproduces_sign_matrix(self, path_net):
        # The swap's -1 eigenvector, shared by all parties, turns the
        # identity/swap wiring into exactly the +-1 sign matrix.
        from covnet.inflate import sign_inflation

        eps = {"s0": 1, "s1": -1}
        psi = np.array([1.0, -1.0]) / np.sqrt(2)
        spec = TwistedGramSpec(
            2,
            {nm: psi for nm in path_net.party_names},
            dict(sign_inflation(path_net, eps).perms),
        )
        w = build_twisted_gram(path_net, spec)
        assert np.allclose(w, build_sign_matrix(path_net, eps), atol=1e-15)

    def test_requires_ndcs(self):
        net = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (0, 1, 3)))
        with pytest.raises(ValueError, match="twisted Gram matrix requires an NDCS network"):
            build_twisted_gram(net, random_twisted_spec(net, np.random.default_rng(0), 2))


class TestDualCone:
    def test_twisted_outputs_in_dual_cone(self, rng):
        for _ in range(40):
            net = random_ndcs_network(rng, int(rng.integers(2, 6)))
            w = build_twisted_gram(net, random_twisted_spec(net, rng, int(rng.integers(1, 7))))
            assert is_in_dual_cone(net, w, 1e-9)

    def test_two_i_minus_ones_on_triangle(self, triangle_net):
        assert is_in_dual_cone(triangle_net, 2 * np.eye(3) - np.ones((3, 3)), 1e-9)

    def test_negative_identity(self, triangle_net):
        assert not is_in_dual_cone(triangle_net, -np.eye(3), 1e-9)

    def test_schur_with_network_covariance_is_psd(self, rng):
        for _ in range(10):
            net = random_ndcs_network(rng, int(rng.integers(3, 6)))
            sources, responses, f = random_classical_model(net, rng, 3, 3)
            c = covariance_matrix(build_joint_distribution(net, sources, responses), f)
            for _ in range(10):
                w = build_twisted_gram(net, random_twisted_spec(net, rng, int(rng.integers(1, 7))))
                ev = np.linalg.eigvalsh(schur_product(c, w))
                assert ev[0] >= -1e-8 * max(abs(ev[0]), abs(ev[-1]))


class TestApproximateDual:
    def test_rank_one_ones_blocks_exact(self, triangle_net):
        w = np.ones((3, 3))
        spec, approx, err = approximate_dual_by_twisted_gram(triangle_net, w, 4, 8)
        assert err <= 1e-9
        assert np.allclose(approx, w, atol=1e-9)

    def test_diagonal_exact(self, triangle_net):
        w = np.diag([4.0, 1.0, 1.0])
        spec, approx, err = approximate_dual_by_twisted_gram(triangle_net, w, 8, 64)
        assert np.allclose(np.diag(approx).real, [4.0, 1.0, 1.0], rtol=1e-12)

    def test_error_decreases_with_R(self, triangle_net, rng):
        w = random_dual_element(triangle_net, rng)
        _, _, e_small = approximate_dual_by_twisted_gram(triangle_net, w, 128, 2**10)
        _, _, e_big = approximate_dual_by_twisted_gram(triangle_net, w, 128, 2**13)
        assert e_big < e_small

    def test_two_i_minus_ones_monotone(self, triangle_net):
        # Rank-one sign blocks embezzle exactly, so both errors sit at
        # rounding level; monotonicity holds non-strictly.
        w = 2 * np.eye(3) - np.ones((3, 3))
        _, _, e_small = approximate_dual_by_twisted_gram(triangle_net, w, 128, 2**10)
        _, _, e_big = approximate_dual_by_twisted_gram(triangle_net, w, 128, 2**12)
        assert e_big <= e_small + 1e-12
        assert e_big <= 1e-9

    def test_error_respects_overlap_bound(self, triangle_net, rng):
        # |W'_ij - w_ij| <= sqrt(2 w_ii w_jj) (sqrt(1-o_i) + sqrt(1-o_j))
        # with o_* at least the guaranteed bound.
        T, R = 128, 2**10
        w = random_dual_element(triangle_net, rng)
        _, approx, err = approximate_dual_by_twisted_gram(triangle_net, w, T, R)
        d_g = 2
        o = embezzle.harmonic_number(R // d_g) / embezzle.harmonic_number(R) - 2 * np.pi / T
        limit = np.sqrt(2.0) * 2.0 * np.sqrt(max(0.0, 1.0 - o))
        assert err <= limit + 1e-9

    def test_output_stays_in_dual_cone(self, path_net, rng):
        w = random_dual_element(path_net, rng)
        _, approx, _ = approximate_dual_by_twisted_gram(path_net, w, 64, 2**9)
        assert is_in_dual_cone(path_net, approx, 1e-9)

    @pytest.mark.parametrize("k", [-120, 120])
    def test_error_scales_with_w(self, triangle_net, k):
        # No absolute cut on a Gram vector's norm: w x 2^k gives err x 2^k.
        w = random_dual_element(triangle_net, np.random.default_rng(5))
        _, _, err = approximate_dual_by_twisted_gram(triangle_net, w, 2**7, 2**10)
        _, _, scaled = approximate_dual_by_twisted_gram(triangle_net, 2.0**k * w, 2**7, 2**10)
        assert scaled == 2.0**k * err

    def test_rejects_non_dual(self, triangle_net):
        with pytest.raises(ValueError, match="not a dual element"):
            approximate_dual_by_twisted_gram(triangle_net, -np.eye(3), 4, 8)

    @pytest.mark.parametrize("net", [triangle_network(), path_network(3)], ids=["triangle", "path"])
    def test_materialized_spec_reproduces_approximation(self, net, rng):
        # The closed-form entries against build_twisted_gram on the explicit
        # vectors and permutations.  In the first matrix party A2 has a zero
        # Gram vector in every block.
        zero_a2 = np.diag([1.0, 0.0, 2.0]).astype(complex)
        zero_a2[0, 2], zero_a2[2, 0] = 0.5 - 0.5j, 0.5 + 0.5j
        ws = [zero_a2] + [random_dual_element(net, rng, complex_=c) for c in (False, True)]
        for w in ws:
            for T, R in ((2, 2), (4, 8), (8, 64)):
                spec, approx, _ = approximate_dual_by_twisted_gram(net, w, T, R)
                explicit = spec.materialize()
                assert explicit.dimension == spec.dimension == T * 2 * R
                assert np.max(np.abs(build_twisted_gram(net, explicit) - approx)) <= 1e-12
        spec, _, _ = approximate_dual_by_twisted_gram(net, zero_a2, 4, 8)
        perms = spec.materialize().perms
        for source in ("s0", "s1"):
            assert np.array_equal(perms[("A2", source)], np.arange(64))

    def test_full_size_stays_small(self):
        # T*d_g*R = 2^24 entries per party: explicit vectors and permutations
        # for a triangle would take over 1 GB.
        peak = fresh_peak_mb(textwrap.dedent("""
            import numpy as np
            from covnet.network import Network
            from covnet.witness import approximate_dual_by_twisted_gram
            w = np.array([[2, 0.5 + 0.3j, -0.7j], [0.5 - 0.3j, 1.5, 0.4], [0.7j, 0.4, 1]])
            parties = ("A1", "A2", "A3")
            for net in (Network(parties, ("s0", "s1", "s2"), ((0, 1), (1, 2), (0, 2))),
                        Network(parties, ("s0", "s1"), ((0, 1), (1, 2)))):
                approximate_dual_by_twisted_gram(net, w, 2**7, 2**16)
        """))
        assert peak < 512

    def test_memory_cap(self, triangle_net):
        with pytest.raises(ValueError, match="too large"):
            approximate_dual_by_twisted_gram(triangle_net, np.eye(3), 2**10, 2**20)


@pytest.mark.parametrize("net,w,T,R,message", [
    (triangle_network(), np.eye(2), 4, 8, "matrix size does not match the network"),
    (path_network(3), np.eye(4), 4, 8, "matrix size does not match the network"),
    (path_network(3), np.eye(1), 4, 8, "matrix size does not match the network"),
    (path_network(4), np.eye(3), 4, 8, "matrix size does not match the network"),
    (triangle_network(), np.eye(3), 1, 8, "T must be >= 2"),
    (triangle_network(), np.eye(3), 4, 1, "R must be >= 2"),
    (Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (1, 2, 3))), np.eye(4), 4, 8,
     "twisted Gram approximation requires an NDCS network"),
], ids=["size", "size-4x4-on-3-path", "size-1x1-on-3-path", "size-3x3-on-4-path", "T", "R",
        "not-ndcs"])
def test_approximate_dual_input_checks(net, w, T, R, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        approximate_dual_by_twisted_gram(net, w, T, R)


def unit_spec(net, vectors):
    """The dimension-1 spec with vector [1] for every party but ``vectors``'."""
    perms = {(net.party_names[i], s): [0] for s, adj in zip(net.source_names, net.sources)
             for i in adj}
    return TwistedGramSpec(1, {nm: [1.0] for nm in net.party_names} | vectors, perms)


@pytest.mark.parametrize("call,message", [
    (lambda net: build_sign_matrix(net, {"s0": 1}), "no sign value for source 's1'"),
    (lambda net: build_twisted_gram(net, TwistedGramSpec(1, {"A1": [1.0], "A2": [1.0]}, {})),
     "no vector for party 'A3'"),
    (lambda net: build_twisted_gram(
        net, TwistedGramSpec(1, {"A1": [1.0], "A2": [1.0, 0.0], "A3": [1.0]}, {})),
     "vector for party 'A2' is not of dimension 1"),
    # Source s1 holds A3 alone: no off-diagonal entry reads its permutation.
    (lambda net: build_twisted_gram(
        Network(("A1", "A2", "A3"), ("s0", "s1"), ((0, 1), (2,))),
        TwistedGramSpec(1, {"A1": [1.0], "A2": [1.0], "A3": [1.0]},
                        {("A1", "s0"): [0], ("A2", "s0"): [0]})),
     "no spec permutation ('A3', 's1')"),
    (lambda net: build_twisted_gram(net, TwistedGramSpec(
        2.0, {nm: [1.0, 0.0] for nm in net.party_names},
        {(net.party_names[i], s): [0, 1]
         for s, adj in zip(net.source_names, net.sources) for i in adj})),
     "dimension must be an integer, got 2.0"),
    (lambda net: build_sign_matrix(net, {"s0": float("nan"), "s1": 1}),
     "sign value for source 's0' must be a number of modulus 1, got nan"),
    # A non-finite vector used to give NaN entries rather than an input error.
    (lambda net: build_twisted_gram(net, unit_spec(net, {"A2": [float("nan")]})),
     "vector for party 'A2' has a NaN or infinite entry"),
    (lambda net: build_twisted_gram(net, unit_spec(net, {"A3": [complex(1, float("inf"))]})),
     "vector for party 'A3' has a NaN or infinite entry"),
    # True used to put 1+0j in the matrix.
    (lambda net: build_sign_matrix(net, {"s0": True, "s1": 1}),
     "sign value for source 's0' must be a number of modulus 1, got True"),
    (lambda net: build_sign_matrix(net, {"s0": 1, "s1": np.False_}),
     "sign value for source 's1' must be a number of modulus 1, got np.False_"),
    # A permutation keyed off the network used to be ignored.
    (lambda net: build_twisted_gram(net, unit_spec(net, {})._replace(
        perms={**unit_spec(net, {}).perms, ("A1", "s1"): [0]})),
     "stray spec permutation ('A1', 's1')"),
    (lambda net: build_twisted_gram(net, unit_spec(net, {})._replace(
        perms={**unit_spec(net, {}).perms, ("A9", "s0"): [0]})),
     "stray spec permutation ('A9', 's0')"),
    # A scalar used to raise a TypeError from len(), a 2-d vector of length
    # 1 to be read as a vector and a string to be read as a number.
    (lambda net: build_twisted_gram(net, unit_spec(net, {"A1": 1.0})),
     "vector for party 'A1' must be a nonempty vector"),
    (lambda net: build_twisted_gram(net, unit_spec(net, {"A2": [[1.0]]})),
     "vector for party 'A2' must be a nonempty vector"),
    (lambda net: build_twisted_gram(net, unit_spec(net, {"A3": []})),
     "vector for party 'A3' must be a nonempty vector"),
    (lambda net: build_twisted_gram(net, unit_spec(net, {"A1": ["1"]})),
     "vector for party 'A1': expected numbers, got an array of dtype <U1"),
    # complex() used to parse the string "1" as the sign 1, and to raise a
    # TypeError on a list.
    (lambda net: build_sign_matrix(net, {"s0": "1", "s1": -1}),
     "sign value for source 's0' must be a number of modulus 1, got '1'"),
    (lambda net: build_sign_matrix(net, {"s0": 1, "s1": [-1]}),
     "sign value for source 's1' must be a number of modulus 1, got [-1]"),
], ids=["sign-missing", "gram-vector-missing", "gram-vector-dimension",
        "gram-one-party-source-perm", "gram-dimension-float", "sign-nan", "gram-vector-nan",
        "gram-vector-inf", "sign-bool", "sign-numpy-bool", "gram-party-off-source",
        "gram-stray-party", "gram-vector-scalar", "gram-vector-2d", "gram-vector-empty",
        "gram-vector-string", "sign-string", "sign-list"])
def test_input_checks(path_net, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(path_net)
