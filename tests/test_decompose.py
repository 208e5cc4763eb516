"""Feasibility solver: fast bipartite test, split solver, certificates."""

import itertools

import numpy as np
import pytest

from covnet import solver
from covnet.gaussian import GaussianNetworkModel, sample
from covnet.linalg import TOL, frobenius_norm
from covnet.solver import (
    Decomposition,
    DualWitness,
    Feasibility,
    decompose,
    decomposition_from_json,
    fast_check_bipartite,
    is_in_dual_cone,
    verify_decomposition,
    verify_witness,
    witness_from_json,
)
from covnet.network import Network
from covnet import splits
from covnet.splits import _Splits, _assemble, _comparison
from support import (
    cycle_network,
    path_network,
    random_bipartite_network,
    random_boundary_instance,
    random_dual_element,
    random_feasible,
    random_ndcs_network,
    star_network,
)

PATH_M = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float)
PATH_SPLIT = {
    "s0": np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float),
    "s1": np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=float),
}
NON_NDCS = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (0, 1, 3)))
# A three-party source rules out the comparison witness, so the barrier
# decides whenever the equal split and the comparison split fail.
SIZES_2_AND_3 = Network(("A1", "A2", "A3", "A4"), ("a", "b", "c"), ((0, 1), (1, 2), (0, 2, 3)))
# Feasible, as [[4, 2], [2, 1]] on (A1, A2) + J on (A2, A3) + J on (A1, A3,
# A4), but comp(M) has smallest eigenvalue -0.62: the barrier decides.
SIZES_2_AND_3_BARRIER = np.array([[5, 2, 1, 1], [2, 2, 1, 0], [1, 1, 2, 1], [1, 0, 1, 1]], dtype=float)
# The triangle's all-ones matrix on A1-A3: the barrier finds it INFEASIBLE.
SIZES_2_AND_3_ONES = np.diag([0.0, 0.0, 0.0, 1.0])
SIZES_2_AND_3_ONES[:3, :3] = 1.0


class TestFastCheck:
    def test_path_feasible(self, path_net):
        assert fast_check_bipartite(path_net, PATH_M, 1e-7) is Feasibility.FEASIBLE

    def test_triangle_ones_infeasible(self, triangle_net):
        assert (
            fast_check_bipartite(triangle_net, np.ones((3, 3)), 1e-7)
            is Feasibility.INFEASIBLE
        )

    def test_diagonal_always_feasible(self, rng):
        net = star_network(5)
        m = np.diag(rng.random(5))
        assert fast_check_bipartite(net, m, 1e-9) is Feasibility.FEASIBLE

    def test_forbidden_entry_infeasible(self, path_net):
        m = PATH_M.copy()
        m[0, 2] = m[2, 0] = 0.5
        assert fast_check_bipartite(path_net, m, 1e-7) is Feasibility.INFEASIBLE

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_bad_tol_rejected(self, path_net, tol):
        # PATH_M is feasible; its (0, 2) entry belongs to no source.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fast_check_bipartite(path_net, PATH_M, tol)

    def test_non_bipartite_unavailable(self):
        net = Network(("A1", "A2", "A3"), ("a",), ((0, 1, 2),))
        with pytest.raises(ValueError, match="fast path unavailable"):
            fast_check_bipartite(net, np.eye(3), 1e-7)

    def test_size_mismatch_rejected(self, path_net):
        with pytest.raises(ValueError, match="matrix size does not match"):
            fast_check_bipartite(path_net, np.eye(2), 1e-7)


class TestDecompose:
    def test_path_feasible(self, path_net):
        res = decompose(path_net, PATH_M)
        assert res.status is Feasibility.FEASIBLE
        assert verify_decomposition(path_net, PATH_M, res.decomposition, 1e-7)

    def test_triangle_ones_witness(self, triangle_net):
        res = decompose(triangle_net, np.ones((3, 3)))
        assert res.status is Feasibility.INFEASIBLE
        assert verify_witness(triangle_net, np.ones((3, 3)), res.witness, 1e-7)
        # The recovered witness approaches (2I - J)/3, inner product -1.
        assert res.witness.inner_product == pytest.approx(-1.0, abs=1e-4)

    def test_zero_matrix(self, triangle_net):
        res = decompose(triangle_net, np.zeros((3, 3)))
        assert res.status is Feasibility.FEASIBLE
        assert res.sweeps == 0
        assert all(np.all(t == 0) for t in res.decomposition.terms.values())

    def test_forbidden_entry_immediate_witness(self, path_net):
        m = PATH_M.astype(complex)
        m[0, 2] = 0.3 + 0.4j
        m[2, 0] = np.conj(m[0, 2])
        res = decompose(path_net, m)
        assert res.status is Feasibility.INFEASIBLE
        w = res.witness.w
        # Mass only on the forbidden pair; source blocks vacuously PSD.
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        assert w[0, 1] == 0 and w[1, 2] == 0
        # Inner product is -sqrt(2)|m_02| after unit normalization.
        assert res.witness.inner_product == pytest.approx(-np.sqrt(2) * 0.5, abs=1e-12)
        assert verify_witness(path_net, m, res.witness, 1e-7)

    def test_sweep_budget_exhausted_is_undecided(self, monkeypatch):
        m = SIZES_2_AND_3_BARRIER
        # The closed forms fail and one Newton step does not decide.
        assert decompose(SIZES_2_AND_3, m, 1e-12).sweeps > 1
        monkeypatch.setattr(solver, "MAX_NEWTON_STEPS", 1)
        res = decompose(SIZES_2_AND_3, m, 1e-12)
        assert res.status is Feasibility.UNDECIDED
        assert "exhausted" in res.message
        assert res.sweeps == 1

    def test_duality_gap_closed_is_undecided(self, monkeypatch):
        # With every dual point negated no witness verifies, so the barrier
        # runs on until its bound on the optimum is within 1e-3 tol.
        assemble = solver._assemble
        monkeypatch.setattr(solver, "_assemble", lambda *args: -assemble(*args))
        res = decompose(SIZES_2_AND_3, SIZES_2_AND_3_ONES)
        assert (res.status, res.message, res.sweeps) == (
            Feasibility.UNDECIDED, "duality gap closed", 32)

    def test_line_search_failure_is_undecided(self, monkeypatch):
        # Only the starting point is interior: every trial point is refused.
        log_det, calls = _Splits.log_det, []

        def first_only(self, z):
            calls.append(z)
            return log_det(self, z) if len(calls) == 1 else None

        monkeypatch.setattr(_Splits, "log_det", first_only)
        res = decompose(SIZES_2_AND_3, SIZES_2_AND_3_BARRIER)
        assert (res.status, res.message, res.sweeps) == (
            Feasibility.UNDECIDED, "line search failed", 0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0, -1])
    def test_non_finite_tol_rejected(self, triangle_net, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            decompose(triangle_net, np.eye(3), tol)

    def test_deterministic_reruns(self, rng):
        for m in (random_boundary_instance(SIZES_2_AND_3, rng), SIZES_2_AND_3_ONES):
            a = decompose(SIZES_2_AND_3, m)
            b = decompose(SIZES_2_AND_3, m)
            assert a.sweeps > 0
            assert a.status == b.status and a.sweeps == b.sweeps
            if a.status is Feasibility.FEASIBLE:
                for name, term in a.decomposition.terms.items():
                    assert np.array_equal(term, b.decomposition.terms[name])
            else:
                assert np.array_equal(a.witness.w, b.witness.w)

    def test_terms_sum_to_target(self, rng):
        # Real instances stay real through the split (the Gaussian sampler
        # takes the real part of each term); complex ones sum to M as well.
        net = Network(
            ("A1", "A2", "A3", "A4"), ("a", "b", "c"), ((0, 1), (1, 2), (0, 2, 3))
        )
        barrier = 0
        for cplx in (False, True):
            for _ in range(10):
                m = random_boundary_instance(net, rng, cplx)
                res = decompose(net, m)
                if res.status is not Feasibility.FEASIBLE:
                    continue
                barrier += res.sweeps > 0
                scale = max(1.0, np.linalg.norm(m))
                assert np.max(np.abs(res.decomposition.total() - m)) <= 1e-12 * scale
                if not cplx:
                    assert all(np.all(t.imag == 0) for t in res.decomposition.terms.values())
        assert barrier >= 2

    def test_barrier_witness_strictly_inside_cone(self, rng):
        # The Newton-step dual point is positive definite on every source
        # block, on NDCS networks and on networks sharing off-diagonals.
        parties = ("A1", "A2", "A3", "A4")
        nets = [random_ndcs_network(rng, n) for n in (3, 4, 5, 6) for _ in range(3)]
        nets += 2 * [
            Network(parties, ("a", "b", "c"), ((0, 1, 2), (1, 2, 3), (0, 3))),
            Network(parties, ("a", "b", "c"), ((0, 1, 2), (0, 1, 3), (2, 3))),
        ]
        seen = {True: 0, False: 0}
        for net in nets:
            for _ in range(8):
                m = random_boundary_instance(net, rng)
                res = decompose(net, m)
                if res.status is not Feasibility.INFEASIBLE or res.sweeps == 0:
                    continue
                seen[net.is_ndcs().is_ndcs] += 1
                for ix in net.blocks():
                    assert np.linalg.eigvalsh(res.witness.w[np.ix_(ix, ix)])[0] > 0
        assert seen[True] >= 5 and seen[False] >= 2

    def test_non_ndcs_unequal_complex_split(self):
        # Parties A1 and A2 share both sources.  Only source a may carry the
        # imaginary part of m[0, 1], so the equal split fails and the
        # solver must move a complex share.
        net = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (0, 1, 3)))
        v = np.array([1, 1j, 1, 0])
        u = np.array([1, 1, 0, 1])
        m = np.outer(v, v.conj()) + np.outer(u, u.conj())
        res = decompose(net, m)
        assert res.status is Feasibility.FEASIBLE
        assert res.sweeps > 0
        assert verify_decomposition(net, m, res.decomposition, 1e-7)
        assert res.decomposition.terms["a"][0, 1] == pytest.approx(-1j, abs=1e-3)

    def test_non_ndcs_network_still_sound(self, rng):
        # No completeness claim for double-common-source networks, but any
        # verdict must carry a verifiable certificate.
        net = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (0, 1, 3)))
        for _ in range(5):
            m = random_feasible(net, rng)
            res = decompose(net, m)
            assert res.status is Feasibility.FEASIBLE
            assert verify_decomposition(net, m, res.decomposition, 1e-7)
        bad = np.eye(4)
        bad[2, 3] = bad[3, 2] = 0.9  # pair (A3, A4) shares no source
        res = decompose(net, bad)
        assert res.status is Feasibility.INFEASIBLE
        assert verify_witness(net, bad, res.witness, 1e-7)

    def test_single_party_network(self):
        net = Network(("A1",), ("s",), ((0,),))
        assert decompose(net, [[2.0]]).status is Feasibility.FEASIBLE
        res = decompose(net, [[-1.0]])
        assert res.status is Feasibility.INFEASIBLE
        assert verify_witness(net, [[-1.0]], res.witness, 1e-7)

    def test_empty_network(self):
        # No party and no source: the stack of blocks is empty, and the
        # empty equal split decides.
        net, m = Network((), (), ()), np.zeros((0, 0))
        res = decompose(net, m)
        assert (res.status, res.sweeps, res.message) == (Feasibility.FEASIBLE, 0, "equal split")
        assert res.decomposition.terms == {}
        assert verify_decomposition(net, m, res.decomposition, 1e-7)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("check", [
    lambda net, tol: verify_decomposition(net, PATH_M, Decomposition(PATH_SPLIT, PATH_M, 0.0), tol),
    lambda net, tol: verify_witness(net, PATH_M, DualWitness(-np.eye(3), -4.0), tol),
    lambda net, tol: is_in_dual_cone(net, -np.eye(3), tol),
], ids=["verify_decomposition", "verify_witness", "is_in_dual_cone"])
def test_checks_reject_bad_tol(path_net, check, tol):
    # At inf every block would pass, and at -1 a valid split would fail.
    with pytest.raises(ValueError, match="finite and nonnegative"):
        check(path_net, tol)


# Every check reads M through one size test.  Without it, the 4 x 4 witness
# with all its mass on the party no source holds would pass verify_witness,
# M = [[0]] with no terms would pass verify_decomposition, and the 3 x 3 M on
# four parties would end in an IndexError or a broadcast error.
WRONG_SIZES = pytest.mark.parametrize("net,m", [
    pytest.param(path_network(3), np.eye(4), id="4x4-on-3-path"),
    pytest.param(path_network(3), np.zeros((1, 1)), id="1x1-on-3-path"),
    pytest.param(path_network(4), np.eye(3), id="3x3-on-4-path"),
])


@WRONG_SIZES
@pytest.mark.parametrize("check", [
    lambda net, m: decompose(net, m),
    lambda net, m: fast_check_bipartite(net, m, 1e-7),
    lambda net, m: verify_decomposition(net, m, Decomposition({}, m, 0.0), 1e-7),
    lambda net, m: verify_witness(net, m, DualWitness(-np.diag(np.eye(len(m))[-1]), -1.0), 1e-7),
    lambda net, m: is_in_dual_cone(net, m, 1e-7),
], ids=["decompose", "fast_check_bipartite", "verify_decomposition", "verify_witness",
        "is_in_dual_cone"])
def test_matrix_size_must_match_the_network(net, m, check):
    with pytest.raises(ValueError, match="^matrix size does not match the network$"):
        check(net, m)


class TestVerifyDecomposition:
    def test_hand_split(self, path_net):
        d = Decomposition(PATH_SPLIT, PATH_M, 0.0)
        assert verify_decomposition(path_net, PATH_M, d, 1e-9)

    def test_support_violation(self, path_net):
        terms = {k: v.copy() for k, v in PATH_SPLIT.items()}
        terms["s0"][0, 2] = terms["s0"][2, 0] = 0.1
        check = verify_decomposition(path_net, PATH_M, Decomposition(terms, PATH_M, 0.0), 1e-7)
        assert not check
        assert any("outside its block" in r for r in check.reasons)

    def test_residual_violation(self, path_net):
        m_off = PATH_M + 0.01 * np.eye(3)
        check = verify_decomposition(
            path_net, m_off, Decomposition(PATH_SPLIT, m_off, 0.0), 1e-7
        )
        assert not check
        assert any("residual" in r for r in check.reasons)

    def test_non_psd_term(self, path_net):
        terms = {
            "s0": np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]], dtype=float),
            "s1": PATH_M - np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]], dtype=float),
        }
        # Second term also breaks support, but the PSD failure must be named.
        check = verify_decomposition(path_net, PATH_M, Decomposition(terms, PATH_M, 0.0), 1e-9)
        assert any("not PSD" in r for r in check.reasons)

    def test_non_finite_term_rejected(self, path_net):
        net = Network(("A1", "A2"), ("s",), ((0, 1),))
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        check = verify_decomposition(net, np.eye(2), Decomposition({"s": bad}, np.eye(2), 0.0), 1e-9)
        assert not check
        assert "term 's' has a non-finite entry" in check.reasons
        assert "residual" in check.reasons
        assert not is_in_dual_cone(net, bad, 1e-9)
        terms = {k: v.copy() for k, v in PATH_SPLIT.items()}
        terms["s0"][0, 2] = terms["s0"][2, 0] = np.nan
        check = verify_decomposition(path_net, PATH_M, Decomposition(terms, PATH_M, 0.0), 1e-9)
        assert "term 's0' has entries outside its block" in check.reasons

    @pytest.mark.parametrize("terms, reasons", [
        ({**PATH_SPLIT, "s9": np.zeros((3, 3))}, ("unknown source 's9'",)),
        ({"s0": PATH_SPLIT["s0"], "beta": PATH_SPLIT["s1"]}, ("unknown source 'beta'", "residual")),
        ({**PATH_SPLIT, "s1": np.eye(2)}, ("term 's1' has wrong shape", "residual")),
    ], ids=["extra-term", "unknown-name", "wrong-shape"])
    def test_malformed_terms_named(self, path_net, terms, reasons):
        check = verify_decomposition(path_net, PATH_M, Decomposition(terms, PATH_M, 0.0), 1e-9)
        assert check.reasons == reasons

    def test_non_hermitian_terms_rejected(self, path_net):
        # The imaginary diagonal parts cancel in the sum, and eigvalsh, which
        # reads one triangle, would see two PSD blocks.
        m = np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]])
        s0 = np.array([[1, 0.5, 0], [0.5, 0.5 + 3j, 0], [0, 0, 0]])
        s1 = np.array([[0, 0, 0], [0, 0.5 - 3j, 0.5], [0, 0.5, 1]])
        check = verify_decomposition(path_net, m, Decomposition({"s0": s0, "s1": s1}, m, 0.0), 1e-7)
        assert check.reasons == ("term 's0' is not Hermitian", "term 's1' is not Hermitian")

    def test_entries_above_the_diagonal_alone_rejected(self):
        net = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (0, 1, 3)))
        a = np.diag([0.5, 0.5, 1.0, 0.0])
        b = np.diag([0.5, 0.5, 0.0, 1.0])
        a[0, 1], b[0, 1] = 10.0, -10.0
        check = verify_decomposition(net, np.eye(4), Decomposition({"a": a, "b": b}, np.eye(4), 0.0), 1e-7)
        assert check.reasons == ("term 'a' is not Hermitian", "term 'b' is not Hermitian")


class TestVerifyWitness:
    def test_hand_witness(self, triangle_net):
        w = 2 * np.eye(3) - np.ones((3, 3))
        w = w / np.linalg.norm(w)
        wit = DualWitness(w, float(np.vdot(w, np.ones((3, 3))).real))
        assert wit.inner_product == pytest.approx(-1.0, abs=1e-15)
        assert verify_witness(triangle_net, np.ones((3, 3)), wit, 1e-7)

    def test_no_witness_against_feasible(self, path_net, rng):
        m = random_feasible(path_net, rng)
        for _ in range(20):
            w = random_dual_element(path_net, rng)
            wit = DualWitness(w, float(np.vdot(w, m).real))
            assert not verify_witness(path_net, m, wit, 1e-9)

    @pytest.mark.parametrize("stated", [5.0, 0.0, np.nan])
    def test_stated_inner_product_must_be_negative(self, triangle_net, stated):
        # The test scores <W / ||W||_F, M> itself; the stated value must
        # still be negative, and a NaN is not.
        w = 2 * np.eye(3) - np.ones((3, 3))
        check = verify_witness(triangle_net, np.ones((3, 3)), DualWitness(w, stated), 1e-7)
        assert check.reasons == ("stated inner product is not negative",)
        assert verify_witness(triangle_net, np.ones((3, 3)), DualWitness(w, -1.0), 1e-7)

    def test_zero_witness_rejected(self, triangle_net):
        wit = DualWitness(np.zeros((3, 3)), 0.0)
        assert not verify_witness(triangle_net, np.ones((3, 3)), wit, 1e-9)

    def test_one_triangle_forgery_rejected(self, path_net):
        # Against a feasible M, a witness with -100 only above the diagonal
        # has Re<W, M> = -97 while eigvalsh sees identity blocks.
        m = np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]])
        assert fast_check_bipartite(path_net, m, 1e-7) is Feasibility.FEASIBLE
        assert decompose(path_net, m).status is Feasibility.FEASIBLE
        w = np.eye(3)
        w[0, 1] = w[1, 2] = -100.0
        wit = DualWitness(w, float(np.vdot(w, m).real))
        assert wit.inner_product == -97.0
        check = verify_witness(path_net, m, wit, 1e-7)
        assert check.reasons == ("block 's0' is not Hermitian", "block 's1' is not Hermitian")
        assert not is_in_dual_cone(path_net, w, 1e-7)

    @pytest.mark.parametrize("net", [Network(("A", "B", "C"), ("s",), ((0, 1, 2),)), path_network(5)],
                             ids=["one-source-holds-three", "5-path"])
    def test_tol_deep_forgery_against_feasible_rejected(self, net):
        # M = diag(0, 1, ...) is the equal split.  W = diag(1, -1e-7, ...)
        # has blocks PSD within tol at unit norm and scores about -tol tr M,
        # below -tol ||M||_F but not below -tol (b + 1) / 2 tr M.
        n = net.n_parties
        m = np.diag([0.0] + [1.0] * (n - 1))
        res = decompose(net, m)
        assert res.status is Feasibility.FEASIBLE
        assert verify_decomposition(net, m, res.decomposition, 1e-7)
        w = np.diag([1.0] + [-1e-7] * (n - 1))
        check = verify_witness(net, m, DualWitness(w, float(np.vdot(w, m).real)), 1e-7)
        assert check.reasons == ("inner product is not negative enough",)

    def test_dimension_mismatch(self, path_net):
        check = verify_witness(path_net, PATH_M, DualWitness(-np.eye(2), -2.0), 1e-7)
        assert (check.ok, check.reasons) == (False, ("dimension mismatch",))
        with pytest.raises(ValueError, match="matrix size does not match"):
            is_in_dual_cone(path_net, np.eye(2), 1e-7)


class TestConeLaws:
    def test_scaling_and_sums_stay_feasible(self, triangle_net, rng):
        for _ in range(5):
            m1 = random_feasible(triangle_net, rng)
            m2 = random_feasible(triangle_net, rng)
            r = float(rng.uniform(0.1, 5.0))
            for m in (r * m1, m1 + m2):
                res = decompose(triangle_net, m)
                assert res.status is Feasibility.FEASIBLE

    def test_weak_duality(self, triangle_net, rng):
        for _ in range(20):
            m = random_feasible(triangle_net, rng)
            w = random_dual_element(triangle_net, rng)
            assert float(np.vdot(w, m).real) >= -1e-9


class TestJson:
    def test_decomposition_round_trip(self, path_net):
        res = decompose(path_net, PATH_M)
        back = decomposition_from_json(res.decomposition.to_json())
        assert verify_decomposition(path_net, PATH_M, back, 1e-6)

    def test_witness_round_trip(self, triangle_net):
        res = decompose(triangle_net, np.ones((3, 3)))
        back = witness_from_json(res.witness.to_json())
        assert verify_witness(triangle_net, np.ones((3, 3)), back, 1e-6)

    @pytest.mark.parametrize("read,entry,message", [
        (witness_from_json, {"inner_product": "-1"}, "'inner_product' must hold JSON numbers only"),
        (witness_from_json, {"inner_product": True}, "'inner_product' must hold JSON numbers only"),
        (witness_from_json, {"inner_product": "-Infinity"},
         "'inner_product' must hold JSON numbers only"),
        (witness_from_json, {"inner_product": [-1.0]},
         "'inner_product' must be one JSON number, not a list"),
        (decomposition_from_json, {"residual": "0.5"}, "'residual' must hold JSON numbers only"),
        (decomposition_from_json, {"residual": [0.5]},
         "'residual' must be one JSON number, not a list"),
        (decomposition_from_json, {"terms": [[1.0]]}, "must contain a 'terms' object"),
    ], ids=["inner-product-string", "inner-product-bool", "inner-product-string-infinity",
            "inner-product-list", "residual-string", "residual-list", "terms-not-an-object"])
    def test_malformed_certificate_rejected(self, read, entry, message):
        base = {witness_from_json: DualWitness(-np.eye(2), -2.0),
                decomposition_from_json: Decomposition({}, np.eye(2), 0.0)}[read].to_json()
        with pytest.raises(ValueError, match=message):
            read({**base, **entry})


def _barrier_point(splits, rng):
    """A random z at which every S_a is positive definite."""
    z = 0.05 * rng.normal(size=splits.size)
    z[-1] = min(np.linalg.eigvalsh(b).min() for b in splits.base) - 1.0
    return z


class TestEighBarrier:
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize(
        "net", [path_network(5), SIZES_2_AND_3, NON_NDCS], ids=["path", "sizes-2-3", "non-ndcs"]
    )
    def test_derivatives_match_finite_differences(self, net, cplx, rng):
        m = random_boundary_instance(net, rng, cplx)
        if net is NON_NDCS and cplx:  # test_non_ndcs_unequal_complex_split's matrix
            v, u = np.array([1, 1j, 1, 0]), np.array([1, 1, 0, 1])
            m = np.outer(v, v.conj()) + np.outer(u, u.conj())
        splits = _Splits(net, m)
        if net is NON_NDCS:
            # Shares of the off-diagonal (0, 1), in both parts when complex.
            assert splits.size == (5 if cplx else 4)
        z = _barrier_point(splits, rng)
        grad, hess = splits.derivatives(splits.log_det(z)[1])
        h = 1e-5
        for k in range(splits.size):
            e = np.zeros(splits.size)
            e[k] = h
            hi, lo = splits.log_det(z + e), splits.log_det(z - e)
            assert -(hi[0] - lo[0]) / (2 * h) == pytest.approx(grad[k], abs=1e-6)
            fd = (splits.derivatives(hi[1])[0] - splits.derivatives(lo[1])[0]) / (2 * h)
            np.testing.assert_allclose(fd, hess[:, k], atol=1e-6)

    def test_one_batched_eigh_per_trial_point_and_no_cholesky_or_inverse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the barrier factors with eigh alone")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        eigh, log_det = np.linalg.eigh, _Splits.log_det
        shapes, points = [], []

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def recording_log_det(self, z):
            start = len(shapes)
            found = log_det(self, z)
            points.append((shapes[start:], found is not None))
            return found

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(_Splits, "log_det", recording_log_det)
        rng = np.random.default_rng(7)
        stepped = 0
        for cplx in (False, True) * 3:
            m = random_boundary_instance(SIZES_2_AND_3, rng, cplx)
            res = decompose(SIZES_2_AND_3, m)
            if res.status is Feasibility.FEASIBLE:
                assert verify_decomposition(SIZES_2_AND_3, m, res.decomposition, 1e-7)
            else:
                assert verify_witness(SIZES_2_AND_3, m, res.witness, 1e-7)
            stepped += res.sweeps > 0
        assert stepped >= 2
        # One call at every trial point, accepted or not, on the stack of
        # all three blocks padded to 3 x 3 (two are 2 x 2).
        assert sum(ok for _, ok in points) >= stepped
        assert all(calls == [(3, 3, 3)] for calls, _ in points)

    def test_dual_point_that_fails_is_dropped(self, monkeypatch):
        # A spoiled first dual point fails verify_witness and is not
        # returned: the barrier goes on to a later centred point, whose
        # witness verifies.
        m = SIZES_2_AND_3_ONES
        res = decompose(SIZES_2_AND_3, m)
        assert (res.status, res.message) == (Feasibility.INFEASIBLE, "") and res.sweeps > 0
        assemble, made = solver._assemble, []

        def spoiled(*args):
            made.append(assemble(*args))
            return -made[-1] if len(made) == 1 else made[-1]

        monkeypatch.setattr(solver, "_assemble", spoiled)
        later = decompose(SIZES_2_AND_3, m)
        assert len(made) >= 2
        assert later.status is Feasibility.INFEASIBLE and later.sweeps > res.sweeps
        assert verify_witness(SIZES_2_AND_3, m, later.witness, 1e-7)

    def test_equal_split_lists_no_moves(self, monkeypatch, path_net, triangle_net):
        made, init = [], _Splits.__init__

        def recording_init(self, *args):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(_Splits, "__init__", recording_init)
        res = decompose(path_net, PATH_M)
        assert (res.status, res.sweeps) == (Feasibility.FEASIBLE, 0)
        assert "moves" not in vars(made[-1])
        # Nor does the comparison witness.
        res = decompose(triangle_net, np.ones((3, 3)))
        assert (res.status, res.sweeps) == (Feasibility.INFEASIBLE, 0)
        assert "moves" not in vars(made[-1])
        res = decompose(SIZES_2_AND_3, SIZES_2_AND_3_ONES)
        assert res.status is Feasibility.INFEASIBLE and res.sweeps > 0
        assert "moves" in vars(made[-1])

    @pytest.mark.parametrize("cplx", [False, True])
    def test_assembled_blocks_dominate_their_dual_points(self, rng, cplx):
        # Holders of a shared entry may disagree: W_a - Z_a stays PSD for
        # any Hermitian stack, on NDCS networks and on NON_NDCS, whose
        # blocks share the off-diagonal (0, 1).
        for net in [random_ndcs_network(rng, n) for n in (3, 5, 7)] + [NON_NDCS, SIZES_2_AND_3]:
            splits = _Splits(net, np.eye(net.n_parties))
            z = rng.normal(size=splits.base.shape)
            if cplx:
                z = z + 1j * rng.normal(size=splits.base.shape)
            z = z + np.conj(np.swapaxes(z, 1, 2))
            w = _assemble(splits, z)
            assert np.array_equal(w, w.conj().T)
            for ix, za in zip(net.blocks(), z):
                gap = w[np.ix_(ix, ix)] - za[: len(ix), : len(ix)]
                assert np.linalg.eigvalsh(gap)[0] >= -1e-12 * np.abs(za).max()


# -- verdicts that depend on the scale of M ----------------------------------


def _battery(seed: int, bipartite: bool):
    """The items of a fixed-seed battery, in order.  Bipartite: criterion
    01's draw, half path/cycle/star networks and half random bipartite ones.
    Otherwise: NDCS networks of 3-7 parties with a three-party source.  Even
    items are feasible by construction, odd ones boundary instances."""
    rng = np.random.default_rng(seed)
    families = [f(n) for n in range(2, 8) for f in (path_network, cycle_network, star_network)
                if n >= 3 or f is path_network]
    for k in itertools.count():
        if not bipartite:
            n = int(rng.integers(3, 8))
            net = random_ndcs_network(rng, n)
            while all(len(adj) < 3 for adj in net.sources):
                net = random_ndcs_network(rng, n)
        elif rng.random() < 0.5:
            net = families[rng.integers(len(families))]
        else:
            net = random_bipartite_network(rng, int(rng.integers(2, 8)))
        cplx = bool(rng.integers(2))
        yield net, (random_boundary_instance if k % 2 else random_feasible)(net, rng, cplx)


def _battery_item(seed: int, item: int, bipartite: bool):
    """Item ``item`` (0-based) of ``_battery(seed, bipartite)``."""
    return next(itertools.islice(_battery(seed, bipartite), item, None))


@pytest.mark.parametrize("bipartite,items,infeasible,steps", [
    pytest.param(True, 140, 1, 0, id="bipartite"),
    pytest.param(False, 120, 6, 323, id="multipartite"),
])
def test_seed_101_battery_verdicts_and_newton_steps(bipartite, items, infeasible, steps):
    # Measured with numpy 2.4.6, the version CI installs: a change to the
    # barrier or to the comparison split that moves a verdict or a Newton
    # step shows here.  The bipartite battery decides in closed form.
    results = [decompose(net, m) for net, m in itertools.islice(_battery(101, bipartite), items)]
    statuses = [r.status for r in results]
    assert statuses.count(Feasibility.INFEASIBLE) == infeasible
    assert statuses.count(Feasibility.FEASIBLE) == items - infeasible
    assert sum(r.sweeps for r in results) == steps


def test_seed_101_witnesses_verify_at_every_scale():
    # verify_witness scores W at unit norm, so no product ||M||_F * ||W||_F
    # overflows at x2^900 or underflows at x2^-900.
    witnesses = 0
    for bipartite, items in ((True, 140), (False, 120)):
        for net, m in itertools.islice(_battery(101, bipartite), items):
            res = decompose(net, m)
            if res.status is not Feasibility.INFEASIBLE:
                continue
            witnesses += 1
            for k in (-900, 900):
                # verify_witness recomputes the inner product from w and m.
                scaled = res.witness._replace(w=2.0**k * res.witness.w)
                assert verify_witness(net, 2.0**k * m, scaled, 1e-7)
    assert witnesses == 7


class TestPerronCertificates:
    def test_bipartite_batteries_decide_without_newton_steps(self):
        # All 1,400 bipartite instances of seeds 101-110: the verdict is the
        # comparison-matrix test's, and the certificate verifies.
        for seed in range(101, 111):
            for net, m in itertools.islice(_battery(seed, True), 140):
                res = decompose(net, m)
                assert res.sweeps == 0
                assert res.status is fast_check_bipartite(net, m, 1e-7)
                if res.status is Feasibility.FEASIBLE:
                    assert verify_decomposition(net, m, res.decomposition, 1e-7)
                else:
                    assert verify_witness(net, m, res.witness, 1e-7)

    def test_reducible_comparison_matrix_feasible(self):
        # M_23 = 0 splits comp(M) into the parts {A1, A2}, on the boundary
        # (smallest eigenvalue 0), and {A3, A4}; the equal split of A2's and
        # A3's variances fails.
        net = path_network(4)
        m = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1j], [0, 0, -1j, 2]])
        res = decompose(net, m)
        assert (res.status, res.sweeps, res.message) == (
            Feasibility.FEASIBLE, 0, "comparison split")
        assert verify_decomposition(net, m, res.decomposition, 1e-7)
        terms = res.decomposition.terms
        np.testing.assert_allclose(terms["s0"][:2, :2], np.ones((2, 2)), atol=1e-15)
        np.testing.assert_allclose(terms["s2"][2:, 2:], [[1, 1j], [-1j, 2]], atol=1e-15)
        assert np.linalg.matrix_rank(terms["s0"]) == 1

    def test_complex_phase_witness(self, triangle_net):
        # M = D (0.1 I + 0.9 J) D^H with a diagonal unitary D is PSD, but
        # comp(M) = I - 0.9 (J - I) has smallest eigenvalue -0.8.
        d = np.exp(1j * np.array([0.3, -1.1, 2.0]))
        m = np.outer(d, d.conj()) * (0.1 * np.eye(3) + 0.9 * np.ones((3, 3)))
        res = decompose(triangle_net, m)
        assert (res.status, res.sweeps, res.message) == (
            Feasibility.INFEASIBLE, 0, "comparison witness")
        assert verify_witness(triangle_net, m, res.witness, 1e-7)
        # The witness is (2I - J)/3 carried by the phases of M.
        w = np.outer(d, d.conj()) * (2 * np.eye(3) - np.ones((3, 3))) / 3
        np.testing.assert_allclose(res.witness.w, w, atol=1e-12)
        assert res.witness.inner_product == pytest.approx(-0.8, abs=1e-12)

    @pytest.mark.parametrize("net,m,status", [
        pytest.param(path_network(3), np.array([[1, 1, 0], [1, 1.5, 0.5], [0, 0.5, 1]]),
                     Feasibility.FEASIBLE, id="feasible"),
        pytest.param(cycle_network(3), np.ones((3, 3)), Feasibility.INFEASIBLE, id="infeasible"),
    ])
    def test_certificate_that_fails_goes_to_the_barrier(self, monkeypatch, net, m, status):
        # Both matrices fail the equal split; a comparison certificate that
        # does not verify is never returned.
        found = solver._comparison

        def spoiled(*args):
            feasible, x = found(*args)
            return feasible, -x

        res = decompose(net, m)
        assert (res.status, res.sweeps) == (status, 0)
        monkeypatch.setattr(solver, "_comparison", spoiled)
        res = decompose(net, m)
        assert res.status is status and res.sweeps > 0 and res.message == ""
        if status is Feasibility.FEASIBLE:
            assert verify_decomposition(net, m, res.decomposition, 1e-7)
        else:
            assert verify_witness(net, m, res.witness, 1e-7)

    @pytest.mark.parametrize("eps", [1e-30, 1e-200])
    def test_entry_within_tol_keeps_the_closed_form(self, path_net, eps):
        # A1 hangs on by eps; every entry of v = (C + tol/2 I)^-1 1 is at
        # least 1/(c_ii + tol/2), so no ratio v_j/v_i over- or underflows.
        m = np.array([[1, eps, 0], [eps, 1.9, 1], [0, 1, 1]])
        res = decompose(path_net, m)
        assert (res.status, res.sweeps, res.message) == (
            Feasibility.FEASIBLE, 0, "comparison split")
        assert verify_decomposition(path_net, m, res.decomposition, 1e-7)

    def test_message_names_the_zero_step_path(self, path_net):
        forbidden = PATH_M.copy()
        forbidden[0, 2] = forbidden[2, 0] = 0.5
        assert decompose(path_net, forbidden).message == "forbidden entry at (0, 2)"
        assert decompose(path_net, PATH_M).message == "equal split"
        res = decompose(SIZES_2_AND_3, SIZES_2_AND_3_ONES)
        assert res.sweeps > 0 and res.message == ""


class TestComparisonSplit:
    @pytest.mark.parametrize("shape", [path_network, cycle_network, star_network])
    def test_large_networks_decide_in_closed_form(self, shape):
        # 100 parties: the smallest entries of the Perron vector of comp(M),
        # which the split once divided by, lost their relative accuracy on
        # paths and cycles, and the barrier decided.
        net, rng = shape(100), np.random.default_rng(3)
        for make, cplx in [(random_feasible, True), (random_boundary_instance, False)]:
            m = make(net, rng, cplx)
            res = decompose(net, m)
            assert (res.status, res.sweeps, res.message) == (
                Feasibility.FEASIBLE, 0, "comparison split")
            assert verify_decomposition(net, m, res.decomposition, 1e-7)

    def test_three_party_source_feasible_without_newton_steps(self):
        # The equal split gives block a [[1, 1], [1, 0.75]], which is not
        # PSD, but comp(M) is: the split decides with no Newton step.
        m = np.array([[2, 1, 0, 0], [1, 1.5, 0.5, 0], [0, 0.5, 1.5, 0], [0, 0, 0, 1]])
        res = decompose(SIZES_2_AND_3, m)
        assert (res.status, res.sweeps, res.message) == (
            Feasibility.FEASIBLE, 0, "comparison split")
        assert verify_decomposition(SIZES_2_AND_3, m, res.decomposition, 1e-7)

    @pytest.mark.parametrize("m,status", [
        pytest.param(SIZES_2_AND_3_ONES, Feasibility.INFEASIBLE, id="infeasible"),
        pytest.param(SIZES_2_AND_3_BARRIER, Feasibility.FEASIBLE, id="feasible"),
    ])
    def test_three_party_source_below_zero_goes_to_the_barrier(self, m, status):
        # comp(M) is not PSD; off all-bipartite networks that does not make
        # M infeasible, so the split returns no witness there.
        mh = m / np.linalg.norm(m)
        assert _comparison(_Splits(SIZES_2_AND_3, mh), mh, 1e-7) is None
        res = decompose(SIZES_2_AND_3, m)
        assert res.status is status and res.sweeps > 0 and res.message == ""
        if status is Feasibility.FEASIBLE:
            assert verify_decomposition(SIZES_2_AND_3, m, res.decomposition, 1e-7)
        else:
            assert verify_witness(SIZES_2_AND_3, m, res.witness, 1e-7)

    def test_pair_of_two_sources_goes_to_the_first(self):
        # Both sources of NON_NDCS hold (A1, A2); the equal split halves its
        # entry and fails, the comparison split gives all of it to a.
        m = np.array([[2, 1j, 1, 0], [-1j, 2, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
        res = decompose(NON_NDCS, m)
        assert (res.status, res.sweeps, res.message) == (
            Feasibility.FEASIBLE, 0, "comparison split")
        assert verify_decomposition(NON_NDCS, m, res.decomposition, 1e-7)
        terms = res.decomposition.terms
        assert terms["a"][0, 1] == 1j and terms["b"][0, 1] == 0
        np.testing.assert_allclose(terms["a"] + terms["b"], m, atol=1e-15)

    def test_fast_check_does_not_use_the_split(self, monkeypatch, path_net, triangle_net):
        def refuse(*args):
            raise AssertionError("fast_check_bipartite reads comp(M) on its own")

        monkeypatch.setattr(solver, "_comparison", refuse)
        monkeypatch.setattr(splits, "_comparison", refuse)
        unequal = np.array([[1, 1, 0], [1, 1.5, 0.5], [0, 0.5, 1]])
        with pytest.raises(AssertionError, match="on its own"):
            decompose(path_net, unequal)
        forbidden = PATH_M.copy()
        forbidden[0, 2] = forbidden[2, 0] = 0.5
        for net, m, status in [
            (path_net, PATH_M, Feasibility.FEASIBLE),
            (path_net, unequal, Feasibility.FEASIBLE),
            (path_net, forbidden, Feasibility.INFEASIBLE),
            (triangle_net, np.ones((3, 3)), Feasibility.INFEASIBLE),
        ]:
            assert fast_check_bipartite(net, m, 1e-7) is status


# Boundary instances that were FEASIBLE at x1e-4 while every tolerance below
# norm 1 was absolute, and INFEASIBLE at x1 and above.
SCALE_FLIPS = pytest.mark.parametrize("seed,item,bipartite", [
    pytest.param(103, 93, True, id="bipartite-103-93"),
    pytest.param(104, 41, True, id="bipartite-104-41"),
    pytest.param(107, 57, False, id="multipartite-107-57"),
])


@SCALE_FLIPS
def test_scale_flip_instances_infeasible_at_every_scale(seed, item, bipartite):
    net, m = _battery_item(seed, item, bipartite)
    sweeps = set()
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        res = decompose(net, scale * m)
        assert res.status is Feasibility.INFEASIBLE
        sweeps.add(res.sweeps)
        if bipartite:
            assert fast_check_bipartite(net, scale * m, 1e-7) is Feasibility.INFEASIBLE
    assert len(sweeps) == 1


@pytest.mark.parametrize("eps", [1.0, 1e-8])
def test_triangle_scaled_ones_infeasible(triangle_net, eps):
    m = eps * np.ones((3, 3))
    assert fast_check_bipartite(triangle_net, m, 1e-7) is Feasibility.INFEASIBLE
    res = decompose(triangle_net, m)
    assert res.status is Feasibility.INFEASIBLE
    assert verify_witness(triangle_net, m, res.witness, 1e-7)
    # The equal split gives each source eps * [[1/2, 1], [1, 1/2]], whose
    # smallest eigenvalue -eps/2 is half the scale of M.
    terms = {}
    for name, ix in zip(triangle_net.source_names, triangle_net.blocks()):
        terms[name] = np.zeros((3, 3))
        terms[name][np.ix_(ix, ix)] = eps * np.array([[0.5, 1.0], [1.0, 0.5]])
    check = verify_decomposition(triangle_net, m, Decomposition(terms, m, 0.0), 1e-7)
    assert not check and all("not PSD" in r for r in check.reasons)


def test_certificates_scale_with_m():
    # Boundary instances decided with and without Newton steps, real and
    # complex: the x1 certificate, scaled with M, still verifies, and the
    # scaled M gets the same verdict in the same number of steps.  The
    # comparison split decides 20 of the 32 with none.
    net = Network(
        ("A1", "A2", "A3", "A4"), ("a", "b", "c"), ((0, 1), (1, 2), (0, 2, 3))
    )
    rng = np.random.default_rng(0)
    seen = {Feasibility.FEASIBLE: 0, Feasibility.INFEASIBLE: 0}
    closed = 0
    for k in range(32):
        m = random_boundary_instance(net, rng, k % 2 == 1)
        res = decompose(net, m)
        seen[res.status] += res.sweeps > 0
        closed += res.sweeps == 0
        for scale in (1e-8, 1e-4, 1e8):
            if res.status is Feasibility.FEASIBLE:
                d = res.decomposition
                terms = {name: scale * t for name, t in d.terms.items()}
                scaled = Decomposition(terms, scale * m, scale * d.residual_norm)
                assert verify_decomposition(net, scale * m, scaled, 1e-7)
            else:
                assert verify_witness(net, scale * m, res.witness, 1e-7)
            again = decompose(net, scale * m)
            assert (again.status, again.sweeps) == (res.status, res.sweeps)
    assert seen[Feasibility.FEASIBLE] >= 5 and seen[Feasibility.INFEASIBLE] >= 3 and closed >= 5


# Far from norm 1, np.linalg.norm squared the entries to inf or 0, so every
# relative tolerance became infinite or an absolute 1e-7; and the barrier,
# run on M as given, ended UNDECIDED beyond 1e160 or below 1e-160.
EXTREME_SCALE_CASES = pytest.mark.parametrize("net,m", [
    pytest.param(path_network(2), -1e200 * np.eye(2), id="two-party-minus-1e200-I"),
    pytest.param(path_network(2), -1e-200 * np.eye(2), id="two-party-minus-1e-200-I"),
    pytest.param(path_network(2), 1e-200 * np.array([[1.0, 2.0], [2.0, 1.0]]), id="two-party-1e-200-indefinite"),
    pytest.param(cycle_network(3), 1e-200 * np.ones((3, 3)), id="triangle-1e-200-ones"),
])


@EXTREME_SCALE_CASES
def test_extreme_scale_never_feasible(net, m):
    res = decompose(net, m)
    assert res.status is Feasibility.INFEASIBLE
    assert verify_witness(net, m, res.witness, 1e-7)


@EXTREME_SCALE_CASES
def test_extreme_scale_fast_check_infeasible(net, m):
    assert fast_check_bipartite(net, m, 1e-7) is Feasibility.INFEASIBLE


@pytest.mark.parametrize("net,m", [
    pytest.param(path_network(2), -np.eye(2), id="two-party-minus-I"),
    pytest.param(path_network(2), np.array([[1.0, 2.0], [2.0, 1.0]]), id="two-party-indefinite"),
    pytest.param(cycle_network(3), np.ones((3, 3)), id="triangle-ones"),
    pytest.param(SIZES_2_AND_3, SIZES_2_AND_3_ONES, id="three-party-source-ones"),
])
def test_barrier_witness_at_every_scale(net, m):
    # The comparison witness of a bipartite network takes no Newton step, and
    # the barrier runs on M / ||M||_F, so it takes the same Newton steps
    # from x1e-300 to x1e300, with no overflow or underflow warning.
    sweeps = set()
    for e in range(-300, 301, 20):
        res = decompose(net, 10.0**e * m)
        assert res.status is Feasibility.INFEASIBLE
        assert verify_witness(net, 10.0**e * m, res.witness, 1e-7)
        sweeps.add(res.sweeps)
    assert len(sweeps) == 1 and (sweeps.pop() > 0) is not net.all_bipartite()


# numpy divides a complex array by a real x through the rounded 1/x, which
# overflows once x is below about 5.6e-309.  x1e-310, the feasible M raised
# LinAlgError after an overflow warning; x1e-308, the M whose only entry off
# the sources is m_02 = 0.3 + 0.2j ended UNDECIDED after 28 Newton steps.
FORBIDDEN_02 = np.eye(3, dtype=complex)
FORBIDDEN_02[0, 2], FORBIDDEN_02[2, 0] = 0.3 + 0.2j, 0.3 - 0.2j


@pytest.mark.parametrize("m,small,normal", [
    pytest.param(random_feasible(path_network(3), np.random.default_rng(1)), 1e-310, 1e-308,
                 id="feasible-x1e-310"),
    pytest.param(FORBIDDEN_02, 1e-308, 1e-307, id="forbidden-entry-x1e-308"),
])
def test_subnormal_norm_decided_as_at_a_normal_one(path_net, m, small, normal):
    res, ref = decompose(path_net, small * m), decompose(path_net, normal * m)
    assert (res.status, res.message, res.sweeps) == (ref.status, ref.message, ref.sweeps)
    assert res.sweeps == 0 and res.status is not Feasibility.UNDECIDED
    if res.status is Feasibility.FEASIBLE:
        assert verify_decomposition(path_net, small * m, res.decomposition, 1e-7)
    else:
        assert res.message == "forbidden entry at (0, 2)"
        assert verify_witness(path_net, small * m, res.witness, 1e-7)


def test_huge_negative_term_rejected():
    net, m = path_network(2), 1e200 * np.eye(2)
    dec = Decomposition({"s0": -5e200 * np.eye(2)}, m, 0.0)
    with np.errstate(all="ignore"):
        check = verify_decomposition(net, m, dec, 1e-7)
    assert not check and "term 's0' is not PSD" in check.reasons


def _record_linalg(monkeypatch) -> list:
    """Patch every function of ``np.linalg`` to record, for each array it is
    passed, its name and the array's dtype."""
    seen = []
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if isinstance(fn, type):
            continue

        def recorder(*args, _fn=fn, _name=name, **kwargs):
            seen.extend((_name, a.dtype) for a in args if isinstance(a, np.ndarray))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorder)
    return seen


FORBIDDEN_M = PATH_M.copy()
FORBIDDEN_M[0, 2] = FORBIDDEN_M[2, 0] = 0.5
# One case per path of decompose; the barrier's message is empty.
PATHS = pytest.mark.parametrize("net,m,message", [
    pytest.param(path_network(3), FORBIDDEN_M, "forbidden entry at (0, 2)", id="forbidden"),
    pytest.param(path_network(3), PATH_M, "equal split", id="equal-split"),
    pytest.param(SIZES_2_AND_3, np.array([[2, 1, 0, 0], [1, 1.5, 0.5, 0], [0, 0.5, 1.5, 0], [0, 0, 0, 1]]),
                 "comparison split", id="comparison-split"),
    pytest.param(cycle_network(3), np.ones((3, 3)), "comparison witness", id="comparison-witness"),
    pytest.param(SIZES_2_AND_3, SIZES_2_AND_3_BARRIER, "", id="barrier-decomposition"),
    pytest.param(SIZES_2_AND_3, SIZES_2_AND_3_ONES, "", id="barrier-witness"),
])


@PATHS
def test_residual_norm_follows_the_verdict(net, m, message):
    # A decomposition reports its own residual and every witness ||M||_F,
    # the barrier's too.
    res = decompose(net, m)
    assert res.message == message
    if res.status is Feasibility.FEASIBLE:
        assert res.residual_norm == frobenius_norm(m - res.decomposition.total())
    else:
        assert res.status is Feasibility.INFEASIBLE
        assert res.residual_norm == frobenius_norm(m)


class TestRealStaysReal:
    """A real symmetric M has a real decomposition exactly when it has a
    complex one (take real parts), so float64 input is decided, verified and
    sampled with real LAPACK alone; complex128 input keeps the complex one."""

    @PATHS
    def test_float64_never_passes_a_complex_array_to_linalg(self, monkeypatch, net, m, message):
        seen = _record_linalg(monkeypatch)
        for tol in (1e-9, TOL):
            seen.clear()
            res = decompose(net, m, tol)
            assert res.message == message and (res.sweeps > 0) is (message == "")
            if res.status is Feasibility.FEASIBLE:
                certificates = list(res.decomposition.terms.values())
                sample(GaussianNetworkModel(net, res.decomposition.terms, 7), 64)
            else:
                certificates = [res.witness.w]
            assert all(c.dtype == np.float64 for c in certificates)
            assert seen and all(dtype == np.float64 for _, dtype in seen)

    @PATHS
    def test_complex128_passes_only_complex_arrays_to_eigensolvers(self, monkeypatch, net, m, message):
        m = m.astype(np.complex128)
        seen = _record_linalg(monkeypatch)
        res = decompose(net, m, 1e-9)
        if net.all_bipartite():
            assert fast_check_bipartite(net, m, 1e-7) is res.status
        assert res.message == message
        eig = [dtype for name, dtype in seen if name in ("eigh", "eigvalsh")]
        assert eig and all(dtype == np.complex128 for dtype in eig)

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_battery_instances_decide_alike_as_float64_and_complex128(self, seed):
        # The batteries hand over instances with a zero imaginary part as
        # complex128; as float64 they get the same verdict.
        for bipartite, items in ((True, 140), (False, 120)):
            for net, m in itertools.islice(_battery(seed, bipartite), items):
                if m.imag.any():
                    continue
                as_complex, as_real = decompose(net, m), decompose(net, m.real)
                assert as_real.status is as_complex.status
                for res, x in ((as_complex, m), (as_real, m.real)):
                    if res.status is Feasibility.FEASIBLE:
                        assert verify_decomposition(net, x, res.decomposition, 1e-7)
                    else:
                        assert verify_witness(net, x, res.witness, 1e-7)
                if as_real.status is Feasibility.FEASIBLE:
                    assert all(t.dtype == np.float64 for t in as_real.decomposition.terms.values())
                else:
                    assert as_real.witness.w.dtype == np.float64
