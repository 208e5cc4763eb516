"""Feasibility solver: fast bipartite test, split solver, certificates."""

import numpy as np
import pytest

from covnet.solver import (
    Decomposition,
    DualWitness,
    Feasibility,
    SolverOptions,
    decompose,
    decomposition_from_json,
    fast_check_bipartite,
    is_in_dual_cone,
    verify_decomposition,
    verify_witness,
    witness_from_json,
)
from covnet.network import Network
from covnet.solver import _Splits
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

    def test_sweep_budget_exhausted_is_undecided(self, triangle_net):
        m = random_feasible(triangle_net, np.random.default_rng(1))
        opts = SolverOptions(feasibility_tol=1e-12)
        # The equal split fails and one Newton step does not decide.
        assert decompose(triangle_net, m, opts).sweeps > 1
        res = decompose(triangle_net, m, SolverOptions(max_sweeps=1, feasibility_tol=1e-12))
        assert res.status is Feasibility.UNDECIDED
        assert "exhausted" in res.message
        assert res.sweeps == 1

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverOptions(feasibility_tol=tol)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), 0, -3, "7", None])
    def test_max_sweeps_must_be_a_positive_integer(self, bad):
        # A non-integer budget used to be accepted, and the loop's
        # "steps == max_sweeps" test then never stopped it.
        with pytest.raises(ValueError):
            SolverOptions(max_sweeps=bad)
        with pytest.raises(ValueError):
            SolverOptions()._replace(max_sweeps=bad)
        opts = SolverOptions(max_sweeps=np.int64(3))
        assert opts.max_sweeps == 3 and type(opts.max_sweeps) is int

    def test_replace_runs_the_option_checks(self):
        assert SolverOptions()._replace(max_sweeps=5).max_sweeps == 5
        with pytest.raises(ValueError, match="positive and finite"):
            SolverOptions()._replace(feasibility_tol=float("inf"))

    def test_deterministic_reruns(self, triangle_net, rng):
        for m in (random_boundary_instance(triangle_net, rng), np.ones((3, 3))):
            a = decompose(triangle_net, m)
            b = decompose(triangle_net, m)
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


class TestVerifyDecomposition:
    def test_hand_split(self, path_net):
        d = Decomposition(PATH_SPLIT, PATH_M, 0.0)
        assert verify_decomposition(path_net, PATH_M, d, 1e-9)

    def test_support_violation(self, path_net):
        terms = {k: v.copy() for k, v in PATH_SPLIT.items()}
        terms["s0"][0, 2] = terms["s0"][2, 0] = 0.1
        check = verify_decomposition(path_net, PATH_M, Decomposition(terms, PATH_M, 0.0), 1e-7)
        assert not check
        assert any("support violation" in r for r in check.reasons)

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
        assert "support violation in term 's0'" in check.reasons

    @pytest.mark.parametrize("terms, reasons", [
        ({**PATH_SPLIT, "s9": np.zeros((3, 3))}, ("unknown source 's9'",)),
        ({"s0": PATH_SPLIT["s0"], "beta": PATH_SPLIT["s1"]}, ("unknown source 'beta'", "residual")),
        ({**PATH_SPLIT, "s1": np.eye(2)}, ("term 's1' has wrong shape", "residual")),
    ], ids=["extra-term", "unknown-name", "wrong-shape"])
    def test_malformed_terms_named(self, path_net, terms, reasons):
        check = verify_decomposition(path_net, PATH_M, Decomposition(terms, PATH_M, 0.0), 1e-9)
        assert check.reasons == reasons


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

    def test_zero_witness_rejected(self, triangle_net):
        wit = DualWitness(np.zeros((3, 3)), 0.0)
        assert not verify_witness(triangle_net, np.ones((3, 3)), wit, 1e-9)


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


def _barrier_point(splits, rng):
    """A random z at which every S_a is positive definite."""
    z = 0.05 * rng.normal(size=splits.size)
    z[-1] = min(np.linalg.eigvalsh(b).min() for b in splits.base) - 1.0
    return z


NON_NDCS = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (0, 1, 3)))
SIZES_2_AND_3 = Network(("A1", "A2", "A3", "A4"), ("a", "b", "c"), ((0, 1), (1, 2), (0, 2, 3)))


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

    def test_one_eigh_per_block_and_no_cholesky_or_inverse(self, monkeypatch):
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
        # One call per block at every trial point: two 2 x 2 blocks, one 3 x 3.
        accepted = [calls for calls, ok in points if ok]
        assert len(accepted) >= stepped and all(c == [(2, 2), (2, 2), (3, 3)] for c in accepted)
        assert all(len(calls) <= 3 for calls, _ in points)

    def test_equal_split_builds_no_directions(self, monkeypatch, path_net, triangle_net):
        made, init = [], _Splits.__init__

        def recording_init(self, *args):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(_Splits, "__init__", recording_init)
        res = decompose(path_net, PATH_M)
        assert (res.status, res.sweeps) == (Feasibility.FEASIBLE, 0)
        assert "_directions" not in vars(made[-1])
        res = decompose(triangle_net, np.ones((3, 3)))
        assert res.status is Feasibility.INFEASIBLE and res.sweeps > 0
        assert "_directions" in vars(made[-1])


# -- verdicts that depend on the scale of M ----------------------------------


def _battery_item(seed: int, item: int, bipartite: bool):
    """Item ``item`` (0-based) of a fixed-seed battery.  Bipartite: criterion
    01's draw, half path/cycle/star networks and half random bipartite ones.
    Otherwise: NDCS networks of 3-7 parties with a three-party source.  Even
    items are feasible by construction, odd ones boundary instances."""
    rng = np.random.default_rng(seed)
    families = [f(n) for n in range(2, 8) for f in (path_network, cycle_network, star_network)
                if n >= 3 or f is path_network]
    for k in range(item + 1):
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
        m = (random_boundary_instance if k % 2 else random_feasible)(net, rng, cplx)
    return net, m


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
    # scaled M gets the same verdict in the same number of steps.
    net = Network(
        ("A1", "A2", "A3", "A4"), ("a", "b", "c"), ((0, 1), (1, 2), (0, 2, 3))
    )
    rng = np.random.default_rng(0)
    seen = {Feasibility.FEASIBLE: 0, Feasibility.INFEASIBLE: 0}
    for k in range(24):
        m = random_boundary_instance(net, rng, k % 2 == 1)
        res = decompose(net, m)
        seen[res.status] += res.sweeps > 0
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
    assert seen[Feasibility.FEASIBLE] >= 5 and seen[Feasibility.INFEASIBLE] >= 3
