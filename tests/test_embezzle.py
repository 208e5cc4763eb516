"""Embezzlement numerics: state values, sorting/phase permutations, overlap
bounds, the template pullback, and oracle checks that materialize the
permutation on small sizes."""

import re
import textwrap
import tracemalloc

import numpy as np
import pytest

from covnet.embezzle import (
    apply_permutation,
    as_permutation,
    embezzle_complex,
    embezzle_permutation,
    embezzle_real,
    harmonic_number,
    invert_permutation,
    mu_state,
    phase_permutation,
    sort_permutation,
    template_pullback,
    theta_state,
)
from covnet import embezzle
from covnet.witness import approximate_dual_by_twisted_gram
from support import fresh_peak_mb, triangle_network

NON_FINITE_PHIS = ([np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf])


class TestStates:
    def test_harmonic(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25 / 12, abs=1e-15)

    def test_mu_one(self):
        assert np.allclose(mu_state(1), [1.0])

    def test_mu_two(self):
        assert np.allclose(mu_state(2), [0.8165, 0.5774], atol=5e-5)

    def test_mu_four(self):
        assert np.allclose(mu_state(4), [0.6928, 0.4899, 0.4000, 0.3464], atol=5e-5)

    def test_mu_unit_norm(self):
        for r in (1, 2, 17, 1000):
            assert np.linalg.norm(mu_state(r)) == pytest.approx(1.0, abs=1e-12)

    def test_theta_one(self):
        assert np.allclose(theta_state(1), [1.0])

    def test_theta_two(self):
        assert np.allclose(theta_state(2), np.array([-1.0, 1.0]) / np.sqrt(2), atol=1e-15)

    def test_theta_four(self):
        assert np.allclose(theta_state(4), np.array([1j, -1, -1j, 1]) / 2, atol=1e-15)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            mu_state(0)
        with pytest.raises(ValueError):
            theta_state(0)


class TestPermutationHelpers:
    def test_apply_is_isometry(self, rng):
        v = rng.normal(size=50) + 1j * rng.normal(size=50)
        p = rng.permutation(50)
        assert np.linalg.norm(apply_permutation(p, v)) == np.linalg.norm(v)

    def test_invert(self, rng):
        p = rng.permutation(20)
        assert np.array_equal(apply_permutation(invert_permutation(p), apply_permutation(p, np.arange(20))), np.arange(20))

    def test_reject_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            as_permutation([0, 0, 1])


class TestSortPermutation:
    def test_basis_vector_identity(self):
        phi = np.zeros(3)
        phi[0] = 1.0
        assert np.array_equal(sort_permutation(phi, 5), np.arange(15))

    def test_d_one_identity(self):
        assert np.array_equal(sort_permutation(np.array([1.0]), 8), np.arange(8))

    def test_uniform_interleaves(self):
        # Values (j, r): c/sqrt(r chi); descending order is
        # (0,0), (1,0), (0,1), (1,1) with stable ties.
        perm = sort_permutation(np.full(2, 1 / np.sqrt(2)), 2)
        assert np.array_equal(perm, [0, 2, 1, 3])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="complex path"):
            sort_permutation(np.array([0.8, -0.6]), 4)

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="complex path"):
            sort_permutation(np.array([0.8, 0.6j]), 4)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit"):
            sort_permutation(np.array([1.0, 1.0]), 4)


class TestEmbezzleReal:
    def test_basis_vector_exact(self):
        phi = np.zeros(4)
        phi[0] = 1.0
        res = embezzle_real(phi, 4096)
        assert abs(res.overlap - 1.0) <= 1e-12

    def test_uniform_d2_large(self):
        res = embezzle_real(np.full(2, 1 / np.sqrt(2)), 2**20)
        log_bound = (np.log(2**20) - np.log(2)) / (np.log(2**20) + 1)
        assert res.guaranteed_bound >= log_bound
        assert res.overlap.real >= res.guaranteed_bound

    def test_uniform_d4(self):
        res = embezzle_real(np.full(4, 0.5), 2**16)
        chi_bound = harmonic_number(2**14) / harmonic_number(2**16)
        assert res.overlap.real >= chi_bound

    def test_overlap_matches_materialized_permutation(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 5))
            phi = rng.random(d) + 0.05
            phi /= np.linalg.norm(phi)
            R = int(rng.integers(2, 64))
            res = embezzle_real(phi, R)
            lam = (phi[:, None] * mu_state(R)[None, :]).ravel()
            mu_pad = np.zeros(d * R)
            mu_pad[:R] = mu_state(R)
            direct = np.dot(mu_pad, apply_permutation(res.permutation, lam))
            assert direct == pytest.approx(res.overlap.real, abs=1e-13)

    def test_overlap_invariant_under_coordinate_permutation(self, rng):
        phi = rng.random(5) + 0.05
        phi /= np.linalg.norm(phi)
        base = embezzle_real(phi, 128).overlap
        for _ in range(5):
            shuffled = phi[rng.permutation(5)]
            assert embezzle_real(shuffled, 128).overlap == pytest.approx(base, abs=1e-13)

    def test_bound_holds_on_random_inputs(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 9))
            phi = rng.random(d) + 0.01
            phi /= np.linalg.norm(phi)
            res = embezzle_real(phi, int(rng.integers(2, 2**12)))
            assert res.overlap.real >= res.guaranteed_bound - 1e-9

    def test_memory_cap(self):
        with pytest.raises(ValueError, match="too large"):
            embezzle_real(np.array([1.0, 0.0]), 2**26)

    def test_overlap_exact_under_ties(self):
        # Uniform phi, a basis vector and phi with zero entries make many
        # equal coordinates; the top-R values must still match the stable
        # full sort bit for bit.
        phis = [np.full(d, 1 / np.sqrt(d)) for d in (2, 4, 8)]
        phis += [np.eye(3)[0], np.array([0.6, 0.0, 0.8, 0.0]), np.array([0.0, 0.5, 0.5, 0.5, 0.5])]
        for phi in phis:
            for R in (1, 2, 3, 7, 64, 1000, 4096):
                vals = np.outer(phi, mu_state(R)).ravel()
                expect = np.dot(mu_state(R), vals[np.argsort(-vals, kind="stable")[:R]])
                res = embezzle_real(phi, R)
                assert res.overlap.real == expect
                assert res.T is None and res.R == R

    @pytest.mark.parametrize("phi", NON_FINITE_PHIS)
    def test_rejects_non_finite(self, phi):
        with pytest.raises(ValueError, match="non-finite"):
            embezzle_real(np.array(phi), 64)
        with pytest.raises(ValueError, match="non-finite"):
            sort_permutation(np.array(phi), 64)


class TestPhasePermutation:
    def test_nonnegative_is_identity(self):
        phi = np.array([0.6, 0.8])
        assert np.array_equal(phase_permutation(phi, 8), np.arange(16))

    def test_minus_one_shifts_half(self):
        perm = phase_permutation(np.array([-1.0 + 0j]), 8)
        assert np.array_equal(perm, (np.arange(8) + 4) % 8)

    def test_quarter_phase(self):
        phi = np.array([1.0, 1j]) / np.sqrt(2)
        perm = phase_permutation(phi, 4)
        expect = np.empty(8, dtype=np.intp)
        for t in range(4):
            expect[t * 2 + 0] = t * 2
            expect[t * 2 + 1] = ((t + 1) % 4) * 2 + 1
        assert np.array_equal(perm, expect)


class TestEmbezzleComplex:
    def test_basis_vector_exact(self):
        phi = np.zeros(3, dtype=complex)
        phi[0] = 1.0
        res = embezzle_complex(phi, 16, 256)
        assert abs(res.overlap.real - 1.0) <= 1e-12

    def test_quarter_phase_reference_case(self):
        phi = np.array([1.0, 1j]) / np.sqrt(2)
        res = embezzle_complex(phi, 2**7, 2**14)
        bound = harmonic_number(2**13) / harmonic_number(2**14) - 2 * np.pi / 2**7
        assert res.guaranteed_bound == pytest.approx(bound, abs=1e-15)
        assert bound == pytest.approx(0.8835, abs=5e-4)
        assert res.overlap.real >= bound

    def test_monotone_in_R(self):
        phi = np.array([1.0, 1j]) / np.sqrt(2)
        small = embezzle_complex(phi, 2**7, 2**12).overlap.real
        big = embezzle_complex(phi, 2**7, 2**16).overlap.real
        assert big > small

    def test_matches_real_for_nonnegative(self, rng):
        phi = rng.random(4) + 0.05
        phi /= np.linalg.norm(phi)
        a = embezzle_real(phi, 2**10).overlap
        b = embezzle_complex(phi.astype(complex), 2**7, 2**10).overlap
        assert abs(a - b) <= 1e-12

    def test_overlap_matches_materialized_permutation(self, rng):
        for _ in range(5):
            d = int(rng.integers(1, 4))
            phi = rng.normal(size=d) + 1j * rng.normal(size=d)
            phi /= np.linalg.norm(phi)
            T, R = 16, 32
            res = embezzle_complex(phi, T, R)
            v = np.einsum("t,j,r->tjr", theta_state(T), phi, mu_state(R)).ravel()
            bra = np.zeros(T * d * R, dtype=complex)
            bra.reshape(T, d, R)[:, 0, :] = np.outer(theta_state(T), mu_state(R))
            direct = np.vdot(bra, apply_permutation(res.permutation, v))
            assert abs(direct - res.overlap) <= 1e-12

    def test_memory_cap(self):
        with pytest.raises(ValueError, match="too large"):
            embezzle_complex(np.array([1.0, 0j]), 2**10, 2**20)

    @pytest.mark.parametrize("phi", NON_FINITE_PHIS + ([complex(1.0, np.nan), 0.0],))
    def test_rejects_non_finite(self, phi):
        with pytest.raises(ValueError, match="non-finite"):
            embezzle_complex(np.array(phi, dtype=complex), 8, 64)

    def test_at_entry_cap_stays_small(self):
        # T*d*R = 2^26, the entry cap: the forward permutation alone would
        # take 512 MB, but the overlap needs only d*R-sized arrays.
        peak = fresh_peak_mb(textwrap.dedent("""
            import numpy as np
            from covnet.embezzle import embezzle_complex
            phi = np.array([0.5, 0.5j, -0.5, 0.3 + 0.4j])
            phi /= np.linalg.norm(phi)
            res = embezzle_complex(phi, 2**7, 2**17)
            assert res.overlap.real >= res.guaranteed_bound
        """))
        assert peak < 150

    def test_overlap_memory_linear_in_kept_entries(self):
        # The overlap reads only the R kept entries of |phi| (x) mu_R.  The
        # explicit route (sort permutation, its inverse, a mask and the d x R
        # pullback and outer product) reached a tracemalloc peak of 18.0 MB
        # (10^6 bytes) on this call.
        phi = np.array([0.5, 0.5j, -0.5, 0.3 + 0.4j])
        phi /= np.linalg.norm(phi)
        d, T, R = len(phi), 2**7, 2**17
        tracemalloc.start()
        try:
            res = embezzle_complex(phi, T, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.overlap.real >= res.guaranteed_bound
        assert peak <= 3 * d * R * 8


# Unit vectors with equal moduli and zero coordinates, where ties decide
# which entries the sorting step keeps.
PULLBACK_PHIS = [
    [1.0],
    [1j],
    [0.6, -0.8j],
    [1.0, 1j],
    [0.0, -1.0],
    [0.6, 0.0, 0.8j],
    [1.0, -1.0, 1j],
    [0.5, 0.5j, -0.5, -0.5j],
    [0.0, 0.6, 0.0, -0.8],
    [0.5, 0.5j, -0.5, 0.3 + 0.4j],
]


class TestTemplatePullback:
    @pytest.mark.parametrize("R", [1, 7, 32])
    @pytest.mark.parametrize("phi", PULLBACK_PHIS, ids=str)
    def test_pulls_back_the_template(self, phi, R):
        # P^-1 (theta_T (x) e_0 (x) mu_R) = theta_T (x) template_pullback,
        # with P the explicit embezzlement permutation.
        phi = np.array(phi, dtype=complex)
        phi /= np.linalg.norm(phi)
        T, d = 16, len(phi)
        template = np.zeros((T, d, R), dtype=complex)
        template[:, 0, :] = np.outer(theta_state(T), mu_state(R))
        inverse = invert_permutation(embezzle_permutation(phi, T, R))
        pulled = apply_permutation(inverse, template.ravel()).reshape(T, d, R)
        c = template_pullback(phi, T, R)
        assert c.shape == (d, R)
        assert np.max(np.abs(pulled - np.einsum("t,jr->tjr", theta_state(T), c))) <= 1e-14

    def test_rejects_bad_sizes(self):
        phi = np.array([1.0, 0j])
        with pytest.raises(ValueError, match="T must be"):
            template_pullback(phi, 1, 8)
        with pytest.raises(ValueError, match="R must be"):
            template_pullback(phi, 8, 0)
        with pytest.raises(ValueError, match="unit vector"):
            template_pullback(np.array([1.0, 1.0]), 8, 8)


@pytest.mark.parametrize("call,message", [
    (lambda: harmonic_number(-1), "r must be >= 0"),
    (lambda: as_permutation(np.zeros((2, 2))), "permutation must be a 1-d index array"),
    (lambda: as_permutation([0, 1], 3), "permutation has length 2, expected 3"),
    (lambda: as_permutation([0, 2]), "permutation image out of range"),
    (lambda: embezzle_real([], 4), "phi must be a nonempty vector"),
    (lambda: embezzle_complex([], 4, 4), "phi must be a nonempty vector"),
    (lambda: harmonic_number(2.5), "r must be an integer, got 2.5"),
    # Fractions used to be truncated and bools read as 0 and 1.
    (lambda: as_permutation([0.7, 1.3]), "permutation images must be integers, got dtype float64"),
    (lambda: as_permutation([True, False]), "permutation images must be integers, got dtype bool"),
], ids=["harmonic-negative", "permutation-2d", "permutation-length", "permutation-range",
        "real-empty", "complex-empty", "harmonic-fraction", "permutation-fraction",
        "permutation-bool"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call", [
    lambda: embezzle_real([0.6, 0.8], 16),
    lambda: embezzle_complex([0.6, 0.8j], 4, 16),
], ids=["real", "complex"])
def test_overlap_below_its_bound_raises(monkeypatch, call):
    # The bounds are theorems: only a negative slack makes an overlap (at
    # most 1) fall short of its bound (at least -2 pi / T, here above -2).
    monkeypatch.setattr(embezzle, "BOUND_SLACK", -10.0)
    with pytest.raises(RuntimeError, match="fell below its guaranteed bound"):
        call()


def test_harmonic_number_reads_numpy_integers():
    assert harmonic_number(np.int64(1000)) == harmonic_number(1000)


def test_real_path_takes_complex_phi_with_zero_imaginary_part():
    res = embezzle_real(np.array([0.6, 0.8], dtype=np.complex128), 8)
    assert res.phi.dtype == np.float64
    assert res.overlap == embezzle_real([0.6, 0.8], 8).overlap


# Each entry point taking T or R, with the sizes it checks.  A float such as
# 8.5 used to size arrays, a spec dimension or a bound instead of failing.
@pytest.mark.parametrize("call,names", [
    (lambda T, R: theta_state(T), "T"),
    (lambda T, R: mu_state(R), "R"),
    (lambda T, R: sort_permutation([0.6, 0.8], R), "R"),
    (lambda T, R: phase_permutation([0.6, 0.8j], T), "T"),
    (lambda T, R: embezzle_permutation([0.6, 0.8j], T, R), "TR"),
    (lambda T, R: template_pullback([0.6, 0.8j], T, R), "TR"),
    (lambda T, R: embezzle_real([0.6, 0.8], R), "R"),
    (lambda T, R: embezzle_complex([0.6, 0.8j], T, R), "TR"),
    (lambda T, R: approximate_dual_by_twisted_gram(triangle_network(), np.eye(3), T, R), "TR"),
], ids=["theta_state", "mu_state", "sort_permutation", "phase_permutation",
        "embezzle_permutation", "template_pullback", "embezzle_real", "embezzle_complex",
        "approximate_dual_by_twisted_gram"])
def test_sizes_must_be_integers(call, names):
    call(np.int64(4), np.int64(8))
    for name in names:
        for bad in (8.5, 8.0, np.float64(8.0), "8", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                call(**{"T": 4, "R": 8, name: bad})
