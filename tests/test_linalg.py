"""Hermitian primitives: frozen examples plus randomized properties."""

import numpy as np
import pytest

from covnet.linalg import (
    _divide,
    as_hermitian,
    comparison_matrix,
    conjugate,
    frobenius_norm,
    is_psd,
    min_eigenvalue,
    psd_project,
    schur_product,
)
from covnet.formats import matrix_from_json, matrix_to_json, vector_from_json

PATH_M = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float)
PATH_GAMMA = np.array([[1, 1, 0], [1, 1, -1], [0, -1, 1]], dtype=float)


class TestAsHermitian:
    def test_symmetrizes_exactly(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = as_hermitian(0.5 * (a + a.conj().T))
        assert np.array_equal(h, h.conj().T)
        assert np.all(h.diagonal().imag == 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_hermitian(np.zeros((2, 3)))

    def test_tolerates_small_skew(self):
        m = np.eye(2) + np.array([[0, 1e-13], [-1e-13, 0]])
        h = as_hermitian(m)
        assert np.array_equal(h, h.conj().T)

    def test_rounded_gram_matrix_accepted_at_any_scale(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        g = x @ x.conj().T
        assert np.max(np.abs(g - g.conj().T)) > 0  # rounding left it not exactly Hermitian
        for scale in (1.0, 1e4, 1e8):
            h = as_hermitian(scale * g)
            assert np.array_equal(h, h.conj().T)

    def test_tiny_matrix_skew_relative_to_its_norm_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian(1e-13 * np.array([[1, 5, 0], [0, 1, 0], [0, 0, 1]]))

    def test_huge_matrix_skew_relative_to_its_norm_rejected(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian([[1e200, 1e200], [0, 1e200]])

    def test_rejects_norm_too_large_to_represent(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="norm is not finite"):
            as_hermitian(1e308 * np.ones((2, 2)))

    def test_largest_finite_entries_stay_finite(self):
        # m + m^H overflows above about 9e307; m/2 + m^H/2 does not.
        assert as_hermitian([[1.7e308]])[0, 0] == 1.7e308
        h = as_hermitian([[1e308, 1e308j], [-1e308j, 0.0]])
        assert np.array_equal(h, [[1e308, 1e308j], [-1e308j, 0.0]])

    def test_halves_before_adding_bit_for_bit(self, rng):
        # Halving a normal float is exact, so m/2 + m^H/2 == (m + m^H)/2.
        for scale in (1e-100, 1.0, 1e100):
            a = scale * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            m = a + a.conj().T + 1e-14 * scale * rng.normal(size=(5, 5))
            assert np.array_equal(as_hermitian(m), 0.5 * (m + m.conj().T))

    @pytest.mark.parametrize("m,dtype", [
        (np.eye(2, dtype=bool), np.float64),
        ([[2, 1], [1, 2]], np.float64),
        (np.eye(2, dtype=np.float32), np.float64),
        (np.eye(2, dtype=np.complex64), np.complex128),
        # The dtype decides, never the values: a zero imaginary part stays.
        (np.eye(2, dtype=np.complex128), np.complex128),
        ([[1, 0.5j], [-0.5j, 1]], np.complex128),
    ], ids=["bool", "int", "float32", "complex64", "complex-zero-imag", "complex"])
    def test_dtype_follows_the_input(self, m, dtype):
        assert as_hermitian(m).dtype == dtype

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        # NaN compares False against the skew tolerance, so it must be
        # rejected on its own, as must inf whatever atol is.
        m = np.eye(2, dtype=np.complex128)
        m[0, 0] = bad
        for atol in (1e-12, np.inf):
            with pytest.raises(ValueError, match="NaN or infinite"):
                as_hermitian(m, atol=atol)


# numpy reads the string "1.0" as 1.0 and an object array of floats as
# numbers: as_hermitian used to symmetrize such a matrix and is_psd to pass it.
@pytest.mark.parametrize("bad", [PATH_M.astype(str), PATH_M.astype(object)],
                         ids=["strings", "objects"])
@pytest.mark.parametrize("call", [
    as_hermitian, is_psd, lambda m: schur_product(m, PATH_M), lambda m: schur_product(PATH_M, m),
], ids=["as_hermitian", "is_psd", "schur_product-a", "schur_product-b"])
def test_non_numeric_matrix_refused(call, bad):
    with pytest.raises(ValueError, match="^expected numbers, got an array of dtype "):
        call(bad)


class TestFrobeniusNorm:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
    def test_no_overflow_or_underflow(self, scale):
        m = np.array([[3.0, 4.0j], [0.0, 0.0]])
        assert frobenius_norm(scale * m) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_subnormal_complex_entries(self, x):
        # Dividing the complex entries by a subnormal modulus overflowed.
        assert frobenius_norm(np.array([[x * 1j, 0.0], [0.0, 0.0]])) == x

    def test_unit_scale_is_np_linalg_norm(self, rng):
        for scale in (1e-100, 1.0, 1e100):
            m = scale * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            assert frobenius_norm(m) == float(np.linalg.norm(m))

    def test_non_finite(self):
        assert frobenius_norm(np.full((2, 2), 1e308)) == np.inf
        assert frobenius_norm([[np.inf, 0.0]]) == np.inf
        assert np.isnan(frobenius_norm([[np.nan, 1.0]]))
        assert frobenius_norm(np.zeros((0, 0))) == 0.0


class TestDivide:
    def test_bit_for_bit_numpy_division(self, rng):
        for k in range(200):
            a = rng.normal(size=(4, 4)) + (1j * rng.normal(size=(4, 4)) if k % 2 else 0.0)
            a *= 10.0 ** rng.uniform(-100, 100)
            for x in (frobenius_norm(a), 3.0):
                assert _divide(a, x).tobytes() == (a / x).tobytes()
                assert _divide(a.T, x).tobytes() == np.ascontiguousarray(a.T / x).tobytes()

    @pytest.mark.parametrize("x,a", [(2.0**-1030, [[0.75 + 0.5j, -1.0]]), (2.0**-1074, [[1j, -1.0]])])
    def test_subnormal_divisor(self, x, a):
        # numpy's complex division forms 1/x, which overflows here.
        assert np.array_equal(_divide(x * np.array(a), x), a)


class TestSchurProduct:
    def test_identity_selects_diagonal(self, rng):
        a = rng.normal(size=(3, 3))
        m = as_hermitian(a + a.T)
        assert np.allclose(schur_product(np.eye(3), m), np.diag(np.diag(m)))

    def test_all_ones_is_identity_map(self):
        assert np.array_equal(schur_product(np.ones((3, 3)), PATH_M), PATH_M)

    def test_entrywise_example(self):
        out = schur_product(PATH_M, PATH_GAMMA)
        assert np.array_equal(out.real, np.array([[1, 1, 0], [1, 2, -1], [0, -1, 1]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            schur_product(np.eye(2), np.eye(3))

    def test_psd_closed_under_schur(self, rng):
        # Schur product theorem, spot-checked on random PSD pairs.
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            p = schur_product(a @ a.conj().T, b @ b.conj().T)
            assert is_psd(p, 1e-9)


class TestEigen:
    def test_min_eigenvalue_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_min_eigenvalue_all_ones(self):
        assert min_eigenvalue(np.ones((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_min_eigenvalue_path_laplacian(self):
        lap = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert min_eigenvalue(lap) == pytest.approx(0.0, abs=1e-12)
        w = np.linalg.eigvalsh(lap)
        assert np.allclose(w, [0.0, 1.0, 3.0], atol=1e-12)


class TestIsPsd:
    def test_identity_zero_tol(self):
        assert is_psd(np.eye(3), 0.0)

    def test_indefinite(self):
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-9)

    def test_two_i_minus_ones(self):
        assert not is_psd(2 * np.eye(3) - np.ones((3, 3)), 1e-9)

    def test_same_answer_at_every_scale(self):
        # The floor is tol times the Frobenius norm, with no absolute part:
        # 1e-9 * [[1, 2], [2, 1]] has the eigenvalue -1e-9, about a third
        # of its norm, and is not PSD.
        cases = [
            (np.array([[1.0, 2.0], [2.0, 1.0]]), False),
            (2 * np.eye(3) - np.ones((3, 3)), False),
            (np.diag([1.0, -1e-9]), True),  # -1e-9 is within tol * norm
            (np.diag([1.0, -1e-7]), False),
            (PATH_M, True),
        ]
        for m, psd in cases:
            for e in range(-12, 13):
                assert is_psd(10.0**e * m, 1e-8) is psd

    def test_reads_both_triangles(self):
        # One triangle of each is the identity.
        assert not is_psd(np.array([[1.0, -100.0], [0.0, 1.0]]))
        assert not is_psd(np.array([[1.0, 0.0], [-100.0, 1.0]]))

    @pytest.mark.parametrize("fn,expected", [(min_eigenvalue, 0.0), (is_psd, True)])
    def test_empty_matrix(self, fn, expected):
        assert fn(np.zeros((0, 0))) == expected

    def test_non_finite_entry_not_psd(self):
        # LAPACK's eigvalsh returns [0, -0] for the NaN matrix.
        for bad in (np.nan, np.inf, -np.inf):
            assert not is_psd(np.array([[bad, 0.0], [0.0, 1.0]]), 1e-9)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), -1.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="finite"):
            is_psd(np.eye(2), tol)


class TestPsdProject:
    def test_fixes_psd_input(self, rng):
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            p = a @ a.conj().T
            assert np.linalg.norm(psd_project(p) - p) <= 1e-10 * max(1, np.linalg.norm(p))

    def test_clips_diagonal(self):
        assert np.allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_swap_matrix(self):
        out = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, np.full((2, 2), 0.5), atol=1e-12)

    def test_is_nearest_psd(self, rng):
        m = as_hermitian(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), atol=np.inf)
        proj = psd_project(m)
        assert is_psd(proj, 1e-10)
        best = np.linalg.norm(m - proj)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            p = a @ a.conj().T
            assert best <= np.linalg.norm(m - p) + 1e-12


class TestComparisonMatrix:
    def test_identity(self):
        assert np.array_equal(comparison_matrix(np.eye(3)), np.eye(3))

    def test_path_example(self):
        out = comparison_matrix(PATH_M)
        assert np.array_equal(out, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]]))

    def test_complex_modulus(self):
        # Held in m's dtype: real entries, complex128 for a complex m, so
        # that its eigenvalues come from m's LAPACK family.
        out = comparison_matrix(np.array([[2, 1j], [-1j, 2]]))
        assert np.allclose(out, np.array([[2, -1], [-1, 2]]))
        assert out.dtype == np.complex128 and not out.imag.any()
        assert comparison_matrix(np.array([[2, -1], [-1, 2]])).dtype == np.float64

    def test_idempotent_on_nonpositive_offdiagonal(self, rng):
        for _ in range(10):
            m = -np.abs(rng.normal(size=(4, 4)))
            m = 0.5 * (m + m.T)
            np.fill_diagonal(m, rng.normal(size=4))
            c = comparison_matrix(m)
            assert np.array_equal(comparison_matrix(c), c)


class TestConjugate:
    def test_identity(self):
        assert np.allclose(conjugate(PATH_M, np.eye(3)), PATH_M)

    def test_unit_column(self):
        v = np.array([[1.0], [0.0]])
        assert np.allclose(conjugate(np.eye(2), v), [[1.0]])

    def test_hadamard_on_ones(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        out = conjugate(np.ones((2, 2)), h)
        assert np.allclose(out, np.array([[2.0, 0.0], [0.0, 0.0]]), atol=1e-12)

    def test_preserves_psd(self, rng):
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            t = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            assert is_psd(conjugate(a @ a.conj().T, t), 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            conjugate(np.eye(3), np.eye(2))


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = as_hermitian(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), atol=np.inf)
        back = matrix_from_json(matrix_to_json(m))
        assert np.allclose(back, m, atol=1e-15)

    def test_im_defaults_to_zero(self):
        m = matrix_from_json({"n": 2, "re": [[1, 0], [0, 1]]})
        assert np.array_equal(m, np.eye(2))

    def test_im_sets_the_dtype(self):
        # Without "im" a matrix reads as float64 and writes no "im"; with
        # it, even all zero, as complex128, and writes it back.
        real = {"n": 2, "re": [[1.0, 0.5], [0.5, 1.0]]}
        cplx = {**real, "im": [[0.0, 0.0], [0.0, 0.0]]}
        assert matrix_from_json(real).dtype == np.float64
        assert matrix_from_json(cplx).dtype == np.complex128
        assert matrix_to_json(matrix_from_json(real)) == real
        assert matrix_to_json(matrix_from_json(cplx)) == cplx
        assert "im" not in matrix_to_json([[1, 0], [0, 1]])

    def test_reader_symmetrizes(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "re": [[0, 1], [0, 0]]})

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            matrix_from_json({"n": 3, "re": [[1, 0], [0, 1]]})
        # Without "im", a huge n must fail on the shape, not allocate n x n zeros.
        with pytest.raises(ValueError, match="shape"):
            matrix_from_json({"n": 10**9, "re": [[1]]})

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_finite(self, part):
        obj = {"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        obj[part][1][1] = float("nan")
        with pytest.raises(ValueError, match="NaN or infinite"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("obj", [
        [[1, 0], [0, 1]],
        {"re": [[1, 0], [0, 1]]},
        {"n": 2},
        {"n": 2.5, "re": [[1, 0], [0, 1]]},
        {"n": True, "re": [[1]]},
        {"n": "2", "re": [[1, 0], [0, 1]]},
    ])
    def test_malformed(self, obj):
        with pytest.raises(ValueError, match="integer 'n'"):
            matrix_from_json(obj)


    @pytest.mark.parametrize("bad", [True, False, "1.5", None])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_numbers(self, part, bad):
        # A JSON true is a Python bool, an int; np.asarray would read it as
        # 1.0, and a numeric string as its number.
        obj = {"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        obj[part][0][0] = bad
        with pytest.raises(ValueError, match="JSON numbers"):
            matrix_from_json(obj)


class TestVectorJson:
    def test_complex_and_default_im(self):
        assert np.array_equal(vector_from_json({"re": [1, 2], "im": [0, -1]}), [1, 2 - 1j])
        assert np.array_equal(vector_from_json({"re": [1, 2]}), [1, 2])
        # "im", even all zero, sets the dtype.
        assert vector_from_json({"re": [1, -1]}).dtype == np.float64
        assert vector_from_json({"re": [1, -1], "im": [0, 0]}).dtype == np.complex128

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_finite(self, part):
        obj = {"re": [1.0, 0.0], "im": [0.0, 0.0]}
        obj[part][1] = float("inf")
        with pytest.raises(ValueError, match="NaN or infinite"):
            vector_from_json(obj)

    # An empty "re" used to be read as a vector.
    @pytest.mark.parametrize("obj", [{"im": [0]}, {"re": [[1]]}, {"re": [1, 2], "im": [0]},
                                     {"re": []}])
    def test_malformed(self, obj):
        with pytest.raises(ValueError):
            vector_from_json(obj)

    @pytest.mark.parametrize("bad", [True, False, "1.5", None])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_numbers(self, part, bad):
        obj = {"re": [1.0, 0.0], "im": [0.0, 0.0]}
        obj[part][1] = bad
        with pytest.raises(ValueError, match="JSON numbers"):
            vector_from_json(obj)
