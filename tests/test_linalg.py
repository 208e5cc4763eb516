"""Hermitian primitives: frozen examples plus randomized properties."""

import numpy as np
import pytest

from covnet.linalg import (
    as_hermitian,
    comparison_matrix,
    conjugate,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    psd_project,
    schur_product,
    vector_from_json,
)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        # NaN compares False against the skew tolerance, so it must be
        # rejected on its own, as must inf whatever atol is.
        m = np.eye(2, dtype=np.complex128)
        m[0, 0] = bad
        for atol in (1e-12, np.inf):
            with pytest.raises(ValueError, match="NaN or infinite"):
                as_hermitian(m, atol=atol)


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
        out = comparison_matrix(np.array([[2, 1j], [-1j, 2]]))
        assert np.allclose(out, np.array([[2, -1], [-1, 2]]))
        assert np.isrealobj(out)

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

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_finite(self, part):
        obj = {"re": [1.0, 0.0], "im": [0.0, 0.0]}
        obj[part][1] = float("inf")
        with pytest.raises(ValueError, match="NaN or infinite"):
            vector_from_json(obj)

    @pytest.mark.parametrize("obj", [{"im": [0]}, {"re": [[1]]}, {"re": [1, 2], "im": [0]}])
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
