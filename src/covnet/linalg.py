"""Dense Hermitian matrix primitives shared by every other module.

Matrices are numpy arrays: float64 for real input, else complex128.
``as_hermitian`` is the one entry point that validates and exactly
symmetrizes input; everything else assumes Hermitian input.  ``_array``
refuses any array that does not hold numbers, and ``_integer`` and
``_vector`` are the one checks of an integer and of a vector argument.
"""

import math
import operator

import numpy as np

# The one tolerance of every PSD acceptance test, relative to the Frobenius
# norm of the matrix judged (1 for the zero matrix): decompose and --tol,
# the Gaussian model, the dual approximation, the inflation and is_psd.
TOL = 1e-7

# Construction tolerance for "is this Hermitian at all", relative to ||m||_F.
HERMITIAN_ATOL = 1e-12


def _array(m) -> np.ndarray:
    """float64 for bool, int or float ``m``, complex128 for complex ``m``.
    Any other dtype, a string or an object array, is refused: numpy would
    read the string "1" as the number 1."""
    a = np.asarray(m)
    if a.dtype.kind not in "biufc":
        raise ValueError(f"expected numbers, got an array of dtype {a.dtype}")
    return a.astype(np.float64 if a.dtype.kind in "biuf" else np.complex128, copy=False)


def as_hermitian(m, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate that ``m`` is Hermitian within ``atol`` times ||m||_F (1 for
    the zero matrix), then symmetrize exactly.

    Returns ``m/2 + m†/2`` as a new array, float64 for real ``m``, else
    complex128 (the diagonal comes out exactly real, and finite input stays
    finite).  Raises ``ValueError`` for non-square input, for NaN or infinite
    entries, or when the conjugate-transpose mismatch exceeds that bound.
    """
    a = _array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has a NaN or infinite entry")
    if a.size:
        dev = float(np.max(np.abs(a - a.conj().T)))
        norm = frobenius_norm(a)
        if norm == np.inf:
            raise ValueError("matrix norm is not finite")
        bound = atol * (norm or 1.0)
        if dev > bound:
            raise ValueError(f"matrix is not Hermitian: max |m - m^H| = {dev:.3e} exceeds {bound:.1e}")
    return 0.5 * a + 0.5 * a.conj().T


# np.linalg.norm squares every entry: when the largest modulus is above 1e140
# or below 1e-140, the moduli are divided by it first so that no square
# overflows or underflows (a complex array divided by a subnormal overflows).
# inf means the true norm is too large for a float.
def frobenius_norm(m) -> float:
    a = np.asarray(m)
    mod = np.abs(a)
    big = float(np.max(mod, initial=0.0))
    if 1e-140 <= big <= 1e140 or not 0.0 < big < np.inf:
        return float(np.linalg.norm(a))
    return big * float(np.linalg.norm(mod / big))


def _divide(a: np.ndarray, x: float) -> np.ndarray:
    """a / x for x > 0, as numpy gives it, without forming 1/x.  numpy divides
    a complex array by the rounded reciprocal of x, which overflows once x is
    below about 5.6e-309; here a and x are first scaled by 2^-e, x = f 2^e
    with 1/2 <= f < 1, so that the reciprocal taken is 1/f."""
    f, e = math.frexp(x)
    a = np.ascontiguousarray(a)
    return np.ldexp(a.view(np.float64), -e).view(a.dtype) / f


def schur_product(a, b) -> np.ndarray:
    """Entrywise product of two same-size Hermitian matrices."""
    a, b = _array(a), _array(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a * b


def min_eigenvalue(m) -> float:
    a = _array(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a)[0])


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int, once it is an integer (``np.int64`` too) >= low,
    and below ``high`` if given.  The one check of an integer argument: a
    float such as 2.0, a bool, a string or None is refused, never truncated."""
    try:
        if type(value) is bool:  # operator.index reads True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low or high is not None and value >= high:
        bounds = f"be >= {low}" if high is None else f"lie in [{low}, {high})"
        raise ValueError(f"{name} must {bounds}")
    return value


def _vector(what: str, v, d: int | None = None) -> np.ndarray:
    """``_array(v)`` once it is a nonempty 1-d array, of length ``d`` if
    given, with finite entries.  The one check of a vector argument: every
    refusal is a ``ValueError`` that starts with ``what``."""
    try:
        a = _array(v)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if a.ndim != 1 or not a.size:
        raise ValueError(f"{what} must be a nonempty vector")
    if d is not None and len(a) != d:
        raise ValueError(f"{what} is not of dimension {d}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a NaN or infinite entry")
    return a


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and nonnegative."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _block_fault(block: np.ndarray, bound: float) -> str | None:
    """Why a block fails at ``bound``, ``tol`` times the norm of the matrix
    it belongs to: a non-finite entry, max |B - B^H| above ``bound`` or an
    eigenvalue below -``bound``.  None admits it, as a term's block, a
    witness's or a whole matrix.  Tests are written "not <=" so that a NaN
    bound fails."""
    if not np.isfinite(block).all():
        return "has a non-finite entry"
    if not np.max(np.abs(block - block.conj().T)) <= bound:
        return "is not Hermitian"
    if not np.linalg.eigvalsh(block)[0] >= -bound:
        return "is not PSD"
    return None


def is_psd(m, tol: float = TOL) -> bool:
    """True iff ``m`` passes the block test of every certificate as one
    block: finite, Hermitian and with smallest eigenvalue >= -bound, where
    bound is ``tol`` times ||m||_F (1 for the zero matrix), so that m and
    c * m agree for every c > 0.  The 0 x 0 matrix is PSD."""
    _check_tol(tol)
    a = _array(m)
    return a.size == 0 or _block_fault(a, tol * (frobenius_norm(a) or 1.0)) is None


def psd_project(m) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clip negative
    eigenvalues to zero and reconstruct."""
    a = _array(m)
    w, v = np.linalg.eigh(a)
    np.clip(w, 0.0, None, out=w)
    p = (v * w) @ v.conj().T
    return 0.5 * (p + p.conj().T)


def _psd_factor(m) -> np.ndarray:
    """F with F F^H equal to ``m`` after its negative eigenvalues are
    clipped to zero: the eigenvectors scaled by the clipped roots."""
    w, v = np.linalg.eigh(m)
    np.clip(w, 0.0, None, out=w)
    return v * np.sqrt(w)


def comparison_matrix(m) -> np.ndarray:
    """Real symmetric matrix keeping the diagonal and replacing every
    off-diagonal entry by minus its modulus, in ``m``'s dtype."""
    a = _array(m)
    out = (-np.abs(a)).astype(a.dtype, copy=False)
    np.fill_diagonal(out, a.diagonal().real)
    return out


def conjugate(m, t) -> np.ndarray:
    """Return ``t† @ m @ t``.  Preserves positive semidefiniteness."""
    a, t = _array(m), _array(t)
    if t.ndim != 2 or t.shape[0] != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape}, conjugator is {t.shape}"
        )
    out = t.conj().T @ a @ t
    return 0.5 * (out + out.conj().T)
