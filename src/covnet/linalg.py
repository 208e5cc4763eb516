"""Dense Hermitian matrix primitives shared by every other module.

Matrices are plain numpy ``complex128`` arrays.  ``as_hermitian`` is the one
entry point that validates and exactly symmetrizes input; everything else
assumes Hermitian input.
"""

import numpy as np

# Covariance estimates from ~1e6 samples carry ~1e-3 noise; exact-arithmetic
# inputs pass far below this.
DEFAULT_PSD_TOL = 1e-8

# Construction tolerance for "is this Hermitian at all", relative to ||m||_F.
HERMITIAN_ATOL = 1e-12


def as_hermitian(m, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate that ``m`` is Hermitian within ``atol`` times ||m||_F (1 for
    the zero matrix), then symmetrize exactly.

    Returns ``m/2 + m†/2`` as a new complex128 array (the diagonal comes
    out exactly real, and finite input stays finite).  Raises
    ``ValueError`` for non-square input, for NaN or infinite entries, or
    when the conjugate-transpose mismatch exceeds that bound.
    """
    a = np.asarray(m, dtype=np.complex128)
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


def schur_product(a, b) -> np.ndarray:
    """Entrywise product of two same-size Hermitian matrices."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a * b


def min_eigenvalue(m) -> float:
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a)[0])


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and nonnegative."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def is_psd(m, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff every entry is finite and the smallest eigenvalue is
    >= -tol * (spectral norm), so that m and c * m agree for every c > 0."""
    _check_tol(tol)
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return True
    if not np.isfinite(a).all():
        # LAPACK can return finite eigenvalues for such input.
        return False
    w = np.linalg.eigvalsh(a)
    snorm = max(abs(w[0]), abs(w[-1]))
    return bool(w[0] >= -tol * snorm)


def psd_project(m) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clip negative
    eigenvalues to zero and reconstruct."""
    a = np.asarray(m, dtype=np.complex128)
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
    off-diagonal entry by minus its modulus."""
    a = np.asarray(m, dtype=np.complex128)
    out = -np.abs(a)
    np.fill_diagonal(out, a.diagonal().real)
    return out


def conjugate(m, t) -> np.ndarray:
    """Return ``t† @ m @ t``.  Preserves positive semidefiniteness."""
    a = np.asarray(m, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim != 2 or t.shape[0] != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape}, conjugator is {t.shape}"
        )
    out = t.conj().T @ a @ t
    return 0.5 * (out + out.conj().T)


# ---------------------------------------------------------------------------
# Matrix and vector JSON formats, shared by all modules:
#   {"n": int, "re": [[...]], "im": [[...]]}   and   {"re": [...], "im": [...]}
# "im" is optional on input and defaults to zero; writers emit both.


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {
        "n": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def _json_numbers(x, what: str, number=(int, float)):
    """Return ``x`` once it is known to be a ``number`` or a list (of lists)
    of them.  A JSON true or false reads as a bool, which is an int, so a
    bool is refused before the ``number`` test; strings and null fail it."""
    todo = [x]
    while todo:
        v = todo.pop()
        if type(v) is list:
            todo.extend(v)
        elif type(v) is bool or not isinstance(v, number):
            kind = "integers" if number is int else "numbers"
            raise ValueError(f"{what} must hold JSON {kind} only, not {v!r}")
    return x


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the matrix JSON object and return the symmetrized matrix."""
    # type() rather than isinstance(): a JSON true is a bool, which is an int.
    if not (isinstance(obj, dict) and type(obj.get("n")) is int and "re" in obj):
        raise ValueError("matrix JSON must contain an integer 'n' and 're'")
    n = obj["n"]
    re = np.asarray(_json_numbers(obj["re"], "matrix JSON 're'"), dtype=np.float64)
    im = np.zeros_like(re)
    if "im" in obj:
        im = np.asarray(_json_numbers(obj["im"], "matrix JSON 'im'"), dtype=np.float64)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix JSON shape mismatch: expected {n}x{n}")
    m = re.astype(np.complex128)
    m.imag = im  # re + 1j * im would give an infinite im a NaN real part
    return as_hermitian(m)


def vector_from_json(obj: dict) -> np.ndarray:
    """Parse the vector JSON object into a complex128 vector."""
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError("vector JSON must contain 're'")
    re = np.asarray(_json_numbers(obj["re"], "vector JSON 're'"), dtype=np.float64)
    im = np.zeros_like(re)
    if "im" in obj:
        im = np.asarray(_json_numbers(obj["im"], "vector JSON 'im'"), dtype=np.float64)
    if re.ndim != 1 or im.shape != re.shape:
        raise ValueError("vector JSON 're' and 'im' must be flat lists of one length")
    v = re.astype(np.complex128)
    v.imag = im
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has a NaN or infinite entry")
    return v
