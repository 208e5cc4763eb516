"""Embezzlement-state numerics.

The staircase state mu_R has coordinates 1/sqrt(r * chi_R) for r = 1..R,
where chi_R is the R-th harmonic number.  Any unit vector phi in C^d can be
approximately extracted from mu_R by a permutation alone:

* nonnegative phi: sort the coordinates of phi (x) mu_R into decreasing
  order; the overlap of the result with the padded mu_R is at least
  chi_floor(R/d) / chi_R.
* general phi: first rotate each coordinate's phase onto the T-th roots of
  unity using the uniform-phase state theta_T and a blockwise cyclic shift,
  then apply the nonnegative construction to the moduli.  This costs at most
  an extra 2*pi/T of overlap.

Overlaps are computed without building either permutation: both paths
read only the R largest coordinates of |phi| (x) mu_R, in decreasing order,
the R entries the sorting step keeps inside the support of mu_R.  The real
path sums over their values; the complex path and ``template_pullback``
over their flat indices, after one sort of the d*R values, in O(d*R)
memory.
The permutations themselves are built only on request, by
``sort_permutation``, ``embezzle_permutation`` or
``EmbezzleResult.permutation``.  They are 0-based index arrays (``perm[x]``
is the image of ``x``; the associated matrix P maps basis vector x to basis
vector perm[x]) and applied lazily, never materialized as matrices.  The
triple index (t, j, r) in [T] x [d] x [R] is identified with the flat index
(t*d + j)*R + r, extending the pair convention (j, r) -> j*R + r.
"""

import math
from typing import NamedTuple

import numpy as np

from .linalg import _integer, _vector

# Most entries of any permutation a public function may build (d*R, T*d*R
# or T*d_g*R); each checks its size against it before allocating.
ENTRY_CAP = 2**26

NORM_ATOL = 1e-10
BOUND_SLACK = 1e-9


class EmbezzleResult(NamedTuple):
    """Overlap and guaranteed bound of one extraction of ``phi``.

    ``T`` is None for the nonnegative (sorting) construction.  The
    permutation is not stored: each access to ``permutation`` rebuilds it in
    O(T*d*R) time and memory (O(d*R) on the real path).
    """

    phi: np.ndarray
    T: int | None
    R: int
    overlap: complex
    guaranteed_bound: float

    @property
    def permutation(self) -> np.ndarray:
        if self.T is None:
            return sort_permutation(self.phi, self.R)
        return embezzle_permutation(self.phi, self.T, self.R)


def harmonic_number(r: int) -> float:
    """chi_r = 1 + 1/2 + ... + 1/r, with chi_0 = 0."""
    r = _integer("r", r, 0)
    if r == 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, r + 1)))


def mu_state(R: int) -> np.ndarray:
    """Unit vector with coordinates 1/sqrt(r * chi_R), r = 1..R."""
    R = _integer("R", R, 1)
    return 1.0 / np.sqrt(np.arange(1, R + 1) * harmonic_number(R))


def theta_state(T: int) -> np.ndarray:
    """Unit vector with coordinates w^t / sqrt(T), t = 1..T, w = exp(2 pi i / T)."""
    T = _integer("T", T, 1)
    return np.exp(2j * np.pi * np.arange(1, T + 1) / T) / math.sqrt(T)


# -- permutation helpers ------------------------------------------------------


def _check_entries(what: str, size: int) -> None:
    if size > ENTRY_CAP:
        raise ValueError(f"too large: {what} = {size} exceeds cap {ENTRY_CAP}")


def as_permutation(perm, size: int | None = None) -> np.ndarray:
    p = np.asarray(perm)
    if p.ndim != 1:
        raise ValueError("permutation must be a 1-d index array")
    # numpy reads [] as float64; any other non-integer dtype, bool included,
    # would be truncated or read as 0 and 1.
    if len(p) and p.dtype.kind not in "iu":
        raise ValueError(f"permutation images must be integers, got dtype {p.dtype}")
    p = p.astype(np.intp, copy=False)
    if size is not None and len(p) != size:
        raise ValueError(f"permutation has length {len(p)}, expected {size}")
    seen = np.zeros(len(p), dtype=bool)
    if len(p) and (p.min() < 0 or p.max() >= len(p)):
        raise ValueError("permutation image out of range")
    seen[p] = True
    if not seen.all():
        raise ValueError("permutation image is not a bijection")
    return p


def apply_permutation(perm: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return P_perm v, i.e. out[perm[x]] = v[x]."""
    out = np.empty_like(v)
    out[perm] = v
    return out


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=perm.dtype)
    return inv


# -- nonnegative (real) construction ------------------------------------------


def _check_unit(phi, real: bool) -> np.ndarray:
    """A new unit vector ``phi`` once ``linalg._vector`` admits it:
    complex128, or for ``real`` a contiguous float64 array once every
    coordinate is real and nonnegative."""
    phi = _vector("phi", phi)
    if real and phi.dtype.kind == "c":
        if np.any(phi.imag != 0):
            raise ValueError("use complex path: coordinates are not real")
        phi = phi.real
    phi = phi.astype(np.float64 if real else np.complex128)
    if real and np.any(phi < 0):
        raise ValueError("use complex path: coordinates are negative")
    if abs(np.linalg.norm(phi) - 1.0) > NORM_ATOL:
        raise ValueError("phi must be a unit vector")
    return phi


def sort_permutation(phi, R: int) -> np.ndarray:
    """Permutation sorting the coordinates of phi (x) mu_R into decreasing
    order.  Ties break by ascending original index."""
    phi = _check_unit(phi, True)
    R = _integer("R", R, 1)
    _check_entries("d*R", len(phi) * R)
    return invert_permutation(_decreasing_order(phi, mu_state(R)))


def _decreasing_order(phi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Flat indices j*R + r of phi (x) mu in decreasing order of value,
    ties by ascending index: the order ``sort_permutation`` inverts."""
    vals = np.outer(phi, mu).ravel()
    np.negative(vals, out=vals)
    return np.argsort(vals, kind="stable")


def _real_bound(d: int, R: int) -> float:
    chi_ratio = harmonic_number(R // d) / harmonic_number(R)
    log_ratio = (math.log(R) - math.log(d)) / (math.log(R) + 1.0)
    return max(chi_ratio, log_ratio)


def embezzle_real(phi, R: int) -> EmbezzleResult:
    """Extract a nonnegative unit vector phi from mu_R by sorting.

    The overlap <mu_R (padded) | P (phi (x) mu_R)> is real and always at
    least chi_floor(R/d) / chi_R.  It needs only the R largest coordinates
    of phi (x) mu_R in decreasing order, found by a partition and a sort of
    R values; ties do not change that value sequence, so the overlap equals
    the one read through ``sort_permutation``.
    """
    phi = _check_unit(phi, True)
    R = _integer("R", R, 1)
    d = len(phi)
    _check_entries("d*R", d * R)
    mu = mu_state(R)
    vals = np.outer(phi, mu).ravel()
    vals.partition(len(vals) - R)
    top = vals[len(vals) - R:]
    top.sort()
    # A contiguous copy, so np.dot sums exactly as over the stably sorted
    # values that ``sort_permutation`` yields.
    overlap = float(np.dot(mu, top[::-1].copy()))
    bound = _real_bound(d, R)
    if overlap < bound - BOUND_SLACK:
        raise RuntimeError(
            f"overlap {overlap} fell below its guaranteed bound {bound}"
        )
    return EmbezzleResult(phi, None, R, complex(overlap), bound)


# -- general (complex) construction -------------------------------------------


def _phase_shifts(phi: np.ndarray, T: int) -> np.ndarray:
    """Integer shifts r_j with |theta_j - r_j/T| <= 1/(2T), where
    c_j = b_j exp(2 pi i theta_j), theta_j in [0, 1).  Zero coordinates get
    theta_j = 0."""
    theta = np.angle(phi) / (2.0 * np.pi)
    theta = np.where(np.abs(phi) == 0, 0.0, theta % 1.0)
    return np.rint(theta * T).astype(np.intp) % T


def phase_permutation(phi, T: int) -> np.ndarray:
    """Blockwise cyclic shift on [T*d] aligning each coordinate's phase with
    a T-th root of unity: (t, j) -> ((t + r_j) mod T, j) under the index map
    (t, j) -> t*d + j."""
    phi = _check_unit(phi, False)
    T = _integer("T", T, 2)
    d = len(phi)
    shifts = _phase_shifts(phi, T)
    t = np.arange(T, dtype=np.intp)[:, None]
    return (((t + shifts[None, :]) % T) * d + np.arange(d, dtype=np.intp)[None, :]).ravel()


def embezzle_permutation(phi, T: int, R: int) -> np.ndarray:
    """Composite permutation on [T*d*R] extracting an arbitrary unit phi:
    the phase shift on (t, j) followed by the sorting step on (j, r)."""
    phi = _check_unit(phi, False)
    d = len(phi)
    T, R = _integer("T", T, 2), _integer("R", R, 1)
    _check_entries("T*d*R", T * d * R)
    t_out = phase_permutation(phi, T).reshape(-1, d, 1) // d
    return (t_out * (d * R) + sort_permutation(np.abs(phi), R).reshape(d, R)).ravel()


def _kept_entries(phi: np.ndarray, T: int, R: int):
    """For a checked unit vector phi and sizes: the phases w^(r_j), mu_R and
    the flat indices j*R + r of the R largest coordinates of |phi| (x) mu_R,
    in decreasing order.  Those are the entries the sorting step moves into the
    support of mu_R; the first of them lands on mu[0], and so on."""
    _check_entries("d*R", len(phi) * R)
    mu = mu_state(R)
    phase = np.exp(2j * np.pi * _phase_shifts(phi, T) / T)
    return phase, mu, _decreasing_order(np.abs(phi), mu)[:R].copy()


def template_pullback(phi, T: int, R: int) -> np.ndarray:
    """The d x R array c with P^-1 (theta_T (x) e_0 (x) mu_R) = theta_T (x) c,
    where P is the embezzlement permutation of the unit vector phi.

    Entry c[j, r] is w^(r_j) mu[sigma(j, r)] when the sorted position
    sigma(j, r) lands inside the padded mu support (sigma < R), else 0.
    Only those R kept entries are read: mu is scattered into their flat
    indices and each row multiplied by its phase, in O(d*R) memory,
    without the permutation sigma or its inverse.  Summing out the
    t axis this way contracts any inner product against the permuted
    template without the T*d*R permutation.
    """
    phi = _check_unit(phi, False)
    T, R = _integer("T", T, 2), _integer("R", R, 1)
    phase, mu, top = _kept_entries(phi, T, R)
    c = np.zeros(len(phi) * R, dtype=np.complex128)
    c[top] = mu
    c = c.reshape(len(phi), R)
    c *= phase[:, None]
    return c


def embezzle_complex(phi, T: int, R: int) -> EmbezzleResult:
    """Extract an arbitrary unit vector phi from theta_T (x) mu_R.

    The overlap <theta_T (x) mu_R (padded) | P (theta_T (x) phi (x) mu_R)>
    has real part at least chi_floor(R/d) / chi_R - 2*pi/T.  It equals
    <c | phi (x) mu_R> with c the ``template_pullback`` of phi, and is
    summed over the R entries where c is nonzero only: with (j, r) the
    p-th kept entry, sum_p mu[p] conj(w^(r_j)) phi_j mu[r].  Neither c nor
    any other d x R complex array is built.  ``ENTRY_CAP`` still applies to
    T*d*R, the size of the permutation that ``EmbezzleResult.permutation``
    builds on request.
    """
    phi = _check_unit(phi, False)
    d = len(phi)
    T, R = _integer("T", T, 2), _integer("R", R, 1)
    _check_entries("T*d*R", T * d * R)
    phase, mu, top = _kept_entries(phi, T, R)
    j, r = np.divmod(top, R)
    overlap = complex(np.dot(mu, (phase.conj() * phi)[j] * mu[r]))

    bound = harmonic_number(R // d) / harmonic_number(R) - 2.0 * np.pi / T
    if overlap.real < bound - BOUND_SLACK:
        raise RuntimeError(
            f"overlap {overlap.real} fell below its guaranteed bound {bound}"
        )
    return EmbezzleResult(phi, T, R, overlap, bound)
