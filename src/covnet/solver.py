"""Feasibility of source-wise PSD decompositions, with certificates.

A matrix M is feasible for a network when it splits as a sum of PSD terms,
one per source, each supported on that source's party block.  Three
verdicts are possible:

* feasible, with an explicit verified decomposition;
* infeasible, with a verified dual witness: a matrix whose source blocks
  are all PSD but whose inner product with M is negative (no decomposition
  can coexist with such a witness, since the inner product of a dual
  element with any decomposable matrix is a sum of PSD-against-PSD block
  traces and hence nonnegative);
* undecided, when neither certificate is reached within tolerance.

For networks whose sources are all bipartite there is an exact fast test:
M is feasible iff its comparison matrix (diagonal kept, off-diagonal entries
replaced by minus their modulus) is PSD.

The general solver searches over splits.  An entry (i, j) of M can only be
carried by the sources adjacent to both parties, so a decomposition is
fixed by how each entry held by more than one source is shared among them:
on an NDCS network these are the diagonal entries alone.  With ``x`` the
shares (real and imaginary parts), source a's term is
``X_a(x) = base_a + sum_k x_k G_ak``, where ``base_a`` gives every shared
entry an equal share.  ``decompose`` tries the equal split first, then
solves the phase-I problem ``max lambda s.t. X_a(x) - lambda I >= 0`` by a
barrier method (Boyd & Vandenberghe, *Convex Optimization*, 11.4): damped
Newton steps on ``-s lambda - sum_a log det(X_a - lambda I)``, with ``s``
multiplied by 8 at each centred point.  ``lambda >= 0`` (within tolerance)
makes the split a decomposition.  At a centred point the optimum is at most
``lambda + sum_a |a| / s``; once that bound is negative, the Newton step's
dual point ``Z_a = S_a^-1 - S_a^-1 dS_a S_a^-1`` (Vandenberghe & Boyd, SIAM
Rev. 38(1), 1996), ``dS_a`` the step's change of S_a, is a witness: the
Newton equations make the blocks agree on shared entries, and a decrement
below 1 makes each Z_a positive definite.  ``SolverOptions.max_sweeps`` and
``DecomposeResult.sweeps`` count Newton steps.
"""

import enum
import functools
import operator
from typing import NamedTuple

import numpy as np

from .linalg import (
    as_hermitian,
    comparison_matrix,
    frobenius_norm,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    psd_project,
)
from .network import Network


class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


class _SolverOptionsFields(NamedTuple):
    max_sweeps: int
    feasibility_tol: float


class SolverOptions(_SolverOptionsFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(
        cls,
        max_sweeps=20_000,  # Newton steps of the barrier method
        feasibility_tol=1e-7,  # relative to ||M||_F (1 for M = 0)
    ):
        try:
            max_sweeps = operator.index(max_sweeps)
        except TypeError:
            raise ValueError(f"max_sweeps must be an integer, got {max_sweeps!r}") from None
        if max_sweeps < 1 or not 0 < feasibility_tol < np.inf:
            raise ValueError("solver options must be positive and finite")
        return super().__new__(cls, max_sweeps, feasibility_tol)


class Decomposition(NamedTuple):
    """Map from source name to an n x n PSD term supported on that source's
    block, summing to ``target`` up to ``residual_norm``."""

    terms: dict[str, np.ndarray]
    target: np.ndarray
    residual_norm: float

    def total(self) -> np.ndarray:
        out = np.zeros_like(self.target)
        for t in self.terms.values():
            out = out + t
        return out

    def to_json(self) -> dict:
        return {
            "target": matrix_to_json(self.target),
            "terms": {name: matrix_to_json(t) for name, t in self.terms.items()},
            "residual": float(self.residual_norm),
        }


def decomposition_from_json(obj: dict) -> Decomposition:
    target = matrix_from_json(obj["target"])
    terms = {name: matrix_from_json(t) for name, t in obj["terms"].items()}
    return Decomposition(terms, target, float(obj.get("residual", 0.0)))


class DualWitness(NamedTuple):
    """Infeasibility certificate: every source block of ``w`` is PSD and
    Re tr(w^H m) = ``inner_product`` is strictly negative."""

    w: np.ndarray
    inner_product: float

    def to_json(self) -> dict:
        return {"w": matrix_to_json(self.w), "inner_product": float(self.inner_product)}


def witness_from_json(obj: dict) -> DualWitness:
    return DualWitness(matrix_from_json(obj["w"]), float(obj["inner_product"]))


class CheckResult(NamedTuple):
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class DecomposeResult(NamedTuple):
    """``sweeps`` is the number of Newton steps taken (0 when the forbidden
    entry or the equal split decided).  ``residual_norm`` is ||M - sum of
    terms||_F for the returned decomposition, ||M||_F for a forbidden entry,
    and otherwise ||M - sum of the PSD parts of the last split's terms||_F."""

    status: Feasibility
    decomposition: Decomposition | None = None
    witness: DualWitness | None = None
    sweeps: int = 0
    residual_norm: float = 0.0
    message: str = ""


def fast_check_bipartite(net: Network, m, tol: float) -> Feasibility:
    """Exact feasibility test for bipartite-source networks: feasible iff
    the comparison matrix is PSD.  Entries on pairs without a common source
    must vanish within ``tol`` (otherwise immediately infeasible).  Both
    tests are relative to ||m||_F (1 for the zero matrix)."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if not net.all_bipartite():
        raise ValueError("fast path unavailable: network has a non-bipartite source")
    m = as_hermitian(m)
    if m.shape[0] != net.n_parties:
        raise ValueError("matrix size does not match the network")
    scale = frobenius_norm(m) or 1.0
    for i, j in net.no_common_source_pairs():
        if abs(m[i, j]) > tol * scale:
            return Feasibility.INFEASIBLE
    if is_psd(comparison_matrix(m) / scale, tol):
        return Feasibility.FEASIBLE
    return Feasibility.INFEASIBLE


def _block_fault(block: np.ndarray, bound: float) -> str | None:
    """Why a source block fails at ``bound``, ``tol`` times the norm of the
    matrix it belongs to: a non-finite entry, max |B - B^H| above ``bound``
    or an eigenvalue below -``bound``.  None admits it, as a term's block or
    a witness's.  Tests are written "not <=" so that a NaN bound fails."""
    if not np.isfinite(block).all():
        return "has a non-finite entry"
    if not np.max(np.abs(block - block.conj().T)) <= bound:
        return "is not Hermitian"
    if not np.linalg.eigvalsh(block)[0] >= -bound:
        return "is not PSD"
    return None


def verify_decomposition(net: Network, m, d: Decomposition, tol: float) -> CheckResult:
    """Check that each term vanishes outside its source's block, that the
    block is finite, Hermitian and PSD, and that the terms sum to m, all at
    ``tol`` times ||m||_F (1 for the zero matrix)."""
    m = as_hermitian(m)
    n = net.n_parties
    bound = tol * (frobenius_norm(m) or 1.0)
    reasons = []
    total = np.zeros((n, n), dtype=np.complex128)
    for name, term in d.terms.items():
        try:
            a = net.source_index(name)
        except ValueError:
            reasons.append(f"unknown source '{name}'")
            continue
        term = np.asarray(term, dtype=np.complex128)
        if term.shape != (n, n):
            reasons.append(f"term '{name}' has wrong shape")
            continue
        supp = np.zeros((n, n), dtype=bool)
        block = np.ix_(net.sources[a], net.sources[a])
        supp[block] = True
        if not (np.abs(term[~supp]) <= bound).all():
            reasons.append(f"term '{name}' has entries outside its block")
        if fault := _block_fault(term[block], bound):
            reasons.append(f"term '{name}' {fault}")
        total += term
    if not frobenius_norm(m - total) <= bound:
        reasons.append("residual")
    return CheckResult(not reasons, tuple(reasons))


def _block_faults(net: Network, w: np.ndarray, tol: float) -> list[str]:
    """Why each failing source block of ``w`` fails at ``tol`` times ||w||_F."""
    bound = tol * (frobenius_norm(w) or 1.0)
    faults = [_block_fault(w[np.ix_(ix, ix)], bound) for ix in net.blocks()]
    return [f"block '{a}' {fault}" for a, fault in zip(net.source_names, faults) if fault]


def is_in_dual_cone(net: Network, w, tol: float) -> bool:
    """True iff every entry of ``w`` is finite and every source block is
    Hermitian and PSD at ``tol`` times ||w||_F (1 for the zero matrix)."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (net.n_parties, net.n_parties):
        raise ValueError("matrix size does not match the network")
    return bool(np.isfinite(w).all()) and not _block_faults(net, w, tol)


def verify_witness(net: Network, m, w: DualWitness, tol: float) -> CheckResult:
    """Check that every source block of ``w`` is finite, Hermitian and PSD at
    ``tol`` times ||w||_F, and that Re tr(w^H m) < -tol * ||m||_F * ||w||_F
    (1 for a zero norm)."""
    m = as_hermitian(m)
    wm = np.asarray(w.w, dtype=np.complex128)
    if wm.shape != m.shape:
        return CheckResult(False, ("dimension mismatch",))
    reasons = _block_faults(net, wm, tol)
    ip = float(np.vdot(wm, m).real)
    if not ip < -tol * (frobenius_norm(m) * frobenius_norm(wm) or 1.0):
        reasons.append("inner product is not negative enough")
    return CheckResult(not reasons, tuple(reasons))


def _offblock_witness(net: Network, m, i: int, j: int) -> DualWitness:
    """Unit-Frobenius witness carrying phase-matched mass only at (i, j) and
    (j, i); its source blocks are all zero, hence vacuously PSD."""
    n = net.n_parties
    w = np.zeros((n, n), dtype=np.complex128)
    phase = m[i, j] / abs(m[i, j])
    w[i, j] = -phase
    w[j, i] = -np.conj(phase)
    w /= np.sqrt(2.0)
    return DualWitness(w, float(np.vdot(w, m).real))


# Barrier constants: the decrement^2 below which a point counts as centred,
# the factor on s between centred points, and the Armijo fraction of the
# backtracking line search.
_CENTRED = 1e-3
_S_FACTOR = 8.0
_ARMIJO = 0.25


class _Splits:
    """Source blocks of M as affine functions of z = (x, lambda).

    Block a is ``base[a] + sum_k z[idx[a][k]] * dirs[a][k]``.  Every
    direction but the last moves a share of one entry from one of its
    sources to the last one; the last direction is -I on every block, so
    the last entry of z is lambda and the blocks are the S_a = X_a - lambda I
    of the barrier.  The equal split needs only ``grids``, ``owners`` and
    ``base``; the directions are built on the first use of ``size``, ``idx``
    or ``dirs``, when the barrier starts.
    """

    def __init__(self, net: Network, m: np.ndarray):
        self.ix = net.blocks()
        self.grids = [np.ix_(ix, ix) for ix in self.ix]
        self.owners = np.zeros((net.n_parties,) * 2, dtype=np.intp)
        for g in self.grids:
            self.owners[g] += 1
        self.base = [m[g] / self.owners[g] for g in self.grids]
        self.m = m
        self.dims = sum(len(ix) for ix in self.ix)

    @functools.cached_property
    def _directions(self) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
        units = (1.0, 1j) if np.any(self.m.imag) else (1.0,)
        holders = {}
        for a, ix in enumerate(self.ix):
            for p in range(len(ix)):
                for q in range(p, len(ix)):
                    holders.setdefault((ix[p], ix[q]), []).append((a, p, q))
        per_block = [[] for _ in self.ix]
        k = 0
        for (i, j), (*movers, last) in holders.items():
            for unit in units if i != j else (1.0,):
                for mover in movers:
                    for sign, (a, p, q) in ((1.0, mover), (-1.0, last)):
                        g = np.zeros((len(self.ix[a]),) * 2, dtype=np.complex128)
                        g[p, q] = sign * unit
                        g[q, p] = np.conj(sign * unit)
                        per_block[a].append((k, g))
                    k += 1
        for a, ix in enumerate(self.ix):
            per_block[a].append((k, -np.eye(len(ix))))
        idx = [np.array([k for k, _ in pb]) for pb in per_block]
        dirs = [np.array([g for _, g in pb]) for pb in per_block]
        return k + 1, idx, dirs

    size = property(lambda self: self._directions[0])
    idx = property(lambda self: self._directions[1])
    dirs = property(lambda self: self._directions[2])

    def blocks(self, z: np.ndarray, lam: bool = True) -> list[np.ndarray]:
        """The S_a at z, or the X_a (lambda left out) when ``lam`` is false."""
        stop = None if lam else -1
        return [
            b + np.tensordot(z[k[:stop]], d[:stop], 1)
            for b, k, d in zip(self.base, self.idx, self.dirs)
        ]

    def log_det(self, z: np.ndarray):
        """Sum of log det S_a and, from one ``eigh`` of each S_a = V diag(w) V^H,
        the factors F_a = diag(w)^-1/2 V^H (so F_a^H F_a = S_a^-1); None when
        some S_a is not positive definite."""
        total, factors = 0.0, []
        for s in self.blocks(z):
            w, v = np.linalg.eigh(s)
            if not w[0] > 0:
                return None
            total += float(np.log(w).sum())
            factors.append((v / np.sqrt(w)).conj().T)
        return total, factors

    def derivatives(self, factors) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of -sum_a log det S_a, from the factors F_a of
        ``log_det``: with K = F G F^H, tr(S^-1 G) = tr K and
        tr(S^-1 G S^-1 G') = <K, K'>."""
        grad = np.zeros(self.size)
        hess = np.zeros((self.size, self.size))
        for f, k, d in zip(factors, self.idx, self.dirs):
            kk = f @ d @ f.conj().T
            flat = kk.reshape(len(k), -1)
            grad[k] -= np.trace(kk, axis1=1, axis2=2).real
            hess[np.ix_(k, k)] += (flat @ flat.conj().T).real
        return grad, hess

    def embed(self, blocks) -> list[np.ndarray]:
        out = [np.zeros(self.owners.shape, dtype=np.complex128) for _ in blocks]
        for full, g, b in zip(out, self.grids, blocks):
            full[g] = b
        return out


def _decomposition(net: Network, m: np.ndarray, splits: _Splits, blocks) -> Decomposition:
    terms = dict(zip(net.source_names, splits.embed(blocks)))
    return Decomposition(terms, m, frobenius_norm(m - sum(terms.values())))


def _dual_witness(m: np.ndarray, splits: _Splits, factors, step: np.ndarray) -> DualWitness:
    """The Newton step's dual point Z_a = F_a^H (I - F_a dS_a F_a^H) F_a from
    the factors F_a of ``_Splits.log_det`` at a centred point, assembled
    (holders of a shared entry agree up to rounding) and normalised."""
    blocks = []
    for f, k, d in zip(factors, splits.idx, splits.dirs):
        fh = f.conj().T
        kk = f @ np.tensordot(step[k], d, 1) @ fh
        blocks.append(fh @ (np.eye(len(f)) - kk) @ f)
    w = sum(splits.embed(blocks)) / np.maximum(splits.owners, 1)
    w = w + w.conj().T  # exactly Hermitian; the normalisation absorbs the 2
    w = w / np.linalg.norm(w)
    return DualWitness(w, float(np.vdot(w, m).real))


def _clipped_residual(net: Network, m: np.ndarray, splits: _Splits, z: np.ndarray) -> float:
    """Distance from M to the sum of the PSD parts of the split's terms."""
    clipped = [psd_project(x) for x in splits.blocks(z, lam=False)]
    return _decomposition(net, m, splits, clipped).residual_norm


def decompose(net: Network, m, opts: SolverOptions | None = None) -> DecomposeResult:
    """Decide feasibility over splits of the shared entries.

    In order: a large entry on a pair with no common source gives a witness
    at once; the equal split gives a decomposition when its terms verify;
    otherwise the barrier method runs until lambda reaches the feasibility
    tolerance (a verified decomposition) or a centred point certifies a
    negative optimum with a verified witness.  It returns undecided when
    the duality gap closes first or ``opts.max_sweeps`` Newton steps run
    out, never a wrong verdict.
    """
    m = as_hermitian(m)
    if m.shape[0] != net.n_parties:
        raise ValueError("matrix size does not match the network")
    opts = opts or SolverOptions()
    tol = opts.feasibility_tol
    feas_abs = tol * (frobenius_norm(m) or 1.0)

    # Entries on pairs with no common source must vanish for any
    # decomposition to exist; a single large one certifies infeasibility.
    pairs = net.no_common_source_pairs()
    if pairs:
        i, j = max(pairs, key=lambda p: abs(m[p[0], p[1]]))
        if abs(m[i, j]) > feas_abs:
            wit = _offblock_witness(net, m, i, j)
            if verify_witness(net, m, wit, tol):
                return DecomposeResult(
                    Feasibility.INFEASIBLE,
                    witness=wit,
                    residual_norm=frobenius_norm(m),
                    message=f"forbidden entry at ({i}, {j})",
                )

    splits = _Splits(net, m)
    dec = _decomposition(net, m, splits, splits.base)
    if verify_decomposition(net, m, dec, tol):
        return DecomposeResult(
            Feasibility.FEASIBLE, decomposition=dec, residual_norm=dec.residual_norm
        )

    z = np.zeros(splits.size)
    z[-1] = min(np.linalg.eigvalsh(b)[0] for b in splits.base) - frobenius_norm(m)
    logdet, factors = splits.log_det(z)
    s = sum(float(np.sum(np.abs(f) ** 2)) for f in factors)  # tr S^-1: d/dlambda = 0
    steps = 0
    barrier_grad, hess = splits.derivatives(factors)
    while True:
        grad = barrier_grad.copy()
        grad[-1] -= s
        scale = np.sqrt(hess.diagonal())
        step = -np.linalg.solve(hess / np.outer(scale, scale), grad / scale) / scale
        decrement = -float(grad @ step)
        if decrement <= _CENTRED:
            gap = splits.dims / s
            if z[-1] + gap < 0 and gap <= 1e-4 * abs(z[-1]):
                wit = _dual_witness(m, splits, factors, step)
                if verify_witness(net, m, wit, tol):
                    return DecomposeResult(
                        Feasibility.INFEASIBLE,
                        witness=wit,
                        sweeps=steps,
                        residual_norm=_clipped_residual(net, m, splits, z),
                    )
            if gap < 1e-3 * feas_abs:
                message = "duality gap closed"
                break
            s *= _S_FACTOR
            continue
        if steps >= opts.max_sweeps:
            message = "Newton step budget exhausted"
            break
        value = -s * z[-1] - logdet
        t = 1.0
        while t >= 1e-12:
            trial = z + t * step
            found = splits.log_det(trial)
            if found is not None and -s * trial[-1] - found[0] <= value - _ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            message = "line search failed"
            break
        z, (logdet, factors) = trial, found
        barrier_grad, hess = splits.derivatives(factors)
        steps += 1
        if z[-1] >= -feas_abs:
            dec = _decomposition(net, m, splits, splits.blocks(z, lam=False))
            if verify_decomposition(net, m, dec, tol):
                return DecomposeResult(
                    Feasibility.FEASIBLE,
                    decomposition=dec,
                    sweeps=steps,
                    residual_norm=dec.residual_norm,
                )
    return DecomposeResult(
        Feasibility.UNDECIDED,
        sweeps=steps,
        residual_norm=_clipped_residual(net, m, splits, z),
        message=message,
    )
