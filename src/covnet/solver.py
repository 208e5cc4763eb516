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
replaced by minus their modulus) is PSD.  ``splits._comparison`` reads a
decomposition off one ``eigh`` of comp(M) whenever it is PSD, on any
network, and a witness when it is not and every source is bipartite.

The general solver searches over splits.  An entry (i, j) of M can only be
carried by the sources adjacent to both parties, so a decomposition is
fixed by how each entry held by more than one source is shared among them:
on an NDCS network these are the diagonal entries alone.  ``decompose``
tries, in order: an entry on a pair with no common source (a witness at
once); the equal split, when the smallest eigenvalue of its blocks is at
least -tol; the comparison split or witness above; then, on
M / ||M||_F, it solves the phase-I problem ``max lambda s.t. X_a - lambda
I >= 0`` by a barrier method (Boyd & Vandenberghe, *Convex Optimization*,
11.4): damped Newton steps on
``-s lambda - sum_a log det S_a``, S_a = X_a - lambda I, with ``s``
multiplied by 8 at each centred point.  The shares and lambda enter the S_a
through moves (``splits._Splits``), so each step reads its gradient and
Hessian in closed form from P_a = S_a^-1.  ``lambda >= 0`` (within
tolerance) makes the split a decomposition.  At a centred point the optimum
is at most ``lambda + sum_a |a| / s``; at every one where that bound is
negative, the Newton step's dual point ``Z_a = P_a - P_a dS_a P_a``
(Vandenberghe & Boyd, SIAM Rev. 38(1), 1996), ``dS_a`` the step's change
of S_a, is tried as a witness: the Newton equations make the blocks agree
on shared entries, and a decrement below 1 makes each Z_a positive definite.
Every candidate goes through ``_verified``: a split, the equal one, the
comparison one or the barrier's, is a stack of source blocks (``splits``)
that it embeds, and a witness (the barrier's dual point is assembled by
``splits._assemble``) is normalised.  It returns the result only once
``verify_*`` accepts it; one that fails is dropped, and the decision
passes on to the next step.
``tol`` (default ``linalg.TOL``) is the one parameter, relative to ||M||_F
as in every check here.  ``MAX_NEWTON_STEPS`` caps the Newton steps, which
``DecomposeResult.sweeps`` counts.
"""

import enum
from typing import NamedTuple

import numpy as np

from .linalg import (
    TOL,
    _array,
    _block_fault,
    _check_tol,
    _divide,
    as_hermitian,
    comparison_matrix,
    frobenius_norm,
    min_eigenvalue,
    psd_project,
)
from .network import Network, _unheld
from .splits import _assemble, _comparison, _h, _Splits


class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


class Decomposition(NamedTuple):
    """Map from source name to an n x n PSD term supported on that source's
    block, summing to ``target`` up to ``residual_norm``."""

    terms: dict[str, np.ndarray]
    target: np.ndarray
    residual_norm: float

    def total(self) -> np.ndarray:
        return sum(self.terms.values(), np.zeros_like(self.target))

    def to_json(self) -> dict:
        from .formats import decomposition_to_json

        return decomposition_to_json(self)


class DualWitness(NamedTuple):
    """Infeasibility certificate: every source block of ``w`` is PSD and
    Re tr(w^H m) = ``inner_product`` is strictly negative.

    ``verify_witness`` rejects a stated ``inner_product`` that is not < 0
    (NaN included) but scores Re tr((w / ||w||_F)^H m) itself: the stated
    value is not compared with it, since at w and m times 2^900 the true
    product overflows while the certificate stays valid.  Comparing the two
    needs exact arithmetic, which no check here uses yet."""

    w: np.ndarray
    inner_product: float

    def to_json(self) -> dict:
        from .formats import witness_to_json

        return witness_to_json(self)


class CheckResult(NamedTuple):
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class DecomposeResult(NamedTuple):
    """``sweeps`` is the number of Newton steps taken: 0 when the forbidden
    entry, the equal split (tried only when the smallest eigenvalue of its
    blocks is at least -tol), the comparison split or the comparison witness
    decided, and ``message`` then names that path.  The barrier tries a
    witness at every centred point whose bound is negative.
    ``residual_norm`` is ||M - sum of terms||_F for a FEASIBLE result,
    ||M||_F for an INFEASIBLE one, and ||M - sum of the PSD parts of the
    last split's terms||_F for an UNDECIDED one."""

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
    tests are relative to ||m||_F (1 for the zero matrix).  No command
    calls it: it is the reference, an ``eigvalsh`` test independent of
    ``decompose``'s comparison split and witness, that the batteries check
    against."""
    _check_tol(tol)
    if not net.all_bipartite():
        raise ValueError("fast path unavailable: network has a non-bipartite source")
    m = as_hermitian(m)
    scale = _scale(net, m)
    if _forbidden_entry(net._holders(), m, tol * scale):
        return Feasibility.INFEASIBLE
    # comp(m) / scale has spectral norm at most 1: compare with -tol.  Divide
    # the real view: a complex division rounds differently.
    comp = comparison_matrix(m)
    comp.real /= scale
    if min_eigenvalue(comp) >= -tol:
        return Feasibility.FEASIBLE
    return Feasibility.INFEASIBLE


def verify_decomposition(net: Network, m, d: Decomposition, tol: float) -> CheckResult:
    """Check that each term vanishes outside its source's block, that the
    block is finite, Hermitian and PSD, and that the terms sum to m, all at
    ``tol`` times ||m||_F (1 for the zero matrix)."""
    _check_tol(tol)
    m = as_hermitian(m)
    bound = tol * _scale(net, m)
    n = net.n_parties
    reasons = []
    total = np.zeros((n, n))
    for name, term in d.terms.items():
        try:
            a = net.source_index(name)
        except ValueError:
            reasons.append(f"unknown source '{name}'")
            continue
        term = _array(term)
        if term.shape != (n, n):
            reasons.append(f"term '{name}' has wrong shape")
            continue
        block = np.ix_(net.sources[a], net.sources[a])
        outside = np.abs(term)
        outside[block] = 0
        if not (outside <= bound).all():
            reasons.append(f"term '{name}' has entries outside its block")
        if fault := _block_fault(term[block], bound):
            reasons.append(f"term '{name}' {fault}")
        total = total + term
    if not frobenius_norm(m - total) <= bound:
        reasons.append("residual")
    return CheckResult(not reasons, tuple(reasons))


def _block_faults(net: Network, w: np.ndarray, bound: float) -> list[str]:
    """Why each failing source block of ``w`` fails at ``bound``."""
    faults = [_block_fault(w[np.ix_(ix, ix)], bound) for ix in net.blocks()]
    return [f"block '{a}' {fault}" for a, fault in zip(net.source_names, faults) if fault]


def is_in_dual_cone(net: Network, w, tol: float) -> bool:
    """True iff every entry of ``w`` is finite and every source block is
    Hermitian and PSD at ``tol`` times ||w||_F (1 for the zero matrix)."""
    _check_tol(tol)
    w = _array(w)
    bound = tol * _scale(net, w)
    return bool(np.isfinite(w).all()) and not _block_faults(net, w, bound)


def verify_witness(net: Network, m, w: DualWitness, tol: float) -> CheckResult:
    """Check that every source block of ``w`` is finite, Hermitian and PSD at
    ``tol`` times ||w||_F, and that w scored at unit norm is negative
    enough: Re tr((w / ||w||_F)^H m) < -tol * (b + 1) / 2 * max(||m||_F,
    sum_i |m_ii|), b the largest source's party count, each norm 1 for a
    zero matrix.  Blocks admitted down to -tol let a feasible m score down
    to -tol * tr m, and reading their eigenvalues from one triangle costs
    up to (b - 1) / 2 of that again.  No product of norms is formed:
    scaling m or w by a power of 2 changes neither test while their entries
    stay normal floats.  The stated ``inner_product`` must be negative too
    (see ``DualWitness``)."""
    _check_tol(tol)
    m = as_hermitian(m)
    scale = max(_scale(net, m), sum(map(abs, m.diagonal().tolist())))
    wm = _array(w.w)
    if wm.shape != m.shape:
        return CheckResult(False, ("dimension mismatch",))
    w_scale = _scale(net, wm)
    reasons = _block_faults(net, wm, tol * w_scale)
    b = max(map(len, net.sources), default=1)
    if not np.vdot(_divide(wm, w_scale), m).real < -tol * (b + 1) / 2 * scale:
        reasons.append("inner product is not negative enough")
    if not w.inner_product < 0:
        reasons.append("stated inner product is not negative")
    return CheckResult(not reasons, tuple(reasons))


def _scale(net: Network, m: np.ndarray) -> float:
    """||m||_F (1 for the zero matrix), the scale of every tolerance on m.
    Raises ``ValueError`` unless m is n x n for the network's n parties."""
    if m.shape != (net.n_parties, net.n_parties):
        raise ValueError("matrix size does not match the network")
    return frobenius_norm(m) or 1.0


def _forbidden_entry(holders: dict, m: np.ndarray, bound: float) -> tuple[int, int] | None:
    """The pair that no source holds (``Network._holders``) whose |m_ij|
    is largest, if that value is above ``bound``: no decomposition can
    carry it."""
    pair = max(_unheld(len(m), holders), key=lambda p: abs(m[p]), default=None)
    return pair if pair and abs(m[pair]) > bound else None


# Barrier constants: the Newton step budget, the decrement^2 below which a
# point counts as centred, the factor on s between centred points, and the
# Armijo fraction of the backtracking line search.
MAX_NEWTON_STEPS = 20_000
_CENTRED = 1e-3
_S_FACTOR = 8.0
_ARMIJO = 0.25


def _verified(net: Network, m: np.ndarray, tol: float, splits: _Splits | None = None,
              stack=None, w=None, sweeps: int = 0, message: str = "") -> DecomposeResult | None:
    """The result that one candidate gives if ``verify_*`` accepts it, else None.

    Without ``w`` the candidate is the split ``stack`` of m / ||m||_F (1 for
    the zero matrix), whose blocks ``splits`` embeds as terms and scales back.
    With ``w`` it is the witness w / ||w||_F.  A FEASIBLE result reports the
    residual of its decomposition and an INFEASIBLE one ||m||_F."""
    norm = _scale(net, m)
    if w is not None:
        w = _divide(w, frobenius_norm(w))
        wit = DualWitness(w, float(np.vdot(w, m).real))
        if not verify_witness(net, m, wit, tol):
            return None
        return DecomposeResult(Feasibility.INFEASIBLE, None, wit, sweeps, norm, message)
    terms = dict(zip(net.source_names, splits.embed(norm * stack)))
    dec = Decomposition(terms, m, frobenius_norm(m - sum(terms.values())))
    if not verify_decomposition(net, m, dec, tol):
        return None
    return DecomposeResult(Feasibility.FEASIBLE, dec, None, sweeps, dec.residual_norm, message)


def decompose(net: Network, m, tol: float = TOL) -> DecomposeResult:
    """Decide feasibility over splits of the shared entries, at ``tol``
    relative to ||m||_F (1 for the zero matrix).

    In order: a large entry on a pair with no common source gives a witness
    at once; the equal split, when the smallest eigenvalue of its blocks is
    at least -``tol``, gives a decomposition when its terms verify; the
    comparison split, or on an all-bipartite network the comparison witness,
    decides when it verifies; otherwise the barrier method runs until lambda
    reaches -``tol`` (a verified decomposition) or the dual point of a
    centred point whose bound is negative gives a verified witness.  It
    returns undecided when the duality gap closes first or
    ``MAX_NEWTON_STEPS`` Newton steps run out, never a wrong verdict.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    m = as_hermitian(m)
    norm = _scale(net, m)
    # The splits hold M / ||M||_F, where tol is absolute; terms scale back.
    mh = _divide(m, norm)
    splits = _Splits(net, mh)

    # One large entry on a pair with no common source certifies infeasibility:
    # a witness with phase-matched mass there alone has all-zero source blocks.
    if pair := _forbidden_entry(splits.holders, m, tol * norm):
        w = np.zeros_like(m)
        w[pair] = -m[pair]
        if found := _verified(net, m, tol, w=w + _h(w), message=f"forbidden entry at {pair}"):
            return found

    lam = np.linalg.eigvalsh(splits.base).min(initial=np.inf)  # inf: no source at all
    if lam >= -tol and (found := _verified(
            net, m, tol, splits, splits.base, message="equal split")):
        return found

    if found := _comparison(splits, mh, tol):
        feasible, x = found
        found = (_verified(net, m, tol, splits, x, message="comparison split") if feasible
                 else _verified(net, m, tol, w=x, message="comparison witness"))
        if found:
            return found

    z = np.zeros(splits.size)
    z[-1] = lam - 1.0
    logdet, factors = splits.log_det(z)
    barrier_grad, hess = splits.derivatives(factors)
    s = barrier_grad[-1]  # tr S^-1: the lambda entry of the gradient starts at 0
    steps = 0
    while True:
        grad = barrier_grad.copy()
        grad[-1] -= s
        scale = np.sqrt(hess.diagonal())
        step = -np.linalg.solve(hess / np.outer(scale, scale), grad / scale) / scale
        decrement = -float(grad @ step)
        if decrement <= _CENTRED:
            gap = splits.owners.trace() / s  # sum_a |a| / s
            if z[-1] + gap < 0:
                # The dual point Z = F^H (I - F dS F^H) F from the factors F
                # of the centred point (P - P dS P would lose the interior
                # margin to rounding); the normalisation absorbs Z + Z^H's 2.
                fh = _h(factors)
                dual = fh @ (np.eye(fh.shape[-1]) - factors @ splits.moved(step) @ fh) @ factors
                if found := _verified(net, m, tol, w=_assemble(splits, dual + _h(dual)),
                                      sweeps=steps):
                    return found
            if gap < 1e-3 * tol:
                message = "duality gap closed"
                break
            s *= _S_FACTOR
            continue
        if steps >= MAX_NEWTON_STEPS:
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
        if z[-1] >= -tol and (found := _verified(
                net, m, tol, splits, splits.blocks(np.append(z[:-1], 0.0)), sweeps=steps)):
            return found
    # The PSD parts of the last split's terms, scaled back to m.
    clipped = norm * np.array([psd_project(x) for x in splits.blocks(np.append(z[:-1], 0.0))])
    residual = frobenius_norm(m - sum(splits.embed(clipped)))
    return DecomposeResult(Feasibility.UNDECIDED, None, None, steps, residual, message)
