"""Perron certificates for networks whose sources are all bipartite.

Such an M is feasible iff C = comp(M) / ||M||_F over the source pairs is
PSD, and both certificates are read off Perron vectors of C (Horn &
Johnson, *Topics in Matrix Analysis*, 2.5), from one ``eigh`` per connected
part of the source pairs with |m_ij| > ``tol`` ||M||_F, so that an entry
too small for rounding to keep its Perron entry does not join two parts.
When a part's smallest eigenvalue is below -``tol``, its Perron vector
v >= 0 gives the witness W_ii = v_i^2, W_ij = -v_i v_j phase(m_ij) on
source pairs, whose blocks are rank one and whose inner product with M is
at most that eigenvalue.  Otherwise, with v > 0 in every part, source
(i, j) takes [[|m_ij| v_j/v_i, m_ij], [conj(m_ij), |m_ij| v_i/v_j]], which
is rank one, and each party's first source the rest of m_ii: its part's
smallest eigenvalue, less what the small entries between parts put there.

``solver.decompose`` imports this module only for an all-bipartite network
that the equal split misses, so that ``import covnet`` does not load it.
"""

import numpy as np

from .linalg import frobenius_norm
from .network import Network
from .solver import Decomposition, DualWitness, _decomposition

MESSAGE = "Perron vector of the comparison matrix"


def certificate(net: Network, m: np.ndarray, norm: float, tol: float):
    """The witness or the decomposition of m, whose Frobenius norm is
    ``norm``, on an all-bipartite network; None when a Perron entry is so
    small that a term is not finite.  The caller verifies it."""
    n = net.n_parties
    mh = m / norm
    c = np.diag(mh.diagonal())  # complex128, for the zheevd that the barrier uses too
    root = list(range(n))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for p, q in net.sources:
        c[p, q] = c[q, p] = -abs(mh[p, q])
        if abs(mh[p, q]) > tol:
            root[find(p)] = find(q)
    parts = {}
    for k in range(n):
        parts.setdefault(find(k), []).append(k)
    v, lam, worst = np.zeros(n), np.inf, None
    for ix in parts.values():
        w, vecs = np.linalg.eigh(c[np.ix_(ix, ix)])
        v[ix] = np.abs(vecs[:, 0])
        if w[0] < lam:
            lam, worst = w[0], ix
    if lam < -tol:
        u = np.zeros(n)
        u[worst] = v[worst]
        w = np.zeros((n, n), dtype=np.complex128)
        np.fill_diagonal(w, u * u)
        for p, q in net.sources:
            x = mh[p, q]
            w[p, q] = -u[p] * u[q] * (x / abs(x) if x else 1.0)
            w[q, p] = np.conj(w[p, q])
        w /= frobenius_norm(w)
        return DualWitness(w, float(np.vdot(w, m).real))
    first, terms = {}, []
    with np.errstate(all="ignore"):  # a zero or tiny Perron entry: checked below
        for p, q in net.sources:
            t = np.zeros((n, n), dtype=np.complex128)
            x = mh[p, q]
            t[p, q], t[q, p] = x, np.conj(x)
            t[p, p], t[q, q] = abs(x) * v[q] / v[p], abs(x) * v[p] / v[q]
            first.setdefault(p, t)
            first.setdefault(q, t)
            terms.append(t)
        rest = mh.diagonal().real - sum(t.diagonal().real for t in terms)
        for k, t in first.items():
            t[k, k] += rest[k]
        dec = _decomposition(net, m, terms, norm)
    # A non-finite entry, even one that cancels, leaves a NaN or inf residual.
    return dec if np.isfinite(dec.residual_norm) else None
