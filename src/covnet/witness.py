"""Dual-cone objects: sign matrices, twisted Gram matrices, and the
approximation of arbitrary dual elements by twisted Gram matrices.

The dual cone of the decomposable matrices consists of all matrices whose
source blocks (principal submatrices on the parties adjacent to one source)
are positive semidefinite.  Twisted Gram matrices

    W_ii = <psi_i | psi_i>,   W_ij = <psi_i | P_i(a)^H P_j(a) | psi_j>

(for the unique common source a of parties i and j) always lie in that cone,
and conversely any dual element can be approximated by one, using the
embezzlement construction to realize all block Gram vectors as permuted
copies of a single shared vector.

That approximation is contracted in closed form: each entry costs
O(d_g * R) (d_g the largest block size, R the embezzlement dimension), and
it returns a compact ``EmbezzledGramSpec`` of scales and Gram vectors.  The
explicit vectors and permutations, of length T * d_g * R each, are built
only on request by ``EmbezzledGramSpec.materialize()``, and
``build_twisted_gram`` on them gives the same matrix.

Entries on party pairs without a common source are fixed to zero, so Schur
products against these matrices ignore such entries even for invalid
covariance inputs.
"""

from typing import NamedTuple

import numpy as np

from . import embezzle
from .inflate import _ndcs_holders, _wiring
from .linalg import TOL, _integer, _psd_factor, as_hermitian
from .network import Network, _each
from .solver import is_in_dual_cone

SIGN_ATOL = 1e-12


class TwistedGramSpec(NamedTuple):
    """Shared vectors and per-(party, source) permutations.

    ``vectors`` maps party name to a vector in C^dimension; ``perms`` maps
    (party name, source name) to a 0-based permutation image array of length
    ``dimension`` for every adjacent pair.
    """

    dimension: int
    vectors: dict[str, np.ndarray]
    perms: dict[tuple[str, str], np.ndarray]


def build_sign_matrix(net: Network, eps: dict[str, complex]) -> np.ndarray:
    """Matrix with unit diagonal and the per-source unit-modulus value on
    each source pair (conjugated below the diagonal); zero elsewhere.

    Requires every source to be bipartite.
    """
    if not net.all_bipartite():
        raise ValueError("sign matrix undefined: network has a non-bipartite source")
    gamma = np.eye(net.n_parties, dtype=np.complex128)
    for name, (i, j), e in zip(net.source_names, net.sources,
                               _each(net.source_names, eps, "sign value for source")):
        # A bool equals 0 or 1 but is no sign; a NaN fails the modulus test.
        if isinstance(e, (bool, np.bool_)) or not abs(abs(complex(e)) - 1.0) <= SIGN_ATOL:
            raise ValueError(f"sign value for source '{name}' must be a number of modulus 1, "
                             f"got {e!r}")
        gamma[i, j] = e
        gamma[j, i] = np.conj(gamma[i, j])
    return gamma


def build_twisted_gram(net: Network, spec: TwistedGramSpec) -> np.ndarray:
    """Blockwise Gram matrix of the permuted vectors.

    Diagonal entries are the squared vector norms; the (i, j) entry for a
    common-source pair applies each party's permutation for that source
    before taking the inner product.  Requires an NDCS network.
    """
    holders = _ndcs_holders(net, "twisted Gram matrix")
    d = _integer("dimension", spec.dimension, 1)
    psi = [np.asarray(v, dtype=np.complex128)
           for v in _each(net.party_names, spec.vectors, "vector for party")]
    for name, v in zip(net.party_names, psi):
        if len(v) != d:
            raise ValueError(f"vector for party '{name}' is not of dimension {d}")
        if not np.isfinite(v).all():
            raise ValueError(f"vector for party '{name}' has a NaN or infinite entry")
    _, perms = _wiring(net, d, spec.perms)
    n = net.n_parties
    w = np.zeros((n, n), dtype=np.complex128)
    # Each held entry once, through its first holder.  At most the two
    # permuted vectors of one entry (up to 2^26 entries each) are alive.
    for (i, j), ((a, p, q), *_) in holders.items():
        if i == j:
            w[i, i] = np.vdot(psi[i], psi[i]).real
        else:
            w[i, j] = np.vdot(embezzle.apply_permutation(perms[a][p], psi[i]),
                              embezzle.apply_permutation(perms[a][q], psi[j]))
            w[j, i] = np.conj(w[i, j])
    return w


class EmbezzledGramSpec(NamedTuple):
    """Compact form of the twisted Gram spec built by
    ``approximate_dual_by_twisted_gram``.

    Every party's vector is ``scales[party]`` times the shared template
    theta_T (x) e_0 (x) mu_R in dimension T * d_g * R; ``phis`` maps
    (party name, source name) to the unit Gram vector, padded to length d_g,
    whose embezzlement permutation the party applies for that source.  A
    zero Gram vector is stored as e_0, whose embezzlement permutation is the
    identity.
    """

    T: int
    R: int
    d_g: int
    scales: dict[str, float]
    phis: dict[tuple[str, str], np.ndarray]

    @property
    def dimension(self) -> int:
        return self.T * self.d_g * self.R

    def materialize(self) -> TwistedGramSpec:
        """The explicit spec: scaled template vectors and the inverse
        embezzlement permutations, each of length T * d_g * R."""
        template = np.zeros((self.T, self.d_g, self.R), dtype=np.complex128)
        template[:, 0, :] = np.outer(
            embezzle.theta_state(self.T), embezzle.mu_state(self.R)
        )
        template = template.reshape(-1)
        vectors = {nm: scale * template for nm, scale in self.scales.items()}
        perms = {
            key: embezzle.invert_permutation(
                embezzle.embezzle_permutation(phi, self.T, self.R)
            )
            for key, phi in self.phis.items()
        }
        return TwistedGramSpec(self.dimension, vectors, perms)


def approximate_dual_by_twisted_gram(net: Network, w, T: int, R: int):
    """Approximate a dual-cone element by an explicit twisted Gram matrix.

    Per source, the block of ``w`` is factored into Gram vectors; every party
    keeps the single shared vector sqrt(w_ii) * theta_T (x) e_0 (x) mu_R (in
    the common dimension T * d_g * R, d_g the largest block size), and each
    (party, source) permutation is the inverse of the embezzlement
    permutation for that block's normalized Gram vector.

    The vectors and permutations are never built: with c_i the
    ``embezzle.template_pullback`` of party i's Gram vector, the entry is
    sqrt(w_ii w_jj) <c_i | c_j>, at O(d_g * R) per entry.  The returned
    ``EmbezzledGramSpec`` stores only the scales and Gram vectors; its
    ``materialize()`` builds the explicit ``TwistedGramSpec``, which
    ``build_twisted_gram`` maps to the same matrix.

    ``w`` must pass ``is_in_dual_cone`` at ``linalg.TOL``.  Returns
    (EmbezzledGramSpec, approximate matrix, max entry error over
    common-source pairs).  Diagonal entries are reproduced exactly.
    """
    w = as_hermitian(w)
    T, R = _integer("T", T, 2), _integer("R", R, 2)
    if not is_in_dual_cone(net, w, TOL):
        raise ValueError("not a dual element: some source block is not PSD")
    _ndcs_holders(net, "twisted Gram approximation")

    d_g = max(len(adj) for adj in net.sources)
    embezzle._check_entries("T*d_g*R", T * d_g * R)

    scale = np.sqrt(np.clip(w.diagonal().real, 0.0, None))
    approx = np.diag(scale * scale).astype(np.complex128)

    phis: dict[tuple[str, str], np.ndarray] = {}
    max_block_error = 0.0
    for sname, adj in zip(net.source_names, net.sources):
        pulled = []
        # Row i of conj(F), F F^H the PSD-clipped block, is party i's Gram
        # vector: <phi_i | phi_j> is the block's (i, j) entry.
        for i, phi_block in zip(adj, _psd_factor(w[np.ix_(adj, adj)]).conj()):
            phi = np.zeros(d_g, dtype=np.complex128)
            phi[: len(phi_block)] = phi_block
            nrm = np.linalg.norm(phi)
            # Entry (i, j) is sqrt(w_ii w_jj) <c_i|c_j>: a direction matters
            # in proportion to sqrt(w_ii), so a cut above 0 would depend on
            # the scale of w.  Only a zero vector takes e_0.
            phi = phi / nrm if nrm > 0 else np.eye(d_g, dtype=np.complex128)[0]
            phis[(net.party_names[i], sname)] = phi
            pulled.append(embezzle.template_pullback(phi, T, R))
        for xi, i in enumerate(adj):
            for xj in range(xi + 1, len(adj)):
                j = adj[xj]
                approx[i, j] = scale[i] * scale[j] * np.vdot(pulled[xi], pulled[xj])
                approx[j, i] = np.conj(approx[i, j])
                max_block_error = max(max_block_error, abs(approx[i, j] - w[i, j]))

    spec = EmbezzledGramSpec(T, R, d_g, dict(zip(net.party_names, scale.tolist())), phis)
    return spec, approx, float(max_block_error)
