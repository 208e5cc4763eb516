"""Non-fanout inflations and the compressions that extract Schur products.

An inflation of order d makes d copies of every source and party and wires
copy k of a source to copy pi_i(k)^-1 of each adjacent party i, where pi_i
is a per-(party, source) permutation.  Copies reuse the original signal
distributions, response functions and output functions, so the inflated
covariance matrix is determined by the base covariance through two rules:
copies sharing a source copy inherit the base covariance, copies without a
common source are uncorrelated.

Every extraction is one compression by one vector per party, entry (i, j)
being psi_i^H B_ij psi_j: the Schur product of the base covariance with the
twisted Gram matrix of the vectors and the inflation's permutations.  Sign
and root-of-unity matrices are the case of a shift inflation compressed by
a conjugated DFT row: ``sign_inflation`` is the order-2 ``shift_inflation``
and ``hadamard_extract`` the order-2 ``fourier_extract``.  Both read the
order from the inflated covariance, n*d rows for n base parties, and
``inflate_models`` reads the base network from the inflation it is given.
"""

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import embezzle
from .linalg import TOL, _array, _integer, as_hermitian
from .network import Network, _each, _ndcs
from .solver import _forbidden_entry, _scale

if TYPE_CHECKING:
    from .simulate import OutputFunctions, ResponseModel, SourceModel


class InflationSpec(NamedTuple):
    """Inflation order and the wiring permutation for every adjacent
    (party, source) pair, as 0-based image arrays of length ``order``."""

    order: int
    perms: dict[tuple[str, str], np.ndarray]


class InflatedNetwork(NamedTuple):
    base: Network
    spec: InflationSpec
    # The inflated graph, n*d parties and m*d sources: copy k of base party
    # i (source a) has index i*d + k (a*d + k).
    network: Network


def _copy_name(name: str, k: int) -> str:
    return f"{name}^({k + 1})"


def _wiring(net: Network, order, perms: dict) -> tuple[int, list[list[np.ndarray]]]:
    """The one reader of a spec: the checked order d and every (party,
    source) permutation, indexed ``[a][p]`` for party p of source a and
    checked in source order."""
    d = _integer("inflation order", order, 1)
    pairs = [(net.party_names[i], s) for s, adj in zip(net.source_names, net.sources) for i in adj]
    images = iter(_each(pairs, perms, "spec permutation"))
    return d, [[embezzle.as_permutation(next(images), d) for _ in adj] for adj in net.sources]


def _ndcs_holders(net: Network, what: str) -> dict:
    """``net._holders()`` once the network is NDCS: the one gate of the
    constructions that read one common source per party pair, ``what``
    naming the construction."""
    holders = net._holders()
    if not _ndcs(holders).is_ndcs:
        raise ValueError(f"{what} requires an NDCS network")
    return holders


def build_inflation(net: Network, spec: InflationSpec) -> InflatedNetwork:
    """Wire up the inflated network.

    Source copy (a, k) is adjacent to party copy (i, pi_i_a^-1(k)) for every
    base-adjacent pair; the result is itself a valid network.
    """
    d, wiring = _wiring(net, spec.order, spec.perms)
    party_names = tuple(
        _copy_name(nm, k) for nm in net.party_names for k in range(d)
    )
    source_names = []
    adjacency = []
    for sname, adj, perms in zip(net.source_names, net.sources, wiring):
        source_names += [_copy_name(sname, k) for k in range(d)]
        # Ascending, as adj is: the copies of party i are i*d .. i*d + d - 1.
        adjacency += zip(*[(i * d + embezzle.invert_permutation(p)).tolist()
                           for i, p in zip(adj, perms)])
    inflated = Network(party_names, tuple(source_names), tuple(adjacency))
    return InflatedNetwork(net, spec, inflated)


def sign_inflation(net: Network, eps: dict[str, int]) -> InflationSpec:
    """Order-2 spec realizing a +-1 sign per bipartite source: the shift
    inflation with shift (1 - eps) / 2, so +1 keeps both endpoint copies
    parallel and -1 swaps the copies at the higher-indexed endpoint."""
    if not net.all_bipartite():
        raise ValueError("sign inflation requires bipartite sources")
    shifts = {}
    for sname, e in zip(net.source_names, _each(net.source_names, eps, "sign value for source")):
        # A bool equals 1 or 0 but is no sign.
        if isinstance(e, (bool, np.bool_)) or e not in (1, -1):
            raise ValueError(f"sign for source '{sname}' must be +1 or -1")
        shifts[sname] = (1 - int(e)) // 2
    return shift_inflation(net, shifts, 2)


def shift_inflation(net: Network, shifts: dict[str, int], d: int) -> InflationSpec:
    """Order-d spec connecting copy k of each bipartite source to copy k of
    its lower-indexed party and copy k + t (mod d) of the other."""
    if not net.all_bipartite():
        raise ValueError("shift inflation requires bipartite sources")
    d = _integer("inflation order", d, 1)
    identity = np.arange(d, dtype=np.intp)
    perms = {}
    for sname, (i, j), t in zip(net.source_names, net.sources,
                                _each(net.source_names, shifts, "shift for source")):
        t = _integer(f"shift for source '{sname}'", t, 0, d)
        perms[(net.party_names[i], sname)] = identity
        # pi_j(x) = x - t mod d, so that pi_j^-1(k) = k + t mod d.
        perms[(net.party_names[j], sname)] = (identity - t) % d
    return InflationSpec(d, perms)


def inflated_covariance(
    net: Network, c, spec: InflationSpec, variances
) -> np.ndarray:
    """Assemble the (n*d) x (n*d) covariance matrix of the inflated network
    from the base covariance ``c``.

    Block rules (party-major layout, d x d blocks): the (i, i) block is
    Var_i * I; the (i, j) block is zero without a common source and
    c_ij * P_i^H P_j for the unique common source's permutations, whose
    (x, y) entry is c_ij where pi_i(x) == pi_j(y).  ``variances`` must match
    the diagonal and c_ij vanish on such pairs within ``linalg.TOL`` times
    ||c||_F (1 for c = 0).  The result is float64 for a real ``c``, else
    complex128, as ``as_hermitian(c)`` is.
    """
    holders = _ndcs_holders(net, "inflated covariance")
    c = as_hermitian(c)
    bound = TOL * _scale(net, c)
    n = net.n_parties
    variances = np.asarray(variances, dtype=np.float64)
    if variances.shape != (n,):
        raise ValueError(f"expected {n} variances")
    for i in range(n):
        if not abs(c[i, i] - variances[i]) <= bound:  # a NaN variance fails too
            raise ValueError(f"diagonal entry ({i}, {i}) does not match the supplied variance")
    if pair := _forbidden_entry(holders, c, bound):
        raise ValueError(f"entry {pair} must vanish: parties share no source")
    d, perms = _wiring(net, spec.order, spec.perms)
    out = np.zeros((n, d, n, d), dtype=c.dtype)
    for (i, j), ((a, p, q), *_) in holders.items():  # each through its first holder
        if i == j:
            out[i, :, i] = variances[i] * np.eye(d)
            continue
        block = c[i, j] * (perms[a][p][:, None] == perms[a][q])
        out[i, :, j] = block
        out[j, :, i] = block.conj().T
    return out.reshape(n * d, n * d)


def inflate_models(
    infl: InflatedNetwork,
    sources: "SourceModel",
    responses: "ResponseModel",
    functions: "OutputFunctions | None" = None,
):
    """Copy classical models of ``infl.base`` onto ``infl.network``.

    Every source copy reuses its base pmf and every party copy its base
    response table and output function; slot and conditioning orders carry
    over because copies keep the base index order.
    """
    # Imported here so that the inflation constructions, which never touch
    # a classical model, do not load the simulator.
    from .simulate import OutputFunctions, ResponseModel, SourceModel, _validate_models

    net = infl.base
    _validate_models(net, sources, responses)

    def copies(names, table: dict) -> dict:
        return {_copy_name(nm, k): table[nm] for nm in names for k in range(infl.spec.order)}

    if functions is not None:
        _each(net.party_names, functions.values, "output function for party")
        functions = OutputFunctions(copies(net.party_names, functions.values))
    return (SourceModel(copies(net.source_names, sources.pmfs)),
            ResponseModel(copies(net.party_names, responses.tables)), functions)


def hadamard_extract(infl_cov, n: int) -> np.ndarray:
    """Extract the Schur product with a +-1 sign matrix from an order-2
    inflated covariance: the order-2 Fourier extraction of component 1,
    i.e. the compression by the Hadamard row (1, -1) / sqrt(2), the row
    ``fourier_extract`` builds for it.  A matrix of any order other than 2
    is refused."""
    return compress_by_vectors(infl_cov,
                               [np.array([1.0, -1.0]) / np.sqrt(2)] * _integer("n", n, 1))


def fourier_extract(infl_cov, n: int, component: int) -> np.ndarray:
    """Extract the Schur product with the root-of-unity sign matrix
    eps(a) = w^(t_a * component) from an order-d shift-inflated covariance:
    the compression by the conjugate of row ``component`` of the unitary
    d-point DFT, the same vector for every party.  The order d is read from
    the matrix, whose size must be n * d."""
    n = _integer("n", n, 1)
    shape = np.shape(infl_cov)
    d, rest = divmod(shape[0] if shape else 0, n)
    if rest or not d:
        raise ValueError(f"expected an inflated covariance of size n*d with n = {n}, got {shape}")
    component = _integer("component", component, 0, d)
    if 2 * component % d:
        row = np.exp(2j * np.pi * component * np.arange(d) / d) / np.sqrt(d)
    else:  # component is 0 or d/2: every root is exactly +-1, and the row real
        row = (-1.0) ** (2 * component // d * np.arange(d)) / np.sqrt(d)
    return compress_by_vectors(infl_cov, [row] * n)


def compress_by_vectors(infl_cov, vectors) -> np.ndarray:
    """Compress an order-d inflated covariance to the Schur product with the
    twisted Gram matrix of ``vectors`` and the inflation's permutations,
    entry (i, j) being psi_i^H B_ij psi_j: float64 when the inflated
    covariance and every vector are real, else complex128."""
    vectors = [_array(v) for v in vectors]
    n = len(vectors)
    if n == 0:
        raise ValueError("need at least one vector")
    d = len(vectors[0])
    for k, v in enumerate(vectors):
        if len(v) != d:
            raise ValueError("vector dimension mismatch")
        if not np.isfinite(v).all():
            raise ValueError(f"vector {k} has a NaN or infinite entry")
    infl_cov = _array(infl_cov)
    if infl_cov.shape != (n * d, n * d):
        raise ValueError(
            f"expected a {n * d}x{n * d} inflated covariance, got {infl_cov.shape}"
        )
    psi = np.stack(vectors)
    out = np.einsum("ia,iajb,jb->ij", psi.conj(), infl_cov.reshape(n, d, n, d), psi)
    return as_hermitian(out, atol=np.inf)
