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
and ``hadamard_extract`` the order-2 ``fourier_extract``.
"""

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import embezzle
from .linalg import _json_numbers, as_hermitian
from .network import Network

if TYPE_CHECKING:
    from .simulate import OutputFunctions, ResponseModel, SourceModel

OFFBLOCK_ATOL = 1e-9


class InflationSpec(NamedTuple):
    """Inflation order and the wiring permutation for every adjacent
    (party, source) pair, as 0-based image arrays of length ``order``."""

    order: int
    perms: dict[tuple[str, str], np.ndarray]


def inflation_spec_from_json(obj: dict) -> InflationSpec:
    # type() rather than isinstance(): a JSON true is a bool, which is an int.
    if not (isinstance(obj, dict) and type(obj.get("d")) is int
            and isinstance(obj.get("perms", {}), dict)):
        raise ValueError("spec JSON must contain an integer 'd' and a 'perms' object")
    d = obj["d"]
    perms = {}
    for key, images in obj.get("perms", {}).items():
        party, sep, source = key.partition("|")
        if not sep:
            raise ValueError(f"spec key '{key}' must have the form 'party|source'")
        images = _json_numbers(images, f"spec permutation '{key}'", int)
        perms[(party, source)] = embezzle.as_permutation(images, d)
    return InflationSpec(d, perms)


class InflatedNetwork(NamedTuple):
    base: Network
    spec: InflationSpec
    # The inflated graph, n*d parties and m*d sources: copy k of base party
    # i (source a) has index i*d + k (a*d + k).
    network: Network


def _copy_name(name: str, k: int) -> str:
    return f"{name}^({k + 1})"


def _spec_perm(net: Network, spec: InflationSpec, party_idx: int, source_idx: int):
    key = (net.party_names[party_idx], net.source_names[source_idx])
    if key not in spec.perms:
        raise ValueError(
            f"incomplete spec: missing permutation for party '{key[0]}' "
            f"and source '{key[1]}'"
        )
    return embezzle.as_permutation(spec.perms[key], spec.order)


def build_inflation(net: Network, spec: InflationSpec) -> InflatedNetwork:
    """Wire up the inflated network.

    Source copy (a, k) is adjacent to party copy (i, pi_i_a^-1(k)) for every
    base-adjacent pair; the result is itself a valid network.
    """
    d = spec.order
    if d < 1:
        raise ValueError("inflation order must be >= 1")
    party_names = tuple(
        _copy_name(nm, k) for nm in net.party_names for k in range(d)
    )
    source_names = []
    adjacency = []
    for a, (sname, adj) in enumerate(zip(net.source_names, net.sources)):
        invs = {i: embezzle.invert_permutation(_spec_perm(net, spec, i, a)) for i in adj}
        for k in range(d):
            source_names.append(_copy_name(sname, k))
            adjacency.append(tuple(sorted(i * d + int(invs[i][k]) for i in adj)))
    inflated = Network(party_names, tuple(source_names), tuple(adjacency))
    return InflatedNetwork(net, spec, inflated)


def sign_inflation(net: Network, eps: dict[str, int]) -> InflationSpec:
    """Order-2 spec realizing a +-1 sign per bipartite source: the shift
    inflation with shift (1 - eps) / 2, so +1 keeps both endpoint copies
    parallel and -1 swaps the copies at the higher-indexed endpoint."""
    if not net.all_bipartite():
        raise ValueError("sign inflation requires bipartite sources")
    shifts = {}
    for sname in net.source_names:
        if sname not in eps:
            raise ValueError(f"no sign value for source '{sname}'")
        e = int(eps[sname])
        if e not in (1, -1):
            raise ValueError(f"sign for source '{sname}' must be +1 or -1")
        shifts[sname] = (1 - e) // 2
    return shift_inflation(net, shifts, 2)


def shift_inflation(net: Network, shifts: dict[str, int], d: int) -> InflationSpec:
    """Order-d spec connecting copy k of each bipartite source to copy k of
    its lower-indexed party and copy k + t (mod d) of the other."""
    if not net.all_bipartite():
        raise ValueError("shift inflation requires bipartite sources")
    if d < 1:
        raise ValueError("inflation order must be >= 1")
    identity = np.arange(d, dtype=np.intp)
    perms = {}
    for sname, (i, j) in zip(net.source_names, net.sources):
        if sname not in shifts:
            raise ValueError(f"no shift for source '{sname}'")
        t = int(shifts[sname])
        if t < 0 or t >= d:
            raise ValueError(f"shift for source '{sname}' must lie in [0, {d})")
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
    (x, y) entry is c_ij where pi_i(x) == pi_j(y).
    """
    if not net.is_ndcs().is_ndcs:
        raise ValueError("inflated covariance requires an NDCS network")
    c = as_hermitian(c)
    n = net.n_parties
    if c.shape[0] != n:
        raise ValueError("covariance size does not match the network")
    variances = np.asarray(variances, dtype=np.float64)
    if variances.shape != (n,):
        raise ValueError(f"expected {n} variances")
    for i in range(n):
        if abs(c[i, i] - variances[i]) > OFFBLOCK_ATOL:
            raise ValueError(
                f"diagonal entry ({i}, {i}) does not match the supplied variance"
            )
    for i, j in net.no_common_source_pairs():
        if abs(c[i, j]) > OFFBLOCK_ATOL:
            raise ValueError(
                f"entry ({i}, {j}) must vanish: parties share no source"
            )
    d = spec.order
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for i in range(n):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = variances[i] * np.eye(d)
    for a, (sname, adj) in enumerate(zip(net.source_names, net.sources)):
        perms = {i: _spec_perm(net, spec, i, a) for i in adj}
        for xi in range(len(adj)):
            for xj in range(xi + 1, len(adj)):
                i, j = adj[xi], adj[xj]
                block = c[i, j] * (perms[i][:, None] == perms[j][None, :])
                out[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
                out[j * d : (j + 1) * d, i * d : (i + 1) * d] = block.conj().T
    return out


def inflate_models(
    net: Network,
    infl: InflatedNetwork,
    sources: "SourceModel",
    responses: "ResponseModel",
    functions: "OutputFunctions | None" = None,
):
    """Copy classical models onto an inflated network.

    Every source copy reuses its base pmf and every party copy its base
    response table and output function; slot and conditioning orders carry
    over because copies keep the base index order.
    """
    # Imported here so that the inflation constructions, which never touch
    # a classical model, do not load the simulator.
    from .simulate import OutputFunctions, ResponseModel, SourceModel

    d = infl.spec.order
    pmfs = {}
    for sname in net.source_names:
        for k in range(d):
            pmfs[_copy_name(sname, k)] = sources.pmfs[sname]
    tables = {}
    for pname in net.party_names:
        for k in range(d):
            tables[_copy_name(pname, k)] = responses.tables[pname]
    fns = None
    if functions is not None:
        values = {}
        for pname in net.party_names:
            for k in range(d):
                values[_copy_name(pname, k)] = functions.values[pname]
        fns = OutputFunctions(values)
    return SourceModel(pmfs), ResponseModel(tables), fns


def hadamard_extract(infl_cov, n: int) -> np.ndarray:
    """Extract the Schur product with a +-1 sign matrix from an order-2
    inflated covariance: the order-2 Fourier extraction of component 1,
    i.e. the compression by the Hadamard row (1, -1) / sqrt(2)."""
    if np.shape(infl_cov) != (2 * n, 2 * n):
        raise ValueError(
            f"odd dimension: expected a {2 * n}x{2 * n} matrix, got {np.shape(infl_cov)}"
        )
    return fourier_extract(infl_cov, n, 2, 1)


def fourier_extract(infl_cov, n: int, d: int, component: int) -> np.ndarray:
    """Extract the Schur product with the root-of-unity sign matrix
    eps(a) = w^(t_a * component) from an order-d shift-inflated covariance:
    the compression by the conjugate of row ``component`` of the unitary
    d-point DFT, the same vector for every party."""
    if np.shape(infl_cov) != (n * d, n * d):
        raise ValueError(
            f"dimension not divisible by d: expected {n * d}x{n * d}, "
            f"got {np.shape(infl_cov)}"
        )
    if component < 0 or component >= d:
        raise ValueError(f"component must lie in [0, {d})")
    row = np.exp(2j * np.pi * component * np.arange(d) / d) / np.sqrt(d)
    return compress_by_vectors(infl_cov, [row] * n)


def compress_by_vectors(infl_cov, vectors) -> np.ndarray:
    """Compress an order-d inflated covariance to the Schur product with the
    twisted Gram matrix of ``vectors`` and the inflation's permutations,
    entry (i, j) being psi_i^H B_ij psi_j."""
    vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
    n = len(vectors)
    if n == 0:
        raise ValueError("need at least one vector")
    d = len(vectors[0])
    if any(len(v) != d for v in vectors):
        raise ValueError("vector dimension mismatch")
    infl_cov = np.asarray(infl_cov, dtype=np.complex128)
    if infl_cov.shape != (n * d, n * d):
        raise ValueError(
            f"expected a {n * d}x{n * d} inflated covariance, got {infl_cov.shape}"
        )
    psi = np.stack(vectors)
    out = np.einsum("ia,iajb,jb->ij", psi.conj(), infl_cov.reshape(n, d, n, d), psi)
    return as_hermitian(out, atol=np.inf)
