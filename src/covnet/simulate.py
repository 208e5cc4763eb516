"""Exact classical network simulation over finite alphabets.

Each source holds a joint pmf over the signal slots it sends to its adjacent
parties (one slot per party, ordered by ascending party index).  Each party
holds a conditional pmf over its output alphabet given the received signals
(conditioning axes ordered by ascending source index).  The joint output
distribution is the exact sum over all signal tuples, evaluated as a
pairwise greedy contraction of the pmfs and tables with ``np.tensordot``.
"""

import math
from typing import NamedTuple

import numpy as np

from .linalg import _array, _check_tol, _vector, as_hermitian
from .network import Network, _each

PMF_ATOL = 1e-12
MASS_ATOL = 1e-9
NEG_ATOL = 1e-15
TABLE_CAP = 10_000_000  # most entries of a joint output table


def _real(t, what: str) -> np.ndarray:
    """``t`` as a float64 array once ``linalg._array`` reads it as real: a
    complex table is refused, not cast to its real part."""
    t = _array(t, what)
    if t.dtype.kind == "c":
        raise ValueError(f"{what} must be real")
    return t


def _pmfs(tables: dict, what: str, mass: str, axis: int | None) -> dict:
    """Each of ``tables`` as a float64 array, once its entries are finite
    and nonnegative and its sums over ``axis`` (every axis for None) are 1
    within ``PMF_ATOL``.  ``what`` names a table and ``mass`` is the message
    for sums that are not 1, each with {} for the table's key."""
    checked = {}
    for name, t in tables.items():
        t = _real(t, what.format(name))
        if axis is not None and t.ndim < 1:
            raise ValueError(f"{what.format(name)} has no output axis")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"{what.format(name)} has non-finite entries")
        if np.any(t < 0):
            raise ValueError(f"{what.format(name)} has negative entries")
        if np.any(np.abs(t.sum(axis=axis) - 1.0) > PMF_ATOL):
            raise ValueError(mass.format(name))
        checked[name] = t
    return checked


class _SourceModelFields(NamedTuple):
    pmfs: dict[str, np.ndarray]


class SourceModel(_SourceModelFields):
    """Signal pmfs keyed by source name.

    ``pmfs[name]`` has one axis per adjacent party (ascending party index);
    the axis length is that slot's alphabet size.  Each pmf is finite,
    nonnegative and sums to one within ``PMF_ATOL``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, pmfs):
        return super().__new__(cls, _pmfs(pmfs, "source '{}' pmf",
                                          "source '{}' pmf does not sum to 1", None))


class _ResponseModelFields(NamedTuple):
    tables: dict[str, np.ndarray]


class ResponseModel(_ResponseModelFields):
    """Conditional output pmfs keyed by party name.

    ``tables[name]`` has one axis per adjacent source (ascending source
    index) and a final output axis.  Entries are finite and nonnegative, and
    every conditional slice along the output axis sums to one within
    ``PMF_ATOL``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, tables):
        return super().__new__(cls, _pmfs(tables, "party '{}' response table",
                                          "party '{}' conditional pmfs do not sum to 1", -1))

    def alphabet(self, name: str) -> int:
        return int(self.tables[name].shape[-1])


class _OutputFunctionsFields(NamedTuple):
    values: dict[str, np.ndarray]


class OutputFunctions(_OutputFunctionsFields):
    """One value per output letter, keyed by party name: each a vector that
    passes ``linalg._vector``, complex128 for a complex function, else
    float64 (an array of that dtype is not copied)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, values):
        return super().__new__(cls, {name: _vector(f"function for party '{name}'", v)
                                     for name, v in values.items()})


class JointDistribution:
    """Dense probability table over the product of per-party alphabets.

    Axes follow ``parties`` order.  Entries in [-1e-15, 0) are clipped to
    zero in a new array; anything more negative or NaN is rejected, and the
    total mass must be within 1e-9 of one.  A float64 table with nothing to
    clip is kept as given, so ``table`` may share the caller's array.
    """

    def __init__(self, parties, table):
        self.parties = tuple(parties)
        table = _real(table, f"probability table of parties {self.parties}")
        if table.ndim != len(self.parties):
            raise ValueError("one table axis per party required")
        # Both checks are phrased so that a NaN or infinite entry fails them
        # without a second pass over the table.
        low = table.min() if table.size else 0.0
        if not low >= -NEG_ATOL:
            raise ValueError(f"probability table of parties {self.parties} has entry "
                             f"{low:.3e}, not >= -{NEG_ATOL:.0e}")
        if low < 0:
            table = np.maximum(table, 0.0)
        mass = table.sum()
        if not abs(mass - 1.0) <= MASS_ATOL:
            raise ValueError(f"probability table of parties {self.parties} has mass "
                             f"{mass!r}, not 1 within {MASS_ATOL:.0e}")
        self.table = table

    @property
    def alphabets(self) -> tuple[int, ...]:
        return self.table.shape

    def axis_of(self, party: str) -> int:
        try:
            return self.parties.index(party)
        except ValueError:
            raise ValueError(f"party '{party}' not in this distribution") from None


def _validate_models(net: Network, sources: SourceModel, responses: ResponseModel) -> dict:
    """Raise ``ValueError`` unless the models fit the network; returns the
    network's held entries, where (i, i) lists party i's sources and slots."""
    holders = net._holders()
    pmfs = _each(net.source_names, sources.pmfs, "source model for")
    for name, adj, p in zip(net.source_names, net.sources, pmfs):
        if p.ndim != len(adj):
            raise ValueError(
                f"source '{name}' pmf has {p.ndim} slots, network expects {len(adj)}"
            )
    tables = _each(net.party_names, responses.tables, "response model for party")
    for i, (pname, t) in enumerate(zip(net.party_names, tables)):
        held = holders[i, i]
        if t.ndim != len(held) + 1:
            raise ValueError(
                f"party '{pname}' response table has {t.ndim - 1} signal axes, "
                f"network expects {len(held)}"
            )
        for axis, (a, slot, _) in enumerate(held):
            expected = pmfs[a].shape[slot]
            if t.shape[axis] != expected:
                raise ValueError(
                    f"party '{pname}' response axis {axis} has size {t.shape[axis]}, "
                    f"source '{net.source_names[a]}' sends alphabet {expected}"
                )
    return holders


def build_joint_distribution(
    net: Network, sources: SourceModel, responses: ResponseModel
) -> JointDistribution:
    """Exact joint output distribution of the network.

    p(a_1..a_n) = sum over signal tuples of the product of source pmfs times
    the product of per-party conditional pmfs.  The sum is exact: the pmfs
    and tables are merged pairwise, smallest result first, and each signal
    is summed out as soon as its source and its party meet (``_contract``).
    """
    holders = _validate_models(net, sources, responses)
    out_size = 1
    for pname in net.party_names:
        out_size *= responses.alphabet(pname)
    if out_size > TABLE_CAP:
        raise ValueError(
            f"too large: output table would hold {out_size} entries (cap {TABLE_CAP})"
        )

    # A signal slot is labelled (source, party) and lives in exactly two
    # factors, its source's pmf and its party's table; a party's output is
    # labelled by the party index and lives in that party's table alone.
    factors = [
        (sources.pmfs[name], [(a, i) for i in adj])
        for a, (name, adj) in enumerate(zip(net.source_names, net.sources))
    ]
    factors += [
        (responses.tables[pname], [(a, i) for a, *_ in holders[i, i]] + [i])
        for i, pname in enumerate(net.party_names)
    ]
    table, labels = _contract(factors)
    table = table.transpose([labels.index(i) for i in range(net.n_parties)])
    return JointDistribution(net.party_names, table)


def _contract(factors):
    """Sum out every label held by two of the (array, labels) factors.

    Greedy pairwise order: each step merges, by ``np.tensordot``, the pair of
    factors sharing a label whose result has the fewest entries, summing out
    the shared labels at once since no third factor holds them.  Factors
    sharing nothing (disconnected components) are joined last by outer
    product.  Returns the final array and its axis labels.
    """
    factors = list(factors)
    while len(factors) > 1:
        holder, pairs = {}, {}
        for y, (_, labels) in enumerate(factors):
            for label in labels:
                x = holder.setdefault(label, y)
                if x != y:
                    pairs.setdefault((x, y), []).append(label)
        best, x, y, shared = None, 0, 1, []
        for (i, j), common in pairs.items():
            (a, la), (b, lb) = factors[i], factors[j]
            summed = math.prod(a.shape[la.index(label)] for label in common)
            size = a.size * b.size // (summed * summed)
            if best is None or size < best:
                best, x, y, shared = size, i, j, common
        (a, la), (b, lb) = factors[x], factors.pop(y)
        merged = np.tensordot(
            a, b, axes=([la.index(s) for s in shared], [lb.index(s) for s in shared])
        )
        kept = [s for s in la if s not in shared] + [s for s in lb if s not in shared]
        factors[x] = (merged, kept)
    return factors[0]


def marginal(p: JointDistribution, subset) -> JointDistribution:
    """Sum out every party not in ``subset`` (party names, order preserved
    as in ``p``)."""
    names = list(subset)
    if not names:
        raise ValueError("empty subset")
    keep = sorted(p.axis_of(nm) for nm in names)
    if len(set(keep)) != len(names):
        raise ValueError("subset contains duplicates")
    return JointDistribution(tuple(p.parties[ax] for ax in keep), _marginal_table(p, keep))


def _marginal_table(p: JointDistribution, keep) -> np.ndarray:
    """The table of ``p`` summed over every axis not in ``keep`` (ascending
    axis indices), in one call and without re-validating the result."""
    drop = tuple(ax for ax in range(p.table.ndim) if ax not in keep)
    return p.table.sum(axis=drop) if drop else p.table


def check_independence(p: JointDistribution, net: Network, tol: float):
    """Check the factorization p(a_i, a_j) = p(a_i) p(a_j) for every party
    pair without a common source.

    Returns a list of ``(party_i, party_j, deviation)`` for pairs whose max
    absolute deviation exceeds ``tol``.
    """
    _check_tol(tol)
    if p.parties != net.party_names:
        raise ValueError("distribution parties do not match the network")
    singles = [_marginal_table(p, [i]) for i in range(net.n_parties)]
    violations = []
    for i, j in net.no_common_source_pairs():
        ni, nj = net.party_names[i], net.party_names[j]
        pair = _marginal_table(p, [i, j])
        dev = float(np.max(np.abs(pair - np.outer(singles[i], singles[j]))))
        if dev > tol:
            violations.append((ni, nj, dev))
    return violations


def covariance_matrix(p: JointDistribution, f: OutputFunctions) -> np.ndarray:
    """Covariance matrix C_ij = E[conj(f_i) f_j] - conj(E[f_i]) E[f_j].

    Expectations are taken under ``p``, in real arithmetic when every
    function is real; the result is Hermitian and PSD, float64 when every
    function is real and complex128 otherwise.
    """
    n = len(p.parties)
    for nm in p.parties:
        if nm not in f.values:
            raise ValueError(f"no output function for party '{nm}'")
        if len(f.values[nm]) != p.table.shape[p.axis_of(nm)]:
            raise ValueError(f"function for party '{nm}' does not match its alphabet")
    fv = [f.values[nm] for nm in p.parties]
    singles = [_marginal_table(p, [i]) for i in range(n)]
    dtype = np.result_type(np.float64, *fv)
    means = np.empty(n, dtype=dtype)
    for i in range(n):
        means[i] = np.dot(singles[i], fv[i])
    cov = np.empty((n, n), dtype=dtype)
    for i in range(n):
        cov[i, i] = np.dot(singles[i], np.abs(fv[i]) ** 2) - abs(means[i]) ** 2
        for j in range(i + 1, n):
            pij = _marginal_table(p, [i, j])
            second = np.conj(fv[i]) @ pij @ fv[j]
            cov[i, j] = second - np.conj(means[i]) * means[j]
            cov[j, i] = np.conj(cov[i, j])
    return as_hermitian(cov, atol=np.inf)
