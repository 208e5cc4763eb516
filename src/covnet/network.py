"""Network model: a two-layer graph of independent sources and parties.

A network is given by an ordered list of party names and an ordered list of
sources, each adjacent to a set of parties.  The party order fixes matrix
row/column order everywhere downstream, and the source order fixes the
order of a decomposition's terms and of the solver's barrier directions.
"""

from typing import NamedTuple

import numpy as np

from .linalg import _integer


class NdcsReport(NamedTuple):
    """Result of the no-double-common-source check.

    ``violations`` holds one entry per offending party pair, as
    ``(party_i, party_j, source_a, source_b)`` with two distinct sources
    adjacent to both parties.
    """

    is_ndcs: bool
    violations: tuple[tuple[int, int, int, int], ...]


def _ndcs(holders: dict) -> NdcsReport:
    """The NDCS report read off ``Network._holders``: every held pair i < j
    with two or more holders violates, with its first two sources."""
    violations = tuple((*pair, held[0][0], held[1][0]) for pair, held in sorted(holders.items())
                       if pair[0] != pair[1] and len(held) > 1)
    return NdcsReport(not violations, violations)


def _each(keys, table, what: str) -> list:
    """``table[k]`` for each of ``keys``, in their order, once the keys of
    ``table`` are exactly ``keys``: the one reader of every input keyed by
    a network's sources, parties or (party, source) pairs.  A missing key
    raises "no {what} {k!r}", the first in the order of ``keys``, and any
    other key "stray {what} {k!r}"."""
    keys = dict.fromkeys(keys)  # O(1) membership, in the order given
    for k in (*keys, *table):
        if k not in table:
            raise ValueError(f"no {what} {k!r}")
        if k not in keys:
            raise ValueError(f"stray {what} {k!r}")
    return [table[k] for k in keys]


def _unheld(n: int, holders: dict) -> tuple[tuple[int, int], ...]:
    """The party pairs i < j of n parties that no source in
    ``Network._holders`` holds."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in holders)


class _NetworkFields(NamedTuple):
    party_names: tuple[str, ...]
    source_names: tuple[str, ...]
    sources: tuple[tuple[int, ...], ...]  # sorted party indices per source


class Network(_NetworkFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, party_names, source_names, sources):
        n = len(party_names)
        if len(set(party_names)) != n:
            raise ValueError("duplicate party names")
        if len(set(source_names)) != len(source_names):
            raise ValueError("duplicate source names")
        if len(source_names) != len(sources):
            raise ValueError("source name/adjacency length mismatch")
        held = [set() for _ in range(n)]  # the sources of each party
        for a, (name, adj) in enumerate(zip(source_names, sources)):
            if len(adj) == 0:
                raise ValueError(f"isolated source '{name}'")
            for i in adj:
                held[_integer("party index", i, 0, n)].add(a)
            if len(set(adj)) != len(adj):
                raise ValueError(f"source '{name}' lists a party twice")
            if tuple(sorted(adj)) != tuple(adj):
                raise ValueError(f"source '{name}' adjacency must be sorted")
        lonely = [p for p, sources_of_p in zip(party_names, held) if not sources_of_p]
        if lonely:
            raise ValueError(f"isolated party: {', '.join(lonely)}")
        for a, adj in enumerate(sources):
            # Source a is redundant when another source holds all its parties.
            others = set.intersection(*[held[i] for i in adj]) - {a}
            if others:
                x, y = sorted((a, min(others)))
                raise ValueError(
                    "redundant source: adjacency sets of "
                    f"'{source_names[x]}' and '{source_names[y]}' "
                    "are comparable"
                )
        return super().__new__(cls, party_names, source_names, sources)

    @property
    def n_parties(self) -> int:
        return len(self.party_names)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def party_index(self, name: str) -> int:
        try:
            return self.party_names.index(name)
        except ValueError:
            raise ValueError(f"unknown party '{name}'") from None

    def source_index(self, name: str) -> int:
        try:
            return self.source_names.index(name)
        except ValueError:
            raise ValueError(f"unknown source '{name}'") from None

    def _holders(self) -> dict:
        """For every entry (i, j), i <= j, that some source holds, its holders
        (a, p, q): (p, q) in block a, in source order.  Built afresh on each
        call; the network stores nothing but its three fields."""
        holders = {}
        for a, adj in enumerate(self.sources):
            for p, i in enumerate(adj):
                for q in range(p, len(adj)):
                    holders.setdefault((i, adj[q]), []).append((a, p, q))
        return holders

    def sources_of_party(self, i: int) -> tuple[int, ...]:
        """Indices of sources adjacent to party ``i``, ascending."""
        i = _integer("party index", i, 0, self.n_parties)
        # From a list: tuple() over a generator allocates for ten and shrinks,
        # which left 1,600 simulator items about 0.15 MB larger in peak RSS.
        return tuple([a for a, adj in enumerate(self.sources) if i in adj])

    def blocks(self) -> list[np.ndarray]:
        """Party-index arrays of each source block, in source order."""
        return [np.asarray(adj, dtype=np.intp) for adj in self.sources]

    def is_ndcs(self) -> NdcsReport:
        """Check that every party pair shares at most one source."""
        return _ndcs(self._holders())

    def common_source(self, i: int, j: int) -> int | None:
        """The unique source adjacent to both parties, or None.

        Only meaningful on NDCS networks; raises otherwise.
        """
        i = _integer("party index", i, 0, self.n_parties)
        j = _integer("party index", j, 0, self.n_parties)
        if i == j:
            raise ValueError("common_source requires two distinct parties")
        holders = self._holders()
        if not _ndcs(holders).is_ndcs:
            raise ValueError("ambiguous common source: network is not NDCS")
        held = holders.get((min(i, j), max(i, j)))
        return held[0][0] if held else None

    def all_bipartite(self) -> bool:
        return all(len(adj) == 2 for adj in self.sources)

    def no_common_source_pairs(self) -> tuple[tuple[int, int], ...]:
        """Party pairs (i < j) that do not share any source."""
        return _unheld(self.n_parties, self._holders())

    def to_json(self) -> dict:
        from .formats import network_to_json

        return network_to_json(self)
