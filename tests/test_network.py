"""Network parsing, validation, and structure queries."""

import json
import re
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from covnet.formats import model_from_json, parse_network
from covnet.gaussian import GaussianNetworkModel
from covnet.inflate import (
    InflationSpec,
    build_inflation,
    inflate_models,
    inflated_covariance,
    shift_inflation,
    sign_inflation,
)
from covnet.network import Network, _each
from covnet.simulate import (
    OutputFunctions,
    ResponseModel,
    SourceModel,
    build_joint_distribution,
    covariance_matrix,
    marginal,
)
from covnet.solver import decompose, fast_check_bipartite
from covnet.witness import TwistedGramSpec, build_sign_matrix, build_twisted_gram
from support import path_network, random_bipartite_network, random_classical_model, star_network

PATH_JSON = {
    "parties": ["A1", "A2", "A3"],
    "sources": [
        {"name": "alpha", "parties": ["A1", "A2"]},
        {"name": "beta", "parties": ["A2", "A3"]},
    ],
}

TRIANGLE_JSON = {
    "parties": ["A1", "A2", "A3"],
    "sources": [
        {"name": "a", "parties": ["A1", "A2"]},
        {"name": "b", "parties": ["A2", "A3"]},
        {"name": "c", "parties": ["A1", "A3"]},
    ],
}


class TestParse:
    def test_path(self):
        net = parse_network(json.dumps(PATH_JSON))
        assert net.n_parties == 3 and net.n_sources == 2
        assert net.sources == ((0, 1), (1, 2))

    def test_triangle(self):
        net = parse_network(TRIANGLE_JSON)
        assert net.n_parties == 3 and net.n_sources == 3

    def test_redundant_source(self):
        bad = {
            "parties": ["A1", "A2", "A3"],
            "sources": [
                {"name": "a", "parties": ["A1", "A2"]},
                {"name": "b", "parties": ["A1", "A2", "A3"]},
            ],
        }
        with pytest.raises(ValueError, match="redundant source"):
            parse_network(bad)

    def test_identical_sources_rejected(self):
        bad = {
            "parties": ["A1", "A2"],
            "sources": [
                {"name": "a", "parties": ["A1", "A2"]},
                {"name": "b", "parties": ["A2", "A1"]},
            ],
        }
        with pytest.raises(ValueError, match="redundant source"):
            parse_network(bad)

    def test_unknown_party(self):
        bad = {"parties": ["A1"], "sources": [{"name": "a", "parties": ["A1", "B9"]}]}
        with pytest.raises(ValueError, match="unknown party"):
            parse_network(bad)

    def test_duplicate_party(self):
        bad = {"parties": ["A1", "A1"], "sources": [{"name": "a", "parties": ["A1"]}]}
        with pytest.raises(ValueError, match="duplicate"):
            parse_network(bad)

    def test_isolated_party(self):
        bad = {
            "parties": ["A1", "A2", "A3"],
            "sources": [{"name": "a", "parties": ["A1", "A2"]}],
        }
        with pytest.raises(ValueError, match="isolated"):
            parse_network(bad)

    def test_isolated_source(self):
        bad = {"parties": ["A1"], "sources": [{"name": "a", "parties": []}]}
        with pytest.raises(ValueError, match="isolated"):
            parse_network(bad)

    def test_json_round_trip(self, triangle_net):
        assert parse_network(triangle_net.to_json()) == triangle_net

    def test_record_is_an_immutable_hashable_tuple(self, triangle_net):
        twin = parse_network(triangle_net.to_json())
        assert triangle_net.is_ndcs().is_ndcs  # queries store nothing on the record
        assert twin == triangle_net and hash(twin) == hash(triangle_net)
        parties, names, sources = triangle_net
        assert (parties, names, sources) == (twin.party_names, twin.source_names, twin.sources)
        with pytest.raises(AttributeError):
            triangle_net.sources = ()
        with pytest.raises(ValueError, match="comparable"):
            Network(parties, names + ("d",), sources + ((0, 1),))
        with pytest.raises(ValueError, match="comparable"):
            triangle_net._replace(source_names=names + ("d",), sources=sources + ((0, 1),))

    def test_record_has_no_instance_dict(self, triangle_net):
        assert not hasattr(triangle_net, "__dict__")
        with pytest.raises(AttributeError):
            triangle_net.cache = {}

    @pytest.mark.parametrize("call, match", [
        (lambda net: Network(net.party_names, ("a", "a"), net.sources), "duplicate source names"),
        (lambda net: Network(net.party_names, ("a", "b"), ((0, 1),)), "length mismatch"),
        (lambda net: Network(net.party_names, ("a", "b"), ((0, 1), (1, 3))), "party index must lie in"),
        # A float index used to pass, and then fail decompose and to_json.
        (lambda net: Network(net.party_names, ("a", "b"), ((0, 1), (1.0, 2))),
         "party index must be an integer, got 1.0"),
        (lambda net: Network(net.party_names, ("a", "b"), ((0, 1), (1, 1, 2))), "lists a party twice"),
        (lambda net: Network(net.party_names, ("a", "b"), ((0, 1), (2, 1))), "must be sorted"),
        (lambda net: net.party_index("B9"), "unknown party 'B9'"),
        (lambda net: net.source_index("z"), "unknown source 'z'"),
        # A float or bool party index used to be read as the integer it equals.
        (lambda net: net.sources_of_party(1.0), "party index must be an integer, got 1.0"),
        (lambda net: net.common_source(0, 1.0), "party index must be an integer, got 1.0"),
        (lambda net: net.sources_of_party(True), "party index must be an integer, got True"),
        (lambda net: Network(net.party_names, ("a", "b"), ((0, 1), (True, 2))),
         "party index must be an integer, got True"),
        # Names used to be stringified: numeric parties failed as "unknown
        # party '1'", and a numeric source name became a string.
        (lambda net: parse_network({"parties": [1, 2], "sources": [{"name": "s", "parties": [1, 2]}]}),
         "network JSON names must be JSON strings, not 1"),
        (lambda net: parse_network({"parties": ["A1", "A2"],
                                    "sources": [{"name": 7, "parties": ["A1", "A2"]}]}),
         "network JSON names must be JSON strings, not 7"),
        (lambda net: parse_network({"parties": ["A1", "A2"],
                                    "sources": [{"name": "s", "parties": ["A1", 2]}]}),
         "network JSON names must be JSON strings, not 2"),
        (lambda net: parse_network({"parties": ["A1", "A2"],
                                    "sources": [{"name": None, "parties": ["A1", "A2"]}]}),
         "network JSON names must be JSON strings, not None"),
    ], ids=["duplicate-source", "length-mismatch", "party-out-of-range", "party-float", "party-twice",
            "unsorted", "unknown-party", "unknown-source", "sources-of-party-float",
            "common-source-float", "sources-of-party-bool", "party-bool", "json-party-number",
            "json-source-name-number", "json-member-number", "json-source-name-null"])
    def test_rejections(self, path_net, call, match):
        with pytest.raises(ValueError, match=match):
            call(path_net)


def test_parse_and_keyed_read_are_linear_in_the_network():
    # Parsing compared every pair of sources and _each searched a tuple of
    # keys: about 16 s and 5 s on this 20,000-party cycle.
    n = 20_000
    parties = [f"A{i}" for i in range(n)]
    spec = {"parties": parties, "sources": [
        {"name": f"s{i}", "parties": [parties[i], parties[(i + 1) % n]]} for i in range(n)]}
    start = time.perf_counter()
    net = parse_network(spec)
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    assert _each(net.party_names, dict.fromkeys(reversed(parties), 1), "x") == [1] * n
    assert time.perf_counter() - start < 2


class TestNdcs:
    def test_triangle_is_ndcs(self, triangle_net):
        assert triangle_net.is_ndcs().is_ndcs

    def test_double_common_source(self):
        net = Network(
            ("A1", "A2", "A3", "A4"),
            ("a", "b"),
            ((0, 1, 2), (0, 1, 3)),
        )
        report = net.is_ndcs()
        assert not report.is_ndcs
        assert report.violations[0][:2] == (0, 1)

    def test_single_source(self):
        net = Network(("A1", "A2"), ("a",), ((0, 1),))
        assert net.is_ndcs().is_ndcs

    def test_bipartite_implies_ndcs(self, rng):
        for _ in range(30):
            net = random_bipartite_network(rng, int(rng.integers(2, 8)))
            assert net.all_bipartite()
            assert net.is_ndcs().is_ndcs


class TestCommonSource:
    def test_path(self, path_net):
        assert path_net.common_source(0, 1) == 0
        assert path_net.common_source(1, 2) == 1
        assert path_net.common_source(0, 2) is None

    def test_triangle(self, triangle_net):
        assert triangle_net.common_source(0, 2) == 2

    def test_symmetric(self, rng):
        net = star_network(5)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert net.common_source(i, j) == net.common_source(j, i)

    def test_non_ndcs_rejected(self):
        net = Network(("A1", "A2", "A3", "A4"), ("a", "b"), ((0, 1, 2), (0, 1, 3)))
        with pytest.raises(ValueError, match="ambiguous common source"):
            net.common_source(0, 1)

    def test_same_party_rejected(self, path_net):
        with pytest.raises(ValueError):
            path_net.common_source(1, 1)

    @pytest.mark.parametrize("i, j", [(-1, 1), (0, -3), (3, 0), (0, 99)])
    def test_party_index_out_of_range_rejected(self, path_net, i, j):
        with pytest.raises(ValueError, match=re.escape("party index must lie in [0, 3)")):
            path_net.common_source(i, j)


@pytest.mark.parametrize("i", [-1, -3, 3, 99])
def test_sources_of_party_out_of_range_rejected(path_net, i):
    with pytest.raises(ValueError, match=re.escape("party index must lie in [0, 3)")):
        path_net.sources_of_party(i)


class TestShape:
    def test_all_bipartite(self, path_net, triangle_net):
        assert path_net.all_bipartite()
        assert triangle_net.all_bipartite()
        tri_source = Network(("A1", "A2", "A3"), ("a",), ((0, 1, 2),))
        assert not tri_source.all_bipartite()

    def test_no_common_source_pairs(self, path_net, triangle_net):
        assert path_net.no_common_source_pairs() == ((0, 2),)
        assert triangle_net.no_common_source_pairs() == ()

    def test_blocks_follow_source_order(self, path_net):
        blocks = path_net.blocks()
        assert [b.tolist() for b in blocks] == [[0, 1], [1, 2]]


@pytest.mark.parametrize("net,holders,sources_of,common,pairs,bipartite", [
    pytest.param(Network((), (), ()), {}, [], {}, (), True, id="empty"),
    pytest.param(Network(("A",), ("s",), ((0,),)), {(0, 0): [(0, 0, 0)]}, [(0,)], {}, (), False,
                 id="one-party"),
    pytest.param(Network(("A", "B", "C"), ("s",), ((0, 1, 2),)),
                 {(0, 0): [(0, 0, 0)], (0, 1): [(0, 0, 1)], (0, 2): [(0, 0, 2)],
                  (1, 1): [(0, 1, 1)], (1, 2): [(0, 1, 2)], (2, 2): [(0, 2, 2)]},
                 [(0,), (0,), (0,)], {pair: 0 for pair in permutations(range(3), 2)},
                 (), False, id="one-source-holds-all"),
])
def test_queries_on_edge_networks(net, holders, sources_of, common, pairs, bipartite):
    n = net.n_parties
    assert net._holders() == holders
    assert [net.sources_of_party(i) for i in range(n)] == sources_of
    assert [b.tolist() for b in net.blocks()] == [list(adj) for adj in net.sources]
    assert net.is_ndcs() == (True, ())
    assert {(i, j): net.common_source(i, j) for i, j in permutations(range(n), 2)} == common
    assert net.no_common_source_pairs() == pairs
    assert net.all_bipartite() is bipartite
    with pytest.raises(ValueError, match=re.escape(f"party index must lie in [0, {n})")):
        net.sources_of_party(n)
    with pytest.raises(ValueError, match="must lie in|distinct"):
        net.common_source(0, 0)


PATH_3 = path_network(3)
PATH_3_M = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float)
PATH_3_SPEC = shift_inflation(PATH_3, {"s0": 0, "s1": 1}, 2)


@pytest.mark.parametrize("call", [
    lambda: decompose(PATH_3, PATH_3_M),
    lambda: fast_check_bipartite(PATH_3, PATH_3_M, 1e-7),
    lambda: inflated_covariance(PATH_3, PATH_3_M, PATH_3_SPEC, PATH_3_M.diagonal()),
    lambda: build_twisted_gram(PATH_3, TwistedGramSpec(
        2, {name: np.ones(2) for name in PATH_3.party_names}, dict(PATH_3_SPEC.perms))),
], ids=["decompose", "fast_check_bipartite", "inflated_covariance", "build_twisted_gram"])
def test_public_calls_build_the_held_entry_record_once(monkeypatch, call):
    built = []
    holders = Network._holders
    monkeypatch.setattr(Network, "_holders", lambda net: built.append(net) or holders(net))
    call()
    assert len(built) == 1


def random_network(rng: np.random.Generator) -> Network:
    """A random valid network on 2..7 parties, NDCS or not."""
    while True:
        n = int(rng.integers(2, 8))
        sources = [tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
                   for _ in range(int(rng.integers(1, 8)))]
        try:
            return Network(tuple(f"A{i}" for i in range(n)),
                           tuple(f"s{a}" for a in range(len(sources))), tuple(sources))
        except ValueError:
            continue


def test_queries_match_brute_force(rng):
    """Every query against a scan of all sources for every party pair."""
    several = 0
    for _ in range(300):
        net = random_network(rng)
        n = net.n_parties
        for i in range(n):
            assert net.sources_of_party(i) == tuple(a for a, adj in enumerate(net.sources) if i in adj)
        shared = {(i, j): [a for a, adj in enumerate(net.sources) if i in adj and j in adj]
                  for i, j in combinations(range(n), 2)}
        violations = tuple((i, j, s[0], s[1]) for (i, j), s in shared.items() if len(s) > 1)
        assert net.is_ndcs() == (not violations, violations)
        several += len(violations) > 1
        assert net.no_common_source_pairs() == tuple(p for p, s in shared.items() if not s)
        for (i, j), s in shared.items():
            if violations:
                with pytest.raises(ValueError, match="not NDCS"):
                    net.common_source(i, j)
            else:
                assert net.common_source(i, j) == net.common_source(j, i) == (s[0] if s else None)
        with pytest.raises(ValueError, match="distinct"):
            net.common_source(0, 0)
    assert several > 20  # many networks with more than one violating pair


# -- inputs keyed by the network ---------------------------------------------
# Every table keyed by the network's sources, parties or (party, source)
# pairs is read by network._each: it must name exactly those keys.  Each
# reader below takes the path network A1 - s0 - A2 - s1 - A3 and an edit of
# its one keyed table.

PATH = path_network(3)
SOURCES, RESPONSES, FUNCTIONS = random_classical_model(PATH, np.random.default_rng(0), 2, 2)
PAIRS = [(PATH.party_names[i], s) for s, adj in zip(PATH.source_names, PATH.sources) for i in adj]
TERMS = decompose(PATH, [[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]]).decomposition.terms
MODEL_JSON = {
    "sources": {nm: {"alphabets": list(p.shape), "pmf": p.ravel().tolist()}
                for nm, p in SOURCES.pmfs.items()},
    "responses": {nm: {"alphabet": t.shape[-1], "table": t.ravel().tolist()}
                  for nm, t in RESPONSES.tables.items()},
    "functions": {nm: {"re": v.real.tolist(), "im": v.imag.tolist()}
                  for nm, v in FUNCTIONS.values.items()},
}


def model_json_with(section):
    return lambda edit: model_from_json({**MODEL_JSON, section: edit(MODEL_JSON[section])}, PATH)


# (reader, its table's keys, how the missing or stray key is named)
KEYED_READERS = {
    "gaussian-terms": (lambda edit: GaussianNetworkModel(PATH, edit(TERMS), 0),
                       PATH.source_names, "covariance term for source"),
    "sign-inflation": (lambda edit: sign_inflation(PATH, edit({"s0": 1, "s1": -1})),
                       PATH.source_names, "sign value for source"),
    "shift-inflation": (lambda edit: shift_inflation(PATH, edit({"s0": 0, "s1": 1}), 2),
                        PATH.source_names, "shift for source"),
    "sign-matrix": (lambda edit: build_sign_matrix(PATH, edit({"s0": 1, "s1": 1j})),
                    PATH.source_names, "sign value for source"),
    "twisted-gram-vectors": (lambda edit: build_twisted_gram(PATH, TwistedGramSpec(
        1, edit({nm: [1.0] for nm in PATH.party_names}), {key: [0] for key in PAIRS})),
        PATH.party_names, "vector for party"),
    "joint-pmfs": (lambda edit: build_joint_distribution(
        PATH, SourceModel(edit(SOURCES.pmfs)), RESPONSES), PATH.source_names, "source model for"),
    "joint-tables": (lambda edit: build_joint_distribution(
        PATH, SOURCES, ResponseModel(edit(RESPONSES.tables))),
        PATH.party_names, "response model for party"),
    "inflate-models-pmfs": (lambda edit: inflate_models(
        build_inflation(PATH, InflationSpec(2, {key: [0, 1] for key in PAIRS})),
        SourceModel(edit(SOURCES.pmfs)), RESPONSES), PATH.source_names, "source model for"),
    "inflate-models-functions": (lambda edit: inflate_models(
        build_inflation(PATH, InflationSpec(2, {key: [0, 1] for key in PAIRS})),
        SOURCES, RESPONSES, OutputFunctions(edit(FUNCTIONS.values))),
        PATH.party_names, "output function for party"),
    "model-json-sources": (model_json_with("sources"), PATH.source_names, "source model for"),
    "model-json-responses": (model_json_with("responses"), PATH.party_names,
                             "response model for party"),
    "model-json-functions": (model_json_with("functions"), PATH.party_names,
                             "output function for party"),
    "inflation-spec": (lambda edit: build_inflation(PATH, InflationSpec(
        2, edit({key: [0, 1] for key in PAIRS}))), PAIRS, "spec permutation"),
}


@pytest.mark.parametrize("reader", KEYED_READERS)
def test_keyed_input_names_exactly_the_network(reader):
    call, keys, what = KEYED_READERS[reader]
    call(lambda table: table)
    # A stray key used to be read past by every reader but the spec's.  A
    # pair is stray when its party is not on its source.
    stray = ("A1", "s1") if isinstance(keys[0], tuple) else keys[0][0] + "9"
    with pytest.raises(ValueError, match=re.escape(f"stray {what} {stray!r}")):
        call(lambda table: {**table, stray: table[keys[0]]})
    # The first missing key in the network's order is named, as before.
    with pytest.raises(ValueError, match=re.escape(f"no {what} {keys[1]!r}")):
        call(lambda table: {k: v for k, v in table.items() if k not in keys[1:]})


def test_covariance_matrix_reads_the_functions_of_its_parties():
    # The one keyed input not read by network._each: a marginal's
    # covariance takes the functions of every party of the network.
    p = marginal(build_joint_distribution(PATH, SOURCES, RESPONSES), ["A1", "A2"])
    c = covariance_matrix(p, FUNCTIONS)
    assert c.shape == (2, 2)
    assert np.array_equal(c, covariance_matrix(
        p, OutputFunctions({nm: FUNCTIONS.values[nm] for nm in ("A1", "A2")})))
