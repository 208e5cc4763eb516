"""Classical simulator: frozen hand-enumerated examples, the contraction
against a sum over every signal tuple, and the causality properties
guaranteed by construction."""

import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from covnet.network import Network
from covnet.simulate import (
    TABLE_CAP,
    JointDistribution,
    OutputFunctions,
    ResponseModel,
    SourceModel,
    build_joint_distribution,
    check_independence,
    covariance_matrix,
    marginal,
)
from covnet.formats import model_from_json
from covnet.linalg import is_psd
from support import cycle_network, random_classical_model, random_ndcs_network

SHARED_BIT = np.array([[0.5, 0.0], [0.0, 0.5]])  # same bit to both slots
# One source "t" sends alphabets 2, 3 and 4 to A1, A2 and A3: A3 reads slot 2.
SLOT_2_NET = Network(("A1", "A2", "A3"), ("t",), ((0, 1, 2),))
SLOT_2_SOURCES = SourceModel({"t": np.full((2, 3, 4), 1 / 24)})
SLOT_2_JSON = {"sources": {"t": {"alphabets": [2, 3, 4], "pmf": [1 / 24] * 24}},
               "responses": {f"A{i + 1}": {"alphabet": 2, "table": [0.5] * (2 * k)}
                             for i, k in enumerate((2, 3, 4))}}


def copy_bit():
    t = np.zeros((2, 2))
    t[0, 0] = t[1, 1] = 1.0
    return t


def pair_output():
    # Outputs the received pair (s_a, s_b) encoded as 2*s_a + s_b.
    t = np.zeros((2, 2, 4))
    for sa in range(2):
        for sb in range(2):
            t[sa, sb, 2 * sa + sb] = 1.0
    return t


@pytest.fixture
def path_model(path_net):
    sources = SourceModel({"s0": SHARED_BIT.copy(), "s1": SHARED_BIT.copy()})
    responses = ResponseModel({"A1": copy_bit(), "A2": pair_output(), "A3": copy_bit()})
    f = OutputFunctions(
        {
            "A1": np.array([1.0, -1.0]),
            "A3": np.array([1.0, -1.0]),
            "A2": np.array([(-1) ** (k // 2) + (-1) ** (k % 2) for k in range(4)], dtype=complex),
        }
    )
    return sources, responses, f


class TestBuildJoint:
    def test_path_uniform_support(self, path_net, path_model):
        sources, responses, _ = path_model
        p = build_joint_distribution(path_net, sources, responses)
        assert p.alphabets == (2, 4, 2)
        # Four signal tuples, each forcing one output triple.
        assert np.count_nonzero(p.table) == 4
        assert np.allclose(p.table[p.table > 0], 0.25)

    def test_perfect_correlation(self):
        net = Network(("A1", "A2"), ("s",), ((0, 1),))
        p = build_joint_distribution(
            net,
            SourceModel({"s": SHARED_BIT.copy()}),
            ResponseModel({"A1": copy_bit(), "A2": copy_bit()}),
        )
        assert np.allclose(p.table, np.diag([0.5, 0.5]))

    def test_constant_outputs_point_mass(self, path_net):
        const = {
            "A1": np.stack([np.ones((2,)), np.zeros((2,))], axis=-1),
            "A2": np.stack([np.ones((2, 2)), np.zeros((2, 2))], axis=-1),
            "A3": np.stack([np.ones((2,)), np.zeros((2,))], axis=-1),
        }
        p = build_joint_distribution(
            path_net,
            SourceModel({"s0": SHARED_BIT.copy(), "s1": SHARED_BIT.copy()}),
            ResponseModel(const),
        )
        assert p.table[0, 0, 0] == pytest.approx(1.0)

    def test_table_cap(self, path_net):
        # 300 letters per party make 2.7e7 entries, past the cap: the 216 MB
        # table must be refused before anything is allocated.
        assert 300**3 > TABLE_CAP
        sources = SourceModel({"s0": SHARED_BIT.copy(), "s1": SHARED_BIT.copy()})
        responses = ResponseModel({
            "A1": np.full((2, 300), 1 / 300),
            "A2": np.full((2, 2, 300), 1 / 300),
            "A3": np.full((2, 300), 1 / 300),
        })
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large"):
                build_joint_distribution(path_net, sources, responses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_model_mismatch(self, path_net):
        with pytest.raises(ValueError, match="no source model"):
            build_joint_distribution(
                path_net,
                SourceModel({"s0": SHARED_BIT.copy()}),
                ResponseModel({"A1": copy_bit(), "A2": pair_output(), "A3": copy_bit()}),
            )


def enumerated_joint(net, sources, responses):
    """Reference joint table: the sum over every signal tuple of its sources'
    pmf weights times the outer product of the parties' conditional pmfs."""
    pmfs = [sources.pmfs[name] for name in net.source_names]
    table = np.zeros(tuple(responses.alphabet(pname) for pname in net.party_names))
    for signals in itertools.product(*(np.ndindex(p.shape) for p in pmfs)):
        weight = math.prod(p[s] for p, s in zip(pmfs, signals))
        rows = [
            responses.tables[pname][
                tuple(signals[a][net.sources[a].index(i)] for a in net.sources_of_party(i))
            ]
            for i, pname in enumerate(net.party_names)
        ]
        table += weight * functools.reduce(np.multiply.outer, rows)
    return table


class TestContractionReference:
    """build_joint_distribution agrees with the enumerated sum."""

    def check(self, net, rng):
        sources, responses, _ = random_classical_model(net, rng, 3, 3)
        p = build_joint_distribution(net, sources, responses)
        ref = enumerated_joint(net, sources, responses)
        assert p.table.shape == ref.shape
        assert np.max(np.abs(p.table - ref)) <= 1e-15

    def test_random_ndcs_models(self, rng):
        for _ in range(12):
            self.check(random_ndcs_network(rng, int(rng.integers(2, 6))), rng)

    @pytest.mark.parametrize("adjs", [
        # not NDCS: s0 and s1 both reach the pair (A1, A2)
        ((0, 1, 2), (0, 1, 3), (2, 3)),
        # s2 reaches A4 alone, which is then a component of its own
        ((0, 1), (1, 2), (3,)),
        # two components, a path and an edge
        ((0, 1), (1, 2), (3, 4)),
    ])
    def test_special_networks(self, rng, adjs):
        n = 1 + max(i for adj in adjs for i in adj)
        net = Network(
            tuple(f"A{i + 1}" for i in range(n)), tuple(f"s{a}" for a in range(len(adjs))), adjs
        )
        for _ in range(3):
            self.check(net, rng)


class TestMarginal:
    def test_full_set(self, path_net, path_model):
        sources, responses, _ = path_model
        p = build_joint_distribution(path_net, sources, responses)
        assert np.array_equal(marginal(p, p.parties).table, p.table)

    def test_singleton_uniform(self, path_net, path_model):
        sources, responses, _ = path_model
        p = build_joint_distribution(path_net, sources, responses)
        assert np.allclose(marginal(p, ["A1"]).table, [0.5, 0.5])

    def test_correlated_pair_first_party(self):
        p = JointDistribution(("A1", "A2"), np.diag([0.5, 0.5]))
        assert np.allclose(marginal(p, ["A1"]).table, [0.5, 0.5])

    def test_empty_subset(self, path_net, path_model):
        sources, responses, _ = path_model
        p = build_joint_distribution(path_net, sources, responses)
        with pytest.raises(ValueError, match="empty"):
            marginal(p, [])


class TestIndependence:
    def test_built_distribution_factorizes(self, path_net, path_model):
        sources, responses, _ = path_model
        p = build_joint_distribution(path_net, sources, responses)
        assert check_independence(p, path_net, 1e-12) == []

    def test_correlated_ends_flagged(self, path_net):
        # Hand-built table with a1 always equal to a3: outside the network's
        # reach, so the no-common-source pair must be flagged.
        t = np.zeros((2, 4, 2))
        t[0, 0, 0] = 0.5
        t[1, 3, 1] = 0.5
        p = JointDistribution(path_net.party_names, t)
        bad = check_independence(p, path_net, 1e-9)
        assert [(a, b) for a, b, _ in bad] == [("A1", "A3")]

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # A dependent distribution that any valid tol flags.
        net = cycle_network(4)
        t = np.full((2, 2, 2, 2), 1 / 16)
        t[0, 0, 0, 0] += 0.01
        t[1, 1, 1, 1] -= 0.01
        p = JointDistribution(net.party_names, t)
        assert len(check_independence(p, net, 1e-9)) == 2
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check_independence(p, net, tol)

    def test_triangle_vacuous(self, triangle_net, rng):
        t = rng.random((2, 2, 2))
        p = JointDistribution(triangle_net.party_names, t / t.sum())
        assert check_independence(p, triangle_net, 1e-12) == []


class TestCovariance:
    def test_path_example(self, path_net, path_model):
        sources, responses, f = path_model
        p = build_joint_distribution(path_net, sources, responses)
        c = covariance_matrix(p, f)
        assert np.allclose(c, np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]]), atol=1e-12)

    def test_perfect_correlation(self):
        p = JointDistribution(("A1", "A2"), np.diag([0.5, 0.5]))
        f = OutputFunctions({"A1": np.array([1.0, -1.0]), "A2": np.array([1.0, -1.0])})
        assert np.allclose(covariance_matrix(p, f), np.ones((2, 2)))

    def test_independent_bits_identity(self):
        p = JointDistribution(("A1", "A2"), np.full((2, 2), 0.25))
        f = OutputFunctions({"A1": np.array([1.0, -1.0]), "A2": np.array([1.0, -1.0])})
        assert np.allclose(covariance_matrix(p, f), np.eye(2), atol=1e-12)

    def test_random_models_psd_and_zero_pairs(self, rng):
        for _ in range(15):
            net = random_ndcs_network(rng, int(rng.integers(2, 6)))
            sources, responses, f = random_classical_model(net, rng, 3, 3)
            p = build_joint_distribution(net, sources, responses)
            c = covariance_matrix(p, f)
            assert is_psd(c, 1e-9)
            for i, j in net.no_common_source_pairs():
                assert abs(c[i, j]) <= 1e-10

    def test_scaling_function_scales_row_and_column(self, path_net, path_model):
        sources, responses, f = path_model
        p = build_joint_distribution(path_net, sources, responses)
        c0 = covariance_matrix(p, f)
        z = 0.7 - 1.3j
        scaled = OutputFunctions({**f.values, "A1": z * f.values["A1"]})
        c1 = covariance_matrix(p, scaled)
        expect = c0.copy()
        expect[0, :] *= np.conj(z)
        expect[:, 0] *= z
        expect[0, 0] = abs(z) ** 2 * c0[0, 0]
        assert np.allclose(c1, expect, atol=1e-12)


def path_model_json(**entries):
    """The path network's shared-bit model as model JSON, with ``entries``
    replacing the source ("s0") or response ("A1") entries named."""
    obj = {
        "sources": {
            "s0": {"alphabets": [2, 2], "pmf": SHARED_BIT.ravel().tolist()},
            "s1": {"alphabets": [2, 2], "pmf": SHARED_BIT.ravel().tolist()},
        },
        "responses": {
            "A1": {"alphabet": 2, "table": copy_bit().ravel().tolist()},
            "A2": {"alphabet": 4, "table": pair_output().ravel().tolist()},
            "A3": {"alphabet": 2, "table": copy_bit().ravel().tolist()},
        },
        "functions": {
            "A1": {"re": [1, -1]},
            "A2": {"re": [2, 0, 0, -2]},
            "A3": {"re": [1, -1]},
        },
    }
    for name, entry in entries.items():
        obj["sources" if name.startswith("s") else "responses"][name] = entry
    return obj


class TestModelJson:
    def test_parse_and_rebuild(self, path_net):
        s2, r2, f2 = model_from_json(path_model_json(), path_net)
        p = build_joint_distribution(path_net, s2, r2)
        c = covariance_matrix(p, f2)
        assert np.allclose(c, np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]]), atol=1e-12)
        # Functions without "im" load as float64: the covariance is summed
        # in real arithmetic and comes out float64.
        assert all(v.dtype == np.float64 for v in f2.values.values())
        assert c.dtype == np.float64

    def test_party_at_slot_2_reads_its_alphabet(self):
        sources, responses, _ = model_from_json(SLOT_2_JSON, SLOT_2_NET)
        assert [responses.tables[p].shape for p in SLOT_2_NET.party_names] == [(2, 2), (3, 2), (4, 2)]
        p = build_joint_distribution(SLOT_2_NET, sources, responses)
        assert np.allclose(p.table, 1 / 8)

    def test_bad_pmf_length(self, path_net):
        obj = path_model_json(s0={"alphabets": [2, 2], "pmf": [1.0]})
        with pytest.raises(ValueError, match="length"):
            model_from_json(obj, path_net)

    # int() would read 2.7, true and "1" as alphabets of 2, 1 and 1.
    @pytest.mark.parametrize("size", [2.7, True, "1"])
    def test_source_alphabet_must_be_json_integer(self, path_net, size):
        n = 2 * int(size)
        obj = path_model_json(s0={"alphabets": [size, 2], "pmf": [1 / n] * n})
        with pytest.raises(ValueError, match="source 's0' alphabet must be a JSON integer"):
            model_from_json(obj, path_net)

    @pytest.mark.parametrize("size", [2.9, True, "1"])
    def test_response_alphabet_must_be_json_integer(self, path_net, size):
        n = int(size)
        obj = path_model_json(A1={"alphabet": size, "table": [1 / n] * (2 * n)})
        with pytest.raises(ValueError, match="party 'A1' alphabet must be a JSON integer"):
            model_from_json(obj, path_net)


class TestModelsCopyInputs:
    # The frozen models convert their inputs to arrays; the caller's dict
    # must keep what the caller put in it.
    def test_source_model(self):
        pmfs = {"s0": [[0.5, 0.0], [0.0, 0.5]]}
        model = SourceModel(pmfs)
        assert pmfs == {"s0": [[0.5, 0.0], [0.0, 0.5]]}
        assert isinstance(model.pmfs["s0"], np.ndarray)

    def test_response_model(self):
        tables = {"A1": [[1.0, 0.0], [0.0, 1.0]]}
        model = ResponseModel(tables)
        assert tables == {"A1": [[1.0, 0.0], [0.0, 1.0]]}
        assert model.alphabet("A1") == 2

    def test_output_functions(self):
        # A real function is stored as float64, a complex one as complex128;
        # an array already of that dtype is kept as given, strided or not.
        real, strided = np.array([0.5, 2.0]), np.arange(4, dtype=complex)[::2]
        values = {"A1": [1, -1], "A2": [1j, 1], "A3": real, "A4": strided}
        model = OutputFunctions(values)
        assert values == {"A1": [1, -1], "A2": [1j, 1], "A3": real, "A4": strided}
        assert model.values["A1"].dtype == np.float64
        assert model.values["A2"].dtype == np.complex128
        assert np.shares_memory(model.values["A3"], real)
        assert np.shares_memory(model.values["A4"], strided)


class TestCopiesOnlyToChange:
    def test_joint_table_kept_without_copy(self):
        t = np.full((2, 2), 0.25)
        assert np.shares_memory(JointDistribution(("A1", "A2"), t).table, t)

    def test_build_peaks_at_about_one_table(self):
        net = cycle_network(12)
        sources, responses, _ = random_classical_model(net, np.random.default_rng(5), 2, 4)
        tracemalloc.start()
        try:
            p = build_joint_distribution(net, sources, responses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.table.size >= 100_000
        assert peak < 1.3 * p.table.nbytes

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_real_functions_match_complex(self, seed):
        # The simulate-realize benchmark's models: the covariance summed in
        # real arithmetic stays float64 and agrees with the complex128 sum.
        rng = np.random.default_rng(seed)
        for _ in range(1600):
            net = random_ndcs_network(rng, int(rng.integers(4, 6)))
            sources, responses, f = random_classical_model(net, rng, 3, 5, real_functions=True)
            rng.integers(2**62)
            p = build_joint_distribution(net, sources, responses)
            c = covariance_matrix(p, f)
            as_complex = OutputFunctions({nm: v.astype(np.complex128) for nm, v in f.values.items()})
            assert c.dtype == np.float64
            assert np.linalg.norm(c - covariance_matrix(p, as_complex)) <= 1e-14 * np.linalg.norm(c)


class TestJointValidation:
    def test_small_negative_clipped(self):
        # Clipped into a new array: the caller's table keeps its entries.
        t = np.array([0.5, 0.5 + 5e-16, -5e-16])
        p = JointDistribution(("A",), t)
        assert p.table.min() == 0.0
        assert not np.shares_memory(p.table, t)
        assert t[2] == -5e-16

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError, match="entry"):
            JointDistribution(("A",), np.array([1.5, -0.5]))

    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            JointDistribution(("A",), np.array([0.7, 0.2]))


@pytest.mark.parametrize("call,message", [
    (lambda net, s, r, f: build_joint_distribution(net, SourceModel(
        {**s.pmfs, "s1": [0.5, 0.5]}), r),
     "source 's1' pmf has 1 slots, network expects 2"),
    (lambda net, s, r, f: build_joint_distribution(net, s, ResponseModel(
        {"A1": r.tables["A1"], "A2": r.tables["A2"]})),
     "no response model for party 'A3'"),
    (lambda net, s, r, f: build_joint_distribution(net, s, ResponseModel(
        {**r.tables, "A1": np.full((2, 2, 2), 0.5)})),
     "party 'A1' response table has 2 signal axes, network expects 1"),
    (lambda net, s, r, f: build_joint_distribution(net, s, ResponseModel(
        {**r.tables, "A1": np.full((3, 2), 0.5)})),
     "party 'A1' response axis 0 has size 3, source 's0' sends alphabet 2"),
    (lambda net, s, r, f: JointDistribution(("A1", "A2"), np.full(2, 0.5)),
     "one table axis per party required"),
    (lambda net, s, r, f: check_independence(
        marginal(build_joint_distribution(net, s, r), ["A1", "A2"]), net, 1e-9),
     "distribution parties do not match the network"),
    (lambda net, s, r, f: covariance_matrix(build_joint_distribution(net, s, r), OutputFunctions(
        {"A1": f.values["A1"], "A3": f.values["A3"]})),
     "no output function for party 'A2'"),
    (lambda net, s, r, f: covariance_matrix(build_joint_distribution(net, s, r), OutputFunctions(
        {**f.values, "A1": [1.0, 0.0, -1.0]})),
     "function for party 'A1' does not match its alphabet"),
    (lambda net, s, r, f: SourceModel({"s0": [1.5, -0.5]}), "source 's0' pmf has negative entries"),
    (lambda net, s, r, f: SourceModel({"s0": [0.5, 0.4]}), "source 's0' pmf does not sum to 1"),
    (lambda net, s, r, f: ResponseModel({"A1": 1.0}), "party 'A1' response table has no output axis"),
    (lambda net, s, r, f: ResponseModel({"A1": [[1.5, -0.5]]}),
     "party 'A1' response table has negative entries"),
    (lambda net, s, r, f: ResponseModel({"A1": [[1.0, 0.0], [0.5, 0.4]]}),
     "party 'A1' conditional pmfs do not sum to 1"),
    (lambda net, s, r, f: OutputFunctions({"A1": [[1.0, -1.0]]}),
     "function for party 'A1' must be a vector"),
    (lambda net, s, r, f: OutputFunctions({"A1": [1.0, np.nan]}),
     "function for party 'A1' has non-finite values"),
    (lambda net, s, r, f: build_joint_distribution(net, s, r).axis_of("B"),
     "party 'B' not in this distribution"),
    (lambda net, s, r, f: marginal(build_joint_distribution(net, s, r), ["A1", "A1"]),
     "subset contains duplicates"),
    (lambda net, s, r, f: model_from_json({"sources": {}, "responses": {}, "functions": [1]}, net),
     "model JSON 'functions' must be an object"),
    (lambda net, s, r, f: model_from_json(
        {"sources": {}, "responses": {"A1": {"alphabet": 2, "table": [1, 0]}}}, net),
     "no source model for 's0'"),
    (lambda net, s, r, f: build_joint_distribution(SLOT_2_NET, SLOT_2_SOURCES, ResponseModel(
        {"A1": np.full((2, 2), 0.5), "A2": np.full((3, 2), 0.5), "A3": np.full((3, 2), 0.5)})),
     "party 'A3' response axis 0 has size 3, source 't' sends alphabet 4"),
    (lambda net, s, r, f: model_from_json({**SLOT_2_JSON, "responses": {
        **SLOT_2_JSON["responses"], "A3": {"alphabet": 2, "table": [0.5] * 6}}}, SLOT_2_NET),
     "party 'A3' table length does not match its signals"),
], ids=["pmf-slots", "no-response", "signal-axes", "alphabet", "joint-axes",
        "independence-parties", "no-function", "function-alphabet", "pmf-negative",
        "pmf-mass", "table-no-output", "table-negative", "table-mass", "function-not-vector",
        "function-non-finite", "axis-unknown", "marginal-duplicate", "json-functions",
        "json-no-source", "slot-2-alphabet", "json-slot-2-table-length"])
def test_input_checks(path_net, path_model, call, message):
    # Each model is valid but for the one mismatch the call must name.
    with pytest.raises(ValueError, match=re.escape(message)):
        call(path_net, *path_model)


class TestNonFiniteRejected:
    # Every other check is a comparison that a NaN fails silently.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_source_pmf(self, bad):
        with pytest.raises(ValueError, match="source 's0' pmf has non-finite entries"):
            SourceModel({"s0": [[0.5, bad], [0.0, 0.5]]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_response_table(self, bad):
        with pytest.raises(ValueError, match="party 'A1' response table has non-finite"):
            ResponseModel({"A1": [[1.0, 0.0], [bad, 1.0]]})

    @pytest.mark.parametrize("bad,what", [(np.nan, "entry"), (-np.inf, "entry"), (np.inf, "mass")])
    def test_joint_table(self, bad, what):
        table = np.array([[0.5, bad], [0.0, 0.5]])
        with pytest.raises(ValueError, match=rf"parties \('A1', 'A2'\) has {what}"):
            JointDistribution(("A1", "A2"), table)
