"""Gaussian network sampler: exactness of the construction and the
reproducibility contract."""

import tracemalloc
import warnings

import numpy as np
import pytest

from covnet.gaussian import _BLOCK, GaussianNetworkModel, SampleBatch, sample, sample_covariance
from covnet.linalg import _psd_factor
from covnet.network import Network
from covnet.solver import Feasibility, decompose
from support import run_fresh_python

PATH_M = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]], dtype=float)
PATH_TERMS = {
    "s0": np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=float),
    "s1": np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=float),
}


@pytest.fixture
def pair_net():
    return Network(("A1", "A2"), ("s",), ((0, 1),))


def _reference_sample(model, count):
    """The per-source loop: a fresh draw, its product with the factor and a
    fancy-indexed add for every source."""
    net = model.net
    out = np.zeros((count, net.n_parties), dtype=np.float64)
    base = np.random.Philox(key=np.uint64(model.seed))
    for a, (name, adj) in enumerate(zip(net.source_names, net.sources)):
        ix = list(adj)
        factor = _psd_factor(model.terms[name][np.ix_(ix, ix)])
        gen = np.random.Generator(base.jumped(a))
        out[:, ix] += gen.standard_normal((count, len(ix))) @ factor.T
    return out


def _random_model(rng, n, b_max=3):
    """A model on n parties with random incomparable sources of one to
    ``b_max`` parties, each with a random real PSD term, some rank-deficient."""
    sources = []
    for _ in range(3 * n):
        size = int(rng.integers(1, min(b_max, n) + 1))
        adj = set(int(i) for i in rng.choice(n, size=size, replace=False))
        if not any(adj <= s or s <= adj for s in sources):
            sources.append(adj)
    covered = set().union(*sources)
    sources += [{i} for i in range(n) if i not in covered]
    sources = [tuple(sorted(s)) for s in sources]
    net = Network(tuple(f"A{i+1}" for i in range(n)),
                  tuple(f"s{a}" for a in range(len(sources))), tuple(sources))
    terms = {}
    for name, adj in zip(net.source_names, net.sources):
        g = rng.standard_normal((len(adj), int(rng.integers(1, len(adj) + 1))))
        terms[name] = np.zeros((n, n))
        terms[name][np.ix_(adj, adj)] = g @ g.T
    return GaussianNetworkModel(net, terms, int(rng.integers(2**63)))


def _five_party_model():
    """Five parties, sources of three, two and three parties: b_max = 3."""
    net = Network(tuple(f"A{i+1}" for i in range(5)), ("s0", "s1", "s2"),
                  ((0, 1, 2), (2, 3), (0, 3, 4)))
    terms = {name: np.diag(np.isin(np.arange(5), adj).astype(float))
             for name, adj in zip(net.source_names, net.sources)}
    return GaussianNetworkModel(net, terms, seed=9)


def _allocated_above(call):
    """``call()``'s result and the tracemalloc peak it reached above the
    memory traced before it, less the result's own bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before - result.nbytes


class TestSample:
    def test_zero_terms_zero_outputs(self, path_net):
        model = GaussianNetworkModel(
            path_net, {"s0": np.zeros((3, 3)), "s1": np.zeros((3, 3))}, seed=1
        )
        batch = sample(model, 100)
        assert np.all(batch.samples == 0.0)

    def test_rank_one_source_perfectly_correlated(self, pair_net):
        model = GaussianNetworkModel(pair_net, {"s": np.ones((2, 2))}, seed=7)
        batch = sample(model, 5000)
        assert np.allclose(batch.samples[:, 0], batch.samples[:, 1])
        assert np.var(batch.samples[:, 0]) == pytest.approx(1.0, abs=0.1)

    def test_path_population_covariance(self, path_net):
        model = GaussianNetworkModel(path_net, PATH_TERMS, seed=42)
        est = sample_covariance(sample(model, 200_000))
        se = 5 * np.sqrt(
            (np.outer(np.diag(PATH_M), np.diag(PATH_M)) + PATH_M**2) / 200_000
        )
        assert np.all(np.abs(est - PATH_M) <= se)

    def test_uncoupled_parties_uncorrelated(self, path_net):
        model = GaussianNetworkModel(path_net, PATH_TERMS, seed=3)
        est = sample_covariance(sample(model, 100_000))
        assert abs(est[0, 2]) <= 0.02

    def test_seed_reproducibility(self, path_net):
        model = GaussianNetworkModel(path_net, PATH_TERMS, seed=11)
        a = sample(model, 1000).samples
        b = sample(model, 1000).samples
        assert np.array_equal(a, b)
        other = GaussianNetworkModel(path_net, PATH_TERMS, seed=12)
        assert not np.array_equal(a, sample(other, 1000).samples)

    def test_matches_per_source_reference(self):
        rng = np.random.default_rng(2024)
        sizes = set()
        for n in range(2, 7):
            for _ in range(4):
                model = _random_model(rng, n)
                sizes.update(len(adj) for adj in model.net.sources)
                for count in (1, 2, 10_000):
                    assert np.array_equal(sample(model, count).samples,
                                          _reference_sample(model, count))
        assert sizes == {1, 2, 3}
        # Counts around one block of rows, where the sampler's walk ends
        # inside, at and just past its first block.
        for b_max in (1, 2, 3):
            for n in (3, 5):
                model = _random_model(rng, n, b_max)
                while max(map(len, model.net.sources)) < b_max:
                    model = _random_model(rng, n, b_max)
                rows = _BLOCK // b_max
                for count in (rows - 1, rows, rows + 1):
                    assert np.array_equal(sample(model, count).samples,
                                          _reference_sample(model, count))

    def test_memory_is_two_buffers_above_the_output(self):
        net = Network(tuple(f"A{i+1}" for i in range(5)), ("s0", "s1", "s2"),
                      ((0, 1, 2), (2, 3), (0, 3, 4)))
        terms = {name: np.diag(np.isin(np.arange(5), adj).astype(float))
                 for name, adj in zip(net.source_names, net.sources)}
        model = GaussianNetworkModel(net, terms, seed=9)
        count, b_max = 200_000, 3
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = sample(model, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before - batch.samples.nbytes <= 2 * count * b_max * 8 + 64 * 1024

    def test_memory_is_two_fixed_blocks_above_the_output(self):
        batch, above = _allocated_above(lambda: sample(_five_party_model(), 200_000).samples)
        assert batch.shape == (200_000, 5)
        assert above <= 2 * 8192 * 8 + 64 * 1024

    def test_count_must_be_an_integer(self, path_net):
        model = GaussianNetworkModel(path_net, PATH_TERMS, seed=0)
        with pytest.raises(ValueError, match="count must be an integer"):
            sample(model, 2.5)
        assert np.array_equal(sample(model, np.int64(5)).samples, sample(model, 5).samples)

    def test_count_must_not_be_a_bool(self, path_net):
        # operator.index read True as a count of 1.
        model = GaussianNetworkModel(path_net, PATH_TERMS, seed=0)
        with pytest.raises(ValueError, match="count must be an integer, got True"):
            sample(model, True)

    def test_numpy_integer_seed_and_count_sample_alike(self, path_net):
        batch = sample(GaussianNetworkModel(path_net, PATH_TERMS, seed=np.uint64(2**64 - 1)),
                       np.int64(300))
        expect = sample(GaussianNetworkModel(path_net, PATH_TERMS, seed=2**64 - 1), 300)
        assert batch.samples.tobytes() == expect.samples.tobytes()

    def test_invalid_count(self, path_net):
        model = GaussianNetworkModel(path_net, PATH_TERMS, seed=0)
        with pytest.raises(ValueError):
            sample(model, 0)


class TestModelValidation:
    def test_non_psd_term_rejected(self, pair_net):
        with pytest.raises(ValueError, match="invalid source covariance"):
            GaussianNetworkModel(pair_net, {"s": np.array([[1.0, 2.0], [2.0, 1.0]])}, 0)

    def test_non_finite_term_rejected(self, pair_net):
        with pytest.raises(ValueError, match="term 's' has a non-finite entry"):
            GaussianNetworkModel(pair_net, {"s": np.array([[np.nan, 0.0], [0.0, 1.0]])}, 0)

    def test_tiny_non_psd_term_rejected(self, pair_net):
        # Eigenvalues -1e-9 and 3e-9: negative far beyond 1e-7 of the term's norm.
        with pytest.raises(ValueError, match="invalid source covariance"):
            GaussianNetworkModel(pair_net, {"s": 1e-9 * np.array([[1.0, 2.0], [2.0, 1.0]])}, 0)

    def test_admits_the_terms_decompose_returns(self):
        # The barrier stops once lambda >= -tol, so its terms may have
        # eigenvalues down to -TOL * ||M||_F: the model admits them at TOL.
        net = Network(("A1", "A2", "A3", "A4"), ("a", "b", "c"), ((0, 1), (1, 2), (0, 2, 3)))
        m = np.array([[5, 2, 1, 1], [2, 2, 1, 0], [1, 1, 2, 1], [1, 0, 1, 1]], dtype=float)
        res = decompose(net, m)
        assert res.status is Feasibility.FEASIBLE and res.sweeps > 0
        batch = sample(GaussianNetworkModel(net, res.decomposition.terms, 0), 100)
        assert batch.count == 100 and np.isfinite(batch.samples).all()

    def test_support_violation_rejected(self, path_net):
        bad = dict(PATH_TERMS)
        t = bad["s0"].copy()
        t[0, 2] = t[2, 0] = 0.5
        bad["s0"] = t
        with pytest.raises(ValueError, match="outside its block"):
            GaussianNetworkModel(path_net, bad, 0)

    def test_missing_term_rejected(self, path_net):
        with pytest.raises(ValueError, match="no covariance term"):
            GaussianNetworkModel(path_net, {"s0": PATH_TERMS["s0"]}, 0)

    def test_caller_terms_not_mutated(self, pair_net):
        terms = {"s": [[1.0, 0.5], [0.5, 1.0]]}
        model = GaussianNetworkModel(pair_net, terms, 1)
        assert terms == {"s": [[1.0, 0.5], [0.5, 1.0]]}
        assert isinstance(model.terms["s"], np.ndarray)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, pair_net, seed):
        with pytest.raises(ValueError, match="seed"):
            GaussianNetworkModel(pair_net, {"s": np.ones((2, 2))}, seed=seed)

    # Philox keyed by np.uint64(seed) truncated 1.2 and 1.7 to the same seed.
    @pytest.mark.parametrize("seed", [1.2, 1.7, 2.0, "1", None, True])
    def test_seed_must_be_an_integer(self, pair_net, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            GaussianNetworkModel(pair_net, {"s": np.ones((2, 2))}, seed=seed)

    def test_complex_term_rejected(self, pair_net):
        t = np.array([[1, 1 + 0.5j], [1 - 0.5j, 1]])
        with pytest.raises(ValueError, match="complex"):
            GaussianNetworkModel(pair_net, {"s": t}, 0)

    def test_complex_term_with_zero_imaginary_part_accepted(self, pair_net):
        t = np.array([[1, 0.5], [0.5, 1]], dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = GaussianNetworkModel(pair_net, {"s": t}, 0)
        assert model.terms["s"].dtype == np.float64
        assert np.array_equal(model.terms["s"], t.real)


class TestSampleCovariance:
    def test_constant_batch_zero(self):
        batch = SampleBatch(np.ones((10, 2)))
        assert np.array_equal(sample_covariance(batch), np.zeros((2, 2)))

    def test_two_sample_example(self):
        batch = SampleBatch(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.array_equal(sample_covariance(batch), np.array([[2.0, -2.0], [-2.0, 2.0]]))

    def test_blocks_match_the_centred_product_in_one_block_of_memory(self):
        rng = np.random.default_rng(31)
        n = 5
        rows = _BLOCK // n
        for count in (rows // 3, 3 * rows, 3 * rows + 17, 200_001):
            x = rng.standard_normal((count, n)) @ rng.standard_normal((n, n)) + rng.standard_normal(n)
            batch = SampleBatch(x)
            cov, above = _allocated_above(lambda: sample_covariance(batch))
            assert above <= rows * n * 8 + 64 * 1024
            c = x - x.mean(axis=0)
            ref = c.T @ c / (count - 1)
            assert np.linalg.norm(cov - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(cov, cov.T)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sample_covariance(SampleBatch(np.ones((1, 2))))

    @pytest.mark.parametrize("samples", [
        np.array([[1 + 1j, 0], [-1 - 1j, 0], [1j, 1]]),  # would give (0, 0) = -0.33+2j
        np.ones((3, 2), dtype=bool),
        np.ones((3, 2), dtype=object),
    ])
    def test_rejects_non_real_samples(self, samples):
        with pytest.raises(ValueError, match="real floating point"):
            SampleBatch(samples)


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_batch_holds_at_least_one_sample(rows):
    samples = np.zeros((rows, 2))
    if rows:
        assert SampleBatch(samples).count == rows
    else:
        with pytest.raises(ValueError, match="batch must hold at least one sample"):
            SampleBatch(samples)


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is slow to import, and covnet uses none of it.
    out = run_fresh_python("import sys, covnet; print('scipy.special' in sys.modules)")
    assert out.strip() == "False"


def test_sample_leaves_scipy_special_unloaded():
    out = run_fresh_python(
        "import sys, numpy as np\n"
        "from covnet.gaussian import GaussianNetworkModel, sample\n"
        "from covnet.network import Network\n"
        "net = Network(('A1', 'A2'), ('s',), ((0, 1),))\n"
        "sample(GaussianNetworkModel(net, {'s': np.ones((2, 2))}, 5), 10)\n"
        "print('scipy.special' in sys.modules)"
    )
    assert out.strip() == "False"
