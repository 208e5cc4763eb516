"""Gaussian network sampler: realize a decomposable matrix as an actual
network covariance.

Each source draws a zero-mean multivariate Gaussian with its term's block
covariance and sends one coordinate to each adjacent party; every party
outputs the sum of its received coordinates.  The population covariance of
the outputs is then exactly the sum of the terms.

Randomness comes from numpy's Philox counter-based generator, keyed by the
model seed with one jumped stream per source, so batches reproduce exactly
for a fixed seed (per numpy build; the variates are numpy's
``Generator.standard_normal`` on the Philox streams).

Memory: besides the ``count x n`` output, ``sample`` allocates two flat
buffers of ``count x b_max`` floats, ``b_max`` the largest source's party
count, and reuses them for every source.  Each source's draws and their
product with its factor go into those buffers, and each product column is
added into its party's output column in place; the samples are the same,
bit for bit, as drawing a fresh array per source.
"""

from typing import NamedTuple

import numpy as np

from .linalg import _psd_factor, is_psd
from .network import Network

TERM_PSD_TOL = 1e-8
SUPPORT_ATOL = 1e-12


class _GaussianNetworkModelFields(NamedTuple):
    net: Network
    terms: dict[str, np.ndarray]
    seed: int


class GaussianNetworkModel(_GaussianNetworkModelFields):
    """Per-source real PSD covariance terms (full n x n arrays supported on
    each source's block) plus a seed in [0, 2**64).  A complex term is
    accepted only if its imaginary part is within ``SUPPORT_ATOL`` of zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, net, terms, seed):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        n = net.n_parties
        for name in net.source_names:
            if name not in terms:
                raise ValueError(f"no covariance term for source '{name}'")
        checked = {}
        for name, term in terms.items():
            a = net.source_index(name)
            term = np.asarray(term)
            if not np.isfinite(term).all():
                raise ValueError(f"term '{name}' has a non-finite entry")
            if np.iscomplexobj(term):
                if np.any(np.abs(term.imag) > SUPPORT_ATOL):
                    raise ValueError(f"term '{name}' is complex; Gaussian terms must be real")
                term = term.real
            term = term.astype(np.float64, copy=False)
            if term.shape != (n, n):
                raise ValueError(f"term '{name}' must be {n}x{n}")
            if np.max(np.abs(term - term.T)) > SUPPORT_ATOL:
                raise ValueError(f"term '{name}' is not symmetric")
            supp = np.zeros((n, n), dtype=bool)
            block = np.ix_(net.sources[a], net.sources[a])
            supp[block] = True
            if np.any(np.abs(term[~supp]) > SUPPORT_ATOL):
                raise ValueError(f"term '{name}' has entries outside its block")
            if not is_psd(term[block], TERM_PSD_TOL):
                raise ValueError(f"invalid source covariance '{name}': not PSD")
            checked[name] = term
        return super().__new__(cls, net, checked, seed)


class _SampleBatchFields(NamedTuple):
    samples: np.ndarray  # (count, n_parties) float64


class SampleBatch(_SampleBatchFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, samples):
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("batch must hold at least one sample")
        return super().__new__(cls, samples)

    @property
    def count(self) -> int:
        return int(self.samples.shape[0])


def sample(model: GaussianNetworkModel, count: int) -> SampleBatch:
    """Draw ``count`` joint output samples; deterministic given the seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    net = model.net
    out = np.zeros((count, net.n_parties), dtype=np.float64)
    size = count * max(map(len, net.sources), default=0)
    draws, mixed = np.empty(size), np.empty(size)
    base = np.random.Philox(key=np.uint64(model.seed))
    for a, (name, adj) in enumerate(zip(net.source_names, net.sources)):
        # The model admitted the term by is_psd at TERM_PSD_TOL; the factor
        # zeroes the small negative eigenvalues that tolerance lets through.
        factor = _psd_factor(model.terms[name][np.ix_(adj, adj)])
        b = len(adj)
        z, y = draws[: count * b].reshape(count, b), mixed[: count * b].reshape(count, b)
        np.random.Generator(base.jumped(a)).standard_normal(out=z)
        np.matmul(z, factor.T, out=y)
        for col, i in enumerate(adj):
            out[:, i] += y[:, col]
    return SampleBatch(out)


def sample_covariance(batch: SampleBatch) -> np.ndarray:
    """Empirical covariance with 1/(count - 1) normalization."""
    if batch.count < 2:
        raise ValueError("need at least two samples")
    x = batch.samples - batch.samples.mean(axis=0)
    cov = (x.T @ x) / (batch.count - 1)
    return 0.5 * (cov + cov.T)


def write_csv(path, batch: SampleBatch) -> None:
    np.savetxt(path, batch.samples, delimiter=",")
