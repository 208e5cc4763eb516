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

Memory: besides the ``count x n`` output, ``sample`` holds two buffers of
at most 64 KiB (8192 floats) whatever ``count`` is, and reuses them for
every source and every block of rows.  Each source walks the rows in even
blocks of at most ``8192 // b_max`` rows (``b_max`` the largest source's
party count): the block's draws come from the source's one generator, their
product with its factor goes into the second buffer, and each product
column is added into its party's output column in place.  A generator fills
its draws in stream order whatever the block size, so the samples are the
same, bit for bit, as drawing a fresh ``count x b`` array per source.
``sample_covariance`` likewise holds one block of at most 64 KiB of centred
rows beside its ``n x n`` result.
"""

import operator
from typing import NamedTuple

import numpy as np

from .linalg import _psd_factor, is_psd
from .network import Network

TERM_PSD_TOL = 1e-8
SUPPORT_ATOL = 1e-12
_BLOCK = 8192  # floats per scratch buffer (64 KiB)


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
        if samples.dtype.kind != "f":
            raise ValueError(f"samples must be real floating point, got {samples.dtype}")
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("batch must hold at least one sample")
        return super().__new__(cls, samples)

    @property
    def count(self) -> int:
        return int(self.samples.shape[0])


def _rows(width: int) -> int:
    """Most rows of ``width`` floats in one block: ``_BLOCK`` floats, or one row."""
    return max(1, _BLOCK // max(width, 1))


def _spans(count: int, width: int):
    """Rows ``0..count`` as slices in the fewest blocks of at most
    ``_rows(width)`` rows, their sizes differing by at most one.  Even blocks
    leave no last block of a single row after longer ones: numpy multiplies
    a single row by a vector-matrix product, whose rounding can differ from
    the matrix-matrix product of the other rows."""
    blocks = -(-count // _rows(width))
    return (slice(k * count // blocks, (k + 1) * count // blocks) for k in range(blocks))


def sample(model: GaussianNetworkModel, count: int) -> SampleBatch:
    """Draw ``count`` joint output samples; deterministic given the seed."""
    try:
        count = operator.index(count)
    except TypeError:
        raise ValueError(f"count must be an integer, got {count!r}") from None
    if count < 1:
        raise ValueError("count must be >= 1")
    net = model.net
    out = np.zeros((count, net.n_parties), dtype=np.float64)
    b_max = max(map(len, net.sources), default=0)
    size = min(count, _rows(b_max)) * b_max
    draws, mixed = np.empty(size), np.empty(size)
    base = np.random.Philox(key=np.uint64(model.seed))
    for a, (name, adj) in enumerate(zip(net.source_names, net.sources)):
        # The model admitted the term by is_psd at TERM_PSD_TOL; the factor
        # zeroes the small negative eigenvalues that tolerance lets through.
        factor = _psd_factor(model.terms[name][np.ix_(adj, adj)])
        b = len(adj)
        gen = np.random.Generator(base.jumped(a))
        for rows in _spans(count, b_max):
            r = rows.stop - rows.start
            z, y = draws[: r * b].reshape(r, b), mixed[: r * b].reshape(r, b)
            gen.standard_normal(out=z)
            np.matmul(z, factor.T, out=y)
            for col, i in enumerate(adj):
                out[rows, i] += y[:, col]
    return SampleBatch(out)


def sample_covariance(batch: SampleBatch) -> np.ndarray:
    """Empirical covariance with 1/(count - 1) normalization: the mean of the
    whole batch first, then the centred rows' products summed block by block."""
    count, n = batch.samples.shape
    if count < 2:
        raise ValueError("need at least two samples")
    mean = batch.samples.mean(axis=0)
    centred = np.empty((min(count, _rows(n)), n), dtype=mean.dtype)
    cov = np.zeros((n, n), dtype=mean.dtype)
    for rows in _spans(count, n):
        block = batch.samples[rows]
        c = centred[: len(block)]
        # Column by column: subtracting the broadcast mean row in one call
        # would make numpy buffer it in a second block-sized array.
        for j in range(n):
            np.subtract(block[:, j], mean[j], out=c[:, j])
        cov += c.T @ c
    cov /= count - 1
    return 0.5 * (cov + cov.T)


def write_csv(path, batch: SampleBatch) -> None:
    np.savetxt(path, batch.samples, delimiter=",")
