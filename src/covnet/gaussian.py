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

from typing import NamedTuple

import numpy as np

from .linalg import TOL, _integer, _psd_factor, as_hermitian, frobenius_norm
from .network import Network, _each
from .solver import Decomposition, verify_decomposition

_BLOCK = 8192  # floats per scratch buffer (64 KiB)


class _GaussianNetworkModelFields(NamedTuple):
    net: Network
    terms: dict[str, np.ndarray]
    seed: int


class GaussianNetworkModel(_GaussianNetworkModelFields):
    """Per-source real PSD covariance terms (full n x n arrays supported on
    each source's block) plus a seed in [0, 2**64).  ``verify_decomposition``
    admits the terms against their own sum at ``linalg.TOL``, the default
    tolerance of ``decompose``; a complex term must have its imaginary part
    within that same bound of zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, net, terms, seed):
        seed = _integer("seed", seed, 0, 2**64)
        _each(net.source_names, terms, "covariance term for source")
        real = {name: np.real(term).astype(np.float64, copy=False) for name, term in terms.items()}
        # A term of the wrong shape or with a non-finite entry stays out of
        # the sum, which must be a valid matrix; verify_decomposition names it.
        n = net.n_parties
        valid = [t for t in real.values() if t.shape == (n, n) and np.isfinite(t).all()]
        total = as_hermitian(sum(valid, np.zeros((n, n))), atol=np.inf)
        bound = TOL * (frobenius_norm(total) or 1.0)
        for name, term in terms.items():
            if np.iscomplexobj(term) and not (np.abs(np.imag(term)) <= bound).all():
                raise ValueError(f"term '{name}' is complex; Gaussian terms must be real")
        found = verify_decomposition(net, total, Decomposition(real, total, 0.0), TOL)
        if not found:
            raise ValueError(f"invalid source covariance: {'; '.join(found.reasons)}")
        return super().__new__(cls, net, real, seed)


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
    count = _integer("count", count, 1)
    net = model.net
    out = np.zeros((count, net.n_parties), dtype=np.float64)
    b_max = max(map(len, net.sources), default=0)
    size = min(count, _rows(b_max)) * b_max
    draws, mixed = np.empty(size), np.empty(size)
    base = np.random.Philox(key=np.uint64(model.seed))
    for a, (name, adj) in enumerate(zip(net.source_names, net.sources)):
        # The model admitted eigenvalues down to -linalg.TOL times
        # ||sum of terms||_F; the factor zeroes such small negative ones.
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
