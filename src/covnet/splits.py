"""The splits of M as one stack of source blocks, for ``solver``: the equal
split, the comparison split and the barrier's moves, log det and its
closed-form derivatives, and witness assembly."""

import functools

import numpy as np

from .network import Network


def _h(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)  # the conjugate transpose of each matrix


class _Splits:
    """Source blocks of M as one stack of affine functions of z = (x, lambda).

    Block a is the top-left corner of ``base[a]``, the equal split, padded
    with the identity, which adds 0 to log det and to every derivative.  A
    move (a, p, q, k, u) adds z_k u at (p, q) of block a and its conjugate
    at (q, p).  A share's two moves carry part of one entry from one of its
    sources to the last (u = 1 or 1j off the diagonal, 1/2 on it); lambda,
    the last entry of z, moves -1/2 on every diagonal, so the stack at z
    holds the S_a = X_a - lambda I.  ``moves`` are listed on first use.
    """

    def __init__(self, net: Network, m: np.ndarray):
        self.ix = net.blocks()
        self.grids = [np.ix_(ix, ix) for ix in self.ix]
        self.owners = np.zeros((net.n_parties,) * 2, dtype=np.intp)
        for g in self.grids:
            self.owners[g] += 1
        width = max(map(len, self.ix), default=0)
        self.base = np.tile(np.eye(width, dtype=m.dtype), (len(self.ix), 1, 1))
        for b, ix, g in zip(self.base, self.ix, self.grids):
            b[: len(ix), : len(ix)] = m[g] / self.owners[g]
        self.units = (1.0, 1j) if np.any(m.imag) else (1.0,)
        self.holders = net._holders()  # entry (i, j), i <= j: its holders (a, p, q)

    @functools.cached_property
    def moves(self) -> tuple:
        """The size of z; for every move (a, p, q, k, u), the positions of the
        real and imaginary parts (real alone if real) of (p, q) in the stack
        read as floats, k and Re u, Im u; for every pair of moves (p, q, k, u),
        (r, s, l, v) in one block, k * size + l, the indices of P_qr, P_qs,
        P_sp and P_rp, and the weights 2uv and 2u conj(v)."""
        moves, size = [], 0
        for (i, j), (*movers, last) in self.holders.items():
            for unit in self.units if i != j else (0.5,):
                for mover in movers:
                    moves += [(*mover, size, unit), (*last, size, -unit)]
                    size += 1
        moves += [(a, p, p, size, -0.5) for a, ix in enumerate(self.ix) for p in range(len(ix))]
        in_block = [[] for _ in self.ix]
        for n, move in enumerate(moves):
            in_block[move[0]].append(n)
        i, j = np.array([(x, y) for ns in in_block for x in ns for y in ns]).T
        a, p, q, k, u = (np.array(c) for c in zip(*moves))
        width, size, parts = self.base.shape[-1], size + 1, self.base.itemsize // 8
        at = parts * ((a * width + p) * width + q)  # (p, q) in the stack read as floats
        pair_at = (a[i], np.array([q[i], q[i], q[j], p[j]]), np.array([p[j], q[j], p[i], p[i]]))
        pair_u = np.array([2 * u[i] * u[j], 2 * u[i] * u[j].conj()])
        return (size, np.array([at, at + 1][:parts]), k, np.array([u.real, u.imag][:parts]),
                k[i] * size + k[j], pair_at, pair_u)

    size = property(lambda self: self.moves[0])

    def moved(self, z: np.ndarray) -> np.ndarray:
        """The stack of sum_k z_k G_ak: T + T^H, T one scatter (a bincount)."""
        _, at, k, u, *_ = self.moves
        out = np.bincount(at.ravel(), weights=(z[k] * u).ravel(), minlength=self.base.nbytes // 8)
        out = out.view(self.base.dtype).reshape(self.base.shape)
        return out + _h(out)

    def blocks(self, z: np.ndarray) -> np.ndarray:
        """The stack of S_a at z; of X_a when lambda, the last entry, is 0."""
        return self.base + self.moved(z)

    def log_det(self, z: np.ndarray):
        """Sum of log det S_a and, from one batched ``eigh`` of the stack S_a =
        V diag(w) V^H, the factors F_a = diag(w)^-1/2 V^H (F_a^H F_a = P_a =
        S_a^-1); None when some S_a is not positive definite."""
        w, v = np.linalg.eigh(self.blocks(z))
        if not w[:, 0].min() > 0:
            return None
        return float(np.log(w).sum()), _h(v / np.sqrt(w)[:, None, :])

    def derivatives(self, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of -sum_a log det S_a from P = F^H F, F from
        ``log_det``: a move (p, q, u) adds 2 Re(u P_qp) to tr(P G), and a pair
        adds 2 Re(u v P_qr P_sp + u conj(v) P_qs P_rp) to tr(P G P G')."""
        size, at, k, u, pair_k, pair_at, pair_u = self.moves
        p = _h(factors) @ factors
        g = p[pair_at]
        hess = np.bincount(pair_k, (pair_u * g[:2] * g[2:]).sum(0).real, size * size)
        grad = np.bincount(k, (-2 * u * p.reshape(-1).view(np.float64)[at]).sum(0), size)
        return grad, hess.reshape(size, size)

    def embed(self, stack):
        """Each block of ``stack`` as a dense n x n matrix, made on demand."""
        for ix, g, b in zip(self.ix, self.grids, stack):
            full = np.zeros(self.owners.shape, dtype=b.dtype)
            full[g] = b[: len(ix), : len(ix)]
            yield full


def _assemble(splits: _Splits, z: np.ndarray) -> np.ndarray:
    """A Hermitian W whose source blocks dominate those of the Hermitian
    stack ``z``: an off-diagonal entry is its holders' mean, and a diagonal
    one the largest over its holders of (Z_a)_ii + sum_j |W_ij - (Z_a)_ij|,
    so every W_a - Z_a is diagonally dominant, hence PSD."""
    w = sum(splits.embed(z)) / np.maximum(splits.owners, 1)
    diag = np.zeros(len(w))
    for ix, g, za in zip(splits.ix, splits.grids, z):
        za = za[: len(ix), : len(ix)]
        diag[ix] = np.maximum(diag[ix], za.diagonal().real + np.abs(w[g] - za).sum(1))
    np.fill_diagonal(w, diag)
    return w


def _comparison(splits: _Splits, m: np.ndarray, tol: float) -> tuple[bool, np.ndarray] | None:
    """The answer for m (unit Frobenius norm) read off one ``eigh`` of C, the
    comparison matrix of m over the entries that some source holds.

    When lambda_min(C) > -``tol``/2, C + tol/2 I is a nonsingular M-matrix,
    so v = (C + tol/2 I)^-1 1 >= 1/(c_ii + tol/2) > 0 (Berman & Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, ch. 6).  This gives
    True and the comparison split, on any network: each held pair (i, j) goes
    to its first holder as [[|m_ij| v_j/v_i, m_ij], [conj(m_ij), |m_ij|
    v_i/v_j]], of rank one, and each party's first source takes the rest of
    m_ii, (C v)_i / v_i = 1/v_i - tol/2.  Below -``tol`` on an all-bipartite
    network, where C is PSD iff m is feasible (Horn & Johnson, *Topics in
    Matrix Analysis*, 2.5), the moduli u of the smallest eigenvalue's
    eigenvector give False and the comparison witness W_ii = u_i^2, W_ij =
    -u_i u_j phase(m_ij) on held pairs: its blocks are rank one and <W, m> =
    u^T C u <= lambda_min.  Otherwise None.  The caller verifies either."""
    i, j = np.array(list(splits.holders)).T
    x = m[i, j]
    c = np.zeros_like(m)  # m's dtype: the LAPACK family the barrier uses too
    c[i, j] = c[j, i] = -abs(x)
    np.fill_diagonal(c, m.diagonal())
    lam, vecs = np.linalg.eigh(c)
    if lam[0] < -tol and all(len(ix) == 2 for ix in splits.ix):
        u = abs(vecs[:, 0])
        w = np.zeros_like(m)
        with np.errstate(invalid="ignore"):  # a zero modulus takes phase 1
            w[i, j] = -u[i] * u[j] * np.where(x == 0, 1.0, x / abs(x))
        w = w + _h(w)
        np.fill_diagonal(w, u * u)
        return False, w
    if not lam[0] + tol / 2 > 0:
        return None
    inv = vecs / (lam + tol / 2) @ _h(vecs)  # (C + tol/2 I)^-1
    v = inv @ np.ones(len(m))
    v = (v + inv @ (1 - c @ v - tol / 2 * v)).real  # one step of iterative refinement
    if not v.min() > 0:
        return None
    rest, stack = (c @ v).real / v, np.zeros_like(splits.base)
    for (i, j), ((a, p, q), *_) in splits.holders.items():
        if i == j:
            stack[a, p, p] += rest[i]
            continue
        y = m[i, j]
        stack[a, p, q], stack[a, q, p] = y, y.conjugate()
        stack[a, p, p] += abs(y) * v[j] / v[i]
        stack[a, q, q] += abs(y) * v[i] / v[j]
    return True, stack
