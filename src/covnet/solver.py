"""Feasibility of source-wise PSD decompositions, with certificates.

A matrix M is feasible for a network when it splits as a sum of PSD terms,
one per source, each supported on that source's party block.  Three
verdicts are possible:

* feasible, with an explicit verified decomposition;
* infeasible, with a verified dual witness: a matrix whose source blocks
  are all PSD but whose inner product with M is negative (no decomposition
  can coexist with such a witness, since the inner product of a dual
  element with any decomposable matrix is a sum of PSD-against-PSD block
  traces and hence nonnegative);
* undecided, when neither certificate is reached within tolerance.

For networks whose sources are all bipartite there is an exact fast test:
M is feasible iff its comparison matrix (diagonal kept, off-diagonal entries
replaced by minus their modulus) is PSD.

The general solver runs cyclic block projections: each source term is
repeatedly replaced by the PSD projection of its block of the current
slack.  The sweep loop is compiled (covnet._sweep_cy) when the extension is
available and falls back to pure numpy (covnet._sweep_py); set
COVNET_PURE_PYTHON=1 to force the fallback.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

import numpy as np

from . import _sweep_py
from .linalg import (
    as_hermitian,
    comparison_matrix,
    frobenius_norm,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    psd_project,
)
from .network import Network

if os.environ.get("COVNET_PURE_PYTHON"):
    _sweep_cy = None
else:
    try:
        from . import _sweep_cy
    except ImportError:
        _sweep_cy = None


def available_backends() -> tuple[str, ...]:
    return ("compiled", "python") if _sweep_cy is not None else ("python",)


def solver_backend() -> str:
    """Name of the sweep kernel used by default."""
    return available_backends()[0]


def _kernel(backend: str | None):
    if backend is None:
        backend = solver_backend()
    if backend == "compiled":
        if _sweep_cy is None:
            raise ValueError("compiled backend is not available")
        return _sweep_cy
    if backend == "python":
        return _sweep_py
    raise ValueError(f"unknown backend '{backend}'")


class Feasibility(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class SolverOptions:
    max_sweeps: int = 20_000
    feasibility_tol: float = 1e-7  # relative to max(1, ||M||_F)
    stall_tol: float = 1e-12  # relative residual decrease per sweep

    def __post_init__(self):
        if self.max_sweeps <= 0 or self.feasibility_tol <= 0 or self.stall_tol <= 0:
            raise ValueError("solver options must be positive")


@dataclass(frozen=True)
class Decomposition:
    """Map from source name to an n x n PSD term supported on that source's
    block, summing to ``target`` up to ``residual_norm``."""

    terms: dict[str, np.ndarray]
    target: np.ndarray
    residual_norm: float

    def total(self) -> np.ndarray:
        out = np.zeros_like(self.target)
        for t in self.terms.values():
            out = out + t
        return out

    def to_json(self) -> dict:
        return {
            "target": matrix_to_json(self.target),
            "terms": {name: matrix_to_json(t) for name, t in self.terms.items()},
            "residual": float(self.residual_norm),
        }


def decomposition_from_json(obj: dict) -> Decomposition:
    target = matrix_from_json(obj["target"])
    terms = {name: matrix_from_json(t) for name, t in obj["terms"].items()}
    return Decomposition(terms, target, float(obj.get("residual", 0.0)))


@dataclass(frozen=True)
class DualWitness:
    """Infeasibility certificate: every source block of ``w`` is PSD and
    Re tr(w^H m) = ``inner_product`` is strictly negative."""

    w: np.ndarray
    inner_product: float

    def to_json(self) -> dict:
        return {"w": matrix_to_json(self.w), "inner_product": float(self.inner_product)}


def witness_from_json(obj: dict) -> DualWitness:
    return DualWitness(matrix_from_json(obj["w"]), float(obj["inner_product"]))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class DecomposeResult:
    status: Feasibility
    decomposition: Decomposition | None = None
    witness: DualWitness | None = None
    sweeps: int = 0
    residual_norm: float = 0.0
    residual_history: np.ndarray | None = None
    message: str = ""


def fast_check_bipartite(net: Network, m, tol: float) -> Feasibility:
    """Exact feasibility test for bipartite-source networks: feasible iff
    the comparison matrix is PSD.  Entries on pairs without a common source
    must vanish within ``tol`` (otherwise immediately infeasible)."""
    if not net.all_bipartite():
        raise ValueError("fast path unavailable: network has a non-bipartite source")
    m = as_hermitian(m)
    if m.shape[0] != net.n_parties:
        raise ValueError("matrix size does not match the network")
    scale = max(1.0, frobenius_norm(m))
    for i, j in net.no_common_source_pairs():
        if abs(m[i, j]) > tol * scale:
            return Feasibility.INFEASIBLE
    if is_psd(comparison_matrix(m), tol):
        return Feasibility.FEASIBLE
    return Feasibility.INFEASIBLE


def verify_decomposition(net: Network, m, d: Decomposition, tol: float) -> CheckResult:
    """Check support, per-term positive semidefiniteness, and the residual
    norm, all at ``tol`` (relative to max(1, ||m||_F) where applicable)."""
    m = as_hermitian(m)
    n = net.n_parties
    scale = max(1.0, frobenius_norm(m))
    reasons = []
    if len(d.terms) > net.n_sources:
        reasons.append("more terms than sources")
    total = np.zeros((n, n), dtype=np.complex128)
    for name, term in d.terms.items():
        try:
            a = net.source_index(name)
        except ValueError:
            reasons.append(f"unknown source '{name}'")
            continue
        term = np.asarray(term, dtype=np.complex128)
        if term.shape != (n, n):
            reasons.append(f"term '{name}' has wrong shape")
            continue
        supp = np.zeros((n, n), dtype=bool)
        ix = list(net.sources[a])
        supp[np.ix_(ix, ix)] = True
        if np.any(np.abs(term[~supp]) > tol * scale):
            reasons.append(f"support violation in term '{name}'")
        if not is_psd(term, tol):
            reasons.append(f"term '{name}' is not PSD")
        total += term
    if frobenius_norm(m - total) > tol * scale:
        reasons.append("residual")
    return CheckResult(not reasons, tuple(reasons))


def verify_witness(net: Network, m, w: DualWitness, tol: float) -> CheckResult:
    """Check dual-cone membership of every source block at ``tol`` and that
    Re tr(w^H m) < -tol * max(1, ||m||_F * ||w||_F)."""
    m = as_hermitian(m)
    wm = np.asarray(w.w, dtype=np.complex128)
    reasons = []
    if wm.shape != m.shape:
        return CheckResult(False, ("dimension mismatch",))
    for a, ix in enumerate(net.blocks()):
        if not is_psd(wm[np.ix_(ix, ix)], tol):
            reasons.append(f"block '{net.source_names[a]}' is not PSD")
    ip = float(np.vdot(wm, m).real)
    if not ip < -tol * max(1.0, frobenius_norm(m) * frobenius_norm(wm)):
        reasons.append("inner product is not negative enough")
    return CheckResult(not reasons, tuple(reasons))


def _offblock_witness(net: Network, m, i: int, j: int) -> DualWitness:
    """Unit-Frobenius witness carrying phase-matched mass only at (i, j) and
    (j, i); its source blocks are all zero, hence vacuously PSD."""
    n = net.n_parties
    w = np.zeros((n, n), dtype=np.complex128)
    phase = m[i, j] / abs(m[i, j])
    w[i, j] = -phase
    w[j, i] = -np.conj(phase)
    w /= np.sqrt(2.0)
    return DualWitness(w, float(np.vdot(w, m).real))


def _repair_witness(net: Network, w: np.ndarray, max_passes: int = 50) -> np.ndarray:
    """Pull a candidate witness into the dual cone: zero the entries outside
    every source block, then project blocks onto the PSD cone in place until
    all of them pass.

    Within one pass a later projection touches an earlier block only on
    shared diagonal entries, and PSD projection never decreases a diagonal
    entry, so on NDCS networks a single pass suffices.
    """
    n = net.n_parties
    allowed = np.zeros((n, n), dtype=bool)
    for ix in net.blocks():
        allowed[np.ix_(ix, ix)] = True
    w = np.where(allowed, w, 0.0)
    grids = [np.ix_(ix, ix) for ix in net.blocks()]
    for _ in range(max_passes):
        for grid in grids:
            w[grid] = psd_project(w[grid])
        if all(is_psd(w[grid], 1e-12) for grid in grids):
            break
    return w


def decompose(
    net: Network,
    m,
    opts: SolverOptions | None = None,
    *,
    backend: str | None = None,
) -> DecomposeResult:
    """Decide feasibility by cyclic block projection.

    Returns a verified decomposition when the residual meets the feasibility
    tolerance, and a verified dual witness when the iteration stalls or
    exhausts ``opts.max_sweeps`` and the repaired negative residual
    certifies infeasibility.  Otherwise it returns undecided, with a message
    saying whether the iteration stalled or ran out of sweeps (never a wrong
    verdict).
    """
    m = as_hermitian(m)
    if m.shape[0] != net.n_parties:
        raise ValueError("matrix size does not match the network")
    opts = opts or SolverOptions()
    scale = max(1.0, frobenius_norm(m))
    feas_abs = opts.feasibility_tol * scale
    stall_abs = opts.stall_tol * scale

    # Entries on pairs with no common source must vanish for any
    # decomposition to exist; a single large one certifies infeasibility.
    pairs = net.no_common_source_pairs()
    if pairs:
        i, j = max(pairs, key=lambda p: abs(m[p[0], p[1]]))
        if abs(m[i, j]) > feas_abs:
            wit = _offblock_witness(net, m, i, j)
            check = verify_witness(net, m, wit, opts.feasibility_tol)
            if check:
                return DecomposeResult(
                    Feasibility.INFEASIBLE,
                    witness=wit,
                    residual_norm=frobenius_norm(m),
                    message=f"forbidden entry at ({i}, {j})",
                )

    kernel = _kernel(backend)
    status, sweeps, history, block_terms = kernel.run_sweeps(
        m, net.blocks(), opts.max_sweeps, feas_abs, stall_abs
    )
    n = net.n_parties
    terms = {}
    total = np.zeros((n, n), dtype=np.complex128)
    for name, ix, blk in zip(net.source_names, net.blocks(), block_terms):
        full = np.zeros((n, n), dtype=np.complex128)
        full[np.ix_(ix, ix)] = blk
        terms[name] = full
        total += full
    residual = m - total
    res_norm = float(np.linalg.norm(residual))

    if status == _sweep_py.CONVERGED:
        dec = Decomposition(terms, m, res_norm)
        check = verify_decomposition(net, m, dec, opts.feasibility_tol)
        if check:
            return DecomposeResult(
                Feasibility.FEASIBLE,
                decomposition=dec,
                sweeps=sweeps,
                residual_norm=res_norm,
                residual_history=history,
            )
        return DecomposeResult(
            Feasibility.UNDECIDED,
            sweeps=sweeps,
            residual_norm=res_norm,
            residual_history=history,
            message="converged but verification failed: " + "; ".join(check.reasons),
        )

    # Stalled or out of sweeps: the negative residual, pulled into the dual
    # cone, may still certify infeasibility.
    cand = _repair_witness(net, -residual)
    nrm = np.linalg.norm(cand)
    if nrm > 0:
        cand = cand / nrm
        wit = DualWitness(cand, float(np.vdot(cand, m).real))
        if verify_witness(net, m, wit, opts.feasibility_tol):
            return DecomposeResult(
                Feasibility.INFEASIBLE,
                witness=wit,
                sweeps=sweeps,
                residual_norm=res_norm,
                residual_history=history,
            )
    return DecomposeResult(
        Feasibility.UNDECIDED,
        sweeps=sweeps,
        residual_norm=res_norm,
        residual_history=history,
        message=(
            "stalled without a certifiable witness"
            if status == _sweep_py.STALLED
            else "sweep budget exhausted"
        ),
    )
