"""Command-line interface.

Subcommands: check, simulate, inflate, embezzle, gauss.  Each subcommand
imports the modules it needs, so ``covnet check`` loads only the decision
core.  Exit codes form a stable scripting contract: 0 feasible, 1
infeasible, 2 undecided, 3 input error.  Any malformed input exits 3 with
one ``error:`` line, never a verdict: a missing, unknown, unparsable or
conflicting argument, a file that cannot be read or written, JSON of the
wrong shape, a negative or non-finite ``--tol``, a request too large for
memory.  ``main`` is the one place that turns such an exception into exit
3; the parser raises ``ValueError`` instead of exiting.  Every command
accepts --json for machine-readable stdout.  Matrix files are the shared
JSON format, or headerless CSV for real matrices.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .linalg import (
    as_hermitian,
    comparison_matrix,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    vector_from_json,
)
from .network import parse_network
from .solver import Feasibility, SolverOptions, decompose, fast_check_bipartite

EXIT_FEASIBLE, EXIT_INFEASIBLE, EXIT_UNDECIDED, EXIT_INPUT = 0, 1, 2, 3

_STATUS_EXIT = {
    Feasibility.FEASIBLE: EXIT_FEASIBLE,
    Feasibility.INFEASIBLE: EXIT_INFEASIBLE,
    Feasibility.UNDECIDED: EXIT_UNDECIDED,
}


def _read(path, kind: str = ""):
    """The JSON value in the file at ``path``; for ``kind`` "network" or
    "matrix", the network or Hermitian matrix it holds, a ``.csv`` matrix
    being headerless CSV.  Any failure is one ``ValueError`` naming the
    file."""
    try:
        with open(path) as fh:
            if kind == "matrix" and str(path).endswith(".csv"):
                return as_hermitian(np.loadtxt(fh, delimiter=",", ndmin=2))
            obj = json.load(fh)
        if kind == "network":
            return parse_network(obj)
        return matrix_from_json(obj) if kind == "matrix" else obj
    except (OSError, ValueError) as exc:
        name = f"{kind} '{path}'".lstrip()
        raise ValueError(f"cannot read {name}: {exc}") from exc


def _emit(doc: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(doc, indent=1))
    else:
        for line in lines:
            print(line)


# -- check ---------------------------------------------------------------


def cmd_check(args) -> int:
    net = _read(args.network, "network")
    m = _read(args.matrix, "matrix")

    certificate = None
    diagnostics = {}
    if args.fast_only:
        status = fast_check_bipartite(net, m, args.tol)
        comp = comparison_matrix(m)
        certificate = {
            "method": "comparison_matrix",
            "comparison_matrix": matrix_to_json(comp),
            "min_eigenvalue": min_eigenvalue(comp),
        }
    else:
        opts = SolverOptions(max_sweeps=args.max_sweeps, feasibility_tol=args.tol)
        result = decompose(net, m, opts)
        status = result.status
        diagnostics = {
            "sweeps": result.sweeps,
            "residual": result.residual_norm,
        }
        if result.status is Feasibility.FEASIBLE:
            certificate = {"method": "decomposition", **result.decomposition.to_json()}
        elif result.status is Feasibility.INFEASIBLE:
            certificate = {"method": "witness", **result.witness.to_json()}
            diagnostics["inner_product"] = result.witness.inner_product

    cert_path = None
    if certificate is not None:
        cert_path = args.certificate
        with open(cert_path, "w") as fh:
            json.dump(certificate, fh, indent=1)

    doc = {"status": status.value, "certificate": cert_path, "diagnostics": diagnostics}
    _emit(
        doc,
        args.json,
        [f"status: {status.value}"]
        + ([f"certificate: {cert_path}"] if cert_path else [])
        + [f"{k}: {v}" for k, v in diagnostics.items()],
    )
    return _STATUS_EXIT[status]


# -- simulate --------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .simulate import build_joint_distribution, check_independence, covariance_matrix, model_from_json

    net = _read(args.network, "network")
    obj = _read(args.model)
    if args.functions and isinstance(obj, dict):
        obj = {**obj, "functions": _read(args.functions)}
    sources, responses, functions = model_from_json(obj, net)
    if functions is None:
        raise ValueError("no output functions (provide --functions or a 'functions' section)")
    p = build_joint_distribution(net, sources, responses)
    cov = covariance_matrix(p, functions)
    violations = check_independence(p, net, 1e-9)
    doc = {
        "covariance": matrix_to_json(cov),
        "summary": {
            "parties": list(net.party_names),
            "alphabets": [int(k) for k in p.alphabets],
            "mass": float(p.table.sum()),
            "independence_violations": [
                {"pair": [a, b], "deviation": dev} for a, b, dev in violations
            ],
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc["covariance"], fh, indent=1)
    _emit(
        doc,
        args.json,
        [
            f"parties: {', '.join(net.party_names)}",
            f"covariance:\n{np.array_str(cov, precision=6)}",
            f"independence violations: {len(violations)}",
        ],
    )
    return EXIT_FEASIBLE


# -- inflate ---------------------------------------------------------------


def _parse_sign_list(net, text):
    vals = [v.strip() for v in text.split(",")]
    if len(vals) != net.n_sources:
        raise ValueError(f"--sign needs {net.n_sources} values")
    table = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}
    for v in vals:
        if v not in table:
            raise ValueError(f"bad sign value '{v}'")
    return {nm: table[v] for nm, v in zip(net.source_names, vals)}


def cmd_inflate(args) -> int:
    from .inflate import (
        build_inflation,
        compress_by_vectors,
        fourier_extract,
        hadamard_extract,
        inflated_covariance,
        inflation_spec_from_json,
        shift_inflation,
        sign_inflation,
    )

    net = _read(args.network, "network")
    if args.vectors and not (args.spec and args.covariance):
        raise ValueError("--vectors needs a spec file and --covariance")
    if args.spec is not None:
        spec = inflation_spec_from_json(_read(args.spec))
    elif args.sign is not None:
        spec = sign_inflation(net, _parse_sign_list(net, args.sign))
    else:
        vals = [int(v) for v in args.shift.split(",")]
        if len(vals) != net.n_sources:
            raise ValueError(f"--shift needs {net.n_sources} values")
        spec = shift_inflation(net, dict(zip(net.source_names, vals)), args.d)
    infl = build_inflation(net, spec)

    doc = {"network": infl.network.to_json(), "d": spec.order}
    lines = [f"inflated network: {infl.network.n_parties} parties, "
             f"{infl.network.n_sources} sources (order {spec.order})"]
    if args.covariance:
        c = _read(args.covariance, "matrix")
        big = inflated_covariance(net, c, spec, c.diagonal().real)
        if args.sign:
            extracted = hadamard_extract(big, net.n_parties)
        elif args.shift:
            extracted = fourier_extract(big, net.n_parties, spec.order, args.component)
        elif args.vectors:
            vectors = _read(args.vectors)
            if not isinstance(vectors, list):
                raise ValueError(f"'{args.vectors}' must hold a JSON list of vectors")
            extracted = compress_by_vectors(big, [vector_from_json(v) for v in vectors])
        else:
            extracted = None
        doc["inflated_covariance"] = matrix_to_json(big)
        lines.append(f"inflated covariance: {big.shape[0]}x{big.shape[1]}")
        if extracted is not None:
            doc["extracted"] = matrix_to_json(extracted)
            lines.append(f"extracted:\n{np.array_str(extracted, precision=6)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc["network"], fh, indent=1)
    _emit(doc, args.json, lines)
    return EXIT_FEASIBLE


# -- embezzle --------------------------------------------------------------


def cmd_embezzle(args) -> int:
    from .embezzle import embezzle_complex, embezzle_real

    if args.uniform:
        if args.d is None or args.d < 1:
            raise ValueError("--uniform requires --d >= 1")
        phi = np.full(args.d, 1.0 / np.sqrt(args.d))
    else:
        obj = _read(args.phi_file)
        phi = vector_from_json({"re": obj} if isinstance(obj, list) else obj)
    if args.T is not None:
        result = embezzle_complex(phi, args.T, args.R)
    else:
        result = embezzle_real(phi, args.R)
    doc = {
        "R": args.R,
        "T": args.T,
        "d": int(len(phi)),
        "overlap_re": float(result.overlap.real),
        "bound": float(result.guaranteed_bound),
    }
    _emit(doc, args.json, [f"overlap_re: {doc['overlap_re']:.9f}", f"bound: {doc['bound']:.9f}"])
    return EXIT_FEASIBLE


# -- gauss -----------------------------------------------------------------


def cmd_gauss(args) -> int:
    from .gaussian import GaussianNetworkModel, sample, sample_covariance, write_csv

    if args.cov_out and args.count < 2:
        raise ValueError("--cov-out needs --count >= 2 to estimate a covariance")
    net = _read(args.network, "network")
    obj = _read(args.decomposition)
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), dict):
        raise ValueError("decomposition JSON must contain a 'terms' object")
    terms = {name: matrix_from_json(entry) for name, entry in obj["terms"].items()}
    model = GaussianNetworkModel(net, terms, args.seed)
    batch = sample(model, args.count)
    est = sample_covariance(batch) if args.count >= 2 else None
    if args.out:
        with open(args.out, "w") as fh:
            write_csv(fh, batch)
    doc = {
        "count": args.count,
        "seed": args.seed,
        "samples": args.out,
        "covariance_estimate": matrix_to_json(est) if est is not None else None,
    }
    if args.cov_out:
        with open(args.cov_out, "w") as fh:
            json.dump(doc["covariance_estimate"], fh, indent=1)
    _emit(
        doc,
        args.json,
        [f"wrote {args.count} samples" + (f" to {args.out}" if args.out else "")]
        + ([f"covariance estimate:\n{np.array_str(est, precision=4)}"] if est is not None else []),
    )
    return EXIT_FEASIBLE


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``main`` to report; subparsers inherit it."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="covnet",
                     description="Covariance compatibility tests for causal networks.")
    parser.add_argument("--version", action="version", version=f"covnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable stdout")

    def command(name, func, text):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(func=func)
        return p

    p = command("check", cmd_check, "decide whether a matrix decomposes over a network")
    p.add_argument("network")
    p.add_argument("matrix")
    defaults = SolverOptions()
    p.add_argument("--tol", type=float, default=defaults.feasibility_tol)
    p.add_argument("--max-sweeps", type=int, default=defaults.max_sweeps,
                   help="Newton step budget of the solver")
    p.add_argument("--fast-only", action="store_true",
                   help="comparison-matrix test only (bipartite sources)")
    p.add_argument("--certificate", default="certificate.json")

    p = command("simulate", cmd_simulate, "exact classical simulation of a network model")
    p.add_argument("network")
    p.add_argument("model")
    p.add_argument("--functions", help="output functions JSON (overrides the model file)")
    p.add_argument("--out", help="write the covariance matrix JSON here")

    p = command("inflate", cmd_inflate, "build a non-fanout inflation")
    p.add_argument("network")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spec", help="inflation spec JSON file")
    mode.add_argument("--sign", help="comma list of +/- signs, one per source")
    mode.add_argument("--shift", help="comma list of shifts, one per source")
    p.add_argument("--d", type=int, default=2, help="inflation order for --shift")
    p.add_argument("--component", type=int, default=1,
                   help="diagonal slot extracted after the Fourier step")
    p.add_argument("--covariance", help="base covariance to inflate and extract")
    p.add_argument("--vectors", help="vectors JSON for compression (with --spec)")
    p.add_argument("--out", help="write the inflated network JSON here")

    p = command("embezzle", cmd_embezzle, "permutation extraction overlap report")
    p.add_argument("--d", type=int)
    phi = p.add_mutually_exclusive_group(required=True)
    phi.add_argument("--phi-file")
    phi.add_argument("--uniform", action="store_true")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--T", type=int)

    p = command("gauss", cmd_gauss, "sample a Gaussian network model")
    p.add_argument("network")
    p.add_argument("decomposition")
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write samples CSV here")
    p.add_argument("--cov-out", help="write the covariance estimate JSON here")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, KeyError, TypeError, RuntimeError, MemoryError) as exc:
        # str() of a KeyError is only the quoted key; of a bare MemoryError, empty.
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        print(f"error: {detail or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
