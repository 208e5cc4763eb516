"""Command-line interface.

Subcommands: check, simulate, inflate, embezzle, gauss.  Every file is
read and written through ``formats``, which this module imports with
``json``; each subcommand imports the other modules it needs, so ``covnet
check`` loads only the decision core and ``formats``.  Exit codes form a
stable scripting contract: 0 feasible, 1 infeasible, 2 undecided, 3 input
error.  Any malformed input exits 3 with one ``error:`` line, never a
verdict: a missing, unknown, unparsable or conflicting argument, an option
that the chosen mode does not read, a file that cannot be read or written,
JSON of the wrong shape, a ``--tol`` that is not positive and finite, a
request too large for memory.  ``main`` is the one place that turns such
an exception into exit 3; the parser raises ``ValueError`` instead of
exiting.  Every command accepts --json for machine-readable stdout.
Matrix files are the shared JSON format, or headerless CSV for real
matrices.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .formats import (
    certificate_to_json,
    json_text,
    matrix_to_json,
    read_matrix,
    read_model,
    read_network,
    read_phi,
    read_spec,
    read_terms,
    read_vectors,
    write_csv,
    write_json,
)
from .linalg import TOL
from .solver import Feasibility, decompose

EXIT_FEASIBLE, EXIT_INFEASIBLE, EXIT_UNDECIDED, EXIT_INPUT = 0, 1, 2, 3

_STATUS_EXIT = {
    Feasibility.FEASIBLE: EXIT_FEASIBLE,
    Feasibility.INFEASIBLE: EXIT_INFEASIBLE,
    Feasibility.UNDECIDED: EXIT_UNDECIDED,
}


def _emit(doc: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json_text(doc))
    else:
        for line in lines:
            print(line)


# -- check ---------------------------------------------------------------


def cmd_check(args) -> int:
    net = read_network(args.network)
    m = read_matrix(args.matrix)

    result = decompose(net, m, args.tol)
    status = result.status
    diagnostics = {
        "sweeps": result.sweeps,
        "residual": result.residual_norm,
        "message": result.message,
    }
    if status is Feasibility.INFEASIBLE:
        diagnostics["inner_product"] = result.witness.inner_product

    cert_path = None
    if status is not Feasibility.UNDECIDED:
        cert_path = args.certificate
        write_json(cert_path, certificate_to_json(result.decomposition or result.witness))

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
    from .simulate import build_joint_distribution, check_independence, covariance_matrix

    net = read_network(args.network)
    sources, responses, functions = read_model(args.model, net, args.functions)
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
        write_json(args.out, doc["covariance"])
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


# --sign is the order-2 --shift: sign + is shift 0 and sign - shift 1.
_SIGN_SHIFTS = {"+": 0, "+1": 0, "1": 0, "-": 1, "-1": 1}


def cmd_inflate(args) -> int:
    from .inflate import (
        build_inflation,
        compress_by_vectors,
        fourier_extract,
        inflated_covariance,
        shift_inflation,
    )

    if args.shift is None and (args.d, args.component) != (None, None):
        raise ValueError("--d and --component are read by --shift only")
    if args.component is not None and not args.covariance:
        raise ValueError("--component is read with --covariance only")
    net = read_network(args.network)
    if args.vectors and not (args.spec and args.covariance):
        raise ValueError("--vectors needs a spec file and --covariance")
    if args.spec is not None:
        spec = read_spec(args.spec)
    else:  # one value per source, as --sign or as --shift
        option, text = ("--shift", args.shift) if args.sign is None else ("--sign", args.sign)
        vals = [v.strip() for v in text.split(",")]
        if len(vals) != net.n_sources:
            raise ValueError(f"{option} needs {net.n_sources} values")
        if args.sign is not None:
            for v in vals:
                if v not in _SIGN_SHIFTS:
                    raise ValueError(f"bad sign value '{v}'")
            vals = [_SIGN_SHIFTS[v] for v in vals]
        spec = shift_inflation(net, dict(zip(net.source_names, map(int, vals))),
                               2 if args.d is None else args.d)
    infl = build_inflation(net, spec)

    doc = {"network": infl.network.to_json(), "d": spec.order}
    lines = [f"inflated network: {infl.network.n_parties} parties, "
             f"{infl.network.n_sources} sources (order {spec.order})"]
    if args.covariance:
        c = read_matrix(args.covariance)
        big = inflated_covariance(net, c, spec, c.diagonal().real)
        if args.spec is None:  # --sign is the order-2 --shift at component 1
            extracted = fourier_extract(big, net.n_parties,
                                        1 if args.component is None else args.component)
        elif args.vectors:
            extracted = compress_by_vectors(big, read_vectors(args.vectors))
        else:
            extracted = None
        doc["inflated_covariance"] = matrix_to_json(big)
        lines.append(f"inflated covariance: {big.shape[0]}x{big.shape[1]}")
        if extracted is not None:
            doc["extracted"] = matrix_to_json(extracted)
            lines.append(f"extracted:\n{np.array_str(extracted, precision=6)}")
    if args.out:
        write_json(args.out, doc["network"])
    _emit(doc, args.json, lines)
    return EXIT_FEASIBLE


# -- embezzle --------------------------------------------------------------


def cmd_embezzle(args) -> int:
    from .embezzle import embezzle_complex, embezzle_real

    if args.uniform:
        if args.d is None or args.d < 1:
            raise ValueError("--uniform requires --d >= 1")
        phi = np.full(args.d, 1.0 / np.sqrt(args.d))
    elif args.d is not None:
        raise ValueError("--d is read by --uniform only")
    else:
        phi = read_phi(args.phi_file)
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
    from .gaussian import GaussianNetworkModel, sample, sample_covariance

    if args.cov_out and args.count < 2:
        raise ValueError("--cov-out needs --count >= 2 to estimate a covariance")
    model = GaussianNetworkModel(read_network(args.network), read_terms(args.decomposition),
                                 args.seed)
    batch = sample(model, args.count)
    est = sample_covariance(batch) if args.count >= 2 else None
    if args.out:
        write_csv(args.out, batch)
    doc = {
        "count": args.count,
        "seed": args.seed,
        "samples": args.out,
        "covariance_estimate": matrix_to_json(est) if est is not None else None,
    }
    if args.cov_out:
        write_json(args.cov_out, doc["covariance_estimate"])
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
    p.add_argument("--tol", type=float, default=TOL, help="relative to ||M||_F")
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
    p.add_argument("--d", type=int, help="inflation order for --shift (default 2)")
    p.add_argument("--component", type=int,
                   help="diagonal slot extracted after the Fourier step, for --shift (default 1)")
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
