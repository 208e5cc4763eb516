"""Command-line interface.

Subcommands: check decides whether a matrix can come from a network,
simulate computes a classical model's covariance and gauss samples a
decomposition.  Every file is read and written through ``formats``, which
this module imports with ``json``; each subcommand imports the other
modules it needs, so ``covnet check`` loads only the decision core and
``formats``.  Exit codes form a stable scripting contract: 0 feasible, 1
infeasible, 2 undecided, 3 input error.  Any malformed input exits 3 with
one ``error:`` line, never a verdict: a missing, unknown, unparsable or
conflicting argument, a file that cannot be read or written, JSON of the
wrong shape, a ``--tol`` that is not positive and finite, a request too
large for memory.  ``main`` is the one place that turns such an exception
into exit 3; the parser raises ``ValueError`` instead of exiting.  Every
command accepts --json for machine-readable stdout.  Matrix files are the
shared JSON format, or headerless CSV for real matrices.
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
    read_terms,
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
