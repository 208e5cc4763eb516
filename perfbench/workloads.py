"""The four benchmark workloads: inputs from a seed, one item at a time.

Every workload builds a fixed list of items from its seed, then the runner
feeds them one by one (closed loop).  ``run_item`` makes the calls into
covnet through the probe and checks every output; it returns the failures
found, each with a reason.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import covnet
import covnet.cli

import gen
from probe import Counters

TOL = 1e-7  # the solver's default feasibility tolerance
FEASIBLE = covnet.Feasibility.FEASIBLE
INFEASIBLE = covnet.Feasibility.INFEASIBLE
UNDECIDED = covnet.Feasibility.UNDECIDED
CLI_EXIT = {"feasible": 0, "infeasible": 1, "undecided": 2}


@dataclass
class Failure:
    reason: str
    # False only for an answer that is right but carries a certificate no
    # verify_* function can check (the CLI comparison-matrix fallback).
    wrong: bool = True


def solve(probe, counters: Counters, net, m):
    with probe.span("decompose", "decompose") as s:
        res = covnet.decompose(net, m)
    counters.sweeps.append(res.sweeps)
    if res.sweeps:
        counters.swept_s += s.elapsed
    if res.status is UNDECIDED:
        counters.undecided += 1
    elif res.status is INFEASIBLE:
        if res.sweeps:
            counters.infeasible_witness += 1
        else:
            counters.infeasible_forbidden += 1
    return res, s.elapsed


def check_certificate(probe, net, m, res, feasible: bool) -> list[Failure]:
    """Re-verify a FEASIBLE or INFEASIBLE answer at the solver tolerance."""
    if res.status is FEASIBLE:
        check = probe.call("decompose", "verify_decomposition",
                           covnet.verify_decomposition, net, m, res.decomposition, TOL)
    elif res.status is INFEASIBLE:
        check = probe.call("decompose", "verify_witness",
                           covnet.verify_witness, net, m, res.witness, TOL)
    else:
        return []
    out = [] if check.ok else [Failure(f"{res.status.value} certificate rejected: {'; '.join(check.reasons)}")]
    if feasible and res.status is INFEASIBLE:
        out.append(Failure("INFEASIBLE on an instance feasible by construction"))
    return out


# -- batteries ---------------------------------------------------------------


class Battery:
    """Each item: one decompose call with its certificate re-verified."""

    generator = None

    def __init__(self, seed: int, count: int, workdir):
        self.items = list(self.generator(seed, count))
        self.workdir = workdir

    def run_item(self, k, probe, counters) -> list[Failure]:
        net, m, feasible = self.items[k]
        res, _ = solve(probe, counters, net, m)
        return check_certificate(probe, net, m, res, feasible)


class BipartiteBattery(Battery):
    """Criterion 01's battery.  The sweep kernel does nearly all the work
    and the slowest instances set the time.  Each instance also gets the
    exact comparison-matrix test, and the 10th, 20th, ... goes through
    ``covnet check``; criterion 01's alternation makes those boundary
    instances, where the CLI's fallback for UNDECIDED can show."""

    generator = staticmethod(gen.bipartite_battery)

    def run_item(self, k, probe, counters) -> list[Failure]:
        net, m, feasible = self.items[k]
        with probe.span("decompose", "fast_check_bipartite") as s:
            fast = covnet.fast_check_bipartite(net, m, TOL)
        res, solve_s = solve(probe, counters, net, m)
        failures = check_certificate(probe, net, m, res, feasible)
        if res.status is not UNDECIDED and res.status is not fast:
            failures.append(Failure(f"decompose says {res.status.value}, comparison matrix says {fast.value}"))
        if (k + 1) % 10 == 0:
            failures += self.cli_check(probe, counters, net, m, fast, s.elapsed + solve_s)
        return failures

    def cli_check(self, probe, counters, net, m, fast, library_s) -> list[Failure]:
        net_path = self.workdir / "network.json"
        m_path = self.workdir / "matrix.json"
        cert_path = self.workdir / "certificate.json"
        net_path.write_text(json.dumps(net.to_json()))
        m_path.write_text(json.dumps(covnet.matrix_to_json(m)))
        cert_path.unlink(missing_ok=True)
        out = io.StringIO()
        with redirect_stdout(out), probe.span("cli", "main") as s:
            code = covnet.cli.main(["check", str(net_path), str(m_path),
                                    "--certificate", str(cert_path), "--json"])
        counters.cli_overhead_s += s.elapsed - library_s
        doc = json.loads(out.getvalue())
        status = doc["status"]
        failures = []
        if code != CLI_EXIT[status]:
            failures.append(Failure(f"cli: exit code {code} for status {status}"))
        if status != "undecided" and status != fast.value:
            failures.append(Failure(f"cli says {status}, comparison matrix says {fast.value}"))
        if status == "undecided":
            return failures
        if not doc["certificate"]:
            return failures + [Failure(f"cli: {status} without a certificate")]
        cert = json.loads(cert_path.read_text())
        method = cert.get("method")
        if method == "decomposition":
            dec = covnet.Decomposition(
                {name: covnet.matrix_from_json(t) for name, t in cert["terms"].items()},
                covnet.matrix_from_json(cert["target"]),
                float(cert["residual"]),
            )
            check = covnet.verify_decomposition(net, m, dec, TOL)
        elif method == "witness":
            wit = covnet.DualWitness(covnet.matrix_from_json(cert["w"]), float(cert["inner_product"]))
            check = covnet.verify_witness(net, m, wit, TOL)
        else:
            return failures + [Failure(f"cli: {status} with an unverifiable '{method}' certificate", wrong=False)]
        if not check.ok:
            failures.append(Failure(f"cli: {method} certificate rejected: {'; '.join(check.reasons)}"))
        return failures


class MultipartiteBattery(Battery):
    """The comparison-matrix test cannot apply here, so the kernel on 3x3
    blocks and the witness repair do the work."""

    generator = staticmethod(gen.multipartite_battery)


# -- simulate, decompose, realize ----------------------------------------------


class SimulateRealize:
    """A random classical model with real output functions is simulated
    exactly, its covariance decomposed, and the decomposition realized by
    the Gaussian sampler.  The covariances lie inside the cone, so the solve
    takes a few sweeps and the simulators and per-call overhead show."""

    SAMPLES = 10_000
    # A run compares about 30,000 covariance entries: at 5 standard errors
    # one run in 60 would fail by chance, at 6 fewer than one in 10,000.
    SE_LIMIT = 6.0
    MAX_SIGNAL_ALPHABET = 3
    MAX_OUTPUT_ALPHABET = 5

    def __init__(self, seed: int, count: int, workdir):
        rng = np.random.default_rng(seed)
        self.items = []
        for _ in range(count):
            net = gen.random_ndcs_network(rng, int(rng.integers(4, 6)))
            model = gen.random_classical_model(net, rng, self.MAX_SIGNAL_ALPHABET,
                                               self.MAX_OUTPUT_ALPHABET, real_functions=True)
            self.items.append((net, model, int(rng.integers(2**62))))

    def run_item(self, k, probe, counters) -> list[Failure]:
        net, (sources, responses, functions), seed = self.items[k]
        p = probe.call("simulate", "build_joint_distribution",
                       covnet.build_joint_distribution, net, sources, responses)
        counters.table_entries += p.table.size
        c = probe.call("simulate", "covariance_matrix", covnet.covariance_matrix, p, functions)
        violations = probe.call("simulate", "check_independence",
                                covnet.check_independence, p, net, 1e-10)
        failures = [Failure(f"independence violated for {len(violations)} pairs")] if violations else []
        res, _ = solve(probe, counters, net, c)
        failures += check_certificate(probe, net, c, res, True)
        if res.status is not FEASIBLE:
            return failures
        terms = res.decomposition.terms
        scale = max(1.0, float(np.linalg.norm(c)))
        imag = max(float(np.max(np.abs(t.imag))) for t in terms.values())
        if imag > 1e-12 * scale:
            return failures + [Failure(f"decomposition of a real matrix has imaginary part {imag:.1e}")]
        model = probe.call("gaussian", "GaussianNetworkModel", covnet.GaussianNetworkModel,
                           net, {name: t.real for name, t in terms.items()}, seed)
        batch = probe.call("gaussian", "sample", covnet.sample, model, self.SAMPLES)
        est = probe.call("gaussian", "sample_covariance", covnet.sample_covariance, batch)
        counters.samples += self.SAMPLES
        # The sampler's population covariance is the sum of the terms, which
        # differs from c by the solver residual: compare against the sum.
        sigma = res.decomposition.total().real
        var = np.diag(sigma)
        se = np.sqrt((np.outer(var, var) + sigma**2) / self.SAMPLES)
        dev = float(np.max(np.abs(est - sigma) / np.maximum(se, 1e-300)))
        if dev > self.SE_LIMIT:
            failures.append(Failure(f"sample covariance {dev:.1f} standard errors from the terms' sum"))
        return failures


# -- dual approximation and the constructions ---------------------------------------


class DualApproximation:
    """Random dual elements on the triangle and on the 3-path, each
    approximated by twisted Gram matrices at two R values, plus one
    embezzlement and one inflation-compression identity.  The solver is
    never called.  Both networks are in every item so that items cost alike."""

    T = 2**7
    RS = (2**10, 2**12)

    def __init__(self, seed: int, count: int, workdir):
        rng = np.random.default_rng(seed)
        nets = (gen.cycle_network(3), gen.path_network(3))
        self.items = []
        for k in range(count):
            duals = [(net, gen.random_dual_element(net, rng, complex_=bool(k % 3))) for net in nets]
            phi = gen.random_unit_vector(rng, int(rng.integers(2, 5)))
            net = nets[k % 2]
            c = gen.random_feasible(net, rng)
            d = int(rng.integers(2, 5))
            spec = gen.random_inflation_spec(net, rng, d)
            vecs = [gen.random_unit_vector(rng, d) for _ in net.party_names]
            self.items.append((duals, phi, (net, c, spec, vecs)))

    def run_item(self, k, probe, counters) -> list[Failure]:
        duals, phi, (net, c, spec, vecs) = self.items[k]
        failures = []
        for dual_net, w in duals:
            errs = []
            for R in self.RS:
                _, approx, err = probe.call("witness", "approximate_dual_by_twisted_gram",
                                            covnet.approximate_dual_by_twisted_gram, dual_net, w, self.T, R)
                diag_dev = float(np.max(np.abs(np.diag(approx) - np.diag(w))))
                if diag_dev > 1e-12:
                    failures.append(Failure(f"twisted Gram diagonal off by {diag_dev:.1e} at R={R}"))
                errs.append(err)
            if not errs[1] < errs[0]:
                failures.append(Failure(f"approximation error did not decrease: {errs}"))
            counters.approx_error_max = max(counters.approx_error_max, errs[-1])

        R = self.RS[-1]
        emb = probe.call("embezzle", "embezzle_complex", covnet.embezzle_complex, phi, self.T, R)
        d = len(phi)
        bound = covnet.harmonic_number(R // d) / covnet.harmonic_number(R) - 2 * math.pi / self.T
        if emb.overlap.real < bound - 1e-9:
            failures.append(Failure(f"embezzlement overlap {emb.overlap.real} below bound {bound}"))

        big = probe.call("inflate", "inflated_covariance", covnet.inflated_covariance,
                         net, c, spec, np.diag(c).real)
        lhs = probe.call("inflate", "compress_by_vectors", covnet.compress_by_vectors, big, vecs)
        gram = probe.call("witness", "build_twisted_gram", covnet.build_twisted_gram, net,
                          covnet.TwistedGramSpec(spec.order, dict(zip(net.party_names, vecs)),
                                                 dict(spec.perms)))
        dev = float(np.max(np.abs(lhs - covnet.schur_product(c, gram))))
        if dev > 1e-9:
            failures.append(Failure(f"compression differs from the Schur product by {dev:.1e}"))
        return failures


# Items per run of each workload, fixed so that a seed always gives the same
# items.  Sized from measured passes (seeds 1-5, reference machine: 2-vCPU
# x86-64 Xeon, numpy kernel, one BLAS thread) so that one pass takes about
# 20 s; the batteries' pass time swings with how many slow boundary
# instances the seed draws (160 bipartite items took 13-33 s).
WORKLOADS = {
    "bipartite-battery": (BipartiteBattery, 140),
    "multipartite-battery": (MultipartiteBattery, 120),
    "simulate-realize": (SimulateRealize, 1600),
    "dual-approximation": (DualApproximation, 45),
}
