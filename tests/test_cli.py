"""End-to-end CLI runs against temporary files, covering the exit-code
contract and certificate round-trips."""

import json

import numpy as np
import pytest

from covnet.cli import build_parser, main
from covnet.inflate import fourier_extract, inflated_covariance, shift_inflation
from covnet.solver import (
    SolverOptions,
    decomposition_from_json,
    verify_decomposition,
    verify_witness,
    witness_from_json,
)
from covnet.linalg import matrix_from_json, matrix_to_json
from covnet.network import parse_network
from support import run_fresh_python

PATH_NET = {
    "parties": ["A1", "A2", "A3"],
    "sources": [
        {"name": "s0", "parties": ["A1", "A2"]},
        {"name": "s1", "parties": ["A2", "A3"]},
    ],
}
TRIANGLE_NET = {
    "parties": ["A1", "A2", "A3"],
    "sources": [
        {"name": "s0", "parties": ["A1", "A2"]},
        {"name": "s1", "parties": ["A2", "A3"]},
        {"name": "s2", "parties": ["A1", "A3"]},
    ],
}
PATH_M = [[1, 1, 0], [1, 2, 1], [0, 1, 1]]

SHARED_BIT = [0.5, 0.0, 0.0, 0.5]
COPY = [1.0, 0.0, 0.0, 1.0]
PAIR = [
    1, 0, 0, 0,
    0, 1, 0, 0,
    0, 0, 1, 0,
    0, 0, 0, 1,
]
PATH_MODEL = {
    "sources": {
        "s0": {"alphabets": [2, 2], "pmf": SHARED_BIT},
        "s1": {"alphabets": [2, 2], "pmf": SHARED_BIT},
    },
    "responses": {
        "A1": {"alphabet": 2, "table": COPY},
        "A2": {"alphabet": 4, "table": PAIR},
        "A3": {"alphabet": 2, "table": COPY},
    },
    "functions": {
        "A1": {"re": [1, -1]},
        "A2": {"re": [2, 0, 0, -2]},
        "A3": {"re": [1, -1]},
    },
}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _assert_input_error(capsys, argv) -> str:
    """Exit 3 with an ``error:`` line on stderr and no traceback; returns stderr."""
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def _unwritable(tmp_path, name):
    """A path whose parent directory does not exist."""
    return str(tmp_path / "missing" / name)


@pytest.fixture
def files(tmp_path):
    return {
        "path": _write(tmp_path, "path.json", PATH_NET),
        "triangle": _write(tmp_path, "triangle.json", TRIANGLE_NET),
        "mpath": _write(tmp_path, "mpath.json", matrix_to_json(np.array(PATH_M, dtype=float))),
        "ones": _write(tmp_path, "ones.json", matrix_to_json(np.ones((3, 3)))),
        "model": _write(tmp_path, "model.json", PATH_MODEL),
        "tmp": tmp_path,
    }


class TestCheck:
    def test_feasible_exit_zero_with_decomposition(self, files, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        code = main(["check", files["path"], files["mpath"], "--certificate", cert, "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "feasible"
        with open(cert) as fh:
            payload = json.load(fh)
        assert payload["method"] == "decomposition"
        net = parse_network(PATH_NET)
        dec = decomposition_from_json(payload)
        assert verify_decomposition(net, np.array(PATH_M, dtype=float), dec, 1e-6)

    def test_infeasible_exit_one_with_witness(self, files, tmp_path):
        cert = str(tmp_path / "cert.json")
        code = main(["check", files["triangle"], files["ones"], "--certificate", cert])
        assert code == 1
        with open(cert) as fh:
            payload = json.load(fh)
        assert payload["method"] == "witness"
        net = parse_network(TRIANGLE_NET)
        wit = witness_from_json(payload)
        assert verify_witness(net, np.ones((3, 3)), wit, 1e-6)

    def test_fast_only(self, files, tmp_path):
        cert = str(tmp_path / "c.json")
        assert main(["check", files["path"], files["mpath"], "--fast-only",
                     "--certificate", cert]) == 0
        assert main(["check", files["triangle"], files["ones"], "--fast-only",
                     "--certificate", cert]) == 1
        with open(cert) as fh:
            assert json.load(fh)["method"] == "comparison_matrix"

    def test_undecided_exit_two_without_certificate(self, files, tmp_path):
        # Feasible, but the equal split of A2's variance is not, and one
        # Newton step cannot reach a decomposition.
        m = _write(tmp_path, "m.json", matrix_to_json(np.array(
            [[1, 1, 0], [1, 1.5, 0.5], [0, 0.5, 1]], dtype=float)))
        cert = tmp_path / "cert.json"
        code = main(["check", files["path"], m, "--max-sweeps", "1", "--certificate", str(cert)])
        assert code == 2
        assert not cert.exists()
        assert main(["check", files["path"], m, "--certificate", str(cert)]) == 0

    def test_defaults_are_the_solver_options(self):
        args = build_parser().parse_args(["check", "net.json", "m.json"])
        defaults = SolverOptions()
        assert (args.tol, args.max_sweeps) == (defaults.feasibility_tol, defaults.max_sweeps)

    def test_unwritable_certificate_exit_three(self, files, tmp_path, capsys):
        _assert_input_error(capsys, ["check", files["path"], files["mpath"],
                                     "--certificate", _unwritable(tmp_path, "c.json")])

    @pytest.mark.parametrize("fast_only", [False, True])
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tol_exit_three(self, files, tmp_path, capsys, tol, fast_only):
        # The triangle with the all-ones matrix is infeasible; the path
        # matrix is feasible and has an entry that no source carries.
        cert = tmp_path / "c.json"
        for net, m in [("triangle", "ones"), ("path", "mpath")]:
            argv = ["check", files[net], files[m], "--tol", tol, "--certificate", str(cert)]
            _assert_input_error(capsys, argv + (["--fast-only"] if fast_only else []))
            assert not cert.exists()

    def test_size_mismatch_exit_three(self, files, tmp_path):
        m = _write(tmp_path, "m.json", matrix_to_json(np.eye(2)))
        assert main(["check", files["triangle"], m]) == 3

    def test_malformed_json_exit_three(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["check", files["path"], str(bad)]) == 3

    @pytest.mark.parametrize("net", [
        {"parties": 5, "sources": []},
        {"parties": ["A1", "A2"], "sources": [5]},
        {"parties": ["A1", "A2"], "sources": [{"name": "s0", "parties": 5}]},
    ])
    def test_malformed_network_exit_three(self, files, tmp_path, capsys, net):
        nf = _write(tmp_path, "net.json", net)
        _assert_input_error(capsys, ["check", nf, files["mpath"]])

    @pytest.mark.parametrize("name,text", [
        ("m.json", '{"n": 2, "re": [[NaN, 0], [0, 1]]}'),
        ("m.json", '{"n": 2, "re": [[Infinity, 0], [0, 1]]}'),
        ("m.json", '{"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, -Infinity], [Infinity, 0]]}'),
        ("m.csv", "nan,0\n0,1\n"),
        ("m.csv", "inf,0\n0,1\n"),
    ])
    def test_non_finite_matrix_exit_three(self, tmp_path, capsys, name, text):
        net = _write(tmp_path, "pair.json", {
            "parties": ["A1", "A2"], "sources": [{"name": "s0", "parties": ["A1", "A2"]}]})
        mf = tmp_path / name
        mf.write_text(text)
        cert = tmp_path / "c.json"
        assert main(["check", net, str(mf), "--certificate", str(cert)]) == 3
        assert capsys.readouterr().out == ""
        assert not cert.exists()

    @pytest.mark.parametrize("entries", [
        [[True, False, False], [False, True, False], [False, False, True]],
        [["1.5", "0", "0"], ["0", "1.5", "0"], ["0", "0", "1.5"]],
        [[1, 0, None], [0, 1, 0], [None, 0, 1]],
    ])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_number_entries_exit_three(self, files, tmp_path, capsys, entries, part):
        # np.asarray(..., dtype=float) used to read true as 1.0 and "1.5"
        # as 1.5, so the identity in true/false was "feasible".
        obj = matrix_to_json(np.eye(3))
        obj[part] = entries
        mf = _write(tmp_path, "m.json", obj)
        cert = tmp_path / "c.json"
        err = _assert_input_error(capsys, ["check", files["path"], mf, "--certificate", str(cert)])
        assert err.count("\n") == 1 and "JSON numbers" in err
        assert not cert.exists()

    @pytest.mark.parametrize("eps", [1.0, 1e-8])
    def test_scaled_ones_on_the_triangle_exit_one(self, files, tmp_path, eps):
        m = eps * np.ones((3, 3))
        mf = _write(tmp_path, "m.json", matrix_to_json(m))
        cert = tmp_path / "c.json"
        assert main(["check", files["triangle"], mf, "--certificate", str(cert)]) == 1
        wit = witness_from_json(json.loads(cert.read_text()))
        assert verify_witness(parse_network(TRIANGLE_NET), m, wit, 1e-7)

    def test_csv_matrix_accepted(self, files, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("1,1,0\n1,2,1\n0,1,1\n")
        assert main(["check", files["path"], str(csv),
                     "--certificate", str(tmp_path / "c.json")]) == 0


class TestSimulate:
    def test_path_model_covariance(self, files, capsys):
        code = main(["simulate", files["path"], files["model"], "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        cov = matrix_from_json(doc["covariance"])
        assert np.allclose(cov, np.array(PATH_M, dtype=float), atol=1e-12)
        assert doc["summary"]["independence_violations"] == []

    def test_constant_responses_zero_covariance(self, files, tmp_path, capsys):
        model = json.loads(json.dumps(PATH_MODEL))
        model["responses"]["A1"]["table"] = [1, 0, 1, 0]
        model["responses"]["A3"]["table"] = [1, 0, 1, 0]
        model["responses"]["A2"]["table"] = [1, 0, 0, 0] * 4
        mf = _write(tmp_path, "const.json", model)
        assert main(["simulate", files["path"], mf, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(matrix_from_json(doc["covariance"]), 0.0, atol=1e-12)

    def test_mismatched_model_exit_three(self, files, tmp_path):
        model = json.loads(json.dumps(PATH_MODEL))
        model["responses"]["A1"]["table"] = [1, 0, 0, 0, 1, 0]  # wrong signal shape
        mf = _write(tmp_path, "bad.json", model)
        assert main(["simulate", files["path"], mf]) == 3

    def test_model_not_an_object_exit_three(self, files, tmp_path, capsys):
        mf = _write(tmp_path, "five.json", 5)
        _assert_input_error(capsys, ["simulate", files["path"], mf])

    def test_missing_key_exit_three(self, files, tmp_path, capsys):
        model = json.loads(json.dumps(PATH_MODEL))
        del model["sources"]["s0"]["alphabets"]
        mf = _write(tmp_path, "bad.json", model)
        assert main(["simulate", files["path"], mf]) == 3
        assert capsys.readouterr().err == "error: missing key 'alphabets'\n"

    def test_unwritable_out_exit_three(self, files, tmp_path, capsys):
        _assert_input_error(capsys, ["simulate", files["path"], files["model"],
                                     "--out", _unwritable(tmp_path, "cov.json")])

    def test_out_writes_covariance(self, files, tmp_path, capsys):
        out = tmp_path / "cov.json"
        assert main(["simulate", files["path"], files["model"], "--out", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == doc["covariance"]

    def test_functions_override_the_model_file(self, files, tmp_path, capsys):
        model = {**PATH_MODEL, "functions": 5}
        doubled = {nm: {"re": [2 * x for x in f["re"]]} for nm, f in PATH_MODEL["functions"].items()}
        mf, ff = _write(tmp_path, "m.json", model), _write(tmp_path, "f.json", doubled)
        assert main(["simulate", files["path"], mf, "--functions", ff, "--json"]) == 0
        cov = matrix_from_json(json.loads(capsys.readouterr().out)["covariance"])
        assert np.allclose(cov, 4 * np.array(PATH_M, dtype=float), atol=1e-12)

    def test_nan_pmf_exit_three_naming_the_pmf(self, files, tmp_path, capsys):
        model = json.loads(json.dumps(PATH_MODEL))
        model["sources"]["s0"]["pmf"] = [0.5, float("nan"), 0.0, 0.5]
        mf = _write(tmp_path, "nan.json", model)
        err = _assert_input_error(capsys, ["simulate", files["path"], mf])
        assert err == "error: source 's0' pmf has non-finite entries\n"

    @pytest.mark.parametrize("where", [("sources", "s0", "pmf"), ("responses", "A1", "table")])
    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_non_number_model_entry_exit_three(self, files, tmp_path, capsys, where, bad):
        model = json.loads(json.dumps(PATH_MODEL))
        section, name, key = where
        model[section][name][key][0] = bad
        mf = _write(tmp_path, "bad.json", model)
        err = _assert_input_error(capsys, ["simulate", files["path"], mf])
        assert err.count("\n") == 1 and "JSON numbers" in err

    def test_non_finite_functions_override_exit_three(self, files, tmp_path, capsys):
        ff = tmp_path / "f.json"
        ff.write_text('{"A1": {"re": [NaN, 1]}, "A2": {"re": [2, 0, 0, -2]}, '
                      '"A3": {"re": [1, -1]}}')
        _assert_input_error(
            capsys, ["simulate", files["path"], files["model"], "--functions", str(ff)]
        )


class TestInflate:
    def test_triangle_sign_hexagon(self, files, capsys):
        code = main(["inflate", files["triangle"], "--sign", "+,-,+", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        net = parse_network(doc["network"])
        assert net.n_parties == 6 and net.n_sources == 6
        assert net.all_bipartite()

    def test_covariance_extraction(self, files, capsys):
        code = main(
            ["inflate", files["path"], "--sign", "+,-",
             "--covariance", files["mpath"], "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        big = matrix_from_json(doc["inflated_covariance"])
        assert big.shape == (6, 6)
        assert np.linalg.eigvalsh(big)[0] >= -1e-9
        ext = matrix_from_json(doc["extracted"])
        assert np.allclose(ext, [[1, 1, 0], [1, 2, -1], [0, -1, 1]], atol=1e-12)

    def test_order_one_round_trip(self, files, tmp_path, capsys):
        spec = {"d": 1, "perms": {f"{p}|{s}": [0] for p, s in
                                  [("A1", "s0"), ("A2", "s0"), ("A2", "s1"), ("A3", "s1")]}}
        sf = _write(tmp_path, "spec.json", spec)
        assert main(["inflate", files["path"], "--spec", sf, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        net = parse_network(doc["network"])
        assert net.sources == parse_network(PATH_NET).sources

    def test_spec_with_vectors_compression(self, files, tmp_path, capsys):
        spec = {"d": 2, "perms": {"A1|s0": [0, 1], "A2|s0": [1, 0],
                                  "A2|s1": [0, 1], "A3|s1": [0, 1]}}
        sf = _write(tmp_path, "spec.json", spec)
        vf = _write(tmp_path, "vecs.json", [{"re": [1, 0]}, {"re": [1, 0]}, {"re": [1, 0]}])
        code = main(["inflate", files["path"], "--spec", sf, "--covariance",
                     files["mpath"], "--vectors", vf, "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        ext = matrix_from_json(doc["extracted"])
        # Swapped copy on (A1, s0) kills that entry for first-basis vectors.
        assert ext[0, 1] == 0 and ext[1, 2] == pytest.approx(1.0)

    def test_shift_fourier_extraction(self, files, capsys):
        code = main(["inflate", files["path"], "--shift", "1,0", "--d", "3", "--component", "1",
                     "--covariance", files["mpath"], "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        net, m = parse_network(PATH_NET), np.array(PATH_M, dtype=float)
        spec = shift_inflation(net, {"s0": 1, "s1": 0}, 3)
        big = inflated_covariance(net, m, spec, m.diagonal())
        assert doc["d"] == 3
        assert np.array_equal(matrix_from_json(doc["inflated_covariance"]), big)
        ext = matrix_from_json(doc["extracted"])
        assert np.array_equal(ext, fourier_extract(big, 3, 3, 1))

    def test_out_writes_network(self, files, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["inflate", files["triangle"], "--sign", "+,-,+", "--out", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        written = json.loads(out.read_text())
        assert written == doc["network"] and parse_network(written).n_parties == 6

    def test_unwritable_out_exit_three(self, files, tmp_path, capsys):
        _assert_input_error(capsys, ["inflate", files["triangle"], "--sign", "+,-,+",
                                     "--out", _unwritable(tmp_path, "net.json")])

    def test_requires_one_mode(self, files):
        assert main(["inflate", files["path"]]) == 3

    def test_empty_sign_exit_three(self, files, capsys):
        err = _assert_input_error(capsys, ["inflate", files["path"], "--sign", ""])
        assert "--sign needs 2 values" in err

    @pytest.mark.parametrize("with_covariance", [True, False])
    def test_vectors_without_spec_and_covariance_exit_three(
        self, files, tmp_path, capsys, with_covariance
    ):
        vf = _write(tmp_path, "vecs.json", [{"re": [1, 0]}] * 3)
        cov = ["--covariance", files["mpath"]] if with_covariance else []
        assert main(["inflate", files["path"], "--sign", "+,-", *cov, "--vectors", vf]) == 3
        assert "--vectors" in capsys.readouterr().err

    def test_vectors_not_a_list_exit_three(self, files, tmp_path, capsys):
        spec = {"d": 1, "perms": {f"{p}|{s}": [0] for p, s in
                                  [("A1", "s0"), ("A2", "s0"), ("A2", "s1"), ("A3", "s1")]}}
        sf = _write(tmp_path, "spec.json", spec)
        for vectors in (5, {"terms": {"s0": {"re": [1.0]}}}):
            vf = _write(tmp_path, "v.json", vectors)
            err = _assert_input_error(capsys, ["inflate", files["path"], "--spec", sf,
                                               "--covariance", files["mpath"], "--vectors", vf])
            assert "must hold a JSON list of vectors" in err

    @pytest.mark.parametrize("spec", [
        5,
        {"d": [1], "perms": {}},
        {"d": 2, "perms": {"A1|s0": {"x": 1}, "A2|s0": [0, 1], "A2|s1": [0, 1], "A3|s1": [0, 1]}},
    ])
    def test_malformed_spec_exit_three(self, files, tmp_path, capsys, spec):
        sf = _write(tmp_path, "spec.json", spec)
        _assert_input_error(capsys, ["inflate", files["path"], "--spec", sf])


    @pytest.mark.parametrize("images", [[1.5, 0.0], [True, False], ["1", "0"], [1.0, 0.0]])
    def test_non_integer_permutation_exit_three(self, files, tmp_path, capsys, images):
        # np.asarray(..., dtype=np.intp) used to read 1.5 as 1 and true as 1.
        perms = {f"{p}|{s}": [0, 1] for p, s in
                 [("A1", "s0"), ("A2", "s0"), ("A2", "s1"), ("A3", "s1")]}
        perms["A1|s0"] = images
        sf = _write(tmp_path, "spec.json", {"d": 2, "perms": perms})
        err = _assert_input_error(capsys, ["inflate", files["path"], "--spec", sf])
        assert err.count("\n") == 1 and "JSON integers" in err


class TestEmbezzle:
    def test_uniform_report(self, capsys):
        code = main(["embezzle", "--uniform", "--d", "2", "--R", "1048576", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overlap_re"] >= doc["bound"] >= 0.886

    def test_basis_vector_unity(self, tmp_path, capsys):
        pf = tmp_path / "phi.json"
        pf.write_text(json.dumps([1.0, 0.0, 0.0]))
        assert main(["embezzle", "--phi-file", str(pf), "--R", "4096", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overlap_re"] == pytest.approx(1.0, abs=1e-12)

    def test_negative_d_exit_three(self, capsys):
        _assert_input_error(capsys, ["embezzle", "--uniform", "--d", "-2", "--R", "64"])

    def test_memory_cap_exit_three(self):
        assert main(["embezzle", "--uniform", "--d", "8", "--R", str(2**26)]) == 3

    @pytest.mark.parametrize("text", ['{"re": [NaN, 1.0]}', '{"re": [1.0, Infinity]}', "[NaN, 1.0]"])
    @pytest.mark.parametrize("T", [None, "8"])
    def test_non_finite_phi_exit_three(self, tmp_path, capsys, text, T):
        pf = tmp_path / "phi.json"
        pf.write_text(text)
        args = ["embezzle", "--phi-file", str(pf), "--R", "64", "--json"]
        assert main(args + (["--T", T] if T else [])) == 3
        assert "overlap" not in capsys.readouterr().out


    @pytest.mark.parametrize("phi", [["0.6", "0.8"], [True, False], [0.6, None],
                                     {"re": ["0.6", "0.8"]}])
    def test_non_number_phi_exit_three(self, tmp_path, capsys, phi):
        pf = _write(tmp_path, "phi.json", phi)
        err = _assert_input_error(capsys, ["embezzle", "--phi-file", pf, "--R", "64"])
        assert err.count("\n") == 1 and "JSON numbers" in err


class TestGauss:
    def test_samples_and_estimate(self, files, tmp_path, capsys):
        terms = {
            "target": matrix_to_json(np.array(PATH_M, dtype=float)),
            "terms": {
                "s0": matrix_to_json(np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], float)),
                "s1": matrix_to_json(np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], float)),
            },
            "residual": 0.0,
        }
        df = _write(tmp_path, "dec.json", terms)
        out = tmp_path / "samples.csv"
        code = main(["gauss", files["path"], df, "--count", "20000", "--seed", "5",
                     "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        est = matrix_from_json(doc["covariance_estimate"])
        assert np.max(np.abs(est - np.array(PATH_M))) < 0.1
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (20000, 3)

    def test_cov_out_writes_estimate(self, files, tmp_path, capsys):
        cov = tmp_path / "cov.json"
        df = self._decomposition(tmp_path)
        assert main(["gauss", files["path"], df, "--count", "50", "--cov-out", str(cov), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(cov.read_text()) == doc["covariance_estimate"]
        assert matrix_from_json(doc["covariance_estimate"]).shape == (3, 3)

    def test_bad_decomposition_exit_three(self, files, tmp_path):
        df = _write(tmp_path, "dec.json", {"nope": 1})
        assert main(["gauss", files["path"], df]) == 3

    def test_terms_not_an_object_exit_three(self, files, tmp_path, capsys):
        df = _write(tmp_path, "d.json", {"terms": []})
        _assert_input_error(capsys, ["gauss", files["path"], df])

    @staticmethod
    def _decomposition(tmp_path, s0_im=None):
        s0 = matrix_to_json(np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], float))
        if s0_im is not None:
            s0["im"] = s0_im
        terms = {"s0": s0, "s1": matrix_to_json(np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], float))}
        return _write(tmp_path, "dec.json", {"terms": terms})

    @pytest.mark.parametrize("flag", ["--out", "--cov-out"])
    def test_unwritable_output_exit_three(self, files, tmp_path, capsys, flag):
        df = self._decomposition(tmp_path)
        _assert_input_error(capsys, ["gauss", files["path"], df, "--count", "10",
                                     flag, _unwritable(tmp_path, "x")])

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_three(self, files, tmp_path, capsys, seed):
        df = self._decomposition(tmp_path)
        _assert_input_error(capsys, ["gauss", files["path"], df, "--count", "10", "--seed", seed])

    def test_complex_term_exit_three(self, files, tmp_path, capsys):
        df = self._decomposition(tmp_path, [[0, 0.5, 0], [-0.5, 0, 0], [0, 0, 0]])
        _assert_input_error(capsys, ["gauss", files["path"], df, "--count", "10"])

    def test_cov_out_needs_two_samples(self, files, tmp_path, capsys):
        df = self._decomposition(tmp_path)
        cov, out = tmp_path / "cov.json", tmp_path / "samples.csv"
        err = _assert_input_error(capsys, ["gauss", files["path"], df, "--count", "1",
                                           "--cov-out", str(cov), "--out", str(out)])
        assert "--cov-out" in err
        assert not cov.exists() and not out.exists()


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "covnet" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [],
    ["check", "{path}"],
    ["check", "{path}", "{mpath}", "--tol", "abc"],
    ["check", "{path}", "{mpath}", "--max-sweeps", "2.5"],
    ["check", "{path}", "{mpath}", "--no-such-flag"],
    ["inflate", "{triangle}"],
    ["inflate", "{triangle}", "--sign", "+,-,+", "--shift", "1,0,1"],
    ["embezzle", "--R", "64"],
    ["embezzle", "--uniform", "--d", "2", "--phi-file", "{tmp}/phi.json", "--R", "64"],
    ["gauss", "{path}", "{dec}", "--count", "x"],
    ["simulate", "{path}"],
], ids=["no-command", "check-one-positional", "check-tol-abc", "check-max-sweeps-2.5",
        "check-unknown-flag", "inflate-no-mode", "inflate-two-modes", "embezzle-no-phi",
        "embezzle-two-phis", "gauss-count-x", "simulate-one-positional"])
def test_usage_error_exit_three(files, capsys, argv):
    # Each argv is valid but for one usage error, which the parser reports.
    files = {**files, "dec": TestGauss._decomposition(files["tmp"])}
    assert main([arg.format(**files) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: covnet") and err.count("\n") == 1
    assert "usage:" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_oversized_request_exit_three(files):
    # Under a 2 GiB address-space limit the 24 TB sample array is refused
    # at once, so no memory is touched whatever the overcommit setting.
    argv = ["gauss", files["path"], TestGauss._decomposition(files["tmp"]),
            "--count", str(10**12)]
    out = run_fresh_python(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "import contextlib, io, json, os\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "from covnet.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, err.getvalue()]))\n"
    )
    code, err = json.loads(out)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
