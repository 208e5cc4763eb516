"""The package namespace: what ``import covnet`` loads, and that every
public name still resolves when the constructions load on first use."""

import json

import pytest

import covnet
from support import fresh_peak_mb, run_fresh_python

LAZY_MODULES = ("embezzle", "inflate", "witness", "gaussian", "simulate")

# The public names of the package, pinned when the constructions became lazy.
PUBLIC_NAMES = (
    "Decomposition", "DualWitness", "EmbezzleResult", "EmbezzledGramSpec",
    "Feasibility", "GaussianNetworkModel", "InflatedNetwork", "InflationSpec",
    "JointDistribution", "NdcsReport", "Network", "OutputFunctions",
    "ResponseModel", "SampleBatch", "SourceModel",
    "TwistedGramSpec", "approximate_dual_by_twisted_gram", "as_hermitian",
    "build_inflation", "build_joint_distribution",
    "build_sign_matrix", "build_twisted_gram", "check_independence",
    "comparison_matrix", "compress_by_vectors", "conjugate",
    "covariance_matrix", "decompose", "embezzle", "embezzle_complex",
    "embezzle_real", "fast_check_bipartite", "formats", "fourier_extract", "gaussian",
    "hadamard_extract", "harmonic_number", "inflate", "inflate_models",
    "inflated_covariance", "is_in_dual_cone", "is_psd", "linalg", "marginal",
    "matrix_from_json", "matrix_to_json", "min_eigenvalue", "mu_state",
    "network", "parse_network", "phase_permutation", "psd_project", "sample",
    "sample_covariance", "schur_product", "shift_inflation", "sign_inflation",
    "simulate", "sort_permutation", "theta_state",
    "verify_decomposition", "verify_witness", "witness",
)

LOADED = (
    "import sys\n"
    f"print(sorted(m for m in {LAZY_MODULES!r} if 'covnet.' + m in sys.modules))\n"
)


def test_import_loads_only_the_decision_core():
    assert run_fresh_python("import covnet\n" + LOADED).strip() == "[]"


def test_import_loads_the_core_without_json_or_dataclasses():
    # Records are named tuples (no per-class code generation), and only
    # covnet.formats, which loads on first use, needs the json module.
    watched = ("covnet.linalg", "covnet.network", "covnet.solver", "covnet.formats", "json",
               "dataclasses")
    out = run_fresh_python(
        "import sys, covnet\n"
        f"print(sorted(m for m in {watched!r} if m in sys.modules))\n"
        f"for m in {LAZY_MODULES!r}: getattr(covnet, m)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert out.splitlines() == [
        "['covnet.linalg', 'covnet.network', 'covnet.solver']", "False",
    ]


def test_cli_check_loads_only_the_decision_core(tmp_path):
    net = {
        "parties": ["A1", "A2", "A3"],
        "sources": [
            {"name": "s0", "parties": ["A1", "A2"]},
            {"name": "s1", "parties": ["A2", "A3"]},
            {"name": "s2", "parties": ["A1", "A3"]},
        ],
    }
    (tmp_path / "net.json").write_text(json.dumps(net))
    (tmp_path / "m.json").write_text(json.dumps({"n": 3, "re": [[1, 1, 1]] * 3}))
    args = [str(tmp_path / f) for f in ("net.json", "m.json", "cert.json")]
    out = run_fresh_python(
        "import covnet.cli\n"
        f"code = covnet.cli.main(['check', {args[0]!r}, {args[1]!r}, '--certificate', {args[2]!r}])\n"
        + LOADED + "print(code)\n"
    )
    assert out.splitlines()[-2:] == ["[]", "1"]
    assert json.loads((tmp_path / "cert.json").read_text())["method"] == "witness"


def test_inflate_does_not_load_the_simulator():
    out = run_fresh_python("import covnet\ncovnet.build_inflation\n" + LOADED)
    assert out.strip() == "['embezzle', 'inflate']"


def test_no_scipy_module_loads():
    out = run_fresh_python(
        "import sys, covnet, covnet.cli\n"
        f"for m in {LAZY_MODULES!r}: getattr(covnet, m)\n"
        + LOADED
        + "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert out.splitlines() == [str(sorted(LAZY_MODULES)), "[]"]


def test_every_public_name_resolves():
    listed = set(covnet.__all__) & set(dir(covnet))
    assert [n for n in PUBLIC_NAMES if n not in listed] == []
    assert all(getattr(covnet, n) is not None for n in PUBLIC_NAMES)
    star = {}
    exec("from covnet import *", star)
    assert [n for n in PUBLIC_NAMES if n not in star] == []


def test_lazy_submodule_attribute_is_the_module():
    out = run_fresh_python(
        "import sys, covnet\n"
        "m = covnet.inflate\n"
        "print(sys.modules['covnet.inflate'] is m, covnet.build_inflation is m.build_inflation)\n"
    )
    assert out.split() == ["True", "True"]


def test_solver_module_is_not_shadowed():
    import covnet.solver as solver

    assert solver.decompose is covnet.decompose
    assert solver._Splits


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        covnet.no_such_name


def test_fresh_peak_mb_reads_the_new_interpreter_alone():
    # On Linux a child's ru_maxrss starts at the peak of the process that
    # forked it, here the test process; the VmHWM read instead is reset by
    # exec, and a bare interpreter stays far below 30 MB.
    assert fresh_peak_mb("pass") < 30
