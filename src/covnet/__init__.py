"""covnet: covariance compatibility tests for causal networks.

Decide whether a covariance matrix can arise from a given two-layer network
of independent sources, via an exact comparison-matrix test for
bipartite-source networks, a solver over splits of the shared entries with
decompositions and dual witnesses for the general case, and the supporting
constructions (sign and twisted Gram matrices, non-fanout inflations,
permutation embezzlement) plus classical and Gaussian network simulators.

``import covnet`` loads only the decision core: ``linalg``, ``network`` and
``solver``.  The constructions and simulators (``embezzle``, ``gaussian``,
``inflate``, ``simulate``, ``witness``) are imported on first access to one
of their names, e.g. ``covnet.embezzle_real`` or ``covnet.inflate``; the
names are the same as if they had been imported eagerly.  ``solver`` keeps
its splits, the equal one, the comparison one and the barrier's, as stacks
of source blocks in ``splits``, which it imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .linalg import (
    as_hermitian,
    comparison_matrix,
    conjugate,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    psd_project,
    schur_product,
)
from .network import NdcsReport, Network, parse_network
from .solver import (
    Decomposition,
    DualWitness,
    Feasibility,
    decompose,
    fast_check_bipartite,
    is_in_dual_cone,
    verify_decomposition,
    verify_witness,
)

# Public names of the submodules that load on first use.
_LAZY = {
    "embezzle": (
        "EmbezzleResult",
        "embezzle_complex",
        "embezzle_real",
        "harmonic_number",
        "mu_state",
        "phase_permutation",
        "sort_permutation",
        "theta_state",
    ),
    "gaussian": ("GaussianNetworkModel", "SampleBatch", "sample", "sample_covariance"),
    "inflate": (
        "InflatedNetwork",
        "InflationSpec",
        "build_inflation",
        "compress_by_vectors",
        "fourier_extract",
        "hadamard_extract",
        "inflate_models",
        "inflated_covariance",
        "shift_inflation",
        "sign_inflation",
    ),
    "simulate": (
        "JointDistribution",
        "OutputFunctions",
        "ResponseModel",
        "SourceModel",
        "build_joint_distribution",
        "check_independence",
        "covariance_matrix",
        "marginal",
    ),
    "witness": (
        "EmbezzledGramSpec",
        "TwistedGramSpec",
        "approximate_dual_by_twisted_gram",
        "build_sign_matrix",
        "build_twisted_gram",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _LAZY.keys() | _LAZY_OWNER.keys()
)


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
