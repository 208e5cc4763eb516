"""covnet: covariance compatibility tests for causal networks.

Decide whether a covariance matrix can arise from a given two-layer network
of independent sources, via an exact comparison-matrix test for
bipartite-source networks, a cone-projection feasibility solver with dual
witnesses for the general case, and the supporting constructions (sign and
twisted Gram matrices, non-fanout inflations, permutation embezzlement) plus
classical and Gaussian network simulators.
"""

__version__ = "0.1.0"

from .decompose import (
    Decomposition,
    DualWitness,
    Feasibility,
    SolverOptions,
    available_backends,
    decompose,
    fast_check_bipartite,
    solver_backend,
    verify_decomposition,
    verify_witness,
)
from .embezzle import (
    EmbezzleResult,
    embezzle_complex,
    embezzle_real,
    harmonic_number,
    mu_state,
    phase_permutation,
    sort_permutation,
    theta_state,
)
from .gaussian import GaussianNetworkModel, SampleBatch, sample, sample_covariance
from .inflate import (
    InflatedNetwork,
    InflationSpec,
    build_inflation,
    compress_by_vectors,
    fourier_extract,
    hadamard_extract,
    inflate_models,
    inflated_covariance,
    shift_inflation,
    sign_inflation,
)
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
from .simulate import (
    JointDistribution,
    OutputFunctions,
    ResponseModel,
    SourceModel,
    build_joint_distribution,
    check_independence,
    covariance_matrix,
    marginal,
)
from .witness import (
    EmbezzledGramSpec,
    TwistedGramSpec,
    approximate_dual_by_twisted_gram,
    build_sign_matrix,
    build_twisted_gram,
    is_in_dual_cone,
)
