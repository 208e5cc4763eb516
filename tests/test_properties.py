"""Property tests: laws that hold for every instance the generators draw."""

import numpy as np
from hypothesis import given, settings, strategies as st

from covnet.solver import (
    Decomposition,
    Feasibility,
    decompose,
    verify_decomposition,
    verify_witness,
)
from support import (
    random_bipartite_network,
    random_boundary_instance,
    random_feasible,
    random_ndcs_network,
)

# derandomize: every run draws the same examples; database=None: no example
# database is kept (conftest.py moves hypothesis's other cache).
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """Drawn by seed, as the batteries draw them: a bipartite network of 2-6
    parties or an NDCS one of 3-6 with a three-party source, and a feasible
    or boundary matrix on it, real or complex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        net = random_bipartite_network(rng, draw(st.integers(2, 6)))
    else:
        n = draw(st.integers(3, 6))
        net = random_ndcs_network(rng, n)
        while all(len(adj) < 3 for adj in net.sources):
            net = random_ndcs_network(rng, n)
    make = random_boundary_instance if draw(st.booleans()) else random_feasible
    return net, make(net, rng, draw(st.booleans()))


@PROPERTY
@given(instances(), st.integers(-900, 900))
def test_verdicts_and_certificates_scale_with_m(instance, k):
    # x2^k is exact at these scales, every tolerance is relative to ||M||_F
    # and the barrier runs on M / ||M||_F: the same verdict in the same
    # Newton steps, and the certificate scaled by 2^k verifies on 2^k M.
    net, m = instance
    s = 2.0**k
    res, scaled = decompose(net, m), decompose(net, s * m)
    assert (scaled.status, scaled.sweeps) == (res.status, res.sweeps)
    if res.status is Feasibility.FEASIBLE:
        d = res.decomposition
        terms = {name: s * t for name, t in d.terms.items()}
        assert verify_decomposition(net, s * m, Decomposition(terms, s * m, s * d.residual_norm), 1e-7)
    elif res.status is Feasibility.INFEASIBLE:
        # verify_witness recomputes the inner product from w and m.
        assert verify_witness(net, s * m, res.witness._replace(w=s * res.witness.w), 1e-7)
