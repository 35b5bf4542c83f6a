"""swaplab: desk-scale simulation lab for swap-test distance estimation,
decision-error bounds, and epsilon-graph construction."""

from .statevec import (
    MAX_QUBITS,
    ResourceError,
    StateVector,
    apply_cswap,
    apply_hadamard,
    exact_marginal,
    inner_product,
    make_basis_state,
    make_qubit_state,
    sample_outcomes,
    tensor,
)
from .circuits import (
    CircuitSpec,
    Gate,
    PairMap,
    RegisterLayout,
    build_multiswap_full,
    build_naive_multiswap,
    build_swap_test,
    build_un,
    circuit_to_json,
    count_resources,
    derive_pair_map,
    pad_inputs,
    simulate,
)
from .stats import (
    OverlapEstimate,
    alpha_eps_multi,
    alpha_eps_standard,
    chernoff_lower,
    chernoff_upper,
    estimate_overlaps,
    false_negative_exact,
    gamma_tilde,
    kl_bernoulli,
    n_gamma,
    overlap_to_distance,
    p0ij_theory,
    prob_to_overlap_sq,
    proposition1_lower,
    theorem1_calls,
)
from .egraph import (
    EXACT_SHOTS,
    EpsilonGraph,
    GraphDiff,
    KDTree,
    PointCloud,
    brute_force_egraph,
    compare_graphs,
    encode_point,
    kdtree_egraph,
    load_point_cloud,
    quantum_egraph,
)

__version__ = "0.1.0"
