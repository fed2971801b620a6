"""Simulation, classification, and optimization of generalized type-II fusion.

A fusion of two photonic cluster states is fixed by a 4x4 unitary mixing the
two input qubits' creation operators into four detected modes.  This package
computes every detection outcome's probability and conditional state
(`fusion`), its entanglement entropy (`entanglement`), and its place in the
state hierarchy from product states to stabilizer states (`classify`);
optimizes the matrix against entropy/probability objectives (`optimize`);
and cross-checks all of it against brute-force state-vector simulations of
actual cluster-state fusions (`oracle`).  `verify` bundles the randomized
property suites, `cli` the command-line front end.
"""

from .matrices import (
    BUILTIN_NAMES,
    FusionlabError,
    MalformedInputError,
    NotUnitaryError,
    builtin,
    from_params,
    haar_sample,
    load_matrix,
    params_from_matrix,
    phase_multiply,
    resolve_matrix,
    save_matrix,
    validate_unitary,
)
from .fusion import (
    ChannelInvariants,
    Outcome,
    OutcomeTable,
    RELEVANT_PAIRS,
    channel_invariants,
    diag_probabilities,
    outcome_table,
    relevant_probabilities,
    total_relevant_probability,
)
from .entanglement import (
    determinant,
    determinants_from_matrix,
    entropies_from_matrix,
    entropy,
    entropy_from_det,
    is_maximally_entangled,
    outcome_entropy,
    reduced_density,
    schmidt,
)
# NB: the classify() and optimize() functions are deliberately not re-exported
# at package level; those names stay bound to their submodules.
from .classify import (
    Classification,
    ClusterParams,
    LABELS,
    MaxEntangledParams,
    WeightedGraphParams,
    is_cluster_up_to_rotation,
    is_product,
    is_stabilizer,
    is_weighted_graph,
    max_entangled_params,
)
from .optimize import (
    ExpectationEntropy,
    OptimizerConfig,
    OptResult,
    ThresholdProbability,
    expectation_entropy,
    random_scatter,
    sweep,
    threshold_probability,
)
from .oracle import (
    FusionScenario,
    GraphSpec,
    TooManyQubits,
    bipartite_entropy,
    bosonic_outcome_table,
    build_graph_state,
    check_Te_stabilizer,
    check_stabilizers,
    check_weighted_graph_equivalence,
    compare_scenario,
    fuse,
    graph,
    parse_graph_spec,
    parse_scenario,
)
from .verify import SUITE_NAMES, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
