"""Coined quantum walks on finite graphs, their exactly equivalent
non-homogeneous random walks, and trajectory sampling on top of them."""

# The one version literal: pyproject.toml reads it, manifests record it.
__version__ = "0.1.0"

from .baselines import (
    RejectionReport,
    TorusDPState,
    exact_rejection_marginals,
    grover_torus_dp,
    grover_torus_matrix,
    rejection_sample,
)
from .coins import (
    check_coin_unitary,
    grover_coin,
    hadamard_coin,
    identity_coin,
    random_unitary_coin,
)
from .equivalence import (
    PropertyReport,
    TransitionMatrix,
    TransitionMatrixSeq,
    build_sequence,
    verify_theorem_properties,
)
from .errors import (
    ApplicabilityError,
    ConfigError,
    ConsistencyError,
    GraphError,
    QRWalkError,
    ResourceLimitError,
    UnitarityError,
    ValidationError,
)
from .graphs import (
    PortGraph,
    ProductGraph,
    build_graph,
    complete_graph,
    cycle_graph,
    graph_from_json,
    graph_hash,
    random_regular_graph,
    torus_graph,
)
from .trajectory import (
    ConvergenceReport,
    TrajectoryEnsemble,
    convergence_report,
    empirical_distribution,
    locality_fraction,
    sample_ensemble,
    total_variation,
)
from .walk import (
    CoinSpec,
    InteractionSpec,
    ShiftSpec,
    WaveFunction,
    evolve,
    step,
    vertex_distribution,
    vertex_masses,
)

