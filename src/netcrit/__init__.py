"""Critical-router analysis for control-network topologies.

Pairs graph-centrality rankings (betweenness, eccentricity, eigenvector,
edge betweenness) with a seeded discrete-event packet simulator that can
inject DoS/DDoS disturbances, and compares the two views of criticality.
"""

from .analysis import (
    RankingComparison,
    compare_rankings,
    rank_by_delay,
)
from .metrics import (
    Direction,
    PowerIterationError,
    RankCluster,
    betweenness_centrality,
    eccentricity_centrality,
    edge_betweenness,
    eigenvector_centrality,
    rank_with_ties,
)
from .simulator import (
    RunRecord,
    Scenario,
    SimConfig,
    SimResult,
    SimulationLimitError,
    run,
)
from .topology import (
    BUILTIN_CASE_IDS,
    ForwardingTable,
    NodeRole,
    Topology,
    TopologyError,
    build_routing_table,
    builtin_case,
    edge_key,
    load_topology,
    parse_topology,
    serialize_topology,
    validate_topology,
)

__version__ = "0.1.0"
