"""Bridgeness centrality toolkit.

Decomposes betweenness centrality into a global (bridgeness) and a local
term, scores community bridges with an inverse-link-count indicator, detects
communities by modularity optimization, generates planted-partition
benchmark networks without degree-biased bridges, and compares rankings
against the community indicator.
"""

__version__ = "0.1.0"

from .centrality import (
    CentralityResult,
    bridgeness_exact,
    bridgeness_si_compat,
    locterm_by_degree,
)
from .community import LouvainConfig, LouvainRun, louvain_passes, modularity
from .evaluation import (
    RankingCurve,
    cumulative_ratio_curve,
    curve_advantage,
    locterm_correlation,
    smooth,
)
from .graph import (
    EdgeListError,
    Graph,
    NodeTable,
    Partition,
    PartitionError,
    load_edge_list,
    load_partition,
    write_edge_list,
    write_partition,
)
from .indicator import global_indicator
from .netgen import (
    GeneratedNetwork,
    GenerationError,
    LfrConfig,
    generate,
)

__all__ = [
    "__version__",
    "Graph",
    "NodeTable",
    "Partition",
    "EdgeListError",
    "PartitionError",
    "load_edge_list",
    "load_partition",
    "write_edge_list",
    "write_partition",
    "CentralityResult",
    "bridgeness_exact",
    "bridgeness_si_compat",
    "locterm_by_degree",
    "global_indicator",
    "LouvainConfig",
    "LouvainRun",
    "modularity",
    "louvain_passes",
    "LfrConfig",
    "GeneratedNetwork",
    "GenerationError",
    "generate",
    "RankingCurve",
    "cumulative_ratio_curve",
    "smooth",
    "curve_advantage",
    "locterm_correlation",
]
