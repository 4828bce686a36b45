"""LDPC codes from bipartite cubic symmetric graphs.

Build (3,3)-regular codes whose Tanner graph is a given cubic bipartite
graph, compute their exact parameters and structural bounds, and simulate
decoding over BSC and AWGN channels.
"""

from .gf2 import BitMatrix
from .graphs import (
    Bipartition,
    Graph,
    bipartition,
    girth,
    is_connected,
    is_cubic,
    load_edge_list,
    parse_lcf,
)
from .codes import (
    LinearCode,
    build_code,
    extend_parity_check,
    extended_parity_check,
    hull_dimension,
    is_even_code,
    is_lcd,
    is_self_orthogonal,
    minimum_distance,
    parity_check_of,
    tanner_graph,
)
from .bounds import BitNodeGraph, BoundsReport, bit_node_graph, compute_bounds
from .channel import AwgnChannel, BscChannel, f_t, syndrome, syndrome_variance_formula
from .decoders import DecodeResult, GallagerADecoder, SumProductDecoder
from .experiments import ExperimentConfig, run_experiment, run_experiments
from .analysis import AnalysisReport, analyze_graph, load_graph_file

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AwgnChannel",
    "Bipartition",
    "BitMatrix",
    "BitNodeGraph",
    "BoundsReport",
    "BscChannel",
    "DecodeResult",
    "ExperimentConfig",
    "GallagerADecoder",
    "Graph",
    "LinearCode",
    "SumProductDecoder",
    "analyze_graph",
    "bipartition",
    "bit_node_graph",
    "build_code",
    "compute_bounds",
    "extend_parity_check",
    "extended_parity_check",
    "f_t",
    "girth",
    "hull_dimension",
    "is_connected",
    "is_cubic",
    "is_even_code",
    "is_lcd",
    "is_self_orthogonal",
    "load_edge_list",
    "load_graph_file",
    "minimum_distance",
    "parity_check_of",
    "parse_lcf",
    "run_experiment",
    "run_experiments",
    "syndrome",
    "syndrome_variance_formula",
    "tanner_graph",
]
