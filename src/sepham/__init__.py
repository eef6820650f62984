"""Families of locally separated Hamilton paths, cycles, and permutations.

Construct, verify, and exactly optimize families whose pairwise unions
satisfy a local separation condition: crossing path pairs, two-separated
permutation pairs, and edge-sharing cycle pairs, together with the
closed-form bounds these families obey at every n.
"""

from .bounds import (
    BoundsRecord,
    InequalityReport,
    check_inequalities,
    eval_bounds,
    incompat_bound,
)
from .constructions import (
    bipartite_crossing_family,
    bipartite_path,
    kernel_cycle_family,
    two_diff_family,
    walecki_decomposition,
)
from .core import (
    CoupleOrder,
    DegreeProfile,
    Family,
    HamiltonCycle,
    HamiltonPath,
    Permutation,
    canonical_cycle,
    canonical_path,
    couple_order,
    cycle_edges,
    inverse,
    path_edges,
    positions,
    union_degree_profile,
)
from .greedy import GreedyConfig, greedy_family
from .oracle import (
    CompatibilityGraph,
    OracleResult,
    build_compatibility_graph,
    max_clique_exact,
    oracle_quantity,
)
from .relations import (
    Witness,
    cycles_degree3_equiv,
    is_crossing,
    is_two_different,
    is_two_separated,
    is_value_separated,
    shares_edge,
    verify_witness,
)
from .structure import (
    RunStructure,
    close_enough_follower,
    count_incompatible,
    incompatible_with_identity,
    property_uno_holds,
    run_structure,
    standardize_against,
)

__version__ = "0.1.0"
