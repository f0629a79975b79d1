"""Exact verification of squared order/disorder correlations against
dimer partition-function ratios on sphere-embedded planar graphs.

The pipeline: a rotation system (combinatorial map) carries an Ising
model whose couplings can be modified along disjoint order and disorder
defect paths; the squared modified-to-plain partition-function ratio
equals a signed ratio of dimer partition functions on the derived
bipartite graph G_Q, with a pair-polygon expansion connecting the two.
Every identity is checked two ways at desk scale.
"""

from __future__ import annotations

from .boundary import (
    ReductionResult,
    reduce_dobrushin,
    reduce_plus,
    reduce_plus_free,
)
from .consequences import magnetization_report
from .dimer import (
    DIMER_CAP,
    QuadDimerGraph,
    brute_force_dimer_Z,
    build_gq,
    calibration_sign,
    dimer_partition_function,
    dimer_Z_det,
    graph_context,
    kasteleyn_orientation,
    matching_count_report,
    matching_pair_histogram,
    nu_from_couplings,
    polygon_to_dimer_count,
)
from .errors import BozonError, IdentityViolation
from .graphs import BUILTIN_EXAMPLES, builtin, c4, grid, k3, wheel
from .instances import Instance
from .ising import (
    STATE_CAP,
    CouplingAssignment,
    base_couplings,
    dual_couplings,
    high_temp_expansion_check,
    modify_couplings,
    partition_function,
    spin_expectation,
    uniform_couplings,
)
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    build_map,
    dual,
    quad_graph,
    shortest_path,
    validate_defects,
    vertex_to_dual_face,
    walk_path,
)
from .polygon import pair_polygon_sum, polygon_weights
from .reports import IdentityReport, compare, flatten_check
from .serialize import (
    canonical_json,
    couplings_from_dict,
    couplings_to_dict,
    defect_paths_from_dict,
    defects_to_dict,
    gq_to_dict,
    map_from_dict,
    map_to_dict,
)
from .suites import (
    SUITE_NAMES,
    explicit_instance,
    instance_reports,
    run_explicit,
    run_suite,
    suite_summary,
)

__all__ = [
    "BOZON_VERSION",
    "BUILTIN_EXAMPLES",
    "BozonError",
    "CombinatorialMap",
    "CouplingAssignment",
    "DIMER_CAP",
    "DefectSet",
    "IdentityReport",
    "IdentityViolation",
    "Instance",
    "PathSpec",
    "QuadDimerGraph",
    "ReductionResult",
    "STATE_CAP",
    "SUITE_NAMES",
    "base_couplings",
    "brute_force_dimer_Z",
    "build_gq",
    "build_map",
    "builtin",
    "c4",
    "calibration_sign",
    "canonical_json",
    "compare",
    "couplings_from_dict",
    "couplings_to_dict",
    "defect_paths_from_dict",
    "defects_to_dict",
    "dimer_Z_det",
    "dimer_partition_function",
    "dual",
    "dual_couplings",
    "explicit_instance",
    "flatten_check",
    "gq_to_dict",
    "graph_context",
    "grid",
    "high_temp_expansion_check",
    "instance_reports",
    "k3",
    "kasteleyn_orientation",
    "magnetization_report",
    "map_from_dict",
    "map_to_dict",
    "matching_count_report",
    "matching_pair_histogram",
    "modify_couplings",
    "nu_from_couplings",
    "pair_polygon_sum",
    "partition_function",
    "polygon_to_dimer_count",
    "polygon_weights",
    "quad_graph",
    "reduce_dobrushin",
    "reduce_plus",
    "reduce_plus_free",
    "run_explicit",
    "run_suite",
    "shortest_path",
    "spin_expectation",
    "suite_summary",
    "uniform_couplings",
    "validate_defects",
    "vertex_to_dual_face",
    "walk_path",
    "wheel",
]

BOZON_VERSION = "0.1.0"
