"""Spin correlation consequences of the dimer correspondence.

Squared multi-spin correlations equal ratios of dimer partition functions
on the quad graph: the corollary's declared edges (``COROLLARY``), over an
instance whose order paths pair up the spins.  Boundary magnetization
reduces to a pair correlation after contracting the plus boundary.  Mixed
order/disorder correlators, and the Kramers-Wannier duality between a map
and its dual, are declared edges of the theorem1 and duality suites (see
suites).
"""

from __future__ import annotations

from .boundary import reduce_plus
from .errors import EndpointMismatch
from .instances import Instance
from .ising import CouplingAssignment, spin_expectation
from .planar_map import CombinatorialMap, DefectSet, shortest_path, validate_defects
from .reports import Edge, IdentityReport, compare, edge_reports

# The product of the order paths' endpoint spins, taken directly and
# through the defect machinery (the correlator), squared equals the dimer
# ratio.  Without an order path each side is 1.
COROLLARY = (
    Edge("direct_squared_vs_dimer_ratio", lambda i: i.direct * i.direct,
         lambda i: i.dimer_ratio,
         extra=lambda i: {"gamma": len(i.defects.gamma), "method": i.route}),
    Edge("spin_correlation_vs_direct", lambda i: i.correlator, lambda i: i.direct),
    Edge("squared_spin_vs_dimer_ratio", lambda i: i.correlator * i.correlator,
         lambda i: i.dimer_ratio),
)


def magnetization_report(
    m: CombinatorialMap,
    j: CouplingAssignment,
    face: int,
    u: int,
    tol: float = 1e-9,
) -> tuple[float, list[IdentityReport]]:
    """Magnetization at ``u`` with the boundary of ``face`` fixed to +1,
    with the reports of every check it makes, failed or not.

    Route (a) is the direct fixed-boundary spin average; route (b) is the
    pair correlation E[s_u s_b] on the contracted graph, b the merged
    boundary vertex: the correlator of an order path along a shortest
    path, itself checked against that graph's direct average.  When the
    contracted graph is bridge-free, the squares of (a) and (b) are checked
    against its dimer ratio.
    """
    boundary_vertices = set(m.face_vertices(face))
    if u in boundary_vertices:
        return 1.0, [compare("magnetization_fixed_vertex", 1.0, 1.0, tol=tol)]
    direct = spin_expectation(m, j, [u], fixed={v: 1 for v in boundary_vertices})

    res = reduce_plus(m, j, DefectSet.empty(), face)
    gp = res.new_map
    spec = shortest_path(gp, res.vertex_map[u], res.merged_vertex)
    if spec is None:
        raise EndpointMismatch(
            f"no correlation path from vertex {u} to the boundary of face {face}"
        )
    edges = (
        Edge("magnetization_pair_reduction", lambda i: direct, lambda i: i.correlator,
             extra=lambda i: {"path_edges": len(spec.edges)}),
        COROLLARY[1],
    )
    if not gp.has_bridge():
        edges += (
            Edge("magnetization_squared_vs_dimer", lambda i: direct * direct,
                 lambda i: i.dimer_ratio, extra=lambda i: {"method": i.route}),
            COROLLARY[2],
        )
    inst = Instance(gp, res.new_couplings, validate_defects(gp, (spec,), ()))
    return direct, edge_reports(edges, inst, tol)
