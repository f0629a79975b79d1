"""Spin correlation consequences of the dimer correspondence.

Squared multi-spin correlations equal ratios of dimer partition functions
on the quad graph, and boundary magnetization reduces to a pair
correlation after contracting the plus boundary.  Mixed order/disorder
correlators, and the Kramers-Wannier duality between a map and its dual,
are declared edges of the theorem1 and duality suites (see suites).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .boundary import reduce_plus
from .errors import EndpointMismatch
from .instances import Instance
from .ising import CouplingAssignment, spin_expectation
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    shortest_path,
    validate_defects,
)
from .reports import IdentityReport, compare


def dimer_correlation_ratio(inst: Instance) -> tuple[float, str]:
    """Z_dimer(nu(Jbar)) / Z_dimer(nu(J)) on the instance's quad graph,
    both sums by its route (see Instance), and that route."""
    zd = inst.dimer
    return inst.dimer_bar / zd, inst.route


def spin_correlation(
    m: CombinatorialMap,
    j: CouplingAssignment,
    vertices: Sequence[int],
    paths: Sequence[PathSpec],
    tol: float = 1e-9,
) -> float:
    """E[s_{u_1} ... s_{u_2n}] through the defect machinery.

    The paths must pair up the requested vertices; their edges form the
    order defect.  The value is cross-checked against the direct spin
    average, so a silent defect-bookkeeping bug cannot survive here.
    """
    return _checked_spin_correlation(m, j, vertices, paths, tol)[0]


def _checked_spin_correlation(
    m: CombinatorialMap,
    j: CouplingAssignment,
    vertices: Sequence[int],
    paths: Sequence[PathSpec],
    tol: float,
) -> tuple[float, float, Instance]:
    """spin_correlation's value, the direct spin average it was checked
    against, and the instance of the paths' order defect that holds it."""
    if len(vertices) % 2:
        raise EndpointMismatch("spin insertions must come in pairs")
    want = Counter(vertices)
    got = Counter(x for p in paths for x in p.endpoints)
    if want != got:
        raise EndpointMismatch(
            f"path endpoints {sorted(got.elements())} do not pair up the "
            f"vertices {sorted(want.elements())}"
        )
    inst = Instance(m, j, validate_defects(m, paths, ()))
    value = inst.correlator
    direct = spin_expectation(m, j, vertices)
    compare("spin_correlation_vs_direct", value, direct, tol=tol).require()
    return value, direct, inst


def _squared_vs_dimer(inst: Instance, value: float, tol: float) -> tuple[float, str]:
    """Checks value^2 against the instance's dimer ratio and returns
    dimer_correlation_ratio's (ratio, method)."""
    ratio, method = dimer_correlation_ratio(inst)
    compare("squared_spin_vs_dimer_ratio", value * value, ratio, tol=tol).require()
    return ratio, method


def magnetization_report(
    m: CombinatorialMap,
    j: CouplingAssignment,
    face: int,
    u: int,
    tol: float = 1e-9,
) -> tuple[float, list[IdentityReport]]:
    """Magnetization at ``u`` with the boundary of ``face`` fixed to +1,
    with the comparison reports of the two computation routes.

    Route (a) is the direct fixed-boundary spin average; route (b) is the
    pair correlation E[s_u s_b] on the contracted graph, b the merged
    boundary vertex, along a shortest path.  When the contracted graph is
    bridge-free the squared value is additionally checked against its
    dimer ratio.
    """
    boundary_vertices = set(m.face_vertices(face))
    if u in boundary_vertices:
        return 1.0, [compare("magnetization_fixed_vertex", 1.0, 1.0, tol=tol)]
    direct = spin_expectation(m, j, [u], fixed={v: 1 for v in boundary_vertices})

    res = reduce_plus(m, j, DefectSet.empty(), face)
    gp, jp = res.new_map, res.new_couplings
    b = res.merged_vertex
    u_new = res.vertex_map[u]
    spec = shortest_path(gp, u_new, b)
    if spec is None:
        raise EndpointMismatch(
            f"no correlation path from vertex {u} to the boundary of face {face}"
        )

    pair, _direct, inst = _checked_spin_correlation(gp, jp, (u_new, b), (spec,), tol)
    reports = [
        compare(
            "magnetization_pair_reduction",
            direct,
            pair,
            tol=tol,
            extra={"path_edges": len(spec.edges)},
        )
    ]
    if not gp.has_bridge():
        ratio, method = _squared_vs_dimer(inst, pair, tol)
        reports.append(
            compare(
                "magnetization_squared_vs_dimer",
                direct * direct,
                ratio,
                tol=tol,
                extra={"method": method},
            )
        )
    return direct, reports

