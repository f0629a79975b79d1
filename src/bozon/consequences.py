"""Spin correlation consequences of the dimer correspondence.

Squared multi-spin correlations equal ratios of dimer partition functions
on the quad graph; boundary magnetization reduces to a pair correlation
after contracting the plus boundary; and a planar graph with its dual
satisfies the Kramers-Wannier coupling duality edge by edge, for modified
couplings, and at the correlator level.  Mixed order/disorder correlators
are checked by dimer.theorem_reports.
"""

from __future__ import annotations

import cmath
from collections import Counter
from typing import Sequence

from .boundary import reduce_plus
from .dimer import dimer_partition_function, graph_context, nu_from_couplings
from .errors import EndpointMismatch, IdentityViolation, SingularMatrix
from .instances import Instance
from .ising import (
    CouplingAssignment,
    dual_couplings,
    i_power,
    modify_couplings,
    spin_expectation,
)
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    shortest_path,
    validate_defects,
    vertex_to_dual_face,
)
from .reports import IdentityReport, compare


def dimer_correlation_ratio(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
) -> tuple[float, str]:
    """Z_dimer(nu(Jbar)) / Z_dimer(nu(J)) on the quad graph, with one
    shared route for numerator and denominator: "auto" picks it for nu(J)
    (brute force, G_Q's plan replayed, when G_Q has at most DIMER_CAP
    vertices, else the determinant under G_Q's orientation and sign), and
    nu(Jbar) takes the same one.
    Returns (ratio, method)."""
    jbar = modify_couplings(j, d)
    gq = graph_context(m)
    zd, method = dimer_partition_function(gq, nu_from_couplings(gq, j))
    zd_bar, _ = dimer_partition_function(gq, nu_from_couplings(gq, jbar), method)
    if zd == 0.0:
        raise SingularMatrix("unmodified dimer partition function vanished")
    return zd_bar / zd, method


def _normalized_ratio(inst: Instance, residual_tol: float = 1e-12) -> float:
    """(-i)^{|Gamma|} Z(Jbar)/Z(J) of the instance; exact phase
    bookkeeping makes this real, and the imaginary residue is checked
    anyway."""
    value = i_power(-len(inst.defects.gamma)) * (inst.zbar / inst.z)
    if abs(value.imag) > residual_tol * max(1.0, abs(value)):
        raise IdentityViolation(
            f"correlator has imaginary residue {value.imag!r}"
        )
    return value.real


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
) -> tuple[float, float, DefectSet]:
    """spin_correlation's value, the direct spin average it was checked
    against, and the order defect of the paths."""
    if len(vertices) % 2:
        raise EndpointMismatch("spin insertions must come in pairs")
    want = Counter(vertices)
    got = Counter(x for p in paths for x in p.endpoints)
    if want != got:
        raise EndpointMismatch(
            f"path endpoints {sorted(got.elements())} do not pair up the "
            f"vertices {sorted(want.elements())}"
        )
    d = validate_defects(m, paths, ())
    value = _normalized_ratio(Instance(m, j, d))
    direct = spin_expectation(m, j, vertices)
    compare("spin_correlation_vs_direct", value, direct, tol=tol).require()
    return value, direct, d


def _squared_vs_dimer(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    value: float,
    tol: float,
) -> tuple[float, str]:
    """Checks value^2 against the dimer ratio of the order defect d and
    returns dimer_correlation_ratio's (ratio, method)."""
    ratio, method = dimer_correlation_ratio(m, j, d)
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

    pair, _direct, d = _checked_spin_correlation(gp, jp, (u_new, b), (spec,), tol)
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
        ratio, method = _squared_vs_dimer(gp, jp, d, pair, tol)
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


def kw_duality_check(
    inst: Instance,
    tol: float = 1e-9,
    edge_tol: float = 1e-12,
) -> dict[str, IdentityReport]:
    """Kramers-Wannier duality between a map and its dual, three ways.

    per_edge: sech(2 J*_e) = tanh(2 J_e) for J* = dual_couplings(J).
    modified: exp(-2 Jbar*_e) = tanh(Jbar_e) with defect roles swapped
        across the duality (order paths become disorder paths and vice
        versa).
    correlator: the normalized defect correlators of G and G* agree,
        (-i)^{|Gamma|} Z(G,Jbar)/Z(G,J) = (-i)^{|Gamma*|} Z(G*,Jbar*)/Z(G*,J*),
        with G's values read from the instance and G*'s from the dual
        instance (G*, J*, swapped defects).
    """
    m, j, d = inst.map, inst.couplings, inst.defects
    dm = m.dual
    js = dual_couplings(j)

    per_edge_err = max(
        (abs(js.sech2(e) - j.tanh2(e)) for e in range(m.edge_count)),
        default=0.0,
    )
    reports = {
        "per_edge_duality": compare(
            "per_edge_duality", per_edge_err, 0.0, tol=edge_tol
        )
    }

    if d.order_paths or d.disorder_paths:
        d = validate_defects(m, d.order_paths, d.disorder_paths)
        f_of = vertex_to_dual_face(m)
        swapped_disorder = tuple(
            PathSpec((f_of[p.endpoints[0]], f_of[p.endpoints[1]]), p.edges)
            for p in d.order_paths
        )
        dstar = validate_defects(dm, d.disorder_paths, swapped_disorder)
    else:
        dstar = DefectSet.from_edge_sets(d.gamma_star, d.gamma)

    dual = Instance(dm, js, dstar)
    mod_err = max(
        (
            abs(cmath.exp(-2 * dual.jbar.value(e)) - cmath.tanh(inst.jbar.value(e)))
            for e in range(m.edge_count)
        ),
        default=0.0,
    )
    reports["modified_duality"] = compare(
        "modified_duality", mod_err, 0.0, tol=edge_tol
    )

    lhs = _normalized_ratio(inst)
    rhs = _normalized_ratio(dual)
    reports["correlator_duality"] = compare(
        "correlator_duality",
        lhs,
        rhs,
        tol=tol,
        extra={"gamma": len(d.gamma), "gamma_star": len(d.gamma_star)},
    )
    for r in reports.values():
        r.require()
    return reports
