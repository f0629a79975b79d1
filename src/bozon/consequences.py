"""Spin and spinor correlation consequences of the dimer correspondence.

Squared multi-spin correlations equal ratios of dimer partition functions
on the quad graph; mixed order/disorder (spinor) correlations obey the
same identity with the realized sign recorded; boundary magnetization
reduces to a pair correlation after contracting the plus boundary; and a
planar graph with its dual satisfies the Kramers-Wannier coupling duality
edge by edge, for modified couplings, and at the correlator level.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .boundary import reduce_plus
from .dimer import (
    DIMER_CAP,
    dimer_partition_function,
    graph_context,
    nu_from_couplings,
)
from .errors import (
    DefectOnBoundary,
    EndpointMismatch,
    IdentityViolation,
    SingularMatrix,
)
from .ising import (
    SPIN_CAP,
    CouplingAssignment,
    dual_couplings,
    i_power,
    modify_couplings,
    partition_function,
    spin_expectation,
)
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    path_spec_from_edges,
    shortest_path,
    validate_defects,
    vertex_to_dual_face,
)
from .reports import IdentityReport, compare


@dataclass(frozen=True)
class SpinorSpec:
    """Incident (vertex, face) insertion pairs for a mixed correlator.

    The order paths must pair up the vertices of the pairs and the
    disorder paths the faces; each vertex must lie on the boundary walk
    of the face it is paired with.
    """

    pairs: tuple[tuple[int, int], ...]
    order_paths: tuple[PathSpec, ...]
    disorder_paths: tuple[PathSpec, ...]


@dataclass(frozen=True)
class CorrelationReport:
    squared_value: float
    dimer_ratio: float
    sign: int
    gamma_size: int
    method: str  # "brute" | "determinant" | "none"


def dimer_correlation_ratio(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    max_vertices: int = DIMER_CAP,
) -> tuple[float, str]:
    """Z_dimer(nu(Jbar)) / Z_dimer(nu(J)) on the quad graph, with one
    shared route for numerator and denominator: brute force when G_Q has
    at most ``max_vertices`` vertices, else the determinant.  Returns
    (ratio, method)."""
    ctx = graph_context(m)
    jbar = modify_couplings(j, d)
    zd, method = dimer_partition_function(
        ctx, nu_from_couplings(ctx.gq, j), max_vertices=max_vertices
    )
    zd_bar, _ = dimer_partition_function(
        ctx, nu_from_couplings(ctx.gq, jbar), method, max_vertices=max_vertices
    )
    if zd == 0.0:
        raise SingularMatrix("unmodified dimer partition function vanished")
    return zd_bar / zd, method


def _normalized_ratio(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    max_vertices: int,
    residual_tol: float = 1e-12,
) -> float:
    """(-i)^{|Gamma|} Z(Jbar)/Z(J); exact phase bookkeeping makes this
    real, and the imaginary residue is checked anyway."""
    z = partition_function(m, j, max_vertices=max_vertices)
    zbar = partition_function(m, modify_couplings(j, d), max_vertices=max_vertices)
    value = i_power(-len(d.gamma)) * (zbar / z)
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
    max_vertices: int = SPIN_CAP,
) -> float:
    """E[s_{u_1} ... s_{u_2n}] through the defect machinery.

    The paths must pair up the requested vertices; their edges form the
    order defect.  The value is cross-checked against the direct spin
    average, so a silent defect-bookkeeping bug cannot survive here.
    """
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
    value = _normalized_ratio(m, j, d, max_vertices)
    direct = spin_expectation(m, j, vertices, max_vertices=max_vertices)
    compare("spin_correlation_vs_direct", value, direct, tol=tol).require()
    return value


def spin_correlation_squared_dimer(
    m: CombinatorialMap,
    j: CouplingAssignment,
    vertices: Sequence[int],
    paths: Sequence[PathSpec],
    tol: float = 1e-9,
    max_spins: int = SPIN_CAP,
    max_dimer: int = DIMER_CAP,
) -> CorrelationReport:
    """Squared multi-spin correlation as a dimer ratio, with no sign:
    E[s...]^2 = Z_dimer(nu(Jbar)) / Z_dimer(nu(J))."""
    value = spin_correlation(m, j, vertices, paths, tol=tol, max_vertices=max_spins)
    d = validate_defects(m, paths, ())
    ratio, method = dimer_correlation_ratio(m, j, d, max_vertices=max_dimer)
    compare("squared_spin_vs_dimer_ratio", value * value, ratio, tol=tol).require()
    return CorrelationReport(
        squared_value=value * value,
        dimer_ratio=ratio,
        sign=1,
        gamma_size=len(d.gamma),
        method=method,
    )


def spinor_correlation_squared(
    m: CombinatorialMap,
    j: CouplingAssignment,
    spec: SpinorSpec,
    tol: float = 1e-9,
    max_spins: int = SPIN_CAP,
    max_dimer: int = DIMER_CAP,
) -> CorrelationReport:
    """Squared mixed order/disorder correlation at incident (vertex, face)
    pairs, compared against the dimer ratio; the realized sign is recorded
    rather than assumed."""
    if not spec.pairs:
        return CorrelationReport(1.0, 1.0, 1, 0, "none")
    if len(spec.pairs) % 2:
        raise EndpointMismatch("spinor insertions must come in pairs")
    for u, f in spec.pairs:
        if u not in m.face_vertices(f):
            raise EndpointMismatch(
                f"vertex {u} is not on the boundary walk of face {f}"
            )
    want_u = Counter(u for u, _ in spec.pairs)
    want_f = Counter(f for _, f in spec.pairs)
    got_u = Counter(x for p in spec.order_paths for x in p.endpoints)
    got_f = Counter(x for p in spec.disorder_paths for x in p.endpoints)
    if want_u != got_u:
        raise EndpointMismatch("order paths do not pair up the spinor vertices")
    if want_f != got_f:
        raise EndpointMismatch("disorder paths do not pair up the spinor faces")
    d = validate_defects(m, spec.order_paths, spec.disorder_paths)

    value = _normalized_ratio(m, j, d, max_spins)
    squared = value * value
    ratio, method = dimer_correlation_ratio(m, j, d, max_vertices=max_dimer)
    sign = 1
    if abs(ratio) > 0 and abs(squared - ratio) > abs(squared + ratio):
        sign = -1
    compare(
        "spinor_squared_vs_dimer_ratio",
        squared,
        sign * ratio,
        tol=tol,
        sign=sign,
        extra={"gamma": len(d.gamma), "gamma_star": len(d.gamma_star)},
    ).require()
    return CorrelationReport(
        squared_value=squared,
        dimer_ratio=ratio,
        sign=sign,
        gamma_size=len(d.gamma),
        method=method,
    )


def magnetization_report(
    m: CombinatorialMap,
    j: CouplingAssignment,
    face: int,
    u: int,
    path_edges: Sequence[int] | None = None,
    tol: float = 1e-9,
    max_spins: int = SPIN_CAP,
    check_dimer: bool = True,
) -> tuple[float, list[IdentityReport]]:
    """Magnetization at ``u`` with the boundary of ``face`` fixed to +1,
    with the comparison reports of the two computation routes.

    Route (a) is the direct fixed-boundary spin average; route (b) is the
    pair correlation E[s_u s_b] on the contracted graph, b the merged
    boundary vertex.  When the contracted graph is bridge-free the squared
    value is additionally checked against its dimer ratio.

    ``path_edges`` optionally reroutes the correlation path; it is given
    in original edge ids and must avoid the boundary of ``face``.
    """
    boundary_vertices = set(m.face_vertices(face))
    if u in boundary_vertices:
        return 1.0, [compare("magnetization_fixed_vertex", 1.0, 1.0, tol=tol)]
    direct = spin_expectation(
        m, j, [u], fixed={v: 1 for v in boundary_vertices}, max_vertices=max_spins
    )

    res = reduce_plus(m, j, DefectSet.empty(), face)
    gp, jp = res.new_map, res.new_couplings
    b = res.merged_vertex
    assert b is not None
    u_new = res.vertex_map[u]
    if path_edges is None:
        spec = shortest_path(gp, u_new, b)
        if spec is None:
            raise EndpointMismatch(
                f"no correlation path from vertex {u} to the boundary of face {face}"
            )
    else:
        mapped = []
        for e in path_edges:
            if res.edge_map[e] < 0:
                raise DefectOnBoundary(
                    f"path edge {e} lies on the boundary of face {face}"
                )
            mapped.append(res.edge_map[e])
        spec = path_spec_from_edges(gp, mapped)
        if set(spec.endpoints) != {u_new, b}:
            raise EndpointMismatch(
                f"rerouted path joins {spec.endpoints}, expected vertex {u} "
                f"to the merged boundary vertex"
            )
        spec = PathSpec((u_new, b), spec.edges)

    pair = spin_correlation(
        gp, jp, (u_new, b), (spec,), tol=tol, max_vertices=max_spins
    )
    reports = [
        compare(
            "magnetization_pair_reduction",
            direct,
            pair,
            tol=tol,
            extra={"path_edges": len(spec.edges)},
        )
    ]
    if check_dimer and not gp.has_bridge():
        rep = spin_correlation_squared_dimer(
            gp, jp, (u_new, b), (spec,), tol=tol, max_spins=max_spins
        )
        reports.append(
            compare(
                "magnetization_squared_vs_dimer",
                direct * direct,
                rep.dimer_ratio,
                tol=tol,
                extra={"method": rep.method},
            )
        )
    return direct, reports


def magnetization(
    m: CombinatorialMap,
    j: CouplingAssignment,
    face: int,
    u: int,
    path_edges: Sequence[int] | None = None,
    tol: float = 1e-9,
    max_spins: int = SPIN_CAP,
    check_dimer: bool = True,
) -> float:
    """Magnetization value alone; raises IdentityViolation when the two
    routes of magnetization_report disagree."""
    value, reports = magnetization_report(
        m,
        j,
        face,
        u,
        path_edges=path_edges,
        tol=tol,
        max_spins=max_spins,
        check_dimer=check_dimer,
    )
    for r in reports:
        r.require()
    return value


def kw_duality_check(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet | None = None,
    tol: float = 1e-9,
    edge_tol: float = 1e-12,
    max_spins: int = SPIN_CAP,
) -> dict[str, IdentityReport]:
    """Kramers-Wannier duality between a map and its dual, three ways.

    per_edge: sech(2 J*_e) = tanh(2 J_e) for J* = dual_couplings(J).
    modified: exp(-2 Jbar*_e) = tanh(Jbar_e) with defect roles swapped
        across the duality (order paths become disorder paths and vice
        versa).
    correlator: the normalized defect correlators of G and G* agree,
        (-i)^{|Gamma|} Z(G,Jbar)/Z(G,J) = (-i)^{|Gamma*|} Z(G*,Jbar*)/Z(G*,J*).
    """
    d = d or DefectSet.empty()
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

    jbar = modify_couplings(j, d)
    jsbar = modify_couplings(js, dstar)
    mod_err = max(
        (
            abs(cmath.exp(-2 * jsbar.value(e)) - cmath.tanh(jbar.value(e)))
            for e in range(m.edge_count)
        ),
        default=0.0,
    )
    reports["modified_duality"] = compare(
        "modified_duality", mod_err, 0.0, tol=edge_tol
    )

    lhs = _normalized_ratio(m, j, d, max_spins)
    rhs = _normalized_ratio(dm, js, dstar, max_spins)
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
