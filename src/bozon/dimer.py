"""The bipartite dimer graph G_Q and its partition functions.

Construction: overlay the map and its dual so primal and dual edges cross
at a new vertex, and cut every face corner with an edge joining the
primal vertex to the dual vertex of that corner.  The overlay is itself a
sphere map whose faces are all triangles; G_Q is its dual.  Vertices of
G_Q are the triangles (4 per primal edge), and its edges come in three
kinds: duals of primal half-edges (parallel to the dual edge, weight
sech(2J_e)), duals of dual half-edges (parallel to the primal edge,
weight tanh(2J_e)), and duals of corner edges (legs, weight 1).

Partition functions are computed two ways: as an exact sum over all
perfect matchings, by one frontier sweep over G_Q's vertices in
breadth-first order that never reads an orientation, and by Kasteleyn
determinant with a clockwise-odd orientation built from a spanning tree.
Signed weight sums (modified couplings) are the signed matching sums; the
determinant reproduces them after a one-time global sign calibration at
all-ones weights.

G_Q, its orientation and its calibration sign do not depend on the
couplings, so each map gets one memoized GraphContext that owns them, and
dimer_partition_function is the one place that picks a route.  The map's
dual is memoized on the map itself (``m.dual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BridgeUnsupported,
    InconsistentPair,
    OrientationFailure,
    SingularMatrix,
    TooLarge,
)
from .ising import CouplingAssignment, modify_couplings, partition_function
from .planar_map import CombinatorialMap, DefectSet, _assemble, dual
from .polygon import PolygonPair, enumerate_polygons, pair_polygon_sum
from .reports import IdentityReport, compare

DIMER_CAP = 36
# Distinct maps whose GraphContext stays cached; the seeded suites draw
# from fewer than ten.
CONTEXT_CACHE_SIZE = 64

LEG = "leg"
PRIMAL_PARALLEL = "primal_parallel"
DUAL_PARALLEL = "dual_parallel"

DimerWeights = tuple[float, ...]


@dataclass(frozen=True)
class QuadRecord:
    """The four triangles around one primal/dual crossing and the edges of
    the 4-cycle they form.  corner_legs[i] is the unique leg at
    vertices[i]."""

    edge: int
    vertices: tuple[int, int, int, int]
    primal_parallel: tuple[int, int]
    dual_parallel: tuple[int, int]
    corner_legs: tuple[int, int, int, int]


@dataclass(frozen=True)
class QuadDimerGraph:
    primal: CombinatorialMap
    overlay: CombinatorialMap
    map: CombinatorialMap
    edge_kind: tuple[str, ...]
    edge_primal_edge: tuple[int, ...]  # -1 for legs
    color: tuple[int, ...]  # 0 = black, 1 = white
    quads: tuple[QuadRecord, ...]
    vertex_legs: tuple[int, ...]  # the unique leg at each G_Q vertex

    @property
    def vertex_count(self) -> int:
        return self.map.vertex_count

    @property
    def edge_count(self) -> int:
        return self.map.edge_count

    @property
    def blacks(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.vertex_count) if self.color[v] == 0)

    @property
    def whites(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.vertex_count) if self.color[v] == 1)

    def legs(self) -> tuple[int, ...]:
        return tuple(
            k for k in range(self.edge_count) if self.edge_kind[k] == LEG
        )

    @cached_property
    def sweep_order(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """The vertices in breadth-first order from vertex 0, each with its
        (edge id, neighbour) pairs to vertices later in that order.  On a
        planar graph this keeps the matching sweep's frontier small."""
        adj = self.map.adjacency()
        pos = {0: 0}
        order = [0]
        for v in order:
            for _k, u in adj[v]:
                if u not in pos:
                    pos[u] = len(order)
                    order.append(u)
        return tuple(
            (v, tuple((k, u) for k, u in adj[v] if pos[u] > pos[v])) for v in order
        )


def _overlay_map(m: CombinatorialMap) -> CombinatorialMap:
    """Sphere map of the primal/dual overlay.  Vertex ids: primal 0..V-1,
    dual V..V+F-1, crossings V+F..V+F+E-1.  Edge ids: primal half of dart
    d is d, dual half of dart d is 2E+d, corner edge of dart d is 4E+d;
    edge k owns darts (2k, 2k+1) with 2k at the vertex/face end and 2k+1
    at the crossing (corner edges: 2k at the primal vertex)."""
    E = m.edge_count
    V = m.vertex_count

    def ph_a(d: int) -> int:
        return 2 * d

    def ph_b(d: int) -> int:
        return 2 * d + 1

    def dh_a(d: int) -> int:
        return 2 * (2 * E + d)

    def dh_b(d: int) -> int:
        return 2 * (2 * E + d) + 1

    def q_a(d: int) -> int:
        return 2 * (4 * E + d)

    def q_b(d: int) -> int:
        return 2 * (4 * E + d) + 1

    rotations: list[list[int]] = []
    for u in range(V):
        rot: list[int] = []
        for d in m.vertex_darts[u]:
            rot.extend((ph_a(d), q_a(d)))
        rotations.append(rot)
    for orbit in m.faces:
        rot = []
        r = len(orbit)
        for i, t in enumerate(orbit):
            rot.extend((dh_a(t), q_b(orbit[(i + 1) % r])))
        rotations.append(rot)
    for e in range(E):
        d = min(m.edge_darts[e])
        d2 = m.alpha[d]
        rotations.append([ph_b(d), dh_b(d2), ph_b(d2), dh_b(d)])
    edges = [(2 * k, 2 * k + 1) for k in range(6 * E)]
    return _assemble(rotations, edges)


def build_gq(m: CombinatorialMap, _dual: object = None) -> QuadDimerGraph:
    """Construct G_Q; requires a bridge-free map (a bridge would make the
    crossing structure degenerate).  G_Q is read off the overlay, not the
    dual; the ignored second argument keeps older positional callers
    ``build_gq(m, dual)`` working."""
    if m.has_bridge():
        bad = [e for e in range(m.edge_count) if m.is_bridge(e)]
        raise BridgeUnsupported(f"map has bridges at edges {bad}")
    E = m.edge_count
    overlay = _overlay_map(m)
    gq_map = dual(overlay)

    edge_kind = []
    edge_primal = []
    for k in range(6 * E):
        if k < 2 * E:
            edge_kind.append(DUAL_PARALLEL)
            edge_primal.append(m.dart_edge[k])
        elif k < 4 * E:
            edge_kind.append(PRIMAL_PARALLEL)
            edge_primal.append(m.dart_edge[k - 2 * E])
        else:
            edge_kind.append(LEG)
            edge_primal.append(-1)

    # 2-colouring; G_Q is bipartite by construction, verify by BFS
    color = [-1] * gq_map.vertex_count
    color[0] = 0
    queue = [0]
    adj = gq_map.adjacency()
    for u in queue:
        for _e, w in adj[u]:
            if color[w] == -1:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                raise OrientationFailure("G_Q failed bipartite 2-colouring")

    vertex_legs = [-1] * gq_map.vertex_count
    for k in range(6 * E):
        if edge_kind[k] == LEG:
            for dart in gq_map.edge_darts[k]:
                t = gq_map.dart_vertex[dart]
                if vertex_legs[t] != -1:
                    raise OrientationFailure(f"two legs at G_Q vertex {t}")
                vertex_legs[t] = k
    if -1 in vertex_legs:
        raise OrientationFailure("G_Q vertex without a leg")

    quads = []
    for e in range(E):
        d = min(m.edge_darts[e])
        d2 = m.alpha[d]
        corner_darts = (
            2 * d + 1,
            2 * (2 * E + d2) + 1,
            2 * d2 + 1,
            2 * (2 * E + d) + 1,
        )
        verts = tuple(overlay.dart_face[x] for x in corner_darts)
        quads.append(
            QuadRecord(
                edge=e,
                vertices=verts,
                primal_parallel=(2 * E + d, 2 * E + d2),
                dual_parallel=(d, d2),
                corner_legs=tuple(vertex_legs[t] for t in verts),
            )
        )

    return QuadDimerGraph(
        primal=m,
        overlay=overlay,
        map=gq_map,
        edge_kind=tuple(edge_kind),
        edge_primal_edge=tuple(edge_primal),
        color=tuple(color),
        quads=tuple(quads),
        vertex_legs=tuple(vertex_legs),
    )


def nu_from_couplings(gq: QuadDimerGraph, jbar: CouplingAssignment) -> DimerWeights:
    """Dimer weights of a (possibly modified) coupling assignment: legs 1,
    tanh(2J_bar_e) parallel to e, sech(2J_bar_e) parallel to e*.  The
    closed forms carry the defect signs: a disorder-crossed edge negates
    the tanh, an order edge negates the sech."""
    out = []
    for k in range(gq.edge_count):
        kind = gq.edge_kind[k]
        if kind == LEG:
            out.append(1.0)
        elif kind == PRIMAL_PARALLEL:
            out.append(jbar.tanh2(gq.edge_primal_edge[k]))
        else:
            out.append(jbar.sech2(gq.edge_primal_edge[k]))
    return tuple(out)


def all_ones(gq: QuadDimerGraph) -> DimerWeights:
    return (1.0,) * gq.edge_count


def _matching_sweep(
    gq: QuadDimerGraph, max_vertices: int, weights: Sequence, toggles: Sequence[int]
) -> dict[int, float]:
    """Sums over G_Q's perfect matchings of their weight products, keyed by
    the XOR of their edges' toggles, from one pass over gq.sweep_order.  A
    state is the mask of later vertices already matched (bit v) with the
    toggle XOR above bit n; at vertex v it drops v from the mask or matches
    v to a free later neighbour, and equal states merge.  Zero weights are
    skipped, integer weights give exact counts, and no orientation is read.
    """
    n = gq.vertex_count
    if n > max_vertices:
        raise TooLarge(f"{n} G_Q vertices exceeds matching cap {max_vertices}")
    states: dict[int, float] = {0: 1}
    for v, later in gq.sweep_order:
        bit = 1 << v
        steps = [
            (weights[k], 1 << u, 1 << u | toggles[k] << n)
            for k, u in later
            if weights[k] != 0.0
        ]
        new: dict[int, float] = {}
        get = new.get
        for key, z in states.items():
            if key & bit:
                key ^= bit
                new[key] = get(key, 0) + z
                continue
            for w, u_bit, flip in steps:
                if not key & u_bit:
                    nxt = key ^ flip
                    new[nxt] = get(nxt, 0) + z * w
        states = new
    return {key >> n: z for key, z in states.items()}


def brute_force_dimer_Z(
    gq: QuadDimerGraph,
    weights: DimerWeights,
    max_vertices: int = DIMER_CAP,
) -> float:
    """Signed matching sum over all perfect matchings, by the sweep."""
    sums = _matching_sweep(gq, max_vertices, weights, (0,) * gq.edge_count)
    return float(sums.get(0, 0.0))


@dataclass(frozen=True)
class KasteleynOrientation:
    """Per-edge direction given as the dart whose origin is the tail; the
    orientation is clockwise-odd on every face except root_face."""

    direction: tuple[int, ...]
    root_face: int


def _face_clockwise_parity(
    m: CombinatorialMap, face: int, direction: Sequence[int]
) -> int:
    # a boundary dart traverses the face counterclockwise; the edge is
    # clockwise for this face when directed against the walk
    parity = 0
    for t in m.faces[face]:
        if direction[m.dart_edge[t]] == m.alpha[t]:
            parity ^= 1
    return parity


def kasteleyn_orientation(
    gq: QuadDimerGraph, root_face: int = 0
) -> KasteleynOrientation:
    """Clockwise-odd orientation from a spanning tree: tree edges point
    black to white; non-tree edges form a spanning tree of the faces and
    are fixed walking that tree from the leaves toward root_face."""
    m = gq.map
    n = m.vertex_count
    direction = [-1] * m.edge_count

    seen = [False] * n
    seen[0] = True
    queue = [0]
    adj = m.adjacency()
    in_tree = [False] * m.edge_count
    for u in queue:
        for e, w in adj[u]:
            if not seen[w]:
                seen[w] = True
                in_tree[e] = True
                queue.append(w)
    for e in range(m.edge_count):
        if in_tree[e]:
            d1, d2 = m.edge_darts[e]
            black_dart = d1 if gq.color[m.dart_vertex[d1]] == 0 else d2
            direction[e] = black_dart

    # face tree over non-tree edges (genus 0: the cotree is a face tree)
    face_adj: list[list[tuple[int, int]]] = [[] for _ in range(m.face_count)]
    for e in range(m.edge_count):
        if not in_tree[e]:
            d1, d2 = m.edge_darts[e]
            f1, f2 = m.dart_face[d1], m.dart_face[d2]
            if f1 == f2:
                raise OrientationFailure(f"cotree edge {e} repeats face {f1}")
            face_adj[f1].append((e, f2))
            face_adj[f2].append((e, f1))
    parent_edge = [-1] * m.face_count
    order = [root_face]
    seen_f = [False] * m.face_count
    seen_f[root_face] = True
    for f in order:
        for e, g in face_adj[f]:
            if not seen_f[g]:
                seen_f[g] = True
                parent_edge[g] = e
                order.append(g)
    if not all(seen_f):
        raise OrientationFailure("face tree does not span all faces")

    for f in reversed(order):
        if f == root_face:
            continue
        e = parent_edge[f]
        d1, d2 = m.edge_darts[e]
        direction[e] = d1
        if _face_clockwise_parity(m, f, direction) == 0:
            direction[e] = d2
    for f in range(m.face_count):
        if f != root_face and _face_clockwise_parity(m, f, direction) != 1:
            raise OrientationFailure(f"face {f} is not clockwise-odd")
    return KasteleynOrientation(direction=tuple(direction), root_face=root_face)


def kasteleyn_matrix(
    gq: QuadDimerGraph,
    weights: DimerWeights,
    orientation: KasteleynOrientation,
) -> np.ndarray:
    """Black-by-white signed adjacency matrix; entry +nu when the edge is
    directed black to white."""
    blacks = gq.blacks
    whites = gq.whites
    if len(blacks) != len(whites):
        raise OrientationFailure("unbalanced bipartition")
    row = {v: i for i, v in enumerate(blacks)}
    col = {v: i for i, v in enumerate(whites)}
    K = np.zeros((len(blacks), len(whites)))
    m = gq.map
    for e in range(m.edge_count):
        d_tail = orientation.direction[e]
        tail = m.dart_vertex[d_tail]
        head = m.dart_vertex[m.alpha[d_tail]]
        if gq.color[tail] == 0:
            K[row[tail], col[head]] += weights[e]
        else:
            K[row[head], col[tail]] -= weights[e]
    return K


def dimer_Z_det(
    gq: QuadDimerGraph,
    weights: DimerWeights,
    orientation: KasteleynOrientation,
) -> float:
    """Signed determinant of the Kasteleyn matrix (LU with partial
    pivoting); |det| is the absolute dimer partition function."""
    return float(np.linalg.det(kasteleyn_matrix(gq, weights, orientation)))


def calibration_sign(
    gq: QuadDimerGraph, orientation: KasteleynOrientation
) -> int:
    """Global sign s with det K(nu) = s * (signed matching sum), for every
    weight assignment under this orientation.  Fixed by all-ones weights,
    whose matching sum is a positive integer."""
    det1 = dimer_Z_det(gq, all_ones(gq), orientation)
    if det1 == 0.0:
        raise SingularMatrix("all-ones Kasteleyn determinant vanished")
    return 1 if det1 > 0 else -1


@dataclass(frozen=True)
class GraphContext:
    """The coupling-independent dimer structure of one map: G_Q, the
    Kasteleyn orientation of G_Q and that orientation's calibration sign.

    Each is built on first use, so a map with a bridge (which has no G_Q)
    still has a context.
    """

    map: CombinatorialMap

    @cached_property
    def gq(self) -> QuadDimerGraph:
        return build_gq(self.map)

    @cached_property
    def orientation(self) -> KasteleynOrientation:
        return kasteleyn_orientation(self.gq)

    @cached_property
    def sign(self) -> int:
        return calibration_sign(self.gq, self.orientation)


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def graph_context(m: CombinatorialMap) -> GraphContext:
    """The shared context of a map, keyed on the (immutable) map itself."""
    return GraphContext(m)


def dimer_partition_function(
    ctx: GraphContext,
    weights: DimerWeights,
    route: str = "auto",
    max_vertices: int = DIMER_CAP,
) -> tuple[float, str]:
    """Signed dimer partition function of G_Q under ``weights``, and the
    route that computed it: "brute" (the matching sweep, at most
    ``max_vertices`` vertices), "determinant" (sign-calibrated Kasteleyn
    determinant), or "auto", which is brute when G_Q is within
    ``max_vertices`` and the determinant otherwise."""
    if route == "auto":
        route = "brute" if ctx.gq.vertex_count <= max_vertices else "determinant"
    if route == "brute":
        return brute_force_dimer_Z(ctx.gq, weights, max_vertices=max_vertices), route
    if route == "determinant":
        return ctx.sign * dimer_Z_det(ctx.gq, weights, ctx.orientation), route
    raise ValueError(f"unknown dimer route {route!r}")


def polygon_to_dimer_count(gq: QuadDimerGraph, pair: PolygonPair) -> int:
    """Number of perfect matchings of G_Q inducing the given pair.

    The leg in/out states satisfy parity relations per quadrangle (legs
    across a used parallel edge agree, the two sides disagree; all four
    agree on an untouched quadrangle).  One breadth-first labelling of
    that constraint graph leaves exactly two global leg configurations,
    the labelling and its complement.  Each contributes 2^(number of
    quadrangles with all four legs out), those being completable by
    either parallel pair."""
    m = gq.map
    links: dict[int, list[tuple[int, int]]] = {leg: [] for leg in gq.legs()}

    def link(a: int, b: int, rel: int) -> None:
        links[a].append((b, rel))
        links[b].append((a, rel))

    for q in gq.quads:
        if (pair.primal.mask >> q.edge) & 1:
            parallel = q.primal_parallel
        elif (pair.dual.mask >> q.edge) & 1:
            parallel = q.dual_parallel
        else:
            legs = q.corner_legs
            for i in range(3):
                link(legs[i], legs[i + 1], 0)
            continue
        (a1, b1), (a2, b2) = (
            [gq.vertex_legs[m.dart_vertex[t]] for t in m.edge_darts[k]]
            for k in parallel
        )
        link(a1, b1, 0)
        link(a2, b2, 0)
        link(a1, a2, 1)

    start = next(iter(links))
    parity = {start: 0}
    queue = [start]
    for a in queue:
        for b, rel in links[a]:
            p = parity[a] ^ rel
            if b not in parity:
                parity[b] = p
                queue.append(b)
            elif parity[b] != p:
                raise InconsistentPair("leg parity constraints are contradictory")
    if len(parity) != len(links):
        raise InconsistentPair("leg constraint graph is disconnected")

    uniform = [0, 0]  # quadrangles whose four legs all have parity 0 / 1
    for q in gq.quads:
        p = parity[q.corner_legs[0]]
        if all(parity[leg] == p for leg in q.corner_legs):
            uniform[p] += 1
    return (1 << uniform[0]) + (1 << uniform[1])


def matching_pair_histogram(
    gq: QuadDimerGraph, max_vertices: int = DIMER_CAP
) -> dict[tuple[int, int], int]:
    """Matching counts grouped by induced pair, keyed (primal mask, dual
    mask), from the sweep with unit weights; checks polygon_to_dimer_count.

    e joins P when exactly one of the two edges parallel to e is used, so
    P is the XOR of the primal edges of the used primal-parallel edges, and
    P* likewise, E bits higher, over the dual-parallel ones; legs toggle
    nothing."""
    E = gq.primal.edge_count
    shift = {PRIMAL_PARALLEL: 0, DUAL_PARALLEL: E}
    toggles = [
        0 if kind == LEG else 1 << e + shift[kind]
        for kind, e in zip(gq.edge_kind, gq.edge_primal_edge)
    ]
    sums = _matching_sweep(gq, max_vertices, (1,) * gq.edge_count, toggles)
    hist = {}
    for key, count in sums.items():
        pm, dm = key & ((1 << E) - 1), key >> E
        if pm & dm:
            e = (pm & dm).bit_length() - 1
            raise InconsistentPair(f"quad {e} uses both parallel kinds")
        hist[pm, dm] = count
    return hist


def verify_bipartite_dimer_identity(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    tol: float = 1e-9,
    max_vertices: int = DIMER_CAP,
) -> IdentityReport:
    """Bare pair-polygon sum = (1/2) * Z_dimer(G_Q, nu(J_bar))."""
    ctx = graph_context(m)
    gq = ctx.gq
    jbar = modify_couplings(j, d)
    lhs = pair_polygon_sum(m, m.dual, jbar, include_constant=False)
    zd, route = dimer_partition_function(
        ctx, nu_from_couplings(gq, jbar), max_vertices=max_vertices
    )
    report = compare(
        "pair_polygon_vs_half_dimer",
        lhs,
        0.5 * zd,
        tol=tol,
        extra={
            "gamma": len(d.gamma),
            "gamma_star": len(d.gamma_star),
            "method": route,
        },
    )
    return report.require()


def theorem_reports(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    tol: float = 1e-9,
) -> list[IdentityReport]:
    """Squared correlator = (-1)^{|Gamma|} * ratio of dimer partition
    functions, with the two unsquared product identities checked on the
    way.  The paper's sign is predicted, +1 once (-1)^{|Gamma|} is in the
    right-hand side, and asserted: a ratio of the wrong sign fails.
    Returns all three reports without raising, in the order [unmodified
    unsquared, modified unsquared, main].
    """
    ctx = graph_context(m)
    gq = ctx.gq
    jbar = modify_couplings(j, d)

    z = partition_function(m, j)
    zbar = partition_function(m, jbar)
    lhs = (zbar / z) ** 2

    det = "determinant"
    zd, _ = dimer_partition_function(ctx, nu_from_couplings(gq, j), det)
    zd_bar, _ = dimer_partition_function(ctx, nu_from_couplings(gq, jbar), det)
    if zd == 0.0:
        raise SingularMatrix("dimer partition function of nu(J) vanished")
    sign_gamma = (-1) ** len(d.gamma)
    rhs = sign_gamma * zd_bar / zd

    cosh_prod = 1.0
    for e in range(m.edge_count):
        cosh_prod *= math.cosh(2 * j.real[e])
    scale = 2**m.vertex_count * cosh_prod
    r_plain = compare("squared_Z_vs_dimer", z * z, scale * zd, tol=tol)
    r_mod = compare(
        "squared_Zbar_vs_dimer", zbar * zbar, sign_gamma * scale * zd_bar, tol=tol
    )

    r_main = compare(
        "theorem_main",
        lhs,
        rhs,
        tol=tol,
        sign=1,
        extra={
            "gamma": len(d.gamma),
            "gamma_star": len(d.gamma_star),
            "dimer_ratio": zd_bar / zd,
        },
    )
    return [r_plain, r_mod, r_main]


def verify_theorem_main(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    tol: float = 1e-9,
) -> IdentityReport:
    reports = theorem_reports(m, j, d, tol=tol)
    for r in reports:
        r.require()
    return reports[-1]


def matching_count_report(
    m: CombinatorialMap,
    dual_map: CombinatorialMap,
    gq: QuadDimerGraph | None = None,
    max_vertices: int = 48,
) -> IdentityReport:
    """Exact integer check of the grouped-matching count: for every
    compatible polygon pair, the predicted number of matchings inducing it
    equals the matching sweep's count.  Weight-independent, so one run
    covers a graph for all couplings.  ``dual_map`` is ``m.dual``."""
    gq = gq or graph_context(m).gq
    hist = matching_pair_histogram(gq, max_vertices=max_vertices)
    total = sum(hist.values())
    remaining = dict(hist)
    mismatches = 0
    pairs = 0
    duals = list(enumerate_polygons(dual_map, side="dual"))
    for p in enumerate_polygons(m, side="primal"):
        for q in duals:
            if p.mask & q.mask:
                continue
            pairs += 1
            predicted = polygon_to_dimer_count(gq, PolygonPair(p, q))
            if remaining.pop((p.mask, q.mask), 0) != predicted:
                mismatches += 1
    mismatches += len(remaining)  # matchings inducing an unlisted pair
    return compare(
        "matching_count_grouping",
        float(mismatches),
        0.0,
        tol=0.0,
        extra={"pairs": pairs, "matchings": total},
    )


def structure_check(gq: QuadDimerGraph) -> dict[str, int | bool]:
    """Structural invariants of G_Q, used by tests and export."""
    m = gq.map
    E = gq.primal.edge_count
    legs = gq.legs()
    legs_cover = sorted(
        m.dart_vertex[d] for k in legs for d in m.edge_darts[k]
    )
    ok_quads = all(
        len(set(q.vertices)) == 4
        and all(gq.edge_kind[k] == PRIMAL_PARALLEL for k in q.primal_parallel)
        and all(gq.edge_kind[k] == DUAL_PARALLEL for k in q.dual_parallel)
        for q in gq.quads
    )
    return {
        "vertices": m.vertex_count,
        "edges": m.edge_count,
        "faces": m.face_count,
        "vertices_expected": 4 * E,
        "edges_expected": 6 * E,
        "legs": len(legs),
        "legs_expected": 2 * E,
        "bipartite_balanced": len(gq.blacks) == len(gq.whites),
        "legs_perfect_matching": legs_cover == list(range(m.vertex_count)),
        "quads_well_formed": ok_quads,
        "euler_ok": m.vertex_count - m.edge_count + m.face_count == 2,
    }
