"""The bipartite dimer graph G_Q and its partition functions.

Construction: overlay the map and its dual so primal and dual edges cross
at a new vertex, and cut every face corner with an edge joining the
primal vertex to the dual vertex of that corner.  The overlay is itself a
sphere map whose faces are all triangles; G_Q is its dual.  Vertices of
G_Q are the triangles (4 per primal edge), and its edges come in three
kinds: duals of primal half-edges (parallel to the dual edge, weight
sech(2J_e)), duals of dual half-edges (parallel to the primal edge,
weight tanh(2J_e)), and duals of corner edges (legs, weight 1).

Each triangle holds exactly one primal half-edge, so build_gq reads G_Q
straight off the primal darts and never builds the overlay.  With E
primal edges, dart d's half-edge at its vertex is overlay dart 2d and at
the crossing 2d+1; dart d's dual half-edge has overlay darts 4E+2d (face
end) and 4E+2d+1, and the corner edge between d and the dart after it at
their vertex has darts 8E+2d (vertex end) and 8E+2d+1.  G_Q vertex t is
the triangle on overlay dart t, so there are 4E of them; each overlay
edge (2k, 2k+1) is G_Q edge k.  With before[d] the dart before d in its
vertex's rotation, vertex 2d has rotation (2d, 4E+2d+1, 8E+2d+1) and
vertex 2d+1 has (2d+1, 8E+2*before[d], 4E+2*alpha[d]).  Every edge joins
an even vertex to an odd one, so vertex t has colour t & 1; the leg at
2d is edge 4E+d and the leg at 2d+1 is edge 4E+before[d].

Partition functions are computed two ways: as an exact sum over all
perfect matchings, by one frontier sweep over G_Q's vertices in
breadth-first order that never reads an orientation, and by Kasteleyn
determinant with a clockwise-odd orientation built from a spanning tree.
Signed weight sums (modified couplings) are the signed matching sums; the
determinant reproduces them after a one-time global sign calibration,
read off the legs' matching.

The determinant is a pure-Python sparse Gaussian elimination: G_Q is
cubic, so the Kasteleyn matrix has three nonzeros per row, kept as row
dicts.  Columns are taken in a minimum-degree order computed once per G_Q
(``gq.kasteleyn_layout``) and each pivot is the shortest row whose entry
is at least PIVOT_THRESHOLD times the column's largest, which bounds
growth while keeping fill low.  The package needs no numerical library.

Nothing about G_Q depends on the couplings, so graph_context memoizes one
G_Q per map, and G_Q owns what is built from it: its sweep order, leg
tables, Kasteleyn layout, orientation and calibration sign
(``gq.orientation``, ``gq.sign``).  auto_route is the one place that
picks a route.  The map's dual is memoized on the map itself
(``m.dual``).

The matching sweep is polygon's frontier walk: at each vertex a state
with the vertex's bit set drops it, and any other state matches it to a
free later neighbour.  Its states depend only on G_Q and on which weights
are zero (those edges are skipped).  The first sum with no zero weight
records its plan, kept on G_Q's map (``gq.map.sweep_plans``), and later
such sums replay it, bit for bit; a plan of more than STATE_CAP ints is
not kept.  Weights with a zero and the grouped count's toggled sweep are
used once, so they walk.  G_Q's sweep order and orientation read its
darts, so G_Q's map keeps no adjacency.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from operator import mul
from typing import NamedTuple, Sequence

from .errors import (
    BridgeUnsupported,
    InconsistentPair,
    MalformedRotation,
    OrientationFailure,
    TooLarge,
)
from .ising import STATE_CAP, CouplingAssignment, _sech
from .planar_map import MAP_CACHE_SIZE, CombinatorialMap, Frozen, _assemble
from .polygon import _planned_walk, _polygon_sweep
from .reports import IdentityReport, compare

# The largest G_Q (in vertices) that the "auto" route sums by the matching
# sweep; larger ones go to the determinant.
DIMER_CAP = 36
# Threshold partial pivoting: a pivot may be any entry at least this
# fraction of its column's largest, so each step multiplies entries by at
# most 1/PIVOT_THRESHOLD; among those the shortest row wins, to keep fill
# low.
PIVOT_THRESHOLD = 0.5

LEG = "leg"
PRIMAL_PARALLEL = "primal_parallel"
DUAL_PARALLEL = "dual_parallel"

DimerWeights = tuple[float, ...]


class QuadRecord(NamedTuple):
    """The four triangles around one primal/dual crossing and the edges of
    the 4-cycle they form.  corner_legs[i] is the unique leg at
    vertices[i]."""

    edge: int
    vertices: tuple[int, int, int, int]
    primal_parallel: tuple[int, int]
    dual_parallel: tuple[int, int]
    corner_legs: tuple[int, int, int, int]


class QuadDimerGraph(Frozen):
    """G_Q of a primal map, and what is built from it once, on first use.
    Equal G_Qs hash like their primal map."""

    _fields = ("primal", "map", "edge_kind", "edge_primal_edge", "color",
               "quads", "vertex_legs")

    def __init__(
        self,
        primal: CombinatorialMap,
        map: CombinatorialMap,
        edge_kind: tuple[str, ...],
        edge_primal_edge: tuple[int, ...],  # -1 for legs
        color: tuple[int, ...],  # 0 = black, 1 = white
        quads: tuple[QuadRecord, ...],
        vertex_legs: tuple[int, ...],  # the unique leg at each G_Q vertex
    ) -> None:
        self.__dict__.update(
            primal=primal,
            map=map,
            edge_kind=edge_kind,
            edge_primal_edge=edge_primal_edge,
            color=color,
            quads=quads,
            vertex_legs=vertex_legs,
        )

    def __hash__(self) -> int:
        return hash(self.primal)

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
        m = self.map  # its adjacency, built here and not kept on it
        adj = [[(m.dart_edge[d], m.dart_vertex[m.alpha[d]]) for d in r] for r in m.vertex_darts]
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

    @cached_property
    def leg_links(self) -> tuple[int, tuple[tuple, ...]]:
        """polygon_to_dimer_count's tables: the leg count, and per quad
        its primal edge, its corner legs and the parity links (leg, leg,
        relation) among its legs when it is untouched, when it uses its
        primal-parallel pair and when it uses its dual-parallel pair.  Legs
        are numbered in legs() order."""
        m = self.map
        number = {leg: i for i, leg in enumerate(self.legs())}

        def across(parallel: tuple[int, int]) -> tuple[tuple[int, int, int], ...]:
            (a1, b1), (a2, b2) = (
                [number[self.vertex_legs[m.dart_vertex[t]]] for t in m.edge_darts[k]]
                for k in parallel
            )
            return (a1, b1, 0), (a2, b2, 0), (a1, a2, 1)

        quads = []
        for q in self.quads:
            c = tuple(number[leg] for leg in q.corner_legs)
            untouched = tuple((c[i], c[i + 1], 0) for i in range(3))
            quads.append(
                (q.edge, c, untouched, across(q.primal_parallel), across(q.dual_parallel))
            )
        return len(number), tuple(quads)

    @cached_property
    def nu_index(self) -> tuple[int, ...]:
        """Edge k's weight in nu_from_couplings is entry nu_index[k] of
        [1, tanh2 of primal edges 0..E-1, sech2 of primal edges 0..E-1]."""
        E = self.primal.edge_count
        return tuple(
            0 if kind == LEG else 1 + e + (E if kind == DUAL_PARALLEL else 0)
            for kind, e in zip(self.edge_kind, self.edge_primal_edge)
        )

    @cached_property
    def kasteleyn_layout(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[frozenset[int], ...], int]:
        """Where dimer_Z_det puts each edge.  Rows are the black vertices
        and columns the white ones, numbered in the minimum-degree
        elimination order of the pattern.  Returns, per row, its three
        (column, edge) pairs flattened; per column, the rows it meets; and
        the sign of the column numbering."""
        m = self.map
        blacks, whites = self.blacks, self.whites
        if len(blacks) != len(whites):
            raise OrientationFailure("unbalanced bipartition")
        index = {v: i for part in (blacks, whites) for i, v in enumerate(part)}
        slots: list[list[int]] = [[] for _ in blacks]  # (column, edge) pairs
        for e, (d1, d2) in enumerate(m.edge_darts):
            b, w = m.dart_vertex[d1], m.dart_vertex[d2]
            if self.color[b]:
                b, w = w, b
            slots[index[b]] += (index[w], e)
        pattern = [set(r[0::2]) for r in slots]
        if any(len(r) != 3 for r in pattern):
            raise OrientationFailure("G_Q is not a simple cubic graph")
        order = _min_degree_order([set(r) for r in pattern], len(whites))
        position = [0] * len(order)
        for k, c in enumerate(order):
            position[c] = k
        meets: list[set[int]] = [set() for _ in whites]
        for i, r in enumerate(pattern):
            for c in r:
                meets[position[c]].add(i)
        layout = tuple(
            (position[a], x, position[b], y, position[c], z) for a, x, b, y, c, z in slots
        )
        return layout, tuple(map(frozenset, meets)), _permutation_sign(position)

    @cached_property
    def orientation(self) -> KasteleynOrientation:
        """G_Q's Kasteleyn orientation, rooted at face 0."""
        return kasteleyn_orientation(self)

    @cached_property
    def sign(self) -> int:
        """The orientation's calibration sign: det K = sign * matching sum."""
        return calibration_sign(self, self.orientation)


def build_gq(m: CombinatorialMap, _dual: object = None) -> QuadDimerGraph:
    """Construct G_Q; requires a bridge-free map with edges (a bridge would
    make the crossing structure degenerate).  G_Q is read off the primal
    darts in closed form (see the module docstring); the ignored second
    argument keeps older positional callers ``build_gq(m, dual)`` working."""
    if m.has_bridge():
        bad = [e for e in range(m.edge_count) if m.is_bridge(e)]
        raise BridgeUnsupported(f"map has bridges at edges {bad}")
    E = m.edge_count
    if not E:
        raise MalformedRotation("G_Q of an edgeless map is not defined")
    alpha = m.alpha
    before = [0] * (2 * E)  # the dart before d in its vertex's rotation
    for d, s in enumerate(m.sigma):
        before[s] = d
    rotations = []
    for d in range(2 * E):
        rotations += (
            (2 * d, 4 * E + 2 * d + 1, 8 * E + 2 * d + 1),
            (2 * d + 1, 8 * E + 2 * before[d], 4 * E + 2 * alpha[d]),
        )
    gq_map = _assemble(rotations, [(2 * k, 2 * k + 1) for k in range(6 * E)])
    vertex_legs = tuple(4 * E + x for d in range(2 * E) for x in (d, before[d]))

    quads = []
    for e in range(E):
        d = min(m.edge_darts[e])
        d2 = alpha[d]
        verts = (2 * d + 1, 2 * d2, 2 * d2 + 1, 2 * d)
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
        map=gq_map,
        edge_kind=(DUAL_PARALLEL,) * (2 * E) + (PRIMAL_PARALLEL,) * (2 * E) + (LEG,) * (2 * E),
        edge_primal_edge=m.dart_edge * 2 + (-1,) * (2 * E),
        color=(0, 1) * (2 * E),
        quads=tuple(quads),
        vertex_legs=vertex_legs,
    )


def nu_from_couplings(gq: QuadDimerGraph, jbar: CouplingAssignment) -> DimerWeights:
    """Dimer weights of a (possibly modified) coupling assignment: legs 1,
    tanh(2J_bar_e) parallel to e, sech(2J_bar_e) parallel to e*.  The
    closed forms carry the defect signs: a disorder-crossed edge negates
    the tanh, an order edge negates the sech."""
    real = jbar.real[: gq.primal.edge_count]
    table = [
        1.0,
        *[math.tanh(2 * a) for a in real],
        *[-s if f else s for a, f in zip(real, jbar.half_pi) for s in (_sech(2 * a),)],
    ]
    return tuple(map(table.__getitem__, gq.nu_index))


def all_ones(gq: QuadDimerGraph) -> DimerWeights:
    return (1.0,) * gq.edge_count


def _matching_walk(
    gq: QuadDimerGraph, weights: Sequence, toggles: Sequence[int], key: str | None = None
) -> dict[int, float]:
    """Sums over G_Q's perfect matchings of their weight products, keyed by
    the XOR of their edges' toggles, from one walk over gq.sweep_order,
    through the plan G_Q's map keeps under ``key`` (None: no plan).  A
    state is the mask of later vertices already matched (bit v) with the
    toggle XOR above bit n; at vertex v it drops v from the mask (the gate;
    weight index edge_count, the carry) or matches v to a free later
    neighbour over edge k (index k), and equal states merge.  Zero weights
    are skipped, integer weights give exact counts, and no orientation is
    read.  Raises TooLarge when a step leaves more than STATE_CAP
    states."""
    n = gq.vertex_count
    steps = (
        (1 << v, [(1 << u, 0, 1 << u | toggles[k] << n, weights[k], k)
                  for k, u in later if weights[k] != 0.0])
        for v, later in gq.sweep_order
    )
    states = _planned_walk(
        gq.map, key, (*weights, 1.0), steps, gq.edge_count, "matching", STATE_CAP
    )
    return {k >> n: z for k, z in states.items()}


def brute_force_dimer_Z(gq: QuadDimerGraph, weights: DimerWeights) -> float:
    """Signed matching sum over all perfect matchings, by the sweep: weights
    with no zero go through G_Q's matching plan, others walk."""
    key = None if 0.0 in weights else "matching"
    return float(_matching_walk(gq, weights, (0,) * gq.edge_count, key).get(0, 0.0))


class KasteleynOrientation(NamedTuple):
    """Per-edge direction given as the dart whose origin is the tail; the
    orientation is clockwise-odd on every face except root_face.  signs[e]
    is the sign of edge e's Kasteleyn matrix entry: 1.0 when e points from
    black to white, -1.0 otherwise."""

    direction: tuple[int, ...]
    root_face: int
    signs: tuple[float, ...]


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
    in_tree = [False] * m.edge_count
    for u in queue:
        for d in m.vertex_darts[u]:  # G_Q's map keeps no adjacency
            w = m.dart_vertex[m.alpha[d]]
            if not seen[w]:
                seen[w] = True
                in_tree[m.dart_edge[d]] = True
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
    signs = tuple(1.0 if gq.color[m.dart_vertex[d]] == 0 else -1.0 for d in direction)
    return KasteleynOrientation(tuple(direction), root_face, signs)


def _min_degree_order(rows: list[set[int]], n: int) -> list[int]:
    """Columns 0..n-1 in the order a symbolic elimination of the sparsity
    pattern ``rows`` (consumed) takes them: each step takes the column with
    the fewest nonzeros left (lowest id on a tie), pivots on its shortest
    row (likewise) and merges that row's pattern into the column's other
    rows."""
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, r in enumerate(rows):
        for c in r:
            cols[c].add(i)
    heap = [(len(s), c) for c, s in enumerate(cols)]
    heapify(heap)
    done = [False] * n
    order = []
    while heap:
        count, c = heappop(heap)
        below = cols[c]
        if done[c] or count != len(below):
            continue  # a stale entry: the column's count changed since
        done[c] = True
        order.append(c)
        if not below:
            continue  # structurally singular; the numeric elimination says so
        p = -1
        for i in below:
            size = len(rows[i])
            if p < 0 or size < shortest or (size == shortest and i < p):
                p, shortest = i, size
        pivot = rows[p]
        pivot.discard(c)
        below.discard(p)
        for k in pivot:
            s = cols[k]
            before = len(s)
            s.discard(p)
            s |= below
            if len(s) != before:
                heappush(heap, (len(s), k))
        for i in below:
            row = rows[i]
            row.discard(c)
            row |= pivot
    return order


def _permutation_sign(perm: Sequence[int]) -> int:
    """Sign of the permutation i -> perm[i], from its cycle lengths."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if j != i:
                sign = -sign
    return sign


def _eliminate(
    rows: list[dict[int, float]], cols: list[set[int]] | None = None
) -> tuple[list[int], list[float]] | None:
    """Gaussian elimination, in place, of the n x n matrix with these sparse
    rows (column -> value), taking columns 0..n-1 in turn.  Each step
    pivots on the shortest row whose entry is at least PIVOT_THRESHOLD
    times the column's largest (lowest row id on a tie), takes the pivot
    entry out of that row and removes the column from the other rows.
    Returns each column's pivot row and pivot value, or None when a column
    has no nonzero left: the matrix is singular.  ``cols`` (consumed),
    when given, holds the rows each column meets."""
    n = len(rows)
    if cols is None:
        cols = [set() for _ in range(n)]
        for i, r in enumerate(rows):
            for c in r:
                cols[c].add(i)
    order = []
    values = []
    for c in range(n):
        below = cols[c]
        if len(below) == 1:
            p = below.pop()
        else:
            # the column's largest entry and its shortest row; a second
            # pass is needed only when that row's entry is too small
            big = 0.0
            p = shortest = -1
            for i in below:
                row = rows[i]
                a = abs(row[c])
                if a > big:
                    big = a
                size = len(row)
                if p < 0 or size < shortest or (size == shortest and i < p):
                    p, shortest, pa = i, size, a
            if not big > 0.0:
                return None
            bar = PIVOT_THRESHOLD * big
            if pa < bar:
                p = shortest = -1
                for i in below:
                    row = rows[i]
                    if abs(row[c]) >= bar:
                        size = len(row)
                        if p < 0 or size < shortest or (size == shortest and i < p):
                            p, shortest = i, size
            below.discard(p)
        pivot = rows[p]
        value = pivot.pop(c)
        if value == 0.0:
            return None
        order.append(p)
        values.append(value)
        items = pivot.items()
        for i in below:
            row = rows[i]
            f = row.pop(c) / value
            for k, v in items:
                if k in row:
                    row[k] -= f * v
                else:
                    row[k] = -f * v
        for k in pivot:
            s = cols[k]
            s.discard(p)
            s |= below
    return order, values


def _det(rows: list[dict[int, float]], cols: list[set[int]] | None = None) -> float:
    """Determinant of the square matrix with these sparse rows (consumed):
    the pivots' product times the sign of the row order they came in."""
    pivots = _eliminate(rows, cols)
    if pivots is None:
        return 0.0
    order, values = pivots
    det = float(_permutation_sign(order))
    for value in values:
        det *= value
    return det


def dimer_Z_det(
    gq: QuadDimerGraph,
    weights: DimerWeights,
    orientation: KasteleynOrientation,
) -> float:
    """Signed determinant of the Kasteleyn matrix, by sparse elimination in
    ``gq.kasteleyn_layout``'s column order; a singular matrix gives
    exactly 0.0.  |det| is the absolute dimer partition function."""
    layout, meets, sign = gq.kasteleyn_layout
    w = list(map(mul, orientation.signs, weights))
    rows = [{a: w[x], b: w[y], c: w[z]} for a, x, b, y, c, z in layout]
    return sign * _det(rows, [set(s) for s in meets])


def calibration_sign(
    gq: QuadDimerGraph, orientation: KasteleynOrientation
) -> int:
    """Global sign s with det K(nu) = s * (signed matching sum), for every
    weight assignment under this orientation.  Under a clockwise-odd
    orientation every perfect matching's term of det K has the same sign
    (Kasteleyn 1961), so s is the sign of one term, the legs' matching's:
    the layout's column sign times the sign of the legs' row -> column
    permutation times the product of the legs' orientation signs."""
    layout, _meets, sign = gq.kasteleyn_layout
    kind, signs = gq.edge_kind, orientation.signs
    columns = []
    for row in layout:
        for i in (1, 3, 5):
            if kind[row[i]] == LEG:
                columns.append(row[i - 1])
                if signs[row[i]] < 0:
                    sign = -sign
    return sign * _permutation_sign(columns)


@lru_cache(maxsize=MAP_CACHE_SIZE)
def graph_context(m: CombinatorialMap) -> QuadDimerGraph:
    """The map's G_Q, built once per (interned) map and keyed on the map
    itself.  A map with a bridge has no G_Q: every call raises
    BridgeUnsupported, and nothing is kept."""
    return build_gq(m)


def auto_route(gq: QuadDimerGraph) -> str:
    """The route "auto" takes on G_Q: "brute" when G_Q has at most
    DIMER_CAP vertices, "determinant" otherwise."""
    return "brute" if gq.vertex_count <= DIMER_CAP else "determinant"


def dimer_partition_function(
    gq: QuadDimerGraph,
    weights: DimerWeights,
    route: str = "auto",
) -> tuple[float, str]:
    """Signed dimer partition function of G_Q under ``weights``, and the
    route that computed it: "brute" (the matching sweep), "determinant"
    (sign-calibrated Kasteleyn determinant), or "auto" (auto_route's)."""
    if route == "auto":
        route = auto_route(gq)
    if route == "brute":
        return brute_force_dimer_Z(gq, weights), route
    if route == "determinant":
        return gq.sign * dimer_Z_det(gq, weights, gq.orientation), route
    raise ValueError(f"unknown dimer route {route!r}")


def polygon_to_dimer_count(gq: QuadDimerGraph, pm: int, dm: int) -> int:
    """Number of perfect matchings of G_Q inducing the pair of even
    subgraphs with edge masks pm (primal) and dm (dual).

    The leg in/out states satisfy parity relations per quadrangle (legs
    across a used parallel edge agree, the two sides disagree; all four
    agree on an untouched quadrangle).  One breadth-first labelling of
    that constraint graph leaves exactly two global leg configurations,
    the labelling and its complement.  Each contributes 2^(number of
    quadrangles with all four legs out), those being completable by
    either parallel pair."""
    n, quads = gq.leg_links
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, _corners, untouched, primal, dual in quads:
        for a, b, rel in primal if pm >> e & 1 else dual if dm >> e & 1 else untouched:
            links[a].append((b, rel))
            links[b].append((a, rel))

    parity = [-1] * n
    parity[0] = 0
    queue = [0]
    for a in queue:
        for b, rel in links[a]:
            p = parity[a] ^ rel
            if parity[b] < 0:
                parity[b] = p
                queue.append(b)
            elif parity[b] != p:
                raise InconsistentPair("leg parity constraints are contradictory")
    if len(queue) != n:
        raise InconsistentPair("leg constraint graph is disconnected")

    uniform = [0, 0]  # quadrangles whose four legs all have parity 0 / 1
    for _e, (c0, c1, c2, c3), *_links in quads:
        p = parity[c0]
        if parity[c1] == p and parity[c2] == p and parity[c3] == p:
            uniform[p] += 1
    return (1 << uniform[0]) + (1 << uniform[1])


def matching_pair_histogram(gq: QuadDimerGraph) -> dict[tuple[int, int], int]:
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
    sums = _matching_walk(gq, (1,) * gq.edge_count, toggles)
    hist = {}
    for key, count in sums.items():
        pm, dm = key & ((1 << E) - 1), key >> E
        if pm & dm:
            e = (pm & dm).bit_length() - 1
            raise InconsistentPair(f"quad {e} uses both parallel kinds")
        hist[pm, dm] = count
    return hist


def matching_count_report(
    m: CombinatorialMap,
    _dual: object = None,
    gq: QuadDimerGraph | None = None,
    max_vertices: int | None = None,
) -> IdentityReport:
    """Exact integer check of the grouped-matching count: every pair (P, P*)
    the matching sweep groups by is a pair of even subgraphs induced by
    exactly polygon_to_dimer_count matchings, and the pairs number all the
    non-crossing pairs, which the pair sweep counts with unit weights.  A
    bad count, an odd key and a pair with no matching each count as one
    mismatch.  Weight-independent, so one run covers a graph for all
    couplings.  The ignored second argument (the dual, which the sweep
    reads from ``m``) and ``max_vertices`` (STATE_CAP bounds the work) keep
    older callers working."""
    gq = gq or graph_context(m)
    hist = matching_pair_histogram(gq)
    ones = (1,) * m.edge_count
    pairs = int(_polygon_sweep(m, ones, ones))
    mismatches = pairs  # less one per key that is an even pair with the right count
    for (pm, dm), count in hist.items():
        odd = 0
        for e, ends, faces, _gone in m.edge_plan:
            odd ^= (ends if pm >> e & 1 else 0) ^ (faces if dm >> e & 1 else 0)
        if odd:
            mismatches += 1
        elif polygon_to_dimer_count(gq, pm, dm) == count:
            mismatches -= 1
    return compare(
        "matching_count_grouping",
        float(mismatches),
        0.0,
        tol=0.0,
        extra={"pairs": pairs, "matchings": sum(hist.values())},
    )
