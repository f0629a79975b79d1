"""Sphere-embedded planar multigraphs encoded as combinatorial maps.

A map is a rotation system: every edge carries two darts (half-edges),
``alpha`` swaps the two darts of an edge, and ``sigma`` sends a dart to the
next dart counterclockwise around its origin vertex.  Faces are the orbits
of ``phi = sigma^{-1} o alpha``; an orbit walks its face boundary
counterclockwise with the face interior on the left, so ``face(d)`` is the
face to the left of dart ``d``.  The corner swept counterclockwise from
``d`` to ``sigma(d)`` at ``origin(d)`` belongs to ``face(d)``.

Vertex, edge and dart ids are dense.  Parallel edges are supported
everywhere; self-loops are rejected on input (dual maps may contain them
and are built through an internal path that allows them).

Maps are interned by rotation system: equal rotations, edges and
self-loop policy give the same object (from a bounded LRU table), so a
map rebuilt by a boundary reduction or a second ``build_map`` call shares
its memoized ``dual``, ``vertex_plan`` and ``edge_plan`` and its sweep
plans.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    Disconnected,
    EndpointMismatch,
    EulerViolation,
    MalformedRotation,
    OverlapError,
    PathHasLoop,
    PathsIntersect,
    SelfLoopRejected,
)

# Distinct rotation systems whose map object stays interned, and boundary
# reduction plans kept: the seed-1 boundary stream of 500 instances interns
# 106 maps and keeps 176 reduction plans.
MAP_CACHE_SIZE = 256


class PathSpec(NamedTuple):
    """A loop-free path: ``endpoints`` are vertex ids of the carrying graph
    (faces, for paths on a dual map) and ``edges`` chain between them."""

    endpoints: tuple[int, int]
    edges: tuple[int, ...]


class Frozen:
    """Base of the records that hold cached properties.  ``__init__`` sets
    the fields through ``__dict__`` once; assigning or deleting any
    attribute raises, while ``functools.cached_property`` still writes
    ``__dict__`` directly.  Instances of one class are equal when the
    fields named in ``_fields`` are."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)


def _orbits(perm: Sequence[int]) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    orbs = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orb = []
        d = start
        while not seen[d]:
            seen[d] = True
            orb.append(d)
            d = perm[d]
        orbs.append(tuple(orb))
    return orbs


class CombinatorialMap(Frozen):
    """Immutable rotation system together with its derived face structure.
    ``sweep_plans`` is the one mutable part: the plans of the frontier
    sweeps over this map, by sweep (see polygon._planned_walk)."""

    _fields = ("sigma", "alpha", "dart_vertex", "dart_edge", "vertex_darts",
               "edge_darts", "faces", "dart_face")

    def __init__(
        self,
        sigma: tuple[int, ...],
        alpha: tuple[int, ...],
        dart_vertex: tuple[int, ...],
        dart_edge: tuple[int, ...],
        vertex_darts: tuple[tuple[int, ...], ...],
        edge_darts: tuple[tuple[int, int], ...],
        faces: tuple[tuple[int, ...], ...],
        dart_face: tuple[int, ...],
    ) -> None:
        self.__dict__.update(
            sigma=sigma,
            alpha=alpha,
            dart_vertex=dart_vertex,
            dart_edge=dart_edge,
            vertex_darts=vertex_darts,
            edge_darts=edge_darts,
            faces=faces,
            dart_face=dart_face,
            sweep_plans={},
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the rotation system determines every other field
        return hash((self.vertex_darts, self.edge_darts))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_darts)

    @property
    def edge_count(self) -> int:
        return len(self.edge_darts)

    @property
    def dart_count(self) -> int:
        return len(self.sigma)

    @property
    def face_count(self) -> int:
        # an edgeless map is a sphere with a single face
        return len(self.faces) if self.faces else 1

    @cached_property
    def dual(self) -> CombinatorialMap:
        """The dual map, built once per map object (see ``dual``)."""
        return dual(self)

    @cached_property
    def vertex_plan(self):
        """The spin sweep's plan: (self-loop edges, steps), each step (v,
        (edge, earlier neighbour bit) pairs, AND-mask dropping the vertices,
        v included, with no neighbour after v).  The order is greedy: from
        vertex 0, add the visited set's unvisited neighbour that leaves the
        fewest live vertices, lowest id first; start a new component at the
        lowest unvisited id.  Breadth-first order can hold a whole layer
        live; this keeps planar frontiers small.

        The frontier and, per frontier vertex, the visited vertices it would
        retire (those left with it as their one unvisited neighbour) are
        kept as the sweep goes, so a step costs the frontier's size."""
        n = self.vertex_count
        adj = self.adjacency
        nbrs = [{u for _e, u in adj[v] if u != v} for v in range(n)]
        unvisited = [len(nb) for nb in nbrs]  # unvisited neighbours per vertex
        retires = [0] * n
        seen: set[int] = set()
        frontier: set[int] = set()
        steps = []

        def last_unvisited(u: int) -> None:
            # u is visited with one unvisited neighbour left: visiting that
            # neighbour retires u
            for w in nbrs[u]:
                if w not in seen:
                    retires[w] += 1
                    return

        while len(seen) < n:
            if frontier:
                v = min(frontier, key=lambda c: ((unvisited[c] > 0) - retires[c], c))
                frontier.discard(v)
            else:
                v = min(set(range(n)) - seen)
            back = tuple((e, 1 << u) for e, u in adj[v] if u in seen)
            seen.add(v)
            gone = 0 if unvisited[v] else 1 << v
            for u in nbrs[v]:
                unvisited[u] -= 1
                if u not in seen:
                    frontier.add(u)
                elif not unvisited[u]:
                    gone |= 1 << u
                elif unvisited[u] == 1:
                    last_unvisited(u)
            if unvisited[v] == 1:
                last_unvisited(v)
            steps.append((v, back, ~gone))
        return sorted({e for v in range(n) for e, u in adj[v] if u == v}), steps

    @cached_property
    def edge_plan(self) -> tuple[tuple[int, int, int, int], ...]:
        """The polygon sweep's plan: the self-loops, then each vertex's edges
        to earlier vertices in ``vertex_plan`` order.  Vertex v is bit v and
        face f is bit V+f; each step is (edge, XOR of its endpoint bits, XOR
        of its face bits, bits of the vertices and faces it touches last).
        An edge's faces are its endpoints in the dual."""
        loops, steps = self.vertex_plan
        order = [*loops, *(e for _v, back, _keep in steps for e, _bit in back)]
        n = self.vertex_count
        plan = []
        later: set[int] = set()
        for e in reversed(order):
            d1, d2 = self.edge_darts[e]
            u, v = self.dart_vertex[d1], self.dart_vertex[d2]
            f, g = n + self.dart_face[d1], n + self.dart_face[d2]
            last = {u, v, f, g} - later
            later |= last
            plan.append((e, (1 << u) ^ (1 << v), (1 << f) ^ (1 << g), sum(1 << b for b in last)))
        return tuple(reversed(plan))

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        d1, d2 = self.edge_darts[edge]
        return self.dart_vertex[d1], self.dart_vertex[d2]

    def is_bridge(self, edge: int) -> bool:
        d1, d2 = self.edge_darts[edge]
        return self.dart_face[d1] == self.dart_face[d2]

    def has_bridge(self) -> bool:
        return any(self.is_bridge(e) for e in range(self.edge_count))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex (edge, other endpoint) pairs, in rotation order."""
        dart_edge, dart_vertex, alpha = self.dart_edge, self.dart_vertex, self.alpha
        return tuple([
            tuple([(dart_edge[d], dart_vertex[alpha[d]]) for d in rot])
            for rot in self.vertex_darts
        ])

    def face_vertices(self, face: int) -> tuple[int, ...]:
        return tuple(self.dart_vertex[d] for d in self.faces[face])

    def face_edges(self, face: int) -> tuple[int, ...]:
        return tuple(self.dart_edge[d] for d in self.faces[face])


def _assemble(
    rotations: Sequence[Sequence[int]],
    edges: Sequence[tuple[int, int]],
    allow_self_loops: bool = False,
) -> CombinatorialMap:
    """The interned map of a rotation system.  Only plain-int dart ids are
    looked up: 1.0 == 1, so other ids could hit a valid map and skip the
    validation that rejects them."""
    rots = tuple(map(tuple, rotations))
    pairs = tuple(map(tuple, edges))
    if all(type(d) is int for ids in (*rots, *pairs) for d in ids):
        return _intern(rots, pairs, allow_self_loops)
    return _validate(rots, pairs, allow_self_loops)


def _validate(
    rotations: tuple[tuple[int, ...], ...],
    edges: tuple[tuple[int, ...], ...],
    allow_self_loops: bool,
) -> CombinatorialMap:
    n_darts = 2 * len(edges)
    dart_vertex = [-1] * n_darts
    sigma = [-1] * n_darts
    for v, rot in enumerate(rotations):
        for i, d in enumerate(rot):
            if not isinstance(d, int) or d < 0 or d >= n_darts:
                raise MalformedRotation(f"dart {d} out of range at vertex {v}")
            if dart_vertex[d] != -1:
                raise MalformedRotation(f"dart {d} listed twice")
            dart_vertex[d] = v
            sigma[d] = rot[(i + 1) % len(rot)]
    if -1 in dart_vertex:
        missing = dart_vertex.index(-1)
        raise MalformedRotation(f"dart {missing} missing from rotation system")

    alpha = [-1] * n_darts
    dart_edge = [-1] * n_darts
    for e, pair in enumerate(edges):
        if len(pair) != 2:
            raise MalformedRotation(f"edge {e} must own exactly two darts")
        d1, d2 = pair
        if d1 == d2:
            raise MalformedRotation(f"edge {e} pairs a dart with itself")
        for d in (d1, d2):
            if d < 0 or d >= n_darts or dart_edge[d] != -1:
                raise MalformedRotation(f"dart {d} not usable for edge {e}")
            dart_edge[d] = e
        alpha[d1], alpha[d2] = d2, d1
        if dart_vertex[d1] == dart_vertex[d2] and not allow_self_loops:
            raise SelfLoopRejected(
                f"edge {e} is a self-loop at vertex {dart_vertex[d1]}"
            )

    # connectivity over darts; a dartless vertex is reachable only if alone
    n_vertices = len(rotations)
    if n_darts == 0:
        if n_vertices != 1:
            raise Disconnected("edgeless map must have exactly one vertex")
    else:
        if any(len(rot) == 0 for rot in rotations):
            raise Disconnected("isolated vertex in a map with edges")
        seen_v = [False] * n_vertices
        stack = [0]
        seen_d = [False] * n_darts
        seen_d[0] = True
        while stack:
            d = stack.pop()
            seen_v[dart_vertex[d]] = True
            for nxt in (sigma[d], alpha[d]):
                if not seen_d[nxt]:
                    seen_d[nxt] = True
                    stack.append(nxt)
        if not all(seen_v):
            raise Disconnected("graph is not connected")

    sigma_inv = [0] * n_darts
    for d, s in enumerate(sigma):
        sigma_inv[s] = d
    phi = [sigma_inv[alpha[d]] for d in range(n_darts)]
    faces = _orbits(phi)
    dart_face = [-1] * n_darts
    for f, orb in enumerate(faces):
        for d in orb:
            dart_face[d] = f

    n_faces = len(faces) if faces else 1
    euler = n_vertices - len(edges) + n_faces
    if euler != 2:
        raise EulerViolation(
            f"V-E+F = {n_vertices}-{len(edges)}+{n_faces} = {euler}, expected 2"
        )

    return CombinatorialMap(
        sigma=tuple(sigma),
        alpha=tuple(alpha),
        dart_vertex=tuple(dart_vertex),
        dart_edge=tuple(dart_edge),
        vertex_darts=rotations,
        edge_darts=tuple((int(a), int(b)) for a, b in edges),
        faces=tuple(faces),
        dart_face=tuple(dart_face),
    )


_intern = lru_cache(maxsize=MAP_CACHE_SIZE)(_validate)


def build_map(
    rotations: Sequence[Sequence[int]],
    edges: Sequence[tuple[int, int]],
) -> CombinatorialMap:
    """Validate a rotation system and return the sphere map it describes.

    Equal inputs give the same (interned) map object.

    Args:
        rotations: per-vertex counterclockwise dart lists.
        edges: per-edge dart pairs defining the ``alpha`` involution.

    Raises:
        MalformedRotation, EulerViolation, Disconnected.
    """
    return _assemble(rotations, edges, allow_self_loops=False)


def dual(m: CombinatorialMap) -> CombinatorialMap:
    """Dual map: vertices are the faces of ``m``, rotations are the face
    boundary walks.  Darts are shared with ``m``, so dual edge ``e`` crosses
    primal edge ``e`` and dual vertex ``k`` is primal face ``k``.  Faces of
    the dual are the alpha-images of primal vertex orbits, which is what
    dual-of-dual tests rely on.  ``m.dual`` memoizes this per map."""
    if m.edge_count == 0:
        raise MalformedRotation("dual of an edgeless map is not defined")
    return _assemble(m.faces, m.edge_darts, allow_self_loops=True)


class QuadGraph(NamedTuple):
    """Bipartite incidence graph on primal vertices and faces: one edge per
    corner, i.e. per face-boundary incidence, counted with multiplicity."""

    primal_vertices: int
    faces: int
    corners: tuple[tuple[int, int, int], ...]  # (vertex, face, defining dart)

    @property
    def edge_count(self) -> int:
        return len(self.corners)


def quad_graph(m: CombinatorialMap) -> QuadGraph:
    corners = tuple(
        (m.dart_vertex[d], m.dart_face[d], d) for d in range(m.dart_count)
    )
    return QuadGraph(
        primal_vertices=m.vertex_count, faces=m.face_count, corners=corners
    )


def vertex_to_dual_face(m: CombinatorialMap) -> tuple[int, ...]:
    """For each primal vertex, the face of the dual map it sits inside.
    The faces of the dual are the alpha-images of the primal vertex
    orbits, so any incident dart locates the face."""
    dart_face = m.dual.dart_face
    return tuple(dart_face[m.alpha[rot[0]]] for rot in m.vertex_darts)


def walk_path(carrier: CombinatorialMap, spec: PathSpec) -> tuple[int, ...]:
    """Vertex sequence of a path on ``carrier``; validates chaining,
    endpoints and loop-freeness."""
    u, v = spec.endpoints
    if not spec.edges:
        raise EndpointMismatch("path must use at least one edge")
    seq = [u]
    cur = u
    for e in spec.edges:
        if e < 0 or e >= carrier.edge_count:
            raise EndpointMismatch(f"path edge {e} out of range")
        a, b = carrier.edge_endpoints(e)
        if a == cur:
            cur = b
        elif b == cur:
            cur = a
        else:
            raise EndpointMismatch(
                f"edge {e} = ({a},{b}) does not continue the path at {cur}"
            )
        seq.append(cur)
    if cur != v:
        raise EndpointMismatch(f"path ends at {cur}, declared endpoint {v}")
    if len(set(seq)) != len(seq):
        raise PathHasLoop(f"path revisits a vertex: {seq}")
    return tuple(seq)


def shortest_path(
    carrier: CombinatorialMap,
    start: int,
    goal: int,
    forbidden_edges: Iterable[int] = (),
) -> PathSpec | None:
    """BFS shortest edge path between two vertices, avoiding the forbidden
    edges; None when no such path exists.  Self-loops never shorten a path
    and are skipped, so the result is always loop-free."""
    if start == goal:
        return None
    banned = set(forbidden_edges)
    prev: dict[int, tuple[int, int]] = {start: (-1, -1)}
    adj = carrier.adjacency
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for e, y in adj[x]:
            if e in banned or y == x or y in prev:
                continue
            prev[y] = (x, e)
            if y == goal:
                edges: list[int] = []
                cur = y
                while cur != start:
                    cur, pe = prev[cur]
                    edges.append(pe)
                return PathSpec((start, goal), tuple(reversed(edges)))
            queue.append(y)
    return None


class DefectSet(NamedTuple):
    """Validated order (primal) and disorder (dual) defect paths.

    ``gamma`` is the set of order-path edges; ``gamma_star`` is the set of
    primal edges crossed by the disorder paths (same ids, since dual edges
    share the primal edge ids)."""

    order_paths: tuple[PathSpec, ...]
    disorder_paths: tuple[PathSpec, ...]
    gamma: frozenset[int]
    gamma_star: frozenset[int]

    @classmethod
    def empty(cls) -> "DefectSet":
        return cls((), (), frozenset(), frozenset())

    @classmethod
    def from_edge_sets(
        cls, gamma: Iterable[int], gamma_star: Iterable[int]
    ) -> "DefectSet":
        """Raw defect sets without path validation (no endpoint bookkeeping);
        intended for direct coupling modification in tests and oracles."""
        g, gs = frozenset(gamma), frozenset(gamma_star)
        if g & gs:
            raise OverlapError(f"gamma and gamma_star overlap: {sorted(g & gs)}")
        return cls((), (), g, gs)


def validate_defects(
    m: CombinatorialMap,
    order_paths: Sequence[PathSpec],
    disorder_paths: Sequence[PathSpec],
) -> DefectSet:
    """Check both path families and return the frozen defect set.

    Order paths live on ``m``; disorder paths live on its dual.  Paths of
    the same family must be vertex-disjoint, and no order edge may be
    crossed by a disorder path.
    """
    order_paths = tuple(PathSpec(tuple(p.endpoints), tuple(p.edges)) for p in order_paths)
    disorder_paths = tuple(PathSpec(tuple(p.endpoints), tuple(p.edges)) for p in disorder_paths)

    seen_vertices: set[int] = set()
    for p in order_paths:
        seq = walk_path(m, p)
        if seen_vertices & set(seq):
            raise PathsIntersect(f"order paths share vertices: {p}")
        seen_vertices.update(seq)

    seen_faces: set[int] = set()
    for p in disorder_paths:
        seq = walk_path(m.dual, p)
        if seen_faces & set(seq):
            raise PathsIntersect(f"disorder paths share faces: {p}")
        seen_faces.update(seq)

    gamma = frozenset(e for p in order_paths for e in p.edges)
    gamma_star = frozenset(e for p in disorder_paths for e in p.edges)
    if gamma & gamma_star:
        raise PathsIntersect(
            f"order edges crossed by a disorder path: {sorted(gamma & gamma_star)}"
        )
    return DefectSet(
        order_paths=order_paths,
        disorder_paths=disorder_paths,
        gamma=gamma,
        gamma_star=gamma_star,
    )
