"""Reduction of plus, plus-free, and Dobrushin boundary conditions on a
face to free-boundary models on a contracted map.

All three reductions contract fixed-spin vertices into a single vertex by
edge contraction, in one pass over the edge ids.  Every removed edge
leaves the factor exp(J_e s_u s_v) of its frozen endpoint spins in the
scalar prefactor, and fixing the one merged vertex versus leaving it free
costs the global spin-flip factor 1/2, so

    Z_bc(G, couplings) = scalar * Z_free(G', carried couplings).

The Dobrushin minus arc is handled by the gauge flip s -> -s at the merged
minus vertex: couplings on its remaining edges are negated, which is
exactly a disorder line through the fan of those edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BadArcSplit, DefectOnBoundary, NonContiguousArc
from .ising import CouplingAssignment, base_couplings
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    build_map,
)


@dataclass(frozen=True)
class ReductionResult:
    new_map: CombinatorialMap
    new_couplings: CouplingAssignment
    new_defects: DefectSet
    scalar: float
    merged_vertex: int | None
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]  # -1 for removed edges
    disorder_line: tuple[int, ...] = ()  # new edge ids of the appended line
    disorder_path: PathSpec | None = None
    path_validated: bool = False


class _Surgeon:
    """Mutable rotation-system editor: contraction, loop deletion, and the
    factor bookkeeping for removed edges."""

    def __init__(self, m: CombinatorialMap, couplings: CouplingAssignment):
        self.rotations = [list(r) for r in m.vertex_darts]
        self.edge_darts = [tuple(p) for p in m.edge_darts]
        self.dart_edge = list(m.dart_edge)
        self.dart_vertex = list(m.dart_vertex)
        self.alive_edge = [True] * m.edge_count
        self.alive_vertex = [True] * m.vertex_count
        self.rep = list(range(m.vertex_count))  # original id -> surviving id
        self.real = list(couplings.real)
        self.flags = list(couplings.half_pi)
        self.factor = 1.0

    def rep_of(self, v: int) -> int:
        return self.rep[v]

    def endpoints(self, e: int) -> tuple[int, int]:
        d1, d2 = self.edge_darts[e]
        return self.dart_vertex[d1], self.dart_vertex[d2]

    def is_loop(self, e: int) -> bool:
        u, v = self.endpoints(e)
        return u == v

    def _remove_factor(self, e: int, spin_product: int) -> None:
        if self.flags[e]:
            raise DefectOnBoundary(
                f"order edge {e} cannot join two fixed spins"
            )
        self.factor *= math.exp(self.real[e] * spin_product)

    def contract(self, e: int, spin_product: int) -> int:
        """Contract non-loop edge e, merging its head into its tail; the
        removed interaction contributes exp(J_e * spin_product)."""
        d1, d2 = self.edge_darts[e]
        u, v = self.dart_vertex[d1], self.dart_vertex[d2]
        if u == v:
            raise ValueError(f"edge {e} is already a loop")
        self._remove_factor(e, spin_product)
        rot_u, rot_v = self.rotations[u], self.rotations[v]
        i1, i2 = rot_u.index(d1), rot_v.index(d2)
        seq_u = rot_u[i1 + 1 :] + rot_u[:i1]
        seq_v = rot_v[i2 + 1 :] + rot_v[:i2]
        self.rotations[u] = seq_u + seq_v
        self.rotations[v] = []
        for d in seq_v:
            self.dart_vertex[d] = u
        self.alive_edge[e] = False
        self.alive_vertex[v] = False
        for x, r in enumerate(self.rep):
            if r == v:
                self.rep[x] = u
        return u

    def absorb_loop(self, e: int, spin_product: int) -> None:
        """Delete a loop edge whose endpoints are frozen; its interaction
        is the constant exp(J_e * spin_product)."""
        d1, d2 = self.edge_darts[e]
        u = self.dart_vertex[d1]
        self._remove_factor(e, spin_product)
        self.rotations[u] = [d for d in self.rotations[u] if d not in (d1, d2)]
        self.alive_edge[e] = False

    def negate_at(self, v: int) -> list[int]:
        """Gauge flip: negate couplings on edges with exactly one endpoint
        v; returns the negated (old) edge ids."""
        touched = []
        for e in range(len(self.alive_edge)):
            if not self.alive_edge[e]:
                continue
            a, b = self.endpoints(e)
            if (a == v) != (b == v):
                self.real[e] = -self.real[e]
                touched.append(e)
        return touched

    def incident_edges(self, v: int) -> list[int]:
        seen = []
        for d in self.rotations[v]:
            e = self.dart_edge[d]
            if e not in seen:
                seen.append(e)
        return seen

    def finalize(self) -> tuple[CombinatorialMap, CouplingAssignment, tuple, tuple]:
        """Compact ids and rebuild a validated map.  Couplings must be
        base (no flags, positive) at this point; sign bookkeeping is the
        caller's job."""
        new_edges = [e for e in range(len(self.alive_edge)) if self.alive_edge[e]]
        edge_map = [-1] * len(self.alive_edge)
        dart_map: dict[int, int] = {}
        edges_out = []
        for k, e in enumerate(new_edges):
            edge_map[e] = k
            d1, d2 = self.edge_darts[e]
            dart_map[d1] = 2 * k
            dart_map[d2] = 2 * k + 1
            edges_out.append((2 * k, 2 * k + 1))
        new_vertices = [
            v for v in range(len(self.alive_vertex)) if self.alive_vertex[v]
        ]
        vertex_index = {v: i for i, v in enumerate(new_vertices)}
        rotations_out = [
            [dart_map[d] for d in self.rotations[v]] for v in new_vertices
        ]
        m = build_map(rotations_out, edges_out)
        couplings = base_couplings([self.real[e] for e in new_edges])
        vertex_map = tuple(vertex_index[self.rep[x]] for x in range(len(self.rep)))
        return m, couplings, vertex_map, tuple(edge_map)


def _check_defects_clear(edges: set[int], d: DefectSet) -> None:
    bad = sorted(edges & (d.gamma | d.gamma_star))
    if bad:
        raise DefectOnBoundary(f"defect edges {bad} lie on the boundary")


def _remap_defects(d: DefectSet, edge_map: tuple[int, ...]) -> DefectSet:
    def remap(edges: frozenset[int]) -> list[int]:
        out = []
        for e in edges:
            if edge_map[e] < 0:
                raise DefectOnBoundary(f"defect edge {e} was removed")
            out.append(edge_map[e])
        return out

    return DefectSet.from_edge_sets(remap(d.gamma), remap(d.gamma_star))


def _contract_fixed(
    surgeon: _Surgeon,
    fixed_vertices: set[int],
    spin: dict[int, int],
) -> int | None:
    """Contract every edge joining two fixed vertices (chords included),
    absorbing the loops that appear; each removal contributes the factor
    of its frozen endpoint spins.  Returns the merged vertex, or None if
    no edge was inside the set.  One pass in edge-id order suffices: a
    contraction merges two fixed vertices into one of them, so it never
    changes whether another edge joins two fixed vertices."""
    merged = None
    for e in range(len(surgeon.alive_edge)):
        if not surgeon.alive_edge[e]:
            continue
        u, v = surgeon.endpoints(e)
        if u not in fixed_vertices or v not in fixed_vertices:
            continue
        s = spin[u] * spin[v]
        if u == v:
            surgeon.absorb_loop(e, s)
        else:
            merged = surgeon.contract(e, s)
    return merged


def reduce_plus(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    face: int,
) -> ReductionResult:
    """All boundary spins of ``face`` fixed +1: contract the face to one
    vertex; Z_plus(G) = scalar * Z_free(G')."""
    boundary_edges = set(m.face_edges(face))
    return reduce_plus_free(m, j, d, sorted(boundary_edges), face=face)


def _arc_contiguous(cycle: list[int], chosen: set[int]) -> bool:
    """Do the chosen edges occupy consecutive positions of the cyclic edge
    sequence?  The full cycle counts as contiguous."""
    n = len(cycle)
    flags = [e in chosen for e in cycle]
    if all(flags) or not any(flags):
        return True
    # count False->True transitions around the cycle; one block has one
    rises = sum(
        1 for i in range(n) if not flags[i - 1] and flags[i]
    )
    return rises == 1


def reduce_plus_free(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    fixed_edges: Sequence[int],
    face: int | None = None,
) -> ReductionResult:
    """Spins along one contiguous boundary arc (given by its edges) fixed
    +1, the rest free.  With all boundary edges fixed this is reduce_plus;
    with none it is the identity."""
    fixed = set(fixed_edges)
    if not fixed:
        return ReductionResult(
            new_map=m,
            new_couplings=j,
            new_defects=d,
            scalar=1.0,
            merged_vertex=None,
            vertex_map=tuple(range(m.vertex_count)),
            edge_map=tuple(range(m.edge_count)),
        )
    if face is None:
        candidates = [
            f
            for f in range(m.face_count)
            if fixed <= set(m.face_edges(f))
        ]
        if not candidates:
            raise NonContiguousArc(
                f"edges {sorted(fixed)} do not lie on one face boundary"
            )
        face = candidates[0]
    boundary_cycle = list(m.face_edges(face))
    if not fixed <= set(boundary_cycle):
        raise NonContiguousArc(
            f"edges {sorted(fixed - set(boundary_cycle))} not on face {face}"
        )
    if not _arc_contiguous(boundary_cycle, fixed):
        raise NonContiguousArc(
            f"edges {sorted(fixed)} are not one arc of face {face}"
        )
    _check_defects_clear(set(boundary_cycle), d)

    fixed_vertices = set()
    for e in fixed:
        u, v = m.edge_endpoints(e)
        fixed_vertices.update((u, v))

    surgeon = _Surgeon(m, j)
    spin = {v: 1 for v in fixed_vertices}
    merged = _contract_fixed(surgeon, fixed_vertices, spin)
    new_map, new_j, vertex_map, edge_map = surgeon.finalize()
    return ReductionResult(
        new_map=new_map,
        new_couplings=new_j,
        new_defects=_remap_defects(d, edge_map),
        scalar=0.5 * surgeon.factor,
        merged_vertex=vertex_map[merged] if merged is not None else None,
        vertex_map=vertex_map,
        edge_map=edge_map,
    )


def reduce_dobrushin(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    face: int,
    arc_split: tuple[int, int],
) -> ReductionResult:
    """Boundary of ``face`` split at two junction edges into a +1 arc and
    a -1 arc; the reduction merges both arcs, gauges the minus vertex to
    +1 (negating its remaining couplings), merges across the junctions,
    and reports the negated fan as an appended disorder line."""
    orbit = m.faces[face]
    L = len(orbit)
    walk_vertices = [m.dart_vertex[t] for t in orbit]
    boundary_cycle = [m.dart_edge[t] for t in orbit]
    if len(set(walk_vertices)) != L or len(set(boundary_cycle)) != L:
        raise BadArcSplit(f"face {face} boundary walk repeats a vertex or edge")
    a, b = arc_split
    if not (0 <= a < L and 0 <= b < L) or a == b:
        raise BadArcSplit(
            f"junction positions {arc_split} must be two distinct indices "
            f"into the {L}-edge boundary walk"
        )
    if a > b:
        a, b = b, a
    _check_defects_clear(set(boundary_cycle), d)

    # walk edge i joins walk vertices i and i+1 (mod L)
    plus_vertices = {walk_vertices[i % L] for i in range(a + 1, b + 1)}
    minus_vertices = {walk_vertices[i % L] for i in range(b + 1, a + L + 1)}
    defect_touch = set()
    for e in d.gamma | d.gamma_star:
        defect_touch.update(m.edge_endpoints(e))
    if defect_touch & minus_vertices:
        raise DefectOnBoundary(
            "defect edges may not touch the minus arc (the gauge flip "
            "would reclassify them)"
        )

    surgeon = _Surgeon(m, j)
    spin = {v: 1 for v in plus_vertices}
    spin.update({v: -1 for v in minus_vertices})

    # merge each arc separately (junction edges join the two arcs and are
    # left for the cross-arc stage)
    v_plus = _contract_fixed(surgeon, plus_vertices, spin)
    v_minus = _contract_fixed(surgeon, minus_vertices, spin)
    if v_plus is None:
        v_plus = surgeon.rep_of(next(iter(plus_vertices)))
    if v_minus is None:
        v_minus = surgeon.rep_of(next(iter(minus_vertices)))

    # gauge the minus vertex to +1; its surviving couplings flip sign
    fan_old = surgeon.negate_at(v_minus)
    spin = {v_plus: 1, v_minus: 1}
    merged = _contract_fixed(surgeon, {v_plus, v_minus}, spin)
    if merged is None:
        raise BadArcSplit("junction edges disappeared before the final merge")
    fan_old = [e for e in fan_old if surgeon.alive_edge[e]]

    # a fan covering every edge at the merged vertex is a pure gauge of
    # that vertex: drop it (the disorder line would be a closed dual loop)
    incident = set(surgeon.incident_edges(merged))
    loops_at = {e for e in incident if surgeon.is_loop(e)}
    if set(fan_old) >= incident - loops_at:
        for e in fan_old:
            surgeon.real[e] = -surgeon.real[e]
        fan_old = []

    gamma_star_extra = set(fan_old)
    for e in fan_old:
        surgeon.real[e] = -surgeon.real[e]  # representation: base J + defect mark

    new_map, new_j, vertex_map, edge_map = surgeon.finalize()
    base = _remap_defects(d, edge_map)
    fan_new = sorted(edge_map[e] for e in gamma_star_extra)
    defects = DefectSet.from_edge_sets(
        base.gamma, set(base.gamma_star) | set(fan_new)
    )

    v_new = vertex_map[merged]
    path, validated = _fan_path(new_map, v_new, fan_new)
    return ReductionResult(
        new_map=new_map,
        new_couplings=new_j,
        new_defects=defects,
        scalar=0.5 * surgeon.factor,
        merged_vertex=v_new,
        vertex_map=vertex_map,
        edge_map=edge_map,
        disorder_line=tuple(fan_new),
        disorder_path=path,
        path_validated=validated,
    )


def _fan_path(
    m: CombinatorialMap, v: int, fan: list[int]
) -> tuple[PathSpec | None, bool]:
    """Dual path crossing a consecutive fan of edges at one vertex: it
    runs through the corners between them, from the face before the first
    fan dart to the face after the last."""
    if not fan:
        return None, False
    fan_set = set(fan)
    rot = m.vertex_darts[v]
    n = len(rot)
    in_fan = [m.dart_edge[d] in fan_set for d in rot]
    start = None
    for i in range(n):
        if in_fan[i] and not in_fan[i - 1]:
            if start is not None:
                return None, False  # fan not consecutive; edge set stands
            start = i
    if start is None:
        return None, False
    block = [rot[(start + k) % n] for k in range(len(fan))]
    if any(m.dart_edge[d] not in fan_set for d in block):
        return None, False
    prev = rot[(start - 1) % n]
    spec = PathSpec(
        endpoints=(m.dart_face[prev], m.dart_face[block[-1]]),
        edges=tuple(m.dart_edge[d] for d in block),
    )
    # the path's dual vertices are the corner faces, which chain by
    # construction; it is a valid dual path unless it revisits a face
    faces = [m.dart_face[prev]] + [m.dart_face[d] for d in block]
    return spec, len(set(faces)) == len(faces)
