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

The surgery reads no coupling, so it runs once per map and sets of +1 and
-1 vertices, into a plan memoized for the run (``MAP_CACHE_SIZE`` plans).
Each call replays its plan's removed edges, in order, on its couplings.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import BadArcSplit, DefectOnBoundary, NonContiguousArc
from .ising import CouplingAssignment, base_couplings
from .planar_map import MAP_CACHE_SIZE, CombinatorialMap, DefectSet, build_map


class ReductionResult(NamedTuple):
    new_map: CombinatorialMap
    new_couplings: CouplingAssignment
    new_defects: DefectSet
    scalar: float
    merged_vertex: int
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]  # -1 for removed edges
    fixed: dict[int, int]  # the boundary condition: vertex of m -> spin +-1
    disorder_line: tuple[int, ...] = ()  # new edge ids of the appended line


class _Surgeon:
    """Mutable rotation-system editor: contraction, loop deletion, and the
    record of removed edges.  It reads no coupling: a removal records the
    edge and the sign its factor exp(J_e * sign) takes."""

    def __init__(self, m: CombinatorialMap):
        self.rotations = [list(r) for r in m.vertex_darts]
        self.edge_darts = [tuple(p) for p in m.edge_darts]
        self.dart_edge = list(m.dart_edge)
        self.dart_vertex = list(m.dart_vertex)
        self.alive_edge = [True] * m.edge_count
        self.alive_vertex = [True] * m.vertex_count
        self.rep = list(range(m.vertex_count))  # original id -> surviving id
        self.sign = [1] * m.edge_count  # -1 on an edge the gauge flipped
        self.removed: list[tuple[int, int]] = []  # (edge, sign), in order

    def endpoints(self, e: int) -> tuple[int, int]:
        d1, d2 = self.edge_darts[e]
        return self.dart_vertex[d1], self.dart_vertex[d2]

    def contract(self, e: int, spin_product: int) -> int:
        """Contract non-loop edge e, merging its head into its tail; the
        removed interaction contributes exp(J_e * spin_product)."""
        d1, d2 = self.edge_darts[e]
        u, v = self.dart_vertex[d1], self.dart_vertex[d2]
        if u == v:
            raise ValueError(f"edge {e} is already a loop")
        self.removed.append((e, spin_product * self.sign[e]))
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
        self.removed.append((e, spin_product * self.sign[e]))
        self.rotations[u] = [d for d in self.rotations[u] if d not in (d1, d2)]
        self.alive_edge[e] = False

    def negate_at(self, v: int) -> list[int]:
        """Gauge flip: negate the sign of edges with exactly one endpoint
        v; returns the negated (old) edge ids."""
        touched = []
        for e in range(len(self.alive_edge)):
            if not self.alive_edge[e]:
                continue
            a, b = self.endpoints(e)
            if (a == v) != (b == v):
                self.sign[e] = -self.sign[e]
                touched.append(e)
        return touched

    def finalize(self) -> tuple[CombinatorialMap, tuple, tuple, tuple]:
        """Compact ids and rebuild a validated map; returns it with the
        surviving old edge ids, the vertex map and the edge map."""
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
        vertex_map = tuple(vertex_index[self.rep[x]] for x in range(len(self.rep)))
        return m, tuple(new_edges), vertex_map, tuple(edge_map)


def _check_defects_clear(edges: set[int], d: DefectSet) -> None:
    bad = sorted(edges & (d.gamma | d.gamma_star))
    if bad:
        raise DefectOnBoundary(f"defect edges {bad} lie on the boundary")


def _remap_defects(
    d: DefectSet, edge_map: tuple[int, ...], line: tuple[int, ...]
) -> DefectSet:
    """The defects on the reduced map, the disorder ``line`` appended."""
    def remap(edges: frozenset[int]) -> list[int]:
        out = []
        for e in edges:
            if edge_map[e] < 0:
                raise DefectOnBoundary(f"defect edge {e} was removed")
            out.append(edge_map[e])
        return out

    return DefectSet.from_edge_sets(remap(d.gamma), remap(d.gamma_star) + list(line))


def _contract_fixed(surgeon: _Surgeon, spin: dict[int, int]) -> int:
    """Contract every edge joining two fixed vertices (the keys of
    ``spin``, chords included), absorbing the loops that appear; each
    removal records the product of its frozen endpoint spins.  The fixed
    vertices must be connected through such edges; returns the one vertex
    they merge into.  One pass in edge-id order suffices: a contraction
    merges two fixed vertices into one of them, so it never changes whether
    another edge joins two fixed vertices."""
    for e in range(len(surgeon.alive_edge)):
        if not surgeon.alive_edge[e]:
            continue
        u, v = surgeon.endpoints(e)
        if u not in spin or v not in spin:
            continue
        s = spin[u] * spin[v]
        if u == v:
            surgeon.absorb_loop(e, s)
        else:
            surgeon.contract(e, s)
    return surgeon.rep[min(spin)]


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _plan(m: CombinatorialMap, plus: frozenset[int], minus: frozenset[int]) -> tuple:
    """Contract the ``plus`` vertices (spin +1) into one vertex.  With a
    non-empty ``minus`` arc, contract it too (junction edges join the two
    arcs and are left for the cross-arc stage), gauge the minus vertex to
    +1, so its couplings flip sign, and merge it across the junctions; the
    surviving flipped edges keep base J and carry a disorder line across
    that fan instead.  Returns the coupling-free part of the reduction: the
    reduced map, the old id of each new edge, the vertex and edge maps, the
    merged vertex, the removed (edge, sign of J_e) pairs in order, and the
    disorder line's new edge ids."""
    surgeon = _Surgeon(m)
    merged = _contract_fixed(surgeon, dict.fromkeys(plus, 1))
    fan: list[int] = []
    if minus:
        v_minus = _contract_fixed(surgeon, dict.fromkeys(minus, -1))
        flipped = surgeon.negate_at(v_minus)
        merged = _contract_fixed(surgeon, {merged: 1, v_minus: 1})
        fan = [e for e in flipped if surgeon.alive_edge[e]]
        # a fan covering every edge at the merged vertex (the merge left no
        # loop there) is a pure gauge of that vertex: drop it (the disorder
        # line would be a closed dual loop)
        if set(fan) >= {surgeon.dart_edge[t] for t in surgeon.rotations[merged]}:
            fan = []
    new_map, survivors, vertex_map, edge_map = surgeon.finalize()
    line = tuple(sorted(edge_map[e] for e in fan))
    return (new_map, survivors, vertex_map, edge_map, vertex_map[merged],
            tuple(surgeon.removed), line)


def _replay(
    plan: tuple, j: CouplingAssignment, d: DefectSet, fixed: dict[int, int]
) -> ReductionResult:
    """A plan's reduction of couplings ``j`` and defects ``d``.  Each
    removed edge multiplies in exp(J_e * s), in removal order; s = -1 on a
    gauge-flipped edge stands for its negated coupling, exactly, as
    J*(-1) == (-J)*1.  A flagged removed edge raises.  Surviving edges
    keep their real parts, which must be positive, and their flags.  The
    disorder line negates a real part only, so on a flagged edge it gives
    -a + i*pi/2 = -(a + i*pi/2) + i*pi: the scalar carries the exact factor
    exp(i*pi*s) = -1 of each."""
    new_map, survivors, vertex_map, edge_map, merged, removed, line = plan
    real, flags = j.real, j.half_pi
    factor = 1.0
    for e, s in removed:
        if flags[e]:
            raise DefectOnBoundary(f"order edge {e} cannot join two fixed spins")
        factor *= math.exp(real[e] * s)
    new_j = base_couplings([real[e] for e in survivors])
    if any(flags):
        new_j = CouplingAssignment(new_j.real, tuple(flags[e] for e in survivors))
        for k in line:
            if new_j.half_pi[k]:
                factor = -factor
    defects = _remap_defects(d, edge_map, line)
    return ReductionResult(new_map, new_j, defects, 0.5 * factor, merged,
                           vertex_map, edge_map, fixed, line)


def reduce_plus(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    face: int,
) -> ReductionResult:
    """All boundary spins of ``face`` fixed +1: contract the face to one
    vertex; Z_plus(G) = scalar * Z_free(G')."""
    return reduce_plus_free(m, j, d, sorted(set(m.face_edges(face))), face)


def _arc_contiguous(cycle: list[int], chosen: set[int]) -> bool:
    """Do the chosen (non-empty) edges fill one window of consecutive
    positions of the cyclic edge walk?  A bridge is walked twice on its
    face, so an arc may hold one traversal of it and leave the other
    outside.  The full cycle counts as contiguous."""
    n = len(cycle)
    for start in range(n):
        window: set[int] = set()
        for i in range(start, start + n):
            if cycle[i % n] not in chosen:
                break
            window.add(cycle[i % n])
            if len(window) == len(chosen):
                return True
    return False


def reduce_plus_free(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    fixed_edges: Sequence[int],
    face: int,
) -> ReductionResult:
    """Spins along one non-empty contiguous arc of the boundary of
    ``face`` (given by its edges) fixed +1, the rest free.  With all
    boundary edges fixed this is reduce_plus."""
    arc = set(fixed_edges)
    boundary_cycle = list(m.face_edges(face))
    if not arc:
        raise NonContiguousArc(f"empty arc on face {face}")
    if not arc <= set(boundary_cycle):
        raise NonContiguousArc(
            f"edges {sorted(arc - set(boundary_cycle))} not on face {face}"
        )
    if not _arc_contiguous(boundary_cycle, arc):
        raise NonContiguousArc(
            f"edges {sorted(arc)} are not one arc of face {face}"
        )
    _check_defects_clear(set(boundary_cycle), d)

    spin = {v: 1 for e in arc for v in m.edge_endpoints(e)}
    return _replay(_plan(m, frozenset(spin), frozenset()), j, d, spin)


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
    plus = {walk_vertices[i % L]: 1 for i in range(a + 1, b + 1)}
    minus = {walk_vertices[i % L]: -1 for i in range(b + 1, a + L + 1)}
    defect_touch = set()
    for e in d.gamma | d.gamma_star:
        defect_touch.update(m.edge_endpoints(e))
    if not defect_touch.isdisjoint(minus):
        raise DefectOnBoundary(
            "defect edges may not touch the minus arc (the gauge flip "
            "would reclassify them)"
        )
    return _replay(_plan(m, frozenset(plus), frozenset(minus)), j, d, plus | minus)
