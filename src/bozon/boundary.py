"""Reduction of plus, plus-free, and Dobrushin boundary conditions on a
face to free-boundary models on a contracted map.

All three reductions contract the fixed-spin vertices into a single
vertex, read straight off the darts: a union-find over the removed edges
decides which are contracted, and the merged vertex's rotation is sigma's
first return past the removed darts.  Every removed edge leaves the
factor exp(J_e s_u s_v) of its frozen endpoint spins in the scalar
prefactor, and fixing the one merged vertex versus leaving it free costs
the global spin-flip factor 1/2, so

    Z_bc(G, couplings) = scalar * Z_free(G', carried couplings).

The Dobrushin minus arc is handled by the gauge flip s -> -s at the merged
minus vertex: couplings on its remaining edges are negated, which is
exactly a disorder line through the fan of those edges.

The contraction reads no coupling, so it runs once per map and sets of +1
and -1 vertices, into a plan memoized for the run (``MAP_CACHE_SIZE``
plans).  Each call replays its plan's removed edges, in order, on its
couplings.
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


def clear_faces(m: CombinatorialMap, d: DefectSet) -> list[int]:
    """Faces whose contraction keeps every defect edge: no order or
    disorder-crossed edge has both endpoints on the face.  That rules out
    the face's own edges and also chords, which contraction would turn
    into loops."""
    flagged = [set(m.edge_endpoints(e)) for e in d.gamma | d.gamma_star]
    return [f for f in range(m.face_count)
            if not any(ends <= set(m.face_vertices(f)) for ends in flagged)]


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


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _plan(m: CombinatorialMap, plus: frozenset[int], minus: frozenset[int]) -> tuple:
    """Contract the ``plus`` vertices (spin +1) and the ``minus`` vertices
    (spin -1, gauged to +1, so their other couplings flip sign) into one
    vertex, read off the darts.  The removed edges join two plus vertices,
    then two minus vertices, then (sign -1: the gauge flip) a plus and a
    minus vertex, each group by edge id.  A union-find over that order
    contracts each edge between two parts, keeping the part at its first
    dart, and absorbs the rest as loops.  The merged vertex's rotation is
    sigma's first return past the removed darts (across a contracted edge
    by sigma o alpha, past a loop by sigma), from the first dart of the
    last contracted edge; every other vertex keeps its rotation.  The
    surviving edges with an end in the minus arc keep base J and carry a
    disorder line across that fan instead, unless they are every edge at
    the merged vertex: a pure gauge of it (the line would be a closed dual
    loop).  Returns the coupling-free part of the reduction: the reduced
    map, the old id of each new edge, the vertex and edge maps, the merged
    vertex, the removed (edge, sign of J_e) pairs in order, and the
    disorder line's new edge ids."""
    ends = [m.edge_endpoints(e) for e in range(m.edge_count)]

    def joining(a: frozenset[int], b: frozenset[int]) -> list[int]:
        return [e for e, (u, v) in enumerate(ends) if u in a and v in b or u in b and v in a]

    removed = [(e, 1) for e in joining(plus, plus) + joining(minus, minus)]
    removed += [(e, -1) for e in joining(plus, minus)]
    part = list(range(m.vertex_count))

    def find(x: int) -> int:
        while part[x] != x:
            x = part[x]
        return x

    crossed: set[int] = set()  # the darts of contracted edges
    for e, _sign in removed:
        d1, d2 = m.edge_darts[e]
        u, v = find(m.dart_vertex[d1]), find(m.dart_vertex[d2])
        if u != v:
            part[v] = u
            crossed.update((d1, d2))
            last = d1
    gone = {d for e, _sign in removed for d in m.edge_darts[e]}
    rotations = {v: [d for d in m.vertex_darts[v] if d not in gone]
                 for v in range(m.vertex_count) if part[v] == v}
    merged = find(min(plus))
    kept = [e for e in range(m.edge_count) if gone.isdisjoint(m.edge_darts[e])]
    fixed = plus | minus
    touching = [e for e in kept if not fixed.isdisjoint(ends[e])]  # the merged vertex's edges
    if crossed and touching:

        def after(d: int) -> int:
            d = m.sigma[d]
            while d in gone:
                d = m.sigma[m.alpha[d] if d in crossed else d]
            return d

        rotation = [after(last)]
        while (d := after(rotation[-1])) != rotation[0]:
            rotation.append(d)
        rotations[merged] = rotation
    fan = [e for e in touching if not minus.isdisjoint(ends[e])]
    edge_map = [-1] * m.edge_count
    dart_map = {}
    for k, e in enumerate(kept):
        edge_map[e] = k
        d1, d2 = m.edge_darts[e]
        dart_map[d1], dart_map[d2] = 2 * k, 2 * k + 1
    index = {v: i for i, v in enumerate(rotations)}
    new_map = build_map([[dart_map[d] for d in rot] for rot in rotations.values()],
                        [(2 * k, 2 * k + 1) for k in range(len(kept))])
    line = tuple(edge_map[e] for e in fan) if len(fan) < len(touching) else ()
    return (new_map, tuple(kept), tuple(index[find(x)] for x in range(m.vertex_count)),
            tuple(edge_map), index[merged], tuple(removed), line)


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
