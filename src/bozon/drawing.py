"""Static SVG diagrams: map, dual, corner overlay, and dimer graph.

Layout is a Tutte embedding: the largest face is pinned to a circle and
every other vertex sits at the average of its neighbours, which keeps the
drawing planar for the graphs this package works with.  Dual vertices go
to face centroids (the outer one is pushed outside the circle), edge
crossings to edge midpoints, and dimer-graph vertices to the centroids of
their overlay triangles.  Everything is deterministic; no timestamps.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .dimer import DUAL_PARALLEL, LEG, PRIMAL_PARALLEL, QuadDimerGraph
from .planar_map import CombinatorialMap, quad_graph

Point = tuple[float, float]

_SIZE = 640
_MARGIN = 60


def tutte_layout(m: CombinatorialMap, outer_face: int | None = None) -> list[Point]:
    """Vertex positions in [-1, 1]^2 with the outer face on a circle."""
    if m.vertex_count == 1:
        return [(0.0, 0.0)]
    if outer_face is None:
        outer_face = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    walk = []
    for v in m.face_vertices(outer_face):
        if v not in walk:
            walk.append(v)
    n = len(walk)
    pos = np.zeros((m.vertex_count, 2))
    pinned = np.zeros(m.vertex_count, dtype=bool)
    # face walks go counterclockwise seen from inside the face, so the
    # clockwise circle keeps the rest of the map inside the disk
    for i, v in enumerate(walk):
        theta = -2 * math.pi * i / n + math.pi / 2
        pos[v] = (math.cos(theta), math.sin(theta))
        pinned[v] = True
    free = np.flatnonzero(~pinned)
    if len(free):
        index = {v: k for k, v in enumerate(free)}
        lap = np.zeros((len(free), len(free)))
        rhs = np.zeros((len(free), 2))
        adj = m.adjacency()
        for v in free:
            k = index[v]
            for _e, w in adj[v]:
                if w == v:
                    continue
                lap[k, k] += 1.0
                if pinned[w]:
                    rhs[k] += pos[w]
                else:
                    lap[k, index[w]] -= 1.0
        pos[free] = np.linalg.solve(lap, rhs)
    return [tuple(p) for p in pos]


def face_positions(
    m: CombinatorialMap, pos: Sequence[Point], outer_face: int | None = None
) -> list[Point]:
    """Face centroids; the outer face is placed outside the boundary
    circle so dual drawings stay readable."""
    if outer_face is None:
        outer_face = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    centers: list[Point] = []
    for f in range(m.face_count):
        vs = m.face_vertices(f)
        x = sum(pos[v][0] for v in vs) / len(vs)
        y = sum(pos[v][1] for v in vs) / len(vs)
        centers.append((x, y))
    v0 = m.face_vertices(outer_face)[0]
    theta = math.atan2(pos[v0][1], pos[v0][0]) + math.pi / max(
        3, len(m.faces[outer_face])
    )
    centers[outer_face] = (1.45 * math.cos(theta), 1.45 * math.sin(theta))
    return centers


def _to_pixel(p: Point) -> Point:
    half = (_SIZE - 2 * _MARGIN) / 2
    return (_SIZE / 2 + p[0] * half / 1.5, _SIZE / 2 - p[1] * half / 1.5)


def _line(a: Point, b: Point, stroke: str, width: float, dash: str = "") -> str:
    (x1, y1), (x2, y2) = _to_pixel(a), _to_pixel(b)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{stroke}" stroke-width="{width}"{extra}/>'
    )


def _curve(
    a: Point, b: Point, bend: float, stroke: str, width: float, dash: str = ""
) -> str:
    """Quadratic curve from a to b, control point offset sideways; used to
    split parallel edges apart."""
    (x1, y1), (x2, y2) = _to_pixel(a), _to_pixel(b)
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    dx, dy = x2 - x1, y2 - y1
    norm = math.hypot(dx, dy) or 1.0
    cx, cy = mx - dy / norm * bend, my + dx / norm * bend
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<path d="M {x1:.1f} {y1:.1f} Q {cx:.1f} {cy:.1f} {x2:.1f} {y2:.1f}" '
        f'fill="none" stroke="{stroke}" stroke-width="{width}"{extra}/>'
    )


def _loop(a: Point, k: int, stroke: str, width: float) -> str:
    x, y = _to_pixel(a)
    r = 14 + 8 * k
    return (
        f'<circle cx="{x + r:.1f}" cy="{y:.1f}" r="{r}" fill="none" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _dot(p: Point, r: float, fill: str, stroke: str = "black") -> str:
    x, y = _to_pixel(p)
    return (
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{fill}" '
        f'stroke="{stroke}" stroke-width="1"/>'
    )


def _label(p: Point, text: str, dx: float = 6, dy: float = -6) -> str:
    x, y = _to_pixel(p)
    return (
        f'<text x="{x + dx:.1f}" y="{y + dy:.1f}" font-size="11" '
        f'font-family="monospace">{text}</text>'
    )


def svg_document(elements: Iterable[str]) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">\n'
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _edge_elements(
    m: CombinatorialMap,
    pos: Sequence[Point],
    stroke_for,
    width_for,
    dash_for=None,
) -> list[str]:
    """Edges with parallel-edge fanning and self-loop rendering."""
    groups: dict[tuple[int, int], list[int]] = {}
    for e in range(m.edge_count):
        u, v = m.edge_endpoints(e)
        groups.setdefault((min(u, v), max(u, v)), []).append(e)
    out = []
    for (u, v), edges in sorted(groups.items()):
        for k, e in enumerate(edges):
            dash = dash_for(e) if dash_for else ""
            if u == v:
                out.append(_loop(pos[u], k, stroke_for(e), width_for(e)))
            elif len(edges) == 1:
                out.append(_line(pos[u], pos[v], stroke_for(e), width_for(e), dash))
            else:
                bend = (k - (len(edges) - 1) / 2) * 26.0
                out.append(
                    _curve(pos[u], pos[v], bend, stroke_for(e), width_for(e), dash)
                )
    return out


def draw_map(
    m: CombinatorialMap,
    gamma: Iterable[int] = (),
    highlight: Iterable[int] = (),
    labels: bool = True,
) -> str:
    """The map itself; ``gamma`` edges drawn red, ``highlight`` bold."""
    pos = tutte_layout(m)
    gamma = set(gamma)
    bold = set(highlight)
    els = _edge_elements(
        m,
        pos,
        stroke_for=lambda e: "#c0392b" if e in gamma else "#444444",
        width_for=lambda e: 4.0 if e in bold else 1.6,
    )
    for v in range(m.vertex_count):
        els.append(_dot(pos[v], 5, "#2c3e50"))
        if labels:
            els.append(_label(pos[v], str(v)))
    return svg_document(els)


def draw_dual(
    m: CombinatorialMap,
    gamma_star: Iterable[int] = (),
    highlight: Iterable[int] = (),
) -> str:
    """Primal map in grey with the dual drawn across it; ``gamma_star``
    dual edges red, ``highlight`` bold."""
    pos = tutte_layout(m)
    centers = face_positions(m, pos)
    gamma_star = set(gamma_star)
    bold = set(highlight)
    els = _edge_elements(
        m, pos, stroke_for=lambda e: "#bbbbbb", width_for=lambda e: 1.2
    )
    # dual vertex k sits at the centroid of primal face k
    els += _edge_elements(
        m.dual,
        centers,
        stroke_for=lambda e: "#c0392b" if e in gamma_star else "#2980b9",
        width_for=lambda e: 4.0 if e in bold else 1.6,
        dash_for=lambda e: "6 4",
    )
    for v in range(m.vertex_count):
        els.append(_dot(pos[v], 4, "#777777"))
    for f in range(m.face_count):
        els.append(_dot(centers[f], 5, "#2980b9"))
        els.append(_label(centers[f], f"f{f}"))
    return svg_document(els)


def draw_corner_overlay(m: CombinatorialMap) -> str:
    """Primal and dual vertices joined by one edge per corner, plus the
    edge-crossing points: the scaffolding used to build the dimer graph."""
    pos = tutte_layout(m)
    centers = face_positions(m, pos)
    q = quad_graph(m)
    els = _edge_elements(
        m, pos, stroke_for=lambda e: "#999999", width_for=lambda e: 1.4
    )
    for v, f, _d in q.corners:
        els.append(_line(pos[v], centers[f], "#27ae60", 1.0, dash="2 3"))
    for e in range(m.edge_count):
        u, v = m.edge_endpoints(e)
        mid = ((pos[u][0] + pos[v][0]) / 2, (pos[u][1] + pos[v][1]) / 2)
        els.append(_dot(mid, 3, "white", stroke="#8e44ad"))
    for v in range(m.vertex_count):
        els.append(_dot(pos[v], 5, "#2c3e50"))
    for f in range(m.face_count):
        els.append(_dot(centers[f], 5, "#2980b9"))
    return svg_document(els)


def gq_positions(gq: QuadDimerGraph) -> list[Point]:
    """Dimer-graph vertices are overlay triangles; place each at the
    centroid of its triangle's corner points."""
    m = gq.primal
    pos = tutte_layout(m)
    centers = face_positions(m, pos)
    overlay_pos: list[Point] = list(pos) + list(centers)
    for e in range(m.edge_count):
        u, v = m.edge_endpoints(e)
        overlay_pos.append(((pos[u][0] + pos[v][0]) / 2, (pos[u][1] + pos[v][1]) / 2))
    out: list[Point] = []
    for t in range(gq.vertex_count):
        corners = [gq.overlay.dart_vertex[d] for d in gq.overlay.faces[t]]
        x = sum(overlay_pos[c][0] for c in corners) / len(corners)
        y = sum(overlay_pos[c][1] for c in corners) / len(corners)
        out.append((x, y))
    return out


_KIND_STYLE = {
    LEG: ("#27ae60", 1.0, "2 3"),
    PRIMAL_PARALLEL: ("#444444", 1.6, ""),
    DUAL_PARALLEL: ("#2980b9", 1.6, "6 4"),
}


def draw_gq(gq: QuadDimerGraph, matching: Iterable[int] = ()) -> str:
    """The dimer graph; matched edges bold.  Black/white classes are the
    filled/empty vertices."""
    pos = gq_positions(gq)
    matched = set(matching)
    els = []
    els += _edge_elements(
        gq.map,
        pos,
        stroke_for=lambda e: "#c0392b" if e in matched else _KIND_STYLE[gq.edge_kind[e]][0],
        width_for=lambda e: 4.0 if e in matched else _KIND_STYLE[gq.edge_kind[e]][1],
        dash_for=lambda e: "" if e in matched else _KIND_STYLE[gq.edge_kind[e]][2],
    )
    for v in range(gq.vertex_count):
        fill = "#2c3e50" if gq.color[v] == 0 else "white"
        els.append(_dot(pos[v], 4, fill))
    return svg_document(els)


def draw_polygon_pair(
    m: CombinatorialMap,
    primal_edges: Iterable[int] = (),
    dual_edges: Iterable[int] = (),
) -> str:
    """A polygon pair: primal polygon bold black, dual polygon bold
    dashed blue, over the faint base drawing."""
    pos = tutte_layout(m)
    centers = face_positions(m, pos)
    p = set(primal_edges)
    q = set(dual_edges)
    els = _edge_elements(
        m,
        pos,
        stroke_for=lambda e: "#111111" if e in p else "#cccccc",
        width_for=lambda e: 4.0 if e in p else 1.2,
    )
    els += _edge_elements(
        m.dual,
        centers,
        stroke_for=lambda e: "#2980b9" if e in q else "#dddddd",
        width_for=lambda e: 4.0 if e in q else 1.0,
        dash_for=lambda e: "6 4",
    )
    for v in range(m.vertex_count):
        els.append(_dot(pos[v], 4, "#2c3e50"))
    for f in range(m.face_count):
        els.append(_dot(centers[f], 4, "#2980b9"))
    return svg_document(els)
