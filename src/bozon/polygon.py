"""Polygon (even-subgraph) enumeration and the pair-polygon form of the
squared modified partition function.

A polygon configuration is an edge subset with even degree at every
vertex.  Pairs (P on G, P* on G*) are non-intersecting when no primal
edge of P is crossed by a dual edge of P*; since dual edges share primal
edge ids, that is a bitmask disjointness test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import OverlapError, TooLarge
from .ising import EDGE_CAP, CouplingAssignment, partition_function
from .planar_map import CombinatorialMap, DefectSet
from .reports import IdentityReport, compare


@dataclass(frozen=True)
class PolygonConfig:
    graph_side: str  # "primal" | "dual"
    edges: tuple[int, ...]
    mask: int

    @classmethod
    def from_edges(
        cls, carrier: CombinatorialMap, side: str, edges: Iterable[int]
    ) -> "PolygonConfig":
        edges = tuple(sorted(set(edges)))
        deg = [0] * carrier.vertex_count
        for e in edges:
            u, v = carrier.edge_endpoints(e)
            deg[u] += 1
            deg[v] += 1
        odd = [v for v, k in enumerate(deg) if k % 2]
        if odd:
            raise OverlapError(f"odd degree at vertices {odd}: not a polygon")
        mask = 0
        for e in edges:
            mask |= 1 << e
        return cls(graph_side=side, edges=edges, mask=mask)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PolygonPair:
    primal: PolygonConfig
    dual: PolygonConfig

    def __post_init__(self) -> None:
        if self.primal.mask & self.dual.mask:
            shared = [
                e for e in self.primal.edges if (self.dual.mask >> e) & 1
            ]
            raise OverlapError(f"pair crosses on edges {shared}")


def _spanning_tree_masks(m: CombinatorialMap) -> tuple[list[int], list[int]]:
    """BFS spanning tree; returns (root-path edge mask per vertex,
    non-tree edge list).  Deterministic: neighbors visited in rotation
    order from vertex 0."""
    root_mask = [0] * m.vertex_count
    seen = [False] * m.vertex_count
    seen[0] = True
    in_tree = [False] * m.edge_count
    queue = [0]
    adj = m.adjacency()
    for u in queue:
        for e, w in adj[u]:
            if not seen[w]:
                seen[w] = True
                in_tree[e] = True
                root_mask[w] = root_mask[u] | (1 << e)
                queue.append(w)
    chords = [e for e in range(m.edge_count) if not in_tree[e]]
    return root_mask, chords


def cycle_basis_masks(m: CombinatorialMap) -> list[int]:
    """Fundamental-cycle bitmasks, one per non-tree edge."""
    root_mask, chords = _spanning_tree_masks(m)
    out = []
    for e in chords:
        u, v = m.edge_endpoints(e)
        out.append(root_mask[u] ^ root_mask[v] ^ (1 << e))
    return out


def polygon_masks(m: CombinatorialMap, max_edges: int = EDGE_CAP) -> list[int]:
    """All even-subgraph bitmasks via Gray-code walk over the cycle basis;
    count is 2^(|E|-|V|+1)."""
    if m.edge_count > max_edges:
        raise TooLarge(f"{m.edge_count} edges exceeds polygon cap {max_edges}")
    basis = cycle_basis_masks(m)
    out = [0]
    cur = 0
    for i in range(1, 1 << len(basis)):
        cur ^= basis[(i & -i).bit_length() - 1]
        out.append(cur)
    return out


def enumerate_polygons(
    m: CombinatorialMap, side: str = "primal", max_edges: int = EDGE_CAP
) -> list[PolygonConfig]:
    polys = []
    for mask in polygon_masks(m, max_edges=max_edges):
        edges = tuple(e for e in range(m.edge_count) if (mask >> e) & 1)
        polys.append(PolygonConfig(graph_side=side, edges=edges, mask=mask))
    return polys


@dataclass(frozen=True)
class PolygonWeights:
    """Edge weights of the pair-polygon sum: tanh(2J_bar) on primal edges,
    sech(2J_bar) on dual edges, and the constant C = 2^{|V|+1} prod_e
    cosh(2J_bar_e), also exposed in the factored form
    2^{|V|+1} (-1)^{|Gamma|} prod_e cosh(2J_e)."""

    primal: tuple[float, ...]
    dual: tuple[float, ...]
    constant: float
    constant_factored: float
    flag_count: int

    def free_fermion_residual(self, e: int) -> float:
        return abs(self.primal[e] ** 2 + self.dual[e] ** 2 - 1.0)


def polygon_weights(
    m: CombinatorialMap, jbar: CouplingAssignment
) -> PolygonWeights:
    primal = tuple(jbar.tanh2(e) for e in range(m.edge_count))
    dual_w = tuple(jbar.sech2(e) for e in range(m.edge_count))
    prod_signed = 1.0
    prod_plain = 1.0
    for e in range(m.edge_count):
        prod_signed *= jbar.cosh2(e)
        prod_plain *= math.cosh(2 * jbar.real[e])
    k = jbar.phase_power
    scale = float(2 ** (m.vertex_count + 1))
    return PolygonWeights(
        primal=primal,
        dual=dual_w,
        constant=scale * prod_signed,
        constant_factored=scale * (-1) ** k * prod_plain,
        flag_count=k,
    )


def _mask_products(masks: Sequence[int], weights: Sequence[float]) -> np.ndarray:
    """prod_{e in mask} weights[e] for every mask, one edge at a time over
    all masks.  Each mask is multiplied by its edges' weights in ascending
    edge order, as a per-mask loop would, so the result is the same."""
    arr = np.array(masks, dtype=np.int64)
    out = np.ones(len(masks))
    for e, w_e in enumerate(weights):
        out[(arr >> e) & 1 == 1] *= w_e
    return out


def pair_polygon_sum(
    m: CombinatorialMap,
    dual_map: CombinatorialMap,
    jbar: CouplingAssignment,
    max_edges: int = EDGE_CAP,
    include_constant: bool = True,
) -> float:
    """C * sum over non-crossing pairs (P, P*) of
    prod_{e* in P*} sech(2J_bar) * prod_{e in P} tanh(2J_bar).

    ``dual_map`` is ``m.dual``.  With include_constant=False the bare pair
    sum is returned (the form the dimer identity halves)."""
    w = polygon_weights(m, jbar)
    p_masks = polygon_masks(m, max_edges=max_edges)
    d_masks = polygon_masks(dual_map, max_edges=max_edges)

    p_prod = _mask_products(p_masks, w.primal)
    d_prod = _mask_products(d_masks, w.dual)
    d_mask_arr = np.array(d_masks, dtype=np.int64)
    total = 0.0
    for pmask, pw in zip(p_masks, p_prod):
        compatible = (d_mask_arr & pmask) == 0
        total += pw * float(d_prod[compatible].sum())
    return (w.constant * total) if include_constant else total


def verify_squared_partition(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    tol: float = 1e-9,
    max_edges: int = EDGE_CAP,
) -> IdentityReport:
    """[Z(J_bar)]^2 against the pair-polygon sum; raises on violation."""
    from .ising import modify_couplings

    jbar = modify_couplings(j, d)
    z = partition_function(m, jbar)
    lhs = z * z
    rhs = pair_polygon_sum(m, m.dual, jbar, max_edges=max_edges)
    report = compare(
        "squared_partition_pair_polygon",
        lhs,
        rhs,
        tol=tol,
        extra={"gamma": len(d.gamma), "gamma_star": len(d.gamma_star)},
    )
    return report.require()
