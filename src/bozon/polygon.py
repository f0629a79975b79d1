"""Polygon (even-subgraph) sums and the pair-polygon form of the squared
modified partition function.

A polygon configuration is an edge subset with even degree at every
vertex.  Pairs (P on G, P* on G*) are non-intersecting when no primal
edge of P is crossed by a dual edge of P*; since dual edges share primal
edge ids, that means P and P* share no edge.

The pair sum never lists polygons: one frontier sweep over the edges
keeps one summed weight per parity pattern of the vertices and faces it
has touched, and each edge goes to P, to P*, or to neither.  The same
sweep without the P* branch gives the high-temperature polygon sum, and
with unit weights it counts the pairs for the grouped matching count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import TooLarge
from .ising import (
    STATE_CAP,
    CouplingAssignment,
    modify_couplings,
    partition_function,
)
from .planar_map import CombinatorialMap, DefectSet
from .reports import IdentityReport, compare


@dataclass(frozen=True)
class PolygonWeights:
    """Edge weights of the pair-polygon sum: tanh(2J_bar) on primal edges,
    sech(2J_bar) on dual edges, and the constant C = 2^{|V|+1} prod_e
    cosh(2J_bar_e)."""

    primal: tuple[float, ...]
    dual: tuple[float, ...]
    constant: float


def polygon_weights(
    m: CombinatorialMap, jbar: CouplingAssignment
) -> PolygonWeights:
    real = jbar.real[: m.edge_count]
    cosh = [math.cosh(2 * a) for a in real]
    primal = tuple([math.tanh(2 * a) for a in real])
    dual_w = tuple([-s if f else s for c, f in zip(cosh, jbar.half_pi) for s in (1.0 / c,)])
    prod = 1.0
    for c, f in zip(cosh, jbar.half_pi):
        prod *= -c if f else c
    return PolygonWeights(
        primal=primal,
        dual=dual_w,
        constant=float(2 ** (m.vertex_count + 1)) * prod,
    )


def _polygon_sweep(
    m: CombinatorialMap,
    primal: Sequence[float],
    dual: Sequence[float] | None,
) -> float:
    """Sum over edge-disjoint pairs (P, P*) of even subgraphs of m and
    m.dual of prod_{e in P} primal[e] * prod_{e in P*} dual[e]; over P
    alone when dual is None.  A state is the set of vertices and faces of
    odd degree so far, valued by the summed weight of the edges swept.
    Each edge is skipped, put in P (its endpoints flip) or put in P* (its
    faces flip), never both, so the pair cannot cross.  A vertex or face
    whose last edge has passed must be even: states where it is odd are
    dropped, so equal states merge and only the empty state is left.
    Raises TooLarge when a step leaves more than STATE_CAP states."""
    states = {0: 1.0}
    for e, ends, faces, gone in m.edge_plan:
        branches = [(0, 1.0), (ends, primal[e])]
        if dual is not None:
            branches.append((faces, dual[e]))
        new: dict[int, float] = {}
        get = new.get
        for key, z in states.items():
            for flip, w in branches:
                nxt = key ^ flip
                if not nxt & gone:
                    new[nxt] = get(nxt, 0.0) + z * w
        if len(new) > STATE_CAP:
            raise TooLarge(f"pair sweep holds {len(new)} states, cap is {STATE_CAP}")
        states = new
    (total,) = states.values()
    return total


def pair_polygon_sum(
    m: CombinatorialMap,
    dual_map: CombinatorialMap,
    jbar: CouplingAssignment,
    include_constant: bool = True,
) -> float:
    """C * sum over non-crossing pairs (P, P*) of
    prod_{e* in P*} sech(2J_bar) * prod_{e in P} tanh(2J_bar), by one
    frontier sweep over the edges of m.

    ``dual_map`` is ``m.dual``; the sweep reads the faces from ``m``
    itself.  With include_constant=False the bare pair sum is returned (the
    form the dimer identity halves)."""
    w = polygon_weights(m, jbar)
    total = _polygon_sweep(m, w.primal, w.dual)
    return (w.constant * total) if include_constant else total


def verify_squared_partition(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    tol: float = 1e-9,
) -> IdentityReport:
    """[Z(J_bar)]^2 against the pair-polygon sum; raises on violation."""
    jbar = modify_couplings(j, d)
    z = partition_function(m, jbar)
    lhs = z * z
    rhs = pair_polygon_sum(m, m.dual, jbar)
    report = compare(
        "squared_partition_pair_polygon",
        lhs,
        rhs,
        tol=tol,
        extra={"gamma": len(d.gamma), "gamma_star": len(d.gamma_star)},
    )
    return report.require()
