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

The states depend only on the map, so the first sum on each map, with or
without the P* branch, records its walk into a SweepPlan that later sums
replay on their weights.  Up to MAP_CACHE_SIZE plans are kept, the oldest
dropped first.  A recording that passes STATE_CAP ints stops while the
walk goes on, and the map is marked not kept: its sums walk.  The spin
sweep is not planned: its states depend on the fixed spins and
observables too, and a seed-1 ``wide_maps`` pass makes 196 spin sweeps
over 111 such keys, 83 of them used once, so there a plan costs more to
record than it saves.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple, Sequence

from .errors import TooLarge
from .ising import STATE_CAP, CouplingAssignment
from .planar_map import MAP_CACHE_SIZE, CombinatorialMap


class PolygonWeights(NamedTuple):
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


# A frontier sweep's arithmetic, recorded by walking its states once:
# (ops, counts, final), read by replay_plan.
SweepPlan = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]


def replay_plan(plan: SweepPlan, weights: Sequence[float], sweep: str, cap: int) -> list[float]:
    """Every slot's value under ``weights``.  Slot 0 is the start state and
    each step's states take the next slots in walk order; ops holds the
    walk's (destination slot, source slot, weight index) triples, flat and
    in order; counts the states each step leaves; final the (key, slot) of
    each state at the end.  Slots start at 0.0, slot 0 at 1.0, and each op
    adds source * weights[index] to its destination, so every product and
    sum is the walk's, in its order.  Raises TooLarge, as the walk would,
    past ``cap`` states a step."""
    ops, counts, _final = plan
    if max(counts, default=0) > cap:
        held = next(c for c in counts if c > cap)
        raise TooLarge(f"{sweep} sweep holds {held} states, cap is {cap}")
    vals = [0.0] * (1 + sum(counts))
    vals[0] = 1.0
    it = iter(ops)
    for d, s, k in zip(it, it, it):
        vals[d] += vals[s] * weights[k]
    return vals


def _pair_walk(
    m: CombinatorialMap,
    primal: Sequence[float],
    dual: Sequence[float] | None,
    record: bool = False,
) -> tuple[float, SweepPlan | None]:
    """The pair sum of _polygon_sweep by one walk over ``m.edge_plan``, and
    with ``record`` the walk's plan.  A state is the set of vertices and
    faces of odd degree so far, valued by the summed weight of the edges
    swept.  Each edge is skipped (weight index 0, the 1.0), put in P (its
    endpoints flip; index 1 + e) or, with the dual, put in P* (its faces
    flip; index 1 + E + e), never both, so the pair cannot cross.  A vertex or face
    whose last edge has passed must be even: states where it is odd are
    dropped, so equal states merge and only the empty state is left.  Once
    its ops hold more than STATE_CAP ints, a recording walk stops recording
    and walks on, giving the plan None, so a plan stays smaller than one
    full step of states.  Raises TooLarge when a step leaves more than
    STATE_CAP states."""
    E = m.edge_count
    states = {0: 1.0}
    ops: list[int] = []
    counts = []
    slots, size = {0: 0}, 1  # the states' slots; slots taken so far
    for e, ends, faces, gone in m.edge_plan:
        branches = [(0, 1.0, 0), (ends, primal[e], 1 + e)]
        if dual is not None:
            branches.append((faces, dual[e], 1 + E + e))
        new: dict[int, float] = {}
        get = new.get
        old, slots = slots, {}
        slot = slots.setdefault
        for key, z in states.items():
            for flip, w, k in branches:
                nxt = key ^ flip
                if not nxt & gone:
                    new[nxt] = get(nxt, 0.0) + z * w
                    if record:
                        ops += (slot(nxt, size + len(slots)), old[key], k)
        if len(new) > STATE_CAP:
            raise TooLarge(f"pair sweep holds {len(new)} states, cap is {STATE_CAP}")
        if record:
            if len(ops) > STATE_CAP:
                record, ops = False, []
            counts.append(len(new))
            size += len(new)
        states = new
    (total,) = states.values()
    return total, (tuple(ops), tuple(counts), tuple(slots.items())) if record else None


# (map, with the P* branch) -> its pair plan, or None when it is too large
# to keep; insertion ordered, so the first key is the oldest.  Callers may
# sum from several threads, as with the lru_cache memos elsewhere, so every
# lookup, insert and eviction holds the lock; the walks do not.
_PAIR_PLANS: dict[tuple[CombinatorialMap, bool], SweepPlan | None] = {}
_PAIR_LOCK = threading.Lock()


def _polygon_sweep(
    m: CombinatorialMap,
    primal: Sequence[float],
    dual: Sequence[float] | None,
) -> float:
    """Sum over edge-disjoint pairs (P, P*) of even subgraphs of m and
    m.dual of prod_{e in P} primal[e] * prod_{e in P*} dual[e]; over P
    alone when dual is None.  The map's first sum walks and records its
    plan (a walk that raises keeps none); later sums replay it, so each
    result is the walk's bit for bit, or walk when the plan was too large
    to keep.  Raises TooLarge when a step leaves more than STATE_CAP
    states."""
    key = (m, dual is not None)
    with _PAIR_LOCK:
        plan = _PAIR_PLANS.get(key, False)  # False: no sum on this map yet
    if plan is False:
        total, plan = _pair_walk(m, primal, dual, record=True)
        with _PAIR_LOCK:
            if key not in _PAIR_PLANS:
                if len(_PAIR_PLANS) >= MAP_CACHE_SIZE:
                    del _PAIR_PLANS[next(iter(_PAIR_PLANS))]
                _PAIR_PLANS[key] = plan
        return total
    if plan is None:
        return _pair_walk(m, primal, dual)[0]
    _ops, _counts, ((_key, slot),) = plan
    weights = (1.0, *primal, *(() if dual is None else dual))
    return replay_plan(plan, weights, "pair", STATE_CAP)[slot]


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

