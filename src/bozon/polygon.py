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

The pair sweep and dimer's matching sweep are one frontier walk over
bitmask states (``_walk``), each step a gate bit and a list of branches.
The states depend only on the map, so the first sum on each map, with or
without the P* branch, records its walk into a SweepPlan that later sums
replay on their weights.  The plan is kept on the map it sweeps
(``m.sweep_plans``) for the map's life.  A recording that passes
STATE_CAP ints stops while the walk goes on, and the map keeps None: its
sums walk.  The spin sweep is not planned: its states depend on the
fixed spins and observables too, and a seed-1 ``wide_maps`` pass makes
196 spin sweeps over 111 such keys, 83 of them used once, so there a
plan costs more to record than it saves.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import TooLarge
from .ising import STATE_CAP, CouplingAssignment
from .planar_map import CombinatorialMap


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

# One step of a walk: its gate bit (0 for none) and its branches, each
# (mask, want, flip, weight, weight index).
WalkStep = tuple[int, Sequence[tuple[int, int, int, float, int]]]


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


def _walk(
    steps: Iterable[WalkStep], carry: int, sweep: str, cap: int, record: bool
) -> tuple[dict[int, float], SweepPlan | None]:
    """The final states of one frontier walk from state 0 valued 1, and
    with ``record`` its plan.  At each step a state with the gate bit set
    only drops it and keeps its value (weight index ``carry``, a weight of
    1); any other state takes every branch whose ``mask`` bits equal
    ``want``, to key ^ flip, times the branch's weight.  Equal states merge,
    summed in walk order.  Once its ops hold more than ``cap`` ints, a
    recording walk stops recording and walks on, giving the plan None, so a
    plan stays smaller than one full step of states.  Raises TooLarge when
    a step leaves more than ``cap`` states."""
    states = {0: 1}
    ops: list[int] = []
    counts = []
    slots, size = {0: 0}, 1  # the states' slots; slots taken so far
    for gate, branches in steps:
        new: dict[int, float] = {}
        get = new.get
        old, slots = slots, {}
        slot = slots.setdefault
        for key, z in states.items():
            if key & gate:
                nxt = key ^ gate
                new[nxt] = get(nxt, 0) + z
                if record:
                    ops += (slot(nxt, size + len(slots)), old[key], carry)
                continue
            for mask, want, flip, w, k in branches:
                if key & mask == want:
                    nxt = key ^ flip
                    new[nxt] = get(nxt, 0) + z * w
                    if record:
                        ops += (slot(nxt, size + len(slots)), old[key], k)
        if len(new) > cap:
            raise TooLarge(f"{sweep} sweep holds {len(new)} states, cap is {cap}")
        if record:
            if len(ops) > cap:
                record, ops = False, []
            counts.append(len(new))
            size += len(new)
        states = new
    return states, (tuple(ops), tuple(counts), tuple(slots.items())) if record else None


def _planned_walk(
    m: CombinatorialMap, key: str | None, weights: Sequence[float],
    steps: Iterable[WalkStep], carry: int, sweep: str, cap: int,
) -> dict[int, float]:
    """The final states of _walk over ``steps``, by the plan kept in
    ``m.sweep_plans[key]``.  The first call under a key walks, records and
    keeps its plan, or None when the plan passes ``cap`` ints (a walk that
    raises keeps nothing); later calls replay the plan on ``weights``, the
    table the steps' weight indices read, or walk when it is None.  A key
    of None walks and keeps nothing.  No lock is needed: two first calls
    under one key at once each record an equal plan, and the later of
    their dict assignments stays."""
    plans = m.sweep_plans
    plan = plans.get(key, False) if key else None  # False: no sum under the key yet
    if plan is False:
        states, plans[key] = _walk(steps, carry, sweep, cap, True)
        return states
    if plan is None:
        return _walk(steps, carry, sweep, cap, False)[0]
    vals = replay_plan(plan, weights, sweep, cap)
    return {k: vals[s] for k, s in plan[2]}


def _polygon_sweep(
    m: CombinatorialMap,
    primal: Sequence[float],
    dual: Sequence[float] | None,
) -> float:
    """Sum over edge-disjoint pairs (P, P*) of even subgraphs of m and
    m.dual of prod_{e in P} primal[e] * prod_{e in P*} dual[e]; over P
    alone when dual is None.  The pair walk over ``m.edge_plan``: a state
    is the set of vertices and faces of odd degree so far.  Each edge is
    skipped (weight index 0, the 1.0), put in P (its endpoints flip; index
    1 + e) or, with the dual, put in P* (its faces flip; index 1 + E + e),
    never both, so the pair cannot cross.  A vertex or face whose last edge
    has passed must be even: no branch may leave it odd, so equal states
    merge and only the empty state is left.  The map keeps one plan with
    the P* branch ("pair") and one without ("polygon").  Raises TooLarge
    when a step leaves more than STATE_CAP states."""
    E = m.edge_count
    weights = (1.0, *primal, *(() if dual is None else dual))
    sides = 2 if dual is None else 3
    steps = (
        (0, [(gone, f & gone, f, weights[k], k)
             for f, k in ((0, 0), (ends, 1 + e), (faces, 1 + E + e))[:sides]])
        for e, ends, faces, gone in m.edge_plan
    )
    key = "polygon" if dual is None else "pair"
    (total,) = _planned_walk(m, key, weights, steps, 0, "pair", STATE_CAP).values()
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

