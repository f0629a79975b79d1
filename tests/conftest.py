"""Shared fixtures and test-local oracles.

The oracles here are deliberately primitive: plain-Python loops over all
spin states, all edge subsets, all matchings, or a Gray-code walk over a
cycle basis.  They never call the library's own sweeps, so every identity
gets checked by two independent routes.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

import pytest

import bozon.boundary
import bozon.dimer
import bozon.graphs
import bozon.instances
import bozon.ising
import bozon.planar_map
import bozon.polygon
from bozon import builtin, dual
from bozon.errors import TooLarge


# ------------------------------------------------------------ oracles


def oracle_partition(m, values, fixed=None):
    """Spin sum of prod_e exp(J_e s_u s_v) with arbitrary complex J_e."""
    fixed = dict(fixed or {})
    free = [v for v in range(m.vertex_count) if v not in fixed]
    ends = [m.edge_endpoints(e) for e in range(m.edge_count)]
    total = 0j
    for assign in itertools.product((1, -1), repeat=len(free)):
        spin = dict(zip(free, assign))
        spin.update(fixed)
        w = 1 + 0j
        for e, (u, v) in enumerate(ends):
            w *= cmath.exp(values[e] * spin[u] * spin[v])
        total += w
    return total


def oracle_expectation(m, values, vertices, fixed=None):
    """E[prod s_v] as a ratio of two oracle spin sums."""
    fixed = dict(fixed or {})
    free = [v for v in range(m.vertex_count) if v not in fixed]
    ends = [m.edge_endpoints(e) for e in range(m.edge_count)]
    num = 0j
    den = 0j
    for assign in itertools.product((1, -1), repeat=len(free)):
        spin = dict(zip(free, assign))
        spin.update(fixed)
        w = 1 + 0j
        for e, (u, v) in enumerate(ends):
            w *= cmath.exp(values[e] * spin[u] * spin[v])
        den += w
        for v in vertices:
            w *= spin[v]
        num += w
    return num / den


def modified_values(j, gamma=(), gamma_star=()):
    """The defect rule applied by hand: +i*pi/2 on order edges, sign flip
    on disorder-crossed edges."""
    out = list(complex(v) for v in j.real)
    for e in gamma:
        out[e] += 1j * cmath.pi / 2
    for e in gamma_star:
        out[e] = -out[e]
    return out


def generic_spin_sum(m, real, half_pi, fixed, obs):
    """Reference for ``ising._sweep``: the frontier sweep with one generic
    per-state loop over the back edges, the sign applied before the
    factors.  The specialised loops must equal it bit for bit."""
    loops, steps = m.vertex_plan
    same = [math.exp(a) for a in real]
    differ = [-math.exp(-a) if f else math.exp(-a) for a, f in zip(real, half_pi)]
    states = {0: math.prod((same[e] for e in loops), start=1.0)}
    for v, back, keep in steps:
        new = {}
        get = new.get
        for s in (fixed[v],) if v in fixed else (1, -1):
            down = 1 << v if s < 0 else 0
            sign = -1.0 if s < 0 and v in obs else 1.0
            f_down, f_up = (same, differ) if s < 0 else (differ, same)
            factors = [(f_down[e], f_up[e], bit) for e, bit in back]
            for key, z in states.items():
                w = sign * z
                for if_down, if_up, bit in factors:
                    w *= if_down if key & bit else if_up
                nxt = (key | down) & keep
                new[nxt] = get(nxt, 0.0) + w
        states = new
    return sum(states.values())


def reference_matching_sweep(gq, weights, toggles):
    """Reference for the matching sweep's plan and replay: the dict walk
    they replaced.  Sums over G_Q's perfect matchings of their weight
    products, keyed by the XOR of their edges' toggles; zero weights are
    skipped.  Reads ``bozon.dimer.STATE_CAP`` at call time, so a lowered
    cap applies.  The replay must equal it bit for bit."""
    n = gq.vertex_count
    states = {0: 1}
    for v, later in gq.sweep_order:
        bit = 1 << v
        steps = [
            (weights[k], 1 << u, 1 << u | toggles[k] << n)
            for k, u in later
            if weights[k] != 0.0
        ]
        new = {}
        get = new.get
        for key, z in states.items():
            if key & bit:
                key ^= bit
                new[key] = get(key, 0) + z
                continue
            for w, u_bit, flip in steps:
                if not key & u_bit:
                    nxt = key ^ flip
                    new[nxt] = get(nxt, 0) + z * w
        cap = bozon.dimer.STATE_CAP
        if len(new) > cap:
            raise TooLarge(f"matching sweep holds {len(new)} states, cap is {cap}")
        states = new
    return {key >> n: z for key, z in states.items()}


def reference_polygon_sweep(m, primal, dual_w):
    """Reference for the pair sweep's plan and replay: the dict walk they
    replaced, over ``m.edge_plan``, with no P* branch when dual_w is None.
    Reads ``bozon.polygon.STATE_CAP`` at call time."""
    states = {0: 1.0}
    for e, ends, faces, gone in m.edge_plan:
        branches = [(0, 1.0), (ends, primal[e])]
        if dual_w is not None:
            branches.append((faces, dual_w[e]))
        new = {}
        get = new.get
        for key, z in states.items():
            for flip, w in branches:
                nxt = key ^ flip
                if not nxt & gone:
                    new[nxt] = get(nxt, 0.0) + z * w
        cap = bozon.polygon.STATE_CAP
        if len(new) > cap:
            raise TooLarge(f"pair sweep holds {len(new)} states, cap is {cap}")
        states = new
    (total,) = states.values()
    return total


SWEEP_MAP_NAMES = ("k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5")


def sweep_test_maps():
    """The maps the sweep replay tests walk, by name: six builtins, their
    duals (c4's has four parallel edges) and, where a map is left, each
    builtin with face 0's boundary fixed +1 by reduce_plus."""
    out = {}
    for name in SWEEP_MAP_NAMES:
        m = builtin(name)
        out[name] = m
        out[f"{name}_dual"] = m.dual
        j = bozon.ising.base_couplings([1.0] * m.edge_count)
        reduced = bozon.boundary.reduce_plus(m, j, bozon.planar_map.DefectSet.empty(), 0)
        if reduced.new_map.edge_count:
            out[f"{name}_plus"] = reduced.new_map
    return out


def sweep_outcome(thunk):
    """A sweep's values as float.hex strings, or its TooLarge message."""
    try:
        return [float(z).hex() for z in thunk()]
    except TooLarge as exc:
        return str(exc)


def rescanning_vertex_plan(m):
    """Reference for ``CombinatorialMap.vertex_plan``: the same greedy
    order, with the frontier rebuilt from the whole visited set and each
    candidate's live count recomputed at every step."""
    n = m.vertex_count
    adj = m.adjacency
    nbrs = [{u for _e, u in adj[v] if u != v} for v in range(n)]
    unvisited = [len(nb) for nb in nbrs]
    seen = set()
    steps = []
    live = 0

    def live_after(c):
        return live + (unvisited[c] > 0) - sum(unvisited[u] == 1 for u in nbrs[c] & seen)

    while len(seen) < n:
        frontier = {u for w in seen for u in nbrs[w]} - seen
        if frontier:
            v = min(frontier, key=lambda c: (live_after(c), c))
        else:
            v = min(set(range(n)) - seen)
        back = tuple((e, 1 << u) for e, u in adj[v] if u in seen)
        seen.add(v)
        gone = 0 if unvisited[v] else 1 << v
        for u in nbrs[v]:
            unvisited[u] -= 1
            if u in seen and not unvisited[u]:
                gone |= 1 << u
        live += 1 - bin(gone).count("1")
        steps.append((v, back, ~gone))
    return sorted({e for v in range(n) for e, u in adj[v] if u == v}), steps


def oracle_even_subgraphs(m):
    """All edge subsets with even degree at every vertex, as bitmasks."""
    ends = [m.edge_endpoints(e) for e in range(m.edge_count)]
    out = []
    for mask in range(1 << m.edge_count):
        deg = [0] * m.vertex_count
        for e, (u, v) in enumerate(ends):
            if mask >> e & 1:
                deg[u] += 1
                deg[v] += 1
        if all(d % 2 == 0 for d in deg):
            out.append(mask)
    return out


def oracle_cycle_basis(m):
    """Fundamental-cycle bitmasks of the breadth-first spanning tree from
    vertex 0, one per non-tree edge."""
    root = [None] * m.vertex_count  # edge mask of each vertex's tree path
    root[0] = 0
    tree = set()
    queue = [0]
    adj = m.adjacency
    for u in queue:
        for e, w in adj[u]:
            if root[w] is None:
                root[w] = root[u] | 1 << e
                tree.add(e)
                queue.append(w)
    out = []
    for e in range(m.edge_count):
        if e not in tree:
            u, v = m.edge_endpoints(e)
            out.append(root[u] ^ root[v] ^ 1 << e)
    return out


def oracle_polygon_masks(m):
    """All even subgraphs as bitmasks, in Gray-code order over the cycle
    basis: 2^(E-V+1) of them, on maps past oracle_even_subgraphs' reach."""
    basis = oracle_cycle_basis(m)
    out = [0]
    for i in range(1, 1 << len(basis)):
        out.append(out[-1] ^ basis[(i & -i).bit_length() - 1])
    return out


def oracle_matchings(n_vertices, edge_ends):
    """All perfect matchings of an abstract graph, as sorted edge tuples.
    Expands the lowest uncovered vertex; plain recursion, no library code."""
    by_vertex = [[] for _ in range(n_vertices)]
    for k, (u, v) in enumerate(edge_ends):
        by_vertex[u].append(k)
        by_vertex[v].append(k)

    out = []

    def grow(covered, chosen):
        v = next((x for x in range(n_vertices) if x not in covered), None)
        if v is None:
            out.append(tuple(sorted(chosen)))
            return
        for k in by_vertex[v]:
            a, b = edge_ends[k]
            w = b if a == v else a
            if w == v or w in covered:
                continue
            grow(covered | {v, w}, chosen + [k])

    grow(frozenset(), [])
    return out


def kasteleyn_matrix(gq, weights, orientation):
    """Black-by-white signed adjacency matrix of G_Q as dense row lists;
    entry +nu when the edge is directed black to white.  The dense input
    of the numpy determinant oracle."""
    assert len(gq.blacks) == len(gq.whites), "unbalanced bipartition"
    row = {v: i for i, v in enumerate(gq.blacks)}
    col = {v: i for i, v in enumerate(gq.whites)}
    K = [[0.0] * len(gq.whites) for _ in gq.blacks]
    m = gq.map
    for e in range(m.edge_count):
        d_tail = orientation.direction[e]
        tail = m.dart_vertex[d_tail]
        head = m.dart_vertex[m.alpha[d_tail]]
        if gq.color[tail] == 0:
            K[row[tail]][col[head]] += weights[e]
        else:
            K[row[head]][col[tail]] -= weights[e]
    return K


def structure_check(gq):
    """Structural invariants of G_Q: counts against 4E vertices, 6E edges
    and 2E legs, a balanced bipartition, legs forming a perfect matching,
    well-formed quads and Euler's formula."""
    m = gq.map
    E = gq.primal.edge_count
    legs = gq.legs()
    legs_cover = sorted(m.dart_vertex[d] for k in legs for d in m.edge_darts[k])
    ok_quads = all(
        len(set(q.vertices)) == 4
        and all(gq.edge_kind[k] == bozon.dimer.PRIMAL_PARALLEL for k in q.primal_parallel)
        and all(gq.edge_kind[k] == bozon.dimer.DUAL_PARALLEL for k in q.dual_parallel)
        for q in gq.quads
    )
    return {
        "vertices": m.vertex_count,
        "edges": m.edge_count,
        "faces": m.face_count,
        "vertices_expected": 4 * E,
        "edges_expected": 6 * E,
        "legs": len(legs),
        "legs_expected": 2 * E,
        "bipartite_balanced": len(gq.blacks) == len(gq.whites),
        "legs_perfect_matching": legs_cover == list(range(m.vertex_count)),
        "quads_well_formed": ok_quads,
        "euler_ok": m.vertex_count - m.edge_count + m.face_count == 2,
    }


def reference_gq(m):
    """Reference for ``dimer.build_gq``: G_Q read off the geometric
    overlay.  Overlay the map and its dual so primal and dual edges cross
    at a new vertex, cut every face corner with a corner edge, validate
    that triangulation as a sphere map and take its dual.  Colours come
    from a breadth-first 2-colouring, legs from a scan of the corner
    edges' darts and quads from the overlay's faces.  Overlay edge ids:
    primal half of dart d is d, dual half 2E+d, corner edge 4E+d; edge k
    owns darts (2k, 2k+1), 2k at the vertex/face end and 2k+1 at the
    crossing (corner edges: 2k at the primal vertex)."""
    E = m.edge_count
    rotations = []
    for rot in m.vertex_darts:
        rotations.append([x for d in rot for x in (2 * d, 2 * (4 * E + d))])
    for orbit in m.faces:
        r = len(orbit)
        rotations.append([
            x
            for i, d in enumerate(orbit)
            for x in (2 * (2 * E + d), 2 * (4 * E + orbit[(i + 1) % r]) + 1)
        ])
    for e in range(E):
        d = min(m.edge_darts[e])
        d2 = m.alpha[d]
        rotations.append([
            2 * d + 1, 2 * (2 * E + d2) + 1, 2 * d2 + 1, 2 * (2 * E + d) + 1
        ])
    overlay = bozon.planar_map.build_map(rotations, [(2 * k, 2 * k + 1) for k in range(6 * E)])
    g = dual(overlay)

    color = [-1] * g.vertex_count
    color[0] = 0
    queue = [0]
    for u in queue:
        for d in g.vertex_darts[u]:
            w = g.dart_vertex[g.alpha[d]]
            if color[w] == -1:
                color[w] = 1 - color[u]
                queue.append(w)
            assert color[w] != color[u], "G_Q is not bipartite"

    vertex_legs = [-1] * g.vertex_count
    for k in range(4 * E, 6 * E):
        for d in g.edge_darts[k]:
            assert vertex_legs[g.dart_vertex[d]] == -1, "two legs at a vertex"
            vertex_legs[g.dart_vertex[d]] = k
    assert -1 not in vertex_legs, "a vertex without a leg"

    quads = []
    for e in range(E):
        d = min(m.edge_darts[e])
        d2 = m.alpha[d]
        corners = (2 * d + 1, 2 * (2 * E + d2) + 1, 2 * d2 + 1, 2 * (2 * E + d) + 1)
        verts = tuple(overlay.dart_face[x] for x in corners)
        quads.append(bozon.dimer.QuadRecord(
            edge=e,
            vertices=verts,
            primal_parallel=(2 * E + d, 2 * E + d2),
            dual_parallel=(d, d2),
            corner_legs=tuple(vertex_legs[t] for t in verts),
        ))
    return bozon.dimer.QuadDimerGraph(
        primal=m,
        map=g,
        edge_kind=(bozon.dimer.DUAL_PARALLEL,) * (2 * E)
        + (bozon.dimer.PRIMAL_PARALLEL,) * (2 * E) + (bozon.dimer.LEG,) * (2 * E),
        edge_primal_edge=m.dart_edge * 2 + (-1,) * (2 * E),
        color=tuple(color),
        quads=tuple(quads),
        vertex_legs=tuple(vertex_legs),
    )


WIDE_MAP_NAMES = ("grid_3_4", "grid_4_4", "grid_3_5", "grid_2_8", "wheel_8", "wheel_10", "wheel_12")


def gq_test_maps():
    """The maps the G_Q oracle test builds, by name: six builtins, the
    seven larger builtins of the benchmark's wide_maps workload, the six
    builtins' duals (parallel edges) and each map that reduce_plus leaves
    with edges when it fixes one face of a builtin +1."""
    out = {}
    for name in (*SWEEP_MAP_NAMES, *WIDE_MAP_NAMES):
        out[name] = builtin(name)
    for name in SWEEP_MAP_NAMES:
        m = builtin(name)
        out[f"{name}_dual"] = m.dual
        j = bozon.ising.base_couplings([1.0] * m.edge_count)
        for f in range(m.face_count):
            reduced = bozon.boundary.reduce_plus(m, j, bozon.planar_map.DefectSet.empty(), f)
            if reduced.new_map.edge_count:
                out[f"{name}_plus_{f}"] = reduced.new_map
    return out


def random_j(rng, count, low=0.1, high=2.0):
    return [rng.uniform(low, high) for _ in range(count)]


def free_fermion_residual(w, e):
    """|tanh^2 + sech^2 - 1| of edge e's pair-polygon weights, which the
    free-fermion condition makes 0."""
    return abs(w.primal[e] ** 2 + w.dual[e] ** 2 - 1.0)


class Surgeon:
    """Mutable rotation-system editor for ``reference_plan``: contraction,
    loop deletion and the record of removed edges, each edit made on the
    rotation lists.  It reads no coupling: a removal records the edge and
    the sign its factor exp(J_e * sign) takes."""

    def __init__(self, m):
        self.rotations = [list(r) for r in m.vertex_darts]
        self.edge_darts = [tuple(p) for p in m.edge_darts]
        self.dart_edge = list(m.dart_edge)
        self.dart_vertex = list(m.dart_vertex)
        self.alive_edge = [True] * m.edge_count
        self.alive_vertex = [True] * m.vertex_count
        self.rep = list(range(m.vertex_count))  # original id -> surviving id
        self.sign = [1] * m.edge_count  # -1 on an edge the gauge flipped
        self.removed = []  # (edge, sign), in order

    def endpoints(self, e):
        d1, d2 = self.edge_darts[e]
        return self.dart_vertex[d1], self.dart_vertex[d2]

    def contract(self, e, spin_product):
        """Contract non-loop edge e, merging its head into its tail."""
        d1, d2 = self.edge_darts[e]
        u, v = self.dart_vertex[d1], self.dart_vertex[d2]
        assert u != v, f"edge {e} is already a loop"
        self.removed.append((e, spin_product * self.sign[e]))
        rot_u, rot_v = self.rotations[u], self.rotations[v]
        i1, i2 = rot_u.index(d1), rot_v.index(d2)
        seq_u = rot_u[i1 + 1:] + rot_u[:i1]
        seq_v = rot_v[i2 + 1:] + rot_v[:i2]
        self.rotations[u] = seq_u + seq_v
        self.rotations[v] = []
        for d in seq_v:
            self.dart_vertex[d] = u
        self.alive_edge[e] = False
        self.alive_vertex[v] = False
        for x, r in enumerate(self.rep):
            if r == v:
                self.rep[x] = u

    def absorb_loop(self, e, spin_product):
        """Delete a loop edge whose endpoints are frozen."""
        d1, d2 = self.edge_darts[e]
        u = self.dart_vertex[d1]
        self.removed.append((e, spin_product * self.sign[e]))
        self.rotations[u] = [d for d in self.rotations[u] if d not in (d1, d2)]
        self.alive_edge[e] = False

    def negate_at(self, v):
        """Gauge flip: negate the sign of the live edges with exactly one
        endpoint v; returns them."""
        touched = []
        for e in range(len(self.alive_edge)):
            if self.alive_edge[e]:
                a, b = self.endpoints(e)
                if (a == v) != (b == v):
                    self.sign[e] = -self.sign[e]
                    touched.append(e)
        return touched

    def contract_fixed(self, spin):
        """Contract every edge joining two fixed vertices (the keys of
        ``spin``), absorbing the loops that appear: after each removal,
        rescan every edge from id 0 for the next.  Returns the vertex the
        fixed vertices merge into."""
        while True:
            candidate = None
            for e in range(len(self.alive_edge)):
                if self.alive_edge[e]:
                    u, v = self.endpoints(e)
                    if u in spin and v in spin:
                        candidate = e
                        break
            if candidate is None:
                return self.rep[min(spin)]
            u, v = self.endpoints(candidate)
            if u == v:
                self.absorb_loop(candidate, spin[u] * spin[v])
            else:
                self.contract(candidate, spin[u] * spin[v])


def reference_plan(m, plus, minus):
    """Reference for ``boundary._plan``: the contraction surgery on the
    rotation lists.  Contract the plus vertices; with a minus arc,
    contract it too, gauge-flip its merged vertex, merge the two across
    the junction edges and keep the flipped survivors as the fan, dropped
    when it is every edge at the merged vertex.  Then compact the ids and
    build the reduced map."""
    surgeon = Surgeon(m)
    merged = surgeon.contract_fixed(dict.fromkeys(plus, 1))
    fan = []
    if minus:
        v_minus = surgeon.contract_fixed(dict.fromkeys(minus, -1))
        flipped = surgeon.negate_at(v_minus)
        merged = surgeon.contract_fixed({merged: 1, v_minus: 1})
        fan = [e for e in flipped if surgeon.alive_edge[e]]
        if set(fan) >= {surgeon.dart_edge[t] for t in surgeon.rotations[merged]}:
            fan = []
    new_edges = [e for e in range(m.edge_count) if surgeon.alive_edge[e]]
    edge_map = [-1] * m.edge_count
    dart_map = {}
    for k, e in enumerate(new_edges):
        edge_map[e] = k
        d1, d2 = surgeon.edge_darts[e]
        dart_map[d1], dart_map[d2] = 2 * k, 2 * k + 1
    new_vertices = [v for v in range(m.vertex_count) if surgeon.alive_vertex[v]]
    index = {v: i for i, v in enumerate(new_vertices)}
    new_map = bozon.planar_map.build_map(
        [[dart_map[d] for d in surgeon.rotations[v]] for v in new_vertices],
        [(2 * k, 2 * k + 1) for k in range(len(new_edges))],
    )
    vertex_map = tuple(index[surgeon.rep[x]] for x in range(m.vertex_count))
    line = tuple(sorted(edge_map[e] for e in fan))
    return (new_map, tuple(new_edges), vertex_map, tuple(edge_map), vertex_map[merged],
            tuple(surgeon.removed), line)


def clear_caches():
    """Forget every per-process cache: builtin maps, interned maps (and
    with them their memoized duals and sweep plans), boundary reduction
    plans, graph contexts and drawn instance streams, with the values their
    instances keep."""
    bozon.graphs.builtin.cache_clear()
    bozon.boundary._plan.cache_clear()
    bozon.planar_map._intern.cache_clear()
    bozon.dimer.graph_context.cache_clear()
    bozon.instances._stream.cache_clear()


# ----------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def maps():
    names = ("k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5")
    return {name: builtin(name) for name in names}


@pytest.fixture(scope="session")
def duals(maps):
    return {name: dual(m) for name, m in maps.items()}


@pytest.fixture
def rng():
    return random.Random(20240817)
