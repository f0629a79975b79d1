"""Even-subgraph sums and the pair-polygon identity, checked against a
2^|E| subset filter, the spin-sum oracle and a loop over all disjoint pairs
of polygon masks."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

import bozon.polygon
from bozon import (
    CouplingAssignment,
    DefectSet,
    Instance,
    base_couplings,
    build_map,
    builtin,
    dual,
    modify_couplings,
    pair_polygon_sum,
    instance_reports,
    polygon_weights,
)
from bozon.errors import TooLarge
from bozon.dimer import brute_force_dimer_Z, graph_context
from bozon.polygon import _polygon_sweep

from conftest import (
    free_fermion_residual,
    modified_values,
    oracle_cycle_basis,
    oracle_even_subgraphs,
    oracle_partition,
    oracle_polygon_masks,
    random_j,
    reference_matching_sweep,
    reference_polygon_sweep,
    sweep_outcome,
    sweep_test_maps,
)


def is_even(m, mask):
    deg = [0] * m.vertex_count
    for e in range(m.edge_count):
        if mask >> e & 1:
            for v in m.edge_endpoints(e):
                deg[v] += 1
    return all(k % 2 == 0 for k in deg)


# The oracle lister rests on its cycle basis: dim(cycle space) even masks,
# independent since each holds its own non-tree edge.  Then its Gray-code
# walk lists the whole cycle space, also where the subset filter cannot.


def test_cycle_basis_size(maps):
    for m in maps.values():
        dim = m.edge_count - m.vertex_count + 1
        assert len(oracle_cycle_basis(m)) == dim


def test_basis_masks_are_polygons():
    for name in SWEEP_MAPS:
        m = builtin(name)
        assert all(is_even(m, mask) for mask in oracle_cycle_basis(m)), name


def test_polygon_masks_match_subset_filter(maps):
    for name in ("k3", "c4", "grid_2_3", "wheel_4", "grid_3_3"):
        m = maps[name]
        assert sorted(oracle_polygon_masks(m)) == oracle_even_subgraphs(m)


def test_dual_polygons_match_subset_filter(maps, duals):
    for name in ("k3", "c4", "grid_2_3"):
        dm = duals[name]
        assert sorted(oracle_polygon_masks(dm)) == oracle_even_subgraphs(dm)


def test_polygon_count_is_power_of_two():
    """With unit weights and no dual side the sweep counts the even
    subgraphs: 2^(E-V+1), the size of the cycle space."""
    for name in CARRIERS:
        m = carrier(name)
        count = _polygon_sweep(m, (1,) * m.edge_count, None)
        assert count == 1 << m.edge_count - m.vertex_count + 1, name


def test_unit_pair_sweep_counts_disjoint_pairs(maps):
    """With both sides it counts the edge-disjoint pairs (P, P*)."""
    for name, m in maps.items():
        duals = oracle_even_subgraphs(m.dual)
        want = sum(p & q == 0 for p in oracle_even_subgraphs(m) for q in duals)
        ones = (1,) * m.edge_count
        assert _polygon_sweep(m, ones, ones) == want, name


def test_polygon_weights_free_fermion(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    for d in (DefectSet.empty(), DefectSet.from_edge_sets({0}, {3})):
        w = polygon_weights(m, modify_couplings(j, d))
        for e in range(m.edge_count):
            assert free_fermion_residual(w, e) <= 1e-12


def test_polygon_weights_constant_forms_agree(maps, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, m.edge_count))
    for d in (DefectSet.empty(), DefectSet.from_edge_sets({1}, set())):
        jbar = modify_couplings(j, d)
        # C = 2^{|V|+1} prod_e cosh(2 Jbar_e) in its factored form
        # 2^{|V|+1} (-1)^{|Gamma|} prod_e cosh(2 J_e)
        factored = 2 ** (m.vertex_count + 1) * (-1) ** jbar.phase_power * math.prod(
            math.cosh(2 * a) for a in jbar.real
        )
        w = polygon_weights(m, jbar)
        assert w.constant == pytest.approx(factored, rel=1e-12)


def test_pair_polygon_sum_equals_squared_z(maps, duals, rng):
    for name in ("k3", "c4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        z = oracle_partition(m, list(j.real))
        total = pair_polygon_sum(m, duals[name], j)
        assert total == pytest.approx(abs(z) ** 2, rel=1e-11)


def test_pair_polygon_sum_modified(maps, duals, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    gamma, gamma_star = {0}, {2}
    jbar = modify_couplings(j, DefectSet.from_edge_sets(gamma, gamma_star))
    zbar = oracle_partition(m, modified_values(j, gamma, gamma_star))
    total = pair_polygon_sum(m, duals["c4"], jbar)
    assert total == pytest.approx((zbar * zbar).real, rel=1e-11)
    assert abs((zbar * zbar).imag) < 1e-12 * abs(zbar) ** 2


def test_pairpolygon_edge_reports(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {4})
    (report,) = instance_reports("pairpolygon", Instance(m, j, d))
    assert report.passed
    assert report.extra == {"gamma": 1, "gamma_star": 1}


# ------------------------------------------------- the edge sweep

# every builtin map that the seeded suites and the benchmark workloads draw
SWEEP_MAPS = (
    "k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5", "grid_3_4",
    "grid_4_4", "grid_3_5", "grid_2_8", "wheel_8", "wheel_10", "wheel_12",
)


CARRIERS = SWEEP_MAPS + ("self_loop", "c4_dual")


def carrier(name):
    """A builtin map, or "self_loop" (one vertex with one self-loop: the
    dual of a single edge) or "c4_dual" (two vertices joined by four
    parallel edges)."""
    if name == "self_loop":
        return dual(build_map([[0], [1]], [(0, 1)]))
    if name == "c4_dual":
        return builtin("c4").dual
    return builtin(name)


def oracle_pair_sum(m, primal, dual_w):
    """(sum, sum of |terms|) over every pair of a primal and a dual polygon
    mask that share no edge, each mask weighted by its own product."""
    def products(g, w):
        masks = oracle_polygon_masks(g)
        prods = [math.prod(w[e] for e in range(g.edge_count) if mask >> e & 1)
                 for mask in masks]
        return masks, np.array(prods)

    p_masks, p_prod = products(m, primal)
    d_masks, d_prod = products(m.dual, dual_w)
    d_arr = np.array(d_masks, dtype=np.int64)
    total = size = 0.0
    for pmask, pw in zip(p_masks, p_prod):
        disjoint = (d_arr & pmask) == 0
        total += pw * d_prod[disjoint].sum()
        size += abs(pw) * np.abs(d_prod[disjoint]).sum()
    return float(total), float(size)


def sweep_couplings(m, rng):
    """Plain couplings, modified ones (flagged and negated edges) and ones
    with J = 0, hence weight 0.0, on some edges, flagged or not."""
    j = base_couplings(random_j(rng, m.edge_count))
    last = m.edge_count - 1
    modified = modify_couplings(
        j, DefectSet.from_edge_sets({0}, {last} if last else ())
    )
    zeroed = CouplingAssignment(
        real=tuple(0.0 if e % 3 == 0 else x for e, x in enumerate(modified.real)),
        half_pi=modified.half_pi,
    )
    return j, modified, zeroed


@pytest.mark.parametrize("name", CARRIERS)
def test_pair_sweep_matches_pair_oracle(rng, name):
    m = carrier(name)
    for jbar in sweep_couplings(m, rng):
        w = polygon_weights(m, jbar)
        want, size = oracle_pair_sum(m, w.primal, w.dual)
        bare = pair_polygon_sum(m, m.dual, jbar, include_constant=False)
        full = pair_polygon_sum(m, m.dual, jbar)
        assert abs(bare - want) <= 1e-12 * size, name
        assert abs(full - w.constant * want) <= 1e-12 * abs(w.constant) * size, name
    assert 0.0 in w.primal


def test_pair_polygon_sum_cap():
    from bozon import grid

    m = grid(9, 9)  # grid(8, 8) fits STATE_CAP; here a step leaves 70,785 states
    j = base_couplings([0.5] * m.edge_count)
    with pytest.raises(TooLarge, match="pair sweep holds"):
        pair_polygon_sum(m, m.dual, j)


def test_pair_replay_is_the_dict_walk(rng):
    """_polygon_sweep equals the reference walk bit for bit, with and
    without the dual side, on the builtins, their duals and
    boundary-reduced maps: under plain and flagged couplings' weights,
    random signed weights and those with every third weight 0.0 or -0.0."""
    for name, m in sweep_test_maps().items():
        E = m.edge_count
        j = base_couplings(random_j(rng, E))
        flagged = modify_couplings(j, DefectSet.from_edge_sets({0}, {E - 1}))
        signed = [rng.uniform(-2.0, 2.0) for _ in range(2 * E)]
        zeroed = [(0.0 if k % 2 else -0.0) if k % 3 == 0 else x for k, x in enumerate(signed)]
        sides = [(w.primal, w.dual) for w in (polygon_weights(m, j), polygon_weights(m, flagged))]
        sides += [(ws[:E], ws[E:]) for ws in (signed, zeroed)]
        for primal, dual_w in sides:
            for d in (dual_w, None):
                want = reference_polygon_sweep(m, primal, d).hex()
                assert _polygon_sweep(m, primal, d).hex() == want, name


def test_the_first_pair_sum_records_the_plan_it_walks(rng):
    """A map's first sum walks on its own weights while it records the
    plan it keeps on the map, and equals the reference walk bit for bit;
    the second sum replays that plan and does too."""
    for name, m in sweep_test_maps().items():
        signed = [rng.uniform(-2.0, 2.0) for _ in range(2 * m.edge_count)]
        primal, dual_w = signed[: m.edge_count], signed[m.edge_count :]
        for d in (dual_w, None):
            m.sweep_plans.clear()
            want = reference_polygon_sweep(m, primal, d).hex()
            assert _polygon_sweep(m, primal, d).hex() == want, name
            assert m.sweep_plans["polygon" if d is None else "pair"] is not None, name
            assert _polygon_sweep(m, primal, d).hex() == want, name


@pytest.mark.parametrize("cap, raises", [(20, True), (40, False)])
def test_kept_pair_plan_stops_where_the_walk_does(cap, raises, rng, monkeypatch):
    """A pair plan built under the default cap raises TooLarge under a
    lowered STATE_CAP with the reference walk's message, or neither raises.
    grid_3_3's pair sweep peaks at 30 states."""
    m = builtin("grid_3_3")
    w = polygon_weights(m, base_couplings(random_j(rng, m.edge_count)))
    _polygon_sweep(m, w.primal, w.dual)  # records the plan if none is kept
    plan = m.sweep_plans["pair"]
    assert plan is not None
    monkeypatch.setattr(bozon.polygon, "STATE_CAP", cap)
    got = sweep_outcome(lambda: [_polygon_sweep(m, w.primal, w.dual)])
    assert got == sweep_outcome(lambda: [reference_polygon_sweep(m, w.primal, w.dual)])
    assert isinstance(got, str) == raises
    assert m.sweep_plans["pair"] is plan


def test_a_pair_plan_past_state_cap_ints_is_not_kept(monkeypatch, rng):
    """Under a STATE_CAP that grid_3_3's pair walk fits (30 states a step)
    but its plan's ops (3 ints each) do not, the first sum records once and
    keeps no plan, and every sum walks, still equal to the reference walk
    bit for bit; no sum records again."""
    m = builtin("grid_3_3")
    w = polygon_weights(m, base_couplings(random_j(rng, m.edge_count)))
    walk = bozon.polygon._walk
    recorded = []

    def counting_walk(steps, carry, sweep, cap, record):
        recorded.append(record)
        return walk(steps, carry, sweep, cap, record)

    monkeypatch.setattr(bozon.polygon, "_walk", counting_walk)
    monkeypatch.setattr(bozon.polygon, "STATE_CAP", 40)
    m.sweep_plans.clear()
    try:
        want = reference_polygon_sweep(m, w.primal, w.dual).hex()
        for _ in range(3):
            assert _polygon_sweep(m, w.primal, w.dual).hex() == want
        assert m.sweep_plans["pair"] is None
        assert recorded == [True, False, False]
    finally:
        m.sweep_plans.clear()


CONTENTION_MAPS = (
    "k3", "c4", "grid_2_3", "grid_2_4", "grid_3_3",
    "wheel_4", "wheel_5", "wheel_6", "wheel_7", "wheel_8",
)


def test_pair_plans_under_thread_contention(rng):
    """More threads than cores take pair sums and brute matching sums on
    maps that keep no plan yet, with a short switch interval, so first
    sums race to record: each sum equals the reference walk bit for bit,
    and no thread raises."""
    jobs, want = [], []
    for name in CONTENTION_MAPS:
        m = builtin(name)
        gq = graph_context(m)
        m.sweep_plans.clear()
        gq.map.sweep_plans.clear()
        signed = [rng.uniform(-2.0, 2.0) for _ in range(2 * m.edge_count)]
        for d in (signed[m.edge_count :], None):
            jobs.append(lambda m=m, p=signed[: m.edge_count], d=d: _polygon_sweep(m, p, d))
            want.append(reference_polygon_sweep(m, signed[: m.edge_count], d).hex())
        w = [rng.uniform(0.5, 2.0) for _ in range(gq.edge_count)]
        jobs.append(lambda gq=gq, w=w: brute_force_dimer_Z(gq, w))
        want.append(float(reference_matching_sweep(gq, w, (0,) * len(w)).get(0, 0.0)).hex())
    got = [None] * 8

    def work(k):
        out = []
        for i in range(300):
            n = (7 * k + i) % len(jobs)
            out.append((n, jobs[n]().hex()))
        got[k] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in got:
        assert out is not None  # the thread raised
        assert all(h == want[n] for n, h in out)


def peak_live_bits(m):
    """Most vertices and faces whose parity one sweep state carries."""
    live = peak = 0
    for _e, ends, faces, gone in m.edge_plan:
        live |= ends | faces
        peak = max(peak, bin(live).count("1"))
        live &= ~gone
    assert live == 0
    return peak


@pytest.mark.parametrize("name", CARRIERS)
def test_edge_plan_is_built_once_and_reads_the_dual(name):
    m = carrier(name)
    assert m.edge_plan is m.edge_plan
    n = m.vertex_count
    assert sorted(e for e, *_rest in m.edge_plan) == list(range(m.edge_count))
    last = {}
    for i, (e, ends, faces, _gone) in enumerate(m.edge_plan):
        u, v = m.edge_endpoints(e)
        f, g = m.dual.edge_endpoints(e)
        assert ends == (1 << u) ^ (1 << v)
        assert faces == (1 << (n + f)) ^ (1 << (n + g))
        last.update(dict.fromkeys((u, v, n + f, n + g), i))
    for i, (_e, _ends, _faces, gone) in enumerate(m.edge_plan):
        assert gone == sum(1 << b for b, k in last.items() if k == i)
    assert peak_live_bits(m) <= 10, name
