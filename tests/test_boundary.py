"""Boundary-condition reductions: fixed-spin partition functions against
scalar * Z_free of the contracted graph, by double enumeration."""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property

import pytest

import bozon.boundary

from bozon import (
    CouplingAssignment,
    DefectSet,
    PathSpec,
    base_couplings,
    build_map,
    builtin,
    modify_couplings,
    partition_function,
    reduce_dobrushin,
    reduce_plus,
    reduce_plus_free,
    run_suite,
    validate_defects,
)
from bozon.boundary import ReductionResult
from bozon.instances import FAMILY, random_instances
from bozon.planar_map import CombinatorialMap
from bozon.errors import BadArcSplit, BozonError, DefectOnBoundary, NonContiguousArc

from conftest import (
    clear_caches,
    modified_values,
    oracle_partition,
    random_j,
    rescanning_contract_fixed,
)


def reduced_z(res):
    jj = modify_couplings(res.new_couplings, res.new_defects)
    return res.scalar * partition_function(res.new_map, jj)


def fixed_plus(m, edges):
    fixed = {}
    for e in edges:
        u, v = m.edge_endpoints(e)
        fixed[u] = fixed[v] = 1
    return fixed


def test_reduce_plus_every_face(maps, rng):
    for name in ("c4", "wheel_4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        for face in range(m.face_count):
            res = reduce_plus(m, j, DefectSet.empty(), face)
            lhs = oracle_partition(
                m, list(j.real), fixed=fixed_plus(m, m.face_edges(face))
            )
            assert complex(reduced_z(res)) == pytest.approx(lhs, rel=1e-12)


def test_reduce_plus_shrinks_graph(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    res = reduce_plus(m, j, DefectSet.empty(), outer)
    assert res.new_map.vertex_count == m.vertex_count - len(
        set(m.face_vertices(outer))
    ) + 1
    assert res.merged_vertex is not None


def test_reduce_plus_with_interior_defects(maps, rng):
    m = maps["grid_3_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    # edge 2 = (3,4) interior; dual edge 3 crosses interior edge (4,5)
    d = validate_defects(
        m,
        (PathSpec((3, 4), (2,)),),
        (PathSpec(maps["grid_3_3"].dual.edge_endpoints(3), (3,)),),
    )
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    res = reduce_plus(m, j, d, outer)
    want = oracle_partition(
        m,
        modified_values(j, d.gamma, d.gamma_star),
        fixed=fixed_plus(m, m.face_edges(outer)),
    )
    assert complex(reduced_z(res)) == pytest.approx(want, rel=1e-12)
    assert res.new_defects.gamma and res.new_defects.gamma_star


def test_reduce_plus_rejects_defect_on_boundary(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, set())
    with pytest.raises(DefectOnBoundary):
        reduce_plus(m, j, d, 0)


def test_reduce_plus_free_arcs(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    cycle = list(m.face_edges(outer))
    for span in (1, 2, len(cycle)):
        arc = cycle[:span]
        res = reduce_plus_free(m, j, DefectSet.empty(), arc, face=outer)
        lhs = oracle_partition(m, list(j.real), fixed=fixed_plus(m, arc))
        assert complex(reduced_z(res)) == pytest.approx(lhs, rel=1e-12)


def test_reduce_plus_free_rejects_empty_arc(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    with pytest.raises(NonContiguousArc):
        reduce_plus_free(m, j, DefectSet.empty(), [], 0)


def test_reduce_plus_free_rejects_gaps(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    with pytest.raises(NonContiguousArc):
        reduce_plus_free(m, j, DefectSet.empty(), [0, 2], face=0)


def test_reduce_plus_free_takes_every_window_of_a_walk_through_bridges(rng):
    """A triangle with a pendant path: the outer walk passes the bridges 3
    and 4 twice each.  Every window of consecutive walk positions is an
    arc, even where the other traversal of a bridge lies outside it, and
    reduces to the oracle's fixed-spin sum."""
    m = build_map(
        [[0, 5, 6], [1, 2], [3, 4], [7, 8], [9]],
        [(2 * e, 2 * e + 1) for e in range(5)],
    )
    j = base_couplings(random_j(rng, m.edge_count))
    arcs = 0
    for face in range(m.face_count):
        walk = list(m.face_edges(face))
        n = len(walk)
        for start in range(n):
            for span in range(1, n + 1):
                arc = [walk[(start + i) % n] for i in range(span)]
                res = reduce_plus_free(m, j, DefectSet.empty(), arc, face=face)
                lhs = oracle_partition(m, list(j.real), fixed=fixed_plus(m, arc))
                assert complex(reduced_z(res)) == pytest.approx(lhs, rel=1e-12)
                arcs += 1
    assert arcs == 3**2 + 7**2
    with pytest.raises(NonContiguousArc):  # no window holds just edges 0 and 4
        reduce_plus_free(m, j, DefectSet.empty(), [0, 4], face=1)


def test_reduce_dobrushin_all_splits(maps, rng):
    for name in ("c4", "wheel_4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        face = max(range(m.face_count), key=lambda f: len(m.faces[f]))
        walk = [m.dart_vertex[t] for t in m.faces[face]]
        length = len(walk)
        for a in range(length - 1):
            for b in range(a + 1, length):
                res = reduce_dobrushin(m, j, DefectSet.empty(), face, (a, b))
                fixed = {walk[i % length]: 1 for i in range(a + 1, b + 1)}
                fixed.update(
                    {walk[i % length]: -1 for i in range(b + 1, a + length + 1)}
                )
                lhs = oracle_partition(m, list(j.real), fixed=fixed)
                assert complex(reduced_z(res)) == pytest.approx(
                    lhs, rel=1e-11
                ), (name, a, b)


def test_reduce_dobrushin_appends_disorder_line(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    res = reduce_dobrushin(m, j, DefectSet.empty(), outer, (0, 2))
    assert res.disorder_line  # the +- interface crosses surviving spokes
    assert res.new_defects.gamma_star == frozenset(res.disorder_line)


def test_reduce_dobrushin_bad_splits(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    for split in ((0, 0), (-1, 2), (0, 99)):
        with pytest.raises(BadArcSplit):
            reduce_dobrushin(m, j, DefectSet.empty(), 0, split)


def test_reduce_dobrushin_split_is_order_insensitive(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    r1 = reduce_dobrushin(m, j, DefectSet.empty(), 0, (1, 2))
    r2 = reduce_dobrushin(m, j, DefectSet.empty(), 0, (2, 1))
    assert complex(reduced_z(r1)) == pytest.approx(complex(reduced_z(r2)), rel=1e-14)


def test_vertex_and_edge_maps_are_consistent(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    res = reduce_plus(m, j, DefectSet.empty(), outer)
    for e in range(m.edge_count):
        ne = res.edge_map[e]
        if ne < 0:
            continue
        u, v = m.edge_endpoints(e)
        nu_, nv = res.new_map.edge_endpoints(ne)
        assert {res.vertex_map[u], res.vertex_map[v]} == {nu_, nv}
        assert res.new_couplings.real[ne] == j.real[e]


def _reductions(m, j):
    """Every reduction the boundary suite can draw on ``m``: reduce_plus,
    each contiguous plus-free arc and each Dobrushin split, on every face,
    as (label, thunk) pairs."""
    d = DefectSet.empty()
    for face in range(m.face_count):
        cycle = list(m.face_edges(face))
        length = len(cycle)
        yield ("plus", face), lambda: reduce_plus(m, j, d, face)
        for start in range(length):
            for span in range(1, length + 1):
                arc = [cycle[(start + i) % length] for i in range(span)]
                yield ("plus_free", face, start, span), (
                    lambda arc=arc: reduce_plus_free(m, j, d, arc, face=face)
                )
        for a in range(length - 1):
            for b in range(a + 1, length):
                yield ("dobrushin", face, a, b), (
                    lambda a=a, b=b: reduce_dobrushin(m, j, d, face, (a, b))
                )


def _outcome(thunk):
    try:
        return thunk()
    except BozonError as exc:
        return type(exc)


ORACLE_MAPS = (*FAMILY, "wheel_8", "grid_3_4")


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_one_pass_contraction_matches_rescanning_reference(name, rng, monkeypatch):
    m = builtin(name)
    j = base_couplings(random_j(rng, m.edge_count))
    cases = list(_reductions(m, j))
    fast = [_outcome(thunk) for _label, thunk in cases]
    # the reference pass builds its own plans, not the memo's, and leaves
    # none of them behind
    bozon.boundary._plan.cache_clear()
    monkeypatch.setattr(bozon.boundary, "_contract_fixed", rescanning_contract_fixed)
    try:
        for (label, thunk), got in zip(cases, fast):
            want = _outcome(thunk)
            if isinstance(want, ReductionResult):
                assert got.new_map == want.new_map, label
                assert got.scalar == want.scalar, label
                assert got.vertex_map == want.vertex_map, label
                assert got.edge_map == want.edge_map, label
            assert got == want, label
    finally:
        bozon.boundary._plan.cache_clear()


def _signature(thunk):
    """A reduction's outcome down to the bits: every field, the scalar as
    float.hex(), or the error's type and message."""
    try:
        res = thunk()
    except BozonError as exc:
        return type(exc), str(exc)
    return res, res.scalar.hex()


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_warm_plans_replay_the_cold_reduction(name, rng):
    """Each reduction built from a cold plan memo equals its replay of a
    warm plan: two coupling draws per plan, then a draw with flagged edges
    whose reductions raise on a warm plan exactly as on a cold one."""
    m = builtin(name)
    draws = [base_couplings(random_j(rng, m.edge_count)) for _ in range(2)]
    real = tuple(random_j(rng, m.edge_count))
    draws.append(CouplingAssignment(real, tuple(rng.random() < 0.3 for _ in real)))
    cold = {}
    for k, j in enumerate(draws):
        for label, thunk in _reductions(m, j):
            bozon.boundary._plan.cache_clear()
            cold[k, label] = _signature(thunk)
    bozon.boundary._plan.cache_clear()
    raised = 0
    for k, j in enumerate(draws):  # each draw after the first finds every plan warm
        for label, thunk in _reductions(m, j):
            got, want = _signature(thunk), cold[k, label]
            assert got == want, (k, label)
            if isinstance(want[0], ReductionResult):
                assert got[0].new_map is want[0].new_map, (k, label)
            else:
                raised += want[0] is DefectOnBoundary
    assert raised


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_arc_missing_one_edge_reuses_the_plus_plan(name, rng):
    """An arc of all but one edge of a face fixes every vertex of the
    face, so it replays reduce_plus's plan: the same reduced map object
    and the same scalar bits."""
    m = builtin(name)
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.empty()
    for face in range(m.face_count):
        cycle = list(m.face_edges(face))
        if len(set(m.face_vertices(face))) < len(cycle):
            continue  # the walk passes a vertex twice
        plus = reduce_plus(m, j, d, face)
        for start in range(len(cycle)):
            arc = (cycle[start:] + cycle[:start])[1:]
            res = reduce_plus_free(m, j, d, arc, face=face)
            assert res.new_map is plus.new_map, (face, start)
            assert res.scalar.hex() == plus.scalar.hex(), (face, start)


def test_mutating_fixed_leaves_the_next_result_unchanged(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.empty()
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    for reduce in (
        lambda: reduce_plus(m, j, d, outer),
        lambda: reduce_plus_free(m, j, d, list(m.face_edges(outer))[:2], outer),
        lambda: reduce_dobrushin(m, j, d, outer, (0, 2)),
    ):
        first = reduce()
        want = dict(first.fixed)
        first.fixed.clear()
        first.fixed[99] = -1
        assert reduce().fixed == want


def _hand_fixed(m, label):
    """The spins a reduction's label fixes, derived from the face walk."""
    kind, face, *where = label
    cycle = list(m.face_edges(face))
    length = len(cycle)
    if kind == "plus":
        return fixed_plus(m, cycle)
    if kind == "plus_free":
        start, span = where
        return fixed_plus(m, [cycle[(start + i) % length] for i in range(span)])
    a, b = where
    walk = [m.dart_vertex[t] for t in m.faces[face]]
    fixed = {walk[i % length]: 1 for i in range(a + 1, b + 1)}
    fixed.update({walk[i % length]: -1 for i in range(b + 1, a + length + 1)})
    return fixed


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_fixed_is_the_reduced_boundary_condition(name, rng):
    """res.fixed is the boundary condition the reduction reduces: the
    spins derived by hand from the face walk, under which the oracle spin
    sum on m equals scalar times the oracle on the reduced map."""
    m = builtin(name)
    j = base_couplings(random_j(rng, m.edge_count))
    reduced = 0
    for label, thunk in _reductions(m, j):
        res = _outcome(thunk)
        if not isinstance(res, ReductionResult):
            continue
        assert res.fixed == _hand_fixed(m, label), label
        d = res.new_defects
        values = modified_values(res.new_couplings, d.gamma, d.gamma_star)
        want = res.scalar * oracle_partition(res.new_map, values)
        got = oracle_partition(m, list(j.real), fixed=res.fixed)
        assert got == pytest.approx(want, rel=1e-11), label
        reduced += 1
    assert reduced


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_whole_face_plus_free_is_reduce_plus(name, rng):
    m = builtin(name)
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.empty()
    for face in range(m.face_count):
        plus = reduce_plus(m, j, d, face)
        cycle = list(m.face_edges(face))
        for start in range(len(cycle)):
            whole = reduce_plus_free(m, j, d, cycle[start:] + cycle[:start], face=face)
            for field in ReductionResult._fields:
                assert getattr(whole, field) == getattr(plus, field), (
                    face, start, field,
                )


def test_reduced_maps_build_their_vertex_plan_once(monkeypatch):
    builds = Counter()
    plan = CombinatorialMap.vertex_plan.func

    def counting_plan(m):
        builds[m] += 1
        return plan(m)

    counting = cached_property(counting_plan)
    counting.__set_name__(CombinatorialMap, "vertex_plan")
    monkeypatch.setattr(CombinatorialMap, "vertex_plan", counting)
    clear_caches()  # no map object holds a plan yet
    try:
        run_suite("boundary", 100, seed=1)
    finally:
        clear_caches()
    assert len(builds) > len(FAMILY)  # the reduced maps were counted too
    assert max(builds.values()) == 1, [
        (m.vertex_count, m.edge_count, n) for m, n in builds.items() if n > 1
    ]


def test_plus_free_check_fixes_exactly_its_arc():
    """Replay each seeded arc and recompute both sides of its check from
    scratch: a whole-face shortcut taken on a partial arc would differ."""
    records = run_suite("boundary", 100, seed=1)
    insts = random_instances(100, 1, profile="none")
    partial = 0
    for rec, inst in zip(records, insts):
        m, j, d = inst.map, inst.couplings, inst.defects
        rng = random.Random(f"{inst.seed}-boundary-{inst.index}")
        face = rng.randrange(m.face_count)
        cycle = list(m.face_edges(face))
        start = rng.randrange(len(cycle))
        span = rng.randint(1, len(cycle))
        arc = [cycle[(start + i) % len(cycle)] for i in range(span)]
        (check,) = [c for c in rec["checks"] if c["name"] == "reduce_plus_free"]
        assert (check["face"], check["arc_edges"]) == (face, span)
        lhs = partition_function(m, j, fixed=fixed_plus(m, arc))
        rhs = reduced_z(reduce_plus_free(m, j, d, arc, face=face))
        assert (check["lhs"], check["rhs"]) == (lhs.real, rhs.real)
        partial += span < len(cycle)
    assert partial > 50


@pytest.mark.parametrize("name", (*FAMILY, "wheel_8"))
def test_flagged_surviving_edges_keep_their_flags(name, rng):
    """Couplings passed with half_pi flags: every face, arc and split
    whose removed edges are unflagged reduces the oracle's fixed-spin sum
    over the flagged values to scalar times the oracle on the reduced map,
    whose values are the carried couplings with the defects applied.  A
    dropped flag loses a factor i*s on the surviving edge; a flagged edge
    on the Dobrushin disorder line needs the scalar's -1."""
    m = builtin(name)
    survived = on_line = lines = 0
    for _draw in range(4):
        real = tuple(random_j(rng, m.edge_count))
        flagged = set(rng.sample(range(m.edge_count), 2))
        j = CouplingAssignment(real, tuple(e in flagged for e in range(m.edge_count)))
        values = [complex(j.value(e)) for e in range(m.edge_count)]
        for label, thunk in _reductions(m, j):
            res = _outcome(thunk)
            if res is DefectOnBoundary:
                continue  # a flagged edge joins two fixed spins
            assert isinstance(res, ReductionResult), (label, res)
            kept = {res.edge_map[e] for e in flagged} - {-1}
            assert {e for e, f in enumerate(res.new_couplings.half_pi) if f} == kept
            survived += bool(kept)
            on_line += bool(kept & set(res.disorder_line))
            lines += bool(res.disorder_line)
            jj = modify_couplings(res.new_couplings, res.new_defects)
            reduced = [complex(jj.value(e)) for e in range(jj.edge_count)]
            want = oracle_partition(m, values, fixed=res.fixed)
            got = res.scalar * oracle_partition(res.new_map, reduced)
            assert got == pytest.approx(want, rel=1e-11), label
    assert survived
    assert on_line or not lines  # k3 and c4 have no face off the split
