"""Boundary-condition reductions: fixed-spin partition functions against
scalar * Z_free of the contracted graph, by double enumeration."""

from __future__ import annotations

import pytest

from bozon import (
    DefectSet,
    PathSpec,
    base_couplings,
    builtin,
    dual,
    modify_couplings,
    partition_function,
    reduce_dobrushin,
    reduce_plus,
    reduce_plus_free,
    validate_defects,
    walk_path,
)
from bozon.errors import BadArcSplit, BozonError, DefectOnBoundary, NonContiguousArc

from conftest import modified_values, oracle_partition, random_j


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


def test_reduce_plus_free_empty_is_identity(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    res = reduce_plus_free(m, j, DefectSet.empty(), [])
    assert res.scalar == 1.0
    assert res.new_map.vertex_count == m.vertex_count


def test_reduce_plus_free_rejects_gaps(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    with pytest.raises(NonContiguousArc):
        reduce_plus_free(m, j, DefectSet.empty(), [0, 2], face=0)


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
    if res.path_validated:
        assert res.disorder_path is not None
        # the declared dual path really walks the disorder line
        seq = walk_path(dual(res.new_map), res.disorder_path)
        assert len(seq) == len(res.disorder_path.edges) + 1
        assert set(res.disorder_path.edges) == set(res.disorder_line)


def test_dobrushin_path_validated_matches_dual_walk(rng):
    """The fan path is validated without building the dual; the dual walk
    is the reference, over every face and split."""
    paths = loops = 0
    for name in ("grid_2_8", "wheel_4"):
        m = builtin(name)
        j = base_couplings(random_j(rng, m.edge_count))
        for face in range(m.face_count):
            length = len(m.faces[face])
            for a in range(length - 1):
                for b in range(a + 1, length):
                    res = reduce_dobrushin(m, j, DefectSet.empty(), face, (a, b))
                    if res.disorder_path is None:
                        continue
                    try:
                        walk_path(dual(res.new_map), res.disorder_path)
                        walks = True
                    except BozonError:
                        walks = False
                    assert res.path_validated == walks, (name, face, a, b)
                    paths += 1
                    loops += not walks
    assert paths and loops  # both outcomes occur


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
