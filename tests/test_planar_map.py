"""Rotation systems, duals, and defect-path validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bozon import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    build_map,
    builtin,
    dual,
    grid,
    quad_graph,
    shortest_path,
    validate_defects,
    vertex_to_dual_face,
    walk_path,
    wheel,
)
from bozon.errors import (
    Disconnected,
    EndpointMismatch,
    EulerViolation,
    MalformedRotation,
    PathHasLoop,
    PathsIntersect,
    SelfLoopRejected,
    UnknownGraph,
)

K4_EDGES = [(2 * e, 2 * e + 1) for e in range(6)]
K4_PLANAR = [[0, 2, 4], [1, 8, 6], [3, 7, 10], [5, 11, 9]]
K4_TORUS = [[0, 2, 4], [1, 6, 8], [3, 7, 10], [5, 9, 11]]


def test_build_map_counts():
    m = build_map(K4_PLANAR, K4_EDGES)
    assert (m.vertex_count, m.edge_count, m.face_count) == (4, 6, 4)
    assert m.dart_count == 12


def test_faces_partition_darts(maps):
    for m in maps.values():
        seen = sorted(d for f in m.faces for d in f)
        assert seen == list(range(m.dart_count))


def test_rotation_orbits_are_vertices(maps):
    for m in maps.values():
        for v in range(m.vertex_count):
            for d in m.vertex_darts[v]:
                assert m.dart_vertex[d] == v


def test_alpha_is_edge_involution(maps):
    for m in maps.values():
        for d in range(m.dart_count):
            assert m.alpha[m.alpha[d]] == d
            assert m.dart_edge[d] == m.dart_edge[m.alpha[d]]


def test_euler_formula(maps):
    for m in maps.values():
        assert m.vertex_count - m.edge_count + m.face_count == 2


def test_equal_inputs_give_one_interned_map():
    m = build_map(K4_PLANAR, K4_EDGES)
    again = build_map([tuple(r) for r in K4_PLANAR], [list(p) for p in K4_EDGES])
    assert again is m
    assert dual(m) is m.dual
    turned = build_map([r[1:] + r[:1] for r in K4_PLANAR], K4_EDGES)
    assert turned is not m and turned.sigma == m.sigma


def test_an_equal_copy_hashes_like_the_interned_map(maps):
    """The hash is worked out once per map from its rotation system; a
    map equal field by field but not interned finds the same keys."""
    for m in maps.values():
        copy = CombinatorialMap(**{f: getattr(m, f) for f in m._fields})
        assert copy is not m and copy == m
        assert hash(copy) == hash(m)
        assert {m: "interned"}[copy] == "interned"


def test_adjacency_is_built_once_and_read_only(maps):
    for m in maps.values():
        adj = m.adjacency
        assert adj is m.adjacency
        assert isinstance(adj, tuple) and all(isinstance(a, tuple) for a in adj)
        assert adj == tuple(
            tuple((m.dart_edge[d], m.dart_vertex[m.alpha[d]]) for d in rot)
            for rot in m.vertex_darts
        )


def test_interning_keeps_rejecting_non_int_darts():
    build_map(K4_PLANAR, K4_EDGES)
    with pytest.raises(MalformedRotation):
        build_map([[float(d) for d in r] for r in K4_PLANAR], K4_EDGES)


def test_dart_out_of_range_rejected():
    with pytest.raises(MalformedRotation):
        build_map([[0, 99], [1]], [(0, 1)])


def test_duplicate_dart_rejected():
    with pytest.raises(MalformedRotation):
        build_map([[0, 0], [1]], [(0, 1)])


def test_missing_dart_rejected():
    with pytest.raises(MalformedRotation):
        build_map([[0], [1]], [(0, 1), (2, 3)])


def test_isolated_vertex_rejected():
    with pytest.raises(Disconnected):
        build_map([[0], [1], []], [(0, 1)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopRejected):
        build_map([[0, 1]], [(0, 1)])


def test_nonplanar_rotation_rejected():
    with pytest.raises(EulerViolation):
        build_map(K4_TORUS, K4_EDGES)


def test_disconnected_rejected():
    # two disjoint triangles
    rot = [[0, 5], [2, 1], [4, 3], [6, 11], [8, 7], [10, 9]]
    edges = [(2 * e, 2 * e + 1) for e in range(6)]
    with pytest.raises(Disconnected):
        build_map(rot, edges)


def test_unknown_builtin():
    with pytest.raises(UnknownGraph):
        builtin("hypercube")
    with pytest.raises(UnknownGraph):
        grid(1, 1)
    with pytest.raises(UnknownGraph):
        wheel(2)


@settings(derandomize=True, max_examples=25)
@given(st.integers(2, 4), st.integers(2, 4))
def test_grid_counts(rows, cols):
    m = grid(rows, cols)
    assert m.vertex_count == rows * cols
    assert m.edge_count == rows * (cols - 1) + cols * (rows - 1)
    assert m.vertex_count - m.edge_count + m.face_count == 2


@settings(derandomize=True, max_examples=15)
@given(st.integers(3, 8))
def test_wheel_counts(k):
    m = wheel(k)
    assert m.vertex_count == k + 1
    assert m.edge_count == 2 * k
    assert m.face_count == k + 1


# ------------------------------------------------------------- duality


def test_dual_swaps_vertex_and_face_counts(maps, duals):
    for name, m in maps.items():
        dm = duals[name]
        assert dm.vertex_count == m.face_count
        assert dm.face_count == m.vertex_count
        assert dm.edge_count == m.edge_count


def test_dual_edge_bijection_is_identity(maps):
    for m in maps.values():
        assert dual(m).edge_darts == m.edge_darts
        assert m.dual is m.dual


def test_dual_involution_counts(maps, duals):
    for name, m in maps.items():
        dd = dual(duals[name])
        assert dd.vertex_count == m.vertex_count
        assert dd.edge_count == m.edge_count
        assert dd.face_count == m.face_count
        degrees = sorted(len(r) for r in m.vertex_darts)
        assert sorted(len(r) for r in dd.vertex_darts) == degrees
        sizes = sorted(len(f) for f in m.faces)
        assert sorted(len(f) for f in dd.faces) == sizes


def test_dual_vertex_degree_is_face_size(maps, duals):
    for name, m in maps.items():
        dm = duals[name]
        for f in range(m.face_count):
            assert len(dm.vertex_darts[f]) == len(m.faces[f])


def test_vertex_to_dual_face_is_injective(maps):
    for name, m in maps.items():
        mapping = vertex_to_dual_face(m)
        assert len(set(mapping)) == m.vertex_count


def test_quad_graph_has_two_edges_per_primal_edge(maps):
    for m in maps.values():
        q = quad_graph(m)
        assert q.edge_count == 2 * m.edge_count
        for v, f, d in q.corners:
            assert m.dart_vertex[d] == v
            assert m.dart_face[d] == f


# ---------------------------------------------------------------- paths


def test_walk_path_valid(maps):
    m = maps["grid_2_3"]
    for e in range(m.edge_count):
        u, v = m.edge_endpoints(e)
        assert walk_path(m, PathSpec((u, v), (e,))) == (u, v)


def test_walk_path_bad_chain(maps):
    m = maps["c4"]
    with pytest.raises(EndpointMismatch):
        walk_path(m, PathSpec((0, 2), (0, 2)))  # edge 2 is (2,3), not at 1


def test_walk_path_wrong_endpoint(maps):
    m = maps["c4"]
    with pytest.raises(EndpointMismatch):
        walk_path(m, PathSpec((0, 3), (0,)))


def test_walk_path_empty(maps):
    with pytest.raises(EndpointMismatch):
        walk_path(maps["c4"], PathSpec((0, 0), ()))


def test_walk_path_loop_rejected(maps):
    m = maps["c4"]
    with pytest.raises(PathHasLoop):
        walk_path(m, PathSpec((0, 0), (0, 1, 2, 3)))


def test_shortest_path(maps):
    m = maps["grid_3_3"]
    spec = shortest_path(m, 0, 8)
    assert spec is not None
    seq = walk_path(m, spec)
    assert (seq[0], seq[-1]) == (0, 8)
    assert len(spec.edges) == 4  # grid distance between opposite corners
    assert shortest_path(m, 0, 0) is None


def test_shortest_path_respects_forbidden_edges(maps):
    m = maps["k3"]
    direct = shortest_path(m, 0, 1)
    assert direct is not None and len(direct.edges) == 1
    detour = shortest_path(m, 0, 1, forbidden_edges=direct.edges)
    assert detour is not None and len(detour.edges) == 2


# -------------------------------------------------------------- defects


def test_validate_defects_basic(maps):
    m = maps["grid_3_3"]
    d = validate_defects(m, (PathSpec((3, 4), (2,)),), ())
    assert d.gamma == frozenset({2})
    assert d.gamma_star == frozenset()
    assert d.order_paths == (PathSpec((3, 4), (2,)),)


def test_validate_defects_disorder_on_dual(maps, duals):
    m = maps["c4"]
    dm = duals["c4"]
    # dual of C4 has two vertices joined by four parallel edges
    p = PathSpec(dm.edge_endpoints(0), (0,))
    d = validate_defects(m, (), (p,))
    assert d.gamma_star == frozenset({0})


def test_order_paths_must_be_vertex_disjoint(maps):
    m = maps["c4"]
    p1 = PathSpec((0, 1), (0,))
    p2 = PathSpec((1, 2), (1,))
    with pytest.raises(PathsIntersect):
        validate_defects(m, (p1, p2), ())


def test_gamma_and_gamma_star_must_not_share_edges(maps, duals):
    m = maps["c4"]
    dm = duals["c4"]
    order = PathSpec((0, 1), (0,))
    disorder = PathSpec(dm.edge_endpoints(0), (0,))
    with pytest.raises(PathsIntersect):
        validate_defects(m, (order,), (disorder,))


def test_defect_set_from_edge_sets_rejects_overlap():
    with pytest.raises(Exception):
        DefectSet.from_edge_sets({0, 1}, {1})


def test_empty_defect_set():
    d = DefectSet.empty()
    assert not d.gamma and not d.gamma_star
    assert d.order_paths == () and d.disorder_paths == ()
