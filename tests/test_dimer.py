"""The derived bipartite dimer graph G_Q, Kasteleyn determinants, and the
matching-to-polygon-pair grouping, checked against brute matching search."""

from __future__ import annotations

import math

import pytest

from bozon import (
    DefectSet,
    base_couplings,
    brute_force_dimer_Z,
    build_gq,
    calibration_sign,
    dimer_partition_function,
    dimer_Z_det,
    enumerate_matchings,
    kasteleyn_matrix,
    kasteleyn_orientation,
    matching_count_report,
    matching_pair_histogram,
    graph_context,
    modify_couplings,
    nu_from_couplings,
    pair_of_matching,
    polygon_to_dimer_count,
    structure_check,
    theorem_reports,
    verify_bipartite_dimer_identity,
    verify_theorem_main,
)
from bozon.dimer import LEG, PRIMAL_PARALLEL, all_ones
from bozon.errors import TooLarge

from conftest import modified_values, oracle_matchings, oracle_partition, random_j


@pytest.fixture(scope="module")
def gqs(maps, duals):
    return {name: build_gq(maps[name], duals[name]) for name in maps}


def test_gq_counts(maps, gqs):
    for name, m in maps.items():
        gq = gqs[name]
        assert gq.vertex_count == 4 * m.edge_count
        assert gq.edge_count == 6 * m.edge_count
        assert len(gq.legs()) == 2 * m.edge_count


def test_gq_structure_invariants(gqs):
    for gq in gqs.values():
        s = structure_check(gq)
        assert s["vertices"] == s["vertices_expected"]
        assert s["edges"] == s["edges_expected"]
        assert s["legs"] == s["legs_expected"]
        assert s["bipartite_balanced"]
        assert s["legs_perfect_matching"]
        assert s["quads_well_formed"]
        assert s["euler_ok"]


def test_gq_is_bipartite(gqs):
    for gq in gqs.values():
        for k in range(gq.edge_count):
            d1, d2 = gq.map.edge_darts[k]
            a, b = gq.map.dart_vertex[d1], gq.map.dart_vertex[d2]
            assert gq.color[a] != gq.color[b]


def test_nu_weights(maps, gqs, rng):
    m = maps["c4"]
    gq = gqs["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    w = nu_from_couplings(gq, j)
    for k in range(gq.edge_count):
        e = gq.edge_primal_edge[k]
        if gq.edge_kind[k] == LEG:
            assert w[k] == 1.0 and e == -1
        elif gq.edge_kind[k] == PRIMAL_PARALLEL:
            assert w[k] == pytest.approx(math.tanh(2 * j.real[e]))
        else:
            assert w[k] == pytest.approx(1 / math.cosh(2 * j.real[e]))


def test_modified_weights_flip_signs(maps, gqs, rng):
    m = maps["c4"]
    gq = gqs["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {2})
    w = nu_from_couplings(gq, modify_couplings(j, d))
    base = nu_from_couplings(gq, j)
    for k in range(gq.edge_count):
        e = gq.edge_primal_edge[k]
        if e == 0 and gq.edge_kind[k] == "dual_parallel":
            assert w[k] == pytest.approx(-base[k])  # order edge flips sech
        elif e == 2 and gq.edge_kind[k] == PRIMAL_PARALLEL:
            assert w[k] == pytest.approx(-base[k])  # disorder edge flips tanh
        else:
            assert w[k] == pytest.approx(base[k])


def test_enumerate_matchings_matches_oracle(maps, gqs):
    for name in ("k3", "c4"):
        gq = gqs[name]
        ends = [
            tuple(gq.map.dart_vertex[d] for d in gq.map.edge_darts[k])
            for k in range(gq.edge_count)
        ]
        got = sorted(enumerate_matchings(gq))
        want = sorted(oracle_matchings(gq.vertex_count, ends))
        assert got == want


def test_enumerate_matchings_cap(gqs):
    with pytest.raises(TooLarge):
        list(enumerate_matchings(gqs["grid_3_3"]))  # 48 vertices > default cap


def test_brute_force_dimer_Z_matches_oracle(maps, gqs, rng):
    gq = gqs["k3"]
    j = base_couplings(random_j(rng, 3))
    w = nu_from_couplings(gq, j)
    ends = [
        tuple(gq.map.dart_vertex[d] for d in gq.map.edge_darts[k])
        for k in range(gq.edge_count)
    ]
    want = sum(
        math.prod(w[k] for k in matching)
        for matching in oracle_matchings(gq.vertex_count, ends)
    )
    assert brute_force_dimer_Z(gq, w) == pytest.approx(want, rel=1e-12)


def test_orientation_is_clockwise_odd(gqs):
    for name in ("k3", "c4", "grid_2_3", "wheel_4"):
        gq = gqs[name]
        m = gq.map
        o = kasteleyn_orientation(gq)
        for f in range(m.face_count):
            if f == o.root_face:
                continue
            # an edge is clockwise for a face when directed against the
            # counterclockwise boundary walk
            parity = sum(
                1 for t in m.faces[f] if o.direction[m.dart_edge[t]] == m.alpha[t]
            )
            assert parity % 2 == 1


def test_determinant_equals_matching_sum(maps, gqs, rng):
    for name in ("k3", "c4", "grid_2_3", "wheel_4"):
        m = maps[name]
        gq = gqs[name]
        j = base_couplings(random_j(rng, m.edge_count))
        w = nu_from_couplings(gq, j)
        o = kasteleyn_orientation(gq)
        det = dimer_Z_det(gq, w, o)
        brute = brute_force_dimer_Z(gq, w)
        assert abs(det) == pytest.approx(brute, rel=1e-9)
        s = calibration_sign(gq, o)
        assert s * det == pytest.approx(brute, rel=1e-9)


def test_determinant_ratio_equals_brute_ratio(maps, duals, gqs, rng):
    m = maps["c4"]
    gq = gqs["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {2})
    w_plain = nu_from_couplings(gq, j)
    w_mod = nu_from_couplings(gq, modify_couplings(j, d))
    o = kasteleyn_orientation(gq)
    det_ratio = dimer_Z_det(gq, w_mod, o) / dimer_Z_det(gq, w_plain, o)
    brute_ratio = brute_force_dimer_Z(gq, w_mod) / brute_force_dimer_Z(gq, w_plain)
    assert det_ratio == pytest.approx(brute_ratio, rel=1e-9)


def test_dimer_partition_function_routes_agree(maps, rng):
    m = maps["grid_2_3"]
    ctx = graph_context(m)
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({1}, {4})
    w = nu_from_couplings(ctx.gq, modify_couplings(j, d))
    brute, route = dimer_partition_function(ctx, w)
    assert route == "brute"  # 24 quad vertices are within the brute cap
    det, route = dimer_partition_function(ctx, w, "determinant")
    assert route == "determinant"
    assert brute == pytest.approx(det, rel=1e-9)


def test_kasteleyn_matrix_shape(gqs):
    gq = gqs["k3"]
    K = kasteleyn_matrix(gq, all_ones(gq), kasteleyn_orientation(gq))
    assert K.shape == (6, 6)


def test_pair_of_matching_all_matchings(maps, duals, gqs):
    gq = gqs["c4"]
    for matching in enumerate_matchings(gq):
        pair = pair_of_matching(gq, matching, duals["c4"])
        assert pair.primal.mask & pair.dual.mask == 0


def test_polygon_to_dimer_count_matches_histogram(maps, duals, gqs):
    for name in ("k3", "c4"):
        gq = gqs[name]
        hist = matching_pair_histogram(gq, duals[name])
        assert sum(hist.values()) == len(list(enumerate_matchings(gq)))
        from bozon.polygon import PolygonConfig, PolygonPair

        for (pmask, dmask), count in hist.items():
            p_edges = [e for e in range(gq.primal.edge_count) if pmask >> e & 1]
            d_edges = [e for e in range(gq.primal.edge_count) if dmask >> e & 1]
            pair = PolygonPair(
                primal=PolygonConfig.from_edges(gq.primal, "primal", p_edges),
                dual=PolygonConfig.from_edges(duals[name].map, "dual", d_edges),
            )
            assert polygon_to_dimer_count(gq, pair) == count


def test_matching_count_report_passes(maps, duals):
    for name in ("k3", "c4", "grid_2_3"):
        rep = matching_count_report(maps[name], duals[name])
        assert rep.passed
        assert rep.extra["pairs"] > 0


def test_bipartite_dimer_identity(maps, duals, rng):
    for name in ("k3", "c4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        d = DefectSet.from_edge_sets({0}, set())
        rep = verify_bipartite_dimer_identity(m, duals[name], j, d)
        assert rep.passed


def test_theorem_reports_match_oracle(maps, duals, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    gamma, gamma_star = {0}, {2}
    d = DefectSet.from_edge_sets(gamma, gamma_star)
    reports = theorem_reports(m, duals["c4"], j, d)
    assert [r.name for r in reports] == [
        "squared_Z_vs_dimer",
        "squared_Zbar_vs_dimer",
        "theorem_main",
    ]
    assert all(r.passed for r in reports)
    main = reports[-1]
    z = oracle_partition(m, list(j.real))
    zbar = oracle_partition(m, modified_values(j, gamma, gamma_star))
    want = (zbar / z) ** 2
    assert main.lhs == pytest.approx(want, rel=1e-10)
    assert main.sign in (-1, 1)


def test_verify_theorem_main_returns_last_report(maps, duals, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, m.edge_count))
    rep = verify_theorem_main(m, duals["k3"], j, DefectSet.empty())
    assert rep.name == "theorem_main"
    assert rep.passed
