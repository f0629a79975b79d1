"""The derived bipartite dimer graph G_Q, Kasteleyn determinants, and the
matching-to-polygon-pair grouping, checked against brute matching search."""

from __future__ import annotations

import math

import pytest

import bozon.dimer
from bozon import (
    DefectSet,
    base_couplings,
    brute_force_dimer_Z,
    build_gq,
    builtin,
    calibration_sign,
    dimer_partition_function,
    dimer_Z_det,
    kasteleyn_matrix,
    kasteleyn_orientation,
    matching_count_report,
    matching_pair_histogram,
    graph_context,
    modify_couplings,
    nu_from_couplings,
    polygon_to_dimer_count,
    structure_check,
    theorem_reports,
    verify_bipartite_dimer_identity,
    verify_theorem_main,
)
from bozon.dimer import DUAL_PARALLEL, LEG, PRIMAL_PARALLEL, all_ones
from bozon.errors import InconsistentPair, TooLarge

from conftest import (
    modified_values,
    oracle_even_subgraphs,
    oracle_matchings,
    oracle_partition,
    random_j,
)


@pytest.fixture(scope="module")
def gqs(maps):
    return {name: build_gq(maps[name]) for name in maps}


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


def gq_oracle_matchings(gq):
    ends = [
        tuple(gq.map.dart_vertex[d] for d in gq.map.edge_darts[k])
        for k in range(gq.edge_count)
    ]
    return oracle_matchings(gq.vertex_count, ends)


def oracle_pair_histogram(gq):
    """Oracle matchings grouped by induced pair, counting per primal edge
    how many of its parallel edges of each kind a matching uses."""
    hist = {}
    for matching in gq_oracle_matchings(gq):
        uses = {PRIMAL_PARALLEL: [0] * gq.primal.edge_count,
                DUAL_PARALLEL: [0] * gq.primal.edge_count}
        for k in matching:
            if gq.edge_kind[k] != LEG:
                uses[gq.edge_kind[k]][gq.edge_primal_edge[k]] += 1
        key = tuple(
            sum(1 << e for e, n in enumerate(uses[kind]) if n == 1)
            for kind in (PRIMAL_PARALLEL, DUAL_PARALLEL)
        )
        hist[key] = hist.get(key, 0) + 1
    return hist


def test_matching_pair_histogram_matches_oracle(gqs):
    for name in ("k3", "c4", "grid_2_3"):
        gq = gqs[name]
        assert matching_pair_histogram(gq) == oracle_pair_histogram(gq), name


def test_matching_pair_histogram_cap(gqs):
    with pytest.raises(TooLarge):
        matching_pair_histogram(gqs["grid_3_3"])  # 48 vertices > default cap


@pytest.mark.parametrize(
    "name, matchings, keys",
    [("grid_3_4", 1_249_330, 4_616), ("wheel_8", 434_657, 2_208)],
)
def test_matching_pair_histogram_past_old_cap(name, matchings, keys):
    ctx = graph_context(builtin(name))
    hist = matching_pair_histogram(ctx.gq, max_vertices=68)
    assert (sum(hist.values()), len(hist)) == (matchings, keys)
    det = dimer_Z_det(ctx.gq, all_ones(ctx.gq), ctx.orientation)
    assert matchings == round(abs(det))


def test_sweep_equals_determinant(maps, rng):
    """Plain and modified weights on every builtin map whose G_Q has at
    most 48 vertices.  A modified sum can cancel, so the bound is relative
    to the sum of the matchings' absolute weights, which is |Z| itself
    when no weight is negative."""
    for name, m in maps.items():
        ctx = graph_context(m)
        j = base_couplings(random_j(rng, m.edge_count))
        d = DefectSet.from_edge_sets({0}, {1})
        for jj in (j, modify_couplings(j, d)):
            w = nu_from_couplings(ctx.gq, jj)
            sweep = brute_force_dimer_Z(ctx.gq, w, max_vertices=48)
            det = ctx.sign * dimer_Z_det(ctx.gq, w, ctx.orientation)
            scale = brute_force_dimer_Z(
                ctx.gq, [abs(x) for x in w], max_vertices=48
            )
            assert abs(sweep - det) <= 1e-12 * scale, name


def test_sweep_skips_zero_weights(gqs, rng):
    for name in ("k3", "c4"):
        gq = gqs[name]
        w = [rng.uniform(0.1, 2.0) for _ in range(gq.edge_count)]
        for k in range(0, gq.edge_count, 3):
            w[k] = 0.0
        want = sum(
            math.prod(w[k] for k in matching)
            for matching in gq_oracle_matchings(gq)
        )
        assert brute_force_dimer_Z(gq, w) == pytest.approx(want, rel=1e-12), name


def test_brute_force_dimer_Z_matches_oracle(maps, gqs, rng):
    gq = gqs["k3"]
    j = base_couplings(random_j(rng, 3))
    w = nu_from_couplings(gq, j)
    want = sum(
        math.prod(w[k] for k in matching) for matching in gq_oracle_matchings(gq)
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


def test_determinant_ratio_equals_brute_ratio(maps, gqs, rng):
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
    assert route == "brute"  # 28 quad vertices are within the brute cap
    det, route = dimer_partition_function(ctx, w, "determinant")
    assert route == "determinant"
    assert brute == pytest.approx(det, rel=1e-9)


def test_kasteleyn_matrix_shape(gqs):
    gq = gqs["k3"]
    K = kasteleyn_matrix(gq, all_ones(gq), kasteleyn_orientation(gq))
    assert K.shape == (6, 6)


def test_histogram_keys_are_disjoint_polygon_pairs(maps, duals, gqs):
    for name in ("k3", "c4", "grid_2_3"):
        primal = set(oracle_even_subgraphs(maps[name]))
        dual = set(oracle_even_subgraphs(duals[name]))
        for pmask, dmask in matching_pair_histogram(gqs[name]):
            assert pmask in primal and dmask in dual
            assert pmask & dmask == 0


def test_polygon_to_dimer_count_matches_histogram(maps, duals, gqs):
    for name in ("k3", "c4"):
        gq = gqs[name]
        hist = matching_pair_histogram(gq)
        assert sum(hist.values()) == len(gq_oracle_matchings(gq))
        from bozon.polygon import PolygonConfig, PolygonPair

        for (pmask, dmask), count in hist.items():
            p_edges = [e for e in range(gq.primal.edge_count) if pmask >> e & 1]
            d_edges = [e for e in range(gq.primal.edge_count) if dmask >> e & 1]
            pair = PolygonPair(
                primal=PolygonConfig.from_edges(gq.primal, "primal", p_edges),
                dual=PolygonConfig.from_edges(duals[name], "dual", d_edges),
            )
            assert polygon_to_dimer_count(gq, pair) == count


def test_polygon_to_dimer_count_rejects_odd_subgraph(gqs):
    from bozon.polygon import PolygonConfig, PolygonPair

    # a lone edge is not a polygon; its leg parities contradict each other
    pair = PolygonPair(
        primal=PolygonConfig("primal", (0,), 1),
        dual=PolygonConfig("dual", (), 0),
    )
    with pytest.raises(InconsistentPair):
        polygon_to_dimer_count(gqs["c4"], pair)


def test_matching_count_report_passes(maps, duals):
    for name in ("k3", "c4", "grid_2_3"):
        rep = matching_count_report(maps[name], duals[name])
        assert rep.passed
        assert rep.extra["pairs"] > 0


@pytest.mark.parametrize(
    "name, pairs, matchings",
    [
        ("k3", 5, 20),
        ("c4", 9, 49),
        ("grid_2_3", 41, 530),
        ("wheel_4", 48, 769),
        ("wheel_5", 124, 3653),
        ("grid_3_3", 434, 25416),
    ],
)
def test_matching_count_report_exact_counts(maps, duals, name, pairs, matchings):
    rep = matching_count_report(maps[name], duals[name])
    assert rep.passed
    assert (rep.extra["pairs"], rep.extra["matchings"]) == (pairs, matchings)


def test_bipartite_dimer_identity(maps, rng):
    for name in ("k3", "c4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        d = DefectSet.from_edge_sets({0}, set())
        rep = verify_bipartite_dimer_identity(m, j, d)
        assert rep.passed


def test_theorem_reports_match_oracle(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    gamma, gamma_star = {0}, {2}
    d = DefectSet.from_edge_sets(gamma, gamma_star)
    reports = theorem_reports(m, j, d)
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


def test_theorem_main_fails_a_flipped_dimer_ratio(maps, rng, monkeypatch):
    """The sign is predicted, not fitted: negating Z_dimer(nu(Jbar)), the
    second dimer sum theorem_reports takes, must fail theorem_main."""
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {2})
    assert theorem_reports(m, j, d)[-1].passed
    real = bozon.dimer.dimer_partition_function
    calls = []

    def flipped(*args, **kwargs):
        z, route = real(*args, **kwargs)
        calls.append(z)
        return (-z if len(calls) == 2 else z), route

    monkeypatch.setattr(bozon.dimer, "dimer_partition_function", flipped)
    main = theorem_reports(m, j, d)[-1]
    assert len(calls) == 2
    assert main.name == "theorem_main"
    assert not main.passed
    assert main.sign == 1


def test_verify_theorem_main_returns_last_report(maps, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, m.edge_count))
    rep = verify_theorem_main(m, j, DefectSet.empty())
    assert rep.name == "theorem_main"
    assert rep.passed
