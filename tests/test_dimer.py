"""The derived bipartite dimer graph G_Q, Kasteleyn determinants, and the
matching-to-polygon-pair grouping, checked against brute matching search."""

from __future__ import annotations

import math

import pytest

import bozon.dimer
import bozon.instances
from bozon import (
    DefectSet,
    Instance,
    base_couplings,
    brute_force_dimer_Z,
    build_gq,
    build_map,
    builtin,
    calibration_sign,
    dimer_partition_function,
    dimer_Z_det,
    kasteleyn_orientation,
    matching_count_report,
    matching_pair_histogram,
    graph_context,
    modify_couplings,
    instance_reports,
    nu_from_couplings,
    polygon_to_dimer_count,
    uniform_couplings,
)
from bozon.dimer import (
    DUAL_PARALLEL,
    LEG,
    PRIMAL_PARALLEL,
    all_ones,
)
from bozon.errors import BridgeUnsupported, InconsistentPair, MalformedRotation, TooLarge
from bozon.polygon import polygon_weights

from conftest import (
    gq_test_maps,
    kasteleyn_matrix,
    modified_values,
    oracle_even_subgraphs,
    oracle_matchings,
    oracle_partition,
    random_j,
    reference_gq,
    reference_matching_sweep,
    structure_check,
    sweep_outcome,
    sweep_test_maps,
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


@pytest.mark.parametrize("name", sorted(gq_test_maps()))
def test_gq_closed_forms_equal_the_overlay_construction(name):
    """build_gq's closed forms against G_Q read off a validated overlay
    map and its dual, with colours from a 2-colouring and legs from a scan:
    the same rotation system, colours, legs and quads, field by field."""
    m = gq_test_maps()[name]
    gq, ref = build_gq(m), reference_gq(m)
    assert gq.map.vertex_darts == ref.map.vertex_darts
    assert gq.map == ref.map
    assert gq.color == ref.color
    assert gq.vertex_legs == ref.vertex_legs
    assert gq.quads == ref.quads
    assert gq == ref


def test_gq_of_an_edgeless_map_is_a_typed_error():
    m = build_map([[]], [])
    with pytest.raises(MalformedRotation, match="edgeless"):
        build_gq(m)


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


def test_sech_weights_past_cosh_overflow(maps, gqs):
    """cosh(2J) overflows past 2J = 710.5, and sech(2J) = 2e^{-2J} there:
    subnormal at 2J = 711 and 0 at 2J = 800, with the order edge's sign.
    Below that the weight is 1/cosh(2J) as before."""
    m, gq = maps["c4"], gqs["c4"]
    d = DefectSet.from_edge_sets({0}, set())
    for jv, want in ((355.5, 2 * math.exp(-711.0)), (400.0, 0.0), (300.0, 1 / math.cosh(600.0))):
        w = nu_from_couplings(gq, modify_couplings(uniform_couplings(m.edge_count, jv), d))
        for k in range(gq.edge_count):
            if gq.edge_kind[k] == "dual_parallel":
                sign = -1 if gq.edge_primal_edge[k] == 0 else 1
                assert w[k] == sign * want, (jv, k)
    assert 0.0 < 2 * math.exp(-711.0) < 2.3e-308


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


def test_matching_pair_histogram_cap():
    gq = graph_context(builtin("grid_4_4"))  # 684,973 peak states
    with pytest.raises(TooLarge, match="matching sweep holds"):
        matching_pair_histogram(gq)


@pytest.mark.parametrize(
    "name, matchings, keys",
    [("grid_3_4", 1_249_330, 4_616), ("wheel_8", 434_657, 2_208)],
)
def test_matching_pair_histogram_past_old_cap(name, matchings, keys):
    gq = graph_context(builtin(name))
    hist = matching_pair_histogram(gq)
    assert (sum(hist.values()), len(hist)) == (matchings, keys)
    det = dimer_Z_det(gq, all_ones(gq), gq.orientation)
    assert matchings == round(abs(det))


def test_sweep_equals_determinant(maps, rng):
    """Plain and modified weights on every builtin map whose G_Q has at
    most 48 vertices.  A modified sum can cancel, so the bound is relative
    to the sum of the matchings' absolute weights, which is |Z| itself
    when no weight is negative."""
    for name, m in maps.items():
        gq = graph_context(m)
        j = base_couplings(random_j(rng, m.edge_count))
        d = DefectSet.from_edge_sets({0}, {1})
        for jj in (j, modify_couplings(j, d)):
            w = nu_from_couplings(gq, jj)
            sweep = brute_force_dimer_Z(gq, w)
            det = gq.sign * dimer_Z_det(gq, w, gq.orientation)
            scale = brute_force_dimer_Z(gq, [abs(x) for x in w])
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
    gq = graph_context(m)
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({1}, {4})
    w = nu_from_couplings(gq, modify_couplings(j, d))
    brute, route = dimer_partition_function(gq, w)
    assert route == "brute"  # 28 quad vertices are within the brute cap
    det, route = dimer_partition_function(gq, w, "determinant")
    assert route == "determinant"
    assert brute == pytest.approx(det, rel=1e-9)


def test_kasteleyn_matrix_shape(gqs):
    gq = gqs["k3"]
    K = kasteleyn_matrix(gq, all_ones(gq), kasteleyn_orientation(gq))
    assert len(K) == 6
    assert all(len(row) == 6 for row in K)


def test_histogram_keys_are_disjoint_polygon_pairs(maps, duals, gqs):
    for name in ("k3", "c4", "grid_2_3"):
        primal = set(oracle_even_subgraphs(maps[name]))
        dual = set(oracle_even_subgraphs(duals[name]))
        for pmask, dmask in matching_pair_histogram(gqs[name]):
            assert pmask in primal and dmask in dual
            assert pmask & dmask == 0


def test_polygon_to_dimer_count_matches_histogram(gqs):
    for name in ("k3", "c4"):
        gq = gqs[name]
        hist = matching_pair_histogram(gq)
        assert sum(hist.values()) == len(gq_oracle_matchings(gq))
        for (pmask, dmask), count in hist.items():
            assert polygon_to_dimer_count(gq, pmask, dmask) == count


def test_polygon_to_dimer_count_rejects_odd_subgraph(gqs):
    # a lone edge is not a polygon; its leg parities contradict each other
    with pytest.raises(InconsistentPair):
        polygon_to_dimer_count(gqs["c4"], 1, 0)


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
        ("grid_3_4", 4616, 1249330),
        ("wheel_8", 2208, 434657),
    ],
)
def test_matching_count_report_exact_counts(name, pairs, matchings):
    rep = matching_count_report(builtin(name))
    assert rep.passed
    assert (rep.extra["pairs"], rep.extra["matchings"]) == (pairs, matchings)


def _drop_a_key(hist):
    del hist[max(hist)]


def _shift_a_count(hist):
    hist[max(hist)] += 1


def _add_an_odd_key(hist):
    hist[1, 0] = 2  # edge 0 alone: odd degree at both its ends


@pytest.mark.parametrize("corrupt", [_drop_a_key, _shift_a_count, _add_an_odd_key])
def test_matching_count_report_counts_one_mismatch(monkeypatch, gqs, corrupt):
    """Each corruption of the matching sweep's histogram is exactly one
    mismatch; the pair total still comes from the pair sweep."""
    true_hist = bozon.dimer.matching_pair_histogram

    def corrupted(gq):
        hist = true_hist(gq)
        corrupt(hist)
        return hist

    monkeypatch.setattr(bozon.dimer, "matching_pair_histogram", corrupted)
    m = gqs["grid_2_3"].primal
    rep = matching_count_report(m, gq=gqs["grid_2_3"])
    assert not rep.passed
    assert rep.lhs == 1.0
    assert rep.extra["pairs"] == 41


def test_bipartite_dimer_identity(maps, rng):
    for name in ("k3", "c4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        d = DefectSet.from_edge_sets({0}, set())
        (rep,) = instance_reports("bipartitedimer", Instance(m, j, d))
        assert rep.passed


def test_theorem1_reports_match_oracle(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    gamma, gamma_star = {0}, {2}
    d = DefectSet.from_edge_sets(gamma, gamma_star)
    reports = instance_reports("theorem1", Instance(m, j, d))
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
    assert main.sign == 1


def test_theorem_main_fails_a_flipped_dimer_ratio(maps, rng, monkeypatch):
    """The sign is predicted, not fitted: negating Z_dimer(nu(Jbar)), the
    second dimer sum the theorem1 edges take, must fail theorem_main."""
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {2})
    assert instance_reports("theorem1", Instance(m, j, d))[-1].passed
    real = bozon.instances.dimer_partition_function
    calls = []

    def flipped(*args, **kwargs):
        z, route = real(*args, **kwargs)
        calls.append(z)
        return (-z if len(calls) == 2 else z), route

    monkeypatch.setattr(bozon.instances, "dimer_partition_function", flipped)
    main = instance_reports("theorem1", Instance(m, j, d))[-1]
    assert len(calls) == 2
    assert main.name == "theorem_main"
    assert not main.passed
    assert main.sign == 1


ROUTE_MAPS = ("k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5")
ONE_DEFECT = (DefectSet.from_edge_sets({0}, ()), DefectSet.from_edge_sets((), {0}))


def _reference_ratio(gq, j, d):
    """Instance.dimer_ratio's value from two reference walks, the
    denominator first."""
    zeros = (0,) * gq.edge_count
    z = reference_matching_sweep(gq, nu_from_couplings(gq, j), zeros).get(0, 0.0)
    jbar = modify_couplings(j, d)
    return reference_matching_sweep(gq, nu_from_couplings(gq, jbar), zeros).get(0, 0.0) / z


@pytest.mark.parametrize("name", ROUTE_MAPS)
def test_brute_route_is_the_reference_walk_bit_for_bit(name, rng, monkeypatch):
    """dimer_partition_function's auto route sums each weight assignment
    by the matching sweep, bit for bit the reference walk's sum, and
    Instance.dimer_ratio divides two such sums taken on that route.
    DIMER_CAP is raised so that every map takes the brute route."""
    monkeypatch.setattr(bozon.dimer, "DIMER_CAP", 48)
    m = builtin(name)
    gq = graph_context(m)
    j = base_couplings(random_j(rng, m.edge_count))
    zeros = (0,) * gq.edge_count
    for w in _matching_weights(m, gq, rng):
        z, route = dimer_partition_function(gq, w)
        want = reference_matching_sweep(gq, w, zeros).get(0, 0.0)
        assert (z.hex(), route) == (float(want).hex(), "brute")
    for d in ONE_DEFECT:
        inst = Instance(m, j, d)
        ratio, route = inst.dimer_ratio, inst.route
        assert (ratio.hex(), route) == (_reference_ratio(gq, j, d).hex(), "brute")


@pytest.mark.parametrize("cap, raises", [(40, True), (200, False)])
def test_brute_route_stops_where_the_reference_walk_does(cap, raises, rng, monkeypatch):
    """Under a lowered STATE_CAP the brute route of dimer_partition_function
    and of Instance.dimer_ratio raises TooLarge with the reference
    walk's message, or neither raises, also when G_Q's plan was built
    under the default cap.  grid_3_3's sweep at all-nonzero weights peaks
    at 50 states; weights with a zero walk under the lowered cap."""
    monkeypatch.setattr(bozon.dimer, "DIMER_CAP", 48)
    m = builtin("grid_3_3")
    gq = graph_context(m)
    plan = gq.matching_plan
    monkeypatch.setattr(bozon.dimer, "STATE_CAP", cap)
    j = base_couplings(random_j(rng, m.edge_count))
    zeros = (0,) * gq.edge_count
    raised = []
    for w in _matching_weights(m, gq, rng):
        got = sweep_outcome(lambda: dimer_partition_function(gq, w)[:1])
        want = sweep_outcome(lambda: [reference_matching_sweep(gq, w, zeros).get(0, 0.0)])
        assert got == want
        raised.append(isinstance(got, str))
    for d in ONE_DEFECT:
        got = sweep_outcome(lambda: [Instance(m, j, d).dimer_ratio])
        assert got == sweep_outcome(lambda: [_reference_ratio(gq, j, d)])
        raised.append(isinstance(got, str))
    assert any(raised) == raises
    assert gq.matching_plan is plan


def test_graph_context_is_the_one_g_q_per_map(monkeypatch):
    """graph_context returns one G_Q per interned map, and G_Q builds its
    Kasteleyn orientation and calibration sign once, however many
    determinant-route sums ask for them."""
    calls = []
    for fn in ("kasteleyn_orientation", "calibration_sign"):
        real = getattr(bozon.dimer, fn)
        monkeypatch.setattr(
            bozon.dimer, fn, lambda *a, _real=real, _fn=fn: calls.append(_fn) or _real(*a)
        )
    bozon.dimer.graph_context.cache_clear()
    try:
        m = builtin("c4")
        gq = graph_context(m)
        assert graph_context(build_map(m.vertex_darts, m.edge_darts)) is gq
        assert calls == []
        w = all_ones(gq)
        for _ in range(3):
            z, route = dimer_partition_function(gq, w, "determinant")
            assert route == "determinant"
            assert z == pytest.approx(brute_force_dimer_Z(gq, w), rel=1e-12)
        instance_reports("theorem1", Instance(m, uniform_couplings(m.edge_count, 0.7), ONE_DEFECT[0]))
        assert calls == ["kasteleyn_orientation", "calibration_sign"]
        assert graph_context(m) is gq and gq.sign in (1, -1)
    finally:
        bozon.dimer.graph_context.cache_clear()


def test_a_bridged_map_raises_on_every_call():
    """A map with a bridge has no G_Q: graph_context raises on every call
    and keeps nothing."""
    m = build_map([[0, 2], [1], [3]], [(0, 1), (2, 3)])  # a path of 3 vertices
    before = graph_context.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BridgeUnsupported, match="bridges at edges"):
            graph_context(m)
    assert graph_context.cache_info().currsize == before


def test_a_plan_whose_build_raises_is_not_kept(monkeypatch):
    """Under a cap that the walk's first step exceeds (3 states),
    G_Q's plan build raises the walk's TooLarge and is not kept; under the
    default cap it is built and kept."""
    gq = build_gq(builtin("grid_3_3"))
    w = all_ones(gq)
    zeros = (0,) * len(w)
    with monkeypatch.context() as patch:
        patch.setattr(bozon.dimer, "STATE_CAP", 2)
        got = sweep_outcome(lambda: [brute_force_dimer_Z(gq, w)])
        assert got == "matching sweep holds 3 states, cap is 2"
        assert got == sweep_outcome(lambda: [reference_matching_sweep(gq, w, zeros)[0]])
        assert "matching_plan" not in vars(gq)
    assert brute_force_dimer_Z(gq, w) == reference_matching_sweep(gq, w, zeros)[0]
    assert vars(gq)["matching_plan"] is not None


def test_a_plan_past_state_cap_ints_is_not_kept(monkeypatch, rng):
    """Under a STATE_CAP that grid_3_3's walk fits (50 states a step) but
    its plan's ops (3 ints each) do not, G_Q keeps no plan and each sum
    walks, still equal to the reference walk bit for bit."""
    gq = build_gq(builtin("grid_3_3"))
    monkeypatch.setattr(bozon.dimer, "STATE_CAP", 60)
    w = [rng.uniform(-2.0, 2.0) for _ in range(gq.edge_count)]
    want = float(reference_matching_sweep(gq, w, (0,) * len(w))[0]).hex()
    assert brute_force_dimer_Z(gq, w).hex() == want
    assert gq.matching_plan is None


def _matching_weights(m, gq, rng):
    """Dimer weights of plain and of flagged couplings (an order edge
    negates a sech), random signed weights, and those with every third
    weight 0.0 or -0.0."""
    E = m.edge_count
    j = base_couplings(random_j(rng, E))
    flagged = modify_couplings(j, DefectSet.from_edge_sets({0}, {E - 1}))
    signed = [rng.uniform(-2.0, 2.0) for _ in range(gq.edge_count)]
    zeroed = [(0.0 if k % 2 else -0.0) if k % 3 == 0 else x for k, x in enumerate(signed)]
    return [nu_from_couplings(gq, j), nu_from_couplings(gq, flagged), signed, zeroed]


def test_matching_replay_is_the_dict_walk(rng):
    """brute_force_dimer_Z equals the reference walk bit for bit on the
    builtins, their duals and boundary-reduced maps, from a fresh plan and
    from the kept one."""
    for name, m in sweep_test_maps().items():
        gq = build_gq(m)
        zeros = (0,) * gq.edge_count
        for w in _matching_weights(m, gq, rng):
            want = float(reference_matching_sweep(gq, w, zeros).get(0, 0.0)).hex()
            assert [brute_force_dimer_Z(gq, w).hex() for _ in "ab"] == [want] * 2, name


def test_histogram_counts_are_the_dict_walks_exact_ints():
    """matching_pair_histogram keeps the reference walk's keys, in its
    order, and its counts as exact ints."""
    for name, m in sweep_test_maps().items():
        gq = build_gq(m)
        E = m.edge_count
        shift = {PRIMAL_PARALLEL: 0, DUAL_PARALLEL: E}
        toggles = [
            0 if kind == LEG else 1 << e + shift[kind]
            for kind, e in zip(gq.edge_kind, gq.edge_primal_edge)
        ]
        ref = reference_matching_sweep(gq, (1,) * gq.edge_count, toggles)
        hist = matching_pair_histogram(gq)
        assert list(hist.items()) == [
            ((key & (1 << E) - 1, key >> E), count) for key, count in ref.items()
        ], name
        assert all(type(count) is int for count in hist.values()), name


def test_weight_rows_are_the_per_edge_closed_forms(maps, rng):
    """nu_from_couplings and polygon_weights build their rows in one pass
    over the couplings; every entry is CouplingAssignment's per-edge closed
    form bit for bit, with order (flagged) and disorder (negated) edges."""
    for m in maps.values():
        gq = graph_context(m)
        E = m.edge_count
        j = base_couplings(random_j(rng, E))
        for jj in (j, modify_couplings(j, DefectSet.from_edge_sets({0}, {E - 1}))):
            tanh = [jj.tanh2(e) for e in range(E)]
            sech = [jj.sech2(e) for e in range(E)]
            want = [
                1.0 if kind == LEG else (sech if kind == DUAL_PARALLEL else tanh)[e]
                for kind, e in zip(gq.edge_kind, gq.edge_primal_edge)
            ]
            assert [x.hex() for x in nu_from_couplings(gq, jj)] == [x.hex() for x in want]
            w = polygon_weights(m, jj)
            assert (w.primal, w.dual) == (tuple(tanh), tuple(sech))
            constant = float(2 ** (m.vertex_count + 1)) * math.prod(
                [jj.cosh2(e) for e in range(E)], start=1.0
            )
            assert w.constant.hex() == constant.hex()
