"""Instance streams and suite records: determinism, provenance, and the
explicit-instance entry points."""

from __future__ import annotations

import inspect
import json
import re
import sys
from collections import Counter

import pytest

import bozon.consequences
import bozon.dimer
import bozon.ising
import bozon.planar_map
import bozon.polygon
import bozon.suites
from bozon import (
    Instance,
    PathSpec,
    base_couplings,
    build_map,
    builtin,
    canonical_json,
    couplings_from_dict,
    explicit_instance,
    instance_reports,
    run_explicit,
    run_suite,
    suite_summary,
    uniform_couplings,
)
from bozon.instances import FAMILY, random_instances
from bozon.suites import SUITE_NAMES, closed_form_records

from conftest import clear_caches


def test_suite_names_cover_all_runners():
    assert SUITE_NAMES == (
        "theorem1",
        "pairpolygon",
        "bipartitedimer",
        "corollary",
        "magnetization",
        "duality",
        "boundary",
    )


def test_random_instances_are_reproducible():
    a = random_instances(6, 42)
    clear_caches()  # a fresh draw, not the memoized stream
    b = random_instances(6, 42)
    assert len(a) == 6
    for x, y in zip(a, b):
        assert x.graph_name == y.graph_name
        assert x.couplings.real == y.couplings.real
        assert x.defects.gamma == y.defects.gamma
        assert x.defects.gamma_star == y.defects.gamma_star


def test_records_carry_replayable_provenance():
    rec = run_suite("theorem1", count=3, seed=9)[1]
    m = builtin(rec["graph"])
    j = couplings_from_dict(rec["couplings"], m.edge_count)
    assert j.edge_count == m.edge_count
    assert rec["seed"] == 9
    assert rec["suite"] == "theorem1"
    assert rec["pass"] is True
    assert {"order_paths", "disorder_paths"} <= set(rec["defects"])


def test_all_suites_pass_small_run():
    records = run_suite("all", count=5, seed=2)
    summary = suite_summary(records)
    assert summary["pass"], summary
    assert {r["suite"] for r in records} == set(SUITE_NAMES)


# Checks the library defines but the gate does not yet run; each entry
# names the item that will move it into the gate.
UNGATED_CHECKS = {
    # ROADMAP item 4: promoted into the gate in its own re-baselining change
    "high_temp_expansion_check",
}


def test_every_library_check_runs_in_the_gate():
    """Every public verify_* / *_check / *_report / *_reports function of
    the identity modules is called by the gate, so no identity is checked
    only where nothing runs it.  Calls are seen by their code objects, so
    names that suites imports by value are seen too."""
    modules = (bozon.dimer, bozon.consequences, bozon.polygon, bozon.ising)
    pattern = re.compile(r"^verify_|_check$|_reports?$")
    checks = {
        f.__code__: f"{mod.__name__}.{name}"
        for mod in modules
        for name, f in inspect.getmembers(mod, inspect.isfunction)
        if f.__module__ == mod.__name__
        and not name.startswith("_")
        and pattern.search(name)
        and name not in UNGATED_CHECKS
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    clear_caches()
    sys.setprofile(profile)
    try:
        run_suite("all", count=10, seed=1)
    finally:
        sys.setprofile(None)
    assert sorted(name for code, name in checks.items() if code not in called) == []


def test_magnetization_count_floor():
    records = run_suite("magnetization", count=1, seed=1)
    assert len(records) >= 10


def test_suite_runs_are_byte_identical():
    a = canonical_json(run_suite("theorem1", count=6, seed=5))
    b = canonical_json(run_suite("theorem1", count=6, seed=5))
    assert a == b


def test_gq_built_once_per_distinct_map(monkeypatch):
    built = []
    real = bozon.dimer.build_gq

    def counting_build_gq(m):
        built.append(m)
        return real(m)

    monkeypatch.setattr(bozon.dimer, "build_gq", counting_build_gq)
    bozon.dimer.graph_context.cache_clear()
    try:
        records = run_suite("theorem1", 50, seed=11)
    finally:
        bozon.dimer.graph_context.cache_clear()
    names = {r["graph"] for r in records}
    assert len(names) > 1
    assert len(built) == len(names)
    assert len(set(built)) == len(built)


def _declared_checks(rec):
    """The check names a corollary or magnetization record carries, in
    order: the corollary's declared edges on a stream instance; a closed
    form, then the correlator against the direct average; and the
    magnetization's two routes, each checked by the contracted instance's
    direct average and dimer ratio."""
    if rec["suite"] == "magnetization":
        return ["magnetization_pair_reduction", "spin_correlation_vs_direct",
                "magnetization_squared_vs_dimer", "squared_spin_vs_dimer_ratio"]
    if rec["scope"] == "closed_form":
        closed_form = {"single_edge": "closed_form_single_edge", "c4": "closed_form_c4_adjacent"}
        return [closed_form[rec["graph"]], "spin_correlation_vs_direct"]
    return [edge.name for edge in bozon.suites._SUITES["corollary"][0]]


# The corollary and magnetization checks that read each instance value.
_READERS = {
    "direct": {"direct_squared_vs_dimer_ratio", "spin_correlation_vs_direct"},
    "dimer_ratio": {
        "direct_squared_vs_dimer_ratio",
        "squared_spin_vs_dimer_ratio",
        "magnetization_squared_vs_dimer",
    },
}


@pytest.mark.parametrize("suite", ["corollary", "magnetization"])
@pytest.mark.parametrize("value", ["direct", "dimer_ratio"])
def test_failed_spin_check_lands_in_the_record(monkeypatch, suite, value):
    """The direct spin average and the dimer ratio of an instance are each
    read by recorded checks: with either doubled on every instance, each
    record keeps all of its checks and fails exactly those that read it."""
    real = vars(Instance)[value]
    get = getattr(real, "func", None) or real.fget
    monkeypatch.setattr(Instance, value, property(lambda inst: 2 * get(inst)))
    records = run_suite(suite, count=10, seed=1)
    assert len(records) == (12 if suite == "corollary" else 10)
    for r in records:
        names = [c["name"] for c in r["checks"]]
        assert names == _declared_checks(r), (r["scope"], r.get("index"))
        failed = {c["name"] for c in r["checks"] if not c["pass"]}
        assert failed == _READERS[value] & set(names), (r["scope"], r.get("index"))
        assert r["pass"] == (not failed)


def test_dual_built_once_per_distinct_map(monkeypatch):
    calls = Counter()
    real = bozon.planar_map.dual

    def counting_dual(m):
        calls[m] += 1
        return real(m)

    monkeypatch.setattr(bozon.planar_map, "dual", counting_dual)
    clear_caches()  # fresh (uninterned) maps, no dual memoized yet
    try:
        records = run_suite("all", 30, seed=11)
    finally:
        clear_caches()
    drawn = {builtin(r["graph"]) for r in records if r["graph"] in FAMILY}
    assert len(drawn) > 1
    assert drawn <= set(calls)
    assert max(calls.values()) == 1, [
        (m.vertex_count, m.edge_count, n) for m, n in calls.items() if n > 1
    ]


MIXED_SUITES = ("theorem1", "pairpolygon", "bipartitedimer", "duality")


def test_each_spin_sum_of_the_mixed_suites_is_swept_once(monkeypatch):
    """The mixed suites read Z(J), Z(Jbar) and the dual side's sums from
    their instances, so over two seeded streams no spin sum input (map,
    couplings, fixed spins, observables) is swept twice.  The corollary's
    direct average divides by the kept Z(J), so no sum is swept twice
    inside a corollary record, and each closed-form record sweeps its own
    sums when it is asked for.  (The order-only stream draws a first
    instance like the mixed stream's, whose Z(J) it sums again.)  Inside a
    boundary record no fixed-spin sum is swept twice: a plus-free arc that
    fixes every vertex of the face reuses the plus reduction and both of
    its sums.  A free sum is swept again only by a Dobrushin reduction
    that draws no disorder line, which leaves the plus reduction's map and
    couplings."""
    swept = Counter()
    real = bozon.ising._sweep

    def counting(m, real_j, half_pi, fixed, obs):
        swept[m, real_j, half_pi, frozenset(fixed.items()), frozenset(obs)] += 1
        return real(m, real_j, half_pi, fixed, obs)

    monkeypatch.setattr(bozon.ising, "_sweep", counting)
    clear_caches()  # instances drawn afresh, with no value taken yet
    try:
        for seed in (1, 7):
            for suite in MIXED_SUITES:
                run_suite(suite, 100, seed)
        assert swept
        assert sum(n - 1 for n in swept.values()) == 0
        for seed in (1, 7):
            swept.clear()
            for rec in bozon.suites.iter_suite("corollary", 100, seed):
                assert swept, (seed, rec["scope"], rec.get("index"))
                assert sum(n - 1 for n in swept.values()) == 0, (seed, rec.get("index"))
                swept.clear()
            reused = 0
            for rec in bozon.suites.iter_suite("boundary", 100, seed):
                plus, plus_free, *dobrushin = rec["checks"]
                for (_m, _j, _flags, fixed, _obs), n in swept.items():
                    assert n == 1 or (n == 2 and not fixed and dobrushin
                                      and dobrushin[0]["disorder_line"] == 0), (seed, rec["index"])
                reused += (plus_free["lhs"], plus_free["rhs"]) == (plus["lhs"], plus["rhs"])
                swept.clear()
            assert reused > 40, seed
    finally:
        clear_caches()


@pytest.mark.parametrize(
    "value, failing",
    [
        ("zbar", {
            "theorem1": {"squared_Zbar_vs_dimer", "theorem_main"},
            "pairpolygon": {"squared_partition_pair_polygon"},
            "duality": {"correlator_duality"},
        }),
        ("pair_sum", {
            "pairpolygon": {"squared_partition_pair_polygon"},
            "bipartitedimer": {"pair_polygon_vs_half_dimer"},
        }),
    ],
)
def test_a_wrong_shared_value_fails_every_suite_that_reads_it(monkeypatch, value, failing):
    """Each kept value is read by at least two checks: with Z(Jbar) or
    P(Jbar) doubled on every instance of the stream, every instance record
    of each suite that reads it fails that suite's checks of it."""
    clear_caches()
    try:
        for inst in random_instances(20, 1):
            # a computed value is kept in the instance's __dict__
            monkeypatch.setitem(inst.__dict__, value, 2 * getattr(inst, value))
        for suite, checks in failing.items():
            for rec in run_suite(suite, 20, 1):
                if rec["scope"] == "instance":
                    failed = {c["name"] for c in rec["checks"] if not c["pass"]}
                    assert checks <= failed, (suite, rec["index"])
    finally:
        clear_caches()


def test_a_failed_duality_record_keeps_all_three_checks(monkeypatch):
    """Every declared edge gives its report, failed or not: with Z(Jbar)
    doubled on every instance, each duality record fails its correlator
    check and still carries both residual checks, passing."""
    clear_caches()
    try:
        for inst in random_instances(20, 1):
            monkeypatch.setitem(inst.__dict__, "zbar", 2 * inst.zbar)
        records = run_suite("duality", 20, 1)
        assert len(records) == 20
        for rec in records:
            assert [(c["name"], c["pass"]) for c in rec["checks"]] == [
                ("per_edge_duality", True),
                ("modified_duality", True),
                ("correlator_duality", False),
            ], rec["index"]
    finally:
        clear_caches()


def test_each_mixed_record_carries_its_suites_declared_checks():
    """Over seeds 1 and 7, every instance record of a mixed suite carries
    exactly the check names its suite declares, in the declared order, or
    an error and no check; so does every corollary and magnetization
    record (see _declared_checks), and every boundary record, less the
    Dobrushin check where no split of its face applies.  Once the suites
    have run, no stream instance holds its dual instance: the dual side
    lives for one duality record."""
    clear_caches()
    try:
        for seed in (1, 7):
            for suite in MIXED_SUITES:
                declared = [edge.name for edge in bozon.suites._SUITES[suite][0]]
                records = [r for r in run_suite(suite, 100, seed) if r["scope"] == "instance"]
                assert len(records) == 100
                for rec in records:
                    names = [c["name"] for c in rec["checks"]]
                    assert names == declared or ("error" in rec and not names), (
                        suite, seed, rec["index"], names
                    )
            declared = [edge.name for edge in bozon.suites.BOUNDARY]
            for rec in run_suite("boundary", 100, seed):
                names = [c["name"] for c in rec["checks"]]
                # the Dobrushin edge applies where the face has a clear split
                assert names in (declared, declared[:2]), (seed, rec["index"], names)
            for suite, count in (("corollary", 102), ("magnetization", 50)):
                records = run_suite(suite, 100, seed)
                assert len(records) == count
                for rec in records:
                    names = [c["name"] for c in rec["checks"]]
                    assert names == _declared_checks(rec) or ("error" in rec and not names), (
                        suite, seed, rec.get("index"), names
                    )
            for inst in random_instances(100, seed):
                kept = vars(inst)
                assert "zbar" in kept  # the suites took its values
                assert "dual" not in kept
                assert not any(isinstance(v, Instance) for v in kept.values())
    finally:
        clear_caches()


def test_warm_rerun_is_byte_identical():
    """A second run in one process reads interned maps and the memoized
    stream; its report must equal the cold run's byte for byte."""
    clear_caches()

    def report():
        suites = ("theorem1", "pairpolygon", "duality", "boundary")
        return canonical_json([r for s in suites for r in run_suite(s, 50, seed=1)])

    assert report() == report()


def test_tight_tolerance_yields_failed_records():
    records = run_suite("theorem1", count=2, seed=1, tol=0.0)
    summary = suite_summary(records)
    assert summary["failed"] == 2
    assert not summary["pass"]
    for rec in records:
        assert any(not c["pass"] for c in rec["checks"])


def test_closed_form_records_present():
    records = list(closed_form_records(seed=1))
    assert [r["graph"] for r in records] == ["single_edge", "c4"]
    assert all(r["pass"] for r in records)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonesuch", count=1)


def test_explicit_instance_runs_all_applicable_suites():
    m = builtin("grid_2_3")
    inst = explicit_instance(
        m,
        base_couplings([0.4 + 0.1 * e for e in range(m.edge_count)]),
        order_paths=(PathSpec((0, 1), (0,)),),
        name="grid_2_3",
        seed=3,
    )
    records = run_explicit("all", inst)
    assert suite_summary(records)["pass"]
    suites = [r["suite"] for r in records]
    assert "magnetization" not in suites
    assert "boundary" in suites  # a defect-free face exists


def test_explicit_instance_skips_boundary_when_no_free_face():
    m = builtin("c4")
    inst = explicit_instance(
        m,
        uniform_couplings(4, 0.6),
        order_paths=(PathSpec((0, 1), (0,)),),
        name="c4",
    )
    records = run_explicit("all", inst)
    assert suite_summary(records)["pass"]
    assert "boundary" not in [r["suite"] for r in records]


def test_boundary_face_avoids_defect_chords():
    # edge 5 of grid_2_3 joins two vertices of the outer face without being
    # one of its edges; contracting that face would turn the order edge
    # into a loop, and the inner faces both contain it, so no face is clear
    inst = random_instances(3, 108, families=("grid_2_3",))[2]
    assert inst.defects.gamma == {5}
    records = run_explicit("all", inst)
    assert suite_summary(records)["pass"]
    assert "boundary" not in [r["suite"] for r in records]

    # the disorder-crossed edge 20 of grid_2_8 is such a chord too, but
    # clear faces exist, and the reduction must pick one of them
    inst = random_instances(2, 106, families=("grid_2_8",))[1]
    assert inst.defects.gamma_star == {20}
    (rec,) = run_explicit("boundary", inst)
    assert rec["pass"] and "error" not in rec
    assert len(rec["checks"]) == 3


def test_boundary_suite_on_a_face_through_a_cut_vertex():
    """The bowtie's two triangles meet at cut vertex 0, which the walk of
    the outer face passes twice, so that face has no split into a plus
    and a minus arc: the suite skips only its Dobrushin check."""
    bowtie = build_map(
        [[0, 5, 6, 11], [1, 2], [3, 4], [7, 8], [9, 10]],
        [(2 * e, 2 * e + 1) for e in range(6)],
    )
    outer = [f for f in range(bowtie.face_count) if len(bowtie.faces[f]) == 6]
    assert len(outer) == 1
    faces = set()
    for seed in range(8):
        inst = explicit_instance(
            bowtie, uniform_couplings(6, 0.7), name="bowtie", seed=seed
        )
        (rec,) = run_explicit("boundary", inst)
        assert rec["pass"] and "error" not in rec, (seed, rec.get("error"))
        names = [c["name"] for c in rec["checks"]]
        face = rec["checks"][0]["face"]
        faces.add(face)
        if face in outer:
            assert names == ["reduce_plus", "reduce_plus_free"], seed
        else:
            assert names == ["reduce_plus", "reduce_plus_free", "reduce_dobrushin"]
    assert faces == set(range(bowtie.face_count))


@pytest.mark.parametrize("seed", (1, 2, 7))
def test_seeded_boundary_faces_without_repeats_carry_every_reduction(seed):
    """Every seeded boundary record whose face walk repeats no vertex and
    no edge carries all three reductions, in order.  A stream that dropped
    its Dobrushin checks would still pass every check it kept."""
    simple = 0
    for rec in run_suite("boundary", 100, seed):
        m = builtin(rec["graph"])
        face = rec["checks"][0]["face"]
        walk, cycle = m.face_vertices(face), m.face_edges(face)
        if len(set(walk)) == len(walk) and len(set(cycle)) == len(cycle):
            simple += 1
            names = [c["name"] for c in rec["checks"]]
            assert names == ["reduce_plus", "reduce_plus_free", "reduce_dobrushin"], (
                rec["index"]
            )
    assert simple == 100


def test_no_boundary_record_sums_one_spin_input_twice(monkeypatch):
    """No seed-1 boundary record gives the spin sweep the same (map,
    couplings, fixed spins, observables) twice.  In 47 of the 100 records
    the Dobrushin fan is dropped as a pure gauge, so that reduction's
    reduced instance equals the plus reduction's, and its Z_free is the one
    already taken."""
    calls = []
    sweep = bozon.ising._sweep

    def keyed_sweep(m, real, half_pi, fixed, obs):
        calls.append((m, tuple(real), tuple(half_pi), tuple(sorted(fixed.items())),
                      tuple(sorted(obs))))
        return sweep(m, real, half_pi, fixed, obs)

    monkeypatch.setattr(bozon.ising, "_sweep", keyed_sweep)
    clear_caches()  # instances drawn afresh, with no value taken yet
    try:
        for rec in bozon.suites.iter_suite("boundary", 100, 1):
            assert calls and len(set(calls)) == len(calls), rec["index"]
            calls.clear()
    finally:
        clear_caches()


def test_boundary_suite_on_a_face_through_a_bridge():
    """A triangle with a pendant path: the outer walk passes edges 3 and 4
    twice, so an arc drawn as consecutive walk positions may hold one
    traversal of a bridge and leave the other outside.  Seed 6 draws such
    an arc (edges 3, 2)."""
    m = build_map(
        [[0, 5, 6], [1, 2], [3, 4], [7, 8], [9]],
        [(2 * e, 2 * e + 1) for e in range(5)],
    )
    j = base_couplings([0.3, 0.5, 0.7, 0.9, 1.1])
    for seed in range(12):
        (rec,) = run_explicit("boundary", explicit_instance(m, j, seed=seed))
        assert rec["pass"] and "error" not in rec, (seed, rec.get("error"))


def test_explicit_corollary_requires_order_only():
    m = builtin("c4")
    inst = explicit_instance(
        m,
        uniform_couplings(4, 0.6),
        disorder_paths=(PathSpec((0, 1), (0,)),),
        name="c4",
    )
    with pytest.raises(ValueError):
        run_explicit("corollary", inst)


def test_explicit_corollary_without_defects_checks_one_on_each_side():
    """Without an order path the corollary's three edges compare 1 with 1
    (no spin inserted, Jbar = J): each side is exactly 1.0 on a bridge-free
    map.  A bridged map has no dimer side, so its record carries a
    BridgeUnsupported error entry."""
    (rec,) = run_explicit("corollary", explicit_instance(builtin("c4"), uniform_couplings(4, 0.6)))
    assert rec["pass"] and "error" not in rec
    assert [c["name"] for c in rec["checks"]] == [
        edge.name for edge in bozon.suites._SUITES["corollary"][0]
    ]
    assert all(c["lhs"] == c["rhs"] == 1.0 for c in rec["checks"])

    path3 = build_map([[0, 2], [1], [3]], [(0, 1), (2, 3)])
    (rec,) = run_explicit("corollary", explicit_instance(path3, uniform_couplings(2, 0.6)))
    assert rec["pass"] is False and rec["checks"] == []
    assert rec["error"].startswith("BridgeUnsupported:")


def test_explicit_boundary_requires_a_clear_face():
    """No face clear of defects: the boundary suite rejects the input as a
    ValueError instead of reporting a failed identity.  On c4 the order
    edge lies on both faces; on grid_2_3 it is a chord of the outer face."""
    c4 = explicit_instance(
        builtin("c4"),
        uniform_couplings(4, 0.6),
        order_paths=(PathSpec((0, 1), (0,)),),
        name="c4",
    )
    chord = random_instances(3, 108, families=("grid_2_3",))[2]
    for inst in (c4, chord):
        with pytest.raises(ValueError, match="face clear of defects"):
            run_explicit("boundary", inst)


def test_instance_reports_refuses_what_run_explicit_refuses():
    """instance_reports refuses a suite that does not apply, with the
    reason run_explicit gives: the corollary on an instance with a
    disorder path (whose identities would read as false failures), and
    boundary without a face clear of defects (instead of failing on an
    empty face draw)."""
    mixed = [inst for inst in random_instances(20, 1) if inst.defects.gamma_star]
    assert mixed
    for inst in mixed:
        with pytest.raises(ValueError, match="corollary suite needs order-only defects"):
            instance_reports("corollary", inst)
    c4 = explicit_instance(builtin("c4"), uniform_couplings(4, 0.6),
                           order_paths=(PathSpec((0, 1), (0,)),), name="c4")
    with pytest.raises(ValueError, match="boundary suite needs a face clear of defects"):
        instance_reports("boundary", c4)
    suites = [rec["suite"] for rec in run_explicit("all", c4)]
    assert "boundary" not in suites and "corollary" in suites
    suites = [rec["suite"] for rec in run_explicit("all", mixed[0])]
    assert "corollary" not in suites and "theorem1" in suites


def test_explicit_magnetization_rejected():
    inst = explicit_instance(builtin("c4"), uniform_couplings(4, 0.5))
    with pytest.raises(ValueError):
        run_explicit("magnetization", inst)


def _grid_3_3_order_path(j):
    """grid_3_3 with uniform coupling j and one order path 0 -> 8."""
    m = builtin("grid_3_3")
    return explicit_instance(
        m,
        uniform_couplings(m.edge_count, j),
        order_paths=(PathSpec((0, 8), (0, 1, 8, 11)),),
        name="grid_3_3",
    )


def test_float_overflow_is_a_failed_record():
    inst = _grid_3_3_order_path(400.0)
    for suite in ("theorem1", "pairpolygon", "bipartitedimer"):
        rec = run_explicit(suite, inst)[0]
        assert rec["suite"] == suite
        assert rec["checks"] == []
        assert rec["pass"] is False
        assert rec["error"].startswith("OverflowError")


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


@pytest.mark.parametrize(
    "j, typed",
    [
        (40.0, {"theorem1", "pairpolygon"}),
        (100.0, {"theorem1", "pairpolygon", "duality", "corollary", "boundary"}),
        (400.0, {"corollary", "boundary"}),
    ],
)
def test_non_finite_check_values_are_typed_errors(j, typed):
    """Past float range a check side turns inf or NaN: the record fails
    with a NonFiniteValue error entry, never a check judged on inf/NaN,
    and the report stays strict JSON."""
    inst = _grid_3_3_order_path(j)
    for suite in ("theorem1", "pairpolygon", "duality", "corollary", "boundary"):
        (rec,) = run_explicit(suite, inst)
        json.loads(canonical_json(rec), parse_constant=_reject_constant)
        if suite in typed:
            assert rec["pass"] is False and rec["checks"] == []
            assert rec["error"].startswith("NonFiniteValue"), rec["error"]
        else:
            assert rec["pass"] or "error" in rec, (suite, rec)


@pytest.mark.xfail(
    strict=True,
    reason="compare's absolute floor passes rel_err ~ 1 when both sides are < 1",
)
@pytest.mark.parametrize("j", [1e-5, 1e-7])
def test_tiny_coupling_main_identity_fails_honestly(j):
    (rec,) = run_explicit("theorem1", _grid_3_3_order_path(j))
    verdicts = {c["name"]: c["pass"] for c in rec["checks"]}
    assert verdicts["squared_Zbar_vs_dimer"] is False
    assert verdicts["theorem_main"] is False


@pytest.mark.xfail(
    strict=True,
    reason="compare's absolute floor passes rel_err 0.25 and ~1 when both sides are < 1",
)
@pytest.mark.parametrize("j", [1e-5, 1e-7])
@pytest.mark.parametrize(
    "suite, check",
    [
        ("pairpolygon", "squared_partition_pair_polygon"),
        ("bipartitedimer", "pair_polygon_vs_half_dimer"),
    ],
)
def test_tiny_coupling_pair_sums_fail_honestly(j, suite, check):
    rec = run_explicit(suite, _grid_3_3_order_path(j))[0]
    verdicts = {c["name"]: c["pass"] for c in rec["checks"]}
    assert verdicts[check] is False


def test_duality_at_a_subnormal_coupling_has_no_error():
    """On k3 with J_0 = 1e-320 the dual coupling J*_0 is 368.4, so cosh
    overflows at 2J*_0; sech2 takes the 2e^-|x| form there, and the
    defect-free duality record makes its three checks with no error."""
    m = builtin("k3")
    (rec,) = run_explicit("duality", explicit_instance(m, base_couplings([1e-320, 0.5, 0.7])))
    assert "error" not in rec
    assert [c["name"] for c in rec["checks"]] == [
        "per_edge_duality", "modified_duality", "correlator_duality"
    ]


def test_duality_holds_at_strong_coupling():
    """At J=20, -(1/2) ln tanh J evaluated as written is -0.0; the dual
    couplings must stay positive and the duality checks must pass."""
    (rec,) = run_explicit("duality", _grid_3_3_order_path(20.0))
    assert rec["pass"] and "error" not in rec
    assert len(rec["checks"]) == 3
