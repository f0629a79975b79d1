"""Instance streams and suite records: determinism, provenance, and the
explicit-instance entry points."""

from __future__ import annotations

from collections import Counter

import pytest

import bozon.dimer
import bozon.graphs
import bozon.planar_map
from bozon import (
    PathSpec,
    base_couplings,
    builtin,
    canonical_json,
    couplings_from_dict,
    explicit_instance,
    run_explicit,
    run_suite,
    suite_summary,
    uniform_couplings,
)
from bozon.instances import FAMILY, random_instances
from bozon.suites import SUITE_NAMES, closed_form_records


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


def test_dual_built_once_per_distinct_map(monkeypatch):
    calls = Counter()
    real = bozon.planar_map.dual

    def counting_dual(m):
        calls[m] += 1
        return real(m)

    monkeypatch.setattr(bozon.planar_map, "dual", counting_dual)
    bozon.graphs.builtin.cache_clear()  # fresh maps, no dual memoized yet
    try:
        records = run_suite("all", 30, seed=11)
    finally:
        bozon.graphs.builtin.cache_clear()
    drawn = {builtin(r["graph"]) for r in records if r["graph"] in FAMILY}
    assert len(drawn) > 1
    assert drawn <= set(calls)
    assert max(calls.values()) == 1, [
        (m.vertex_count, m.edge_count, n) for m, n in calls.items() if n > 1
    ]


def test_tight_tolerance_yields_failed_records():
    records = run_suite("theorem1", count=2, seed=1, tol=0.0)
    summary = suite_summary(records)
    assert summary["failed"] == 2
    assert not summary["pass"]
    for rec in records:
        assert any(not c["pass"] for c in rec["checks"])


def test_closed_form_records_present():
    records = closed_form_records(seed=1)
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


def test_explicit_magnetization_rejected():
    inst = explicit_instance(builtin("c4"), uniform_couplings(4, 0.5))
    with pytest.raises(ValueError):
        run_explicit("magnetization", inst)
