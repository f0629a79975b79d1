"""Acceptance gate: the nine primary verification criteria.

One test per criterion; each emits a single ``CRITERION n PASS``/``FAIL``
line outside pytest's capture so the gate is readable from the plain
pytest output.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from bozon import (
    BUILTIN_EXAMPLES,
    DefectSet,
    Instance,
    PathSpec,
    base_couplings,
    brute_force_dimer_Z,
    build_gq,
    builtin,
    dimer_Z_det,
    dual,
    instance_reports,
    kasteleyn_orientation,
    modify_couplings,
    nu_from_couplings,
    polygon_weights,
    quad_graph,
    validate_defects,
)
from bozon.instances import random_instances
from bozon.polygon import _polygon_sweep
from bozon.suites import run_suite

from conftest import free_fermion_residual, random_j, structure_check

SEED = 1
COUNT = 100


@contextmanager
def criterion(capfd, n: int, label: str):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"CRITERION {n} FAIL  {label}", flush=True)
        raise
    else:
        with capfd.disabled():
            print(f"CRITERION {n} PASS  {label}", flush=True)


_cache: dict[str, object] = {}


def theorem_records():
    if "theorem" not in _cache:
        t0 = time.perf_counter()
        _cache["theorem"] = run_suite("theorem1", count=COUNT, seed=SEED)
        _cache["theorem_elapsed"] = time.perf_counter() - t0
    return _cache["theorem"]


def check_names(record) -> list[str]:
    return [c["name"] for c in record["checks"]]


def test_criterion_1_squared_correlator_vs_dimer_ratio(capfd):
    with criterion(capfd, 1, "squared correlator = signed dimer ratio, 100 seeded instances"):
        records = theorem_records()
        assert len(records) == COUNT
        assert all(r["pass"] for r in records)
        for r in records:
            main = next(c for c in r["checks"] if c["name"] == "theorem_main")
            assert main["rel_err"] <= 1e-9
            assert main["sign"] in (-1, 1)
        assert _cache["theorem_elapsed"] <= 60.0


def test_criterion_2_pair_polygon_sum(capfd):
    with criterion(capfd, 2, "[Z(J_bar)]^2 = C * pair-polygon sum, same instance set"):
        records = run_suite("pairpolygon", count=COUNT, seed=SEED)
        assert len(records) == COUNT
        assert all(r["pass"] for r in records)
        for r in records:
            assert check_names(r) == ["squared_partition_pair_polygon"]
            assert r["checks"][0]["rel_err"] <= 1e-9


def test_criterion_3_half_dimer_sum_and_grouped_counts(capfd):
    with criterion(capfd, 3, "bare pair sum = half dimer sum; grouped matching counts exact"):
        records = run_suite("bipartitedimer", count=COUNT, seed=SEED)
        instance_recs = [r for r in records if r["scope"] == "instance"]
        graph_recs = [r for r in records if r["scope"] == "graph"]
        assert len(instance_recs) == COUNT
        assert all(r["pass"] for r in records)
        seen_graphs = {r["graph"] for r in instance_recs}
        assert {r["graph"] for r in graph_recs} == seen_graphs
        for r in graph_recs:
            count_check = r["checks"][0]
            assert count_check["name"] == "matching_count_grouping"
            # integer equality: zero grouping mismatches at zero tolerance
            assert count_check["tol"] == 0.0
            assert count_check["lhs"] == 0.0
            assert count_check["matchings"] > 0


def test_criterion_4_unsquared_identity(capfd):
    with criterion(capfd, 4, "[Z]^2 = 2^V (prod cosh 2J) Z_dimer on all instances"):
        for r in theorem_records():
            plain = next(c for c in r["checks"] if c["name"] == "squared_Z_vs_dimer")
            modified = next(
                c for c in r["checks"] if c["name"] == "squared_Zbar_vs_dimer"
            )
            assert plain["rel_err"] <= 1e-9
            assert modified["rel_err"] <= 1e-9


def test_criterion_5_kasteleyn_oracle(capfd):
    with criterion(capfd, 5, "|det K| = brute matching sum; det ratio = brute ratio"):
        checked = 0
        for inst in random_instances(COUNT, SEED):
            gq = build_gq(inst.map)
            w = nu_from_couplings(gq, inst.couplings)
            wbar = nu_from_couplings(
                gq, modify_couplings(inst.couplings, inst.defects)
            )
            o = kasteleyn_orientation(gq)
            det = dimer_Z_det(gq, w, o)
            brute = brute_force_dimer_Z(gq, w)
            assert abs(abs(det) - brute) <= 1e-9 * max(brute, 1.0)
            det_ratio = dimer_Z_det(gq, wbar, o) / det
            brute_ratio = brute_force_dimer_Z(gq, wbar) / brute
            assert abs(det_ratio - brute_ratio) <= 1e-9 * max(abs(brute_ratio), 1.0)
            checked += 1
        assert checked == COUNT


def test_criterion_6_multi_spin_corollary_and_closed_forms(capfd):
    with criterion(capfd, 6, "squared multi-spin correlations = dimer ratios; closed forms"):
        records = run_suite("corollary", count=COUNT, seed=SEED)
        assert all(r["pass"] for r in records)
        instance_recs = [r for r in records if r["scope"] == "instance"]
        closed = [r for r in records if r["scope"] == "closed_form"]
        assert len(instance_recs) == COUNT
        assert [r["graph"] for r in closed] == ["single_edge", "c4"]
        for r in closed:
            # closed forms are routed through the brute-checked correlator
            assert r["checks"][0]["rel_err"] <= 1e-9


def test_criterion_7_boundary_reductions_and_magnetization(capfd):
    with criterion(capfd, 7, "boundary reductions by double enumeration; magnetization lemma"):
        records = run_suite("boundary", count=COUNT, seed=SEED)
        assert len(records) == COUNT
        assert all(r["pass"] for r in records)
        for r in records:
            assert check_names(r) == [
                "reduce_plus",
                "reduce_plus_free",
                "reduce_dobrushin",
            ]
        mag = run_suite("magnetization", count=10, seed=SEED)
        assert len(mag) >= 10
        assert all(r["pass"] for r in mag)
        for r in mag:
            assert "magnetization_pair_reduction" in check_names(r)


def test_criterion_8_coupling_duality(capfd):
    with criterion(capfd, 8, "per-edge duality at 1e-12; correlator duality on K3/C4"):
        rng = random.Random(777)
        for trial in range(20):
            m = builtin(("k3", "c4", "grid_2_3")[trial % 3])
            j = base_couplings(random_j(rng, m.edge_count))
            per_edge, _modified, _correlator = instance_reports(
                "duality", Instance(m, j, DefectSet.empty())
            )
            assert per_edge.tol == 1e-12
            assert per_edge.passed
        for name in ("k3", "c4"):
            m = builtin(name)
            dm = dual(m)
            j = base_couplings(random_j(rng, m.edge_count))
            configs = [
                validate_defects(m, (PathSpec(m.edge_endpoints(0), (0,)),), ()),
                validate_defects(m, (), (PathSpec(dm.edge_endpoints(1), (1,)),)),
            ]
            for d in configs:
                correlator = instance_reports("duality", Instance(m, j, d))[-1]
                assert correlator.rel_err <= 1e-9


def test_criterion_9_structural_invariants(capfd):
    with criterion(capfd, 9, "Euler, dual involution, overlay counts, free fermion"):
        for name in BUILTIN_EXAMPLES:
            m = builtin(name)
            assert m.vertex_count - m.edge_count + m.face_count == 2
            dm = dual(m)
            dd = dual(dm)
            assert (dd.vertex_count, dd.edge_count, dd.face_count) == (
                m.vertex_count,
                m.edge_count,
                m.face_count,
            )
            assert quad_graph(m).edge_count == 2 * m.edge_count
            gq = build_gq(m)
            s = structure_check(gq)
            assert s["vertices"] == 4 * m.edge_count
            assert s["edges"] == 6 * m.edge_count
            assert s["legs_perfect_matching"] and s["quads_well_formed"]
            dim = m.edge_count - m.vertex_count + 1
            assert _polygon_sweep(m, (1,) * m.edge_count, None) == 1 << dim
            j = base_couplings([0.3 + 0.07 * e for e in range(m.edge_count)])
            for d in (
                DefectSet.empty(),
                DefectSet.from_edge_sets({0}, {1}),
            ):
                w = polygon_weights(m, modify_couplings(j, d))
                for e in range(m.edge_count):
                    assert free_fermion_residual(w, e) <= 1e-12
