"""Spin correlations, magnetization reductions, and coupling duality,
checked against the spin-sum oracle and closed forms."""

from __future__ import annotations

import math

import pytest

from bozon import (
    DefectSet,
    Instance,
    PathSpec,
    base_couplings,
    build_map,
    instance_reports,
    magnetization_report,
    spin_expectation,
    uniform_couplings,
    validate_defects,
)
from bozon.consequences import COROLLARY
from bozon.instances import random_instances
from bozon.reports import edge_reports

from conftest import oracle_expectation, random_j


def single_edge_map():
    return build_map([[0], [1]], [(0, 1)])


def correlation(m, j, *paths):
    """The correlator of the order paths' instance, checked against the
    direct spin average by the corollary's spin_correlation_vs_direct."""
    inst = Instance(m, j, validate_defects(m, paths, ()))
    (check,) = edge_reports(COROLLARY[1:2], inst)
    assert check.name == "spin_correlation_vs_direct" and check.passed
    return inst.correlator


def test_single_edge_closed_form(rng):
    m = single_edge_map()
    jv = rng.uniform(0.1, 2.0)
    j = base_couplings([jv])
    got = correlation(m, j, PathSpec((0, 1), (0,)))
    assert got == pytest.approx(math.tanh(jv), rel=1e-12)


def test_c4_adjacent_closed_form(maps, rng):
    m = maps["c4"]
    jv = rng.uniform(0.1, 2.0)
    j = uniform_couplings(4, jv)
    t = math.tanh(jv)
    got = correlation(m, j, PathSpec((0, 1), (0,)))
    assert got == pytest.approx((t + t**3) / (1 + t**4), rel=1e-12)


def test_spin_correlation_path_independent(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, 4))
    short = correlation(m, j, PathSpec((0, 1), (0,)))
    long = correlation(m, j, PathSpec((0, 1), (3, 2, 1)))
    assert short == pytest.approx(long, rel=1e-12)


def test_spin_correlation_matches_oracle(maps, rng):
    from bozon import shortest_path

    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    verts = (0, 5)
    spec = shortest_path(m, 0, 5)
    got = correlation(m, j, spec)
    want = oracle_expectation(m, list(j.real), verts)
    assert got == pytest.approx(complex(want).real, rel=1e-11)


def test_squared_correlation_equals_dimer_ratio(maps, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, 3))
    path = PathSpec((0, 1), (0,))
    value = correlation(m, j, path)
    inst = Instance(m, j, validate_defects(m, (path,), ()))
    ratio, method = inst.dimer_ratio, inst.route
    want = oracle_expectation(m, list(j.real), (0, 1))
    assert value * value == pytest.approx(abs(want) ** 2, rel=1e-10)
    assert ratio == pytest.approx(value * value, rel=1e-9)
    assert method == "brute"


def test_dimer_ratio_method_switches_at_cap(maps, rng):
    small = maps["c4"]
    big = maps["grid_3_3"]
    d = DefectSet.from_edge_sets({0}, set())
    j_small = base_couplings(random_j(rng, 4))
    j_big = base_couplings(random_j(rng, 12))
    method_small = Instance(small, j_small, d).route
    method_big = Instance(big, j_big, d).route
    assert method_small == "brute"
    assert method_big == "determinant"  # 48 quad vertices exceed the brute cap


def test_spinor_correlation_c4(maps, rng):
    """The mixed order/disorder correlator at (vertex, face) pairs (0, 0)
    and (1, 1) of C4, where both faces touch every vertex: theorem_main
    holds with the predicted sign +1.  A negated dimer ratio failing it is
    test_theorem_main_fails_a_flipped_dimer_ratio, on the same edges."""
    m = maps["c4"]
    j = base_couplings(random_j(rng, 4))
    d = validate_defects(m, (PathSpec((0, 1), (0,)),), (PathSpec((0, 1), (2,)),))
    main = instance_reports("theorem1", Instance(m, j, d))[-1]
    assert main.name == "theorem_main"
    assert main.passed
    assert main.sign == 1
    assert main.extra["gamma"] == 1


@pytest.mark.parametrize("seed", (1, 2, 7))
def test_direct_is_the_spin_expectation_bit_for_bit(seed):
    """An instance's direct average divides the sweep with its order
    paths' endpoint spins inserted by the kept Z(J): bit for bit the
    spin_expectation of those spins, on the order-only streams."""
    for inst in random_instances(100, seed, profile="order_only"):
        ends = [v for p in inst.defects.order_paths for v in p.endpoints]
        assert ends
        want = spin_expectation(inst.map, inst.couplings, ends)
        assert inst.direct.hex() == want.hex(), inst.index


def test_magnetization_matches_oracle(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    rim = {v for t in m.faces[outer] for v in (m.dart_vertex[t],)}
    value, reports = magnetization_report(m, j, outer, 0)
    for r in reports:
        assert r.passed, r.name
    want = oracle_expectation(m, list(j.real), (0,), fixed={v: 1 for v in rim})
    assert value == pytest.approx(complex(want).real, rel=1e-10)


def test_magnetization_reports_include_dimer_check(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    value, reports = magnetization_report(m, j, outer, 0)
    names = [r.name for r in reports]
    assert "magnetization_pair_reduction" in names
    assert "magnetization_squared_vs_dimer" in names
    assert all(r.passed for r in reports)
    assert 0.0 < value < 1.0


def test_magnetization_boundary_vertex_is_one(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    rim_vertex = m.dart_vertex[m.faces[outer][0]]
    value, reports = magnetization_report(m, j, outer, rim_vertex)
    for r in reports:
        assert r.passed, r.name
    assert value == 1.0


def test_magnetization_strong_coupling_saturates(maps):
    m = maps["wheel_4"]
    j = uniform_couplings(m.edge_count, 5.0)
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    value, reports = magnetization_report(m, j, outer, 0)
    for r in reports:
        assert r.passed, r.name
    assert value == pytest.approx(1.0, abs=1e-3)


def test_duality_per_edge_relation(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    reports = {r.name: r for r in instance_reports("duality", Instance(m, j, DefectSet.empty()))}
    assert reports["per_edge_duality"].passed
    assert reports["per_edge_duality"].tol == 1e-12
    assert reports["modified_duality"].passed
    assert reports["correlator_duality"].passed


def test_duality_with_defects(maps, rng):
    for name in ("k3", "c4"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        d = validate_defects(m, (PathSpec((0, 1), (0,)),), ())
        reports = instance_reports("duality", Instance(m, j, d))
        assert all(r.passed for r in reports)
