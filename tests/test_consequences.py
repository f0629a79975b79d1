"""Spin correlations, magnetization reductions, and coupling duality,
checked against the spin-sum oracle and closed forms."""

from __future__ import annotations

import math

import pytest

from bozon import (
    DefectSet,
    PathSpec,
    SpinorSpec,
    base_couplings,
    build_map,
    dimer_correlation_ratio,
    kw_duality_check,
    magnetization,
    magnetization_report,
    spin_correlation,
    spin_correlation_squared_dimer,
    spinor_correlation_squared,
    uniform_couplings,
    validate_defects,
)
from bozon.errors import EndpointMismatch

from conftest import oracle_expectation, random_j


def single_edge_map():
    return build_map([[0], [1]], [(0, 1)])


def test_single_edge_closed_form(rng):
    m = single_edge_map()
    jv = rng.uniform(0.1, 2.0)
    j = base_couplings([jv])
    got = spin_correlation(m, j, (0, 1), (PathSpec((0, 1), (0,)),))
    assert got == pytest.approx(math.tanh(jv), rel=1e-12)


def test_c4_adjacent_closed_form(maps, rng):
    m = maps["c4"]
    jv = rng.uniform(0.1, 2.0)
    j = uniform_couplings(4, jv)
    t = math.tanh(jv)
    got = spin_correlation(m, j, (0, 1), (PathSpec((0, 1), (0,)),))
    assert got == pytest.approx((t + t**3) / (1 + t**4), rel=1e-12)


def test_spin_correlation_path_independent(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, 4))
    short = spin_correlation(m, j, (0, 1), (PathSpec((0, 1), (0,)),))
    long = spin_correlation(m, j, (0, 1), (PathSpec((0, 1), (3, 2, 1)),))
    assert short == pytest.approx(long, rel=1e-12)


def test_spin_correlation_matches_oracle(maps, rng):
    from bozon import shortest_path

    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    verts = (0, 5)
    spec = shortest_path(m, 0, 5)
    got = spin_correlation(m, j, verts, (spec,))
    want = oracle_expectation(m, list(j.real), verts)
    assert got == pytest.approx(complex(want).real, rel=1e-11)


def test_spin_correlation_rejects_odd_insertions(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, 4))
    with pytest.raises(EndpointMismatch):
        spin_correlation(m, j, (0,), (PathSpec((0, 1), (0,)),))


def test_spin_correlation_rejects_unpaired_endpoints(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, 4))
    with pytest.raises(EndpointMismatch):
        spin_correlation(m, j, (0, 2), (PathSpec((0, 1), (0,)),))


def test_squared_correlation_equals_dimer_ratio(maps, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, 3))
    rep = spin_correlation_squared_dimer(m, j, (0, 1), (PathSpec((0, 1), (0,)),))
    want = oracle_expectation(m, list(j.real), (0, 1))
    assert rep.squared_value == pytest.approx(abs(want) ** 2, rel=1e-10)
    assert rep.dimer_ratio == pytest.approx(rep.squared_value, rel=1e-9)
    assert rep.sign == 1
    assert rep.method == "brute"


def test_dimer_ratio_method_switches_at_cap(maps, rng):
    small = maps["c4"]
    big = maps["grid_3_3"]
    d = DefectSet.from_edge_sets({0}, set())
    j_small = base_couplings(random_j(rng, 4))
    j_big = base_couplings(random_j(rng, 12))
    _, method_small = dimer_correlation_ratio(small, j_small, d)
    _, method_big = dimer_correlation_ratio(big, j_big, d)
    assert method_small == "brute"
    assert method_big == "determinant"  # 48 quad vertices exceed the brute cap


def test_spinor_correlation_c4(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, 4))
    # both C4 faces touch every vertex, so any (vertex, face) pair is incident
    spec = SpinorSpec(
        pairs=((0, 0), (1, 1)),
        order_paths=(PathSpec((0, 1), (0,)),),
        disorder_paths=(PathSpec((0, 1), (2,)),),
    )
    rep = spinor_correlation_squared(m, j, spec)
    assert rep.sign in (-1, 1)
    assert rep.squared_value == pytest.approx(rep.sign * rep.dimer_ratio, rel=1e-9)
    assert rep.gamma_size == 1


def test_spinor_requires_incidence(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    # vertex 0 paired with a face it does not touch
    far_face = next(
        f for f in range(m.face_count) if 0 not in m.face_vertices(f)
    )
    spec = SpinorSpec(
        pairs=((0, far_face), (1, far_face)),
        order_paths=(PathSpec((0, 1), (0,)),),
        disorder_paths=(),
    )
    with pytest.raises(EndpointMismatch):
        spinor_correlation_squared(m, j, spec)


def test_spinor_empty_is_trivial(maps):
    rep = spinor_correlation_squared(
        maps["c4"],
        uniform_couplings(4, 0.5),
        SpinorSpec(pairs=(), order_paths=(), disorder_paths=()),
    )
    assert (rep.squared_value, rep.dimer_ratio, rep.sign) == (1.0, 1.0, 1)
    assert rep.method == "none"


def test_magnetization_matches_oracle(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    rim = {v for t in m.faces[outer] for v in (m.dart_vertex[t],)}
    value = magnetization(m, j, outer, 0)
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
    assert magnetization(m, j, outer, rim_vertex) == 1.0


def test_magnetization_strong_coupling_saturates(maps):
    m = maps["wheel_4"]
    j = uniform_couplings(m.edge_count, 5.0)
    outer = max(range(m.face_count), key=lambda f: len(m.faces[f]))
    assert magnetization(m, j, outer, 0) == pytest.approx(1.0, abs=1e-3)


def test_duality_per_edge_relation(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    reports = kw_duality_check(m, j, None)
    assert reports["per_edge_duality"].passed
    assert reports["per_edge_duality"].tol == 1e-12
    assert reports["modified_duality"].passed
    assert reports["correlator_duality"].passed


def test_duality_with_defects(maps, rng):
    for name in ("k3", "c4"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        d = validate_defects(m, (PathSpec((0, 1), (0,)),), ())
        reports = kw_duality_check(m, j, d)
        assert all(r.passed for r in reports.values())
