"""Exact spin sums, modified couplings, and the high-temperature expansion,
checked against plain-Python oracles."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bozon import (
    CouplingAssignment,
    DefectSet,
    base_couplings,
    build_map,
    builtin,
    dual,
    dual_couplings,
    high_temp_expansion_check,
    modify_couplings,
    order_disorder_correlation,
    partition_function,
    spin_expectation,
    uniform_couplings,
)
from bozon.errors import (
    LengthMismatch,
    NonPositiveCoupling,
    OverlapError,
    TooLarge,
)
from bozon.ising import _sweep_order, i_power

from conftest import modified_values, oracle_expectation, oracle_partition, random_j

REL = 1e-12


def close(a, b, tol=REL):
    return abs(complex(a) - complex(b)) <= tol * max(abs(complex(a)), abs(complex(b)), 1.0)


def test_i_power_table():
    assert [i_power(k) for k in range(4)] == [1, 1j, -1, -1j]
    assert i_power(-1) == -1j
    assert i_power(7) == i_power(3)


@settings(derandomize=True, max_examples=50)
@given(st.floats(0.05, 3.0), st.booleans())
def test_coupling_closed_forms_match_cmath(a, flag):
    j = CouplingAssignment(real=(a,), half_pi=(flag,))
    z = j.value(0)
    assert cmath.isclose(j.tanh1(0), cmath.tanh(z), rel_tol=1e-12)
    assert cmath.isclose(j.cosh1(0), cmath.cosh(z), rel_tol=1e-12)
    assert cmath.isclose(j.tanh2(0), cmath.tanh(2 * z), rel_tol=1e-12)
    assert cmath.isclose(j.cosh2(0), cmath.cosh(2 * z), rel_tol=1e-12)
    assert cmath.isclose(j.sech2(0), 1 / cmath.cosh(2 * z), rel_tol=1e-12)


def test_base_couplings_require_positive():
    with pytest.raises(NonPositiveCoupling):
        base_couplings([0.5, 0.0])
    with pytest.raises(NonPositiveCoupling):
        base_couplings([-0.2])


def test_modify_couplings_rule():
    j = base_couplings([0.3, 0.7, 1.1])
    jbar = modify_couplings(j, DefectSet.from_edge_sets({0}, {2}))
    assert jbar.half_pi == (True, False, False)
    assert jbar.real == (0.3, 0.7, -1.1)
    assert jbar.phase_power == 1


def test_modify_couplings_rejects_overlap():
    j = base_couplings([0.3, 0.7])
    d = DefectSet((), (), frozenset({0}), frozenset({0}), (), ())
    with pytest.raises(OverlapError):
        modify_couplings(j, d)


def test_partition_function_matches_oracle(maps, rng):
    for name in ("k3", "c4", "grid_2_3", "wheel_4"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        assert close(partition_function(m, j), oracle_partition(m, list(j.real)))


def test_modified_partition_function_matches_oracle(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    for gamma, gamma_star in (({0}, set()), (set(), {3}), ({1}, {4}), ({0, 2}, {5})):
        jbar = modify_couplings(j, DefectSet.from_edge_sets(gamma, gamma_star))
        want = oracle_partition(m, modified_values(j, gamma, gamma_star))
        assert close(partition_function(m, jbar), want)


def test_partition_function_with_fixed_spins(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    fixed = {0: 1, 2: -1}
    assert close(
        partition_function(m, j, fixed=fixed),
        oracle_partition(m, list(j.real), fixed=fixed),
    )


def test_partition_function_phase_is_exact(maps, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, m.edge_count))
    jbar = modify_couplings(j, DefectSet.from_edge_sets({0}, set()))
    z = partition_function(m, jbar)
    # one flagged edge: exactly i times a real number
    assert z.real == 0.0
    assert close(z, oracle_partition(m, modified_values(j, {0})))


def test_partition_function_cap():
    m = builtin("grid_5_6")
    with pytest.raises(TooLarge):
        partition_function(m, uniform_couplings(m.edge_count, 0.5))


def test_partition_function_length_check(maps):
    with pytest.raises(LengthMismatch):
        partition_function(maps["c4"], base_couplings([0.5]))


def test_spin_expectation_matches_oracle(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    for obs in ((0, 5), (1, 2, 3, 4), (0, 0)):
        want = oracle_expectation(m, list(j.real), obs)
        assert close(spin_expectation(m, j, obs), want)
    assert spin_expectation(m, j, (0, 0)) == 1.0


def test_spin_expectation_odd_product_vanishes(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    assert abs(spin_expectation(m, j, (0,))) < 1e-14


def test_order_disorder_correlation_matches_oracle(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {5})
    c = order_disorder_correlation(m, j, d)
    want = oracle_partition(m, modified_values(j, {0}, {5})) / oracle_partition(
        m, list(j.real)
    )
    assert close(c.value, want)
    assert (c.gamma_size, c.gamma_star_size) == (1, 1)
    assert close(c.normalized, i_power(-1) * c.value)


def test_high_temp_expansion(maps, rng):
    for name in ("k3", "c4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        lhs, rhs = high_temp_expansion_check(m, j)
        assert close(lhs, rhs)


def test_high_temp_expansion_modified(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    jbar = modify_couplings(j, DefectSet.from_edge_sets({1}, {3}))
    lhs, rhs = high_temp_expansion_check(m, jbar)
    assert close(lhs, rhs)


def test_dual_couplings_involution_direction(rng):
    j = base_couplings(random_j(rng, 5))
    js = dual_couplings(j)
    for e in range(5):
        # defining relation: tanh(J*) = exp(-2J)
        assert math.isclose(math.tanh(js.real[e]), math.exp(-2 * j.real[e]), rel_tol=1e-12)
    jss = dual_couplings(js)
    for e in range(5):
        assert math.isclose(jss.real[e], j.real[e], rel_tol=1e-12)


def test_dual_couplings_reject_modified():
    j = CouplingAssignment(real=(0.5,), half_pi=(True,))
    with pytest.raises(NonPositiveCoupling):
        dual_couplings(j)


# ------------------------------------------------- the frontier sweep

# every builtin map the seeded suites and the benchmark workloads draw
SWEEP_MAPS = (
    "k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5", "grid_3_4",
    "grid_4_4", "grid_3_5", "grid_2_8", "wheel_8", "wheel_10", "wheel_12",
)


def peak_live(m):
    """Largest number of vertices in one sweep state, the new one included."""
    live = peak = 0
    for v, _back, keep in _sweep_order(m)[1]:
        live |= 1 << v
        peak = max(peak, bin(live).count("1"))
        live &= keep
    assert live == 0
    return peak


def k_2_n(n, hubs_first):
    """K_{2,n} on the sphere.  Edges 2k and 2k+1 join leaf k to hubs A and
    B; the hubs are vertices 0, 1 or n, n+1."""
    a, b = (0, 1) if hubs_first else (n, n + 1)
    leaf = [k + 2 if hubs_first else k for k in range(n)]
    rotations = [None] * (n + 2)
    rotations[a] = [4 * k for k in range(n)]
    rotations[b] = [4 * k + 2 for k in reversed(range(n))]
    for k in range(n):
        rotations[leaf[k]] = [4 * k + 1, 4 * k + 3]
    edges = [(2 * e, 2 * e + 1) for e in range(2 * n)]
    return build_map(rotations, edges)


@pytest.mark.parametrize("hubs_first", (True, False))
def test_sweep_on_k_2_22_matches_closed_form(rng, hubs_first):
    n = 22
    m = k_2_n(n, hubs_first)
    assert peak_live(m) <= 3
    j = base_couplings(random_j(rng, m.edge_count))
    for jj in (j, modify_couplings(j, DefectSet.from_edge_sets((), {0, 3, 8}))):
        want = sum(
            math.prod(
                2 * math.cosh(x * jj.real[2 * k] + y * jj.real[2 * k + 1])
                for k in range(n)
            )
            for x in (1, -1)
            for y in (1, -1)
        )
        assert close(partition_function(m, jj), want)


@pytest.mark.parametrize("name", SWEEP_MAPS)
def test_sweep_order_is_narrow_on_builtins(name):
    m = builtin(name)
    assert peak_live(m) <= 5
    order = [v for v, _back, _keep in _sweep_order(m)[1]]
    assert sorted(order) == list(range(m.vertex_count))
    assert _sweep_order(m) is _sweep_order(m)


def coupling_kinds(m, j):
    """(assignment, oracle values) for plain, flagged and negated J."""
    flagged, negated = {0, m.edge_count - 1}, {m.edge_count // 2}
    return (
        (j, list(j.real)),
        (modify_couplings(j, DefectSet.from_edge_sets(flagged, ())),
         modified_values(j, flagged)),
        (modify_couplings(j, DefectSet.from_edge_sets((), negated)),
         modified_values(j, (), negated)),
    )


@pytest.mark.parametrize(
    "name", [n for n in SWEEP_MAPS if builtin(n).vertex_count <= 12]
)
def test_sweep_matches_oracle_on_builtins(rng, name):
    m = builtin(name)
    n = m.vertex_count
    j = base_couplings(random_j(rng, m.edge_count))
    face = {v: rng.choice((1, -1)) for v in m.face_vertices(0)}
    obs = (0, n - 1, n - 1, 1, 1, 1)
    for jj, values in coupling_kinds(m, j):
        for fixed in (None, face, {n - 1: -1}):
            assert close(
                partition_function(m, jj, fixed=fixed),
                oracle_partition(m, values, fixed=fixed),
            )
            assert close(
                spin_expectation(m, jj, obs, fixed=fixed),
                oracle_expectation(m, values, obs, fixed=fixed),
            )


def test_sweep_on_self_loop_map(rng):
    m = dual(build_map([[0], [1]], [(0, 1)]))
    assert (m.vertex_count, m.edge_count, m.edge_endpoints(0)) == (1, 1, (0, 0))
    j = base_couplings(random_j(rng, 1))
    for jj, values in coupling_kinds(m, j):
        assert close(partition_function(m, jj), oracle_partition(m, values))
        assert close(
            partition_function(m, jj, fixed={0: -1}),
            oracle_partition(m, values, fixed={0: -1}),
        )
        assert spin_expectation(m, jj, (0,)) == 0.0
        assert spin_expectation(m, jj, (0, 0)) == 1.0
