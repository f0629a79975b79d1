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
    reduce_dobrushin,
    reduce_plus,
    build_map,
    builtin,
    dual,
    dual_couplings,
    high_temp_expansion_check,
    modify_couplings,
    partition_function,
    spin_expectation,
    uniform_couplings,
)
from bozon.errors import (
    CouplingUnderflow,
    LengthMismatch,
    NonPositiveCoupling,
    OverlapError,
    TooLarge,
)
from bozon.ising import _sweep, i_power
from bozon.instances import FAMILY

from conftest import (
    generic_spin_sum,
    rescanning_vertex_plan,
    modified_values,
    oracle_expectation,
    oracle_partition,
    random_j,
)

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
    d = DefectSet((), (), frozenset({0}), frozenset({0}))
    with pytest.raises(OverlapError):
        modify_couplings(j, d)


@pytest.mark.parametrize("e", [-1, 4])
def test_modify_couplings_rejects_defect_edges_off_the_map(maps, e):
    j = uniform_couplings(maps["c4"].edge_count, 0.5)
    with pytest.raises(ValueError, match="defect edge id out of range"):
        modify_couplings(j, DefectSet.from_edge_sets({e}, set()))
    with pytest.raises(ValueError, match="defect edge id out of range"):
        modify_couplings(j, DefectSet.from_edge_sets(set(), {e}))


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
    assert partition_function(m, j, fixed={}) == partition_function(m, j)


def test_partition_function_phase_is_exact(maps, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, m.edge_count))
    jbar = modify_couplings(j, DefectSet.from_edge_sets({0}, set()))
    z = partition_function(m, jbar)
    # one flagged edge: exactly i times a real number
    assert z.real == 0.0
    assert close(z, oracle_partition(m, modified_values(j, {0})))


def test_partition_function_cap():
    """The plan alone shows the 17-spin frontier, so the sweep raises
    before it makes a state."""
    m = builtin("grid_17_17")
    for _ in range(2):  # a failing input raises every time
        with pytest.raises(TooLarge, match=r"^spin sweep holds 131072 states, cap is 65536$"):
            partition_function(m, uniform_couplings(m.edge_count, 0.5))


@pytest.mark.parametrize("v", [-1, 4])
def test_fixed_spin_off_the_map_is_rejected(maps, v):
    m = maps["c4"]
    for _ in range(2):  # a failing input raises every time
        with pytest.raises(ValueError, match="is not a vertex"):
            partition_function(m, uniform_couplings(m.edge_count, 0.5), fixed={v: 1})


@pytest.mark.parametrize("vertices", [[99], [0, -1], [4, 1, 2], [99, 99]])
def test_observable_off_the_map_is_rejected(maps, vertices):
    m = maps["c4"]
    with pytest.raises(ValueError, match="is not a vertex"):
        spin_expectation(m, uniform_couplings(m.edge_count, 0.5), vertices)


def test_fixed_spins_do_not_count_toward_the_cap():
    m = builtin("grid_17_17")
    j = uniform_couplings(m.edge_count, 0.5)
    fixed = dict.fromkeys(range(m.vertex_count), 1)
    z = partition_function(m, j, fixed=fixed)
    assert z == pytest.approx(math.exp(0.5 * m.edge_count), rel=1e-12)


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
    value = partition_function(m, modify_couplings(j, d)) / partition_function(m, j)
    want = oracle_partition(m, modified_values(j, {0}, {5})) / oracle_partition(
        m, list(j.real)
    )
    assert close(value, want)


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


def test_dual_couplings_keep_precision_at_strong_coupling():
    # -(1/2) ln tanh 20 = 4.2483542552915889953e-18 (50-digit reference);
    # evaluated as written it gives -0.0, since tanh 20 rounds to 1
    js = dual_couplings(base_couplings([20.0]))
    assert math.isclose(js.real[0], 4.2483542552915889953e-18, rel_tol=1e-12)


@pytest.mark.parametrize("a", [1e-320, 5e-309])
def test_dual_couplings_of_a_subnormal_coupling_are_finite(a):
    # J* = (1/2) ln coth J = -(1/2) ln J to double precision at such J,
    # while 2x/(1 - x) overflows there
    assert math.isclose(dual_couplings(base_couplings([a])).real[0], -0.5 * math.log(a), rel_tol=1e-12)


def test_dual_couplings_underflow_is_typed():
    assert dual_couplings(base_couplings([372.0])).real[0] > 0
    with pytest.raises(CouplingUnderflow, match="underflows"):
        dual_couplings(base_couplings([0.5, 400.0]))


# ------------------------------------------------- the frontier sweep

# every builtin map the seeded suites and the benchmark workloads draw
SWEEP_MAPS = (
    "k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5", "grid_3_4",
    "grid_4_4", "grid_3_5", "grid_2_8", "wheel_8", "wheel_10", "wheel_12",
)


def peak_live(m):
    """Largest number of vertices in one sweep state, the new one included."""
    live = peak = 0
    for v, _back, keep in m.vertex_plan[1]:
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
    order = [v for v, _back, _keep in m.vertex_plan[1]]
    assert sorted(order) == list(range(m.vertex_count))
    assert m.vertex_plan is m.vertex_plan


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


@pytest.mark.parametrize("name", SWEEP_MAPS)
def test_high_temp_expansion_on_builtins(rng, name):
    m = builtin(name)
    j = base_couplings(random_j(rng, m.edge_count))
    for jj, _values in coupling_kinds(m, j):
        lhs, rhs = high_temp_expansion_check(m, jj)
        assert close(lhs, rhs), name


def test_high_temp_expansion_on_self_loop_map(rng):
    m = dual(build_map([[0], [1]], [(0, 1)]))
    j = base_couplings(random_j(rng, 1))
    for jj, values in coupling_kinds(m, j):
        lhs, rhs = high_temp_expansion_check(m, jj)
        assert close(lhs, oracle_partition(m, values))
        assert close(lhs, rhs)


# ------------------------------------ the specialised step and the memo


# one vertex with a self-loop, and two vertices joined by five edges,
# whose second vertex has more back edges than the written-out loops take
EXTRA_SWEEP_MAPS = {
    "self_loop": lambda: dual(build_map([[0], [1]], [(0, 1)])),
    "dipole_5": lambda: build_map(
        [[0, 2, 4, 6, 8], [9, 7, 5, 3, 1]], [(2 * e, 2 * e + 1) for e in range(5)]
    ),
}
STEP_MAPS = (*FAMILY, "wheel_8", "grid_3_4", *EXTRA_SWEEP_MAPS)


def step_map(name):
    return EXTRA_SWEEP_MAPS[name]() if name in EXTRA_SWEEP_MAPS else builtin(name)


@pytest.mark.parametrize("name", STEP_MAPS)
def test_sweep_step_is_bit_identical_to_the_generic_loop(rng, name):
    """The written-out loops and the generic one against the reference
    loop: equal bit for bit, with order (flagged) and disorder (negated)
    edges, fixed spins and even and odd observable sets."""
    m = step_map(name)
    n = m.vertex_count
    j = base_couplings(random_j(rng, m.edge_count))
    face = {v: rng.choice((1, -1)) for v in m.face_vertices(0)}
    for jj, _values in coupling_kinds(m, j):
        for fixed in ({}, face, {n - 1: -1}):
            for obs in ((), (0,), (0, n - 1), tuple(range(n))):
                want = generic_spin_sum(m, jj.real, jj.half_pi, fixed, set(obs))
                got = _sweep(m, jj.real, jj.half_pi, fixed, set(obs))
                assert got.hex() == want.hex(), (fixed, obs)


def _reduced_maps(m):
    """The maps reduce_plus and reduce_dobrushin leave on every face of m."""
    j = uniform_couplings(m.edge_count, 1.0)
    d = DefectSet.empty()
    for face in range(m.face_count):
        yield reduce_plus(m, j, d, face).new_map
        length = len(m.faces[face])
        if len(set(m.face_vertices(face))) == length:
            for b in range(1, length):
                yield reduce_dobrushin(m, j, d, face, (0, b)).new_map


@pytest.mark.parametrize("name", (*SWEEP_MAPS, *EXTRA_SWEEP_MAPS))
def test_vertex_plan_matches_the_rescanning_reference(name):
    """The incremental frontier picks the reference's greedy order: on the
    map, its dual and every map its boundary reductions leave."""
    m = step_map(name)
    carriers = {m, m.dual}
    if name in SWEEP_MAPS:
        carriers.update(_reduced_maps(m))
    for c in carriers:
        assert c.vertex_plan == rescanning_vertex_plan(c), (c.vertex_count, c.edge_count)


def test_sweep_maps_cover_every_written_out_step():
    backs = {
        min(len(back), 4)
        for name in STEP_MAPS
        for _v, back, _keep in step_map(name).vertex_plan[1]
    }
    assert backs == {0, 1, 2, 3, 4}
