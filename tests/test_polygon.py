"""Even-subgraph enumeration and the pair-polygon identity, checked
against a 2^|E| subset filter and the spin-sum oracle."""

from __future__ import annotations

import pytest

from bozon import (
    DefectSet,
    PolygonPair,
    base_couplings,
    cycle_basis_masks,
    enumerate_polygons,
    modify_couplings,
    pair_polygon_sum,
    polygon_weights,
    verify_squared_partition,
)
from bozon.errors import OverlapError, TooLarge
from bozon.polygon import PolygonConfig, _mask_products, polygon_masks

from conftest import modified_values, oracle_even_subgraphs, oracle_partition, random_j


def test_cycle_basis_size(maps):
    for m in maps.values():
        dim = m.edge_count - m.vertex_count + 1
        assert len(cycle_basis_masks(m)) == dim


def test_basis_masks_are_polygons(maps):
    m = maps["grid_3_3"]
    for mask in cycle_basis_masks(m):
        edges = [e for e in range(m.edge_count) if mask >> e & 1]
        PolygonConfig.from_edges(m, "primal", edges)  # raises if odd degree


def test_polygon_count_is_power_of_two(maps):
    for m in maps.values():
        dim = m.edge_count - m.vertex_count + 1
        assert len(polygon_masks(m)) == 1 << dim


def test_polygon_masks_match_subset_filter(maps):
    for name in ("k3", "c4", "grid_2_3", "wheel_4", "grid_3_3"):
        m = maps[name]
        assert sorted(polygon_masks(m)) == oracle_even_subgraphs(m)


def test_dual_polygons_match_subset_filter(maps, duals):
    for name in ("k3", "c4", "grid_2_3"):
        dm = duals[name]
        assert sorted(polygon_masks(dm)) == oracle_even_subgraphs(dm)


def test_polygon_masks_cap():
    from bozon import grid

    m = grid(5, 6)
    with pytest.raises(TooLarge):
        polygon_masks(m)


def test_polygon_config_rejects_odd_degree(maps):
    with pytest.raises(OverlapError):
        PolygonConfig.from_edges(maps["c4"], "primal", [0])


def test_polygon_pair_rejects_crossing(maps, duals):
    m = maps["c4"]
    p = PolygonConfig.from_edges(m, "primal", [0, 1, 2, 3])
    q = PolygonConfig.from_edges(duals["c4"], "dual", [0, 1])
    with pytest.raises(OverlapError):
        PolygonPair(primal=p, dual=q)


def test_enumerate_polygons_edges_match_masks(maps):
    m = maps["c4"]
    for p in enumerate_polygons(m):
        mask = 0
        for e in p.edges:
            mask |= 1 << e
        assert mask == p.mask


def test_polygon_weights_free_fermion(maps, rng):
    m = maps["grid_2_3"]
    j = base_couplings(random_j(rng, m.edge_count))
    for d in (DefectSet.empty(), DefectSet.from_edge_sets({0}, {3})):
        w = polygon_weights(m, modify_couplings(j, d))
        for e in range(m.edge_count):
            assert w.free_fermion_residual(e) <= 1e-12


def test_polygon_weights_constant_forms_agree(maps, rng):
    m = maps["k3"]
    j = base_couplings(random_j(rng, m.edge_count))
    for d in (DefectSet.empty(), DefectSet.from_edge_sets({1}, set())):
        w = polygon_weights(m, modify_couplings(j, d))
        assert w.constant == pytest.approx(w.constant_factored, rel=1e-12)


def test_pair_polygon_sum_equals_squared_z(maps, duals, rng):
    for name in ("k3", "c4", "grid_2_3"):
        m = maps[name]
        j = base_couplings(random_j(rng, m.edge_count))
        z = oracle_partition(m, list(j.real))
        total = pair_polygon_sum(m, duals[name], j)
        assert total == pytest.approx(abs(z) ** 2, rel=1e-11)


def test_pair_polygon_sum_modified(maps, duals, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, m.edge_count))
    gamma, gamma_star = {0}, {2}
    jbar = modify_couplings(j, DefectSet.from_edge_sets(gamma, gamma_star))
    zbar = oracle_partition(m, modified_values(j, gamma, gamma_star))
    total = pair_polygon_sum(m, duals["c4"], jbar)
    assert total == pytest.approx((zbar * zbar).real, rel=1e-11)
    assert abs((zbar * zbar).imag) < 1e-12 * abs(zbar) ** 2


def test_verify_squared_partition_reports(maps, rng):
    m = maps["wheel_4"]
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {4})
    report = verify_squared_partition(m, j, d)
    assert report.passed
    assert report.extra == {"gamma": 1, "gamma_star": 1}


def test_mask_products_match_per_mask_loop(maps, duals, rng):
    for name, m in maps.items():
        for carrier in (m, duals[name]):
            masks = polygon_masks(carrier)
            weights = [rng.choice((0.0, rng.uniform(-2.0, 2.0)))
                       for _ in range(carrier.edge_count)]
            want = []
            for mask in masks:
                t = 1.0
                for e in range(carrier.edge_count):
                    if mask >> e & 1:
                        t *= weights[e]
                want.append(t)
            assert _mask_products(masks, weights).tolist() == want, name
