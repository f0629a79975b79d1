"""JSON round-trips for maps, couplings, defects, and the dimer graph."""

from __future__ import annotations

import json

import pytest

from bozon import (
    DefectSet,
    PathSpec,
    base_couplings,
    build_gq,
    canonical_json,
    couplings_from_dict,
    couplings_to_dict,
    defect_paths_from_dict,
    defects_to_dict,
    gq_to_dict,
    map_from_dict,
    map_to_dict,
    nu_from_couplings,
    order_disorder_correlation,
    validate_defects,
)
from bozon.errors import LengthMismatch, MalformedRotation, NonPositiveCoupling
from bozon.serialize import correlator_to_dict

from conftest import random_j


def test_map_round_trip(maps):
    for m in maps.values():
        again = map_from_dict(map_to_dict(m))
        assert again.vertex_darts == m.vertex_darts
        assert again.edge_darts == m.edge_darts


def test_map_dict_shape(maps):
    obj = map_to_dict(maps["k3"])
    assert {v["id"] for v in obj["vertices"]} == {0, 1, 2}
    assert all(len(e["darts"]) == 2 for e in obj["edges"])


def test_map_from_dict_rejects_sparse_ids(maps):
    obj = map_to_dict(maps["k3"])
    obj["vertices"][1]["id"] = 7
    with pytest.raises(MalformedRotation):
        map_from_dict(obj)


def test_couplings_round_trip(rng):
    j = base_couplings(random_j(rng, 5))
    again = couplings_from_dict(couplings_to_dict(j), 5)
    assert again.real == j.real
    with pytest.raises(LengthMismatch):
        couplings_from_dict(couplings_to_dict(j), 4)


def test_couplings_from_dict_requires_fields():
    with pytest.raises(NonPositiveCoupling):
        couplings_from_dict({"edges": [{"id": 0}]}, 1)


def test_defects_round_trip(maps):
    m = maps["grid_3_3"]
    d = validate_defects(m, (PathSpec((3, 4), (2,)),), ())
    obj = defects_to_dict(d)
    order, disorder = defect_paths_from_dict(obj)
    assert order == d.order_paths
    assert disorder == d.disorder_paths


def test_correlator_dict_shape(maps, rng):
    m = maps["c4"]
    j = base_couplings(random_j(rng, 4))
    d = DefectSet.from_edge_sets({0}, {2})
    c = order_disorder_correlation(m, j, d)
    obj = correlator_to_dict(c, d)
    assert set(obj) == {"value_re", "value_im", "gamma", "gamma_star"}
    assert obj["gamma"] == [0]
    assert obj["gamma_star"] == [2]
    assert complex(obj["value_re"], obj["value_im"]) == c.value


def test_gq_dict_counts(maps, rng):
    m = maps["k3"]
    gq = build_gq(m)
    j = base_couplings(random_j(rng, 3))
    obj = gq_to_dict(gq, nu_from_couplings(gq, j))
    assert len(obj["vertices"]) == 12
    assert len(obj["edges"]) == 18
    assert all("weight" in e for e in obj["edges"])
    assert {v["class"] for v in obj["vertices"]} == {"black", "white"}
    plain = gq_to_dict(gq)
    assert all("weight" not in e for e in plain["edges"])


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}
