"""JSON round-trips for maps, couplings, defects, and the dimer graph."""

from __future__ import annotations

import json

import pytest

from bozon import (
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
    validate_defects,
)
from bozon.errors import LengthMismatch, MalformedRotation, NonPositiveCoupling
from bozon.reports import compare

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


def test_canonical_json_is_compact():
    obj = {"b": [1.5, {"d": None, "c": True}], "a": "x"}
    text = canonical_json(obj)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1 and text.endswith("\n")


def _bits(x):
    return [_bits(v) for v in x] if isinstance(x, list) else float(x).hex()


def test_canonical_json_floats_round_trip_bit_exactly():
    values = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, -1.7976931348623157e308]
    again = json.loads(canonical_json(values))
    assert _bits(again) == _bits(values)

    rep = compare("z", complex(-0.0, 5e-324), complex(1e-300, 0.1 + 0.2))
    rec = {"checks": [rep.to_dict()], "pass": rep.passed}
    loaded = json.loads(canonical_json(rec))
    assert loaded == rec
    for key in ("lhs", "rhs"):
        assert isinstance(loaded["checks"][0][key], list)
        assert _bits(loaded["checks"][0][key]) == _bits(rec["checks"][0][key])
