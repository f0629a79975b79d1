"""JSON (de)serialization for maps, couplings, defects, and reports.

All dumps are canonical and compact (sorted keys, no whitespace, one
trailing newline, no timestamps), so json's C encoder writes them and
identical inputs produce byte-identical files.  ENCODER is that encoder; a
dict encodes the same alone as nested, so a report can go record by record.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from .dimer import QuadDimerGraph
from .errors import LengthMismatch, MalformedRotation, NonPositiveCoupling
from .ising import CouplingAssignment, base_couplings
from .planar_map import CombinatorialMap, DefectSet, PathSpec, build_map

ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    return ENCODER.encode(obj) + "\n"


# ---------------------------------------------------------------- graphs


def map_to_dict(m: CombinatorialMap) -> dict[str, Any]:
    return {
        "vertices": [
            {"id": v, "darts": list(m.vertex_darts[v])}
            for v in range(m.vertex_count)
        ],
        "edges": [
            {"id": e, "darts": list(m.edge_darts[e])}
            for e in range(m.edge_count)
        ],
    }


def _dense_ids(items: Sequence[Mapping[str, Any]], what: str) -> list[Mapping[str, Any]]:
    try:
        ordered = sorted(items, key=lambda it: it["id"])
    except (TypeError, KeyError) as exc:
        raise MalformedRotation(f"every {what} needs an integer id") from exc
    ids = [it["id"] for it in ordered]
    if ids != list(range(len(ids))):
        raise MalformedRotation(f"{what} ids must be dense 0..{len(ids) - 1}, got {ids}")
    return ordered


def _int(value: Any, what: str) -> int:
    """A JSON integer; int() would truncate 1.5 and parse "7"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedRotation(f"{what} must be an integer, got {value!r}")
    return value


def map_from_dict(obj: Mapping[str, Any]) -> CombinatorialMap:
    if not isinstance(obj, Mapping) or "vertices" not in obj or "edges" not in obj:
        raise MalformedRotation("graph object needs 'vertices' and 'edges'")
    vertices = _dense_ids(obj["vertices"], "vertex")
    edges = _dense_ids(obj["edges"], "edge")
    rotations = []
    for it in vertices:
        darts = it.get("darts")
        if not isinstance(darts, list):
            raise MalformedRotation(f"vertex {it['id']} needs a dart list")
        rotations.append([_int(d, f"vertex {it['id']} dart") for d in darts])
    pairs = []
    for it in edges:
        darts = it.get("darts")
        if not isinstance(darts, list) or len(darts) != 2:
            raise MalformedRotation(f"edge {it['id']} needs exactly two darts")
        pairs.append(tuple(_int(d, f"edge {it['id']} dart") for d in darts))
    return build_map(rotations, pairs)


# ------------------------------------------------------------- couplings


def couplings_to_dict(j: CouplingAssignment) -> dict[str, Any]:
    return {
        "edges": [{"id": e, "J": j.real[e]} for e in range(j.edge_count)]
    }


def couplings_from_dict(
    obj: Mapping[str, Any], edge_count: int | None = None
) -> CouplingAssignment:
    if not isinstance(obj, Mapping) or "edges" not in obj:
        raise NonPositiveCoupling("couplings object needs an 'edges' list")
    items = _dense_ids(obj["edges"], "coupling")
    values = []
    for it in items:
        if "J" not in it:
            raise NonPositiveCoupling(f"coupling {it['id']} needs a J value")
        v = it["J"]
        # a JSON number: float() would read true as 1.0 and parse "0.5"
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise NonPositiveCoupling(f"coupling {it['id']} J must be a number, got {v!r}")
        values.append(v)  # base_couplings checks each is a finite J > 0
    if edge_count is not None and len(values) != edge_count:
        raise LengthMismatch(
            f"{len(values)} couplings for {edge_count} edges"
        )
    return base_couplings(values)


# --------------------------------------------------------------- defects


def _path_to_dict(p: PathSpec) -> dict[str, Any]:
    return {"endpoints": list(p.endpoints), "edges": list(p.edges)}


def _path_from_dict(obj: Mapping[str, Any]) -> PathSpec:
    try:
        u, v = obj["endpoints"]
        edges = tuple(_int(e, "path edge") for e in obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRotation(
            "each path needs 'endpoints' [u, v] and an 'edges' list"
        ) from exc
    return PathSpec((_int(u, "path endpoint"), _int(v, "path endpoint")), edges)


def defects_to_dict(d: DefectSet) -> dict[str, Any]:
    return {
        "order_paths": [_path_to_dict(p) for p in d.order_paths],
        "disorder_paths": [_path_to_dict(p) for p in d.disorder_paths],
    }


def defect_paths_from_dict(
    obj: Mapping[str, Any],
) -> tuple[tuple[PathSpec, ...], tuple[PathSpec, ...]]:
    """Parse the two path families; validation against a map happens in
    validate_defects, which the caller owns."""
    if not isinstance(obj, Mapping):
        raise MalformedRotation("defects object must be a mapping")

    def family(key: str) -> tuple[PathSpec, ...]:
        paths = obj.get(key, ())
        if not isinstance(paths, (list, tuple)):
            raise MalformedRotation(f"'{key}' must be a list of paths")
        return tuple(_path_from_dict(p) for p in paths)

    return family("order_paths"), family("disorder_paths")


# -------------------------------------------------------------------- G_Q


def gq_to_dict(
    gq: QuadDimerGraph, weights: Sequence[float] | None = None
) -> dict[str, Any]:
    """G_Q as JSON: vertices with bipartition class, edges with kind (and
    weight when given), quads grouped per primal edge."""
    out: dict[str, Any] = {
        "vertices": [
            {"id": v, "class": "black" if gq.color[v] == 0 else "white"}
            for v in range(gq.vertex_count)
        ],
        "edges": [],
        "quads": [
            {
                "edge": q.edge,
                "vertices": list(q.vertices),
                "primal_parallel": list(q.primal_parallel),
                "dual_parallel": list(q.dual_parallel),
            }
            for q in gq.quads
        ],
    }
    for k in range(gq.edge_count):
        u, v = gq.map.edge_endpoints(k)
        rec: dict[str, Any] = {
            "id": k,
            "endpoints": [u, v],
            "kind": gq.edge_kind[k],
            "primal_edge": gq.edge_primal_edge[k],
        }
        if weights is not None:
            rec["weight"] = weights[k]
        out["edges"].append(rec)
    return out
