"""Verification suites: seeded instance streams run through the identity
checks, one record per instance.

Records are plain dicts (JSON-ready) carrying full replay provenance.
Instances run one after another in stream order, so a seed fixes the
report byte for byte.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Any, Callable, Iterable, Iterator, Sequence

from .boundary import clear_faces
from .consequences import COROLLARY, magnetization_report
from .dimer import matching_count_report
from .errors import BozonError, TooLarge
from .graphs import builtin
from .instances import Instance, random_instances
from .ising import CouplingAssignment, base_couplings, uniform_couplings
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    build_map,
    validate_defects,
)
from .polygon import polygon_weights
from .reports import Edge, IdentityReport, edge_reports
from .serialize import couplings_to_dict

DEFAULT_COUNT = 100
DEFAULT_SEED = 1


def worker_count() -> int:
    """Always 1: suites run serially.  Kept for the benchmark's environment
    record, which reports this number."""
    return 1


def _record(
    fields: dict[str, Any], thunk: Callable[[], list[IdentityReport]]
) -> dict[str, Any]:
    """A suite record: ``fields`` (suite, scope and provenance), then the
    checks ``thunk`` returns and the verdict.  TooLarge propagates, since
    the input is too large to verify at all; any other bozon error, or a
    float overflow, leaves no checks and an ``error`` entry."""
    error = None
    try:
        reports = thunk()
    except TooLarge:
        raise
    except (BozonError, OverflowError) as exc:
        reports, error = [], f"{type(exc).__name__}: {exc}"
    rec = dict(fields)
    rec["checks"] = [r.to_dict() for r in reports]
    rec["pass"] = error is None and bool(reports) and all(r.passed for r in reports)
    if error is not None:
        rec["error"] = error
    return rec


def suite_summary(records: Iterable[dict]) -> dict[str, Any]:
    """The report's summary, reading each record's "pass" as it goes by."""
    verdicts = [bool(r.get("pass")) for r in records]
    failed = [i for i, ok in enumerate(verdicts) if not ok]
    return {
        "total": len(verdicts),
        "failed": len(failed),
        "failed_indices": failed,
        "pass": not failed,
    }


# ------------------------------------------------------ per-instance checks


# The per-edge duality residuals are single closed-form values, held to a
# tolerance of their own.
EDGE_TOL = 1e-12


def _gammas(inst: Instance) -> dict[str, int]:
    return {"gamma": len(inst.defects.gamma), "gamma_star": len(inst.defects.gamma_star)}


def _sign(inst: Instance) -> int:
    """The paper's sign (-1)^{|Gamma|}, predicted."""
    return (-1) ** len(inst.defects.gamma)


def _per_edge_residual(inst: Instance) -> float:
    """max_e |sech(2J*_e) - tanh(2J_e)| (0.0 on a map without an edge)."""
    j, js = inst.couplings, inst.dual.couplings
    return max((abs(js.sech2(e) - j.tanh2(e)) for e in range(inst.map.edge_count)), default=0.0)


def _modified_residual(inst: Instance) -> float:
    """max_e |exp(-2Jbar*_e) - tanh(Jbar_e)| (0.0 on a map without an edge)."""
    jbar, jbar_star = inst.jbar, inst.dual.jbar
    return max(
        (abs(cmath.exp(-2 * jbar_star.value(e)) - cmath.tanh(jbar.value(e)))
         for e in range(inst.map.edge_count)),
        default=0.0,
    )


THEOREM1 = (
    # D(nu(J)) before the cosh product: a map without a G_Q raises
    # BridgeUnsupported, not the product's overflow
    Edge("squared_Z_vs_dimer", lambda i: i.z * i.z, lambda i: i.det * i.scale),
    Edge("squared_Zbar_vs_dimer", lambda i: i.zbar * i.zbar,
         lambda i: _sign(i) * i.scale * i.det_bar),
    Edge("theorem_main", lambda i: (i.zbar / i.z) ** 2,
         lambda i: _sign(i) * i.det_bar / i.det, sign=1,
         extra=lambda i: {**_gammas(i), "dimer_ratio": i.det_bar / i.det}),
)
PAIRPOLYGON = (
    Edge("squared_partition_pair_polygon", lambda i: i.zbar * i.zbar,
         lambda i: polygon_weights(i.map, i.jbar).constant * i.pair_sum, extra=_gammas),
)
BIPARTITEDIMER = (
    Edge("pair_polygon_vs_half_dimer", lambda i: i.pair_sum, lambda i: 0.5 * i.dimer_bar,
         extra=lambda i: {**_gammas(i), "method": i.route}),
)
# Kramers-Wannier duality between the map and its dual (G*, J*, defects
# swapped), three ways: sech(2J*_e) = tanh(2J_e); exp(-2Jbar*_e) =
# tanh(Jbar_e); and the two normalized correlators agree.
DUALITY = (
    Edge("per_edge_duality", _per_edge_residual, lambda i: 0.0, tol=EDGE_TOL),
    Edge("modified_duality", _modified_residual, lambda i: 0.0, tol=EDGE_TOL),
    Edge("correlator_duality", lambda i: i.correlator, lambda i: i.dual.correlator,
         extra=_gammas),
)


def _reduction_edge(name: str) -> Edge:
    """Z(Jbar) under one of the instance's seeded boundary conditions
    against scalar * Z_free of its reduction (see Instance.boundary); an
    edge whose reduction was not drawn gives no report."""
    return Edge(name, lambda i: i.boundary[name][0], lambda i: i.boundary[name][1],
                extra=lambda i: i.boundary[name][2], applies=lambda i: name in i.boundary)


BOUNDARY = tuple(map(_reduction_edge, ("reduce_plus", "reduce_plus_free", "reduce_dobrushin")))


def closed_form_records(seed: int, tol: float = 1e-9) -> Iterator[dict]:
    """tanh(J) on a single edge and (t + t^3)/(1 + t^4) on adjacent C4
    vertices, each the correlator of an order path on edge 0 from vertex 0
    to 1, which is also checked against the direct spin average; each
    record is built when it is asked for."""
    rng = random.Random(f"{seed}-closed-forms")

    def record(graph: str, m: CombinatorialMap, j: CouplingAssignment,
               check: str, closed_form: float) -> dict:
        fields = {
            "suite": "corollary",
            "scope": "closed_form",
            "graph": graph,
            "couplings": couplings_to_dict(j),
        }
        inst = Instance(m, j, validate_defects(m, (PathSpec((0, 1), (0,)),), ()))
        edges = (Edge(check, lambda i: i.correlator, lambda i: closed_form), COROLLARY[1])
        return _record(fields, lambda: edge_reports(edges, inst, tol))

    j_edge = rng.uniform(0.1, 2.0)
    yield record("single_edge", build_map([[0], [1]], [(0, 1)]), base_couplings([j_edge]),
                 "closed_form_single_edge", math.tanh(j_edge))
    j_c4 = rng.uniform(0.1, 2.0)
    t = math.tanh(j_c4)
    yield record("c4", builtin("c4"), uniform_couplings(4, j_c4),
                 "closed_form_c4_adjacent", (t + t**3) / (1 + t**4))


_MAGNETIZATION_SITES = (
    ("wheel_4", 0),  # hub with the rim as boundary
    ("grid_3_3", 4),  # center of the 3x3 patch
    ("wheel_5", 0),
)


def _magnetization_records(count: int, seed: int, tol: float) -> Iterator[dict]:
    """Fixed-plus boundary magnetization at 10 to 50 sites (``count``
    clamped): direct average vs contracted pair correlation vs dimer
    ratio (see magnetization_report)."""
    rng = random.Random(f"{seed}-magnetization")
    for i in range(max(10, min(count, 50))):
        name, u = _MAGNETIZATION_SITES[i % len(_MAGNETIZATION_SITES)]
        m = builtin(name)
        face = max(range(m.face_count), key=lambda f: len(m.faces[f]))
        j = base_couplings([rng.uniform(0.1, 2.0) for _ in range(m.edge_count)])
        fields = {
            "suite": "magnetization",
            "scope": "instance",
            "index": i,
            "graph": name,
            "seed": seed,
            "face": face,
            "vertex": u,
            "couplings": couplings_to_dict(j),
        }
        yield _record(fields, lambda: magnetization_report(m, j, face, u, tol=tol)[1])


# Each suite's declared edges and the defect profile of its seeded stream,
# in the order "all" runs them.  Magnetization draws its own sites, so it
# has neither.
_SUITES: dict[str, tuple[tuple[Edge, ...] | None, str | None]] = {
    "theorem1": (THEOREM1, "mixed"),
    "pairpolygon": (PAIRPOLYGON, "mixed"),
    "bipartitedimer": (BIPARTITEDIMER, "mixed"),
    "corollary": (COROLLARY, "order_only"),
    "magnetization": (None, None),
    "duality": (DUALITY, "mixed"),
    "boundary": (BOUNDARY, "none"),
}
SUITE_NAMES = tuple(_SUITES)


def _refusal(suite: str, inst: Instance) -> str | None:
    """Why ``suite`` does not apply to ``inst``, or None when it does.
    Magnetization takes no instance (it needs a boundary face and a bulk
    vertex, which an instance does not name); the corollary's identities
    hold for order-only defects, and boundary needs a face clear of
    defects."""
    if _SUITES.get(suite, (None,))[0] is None:
        return f"suite {suite!r} does not take an explicit instance"
    if suite == "corollary" and inst.defects.gamma_star:
        return "corollary suite needs order-only defects"
    if suite == "boundary" and not clear_faces(inst.map, inst.defects):
        return "boundary suite needs a face clear of defects"
    return None


def instance_reports(suite: str, inst: Instance, tol: float = 1e-9) -> list[IdentityReport]:
    """The reports of one suite's checks on ``inst``, in order: every
    declared edge's report, failed or not (see reports.edge_reports).  A
    suite that does not apply raises ValueError with the reason (see
    _refusal).  The dual instance that duality's edges read, and the
    boundary reductions, are dropped after them, so they live for one
    record."""
    reason = _refusal(suite, inst)
    if reason is not None:
        raise ValueError(reason)
    try:
        return edge_reports(_SUITES[suite][0], inst, tol)
    finally:
        vars(inst).pop("dual", None)
        vars(inst).pop("boundary", None)


def _instance_record(suite: str, inst: Instance, tol: float) -> dict:
    fields = {"suite": suite, "scope": "instance", **inst.provenance()}
    return _record(fields, lambda: instance_reports(suite, inst, tol))


def _count_record(name: str, m: CombinatorialMap) -> dict:
    """The exact grouped-matching count of one graph (coupling-free)."""
    fields = {"suite": "bipartitedimer", "scope": "graph", "graph": name}
    return _record(fields, lambda: [matching_count_report(m)])


def iter_suite(
    name: str,
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
) -> Iterator[dict]:
    """The records of one suite, or of every suite in turn for "all", each
    built when it is asked for.  Each instance suite checks ``count``
    instances of its seeded stream:

    theorem1        squared correlator vs dimer ratio, with both unsquared
                    product identities;
    pairpolygon     [Z(Jbar)]^2 = C * (pair-polygon sum);
    bipartitedimer  bare pair-polygon sum = half the dimer sum, then the
                    exact grouped-matching count once per distinct graph;
    corollary       the order paths' endpoint spin average, direct and
                    through the defects, and both squares vs the dimer
                    ratio, then the two closed forms;
    duality         per-edge, modified and correlator-level coupling
                    duality between each map and its dual;
    boundary        Z_bc(G) = scalar * Z_free(G') by double enumeration
                    for plus, plus-free arc and Dobrushin boundaries.

    magnetization checks its own boundary sites instead.
    """
    if name == "all":
        for n in SUITE_NAMES:
            yield from iter_suite(n, count, seed, tol)
        return
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if name == "magnetization":
        yield from _magnetization_records(count, seed, tol)
        return
    instances = random_instances(count, seed, profile=_SUITES[name][1])
    for inst in instances:
        yield _instance_record(name, inst, tol)
    if name == "bipartitedimer":
        for graph in sorted({inst.graph_name for inst in instances}):
            yield _count_record(graph, builtin(graph))
    elif name == "corollary":
        yield from closed_form_records(seed, tol=tol)


def run_suite(name: str, count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED,
              tol: float = 1e-9) -> list[dict]:
    """iter_suite's records as a list."""
    return list(iter_suite(name, count, seed, tol))


# ------------------------------------------- explicit (user-supplied) inputs


def explicit_instance(
    m: CombinatorialMap,
    couplings: CouplingAssignment,
    order_paths: Sequence[PathSpec] = (),
    disorder_paths: Sequence[PathSpec] = (),
    name: str = "input",
    seed: int = 0,
) -> Instance:
    """Wrap a user-supplied map, couplings, and defect paths as a suite
    instance (validating the paths against the map and its dual).  A map
    with no edges has no G_Q and no face orbit to reduce: ValueError."""
    if not m.edge_count:
        raise ValueError("the map has no edges")
    if order_paths or disorder_paths:
        d = validate_defects(m, tuple(order_paths), tuple(disorder_paths))
    else:
        d = DefectSet.empty()
    return Instance(m, couplings, d, graph_name=name, seed=seed)


def run_explicit(name: str, inst: Instance, tol: float = 1e-9) -> list[dict]:
    """Run one suite's checks on a single explicit instance.  A suite that
    does not apply raises ValueError with the reason (see _refusal), and
    "all" skips it."""
    if name == "all":
        return [rec for n in SUITE_NAMES if _refusal(n, inst) is None
                for rec in run_explicit(n, inst, tol=tol)]
    records = [_instance_record(name, inst, tol)]
    if name == "bipartitedimer":
        records.append(_count_record(inst.graph_name, inst.map))
    return records
