"""Verification suites: seeded instance streams run through the identity
checks, one record per instance.

Records are plain dicts (JSON-ready) carrying full replay provenance.
Instances run one after another in stream order, so a seed fixes the
report byte for byte.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Sequence

from .boundary import reduce_dobrushin, reduce_plus, reduce_plus_free
from .consequences import (
    kw_duality_check,
    magnetization_report,
    spin_correlation,
    spin_correlation_squared_dimer,
)
from .dimer import (
    matching_count_report,
    theorem_reports,
    verify_bipartite_dimer_identity,
)
from .errors import BozonError, IdentityViolation
from .graphs import builtin
from .instances import FAMILY, Instance, random_instances
from .ising import (
    CouplingAssignment,
    base_couplings,
    modify_couplings,
    partition_function,
    spin_expectation,
    uniform_couplings,
)
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    build_map,
    validate_defects,
)
from .polygon import verify_squared_partition
from .reports import IdentityReport, compare
from .serialize import couplings_to_dict

DEFAULT_COUNT = 100
DEFAULT_SEED = 1

SUITE_NAMES = (
    "theorem1",
    "pairpolygon",
    "bipartitedimer",
    "corollary",
    "magnetization",
    "duality",
    "boundary",
)


def worker_count() -> int:
    """Always 1: suites run serially.  Kept for the benchmark's environment
    record, which reports this number."""
    return 1


def _record(
    fields: dict[str, Any],
    thunk: Callable[[], IdentityReport | list[IdentityReport]],
) -> dict[str, Any]:
    """A suite record: ``fields`` (suite, scope and provenance), then the
    checks ``thunk`` returns and the verdict.  An identity violation that
    carries a report becomes a failed check; any other bozon error leaves
    no checks and an ``error`` entry."""
    error = None
    try:
        out = thunk()
        reports = out if isinstance(out, list) else [out]
    except IdentityViolation as exc:
        if exc.report is None:
            reports, error = [], str(exc)
        else:
            reports = [exc.report]
    except BozonError as exc:
        reports, error = [], f"{type(exc).__name__}: {exc}"
    rec = dict(fields)
    rec["checks"] = [r.to_dict() for r in reports]
    rec["pass"] = error is None and bool(reports) and all(r.passed for r in reports)
    if error is not None:
        rec["error"] = error
    return rec


def suite_summary(records: Sequence[dict]) -> dict[str, Any]:
    failed = [i for i, r in enumerate(records) if not r.get("pass")]
    return {
        "total": len(records),
        "failed": len(failed),
        "failed_indices": failed,
        "pass": not failed,
    }


# ------------------------------------------------------ per-instance checks


def _theorem1_checks(inst: Instance, tol: float) -> list[IdentityReport]:
    return theorem_reports(inst.map, inst.couplings, inst.defects, tol=tol)


def _pairpolygon_checks(inst: Instance, tol: float) -> IdentityReport:
    return verify_squared_partition(inst.map, inst.couplings, inst.defects, tol=tol)


def _bipartitedimer_checks(inst: Instance, tol: float) -> IdentityReport:
    return verify_bipartite_dimer_identity(
        inst.map, inst.couplings, inst.defects, tol=tol
    )


def _corollary_checks(inst: Instance, tol: float) -> IdentityReport:
    vertices = tuple(x for p in inst.defects.order_paths for x in p.endpoints)
    if not vertices:
        return compare("direct_squared_vs_dimer_ratio", 1.0, 1.0, tol=tol)
    rep = spin_correlation_squared_dimer(
        inst.map, inst.couplings, vertices, inst.defects.order_paths, tol=tol
    )
    direct = spin_expectation(inst.map, inst.couplings, vertices)
    return compare(
        "direct_squared_vs_dimer_ratio",
        direct * direct,
        rep.dimer_ratio,
        tol=tol,
        extra={"gamma": rep.gamma_size, "method": rep.method},
    )


def _duality_checks(inst: Instance, tol: float) -> list[IdentityReport]:
    reports = kw_duality_check(inst.map, inst.couplings, inst.defects, tol=tol)
    return list(reports.values())


def _clear_faces(m: CombinatorialMap, d: DefectSet) -> list[int]:
    """Faces whose contraction keeps every defect edge: no order or
    disorder-crossed edge has both endpoints on the face.  That rules out
    the face's own edges and also chords, which contraction would turn
    into loops."""
    flagged = [set(m.edge_endpoints(e)) for e in d.gamma | d.gamma_star]
    faces = []
    for f in range(m.face_count):
        on_face = set(m.face_vertices(f))
        if not any(ends <= on_face for ends in flagged):
            faces.append(f)
    return faces


def _boundary_checks(inst: Instance, tol: float) -> list[IdentityReport]:
    m, j, d = inst.map, inst.couplings, inst.defects
    rng = random.Random(f"{inst.seed}-boundary-{inst.index}")
    flagged = set(d.gamma) | set(d.gamma_star)
    faces = _clear_faces(m, d) or list(range(m.face_count))
    face = faces[rng.randrange(len(faces))]
    cycle = list(m.face_edges(face))
    length = len(cycle)

    def reduced_z(res) -> complex:
        jj = modify_couplings(res.new_couplings, res.new_defects)
        return res.scalar * partition_function(res.new_map, jj)

    reports = []
    jbar = modify_couplings(j, d)

    res = reduce_plus(m, j, d, face)
    fixed = {}
    for e in cycle:
        u, v = m.edge_endpoints(e)
        fixed[u] = fixed[v] = 1
    lhs = partition_function(m, jbar, fixed=fixed)
    reports.append(
        compare("reduce_plus", lhs, reduced_z(res), tol=tol, extra={"face": face})
    )

    start = rng.randrange(length)
    span = rng.randint(1, length)
    arc = [cycle[(start + i) % length] for i in range(span)]
    res = reduce_plus_free(m, j, d, arc, face=face)
    fixed = {}
    for e in arc:
        u, v = m.edge_endpoints(e)
        fixed[u] = fixed[v] = 1
    lhs = partition_function(m, jbar, fixed=fixed)
    reports.append(
        compare("reduce_plus_free", lhs, reduced_z(res), tol=tol,
                extra={"face": face, "arc_edges": span})
    )

    a = rng.randrange(length)
    b = (a + rng.randrange(1, length)) % length
    a, b = min(a, b), max(a, b)
    walk = [m.dart_vertex[t] for t in m.faces[face]]
    defect_touch = {v for e in flagged for v in m.edge_endpoints(e)}

    def minus_clear(x: int, y: int) -> bool:
        minus = {walk[i % length] for i in range(y + 1, x + length + 1)}
        return not (minus & defect_touch)

    if defect_touch and not minus_clear(a, b):
        found = next(
            (
                (x, y)
                for x in range(length - 1)
                for y in range(x + 1, length)
                if minus_clear(x, y)
            ),
            None,
        )
        if found is None:
            # the gauge flip would reclassify a defect edge from every
            # possible minus arc; the two checks above stand on their own
            return reports
        a, b = found
    res = reduce_dobrushin(m, j, d, face, (a, b))
    fixed = {walk[i % length]: 1 for i in range(a + 1, b + 1)}
    fixed.update({walk[i % length]: -1 for i in range(b + 1, a + length + 1)})
    lhs = partition_function(m, jbar, fixed=fixed)
    reports.append(
        compare(
            "reduce_dobrushin",
            lhs,
            reduced_z(res),
            tol=tol,
            extra={
                "face": face,
                "split": [a, b],
                "disorder_line": len(res.disorder_line),
            },
        )
    )
    return reports


_INSTANCE_CHECKS: dict[str, Callable[[Instance, float], Any]] = {
    "theorem1": _theorem1_checks,
    "pairpolygon": _pairpolygon_checks,
    "bipartitedimer": _bipartitedimer_checks,
    "corollary": _corollary_checks,
    "duality": _duality_checks,
    "boundary": _boundary_checks,
}


def _instance_record(suite: str, inst: Instance, tol: float) -> dict:
    fields = {"suite": suite, "scope": "instance", **inst.provenance()}
    return _record(fields, lambda: _INSTANCE_CHECKS[suite](inst, tol))


def _count_record(name: str, m: CombinatorialMap) -> dict:
    """The exact grouped-matching count of one graph (coupling-free)."""
    fields = {"suite": "bipartitedimer", "scope": "graph", "graph": name}
    return _record(fields, lambda: matching_count_report(m, m.dual))


def _run_stream(
    suite: str, count: int, seed: int, tol: float, profile: str = "mixed"
) -> list[dict]:
    instances = random_instances(count, seed, profile=profile)
    return [_instance_record(suite, inst, tol) for inst in instances]


# ------------------------------------------------------------ the suites


def run_theorem1(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[dict]:
    """Squared correlator vs dimer ratio (with both unsquared product
    identities) on the mixed-defect instance stream."""
    return _run_stream("theorem1", count, seed, tol)


def run_pairpolygon(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[dict]:
    """[Z(Jbar)]^2 = C * (pair-polygon sum) on the same instance stream."""
    return _run_stream("pairpolygon", count, seed, tol)


def run_bipartitedimer(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[dict]:
    """Bare pair-polygon sum = half the dimer sum per instance, plus the
    exact grouped-matching count once per distinct graph (the count is
    coupling-independent)."""
    records = _run_stream("bipartitedimer", count, seed, tol)
    for name in sorted({rec["graph"] for rec in records}):
        records.append(_count_record(name, builtin(name)))
    return records


def run_corollary(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[dict]:
    """Squared multi-spin correlations (direct expectation) vs dimer
    ratios on an order-only instance stream, plus the two closed forms."""
    records = _run_stream("corollary", count, seed, tol, profile="order_only")
    records.extend(closed_form_records(seed, tol=tol))
    return records


def closed_form_records(seed: int, tol: float = 1e-9) -> list[dict]:
    """tanh(J) on a single edge and (t + t^3)/(1 + t^4) on adjacent C4
    vertices, both routed through the brute-checked correlator."""
    rng = random.Random(f"{seed}-closed-forms")

    def fields(name: str, j: CouplingAssignment) -> dict[str, Any]:
        return {
            "suite": "corollary",
            "scope": "closed_form",
            "graph": name,
            "couplings": couplings_to_dict(j),
        }

    j_edge = rng.uniform(0.1, 2.0)
    m1 = build_map([[0], [1]], [(0, 1)])
    j1 = base_couplings([j_edge])
    rec1 = _record(
        fields("single_edge", j1),
        lambda: compare(
            "closed_form_single_edge",
            spin_correlation(m1, j1, (0, 1), (PathSpec((0, 1), (0,)),), tol=tol),
            math.tanh(j_edge),
            tol=tol,
        ),
    )

    j_c4 = rng.uniform(0.1, 2.0)
    t = math.tanh(j_c4)
    c4 = builtin("c4")
    j4 = uniform_couplings(4, j_c4)
    rec2 = _record(
        fields("c4", j4),
        lambda: compare(
            "closed_form_c4_adjacent",
            spin_correlation(c4, j4, (0, 1), (PathSpec((0, 1), (0,)),), tol=tol),
            (t + t**3) / (1 + t**4),
            tol=tol,
        ),
    )
    return [rec1, rec2]


_MAGNETIZATION_SITES = (
    ("wheel_4", 0),  # hub with the rim as boundary
    ("grid_3_3", 4),  # center of the 3x3 patch
    ("wheel_5", 0),
)

# Every builtin map a seeded suite can draw.
SEEDED_GRAPHS = tuple(dict.fromkeys(FAMILY + tuple(n for n, _ in _MAGNETIZATION_SITES)))


def run_magnetization(
    count: int = 10, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[dict]:
    """Fixed-plus boundary magnetization on graphs with an interior
    vertex: direct average vs contracted pair correlation vs dimer ratio."""
    rng = random.Random(f"{seed}-magnetization")
    records = []
    for i in range(count):
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
        records.append(
            _record(fields, lambda: magnetization_report(m, j, face, u, tol=tol)[1])
        )
    return records


def run_duality(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[dict]:
    """Per-edge, modified, and correlator-level coupling duality between
    each instance map and its dual."""
    return _run_stream("duality", count, seed, tol)


def run_boundary(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, tol: float = 1e-9
) -> list[dict]:
    """Z_bc(G) = scalar * Z_free(G') by double enumeration for plus,
    plus-free arc, and Dobrushin boundary conditions, faces and arcs drawn
    per instance."""
    return _run_stream("boundary", count, seed, tol, profile="none")


_RUNNERS: dict[str, Callable[..., list[dict]]] = {
    "theorem1": run_theorem1,
    "pairpolygon": run_pairpolygon,
    "bipartitedimer": run_bipartitedimer,
    "corollary": run_corollary,
    "magnetization": run_magnetization,
    "duality": run_duality,
    "boundary": run_boundary,
}


def run_suite(
    name: str,
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
) -> list[dict]:
    if name == "all":
        records = []
        for n in SUITE_NAMES:
            records.extend(run_suite(n, count=count, seed=seed, tol=tol))
        return records
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if name == "magnetization":
        count = max(10, min(count, 50))
    return _RUNNERS[name](count=count, seed=seed, tol=tol)


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
    instance (validating the paths against the map and its dual)."""
    if order_paths or disorder_paths:
        d = validate_defects(m, tuple(order_paths), tuple(disorder_paths))
    else:
        d = DefectSet.empty()
    return Instance(0, name, m, couplings, d, seed)


def run_explicit(name: str, inst: Instance, tol: float = 1e-9) -> list[dict]:
    """Run one suite's checks on a single explicit instance.

    The magnetization suite has no single-instance form here (it needs a
    boundary face and a bulk vertex; see the magnetize entry point).  "all"
    also skips the boundary suite when no face is clear of defects, and the
    corollary suite when the instance has a disorder path.
    """
    if name == "all":
        records = []
        skip = {"magnetization"}
        if not _clear_faces(inst.map, inst.defects):
            skip.add("boundary")
        if inst.defects.disorder_paths:
            skip.add("corollary")
        for n in SUITE_NAMES:
            if n not in skip:
                records.extend(run_explicit(n, inst, tol=tol))
        return records
    if name not in _INSTANCE_CHECKS:
        raise ValueError(f"suite {name!r} does not take an explicit instance")
    if name == "corollary" and inst.defects.disorder_paths:
        raise ValueError("corollary suite needs order-only defects")
    records = [_instance_record(name, inst, tol)]
    if name == "bipartitedimer":
        records.append(_count_record(inst.graph_name, inst.map))
    return records
