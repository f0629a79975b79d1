"""Verification suites: seeded instance streams run through the identity
checks, one record per instance.

Records are plain dicts (JSON-ready) carrying full replay provenance.
Instances run one after another in stream order, so a seed fixes the
report byte for byte.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Iterator, Sequence

from .boundary import reduce_dobrushin, reduce_plus, reduce_plus_free
from .consequences import (
    _checked_spin_correlation,
    _squared_vs_dimer,
    kw_duality_check,
    magnetization_report,
    spin_correlation,
)
from .dimer import (
    matching_count_report,
    theorem_reports,
    verify_bipartite_dimer_identity,
)
from .errors import BozonError, IdentityViolation, TooLarge
from .graphs import builtin
from .instances import Instance, random_instances
from .ising import (
    CouplingAssignment,
    base_couplings,
    modify_couplings,
    partition_function,
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
    carries a report becomes a failed check; TooLarge propagates, since
    the input is too large to verify at all; any other bozon error, or a
    float overflow, leaves no checks and an ``error`` entry."""
    error = None
    try:
        out = thunk()
        reports = out if isinstance(out, list) else [out]
    except IdentityViolation as exc:
        if exc.report is None:
            reports, error = [], str(exc)
        else:
            reports = [exc.report]
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


def suite_summary(records: Sequence[dict]) -> dict[str, Any]:
    failed = [i for i, r in enumerate(records) if not r.get("pass")]
    return {
        "total": len(records),
        "failed": len(failed),
        "failed_indices": failed,
        "pass": not failed,
    }


# ------------------------------------------------------ per-instance checks


def _corollary_checks(inst: Instance, tol: float) -> IdentityReport:
    m, j, paths = inst.map, inst.couplings, inst.defects.order_paths
    vertices = tuple(x for p in paths for x in p.endpoints)
    if not vertices:
        return compare("direct_squared_vs_dimer_ratio", 1.0, 1.0, tol=tol)
    value, direct, d = _checked_spin_correlation(m, j, vertices, paths, tol)
    ratio, method = _squared_vs_dimer(m, j, d, value, tol)
    return compare(
        "direct_squared_vs_dimer_ratio",
        direct * direct,
        ratio,
        tol=tol,
        extra={"gamma": len(d.gamma), "method": method},
    )


def _duality_checks(inst: Instance, tol: float) -> list[IdentityReport]:
    return list(kw_duality_check(inst, tol).values())


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
    faces = _clear_faces(m, d)
    face = faces[rng.randrange(len(faces))]
    cycle = list(m.face_edges(face))
    length = len(cycle)

    def sides(res) -> tuple[complex, complex]:
        """Z(G) under the reduction's boundary condition, and
        scalar * Z_free(G')."""
        jj = modify_couplings(res.new_couplings, res.new_defects)
        return (
            partition_function(m, inst.jbar, fixed=res.fixed),
            res.scalar * partition_function(res.new_map, jj),
        )

    plus = sides(reduce_plus(m, j, d, face))
    reports = [compare("reduce_plus", *plus, tol=tol, extra={"face": face})]

    start = rng.randrange(length)
    span = rng.randint(1, length)
    arc = [cycle[(start + i) % length] for i in range(span)]
    if {v for e in arc for v in m.edge_endpoints(e)} == set(m.face_vertices(face)):
        # the arc fixes every vertex of the face, as reduce_plus does: the
        # same reduction plan on the same couplings, so the same sums
        plus_free = plus
    else:
        plus_free = sides(reduce_plus_free(m, j, d, arc, face))
    reports.append(
        compare("reduce_plus_free", *plus_free, tol=tol,
                extra={"face": face, "arc_edges": span})
    )

    walk = [m.dart_vertex[t] for t in m.faces[face]]
    if len(set(walk)) < length or len(set(cycle)) < length:
        # the walk passes a cut vertex, so the face has no split into
        # two arcs; the two checks above stand on their own
        return reports
    a = rng.randrange(length)
    b = (a + rng.randrange(1, length)) % length
    a, b = min(a, b), max(a, b)
    flagged = d.gamma | d.gamma_star
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
    reports.append(
        compare(
            "reduce_dobrushin",
            *sides(res),
            tol=tol,
            extra={
                "face": face,
                "split": [a, b],
                "disorder_line": len(res.disorder_line),
            },
        )
    )
    return reports


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


def _magnetization_records(count: int, seed: int, tol: float) -> Iterator[dict]:
    """Fixed-plus boundary magnetization at 10 to 50 sites (``count``
    clamped): direct average vs contracted pair correlation vs dimer
    ratio."""
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


# Each suite's per-instance check and the defect profile of its seeded
# stream, in the order "all" runs them.  Magnetization draws its own
# sites, so it has neither.
_SUITES: dict[str, tuple[Callable[[Instance, float], Any] | None, str | None]] = {
    "theorem1": (theorem_reports, "mixed"),
    "pairpolygon": (verify_squared_partition, "mixed"),
    "bipartitedimer": (verify_bipartite_dimer_identity, "mixed"),
    "corollary": (_corollary_checks, "order_only"),
    "magnetization": (None, None),
    "duality": (_duality_checks, "mixed"),
    "boundary": (_boundary_checks, "none"),
}
SUITE_NAMES = tuple(_SUITES)


def _instance_record(suite: str, inst: Instance, tol: float) -> dict:
    fields = {"suite": suite, "scope": "instance", **inst.provenance()}
    return _record(fields, lambda: _SUITES[suite][0](inst, tol))


def _count_record(name: str, m: CombinatorialMap) -> dict:
    """The exact grouped-matching count of one graph (coupling-free)."""
    fields = {"suite": "bipartitedimer", "scope": "graph", "graph": name}
    return _record(fields, lambda: matching_count_report(m))


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
    corollary       squared multi-spin correlations (direct expectation)
                    vs dimer ratios, then the two closed forms;
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
    """Run one suite's checks on a single explicit instance.

    The magnetization suite has no single-instance form (it needs a
    boundary face and a bulk vertex, which an instance does not name).  The
    boundary suite needs a face clear of defects, and the corollary suite
    order-only defects: each raises ValueError without, and "all" skips it.
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
    if name not in _SUITES or name == "magnetization":
        raise ValueError(f"suite {name!r} does not take an explicit instance")
    if name == "corollary" and inst.defects.disorder_paths:
        raise ValueError("corollary suite needs order-only defects")
    if name == "boundary" and not _clear_faces(inst.map, inst.defects):
        raise ValueError("boundary suite needs a face clear of defects")
    records = [_instance_record(name, inst, tol)]
    if name == "bipartitedimer":
        records.append(_count_record(inst.graph_name, inst.map))
    return records
