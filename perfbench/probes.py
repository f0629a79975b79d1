"""Fixed-graph layer probes: per-call time of single bozon functions.

Each probe times one function on one builtin graph and checks the value
against the other route, so that a wrong number fails instead of being
timed:

- the sign-calibrated determinant equals the brute matching sum where
  G_Q is within DIMER_CAP, and satisfies Z(J)^2 = 2^|V| prod cosh(2J_e) *
  Z_dimer(nu(J)) everywhere;
- Z(J)^2 equals the pair-polygon sum;
- the grouped-matching count report passes.

Brute force is skipped where G_Q exceeds DIMER_CAP, and the grouped count
where it exceeds the count's own 48-vertex cap.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Any, Callable

from bozon.dimer import (
    DIMER_CAP,
    brute_force_dimer_Z,
    build_gq,
    calibration_sign,
    dimer_Z_det,
    kasteleyn_orientation,
    matching_count_report,
    nu_from_couplings,
)
from bozon.graphs import builtin
from bozon.ising import base_couplings, partition_function
from bozon.planar_map import dual
from bozon.polygon import pair_polygon_sum

GRAPHS = ("k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5", "grid_4_4")
COUNT_CAP = 48  # matching_count_report's default max_vertices
TOL = 1e-9
MIN_REPEATS = 3
MIN_SECONDS = 0.05


def _per_call(thunk: Callable[[], Any]) -> tuple[float, Any]:
    """Median seconds per call over at least MIN_REPEATS calls and
    MIN_SECONDS in total, and the last value returned."""
    times = []
    spent = 0.0
    while len(times) < MIN_REPEATS or spent < MIN_SECONDS:
        t0 = time.perf_counter()
        value = thunk()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times), value


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(abs(a), abs(b))


def run_probes(seed: int) -> tuple[dict[str, float], int, list[str]]:
    """Probe metrics (seconds per call), the number of value checks made
    and the list of those that failed."""
    rng = random.Random(f"{seed}-probes")
    metrics: dict[str, float] = {}
    failures: list[str] = []
    checks = 0

    for graph in GRAPHS:
        m = builtin(graph)
        dm = dual(m)
        j = base_couplings([rng.uniform(0.1, 2.0) for _ in range(m.edge_count)])

        def record(fn: str, thunk: Callable[[], Any]) -> Any:
            seconds, value = _per_call(thunk)
            metrics[f"probe.{fn}.{graph}_s"] = seconds
            return value

        gq = record("build_gq", lambda: build_gq(m, dm))
        orientation = record("kasteleyn_orientation", lambda: kasteleyn_orientation(gq))
        weights = nu_from_couplings(gq, j)
        s = calibration_sign(gq, orientation)
        det = s * record("dimer_Z_det", lambda: dimer_Z_det(gq, weights, orientation))
        z = record("partition_function", lambda: partition_function(m, j)).real
        pairs = record("pair_polygon_sum", lambda: pair_polygon_sum(m, dm, j))

        checks += 2
        scale = 2.0 ** m.vertex_count * math.prod(math.cosh(2 * x) for x in j.real)
        if not _close(z * z, scale * det):
            failures.append(f"{graph}: Z^2={z * z!r} vs det route {scale * det!r}")
        if not _close(z * z, pairs):
            failures.append(f"{graph}: Z^2={z * z!r} vs pair-polygon sum {pairs!r}")
        if gq.vertex_count <= DIMER_CAP:
            checks += 1
            brute = record("brute_force_dimer_Z", lambda: brute_force_dimer_Z(gq, weights))
            if not _close(det, brute):
                failures.append(f"{graph}: det route {det!r} vs brute sum {brute!r}")
        if gq.vertex_count <= COUNT_CAP:
            checks += 1
            report = record(
                "matching_count_report",
                lambda: matching_count_report(m, dm, gq, max_vertices=COUNT_CAP),
            )
            if not report.passed:
                failures.append(f"{graph}: grouped-matching count failed")
    return metrics, checks, failures
