"""The three benchmark workloads, as run inside one pass interpreter.

Each workload has a ``prepare`` step (outside the timed region; counted in
set-up time) and a ``run`` step (the timed region) that returns the
canonical report text.  bozon receives only inputs generated from the
benchmark seed.

gate_all    the north-star command ``bozon verify --suite all --random 100``,
            run in-process with JSON serialization; brute matching
            enumeration dominates it, and each of the 5 family maps is
            reused about 20 times per suite.
det_stream  four determinant/spin-sum suites on a long mixed-defect stream
            over the same 5 maps; never enumerates matchings, so
            per-instance plumbing (G_Q rebuilds, tiny spin sums, pool
            waiting, serialization) is the whole cost.
wide_maps   the same four suites on larger builtin maps whose G_Q all
            exceed DIMER_CAP; maps recur rarely and numpy kernels (spin sum,
            pair-polygon sum, determinants) are the cost, so caching should
            show nothing here.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable

# Module attributes are looked up at call time, so that wrappers a tracer
# installs on them are the ones called.
from bozon import cli, instances, serialize, suites

DET_SUITES = ("theorem1", "pairpolygon", "duality", "boundary")
WIDE_FAMILY = (
    "grid_3_4",
    "grid_4_4",
    "grid_3_5",
    "grid_2_8",
    "wheel_8",
    "wheel_10",
    "wheel_12",
)


def _prepare_gate_all(seed: int, size: int, tmpdir: str) -> Callable[[], str]:
    out = os.path.join(tmpdir, "gate_all.json")
    argv = ["verify", "--suite", "all", "--random", str(size),
            "--seed", str(seed), "--out", out]

    def run() -> str:
        rc = cli.main(argv)
        if rc not in (0, 1):
            raise RuntimeError(f"bozon verify exited with {rc}")
        with open(out, encoding="utf-8") as fh:
            return fh.read()

    return run


def _prepare_det_stream(seed: int, size: int, tmpdir: str) -> Callable[[], str]:
    def run() -> str:
        records: list[dict] = []
        for suite in DET_SUITES:
            records.extend(suites.run_suite(suite, count=size, seed=seed))
        return serialize.canonical_json(records)

    return run


def _prepare_wide_maps(seed: int, size: int, tmpdir: str) -> Callable[[], str]:
    # ``size`` instances of each map, so that the seed varies couplings and
    # defects but not how much of each map's work a pass does.  The boundary
    # suite gets defect-free instances, as its seeded runner draws them.
    jobs = []
    for graph in WIDE_FAMILY:
        for inst in instances.random_instances(size, seed, families=(graph,)):
            jobs.extend((suite, inst) for suite in DET_SUITES if suite != "boundary")
        for inst in instances.random_instances(size, seed, families=(graph,), profile="none"):
            jobs.append(("boundary", inst))

    def run() -> str:
        records: list[dict] = []
        for suite, inst in jobs:
            records.extend(suites.run_explicit(suite, inst))
        return serialize.canonical_json(records)

    return run


PREPARE: dict[str, Callable[[int, int, str], Callable[[], str]]] = {
    "gate_all": _prepare_gate_all,
    "det_stream": _prepare_det_stream,
    "wide_maps": _prepare_wide_maps,
}


def report_records(text: str) -> list[dict[str, Any]]:
    """Records of a report: the ``verify`` document or a bare record list."""
    doc = json.loads(text)
    return doc["records"] if isinstance(doc, dict) else doc


def verdict(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Checks attempted and failed, errored and empty records, and the
    instance mix (records per graph)."""
    checks = failed = errored = empty = 0
    mix: dict[str, int] = {}
    for rec in records:
        checks += len(rec["checks"])
        failed += sum(1 for c in rec["checks"] if not c["pass"])
        errored += "error" in rec
        empty += not rec["checks"]
        graph = rec.get("graph", "?")
        mix[graph] = mix.get(graph, 0) + 1
    return {
        "records": len(records),
        "checks": checks,
        "failed_checks": failed,
        "errored_records": errored,
        "empty_records": empty,
        "mix": dict(sorted(mix.items())),
    }
