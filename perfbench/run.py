"""Benchmark of bozon: end-to-end cost of three verification workloads and
a traced per-layer breakdown.

    python3 perfbench/run.py --workload gate_all --seed 1 --seconds 40 --trace 0

Run from any directory; bozon is built from the ``src`` directory of the
checkout that holds this file.  Passes run one at a time, each in a fresh
interpreter, while they are expected to end within ``--seconds``, so no
in-process cache survives from one pass to the next.  ``--trace 0``
reports the end-to-end metrics of untraced passes; ``--trace 1`` runs the
fixed-graph probes, then alternates untraced and traced passes, and
reports the per-layer metrics.  ``--workload all`` runs each workload in
turn.

Every pass's records are checked: failed checks, errored records,
records without checks, and passes whose report digest differs from the
others (all passes of a run share workload and seed) count as failures.
The table goes to stdout; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("gate_all", "det_stream", "wide_maps")
DEFAULT_SECONDS = 40
# Instances per pass: --random N for gate_all (the north-star command),
# instances per suite for det_stream, instances per map for wide_maps.
DEFAULT_SIZE = {"gate_all": 100, "det_stream": 500, "wide_maps": 3}
# A pass takes seconds; one that takes this long is stuck.
PASS_TIMEOUT_S = 60

# Every end-to-end metric the table prints, as a median over the passes.
TABLE = {
    "wall_s": "s",
    "cpu_s": "s",
    "checks_per_s": "1/s",
    "setup_raw_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "checks_per_ref": "1/ref",
}
# The ones in the JSON line.  Pass times are also given in units of ref_s,
# a fixed reference timed right after each pass: on a shared VM the CPU
# speed drifted by up to 2x over minutes, moving wall_s, cpu_s and the raw
# set-up time together, while wall_ref and cpu_ref stayed put (see
# README.md).  setup_s is the raw set-up time scaled the same way, to a
# host on which the reference takes REF_NOMINAL_S.
END_TO_END = ("wall_ref", "cpu_ref", "checks_per_ref", "setup_s", "peak_rss_mb")
# The reference: a fresh interpreter, pinned like a pass, importing numpy.
REFERENCE = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); import numpy"
REF_NOMINAL_S = 0.2

# Per-function metrics of the traced run, as <layer>.<function>.<field>.
FUNCTION_METRICS = {
    "dimer.build_gq": ("calls", "self_s", "rebuild_ratio"),
    "dimer.kasteleyn_orientation": ("calls", "self_s"),
    "dimer.calibration_sign": ("calls", "self_s", "rebuild_ratio"),
    "dimer.dimer_Z_det": ("calls", "self_s"),
    "dimer.brute_force_dimer_Z": ("calls", "self_s"),
    "dimer.enumerate_matchings": ("items", "self_s"),
    "dimer.pair_of_matching": ("calls", "self_s"),
    "dimer.polygon_to_dimer_count": ("calls", "self_s"),
    "planar_map.dual": ("calls", "self_s", "rebuild_ratio"),
    "planar_map.build_map": ("calls", "self_s"),
    "planar_map.shortest_path": ("calls",),
    "ising.partition_function": (
        "calls", "self_s", "wait_s", "spin_configs", "ns_per_config"),
    "ising.spin_expectation": ("calls", "self_s", "spin_configs"),
    "polygon.pair_polygon_sum": ("calls", "self_s", "pairs"),
    "polygon.polygon_masks": ("calls", "self_s"),
    "boundary.reduce_plus": ("calls", "self_s"),
    "boundary.reduce_plus_free": ("calls", "self_s"),
    "boundary.reduce_dobrushin": ("calls", "self_s"),
    "reports.compare": ("calls",),
    "serialize.canonical_json": ("self_s", "bytes"),
    "suites.run_suite": ("wait_s",),
}
FIELD_UNITS = {
    "calls": "count",
    "items": "count",
    "self_s": "s",
    "wait_s": "s",
    "rebuild_ratio": "ratio",
    "spin_configs": "count",
    "ns_per_config": "ns",
    "pairs": "count",
    "bytes": "bytes",
}


class BenchError(Exception):
    """A child failed to run; the benchmark prints no result."""


def _python(args: list[str], tmpdir: str) -> tuple[str, float]:
    """Run the interpreter once; return its stdout and its spawn time."""
    env = dict(os.environ)
    env.pop("BOZON_THREADS", None)  # bozon runs with its default pool
    env["TMPDIR"] = tmpdir
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args} ran past {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout, spawned


def _child(args: list[str], tmpdir: str) -> tuple[dict, float]:
    """Run child.py once; return its JSON output and its spawn time."""
    stdout, spawned = _python([str(HERE / "child.py"), *args], tmpdir)
    return json.loads(stdout.splitlines()[-1]), spawned


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _layer_metrics(snap: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        own = [s for q, s in snap.items() if q.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in own)
        out[f"{layer}.wait_s"] = sum(s["wait_s"] for s in own)
    for qualname, fields in FUNCTION_METRICS.items():
        s = snap.get(qualname, {})
        for field in fields:
            if field == "ns_per_config":
                configs = s.get("spin_configs", 0)
                value = s["self_s"] * 1e9 / configs if configs else 0.0
            else:
                value = s.get(field, 0)
            out[f"{qualname}.{field}"] = value
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: int | None, tmpdir: str) -> dict:
    """Passes of one workload for ``seconds``; returns metrics, check counts
    and the lines to print."""
    size = size or DEFAULT_SIZE[workload]
    start = time.monotonic()
    probes = _child(["probes", str(seed)], tmpdir)[0] if trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    # Start another pass only while it is expected to end within the run.
    while (
        not plain
        or (trace and not traced)
        or time.monotonic() - start + statistics.median(durations) <= seconds
    ):
        with_trace = trace and len(traced) < len(plain)
        out, spawned = _child(
            ["pass", workload, str(seed), str(size), "1" if with_trace else "0", tmpdir],
            tmpdir,
        )
        out["setup_raw_s"] = out["t0"] - spawned
        _, ref_spawned = _python(["-c", REFERENCE], tmpdir)
        out["ref_s"] = time.monotonic() - ref_spawned
        out["setup_s"] = out["setup_raw_s"] * REF_NOMINAL_S / out["ref_s"]
        durations.append(time.monotonic() - spawned)
        out["checks_per_s"] = out["checks"] / out["wall_s"]
        out["wall_ref"] = out["wall_s"] / out["ref_s"]
        out["cpu_ref"] = out["cpu_s"] / out["ref_s"]
        out["checks_per_ref"] = out["checks"] / out["wall_ref"]
        (traced if with_trace else plain).append(out)

    passes = plain + traced
    digests = Counter(p["digest"] for p in passes)
    mismatched = len(passes) - digests.most_common(1)[0][1]
    bad_records = sum(p["failed_checks"] + p["errored_records"] + p["empty_records"]
                      for p in passes)
    attempted = sum(p["checks"] for p in passes)
    if not attempted:
        raise BenchError(f"{workload}: the passes attempted no checks")
    failed = bad_records + mismatched
    lines = [f"{workload} mix (records per graph, seed {seed}): {json.dumps(passes[0]['mix'])}"]
    if probes:
        attempted += probes["checks"]
        failed += len(probes["failures"])
        lines.extend(f"{workload} probe check failed: {f}" for f in probes["failures"])
    lines.append(
        f"{workload} fail_ratio {failed / attempted:.6g} ({failed} of {attempted} checks: "
        f"{sum(p['failed_checks'] for p in passes)} failed checks, "
        f"{sum(p['errored_records'] for p in passes)} errored and "
        f"{sum(p['empty_records'] for p in passes)} empty records, "
        f"{mismatched} passes with a differing report digest"
        + (f", {len(probes['failures'])} failed probe checks)" if probes else ")")
    )

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        medians = {}
        for name, unit in TABLE.items():
            q1, medians[name], q3 = _quartiles([p[name] for p in plain])
            lines.append(f"{workload} {name} {medians[name]:.6g} {unit} "
                         f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(plain)})")
        metrics = {name: (medians[name], TABLE[name]) for name in END_TO_END}
    else:
        per_pass = [_layer_metrics(p["spans"]) for p in traced]
        for name in per_pass[0]:
            unit = FIELD_UNITS[name.rsplit(".", 1)[1]]
            metrics[name] = (statistics.median(m[name] for m in per_pass), unit)
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain))
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        for name, value in sorted(probes["metrics"].items()):
            metrics[name] = (value, "s")
        lines.append(f"{workload} traced passes {len(traced)}, untraced {len(plain)}; "
                     f"wall_s traced/untraced {overhead:.4g}")
        for name, (value, unit) in metrics.items():
            lines.append(f"{workload} {name} {value:.6g} {unit}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int,
                        help="instances per pass (default: the workload's own)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bozon" / "__init__.py").is_file():
        print(f"error: no bozon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.size is not None and args.size <= 0:
        parser.error("--size must be positive")

    BUILD.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    with tempfile.TemporaryDirectory(dir=BUILD) as tmpdir:
        try:
            env, _ = _child(["env"], tmpdir)
            workloads = WORKLOADS if args.workload == "all" else (args.workload,)
            results = {
                w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                args.size, tmpdir)
                for w in workloads
            }
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "commit": _git_commit(),
    })
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {}
    for w, result in results.items():
        print("\n".join(result["lines"]))
        prefix = "" if len(results) == 1 else f"{w}."
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
