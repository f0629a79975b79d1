"""One benchmark child interpreter; prints one JSON object on stdout.

    child.py env                      environment record (also compiles and
                                      caches bozon's bytecode before timing)
    child.py pass W SEED SIZE TRACE TMPDIR
                                      one pass of workload W
    child.py probes SEED              the fixed-graph layer probes

bozon is imported from the ``src`` directory next to this one, never from
an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# Each pass runs on one CPU, pinned before numpy starts its BLAS threads.
# Unpinned on a 2-vCPU VM, GIL handoffs between bozon's pool threads and
# BLAS helper threads wait on cross-CPU wake-ups whose latency depends on
# the host, so wall time jumped between regimes minutes apart.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import bozon  # noqa: E402

if Path(bozon.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"bozon was imported from {bozon.__file__}, not from {SRC}")


def env_record() -> dict:
    import numpy

    from bozon import cli  # noqa: F401  (compile every module the passes use)
    from bozon.suites import worker_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "bozon_workers": worker_count(),
        "pass_cpus": sorted(os.sched_getaffinity(0)),
    }


def one_pass(workload: str, seed: int, size: int, trace: bool, tmpdir: str) -> dict:
    import workloads

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = workloads.PREPARE[workload](seed, size, tmpdir)

    t0 = time.monotonic()
    cpu0 = time.process_time()
    if tracer:
        tracer.recording = True
    text = run()
    if tracer:
        tracer.recording = False
    cpu1 = time.process_time()
    t1 = time.monotonic()

    out = {
        "t0": t0,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }
    out.update(workloads.verdict(workloads.report_records(text)))
    if tracer:
        out["spans"] = tracer.snapshot()
    return out


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "env":
        out = env_record()
    elif mode == "pass":
        workload, seed, size, trace, tmpdir = argv[1:]
        out = one_pass(workload, int(seed), int(size), trace == "1", tmpdir)
    elif mode == "probes":
        from probes import run_probes

        metrics, checks, failures = run_probes(int(argv[1]))
        out = {"metrics": metrics, "checks": checks, "failures": failures}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
