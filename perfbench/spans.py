"""Per-layer tracing of the bozon package, installed from outside it.

Every public function defined in a layer module is wrapped, and every
``bozon.*`` module attribute that is the original function object is
replaced by the wrapper.  That matters because ``suites``, ``consequences``,
``cli`` and ``bozon/__init__`` import names by value: patching only the
defining module would leave their copies untraced.

Spans nest per thread (the suites run in a thread pool).  A span's self
time is its wall time minus that of the child spans on the same thread;
its wait time is self wall time minus self thread-CPU time, which is time
spent blocked on the interpreter lock, BLAS threads or the pool.  A
function that returns a generator is timed only inside its ``next()``
calls, so the consumer's work between items is not counted as the
generator's.

Private helpers, methods and nested closures are not wrapped; their time
counts towards the nearest wrapped caller on the same thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from typing import Any, Callable

LAYERS = (
    "instances",
    "planar_map",
    "ising",
    "polygon",
    "dimer",
    "boundary",
    "consequences",
    "reports",
    "serialize",
    "suites",
    "cli",
)


def _map_key(m) -> tuple:
    return (m.sigma, m.alpha)


def _free_spins(a: dict) -> int:
    return 1 << (a["m"].vertex_count - len(a.get("fixed") or ()))


def _pair_candidates(a: dict) -> int:
    # pair_polygon_sum compares every primal even subgraph with every dual
    # one: 2^(E-V+1) * 2^(E-F+1) candidate pairs, which is 2^E by Euler.
    return 1 << a["m"].edge_count


# Per-call counters computed from the bound call arguments:
# qualified name -> {counter name: arguments -> int}.
ARG_COUNTERS: dict[str, dict[str, Callable[[dict], int]]] = {
    "ising.partition_function": {"spin_configs": _free_spins},
    "ising.spin_expectation": {"spin_configs": _free_spins},
    "polygon.pair_polygon_sum": {"pairs": _pair_candidates},
}

# Argument keys whose distinct values give rebuild_ratio = calls / distinct.
REBUILD_KEYS: dict[str, Callable[[dict], Any]] = {
    "dimer.build_gq": lambda a: _map_key(a["m"]),
    "planar_map.dual": lambda a: _map_key(a["m"]),
    "dimer.calibration_sign": lambda a: (
        _map_key(a["gq"].map),
        a["orientation"].direction,
        a["orientation"].root_face,
    ),
}

# Counters computed from the return value.
RESULT_COUNTERS: dict[str, dict[str, Callable[[Any], int]]] = {
    "serialize.canonical_json": {"bytes": lambda text: len(text.encode())},
}


class _Stats:
    __slots__ = ("calls", "items", "self_s", "wait_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.self_s = 0.0
        self.wait_s = 0.0
        self.counters: dict[str, int] = {}


class Tracer:
    """Wraps the layer modules of an imported bozon package.

    Recording is off until ``recording`` is set; a wrapper that is not
    recording calls straight through.  Statistics are kept per thread and
    merged by ``snapshot()``, so the hot path takes no lock.
    """

    def __init__(self) -> None:
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, _Stats]] = []
        self._distinct: dict[str, set] = {name: set() for name in REBUILD_KEYS}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "bozon" or name.startswith("bozon."))
        }
        replacements: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules[f"bozon.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    replacements[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        arg_counters = ARG_COUNTERS.get(qualname, {})
        rebuild_key = REBUILD_KEYS.get(qualname)
        result_counters = RESULT_COUNTERS.get(qualname, {})
        distinct = self._distinct.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stats = self._stats(qualname)
            stats.calls += 1
            if arg_counters or rebuild_key:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                for cname, count in arg_counters.items():
                    stats.counters[cname] = stats.counters.get(cname, 0) + count(a)
                if rebuild_key is not None:
                    distinct.add(rebuild_key(a))
            result = self._timed(stats, fn, args, kwargs)
            for cname, count in result_counters.items():
                stats.counters[cname] = stats.counters.get(cname, 0) + count(result)
            if inspect.isgenerator(result):
                return _TracedIterator(self, stats, result)
            return result

        return wrapper

    # ------------------------------------------------------------ spans

    def _stats(self, qualname: str) -> _Stats:
        table = getattr(self._local, "stats", None)
        if table is None:
            table = self._local.stats = {}
            self._local.stack = []
            with self._lock:
                self._per_thread.append(table)
        stats = table.get(qualname)
        if stats is None:
            stats = table[qualname] = _Stats()
        return stats

    def _timed(self, stats: _Stats, fn: Callable, args, kwargs):
        stack = self._local.stack
        frame = [0.0, 0.0]  # child wall, child thread-CPU
        stack.append(frame)
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.thread_time() - cpu0
            stack.pop()
            self_wall = wall - frame[0]
            stats.self_s += self_wall
            stats.wait_s += max(0.0, self_wall - (cpu - frame[1]))
            if stack:
                stack[-1][0] += wall
                stack[-1][1] += cpu

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Merged per-function statistics: calls, items, self_s, wait_s,
        argument counters and, where keyed, rebuild_ratio."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for qualname, s in table.items():
                out = merged.setdefault(
                    qualname, {"calls": 0, "items": 0, "self_s": 0.0, "wait_s": 0.0}
                )
                out["calls"] += s.calls
                out["items"] += s.items
                out["self_s"] += s.self_s
                out["wait_s"] += s.wait_s
                for cname, value in s.counters.items():
                    out[cname] = out.get(cname, 0) + value
        for qualname, keys in self._distinct.items():
            if qualname in merged and keys:
                merged[qualname]["rebuild_ratio"] = merged[qualname]["calls"] / len(keys)
        return merged


class _TracedIterator:
    """Times a generator's ``next()`` calls as spans of the function that
    returned it, and counts the items it yields."""

    def __init__(self, tracer: Tracer, stats: _Stats, gen) -> None:
        self._tracer = tracer
        self._stats = stats
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer._timed(self._stats, next, (self._gen,), {})
        self._stats.items += 1
        return item
