"""Builtin sphere-embedded graphs: k3, c4, grid_m_n, wheel_k.

Darts of edge ``e`` are ``2e`` and ``2e+1`` throughout.  Rotations are
counterclockwise for the standard drawings (grids with x right / y up,
wheels with rim vertices placed counterclockwise around the hub).
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import UnknownGraph
from .planar_map import CombinatorialMap, build_map


def k3() -> CombinatorialMap:
    """Triangle on vertices 0,1,2; edge e joins e and (e+1)%3."""
    rotations = [[0, 5], [2, 1], [4, 3]]
    edges = [(0, 1), (2, 3), (4, 5)]
    return build_map(rotations, edges)


def c4() -> CombinatorialMap:
    """4-cycle 0-1-2-3-0; edge e joins e and (e+1)%4."""
    rotations = [[0, 7], [2, 1], [4, 3], [6, 5]]
    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    return build_map(rotations, edges)


def grid(rows: int, cols: int) -> CombinatorialMap:
    """rows x cols grid; vertex (r,c) is ``r*cols + c``.  Horizontal edges
    come first (row-major), then vertical; dart ``2e`` sits at the left or
    bottom endpoint."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise UnknownGraph(f"grid_{rows}_{cols} is too small")
    n_h = rows * (cols - 1)

    def h(r: int, c: int) -> int:
        return r * (cols - 1) + c

    def v(r: int, c: int) -> int:
        return n_h + r * cols + c

    rotations = []
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols - 1):
            e = h(r, c)
            edges.append((2 * e, 2 * e + 1))
    for r in range(rows - 1):
        for c in range(cols):
            e = v(r, c)
            edges.append((2 * e, 2 * e + 1))
    for r in range(rows):
        for c in range(cols):
            rot = []
            if c < cols - 1:
                rot.append(2 * h(r, c))  # east
            if r < rows - 1:
                rot.append(2 * v(r, c))  # north
            if c > 0:
                rot.append(2 * h(r, c - 1) + 1)  # west
            if r > 0:
                rot.append(2 * v(r - 1, c) + 1)  # south
            rotations.append(rot)
    return build_map(rotations, edges)


def wheel(k: int) -> CombinatorialMap:
    """Wheel with hub 0 and rim 1..k; spokes are edges 0..k-1, rim edges
    k..2k-1 with rim edge ``k-1+i`` joining i to i%k+1."""
    if k < 3:
        raise UnknownGraph(f"wheel_{k} needs a rim of at least 3")
    rotations: list[list[int]] = [[2 * (i - 1) for i in range(1, k + 1)]]
    edges = [(2 * e, 2 * e + 1) for e in range(2 * k)]
    for i in range(1, k + 1):
        to_next = 2 * (k + i - 1)
        to_hub = 2 * (i - 1) + 1
        prev_rim = k + i - 2 if i > 1 else 2 * k - 1
        to_prev = 2 * prev_rim + 1
        rotations.append([to_next, to_hub, to_prev])
    return build_map(rotations, edges)


_GRID_RE = re.compile(r"^grid_(\d+)_(\d+)$")
_WHEEL_RE = re.compile(r"^wheel_(\d+)$")


@lru_cache(maxsize=64)
def builtin(name: str) -> CombinatorialMap:
    """Look up a builtin by name: ``k3``, ``c4``, ``grid_<rows>_<cols>``,
    ``wheel_<k>``.  Maps are immutable, so every lookup of a name returns
    the same object."""
    if name == "k3":
        return k3()
    if name == "c4":
        return c4()
    m = _GRID_RE.match(name)
    if m:
        return grid(int(m.group(1)), int(m.group(2)))
    m = _WHEEL_RE.match(name)
    if m:
        return wheel(int(m.group(1)))
    raise UnknownGraph(f"no builtin graph named {name!r}")


BUILTIN_EXAMPLES = ("k3", "c4", "grid_2_3", "grid_3_3", "wheel_4", "wheel_5")
