"""Seeded random verification instances over the builtin graph family.

An instance is a builtin map, i.i.d. couplings J ~ Uniform(0.1, 2.0), and
defect paths found by rejection sampling of disjoint BFS shortest paths
(primal for order, dual for disorder).  The seed fully determines the
stream, and every instance carries enough provenance to replay it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import BozonError
from .graphs import builtin
from .ising import CouplingAssignment, base_couplings
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    PathSpec,
    shortest_path,
    validate_defects,
)
from .serialize import couplings_to_dict, defects_to_dict

FAMILY = ("k3", "c4", "grid_2_3", "grid_3_3", "wheel_4")
J_LOW = 0.1
J_HIGH = 2.0
MAX_DEFECT_EDGES = 4

# (order path count, disorder path count) draws per defect profile; the
# mixed profile repeats (1, 1) to favor genuinely mixed instances.
_PROFILES: dict[str, tuple[tuple[int, int], ...]] = {
    "mixed": ((0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (2, 0), (0, 2)),
    "order_only": ((1, 0), (1, 0), (2, 0)),
    "none": ((0, 0),),
}


@dataclass(frozen=True)
class Instance:
    index: int
    graph_name: str
    map: CombinatorialMap
    couplings: CouplingAssignment
    defects: DefectSet
    seed: int

    def provenance(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "graph": self.graph_name,
            "seed": self.seed,
            "couplings": couplings_to_dict(self.couplings),
            "defects": defects_to_dict(self.defects),
        }


def _sample_paths(
    carrier: CombinatorialMap,
    rng: random.Random,
    n: int,
    forbidden_edges: Sequence[int] = (),
) -> tuple[PathSpec, ...] | None:
    if n == 0:
        return ()
    if carrier.vertex_count < 2 * n:
        return None
    picks = rng.sample(range(carrier.vertex_count), 2 * n)
    paths = []
    for k in range(n):
        p = shortest_path(carrier, picks[2 * k], picks[2 * k + 1], forbidden_edges)
        if p is None:
            return None
        paths.append(p)
    return tuple(paths)


def random_defects(
    m: CombinatorialMap,
    rng: random.Random,
    profile: str = "mixed",
    max_edges: int = MAX_DEFECT_EDGES,
    tries: int = 200,
) -> DefectSet:
    """Disjoint order/disorder paths by rejection; empty set when the
    draw budget runs out (small graphs reject often)."""
    options = _PROFILES[profile]
    for _ in range(tries):
        n_ord, n_dis = rng.choice(options)
        if n_ord == 0 and n_dis == 0:
            return DefectSet.empty()
        order = _sample_paths(m, rng, n_ord)
        if order is None:
            continue
        gamma = sorted({e for p in order for e in p.edges})
        disorder = _sample_paths(m.dual, rng, n_dis, forbidden_edges=gamma)
        if disorder is None:
            continue
        total = sum(len(p.edges) for p in order) + sum(
            len(p.edges) for p in disorder
        )
        if total > max_edges:
            continue
        try:
            return validate_defects(m, order, disorder)
        except BozonError:
            continue
    return DefectSet.empty()


def random_instance(
    index: int,
    rng: random.Random,
    seed: int,
    families: Sequence[str] = FAMILY,
    profile: str = "mixed",
) -> Instance:
    name = rng.choice(list(families))
    m = builtin(name)
    j = base_couplings([rng.uniform(J_LOW, J_HIGH) for _ in range(m.edge_count)])
    d = random_defects(m, rng, profile=profile)
    return Instance(index, name, m, j, d, seed)


def random_instances(
    count: int,
    seed: int,
    families: Sequence[str] = FAMILY,
    profile: str = "mixed",
) -> list[Instance]:
    rng = random.Random(seed)
    return [
        random_instance(i, rng, seed, families=families, profile=profile)
        for i in range(count)
    ]
