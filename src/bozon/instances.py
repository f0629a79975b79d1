"""Seeded random verification instances over the builtin graph family.

An instance is a builtin map, i.i.d. couplings J ~ Uniform(0.1, 2.0), and
defect paths found by rejection sampling of disjoint BFS shortest paths
(primal for order, dual for disorder).  The seed fully determines the
stream, and every instance carries enough provenance to replay it.
Instances are immutable, so each stream is drawn once per process and
shared by every suite that runs it, together with the values that the
suites' declared edges compare (see Instance and suites): each is taken
once, however many edges read it.
"""

from __future__ import annotations

import math
import random
from functools import cached_property, lru_cache
from typing import Any, Sequence

from .boundary import ReductionResult, clear_faces, reduce_dobrushin, reduce_plus, reduce_plus_free
from .dimer import auto_route, dimer_partition_function, graph_context, nu_from_couplings
from .errors import BozonError, IdentityViolation, SingularMatrix
from .graphs import builtin
from .ising import (
    CouplingAssignment,
    base_couplings,
    dual_couplings,
    i_power,
    inserted_spin_sum,
    modify_couplings,
    partition_function,
)
from .planar_map import (
    CombinatorialMap,
    DefectSet,
    Frozen,
    PathSpec,
    shortest_path,
    validate_defects,
    vertex_to_dual_face,
)
from .polygon import pair_polygon_sum
from .serialize import couplings_to_dict, defects_to_dict

FAMILY = ("k3", "c4", "grid_2_3", "grid_3_3", "wheel_4")
J_LOW = 0.1
J_HIGH = 2.0
MAX_DEFECT_EDGES = 4
# Distinct (count, seed, families, profile) streams kept drawn.
STREAM_CACHE_SIZE = 16

# (order path count, disorder path count) draws per defect profile; the
# mixed profile repeats (1, 1) to favor genuinely mixed instances.
_PROFILES: dict[str, tuple[tuple[int, int], ...]] = {
    "mixed": ((0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (2, 0), (0, 2)),
    "order_only": ((1, 0), (1, 0), (2, 0)),
    "none": ((0, 0),),
}


class Instance(Frozen):
    """A map with couplings J and defects, its provenance (stream index,
    graph name, seed), and the values the suites' edges compare (see
    suites), each computed on first use, by the kernel call a check would
    make, and kept: ``jbar``, ``z`` = Z(J), ``zbar`` = Z(Jbar),
    ``direct`` = the spin average at the boundary of Gamma by the spin sum,
    ``scale`` = 2^|V| prod_e cosh(2J_e), ``pair_sum`` = the bare
    pair-polygon sum P(Jbar), ``det``, ``det_bar`` = the dimer sums of
    nu(J) and nu(Jbar) by the determinant, and ``dimer``, ``dimer_bar`` =
    the same sums by ``route``, the route "auto" takes on the map's G_Q.
    Without a defect edge Jbar is J, and each Jbar value is its J value,
    not summed again.  ``correlator`` = (-i)^{|Gamma|} Z(Jbar)/Z(J) and
    ``dimer_ratio`` = dimer_bar/dimer are read off the kept values.
    ``dual`` is the dual instance and ``boundary`` the boundary suite's
    seeded reductions with their sums; a suite record drops both once its
    checks are made."""

    _fields = ("index", "graph_name", "map", "couplings", "defects", "seed")

    def __init__(
        self, m: CombinatorialMap, couplings: CouplingAssignment, defects: DefectSet,
        index: int = 0, graph_name: str = "input", seed: int = 0,
    ) -> None:
        self.__dict__.update(index=index, graph_name=graph_name, map=m,
                             couplings=couplings, defects=defects, seed=seed)

    @property
    def _defective(self) -> bool:
        return bool(self.defects.gamma or self.defects.gamma_star)

    @cached_property
    def jbar(self) -> CouplingAssignment:
        return modify_couplings(self.couplings, self.defects)

    @cached_property
    def z(self) -> complex:
        return partition_function(self.map, self.couplings)

    @cached_property
    def zbar(self) -> complex:
        return partition_function(self.map, self.jbar) if self._defective else self.z

    @property
    def correlator(self) -> float:
        """Real by exact phase bookkeeping; an imaginary residue is checked
        anyway.  Each read divides the kept sums again."""
        value = i_power(-len(self.defects.gamma)) * (self.zbar / self.z)
        if abs(value.imag) > 1e-12 * max(1.0, abs(value)):
            raise IdentityViolation(f"correlator has imaginary residue {value.imag!r}")
        return value.real

    @cached_property
    def direct(self) -> float:
        """E[product of the spins at the boundary of Gamma (the order paths'
        endpoints)], summed directly: the sweep with those spins inserted
        over the kept Z(J), whose phase is 1 as J is a base assignment.
        1.0 without an order edge."""
        ends = [v for e in self.defects.gamma for v in self.map.edge_endpoints(e)]
        return inserted_spin_sum(self.map, self.couplings, ends) / self.z.real if ends else 1.0

    @cached_property
    def scale(self) -> float:
        real = self.couplings.real
        return 2**self.map.vertex_count * math.prod(
            [math.cosh(2 * real[e]) for e in range(self.map.edge_count)]
        )

    @cached_property
    def pair_sum(self) -> float:
        return pair_polygon_sum(self.map, self.map.dual, self.jbar, include_constant=False)

    def _dimer(self, route: str, bar: bool) -> float:
        """D(nu(Jbar)) when ``bar``, else D(nu(J)), by ``route``.  D(nu(J))
        divides every dimer ratio, so 0 there raises SingularMatrix."""
        gq = graph_context(self.map)
        j = self.jbar if bar else self.couplings
        value = dimer_partition_function(gq, nu_from_couplings(gq, j), route)[0]
        if value == 0.0 and not bar:
            raise SingularMatrix("dimer partition function of nu(J) vanished")
        return value

    @cached_property
    def det(self) -> float:
        return self._dimer("determinant", False)

    @cached_property
    def det_bar(self) -> float:
        return self._dimer("determinant", True) if self._defective else self.det

    @property
    def route(self) -> str:
        return auto_route(graph_context(self.map))

    @cached_property
    def dimer(self) -> float:
        return self.det if self.route == "determinant" else self._dimer("brute", False)

    @cached_property
    def dimer_bar(self) -> float:
        if self.route == "determinant":
            return self.det_bar
        return self._dimer("brute", True) if self._defective else self.dimer

    @property
    def dimer_ratio(self) -> float:
        """D(nu(Jbar)) / D(nu(J)) by ``route``, the denominator taken first
        (it raises SingularMatrix at 0).  Each read divides again."""
        d = self.dimer
        return self.dimer_bar / d

    @cached_property
    def dual(self) -> Instance:
        """(G*, J*, the defects swapped across the duality: order paths
        become disorder paths, and disorder paths order paths)."""
        m, d = self.map, self.defects
        if d.order_paths or d.disorder_paths:
            f_of = vertex_to_dual_face(m)
            swapped = tuple(
                PathSpec((f_of[p.endpoints[0]], f_of[p.endpoints[1]]), p.edges)
                for p in d.order_paths
            )
            dstar = validate_defects(m.dual, d.disorder_paths, swapped)
        else:
            dstar = DefectSet.from_edge_sets(d.gamma_star, d.gamma)
        return Instance(m.dual, dual_couplings(self.couplings), dstar)

    @cached_property
    def boundary(self) -> dict[str, tuple[complex, complex, dict[str, Any]]]:
        """The boundary suite's seeded reductions, by check name, each as
        (Z(Jbar) under its boundary condition, scalar * Z_free of the
        reduced instance, its draws): plus on a face clear of defects, then
        plus on an arc of that face, then, where the face's walk is a simple
        cycle with a split whose minus arc touches no defect edge, Dobrushin
        at that split.  An arc that fixes every vertex of the face reuses
        the plus reduction and both of its sums, and a reduction whose
        reduced (map, couplings, defects) equal an earlier one's reuses its
        Z_free (a Dobrushin fan dropped as a pure gauge gives the plus
        reduction's)."""
        m, j, d = self.map, self.couplings, self.defects
        rng = random.Random(f"{self.seed}-boundary-{self.index}")
        faces = clear_faces(m, d)
        face = faces[rng.randrange(len(faces))]
        cycle = list(m.face_edges(face))
        length = len(cycle)

        reduced: dict[tuple, Instance] = {}

        def sides(res: ReductionResult, **draws: Any) -> tuple[complex, complex, dict[str, Any]]:
            key = (res.new_map, res.new_couplings, res.new_defects)
            inst = reduced.setdefault(key, Instance(*key))
            return (partition_function(m, self.jbar, fixed=res.fixed),
                    res.scalar * inst.zbar, {"face": face, **draws})

        plus = sides(reduce_plus(m, j, d, face))
        start = rng.randrange(length)
        span = rng.randint(1, length)
        arc = [cycle[(start + i) % length] for i in range(span)]
        if {v for e in arc for v in m.edge_endpoints(e)} == set(m.face_vertices(face)):
            plus_free = (plus[0], plus[1], {"face": face, "arc_edges": span})
        else:
            plus_free = sides(reduce_plus_free(m, j, d, arc, face), arc_edges=span)
        out = {"reduce_plus": plus, "reduce_plus_free": plus_free}
        walk = [m.dart_vertex[t] for t in m.faces[face]]
        if len(set(walk)) < length or len(set(cycle)) < length:
            return out  # the walk passes a cut vertex: no split into two arcs
        a = rng.randrange(length)
        b = (a + rng.randrange(1, length)) % length
        a, b = min(a, b), max(a, b)
        ends = {v for e in d.gamma | d.gamma_star for v in m.edge_endpoints(e)}
        touched = [i for i, v in enumerate(walk) if v in ends]
        if touched and not a < touched[0] <= touched[-1] <= b:
            # the gauge flip would reclassify a defect edge at the drawn
            # minus arc, walk positions b+1 .. a+length; every minus arc
            # holds position 0, and (0, the last touched position) is the
            # first clear split
            if touched[0] == 0:
                return out
            a, b = 0, touched[-1]
        res = reduce_dobrushin(m, j, d, face, (a, b))
        out["reduce_dobrushin"] = sides(res, split=[a, b], disorder_line=len(res.disorder_line))
        return out

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
        if total > MAX_DEFECT_EDGES:
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
    return Instance(m, j, d, index=index, graph_name=name, seed=seed)


def random_instances(
    count: int,
    seed: int,
    families: Sequence[str] = FAMILY,
    profile: str = "mixed",
) -> tuple[Instance, ...]:
    """The seeded stream of ``count`` instances, drawn once per process."""
    return _stream(count, seed, tuple(families), profile)


@lru_cache(maxsize=STREAM_CACHE_SIZE)
def _stream(
    count: int, seed: int, families: tuple[str, ...], profile: str
) -> tuple[Instance, ...]:
    rng = random.Random(seed)
    return tuple(
        random_instance(i, rng, seed, families=families, profile=profile)
        for i in range(count)
    )
