"""Exact Ising machinery with complex couplings.

Modified couplings are stored as a (real, half_pi flag) pair per edge so
that the imaginary shift is exact: for s = +-1,
``exp((a + i*pi/2)*s) = i*s*exp(a*s)``, hence a flagged edge contributes
an exact factor of i times the spin product and the partition function is
``i**k`` times a real spin sum (k = number of flagged edges).  No complex
trigonometry is ever evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import LengthMismatch, NonPositiveCoupling, OverlapError, TooLarge
from .planar_map import CombinatorialMap, DefectSet

SPIN_CAP = 24
EDGE_CAP = 24
_CHUNK_BITS = 18

# exact powers of i
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def i_power(k: int) -> complex:
    return _I_POW[k % 4]


@dataclass(frozen=True)
class CouplingAssignment:
    """Per-edge couplings a_e + i*(pi/2)*flag_e, held exactly."""

    real: tuple[float, ...]
    half_pi: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.real) != len(self.half_pi):
            raise LengthMismatch("real and half_pi lengths differ")

    @property
    def edge_count(self) -> int:
        return len(self.real)

    @property
    def phase_power(self) -> int:
        """Number of flagged edges: Z carries an exact factor i**phase_power."""
        return sum(self.half_pi)

    def value(self, e: int) -> complex:
        return self.real[e] + (1j * math.pi / 2 if self.half_pi[e] else 0)

    @property
    def values(self) -> tuple[complex, ...]:
        return tuple(self.value(e) for e in range(self.edge_count))

    # closed forms for functions of 2*J, exact in the iota*pi/2 shift:
    # tanh(2a + i*pi) = tanh(2a), cosh(2a + i*pi) = -cosh(2a).
    def tanh2(self, e: int) -> float:
        return math.tanh(2 * self.real[e])

    def cosh2(self, e: int) -> float:
        c = math.cosh(2 * self.real[e])
        return -c if self.half_pi[e] else c

    def sech2(self, e: int) -> float:
        s = 1.0 / math.cosh(2 * self.real[e])
        return -s if self.half_pi[e] else s

    # single-angle closed forms: cosh(a + i*pi/2) = i*sinh(a),
    # tanh(a + i*pi/2) = coth(a).
    def cosh1(self, e: int) -> complex:
        if self.half_pi[e]:
            return 1j * math.sinh(self.real[e])
        return complex(math.cosh(self.real[e]))

    def tanh1(self, e: int) -> complex:
        if self.half_pi[e]:
            return complex(1.0 / math.tanh(self.real[e]))
        return complex(math.tanh(self.real[e]))


def base_couplings(values: Sequence[float]) -> CouplingAssignment:
    """Base assignment: strictly positive reals, no phase flags."""
    vals = tuple(float(v) for v in values)
    for e, v in enumerate(vals):
        if not v > 0:
            raise NonPositiveCoupling(f"J_{e} = {v} must be > 0")
    return CouplingAssignment(real=vals, half_pi=(False,) * len(vals))


def uniform_couplings(edge_count: int, j: float) -> CouplingAssignment:
    return base_couplings((j,) * edge_count)


def modify_couplings(j: CouplingAssignment, d: DefectSet) -> CouplingAssignment:
    """J_e + i*pi/2 on order edges, -J_e on disorder-crossed edges."""
    if max(d.gamma | d.gamma_star, default=-1) >= j.edge_count:
        raise ValueError("defect edge id out of range")
    if d.gamma & d.gamma_star:
        raise OverlapError(f"defect sets overlap: {sorted(d.gamma & d.gamma_star)}")
    real = list(j.real)
    flags = list(j.half_pi)
    for e in d.gamma:
        flags[e] = not flags[e]
    for e in d.gamma_star:
        real[e] = -real[e]
    return CouplingAssignment(real=tuple(real), half_pi=tuple(flags))


def _spin_chunks(
    m: CombinatorialMap,
    fixed: Mapping[int, int] | None,
    max_vertices: int,
):
    """Yield (spins, n) blocks covering all assignments of the free spins.

    spins has shape (n, |V|), values +-1, fixed columns held constant.
    Chunks are yielded in increasing configuration order so any ordered
    reduction over them is deterministic.
    """
    fixed = dict(fixed or {})
    for v, s in fixed.items():
        if s not in (-1, 1):
            raise ValueError(f"fixed spin at {v} must be +-1, got {s}")
    free = [v for v in range(m.vertex_count) if v not in fixed]
    if len(free) > max_vertices:
        raise TooLarge(
            f"{len(free)} free spins exceeds enumeration cap {max_vertices}"
        )
    total = 1 << len(free)
    chunk = min(total, 1 << _CHUNK_BITS)
    base = np.zeros(m.vertex_count, dtype=np.int8)
    for v, s in fixed.items():
        base[v] = s
    free_arr = np.array(free, dtype=np.int64)
    for start in range(0, total, chunk):
        n = min(chunk, total - start)
        spins = np.broadcast_to(base, (n, m.vertex_count)).copy()
        if len(free):
            codes = np.arange(start, start + n, dtype=np.int64)
            bits = (codes[:, None] >> np.arange(len(free))) & 1
            spins[:, free_arr] = (1 - 2 * bits).astype(np.int8)
        yield spins, n


def _edge_arrays(m: CombinatorialMap):
    u = np.array([m.edge_endpoints(e)[0] for e in range(m.edge_count)], dtype=np.int64)
    v = np.array([m.edge_endpoints(e)[1] for e in range(m.edge_count)], dtype=np.int64)
    return u, v


def partition_function(
    m: CombinatorialMap,
    j: CouplingAssignment,
    fixed: Mapping[int, int] | None = None,
    max_vertices: int = SPIN_CAP,
) -> complex:
    """Spin sum of exp(sum_e J_e s_u s_v) over all (free) configurations.

    The result is exactly i**k times a real number, k = number of flagged
    edges; the phase is applied from the exact table.
    """
    if j.edge_count != m.edge_count:
        raise LengthMismatch("coupling count differs from edge count")
    u, v = _edge_arrays(m)
    real = np.array(j.real)
    flagged = np.flatnonzero(np.array(j.half_pi))
    acc = 0.0
    for spins, _n in _spin_chunks(m, fixed, max_vertices):
        prod = spins[:, u].astype(np.float64) * spins[:, v]
        energy = prod @ real
        w = np.exp(energy)
        if len(flagged):
            w *= prod[:, flagged].prod(axis=1)
        acc += float(w.sum())
    return i_power(j.phase_power) * acc


def spin_expectation(
    m: CombinatorialMap,
    j: CouplingAssignment,
    vertices: Sequence[int],
    fixed: Mapping[int, int] | None = None,
    max_vertices: int = SPIN_CAP,
) -> float:
    """E[prod_{v in vertices} s_v] under the (possibly fixed-spin) measure.

    Repeated vertices cancel in pairs.  The phase factors of flagged edges
    divide out between numerator and denominator, so the result is real.
    """
    counts: dict[int, int] = {}
    for v0 in vertices:
        counts[v0] = counts.get(v0, 0) + 1
    obs = np.array(sorted(v0 for v0, c in counts.items() if c % 2), dtype=np.int64)
    u, v = _edge_arrays(m)
    real = np.array(j.real)
    flagged = np.flatnonzero(np.array(j.half_pi))
    num = 0.0
    den = 0.0
    for spins, _n in _spin_chunks(m, fixed, max_vertices):
        prod = spins[:, u].astype(np.float64) * spins[:, v]
        w = np.exp(prod @ real)
        if len(flagged):
            w *= prod[:, flagged].prod(axis=1)
        den += float(w.sum())
        if len(obs):
            w = w * spins[:, obs].prod(axis=1)
        num += float(w.sum())
    return num / den


@dataclass(frozen=True)
class IsingCorrelator:
    """Raw order/disorder correlator Z(J_bar)/Z(J); multiply by
    (-i)**gamma_size to land on the real expectation value when no
    disorder defects are present."""

    value: complex
    gamma_size: int
    gamma_star_size: int

    @property
    def normalized(self) -> complex:
        return i_power(-self.gamma_size) * self.value


def order_disorder_correlation(
    m: CombinatorialMap,
    j: CouplingAssignment,
    d: DefectSet,
    max_vertices: int = SPIN_CAP,
) -> IsingCorrelator:
    jbar = modify_couplings(j, d)
    z_bar = partition_function(m, jbar, max_vertices=max_vertices)
    z = partition_function(m, j, max_vertices=max_vertices)
    return IsingCorrelator(
        value=z_bar / z,
        gamma_size=len(d.gamma),
        gamma_star_size=len(d.gamma_star),
    )


def high_temp_expansion_check(
    m: CombinatorialMap,
    k: CouplingAssignment,
    max_vertices: int = SPIN_CAP,
    max_edges: int = EDGE_CAP,
) -> tuple[complex, complex]:
    """Spin sum vs 2^|V| (prod_e cosh K_e) sum_{polygons} prod tanh K_e.

    Returns (lhs, rhs) for the caller to compare; both sides carry the
    same exact i**k phase when K is modified.
    """
    from .polygon import enumerate_polygons

    lhs = partition_function(m, k, max_vertices=max_vertices)
    # cosh(a + i*pi/2) = i sinh a keeps the phase exact: prod cosh = i^k * real
    cosh_prod = 1.0
    tanh = []
    for e in range(m.edge_count):
        if k.half_pi[e]:
            cosh_prod *= math.sinh(k.real[e])
            tanh.append(1.0 / math.tanh(k.real[e]))
        else:
            cosh_prod *= math.cosh(k.real[e])
            tanh.append(math.tanh(k.real[e]))
    poly_sum = 0.0
    for p in enumerate_polygons(m, max_edges=max_edges):
        term = 1.0
        for e in p.edges:
            term *= tanh[e]
        poly_sum += term
    rhs = i_power(k.phase_power) * (2**m.vertex_count) * cosh_prod * poly_sum
    return lhs, rhs


def dual_couplings(j: CouplingAssignment) -> CouplingAssignment:
    """Kramers-Wannier dual couplings J* = -(1/2) ln tanh J, indexed by the
    identity edge bijection of the dual map."""
    out = []
    for e in range(j.edge_count):
        if j.half_pi[e] or not j.real[e] > 0:
            raise NonPositiveCoupling(
                f"J_{e} = {j.value(e)} is not a base coupling"
            )
        out.append(-0.5 * math.log(math.tanh(j.real[e])))
    return base_couplings(out)
