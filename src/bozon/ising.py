"""Exact Ising machinery with complex couplings.

Modified couplings are stored as a (real, half_pi flag) pair per edge so
that the imaginary shift is exact: for s = +-1,
``exp((a + i*pi/2)*s) = i*s*exp(a*s)``, hence a flagged edge contributes
an exact factor of i times the spin product and the partition function is
``i**k`` times a real spin sum (k = number of flagged edges).  No complex
trigonometry is ever evaluated.

That real sum covers every spin configuration without listing them: one
frontier sweep (a transfer matrix) adds the vertices in a narrow order and
keeps one summed weight per spin pattern of the live vertices.  Every
call sweeps: nothing here keeps a sum.  The sums that several of a
verification instance's declared edges read (Z(J), Z(Jbar), and the dual
instance's for the duality edges) are taken once and kept on the instance
(``instances.Instance``).
"""

from __future__ import annotations

import math
from typing import Collection, Mapping, NamedTuple, Sequence

from .errors import (
    CouplingUnderflow,
    LengthMismatch,
    NonPositiveCoupling,
    OverlapError,
    TooLarge,
)
from .planar_map import CombinatorialMap, DefectSet

# The most live states a frontier sweep may hold after a step; a sweep's
# time and memory follow this count.
STATE_CAP = 1 << 16

# exact powers of i
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def i_power(k: int) -> complex:
    return _I_POW[k % 4]


class _Couplings(NamedTuple):
    real: tuple[float, ...]
    half_pi: tuple[bool, ...]


class CouplingAssignment(_Couplings):
    """Per-edge couplings a_e + i*(pi/2)*flag_e, held exactly."""

    __slots__ = ()

    def __new__(cls, real: tuple[float, ...], half_pi: tuple[bool, ...]) -> CouplingAssignment:
        if len(real) != len(half_pi):
            raise LengthMismatch("real and half_pi lengths differ")
        return tuple.__new__(cls, (real, half_pi))

    @property
    def edge_count(self) -> int:
        return len(self.real)

    @property
    def phase_power(self) -> int:
        """Number of flagged edges: Z carries an exact factor i**phase_power."""
        return sum(self.half_pi)

    def value(self, e: int) -> complex:
        return self.real[e] + (1j * math.pi / 2 if self.half_pi[e] else 0)

    # closed forms for functions of 2*J, exact in the iota*pi/2 shift:
    # tanh(2a + i*pi) = tanh(2a), cosh(2a + i*pi) = -cosh(2a).
    def tanh2(self, e: int) -> float:
        return math.tanh(2 * self.real[e])

    def cosh2(self, e: int) -> float:
        c = math.cosh(2 * self.real[e])
        return -c if self.half_pi[e] else c

    def sech2(self, e: int) -> float:
        s = _sech(2 * self.real[e])
        return -s if self.half_pi[e] else s


def _sech(x: float) -> float:
    """1/cosh(x); past |x| = 710.5, where cosh(x) overflows, 2e^-|x|, which
    is then 1/cosh(x) to double precision (subnormal, or 0)."""
    try:
        return 1.0 / math.cosh(x)
    except OverflowError:
        return 2.0 * math.exp(-abs(x))


def base_couplings(values: Sequence[float]) -> CouplingAssignment:
    """Base assignment: finite, strictly positive reals, no phase flags."""
    try:
        vals = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonPositiveCoupling(f"couplings must be real numbers: {exc}") from exc
    for e, v in enumerate(vals):
        if not 0 < v < math.inf:
            raise NonPositiveCoupling(f"J_{e} = {v} must be finite and > 0")
    return CouplingAssignment(real=vals, half_pi=(False,) * len(vals))


def uniform_couplings(edge_count: int, j: float) -> CouplingAssignment:
    return base_couplings((j,) * edge_count)


def modify_couplings(j: CouplingAssignment, d: DefectSet) -> CouplingAssignment:
    """J_e + i*pi/2 on order edges, -J_e on disorder-crossed edges."""
    if not all(0 <= e < j.edge_count for e in d.gamma | d.gamma_star):
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


def _spin_sum(
    m: CombinatorialMap, j: CouplingAssignment, fixed: Mapping[int, int] | None,
    obs: Collection[int],
) -> float:
    """Z over its exact phase i**k, with the spins in obs multiplied in.
    The inputs are checked first: a step leaves 2^(live free spins) states,
    so the plan alone tells, before any state is made, whether one would
    leave more than STATE_CAP: then it raises TooLarge.  No step holds more
    than 2^(free spins) states, so the plan is walked only when that
    exceeds STATE_CAP."""
    if j.edge_count != m.edge_count:
        raise LengthMismatch("coupling count differs from edge count")
    fixed = fixed or {}
    for v, s in fixed.items():
        if s not in (-1, 1):
            raise ValueError(f"fixed spin at {v} must be +-1, got {s}")
        if not 0 <= v < m.vertex_count:
            raise ValueError(f"fixed spin at {v} is not a vertex")
    if 1 << (m.vertex_count - len(fixed)) > STATE_CAP:
        pinned = sum(1 << v for v in fixed)
        live = 0
        for v, _back, keep in m.vertex_plan[1]:
            live = (live | 1 << v) & keep
            held = 1 << (live & ~pinned).bit_count()
            if held > STATE_CAP:
                raise TooLarge(f"spin sweep holds {held} states, cap is {STATE_CAP}")
    return _sweep(m, j.real, j.half_pi, fixed, obs)


def _sweep(
    m: CombinatorialMap, real: Sequence[float], half_pi: Sequence[bool],
    fixed: Mapping[int, int], obs: Collection[int],
) -> float:
    """The frontier sweep of a checked input.  A state is the mask of live
    vertices with spin -1, valued by the summed weight of the swept spins.
    At vertex v each state takes each allowed spin and multiplies in one
    factor per edge to an earlier neighbour: e^a if the spins agree, else
    e^-a, negated on a flagged edge, as exp((a + i*pi/2)x) = i*x*e^(ax).  A
    vertex in obs flips the sign at spin -1.  Vertices with no later
    neighbour leave the mask, so equal states merge.  A self-loop
    contributes e^a once.

    The state loop is written out for up to three back edges, nearly every
    step of a planar sweep.  Folding the sign into the first factor is
    exact, as (sign*z)*f == z*(sign*f) for sign = +-1, and every other
    product and sum keeps the order of the generic loop, so the sum is
    bit-identical to it."""
    loops, steps = m.vertex_plan
    same = [math.exp(a) for a in real]
    differ = [-math.exp(-a) if f else math.exp(-a) for a, f in zip(real, half_pi)]
    states = {0: math.prod((same[e] for e in loops), start=1.0)}
    for v, back, keep in steps:
        new: dict[int, float] = {}
        get = new.get
        for s in (fixed[v],) if v in fixed else (1, -1):
            down = 1 << v if s < 0 else 0
            sign = -1.0 if s < 0 and v in obs else 1.0
            f_down, f_up = (same, differ) if s < 0 else (differ, same)
            if not back:
                for key, z in states.items():
                    nxt = (key | down) & keep
                    new[nxt] = get(nxt, 0.0) + sign * z
            elif len(back) == 1:
                ((e1, b1),) = back
                d1, u1 = sign * f_down[e1], sign * f_up[e1]
                for key, z in states.items():
                    nxt = (key | down) & keep
                    new[nxt] = get(nxt, 0.0) + z * (d1 if key & b1 else u1)
            elif len(back) == 2:
                (e1, b1), (e2, b2) = back
                d1, u1 = sign * f_down[e1], sign * f_up[e1]
                d2, u2 = f_down[e2], f_up[e2]
                for key, z in states.items():
                    nxt = (key | down) & keep
                    new[nxt] = get(nxt, 0.0) + (
                        z * (d1 if key & b1 else u1) * (d2 if key & b2 else u2)
                    )
            elif len(back) == 3:
                (e1, b1), (e2, b2), (e3, b3) = back
                d1, u1 = sign * f_down[e1], sign * f_up[e1]
                d2, u2, d3, u3 = f_down[e2], f_up[e2], f_down[e3], f_up[e3]
                for key, z in states.items():
                    nxt = (key | down) & keep
                    new[nxt] = get(nxt, 0.0) + (
                        z * (d1 if key & b1 else u1) * (d2 if key & b2 else u2)
                        * (d3 if key & b3 else u3)
                    )
            else:
                factors = [(f_down[e], f_up[e], bit) for e, bit in back]
                for key, z in states.items():
                    w = sign * z
                    for if_down, if_up, bit in factors:
                        w *= if_down if key & bit else if_up
                    nxt = (key | down) & keep
                    new[nxt] = get(nxt, 0.0) + w
        states = new
    return sum(states.values())


def partition_function(
    m: CombinatorialMap,
    j: CouplingAssignment,
    fixed: Mapping[int, int] | None = None,
) -> complex:
    """Spin sum of exp(sum_e J_e s_u s_v) over all configurations of the
    free spins, by the frontier sweep.

    The result is exactly i**k times the sweep's real sum, k = number of
    flagged edges; the phase is applied from the exact table.
    """
    return i_power(j.phase_power) * _spin_sum(m, j, fixed, ())


def inserted_spin_sum(
    m: CombinatorialMap,
    j: CouplingAssignment,
    vertices: Sequence[int],
    fixed: Mapping[int, int] | None = None,
) -> float:
    """Z over its exact phase i**k with the spins at ``vertices`` multiplied
    in, by the sweep: the numerator of spin_expectation.  Repeated vertices
    cancel in pairs."""
    odd: set[int] = set()
    for v in vertices:
        # checked before pairs cancel, so [99, 99] is refused like [99]
        if not 0 <= v < m.vertex_count:
            raise ValueError(f"observable spin at {v} is not a vertex")
        odd ^= {v}
    return _spin_sum(m, j, fixed, odd)


def spin_expectation(
    m: CombinatorialMap,
    j: CouplingAssignment,
    vertices: Sequence[int],
    fixed: Mapping[int, int] | None = None,
) -> float:
    """E[prod_{v in vertices} s_v] under the (possibly fixed-spin) measure:
    the sweep with the observable spins inserted over the sweep without.
    The phase factors of flagged edges divide out between numerator and
    denominator, so the result is real.
    """
    return inserted_spin_sum(m, j, vertices, fixed) / _spin_sum(m, j, fixed, ())


def high_temp_expansion_check(
    m: CombinatorialMap,
    k: CouplingAssignment,
) -> tuple[complex, complex]:
    """Spin sum vs 2^|V| (prod_e cosh K_e) sum_{polygons} prod tanh K_e,
    the polygon sum taken by the pair sweep with no dual polygons.

    Returns (lhs, rhs) for the caller to compare; both sides carry the
    same exact i**k phase when K is modified.
    """
    from .polygon import _polygon_sweep

    lhs = partition_function(m, k)
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
    poly_sum = _polygon_sweep(m, tanh, None)
    rhs = i_power(k.phase_power) * (2**m.vertex_count) * cosh_prod * poly_sum
    return lhs, rhs


def dual_couplings(j: CouplingAssignment) -> CouplingAssignment:
    """Kramers-Wannier dual couplings J* = -(1/2) ln tanh J, indexed by the
    identity edge bijection of the dual map.  With x = e^{-2J} that is
    (1/2) ln(1 + 2x/(1 - x)), which keeps full precision at strong
    coupling, where tanh J rounds to 1.  At a subnormal J, 2x/(1 - x)
    overflows, and J* is taken as (1/2)(ln(1 + x) - ln(1 - x)) instead.
    Raises CouplingUnderflow where J* underflows to 0."""
    out = []
    for e in range(j.edge_count):
        a = j.real[e]
        if j.half_pi[e] or not a > 0:
            raise NonPositiveCoupling(
                f"J_{e} = {j.value(e)} is not a base coupling"
            )
        x, one_less = math.exp(-2 * a), -math.expm1(-2 * a)
        js = 0.5 * math.log1p(2 * x / one_less)
        if js == math.inf:
            js = 0.5 * (math.log1p(x) - math.log(one_less))
        if js == 0.0:
            raise CouplingUnderflow(f"dual coupling of J_{e} = {a} underflows to 0")
        out.append(js)
    return base_couplings(out)
