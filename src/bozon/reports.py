"""Identity-check reports: one record per verified equality, and the
declared identities (edges) that build them."""

from __future__ import annotations

import cmath
import json
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from .errors import NonFiniteValue
from .planar_map import Frozen

if TYPE_CHECKING:
    from .instances import Instance


class IdentityReport(NamedTuple):
    """Outcome of checking ``lhs == rhs`` (up to a recorded sign); built by
    ``compare``.

    ``sign`` is +1/-1 when the identity is of the form lhs = sign * rhs:
    the predicted sign where it is asserted, the realized one where it is
    fitted; otherwise None.  ``extra`` holds the check's further fields.
    """

    name: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    sign: int | None
    extra: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        def num(z: complex):
            return z.real if z.imag == 0.0 else [z.real, z.imag]

        d: dict[str, Any] = {
            "name": self.name,
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "tol": self.tol,
            "pass": self.passed,
        }
        if self.sign is not None:
            d["sign"] = self.sign
        for k, v in sorted(self.extra.items()):
            d[k] = v
        return d


def compare(
    name: str,
    lhs: complex,
    rhs: complex,
    tol: float = 1e-9,
    sign: int | None = None,
    extra: dict[str, Any] | None = None,
) -> IdentityReport:
    """Build a report for lhs == rhs at tolerance ``tol``.

    The check passes when abs_err <= tol * max(|lhs|, |rhs|, 1): relative
    when a side is at least 1 in magnitude, and an absolute floor of
    ``tol`` below that (ROADMAP item 1 plans to remove the floor).  The
    recorded rel_err is measured against max(|lhs|, |rhs|, 1e-300), so a
    true zero on both sides gives 0.  Raises NonFiniteValue when either
    side is inf or NaN.
    """
    lhs = complex(lhs)
    rhs = complex(rhs)
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise NonFiniteValue(f"{name}: lhs={lhs} rhs={rhs} is not finite")
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rel_err = abs_err / scale
    passed = abs_err <= tol * max(scale, 1.0)
    return IdentityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        tol=tol,
        passed=passed,
        sign=sign,
        extra=dict(extra or {}),
    )


class Edge(Frozen):
    """One identity a suite checks, lhs = rhs, declared over an instance's
    values (see instances.Instance): the two sides and the report's further
    fields as functions of the instance, the predicted sign the report
    records, and a tolerance that replaces the run's.  A plain class, not a
    NamedTuple, whose string annotations would cost every start-up about
    0.3 ms to evaluate."""

    _fields = ("name", "lhs", "rhs", "sign", "extra", "tol")

    def __init__(
        self, name: str, lhs: Callable[[Instance], complex], rhs: Callable[[Instance], complex],
        sign: int | None = None, extra: Callable[[Instance], dict[str, Any]] | None = None,
        tol: float | None = None,
    ) -> None:
        self.__dict__.update(name=name, lhs=lhs, rhs=rhs, sign=sign, extra=extra, tol=tol)


def edge_reports(edges: Sequence[Edge], inst: Instance, tol: float = 1e-9) -> list[IdentityReport]:
    """Every edge's report on ``inst``, in order, failed or not.  The
    right-hand sides are read first: they hold the dimer sums, so a map
    without a G_Q raises before any spin sum."""
    rhs = [edge.rhs(inst) for edge in edges]
    return [
        compare(edge.name, edge.lhs(inst), r, tol=tol if edge.tol is None else edge.tol,
                sign=edge.sign, extra=edge.extra and edge.extra(inst))
        for edge, r in zip(edges, rhs)
    ]


_CHECK_CORE = ("name", "lhs", "rhs", "abs_err", "rel_err", "tol", "pass", "sign")


def flatten_check(check: dict[str, Any]) -> dict[str, Any]:
    """CSV-friendly view of a serialized check: complex values become
    re/im column pairs, structured extras become JSON strings."""

    def split(v: Any) -> tuple[float, float]:
        if isinstance(v, list):
            return float(v[0]), float(v[1])
        return float(v), 0.0

    out: dict[str, Any] = {"check": check["name"]}
    out["lhs_re"], out["lhs_im"] = split(check["lhs"])
    out["rhs_re"], out["rhs_im"] = split(check["rhs"])
    out["abs_err"] = check["abs_err"]
    out["rel_err"] = check["rel_err"]
    out["tol"] = check["tol"]
    out["check_pass"] = check["pass"]
    out["sign"] = check.get("sign", "")
    for k, v in check.items():
        if k in _CHECK_CORE:
            continue
        out[k] = json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v
    return out
