"""Identity-check reports: one record per verified equality."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import IdentityViolation


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking ``lhs == rhs`` (up to a recorded sign).

    ``sign`` is +1/-1 when the identity is of the form lhs = sign * rhs:
    the predicted sign where it is asserted, the realized one where it is
    fitted; otherwise None.
    """

    name: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    sign: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)

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

    def require(self) -> "IdentityReport":
        if not self.passed:
            raise IdentityViolation(
                f"{self.name}: lhs={self.lhs} rhs={self.rhs} "
                f"rel_err={self.rel_err:.3e} tol={self.tol:.1e}",
                report=self,
            )
        return self


def compare(
    name: str,
    lhs: complex,
    rhs: complex,
    tol: float = 1e-9,
    sign: int | None = None,
    extra: dict[str, Any] | None = None,
) -> IdentityReport:
    """Build a report for lhs == rhs with relative tolerance ``tol``.

    The relative error is measured against max(|lhs|, |rhs|, 1e-300) so a
    true zero on both sides passes cleanly.
    """
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    rel_err = abs_err / scale
    passed = abs_err <= tol * max(scale, 1.0) or rel_err <= tol
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
