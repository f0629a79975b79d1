"""Command-line front end: run verification suites, export the derived
dimer graph and diagrams, and print builtin rotation systems.

Exit codes: 0 when every check passes, 1 on an identity violation,
2 on an input or configuration error.  Identical (config, seed) pairs
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Any, Sequence

from .dimer import graph_context, nu_from_couplings
from .drawing import (
    draw_corner_overlay,
    draw_dual,
    draw_gq,
    draw_map,
    draw_polygon_pair,
)
from .errors import BozonError, IdentityViolation
from .graphs import BUILTIN_EXAMPLES, builtin
from .ising import EDGE_CAP, SPIN_CAP, uniform_couplings
from .reports import flatten_check
from .serialize import (
    canonical_json,
    couplings_from_dict,
    defect_paths_from_dict,
    gq_to_dict,
    map_from_dict,
    map_to_dict,
)
from .suites import (
    DEFAULT_SEED,
    SEEDED_GRAPHS,
    SUITE_NAMES,
    explicit_instance,
    run_explicit,
    run_suite,
    suite_summary,
)


class InputProblem(Exception):
    """A problem with user-supplied files or flag combinations."""


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputProblem(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputProblem(f"{path}: invalid JSON: {exc}") from exc


def _parse_caps(text: str) -> dict[str, int]:
    """``V=..,E=..`` enumeration gates.  Caps only tighten the built-in
    limits; the library's own guards stay in force above them."""
    caps = {"V": SPIN_CAP, "E": EDGE_CAP}
    if not text:
        return caps
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip().upper()
        if not sep or key not in caps:
            raise argparse.ArgumentTypeError(
                f"bad cap {part!r}; use V=<n>,E=<n>"
            )
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cap {key} needs an integer")
        if n <= 0:
            raise argparse.ArgumentTypeError(f"cap {key} must be positive")
        caps[key] = n
    return caps


def _check_caps(m, name: str, caps: dict[str, int]) -> None:
    """Reject a map above the --caps size gates (or the built-in limits)."""
    v_cap = min(caps["V"], SPIN_CAP)
    e_cap = min(caps["E"], EDGE_CAP)
    if m.vertex_count > v_cap:
        raise InputProblem(f"{name} has {m.vertex_count} vertices, cap is {v_cap}")
    if m.edge_count > e_cap:
        raise InputProblem(f"{name} has {m.edge_count} edges, cap is {e_cap}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputProblem(f"{path}: {exc.strerror or exc}") from exc


def records_to_csv(records: Sequence[dict]) -> str:
    """One row per check (records without checks still get a row); complex
    values appear as re/im column pairs and nested provenance as JSON."""
    rows: list[dict[str, Any]] = []
    fields: list[str] = []

    def take(row: dict[str, Any]) -> None:
        rows.append(row)
        for k in row:
            if k not in fields:
                fields.append(k)

    for rec in records:
        base: dict[str, Any] = {}
        for k, v in rec.items():
            if k == "checks":
                continue
            key = "record_pass" if k == "pass" else k
            base[key] = (
                json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
            )
        checks = rec.get("checks") or ()
        if not checks:
            take(dict(base))
        for check in checks:
            row = dict(base)
            row.update(flatten_check(check))
            take(row)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _input_map(args: argparse.Namespace):
    """Map from --graph FILE or --builtin NAME (exactly one)."""
    if (args.graph is None) == (getattr(args, "builtin", None) is None):
        raise InputProblem("provide exactly one of --graph FILE or --builtin NAME")
    if args.graph is not None:
        name = os.path.splitext(os.path.basename(args.graph))[0] or "input"
        return map_from_dict(_load_json(args.graph)), name
    return builtin(args.builtin), args.builtin


def _input_couplings(args: argparse.Namespace, edge_count: int):
    if args.couplings is None:
        return uniform_couplings(edge_count, 1.0)
    return couplings_from_dict(_load_json(args.couplings), edge_count)


def _input_defects(args: argparse.Namespace):
    if args.defects is None:
        return (), ()
    return defect_paths_from_dict(_load_json(args.defects))


# ------------------------------------------------------------- commands


def cmd_verify(args: argparse.Namespace) -> int:
    caps = args.caps
    config: dict[str, Any] = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "tol": args.tol,
        "caps": caps,
        "format": args.format,
    }

    if args.graph is not None and args.random is not None:
        raise InputProblem("--graph and --random are mutually exclusive")
    if args.graph is not None:
        m = map_from_dict(_load_json(args.graph))
        _check_caps(m, "graph", caps)
        couplings = _input_couplings(args, m.edge_count)
        order_paths, disorder_paths = _input_defects(args)
        name = os.path.splitext(os.path.basename(args.graph))[0] or "input"
        try:
            inst = explicit_instance(
                m,
                couplings,
                order_paths,
                disorder_paths,
                name=name,
                seed=args.seed,
            )
            records = run_explicit(args.suite, inst, tol=args.tol)
        except ValueError as exc:
            raise InputProblem(str(exc)) from exc
        config.update(
            {"mode": "explicit", "graph": args.graph,
             "couplings": args.couplings, "defects": args.defects}
        )
    else:
        if args.random is None:
            raise InputProblem("provide --graph FILE or --random N")
        if args.random <= 0:
            raise InputProblem("--random needs a positive count")
        for name in SEEDED_GRAPHS:
            _check_caps(builtin(name), f"builtin graph {name}", caps)
        records = run_suite(args.suite, count=args.random, seed=args.seed, tol=args.tol)
        config.update({"mode": "random", "count": args.random})

    summary = suite_summary(records)
    if args.format == "csv":
        text = records_to_csv(records)
    else:
        text = canonical_json(
            {"config": config, "records": records, "summary": summary}
        )
    _write_text(args.out, text)
    print(
        f"verify {args.suite}: {summary['total']} records, "
        f"{summary['failed']} failed",
        file=sys.stderr,
    )
    return 0 if summary["pass"] else 1


def _reference_matching(gq) -> tuple[int, ...]:
    """The all-legs configuration, validated as a perfect matching."""
    matching = tuple(sorted(set(gq.vertex_legs)))
    touched: list[int] = []
    for k in matching:
        touched.extend(gq.map.edge_endpoints(k))
    if sorted(touched) != list(range(gq.map.vertex_count)):
        raise IdentityViolation("leg edges do not cover each vertex exactly once")
    return matching


def cmd_export(args: argparse.Namespace) -> int:
    m, name = _input_map(args)
    gq = graph_context(m).gq
    weights = None
    if args.couplings is not None:
        j = couplings_from_dict(_load_json(args.couplings), m.edge_count)
        weights = nu_from_couplings(gq, j)
    order_paths, disorder_paths = _input_defects(args)
    gamma: tuple[int, ...] = ()
    gamma_star: tuple[int, ...] = ()
    if order_paths or disorder_paths:
        inst = explicit_instance(m, uniform_couplings(m.edge_count, 1.0),
                                 order_paths, disorder_paths, name=name)
        gamma = tuple(sorted(inst.defects.gamma))
        gamma_star = tuple(sorted(inst.defects.gamma_star))

    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputProblem(f"{out_dir}: {exc.strerror or exc}") from exc

    def emit(filename: str, text: str) -> None:
        path = os.path.join(out_dir, filename)
        _write_text(path, text)
        print(f"wrote {path}", file=sys.stderr)

    emit(f"{name}.gq.json", canonical_json(gq_to_dict(gq, weights)))
    if args.svg:
        emit(f"{name}.map.svg", draw_map(m, gamma=gamma))
        emit(f"{name}.dual.svg", draw_dual(m, gamma_star=gamma_star))
        emit(f"{name}.corner.svg", draw_corner_overlay(m))
        emit(f"{name}.gq.svg", draw_gq(gq))
        emit(f"{name}.pair.svg", draw_polygon_pair(m, gamma, gamma_star))
        emit(f"{name}.matching.svg", draw_gq(gq, matching=_reference_matching(gq)))
    return 0


def cmd_builtin(args: argparse.Namespace) -> int:
    if args.name is None:
        listing = "\n".join(BUILTIN_EXAMPLES)
        _write_text(args.out, listing + "\nfamilies: grid_<rows>_<cols>, wheel_<k>\n")
        return 0
    m = builtin(args.name)
    _write_text(args.out, canonical_json(map_to_dict(m)))
    return 0


# ------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bozon",
        description=(
            "Exact verification of squared order/disorder correlations "
            "against dimer partition-function ratios on planar graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify",
        help="run identity suites on explicit or seeded random instances",
    )
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--graph", help="rotation-system JSON for one explicit instance")
    p.add_argument("--couplings", help="couplings JSON (default: all J=1.0)")
    p.add_argument("--defects", help="defect-path JSON (default: none)")
    p.add_argument("--random", type=int, metavar="N",
                   help="run N seeded random instances instead of --graph")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--caps", type=_parse_caps, default=_parse_caps(""),
                   metavar="V=..,E=..", help="tighten enumeration size gates")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "export",
        help="write the derived dimer graph (and SVG diagrams) for a map",
    )
    p.add_argument("--graph", help="rotation-system JSON")
    p.add_argument("--builtin", help="builtin graph name")
    p.add_argument("--couplings", help="couplings JSON for edge weights")
    p.add_argument("--defects", help="defect-path JSON to highlight")
    p.add_argument("--out", help="output directory (default: .)")
    p.add_argument("--svg", action="store_true",
                   help="also draw the map, dual, corner overlay, dimer graph, "
                        "defect pair, and reference matching")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("builtin", help="print a builtin rotation system as JSON")
    p.add_argument("name", nargs="?", help="omit to list available names")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_builtin)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdentityViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except BozonError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
