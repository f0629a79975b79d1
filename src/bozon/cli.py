"""Command-line front end: run verification suites, export the derived
dimer graph G_Q (as JSON, with its weights when couplings are given), and
print builtin rotation systems.

Exit codes: 0 when every check passes, 1 when a check entry fails, 2 on
an input or configuration error, an input too large to verify (TooLarge)
or a record that carries an error entry, such as a map with a bridge
(BridgeUnsupported) or a value past float range (the report is still
written).  Identical (config, seed) pairs produce byte-identical JSON.

``verify`` encodes each JSON record as the suite yields it and keeps only
the text, never the record list; it writes nothing until the last record
is encoded, so a run that raises leaves no report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

from .dimer import graph_context, nu_from_couplings
from .errors import BozonError
from .graphs import BUILTIN_EXAMPLES, builtin
from .ising import uniform_couplings
from .reports import flatten_check
from .serialize import (
    ENCODER,
    canonical_json,
    couplings_from_dict,
    defect_paths_from_dict,
    gq_to_dict,
    map_from_dict,
    map_to_dict,
)
from .suites import (
    DEFAULT_SEED,
    SUITE_NAMES,
    explicit_instance,
    iter_suite,
    run_explicit,
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


def _write_text(path: str | None, *pieces: str) -> None:
    """The concatenated pieces, to ``path`` or to stdout."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise InputProblem(f"{path}: {exc.strerror or exc}") from exc


def _tally(records: Iterable[dict], keep: Callable[[dict], Any]) -> tuple[list, dict, Counter]:
    """``keep`` of each record, the report's summary and the count of the
    records that carry an error entry by the error's type, taken as the
    records go by: map() hands each record to ``take``, and suite_summary
    sees only its verdict."""
    kept: list = []
    errors: Counter = Counter()

    def take(rec: dict) -> dict:
        if "error" in rec:
            errors[rec["error"].partition(":")[0]] += 1
        kept.append(keep(rec))
        return {"pass": rec.get("pass")}

    return kept, suite_summary(map(take, records)), errors


def records_to_csv(records: Sequence[dict]) -> str:
    """One row per check (records without checks still get a row); complex
    values appear as re/im column pairs and nested provenance as JSON."""
    rows: list[dict[str, Any]] = []
    for rec in records:
        base = {
            "record_pass" if k == "pass" else k:
                json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
            for k, v in rec.items() if k != "checks"
        }
        rows += [{**base, **flatten_check(c)} for c in rec.get("checks") or ()] or [base]
    fields = list(dict.fromkeys(k for row in rows for k in row))

    # imported here so that a JSON report never loads the csv module
    import csv
    import io

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
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputProblem(f"--tol needs a finite value >= 0, got {args.tol}")
    config: dict[str, Any] = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "tol": args.tol,
        "format": args.format,
    }

    if args.graph is not None and args.random is not None:
        raise InputProblem("--graph and --random are mutually exclusive")
    if args.graph is not None:
        m = map_from_dict(_load_json(args.graph))
        couplings = _input_couplings(args, m.edge_count)
        order_paths, disorder_paths = _input_defects(args)
        name = os.path.splitext(os.path.basename(args.graph))[0] or "input"
        try:
            inst = explicit_instance(m, couplings, order_paths, disorder_paths,
                                     name=name, seed=args.seed)
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
        records = iter_suite(args.suite, count=args.random, seed=args.seed, tol=args.tol)
        config.update({"mode": "random", "count": args.random})

    if args.format == "csv":
        rows, summary, errors = _tally(records, lambda rec: rec)
        _write_text(args.out, records_to_csv(rows))
    else:
        # sort_keys orders the document config, records, summary
        texts, summary, errors = _tally(records, ENCODER.encode)
        body = [","] * (2 * len(texts) - 1)  # the texts, comma-separated
        body[::2] = texts
        _write_text(
            args.out, '{"config":', ENCODER.encode(config), ',"records":[',
            *body, '],"summary":', ENCODER.encode(summary), "}\n",
        )
    print(
        f"verify {args.suite}: {summary['total']} records, "
        f"{summary['failed']} failed",
        file=sys.stderr,
    )
    # a record that could not be checked (a bridged map, a value past float
    # range) is an input bozon does not support, not a violation
    if errors:
        kinds = ", ".join(f"{n} {kind}" for kind, n in sorted(errors.items()))
        print(f"error: {errors.total()} records carry an error entry ({kinds})",
              file=sys.stderr)
        return 2
    return 0 if summary["pass"] else 1


def cmd_export(args: argparse.Namespace) -> int:
    m, name = _input_map(args)
    gq = graph_context(m)
    weights = None
    if args.couplings is not None:
        j = couplings_from_dict(_load_json(args.couplings), m.edge_count)
        weights = nu_from_couplings(gq, j)
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputProblem(f"{out_dir}: {exc.strerror or exc}") from exc

    path = os.path.join(out_dir, f"{name}.gq.json")
    _write_text(path, canonical_json(gq_to_dict(gq, weights)))
    print(f"wrote {path}", file=sys.stderr)
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "export",
        help="write the derived dimer graph G_Q of a map as JSON",
    )
    p.add_argument("--graph", help="rotation-system JSON")
    p.add_argument("--builtin", help="builtin graph name")
    p.add_argument("--couplings", help="couplings JSON for edge weights")
    p.add_argument("--out", help="output directory (default: .)")
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
    except BozonError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
