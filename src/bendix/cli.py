"""Command-line front end.

One analysis per invocation: parse the JSON payloads, dispatch to the library,
and print a single JSON document (or an aligned key/value table) on stdout.
Validation problems exit with code 2 and a structured error object on stderr;
unexpected failures exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import bending as B
from . import polytope as P
from . import search as S
from .cases import run_examples
from .errors import BendixError, SchemaError
from .model import (
    GENERICITY_EDGE_GUARD,
    LengthFunction,
    dominant_edge,
    format_rational,
    generic_witness,
    is_lopsided,
    is_nonempty,
    parse_rational,
    subset_from_json,
    subset_to_json,
)

COMMANDS = (
    "check",
    "lopsided",
    "nmin",
    "dim",
    "fill",
    "maximal",
    "enumerate",
    "polytope",
    "conjugacy",
    "reduce",
    "image",
    "critical",
    "examples",
)


@dataclass
class AnalysisRequest:
    command: str
    lam: LengthFunction | None = None
    bending: B.BendingSet | None = None
    subset: int | None = None
    t: Fraction | None = None
    fmt: str = "json"
    force: bool = False
    limit: int | None = None
    csv: bool = False
    quotient_permutations: bool = False
    case_id: str | None = None
    update_golden: bool = False
    enum_guard: int = S.ENUMERATION_EDGE_GUARD
    generic_guard: int = GENERICITY_EDGE_GUARD


def _load_json_file(path: str) -> object:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc


def _require(value, flag: str):
    if value is None:
        raise SchemaError(f"this command requires {flag}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bendix",
        description="Bending tori of polygon spaces: exact combinatorial invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("-f", "--lambda", dest="lam_file", metavar="FILE")
        cmd.add_argument("-b", "--bending", dest="bending_file", metavar="FILE")
        cmd.add_argument("-I", "--subset", dest="subset_json", metavar="JSON")
        cmd.add_argument("-t", "--value", dest="t_value", metavar="RAT")
        cmd.add_argument("--format", choices=("json", "table"), default="json")
        cmd.add_argument("--force", action="store_true")
        cmd.add_argument("--limit", type=int, default=None)
        if name == "polytope":
            cmd.add_argument(
                "--csv",
                action="store_true",
                help="emit the vertex list as plot-ready CSV (floats) instead of JSON",
            )
        if name == "enumerate":
            cmd.add_argument(
                "--quotient-permutations",
                action="store_true",
                help="one representative per orbit of length-preserving relabelings",
            )
        if name == "examples":
            cmd.add_argument("--id", dest="case_id", default=None)
            cmd.add_argument("--update-golden", action="store_true")
    return parser


def parse_request(argv: list[str]) -> AnalysisRequest:
    args = build_parser().parse_args(argv)
    request = AnalysisRequest(command=args.command)
    request.fmt = args.format
    request.force = args.force
    if args.limit is not None and args.limit < 0:
        raise SchemaError("--limit must be a nonnegative integer", limit=args.limit)
    request.limit = args.limit
    env_guard = os.environ.get("BENDIX_MAX_EDGES")
    if env_guard is not None:
        try:
            guard = int(env_guard)
        except ValueError:
            raise SchemaError("BENDIX_MAX_EDGES must be an integer", value=env_guard)
        request.enum_guard = guard
        request.generic_guard = guard
    if args.lam_file:
        request.lam = LengthFunction.from_json(_load_json_file(args.lam_file))
    if args.bending_file:
        lam = _require(request.lam, "-f/--lambda")
        request.bending = B.bending_set_from_json(lam, _load_json_file(args.bending_file))
    if args.subset_json:
        lam = _require(request.lam, "-f/--lambda")
        try:
            doc = json.loads(args.subset_json)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed subset JSON: {exc}") from exc
        request.subset = subset_from_json(lam, doc)
    if args.t_value:
        request.t = parse_rational(args.t_value)
    if args.command == "polytope":
        request.csv = args.csv
    if args.command == "enumerate":
        request.quotient_permutations = args.quotient_permutations
    if args.command == "examples":
        request.case_id = args.case_id
        request.update_golden = args.update_golden
    return request


def _cmd_check(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    witness = generic_witness(lam, max_edges=req.generic_guard, force=req.force)
    generic = witness is None
    nonempty = is_nonempty(lam)
    return {
        "edges": lam.n,
        "generic": generic,
        "nonempty": nonempty,
        "vanishing_signs": None if generic else list(lam.ids_of(witness)),
        "dimension": 2 * (lam.n - 3) if generic and nonempty else None,
    }


def _cmd_lopsided(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    mask = _require(req.subset, "-I/--subset")
    lopsided = is_lopsided(lam, mask)
    return {
        "subset": subset_to_json(lam, mask),
        "lopsided": lopsided,
        "dominant": dominant_edge(lam, mask) if lopsided else None,
    }


def _cmd_nmin(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    count, witness = S.min_lopsided_partition(lam)
    return {"N": count, "witness": [subset_to_json(lam, b) for b in witness]}


def _cmd_dim(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    family = _require(req.bending, "-b/--bending")
    return {
        "dimension": B.torus_dimension(lam, family),
        "is_full": B.is_full(family),
        "maximal_blocks": [
            subset_to_json(lam, b) for b in B.maximal_elements(family)
        ],
    }


def _cmd_fill(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    family = _require(req.bending, "-b/--bending")
    return B.fill(lam, family).to_json(lam)


def _cmd_maximal(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    family = _require(req.bending, "-b/--bending")
    filled = B.fill(lam, family)
    maximal, witness = S.is_maximal_bending(lam, filled)
    return {
        "input_full": B.is_full(family),
        "filled": filled.to_json(lam),
        "dimension": B.torus_dimension(lam, filled),
        "is_maximal_bending": maximal,
        "common_value": None if witness is None else format_rational(witness),
        "theorem_b": S.theorem_b_status(lam, filled).value,
    }


def _cmd_enumerate(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    reports = S.enumerate_maximal_tori(
        lam,
        limit=req.limit,
        max_edges=req.enum_guard,
        force=req.force,
        quotient_permutations=req.quotient_permutations,
    )
    dims = sorted({r.dimension for r in reports})
    return {
        "count": len(reports),
        "spectrum": dims,
        "dimension_counts": {
            str(d): sum(1 for r in reports if r.dimension == d) for d in dims
        },
        "reports": [r.to_json(lam) for r in reports],
    }


def _cmd_polytope(req: AnalysisRequest) -> dict | str:
    lam = _require(req.lam, "-f/--lambda")
    family = _require(req.bending, "-b/--bending")
    poly = P.moment_polytope(lam, family)
    if req.csv:
        # lossy float export for plotting; the JSON path stays exact
        header = ",".join("+".join(label) for label in poly.labels)
        lines = [header] + [
            ",".join(repr(float(c)) for c in v) for v in poly.vertices
        ]
        return "\n".join(lines)
    return {
        **poly.to_json(),
        "is_delzant": P.is_delzant(poly),
        "volume": format_rational(P.volume(poly)),
    }


def _cmd_conjugacy(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    report = P.conjugacy_classes(lam, max_edges=req.enum_guard, force=req.force)
    doc = report.to_json(lam)
    nb = P.nonbending_report(lam)
    doc["nonbending_report"] = None if nb is None else nb.to_json(lam)
    return doc


def _cmd_reduce(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    mask = _require(req.subset, "-I/--subset")
    t = _require(req.t, "-t/--value")
    return B.reduce(lam, mask, t).to_json()


def _cmd_image(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    mask = _require(req.subset, "-I/--subset")
    return B.moment_image(lam, mask).to_json()


def _cmd_critical(req: AnalysisRequest) -> dict:
    lam = _require(req.lam, "-f/--lambda")
    mask = _require(req.subset, "-I/--subset")
    return {
        "values": [format_rational(v) for v in B.critical_values(lam, mask)]
    }


def _cmd_examples(req: AnalysisRequest) -> dict:
    return run_examples(req.case_id, update_golden=req.update_golden)


DISPATCH = {
    "check": _cmd_check,
    "lopsided": _cmd_lopsided,
    "nmin": _cmd_nmin,
    "dim": _cmd_dim,
    "fill": _cmd_fill,
    "maximal": _cmd_maximal,
    "enumerate": _cmd_enumerate,
    "polytope": _cmd_polytope,
    "conjugacy": _cmd_conjugacy,
    "reduce": _cmd_reduce,
    "image": _cmd_image,
    "critical": _cmd_critical,
    "examples": _cmd_examples,
}


def run(request: AnalysisRequest) -> dict | str:
    """Dispatch a request; returns the report dict (or raw text for CSV)."""
    return DISPATCH[request.command](request)


def _flatten(prefix: str, node, rows: list[tuple[str, str]]):
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, rows)
    elif isinstance(node, list):
        if all(not isinstance(v, (dict, list)) for v in node):
            rows.append((prefix, ", ".join("null" if v is None else str(v) for v in node)))
        else:
            for i, value in enumerate(node):
                _flatten(f"{prefix}[{i}]", value, rows)
    else:
        rows.append((prefix, "null" if node is None else str(node)))


def render_table(report: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        request = parse_request(argv)
        report = run(request)
    except BendixError as exc:
        json.dump(exc.to_json(), sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return int(exc.code or 0) and 2
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 1
        json.dump(
            {"code": "internal", "message": f"{type(exc).__name__}: {exc}", "context": {}},
            sys.stderr,
            indent=2,
        )
        sys.stderr.write("\n")
        return 1
    if isinstance(report, str):
        print(report)
        return 0
    if request.fmt == "table":
        print(render_table(report))
    else:
        print(json.dumps(report, indent=2))
    if request.command == "examples" and not report["all_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
