"""Model file formats and report serialization.

Formats:
  GFF:   line `gff n m pin`, then m lines `u v r` (1-based, r > 0).
  GMRF:  line `gmrf` (precision) or `gmrf-cov` (covariance), then the matrix
         text format of the linear-algebra layer, and nothing else.
Blank and `#` lines may stand before the header, between GFF edges and after
a GMRF's matrix.
Reports serialize to JSON with a stable key order; numbers use 12 significant
digits. Timing is omitted (null) by default so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .linalg import format_matrix_text, parse_matrix_text
from .models import GffModel, GmrfModel, SelectionReport


def _no_data(raw: str) -> bool:
    """Blank lines and ``#`` comment lines around a model carry no data."""
    line = raw.strip()
    return not line or line.startswith("#")


def parse_model_text(text: str):
    lines = text.splitlines()
    first = None
    for idx, raw in enumerate(lines):
        if not _no_data(raw):
            first = idx
            break
    if first is None:
        raise ParseError("line 1: empty model file")
    head = lines[first].split()
    kind = head[0]
    if kind == "gff":
        if len(head) != 4:
            raise ParseError(f"line {first + 1}: expected 'gff n m pin', got {lines[first]!r}")
        try:
            n, m, pin = int(head[1]), int(head[2]), int(head[3])
        except ValueError:
            raise ParseError(f"line {first + 1}: non-integer header field")
        edges = []
        lineno = first + 1
        for raw in lines[first + 1:]:
            lineno += 1
            if _no_data(raw):
                continue
            parts = raw.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'u v r', got {raw!r}")
            try:
                u, v, r = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed edge {raw!r}")
            if r <= 0:
                raise ParseError(f"line {lineno}: resistance must be positive, got {r}")
            edges.append((u, v, r))
        if len(edges) != m:
            raise ParseError(f"expected {m} edges, found {len(edges)}")
        return GffModel(n, edges, pin=pin)
    if kind in ("gmrf", "gmrf-cov"):
        body = "\n".join(lines[first + 1:])
        mat, used = parse_matrix_text(body, first_line=first + 2)
        for lineno, raw in enumerate(lines[first + 1 + used:], start=first + 2 + used):
            if not _no_data(raw):
                raise ParseError(f"line {lineno}: unexpected text after the matrix {raw!r}")
        if len(mat.support) != mat.ambient_dim:
            raise ParseError("GMRF matrices must have full support")
        if kind == "gmrf":
            return GmrfModel(mat)
        return GmrfModel.from_covariance(mat.block)
    raise ParseError(f"line {first + 1}: unknown model kind {kind!r}")


def read_text(path: str) -> str:
    """The text of a file; an undecodable file raises ParseError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_model(path: str):
    return parse_model_text(read_text(path))


def format_model(model) -> str:
    if isinstance(model, GffModel):
        lines = [f"gff {model.n} {len(model.edges)} {model.pin}"]
        for u, v, r in model.edges:
            lines.append(f"{u} {v} {r:.12g}")
        return "\n".join(lines) + "\n"
    return "gmrf\n" + format_matrix_text(model.precision_matrix)


def _fmt(x) -> float:
    return float(f"{x:.12g}")


def emit_report(report: SelectionReport, fmt: str = "json",
                timing: bool = False) -> str:
    """Serialize a report; stable key order, deterministic unless timing is on."""
    guarantee = None
    if report.guarantee is not None:
        guarantee = {"factor": _fmt(report.guarantee.factor),
                     "source": report.guarantee.source}
    wall_ms = None
    if timing and report.wall_time is not None:
        wall_ms = round(report.wall_time * 1000.0, 3)
    if fmt == "json":
        payload = {
            "selected": list(report.selected),
            "err": _fmt(report.err_value),
            "solver": report.solver,
            "guarantee": guarantee,
            "n": report.n,
            "budget_or_alpha": report.budget_or_alpha,
            "wall_ms": wall_ms,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "text":
        sel = ",".join(str(v) for v in report.selected)
        extra = "" if guarantee is None else f" guarantee={guarantee['factor']:.6g}"
        return (f"{report.solver}: selected=[{sel}] err={report.err_value:.12g}"
                f" n={report.n}{extra}\n")
    raise ParseError(f"unknown report format {fmt!r}")

