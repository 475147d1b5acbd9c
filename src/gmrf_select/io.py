"""Model file formats and report serialization.

Formats:
  GFF:   line `gff n m pin` (m >= 0), then m lines `u v r` (1-based, r > 0).
  GMRF:  line `gmrf` (precision) or `gmrf-cov` (covariance), then the matrix
         and nothing else: a line `n k` (n >= 1), the support line `1 ... n`
         (so k = n) and n rows of n entries.
Blank and `#` lines may stand before the header, between GFF edges and after
a GMRF's matrix. Parse errors name the 1-based line of the file at fault.
Reports serialize to JSON with a stable key order; numbers use 12 significant
digits. Timing is omitted (null) by default so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidMatrix, ParseError
from .models import GffModel, GmrfModel, SelectionReport


def _no_data(raw: str) -> bool:
    """Blank lines and ``#`` comment lines around a model carry no data."""
    line = raw.strip()
    return not line or line.startswith("#")


def _parse_matrix(text: str, first_line: int):
    """(block, number of lines used) of the matrix at the start of ``text``,
    whose first line is line ``first_line`` of the file. Only the text is
    checked here: the model checks the matrix."""
    lines = text.splitlines()

    def fail(offset, msg):
        raise ParseError(f"line {first_line + offset}: {msg}")

    if not lines:
        fail(0, "missing matrix header")
    head = lines[0].split()
    if len(head) != 2:
        fail(0, f"expected 'n k', got {lines[0]!r}")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        fail(0, f"non-integer matrix header {lines[0]!r}")
    if n < 1 or k < 0 or k > n:
        fail(0, f"invalid dimensions n={n} k={k}")
    if len(lines) < 2 + k:
        fail(len(lines) - 1, f"expected support line and {k} rows")
    support_tokens = lines[1].split()
    if len(support_tokens) != k:
        fail(1, f"expected {k} support indices, got {len(support_tokens)}")
    try:
        support = tuple(int(t) for t in support_tokens)
    except ValueError:
        fail(1, f"non-integer support index in {lines[1]!r}")
    rows = []
    for r in range(k):
        tokens = lines[2 + r].split()
        if len(tokens) != k:
            fail(2 + r, f"expected {k} entries, got {len(tokens)}")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            fail(2 + r, f"non-numeric entry in {lines[2 + r]!r}")
    if k != n or support != tuple(range(1, k + 1)):
        fail(1, f"support {support} is not 1..{n}")
    return np.array(rows), 2 + k


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
        if m < 0:
            raise ParseError(f"line {first + 1}: invalid dimensions n={n} m={m}")
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
        block, used = _parse_matrix(body, first + 2)
        for lineno, raw in enumerate(lines[first + 1 + used:], start=first + 2 + used):
            if not _no_data(raw):
                raise ParseError(f"line {lineno}: unexpected text after the matrix {raw!r}")
        build = GmrfModel if kind == "gmrf" else GmrfModel.from_covariance
        try:
            return build(block)
        except InvalidMatrix as exc:   # row r of the matrix is line first + 4 + r
            raise ParseError(f"line {first + 4 + exc.row}: {exc}") from exc
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
    else:
        lines = ["gmrf", f"{model.n} {model.n}", " ".join(str(v) for v in model.vertices)]
        lines += [" ".join(f"{x:.12g}" for x in row) for row in model.precision_matrix]
    return "\n".join(lines) + "\n"


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

