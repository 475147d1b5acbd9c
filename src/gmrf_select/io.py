"""Model file formats and report serialization.

Formats:
  GFF:   line `gff n m pin` (m >= 0), then m lines `u v r` (1-based, 0 < r < inf).
  GMRF:  line `gmrf` (precision) or `gmrf-cov` (covariance), then the matrix
         and nothing else: a line `n k` (n >= 1), the support line `1 ... n`
         (so k = n) and n rows of n entries.
Blank and `#` lines may stand before the header, between GFF edges and after
a GMRF's matrix. Parse errors name the 1-based line of the file at fault.
`data_lines` (skip blank and comment lines) and `fields` (convert or refuse)
read every input text: these files, PACE decompositions and `eval`'s vertex set.
Reports serialize to JSON with a stable key order; numbers use 12 significant
digits. Timing is omitted (null) by default so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidMatrix, ParseError
from .models import GffModel, GmrfModel, SelectionReport


def data_lines(lines, comment="#"):
    """(1-based line number, line, its fields) for each of ``lines`` that is
    neither blank nor a ``comment`` line."""
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if parts and not parts[0].startswith(comment):
            yield lineno, raw, parts


def fields(parts, kind, message):
    """``parts`` converted by ``kind``, as a tuple; ParseError(message) when one
    does not convert."""
    try:
        return tuple(map(kind, parts))
    except ValueError:
        raise ParseError(message) from None


def _parse_matrix(lines, start):
    """(block, index past its last line) of the matrix whose header is
    ``lines[start]``, line ``start + 1`` of the file. Only the text is checked
    here: the model checks the matrix."""

    def fail(index, msg):
        raise ParseError(f"line {index + 1}: {msg}")

    if start >= len(lines):
        fail(start, "missing matrix header")
    head = lines[start].split()
    if len(head) != 2:
        fail(start, f"expected 'n k', got {lines[start]!r}")
    n, k = fields(head, int, f"line {start + 1}: non-integer matrix header {lines[start]!r}")
    if n < 1 or k < 0 or k > n:
        fail(start, f"invalid dimensions n={n} k={k}")
    end = start + 2 + k
    if len(lines) < end:
        fail(len(lines) - 1, f"expected support line and {k} rows")
    support_tokens = lines[start + 1].split()
    if len(support_tokens) != k:
        fail(start + 1, f"expected {k} support indices, got {len(support_tokens)}")
    support = fields(support_tokens, int,
                     f"line {start + 2}: non-integer support index in {lines[start + 1]!r}")
    rows = []
    for index, line in enumerate(lines[start + 2:end], start + 2):
        tokens = line.split()
        if len(tokens) != k:
            fail(index, f"expected {k} entries, got {len(tokens)}")
        rows.append(fields(tokens, float, f"line {index + 1}: non-numeric entry in {line!r}"))
    if k != n or support != tuple(range(1, k + 1)):
        fail(start + 1, f"support {support} is not 1..{n}")
    return np.array(rows), end


def parse_model_text(text: str):
    lines = text.splitlines()
    if lines and not lines[-1]:   # one blank last line is not a line of the matrix
        lines.pop()
    rows = data_lines(lines)
    first = next(rows, None)
    if first is None:
        raise ParseError("line 1: empty model file")
    lineno, raw, head = first
    kind = head[0]
    if kind == "gff":
        if len(head) != 4:
            raise ParseError(f"line {lineno}: expected 'gff n m pin', got {raw!r}")
        n, m, pin = fields(head[1:], int, f"line {lineno}: non-integer header field")
        if m < 0:
            raise ParseError(f"line {lineno}: invalid dimensions n={n} m={m}")
        edges = []
        for lineno, raw, parts in rows:
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'u v r', got {raw!r}")
            message = f"line {lineno}: malformed edge {raw!r}"
            (u, v), (r,) = fields(parts[:2], int, message), fields(parts[2:], float, message)
            if not 0 < r < np.inf:
                raise ParseError(
                    f"line {lineno}: resistance must be positive and finite, got {r}")
            edges.append((u, v, r))
        if len(edges) != m:
            raise ParseError(f"expected {m} edges, found {len(edges)}")
        return GffModel(n, edges, pin=pin)
    if kind in ("gmrf", "gmrf-cov"):
        block, end = _parse_matrix(lines, lineno)
        for offset, raw, _ in data_lines(lines[end:]):
            raise ParseError(f"line {end + offset}: unexpected text after the matrix {raw!r}")
        build = GmrfModel if kind == "gmrf" else GmrfModel.from_covariance
        try:
            return build(block)
        except InvalidMatrix as exc:   # row r of the matrix is line lineno + 3 + r
            raise ParseError(f"line {lineno + 3 + exc.row}: {exc}") from exc
    raise ParseError(f"line {lineno}: unknown model kind {kind!r}")


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

