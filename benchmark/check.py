"""Independent output checker.

Recomputes err(S) = trace(inv(Lambda[Sbar, Sbar])) / n with numpy from the
benchmark's own parse of the model file the program was given. Nothing here
imports gmrf_select, so a defect in the program's objective cannot hide
behind the check.
"""

from __future__ import annotations

import json
import re

import numpy as np

ERR_RTOL = 1e-9
_VALIDATE_LINE = re.compile(r"^validate: (\d+) violations, (\d+) discrepancies")


class Model:
    """Precision matrix of a model file, with the GFF pin (None for a GMRF)."""

    def __init__(self, lam: np.ndarray, pin: int | None):
        self.lam = lam
        self.n = lam.shape[0]
        self.pin = pin


def parse_model(text: str) -> Model:
    """Parse the `gff` and `gmrf` file formats (the benchmark writes no other)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] == "gff":
        n, m, pin = (int(t) for t in head[1:4])
        lam = np.zeros((n, n))
        for ln in lines[1:1 + m]:
            u, v, r = ln.split()
            i, j, c = int(u) - 1, int(v) - 1, 1.0 / float(r)
            lam[i, i] += c
            lam[j, j] += c
            lam[i, j] -= c
            lam[j, i] -= c
        return Model(lam, pin)
    if head[0] == "gmrf":
        n, k = (int(t) for t in lines[1].split())
        if k != n:
            raise ValueError("benchmark GMRF files have full support")
        lam = np.array([[float(t) for t in ln.split()] for ln in lines[3:3 + n]])
        return Model(lam, None)
    raise ValueError(f"unknown model kind {head[0]!r}")


def err(model: Model, selected) -> float:
    """Average conditional variance of the unobserved variables; the GFF pin
    is always observed."""
    observed = set(selected)
    if model.pin is not None:
        observed.add(model.pin)
    rest = [v - 1 for v in range(1, model.n + 1) if v not in observed]
    if not rest:
        return 0.0
    block = model.lam[np.ix_(rest, rest)]
    return float(np.trace(np.linalg.inv(block))) / model.n


def check_select(model: Model, stdout: str, budget=None, alpha=None,
                 eval_set=None) -> tuple[list[str], float | None]:
    """Check one `select`/`eval` JSON report.

    Returns (problems, verified err); the err is None when the report is
    unusable. Budget runs must keep |S \\ {pin}| <= budget, cover runs must
    reach err <= alpha, and eval must report exactly the requested set.
    """
    try:
        report = json.loads(stdout)
        selected = [int(v) for v in report["selected"]]
        claimed = float(report["err"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc}"], None
    problems = []
    if len(set(selected)) != len(selected) or not all(1 <= v <= model.n for v in selected):
        return [f"selection {selected} is not a set of vertices 1..{model.n}"], None
    value = err(model, selected)
    if abs(claimed - value) > ERR_RTOL * max(abs(value), 1e-300):
        problems.append(f"reported err {claimed!r} != recomputed {value!r}")
    extra = set(selected) - ({model.pin} if model.pin is not None else set())
    if budget is not None and len(extra) > budget:
        problems.append(f"{len(extra)} vertices selected with budget {budget}")
    if alpha is not None and value > alpha * (1.0 + ERR_RTOL):
        problems.append(f"cover err {value!r} above alpha {alpha!r}")
    if eval_set is not None:
        want = set(eval_set) | ({model.pin} if model.pin is not None else set())
        if set(selected) != want:
            problems.append(f"eval reported set {selected}, asked for {sorted(want)}")
    return problems, value


def check_validate(stdout: str) -> list[str]:
    """`validate` passes when it exits 0 (checked by the caller) and prints
    its summary line; discrepancy findings are not failures."""
    first = stdout.splitlines()[0] if stdout else ""
    match = _VALIDATE_LINE.match(first)
    if match is None:
        return [f"validate summary line missing: {first!r}"]
    if int(match.group(1)):
        return [f"validate reported {match.group(1)} violations"]
    return []
