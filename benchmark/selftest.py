"""Self-tests of the benchmark's own code; they need no program.

    python3 benchmark/selftest.py

Exits nonzero if any test fails.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import check
import run
import spans
from workloads import WORKLOADS, gff_text, sparse_graph, _rng

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _small_gff():
    text = gff_text(8, sparse_graph(8, 0.3, _rng(5, 0)), _rng(5, 1))
    return check.parse_model(text)


def _report(selected, value):
    return json.dumps({"selected": sorted(selected), "err": value})


def test_checker_accepts_a_true_report():
    model = _small_gff()
    value = check.err(model, {1, 3, 6})
    problems, verified = check.check_select(model, _report({1, 3, 6}, value), budget=2)
    assert problems == [], problems
    assert verified == value


def test_checker_rejects_forged_err():
    model = _small_gff()
    value = check.err(model, {1, 4})
    problems, _ = check.check_select(model, _report({1, 4}, value * (1 + 1e-6)), budget=1)
    assert any("recomputed" in p for p in problems), problems


def test_checker_rejects_over_budget_selection():
    model = _small_gff()
    chosen = {1, 2, 3, 4}
    problems, _ = check.check_select(model, _report(chosen, check.err(model, chosen)),
                                     budget=2)
    assert any("budget" in p for p in problems), problems


def test_checker_rejects_missed_cover_target():
    model = _small_gff()
    value = check.err(model, {1, 2})
    problems, _ = check.check_select(model, _report({1, 2}, value), alpha=value * 0.9)
    assert any("alpha" in p for p in problems), problems


def test_checker_rejects_unparsable_report_and_validate_violations():
    problems, verified = check.check_select(_small_gff(), "Traceback ...")
    assert problems and verified is None
    assert check.check_validate("validate: 0 violations, 2 discrepancies (seed=1)\n") == []
    assert check.check_validate("validate: 1 violations, 0 discrepancies (seed=1)\n")


def test_self_time_on_a_hand_built_tree():
    # root [0, 100] with children a [10, 40] and b [30, 70], which overlap;
    # a has child c [15, 25]; d [0, 5] is a second root
    tree = [[0, 0, 100, -1], [1, 10, 40, 0], [2, 30, 70, 0], [3, 15, 25, 1], [4, 0, 5, -1]]
    assert spans.self_times(tree) == [40, 20, 40, 10, 5]


def test_totals_count_outermost_time_and_err_callers():
    dump = {"names": ["greedy.greedy_budget", "models.err", "linalg.SupportedMatrix.init"],
            "spans": [[0, 0, 100, -1], [1, 10, 20, 0], [1, 30, 50, 0], [2, 35, 40, 2],
                      [2, 36, 38, 3]],
            "counters": {"greedy.accepted": 1}}
    t = spans.Totals()
    t.add_request(dump)
    assert t.calls["models.err"] == 2 and t.err_under["greedy.greedy_budget"] == 2
    assert t.ns["linalg.SupportedMatrix.init"] == 5      # the nested call is not counted twice
    assert t.self_ns["greedy.greedy_budget"] == 70
    m = spans.layer_metrics(t, 1, 0.5, 0.1, 0)
    assert m["greedy.err_calls_per_solve"] == 2 and m["greedy.accept_ratio"] == 0.5


def test_generator_is_deterministic_per_seed():
    for name, make in WORKLOADS.items():
        a, b, c = make(7).files, make(7).files, make(8).files
        assert a == b, f"{name}: same seed gave different files"
        assert a.keys() == c.keys()
        assert all(a[f] != c[f] for f in a), f"{name}: another seed left a file unchanged"


def test_every_pass_has_at_least_five_requests():
    for name, make in WORKLOADS.items():
        assert len(make(1).requests) >= 5, name   # four passes give >= 20 samples


def test_tail_is_the_eleventh_largest():
    samples = [float(x) for x in range(1, 41)]
    value, pct = run.tail(samples)
    assert value == 30.0 and pct == 75.0


def test_printed_metrics_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    fake = run.Outcome(1.0, 0, 50.0, "", [])
    reqs = WORKLOADS["dp-tree"](1).requests
    passes = [[(r, fake) for r in reqs]] * 4
    checker = run.Checker(Path("."))
    checker.errs = {"x": 0.5}
    e2e, _ = run.end_to_end([1.0, 2.0, 3.0], passes, 10.0, checker)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
