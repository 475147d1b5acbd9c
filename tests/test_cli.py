import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gmrf_select import io
from gmrf_select.cli import main
from gmrf_select.decomposition import parse_and_normalize
from gmrf_select.errors import GmrfSelectError, ParseError
from gmrf_select.exact import exact_budget
from gmrf_select.models import (
    BUDGET_FACTOR,
    GffModel,
    GmrfModel,
    Guarantee,
    effective_resistance,
    err,
    laplacian,
    random_gff,
)
from gmrf_select.validate import validate_suite

from conftest import (
    COUNTEREXAMPLE_SIGMA,
    random_pd_supported,
    recorded_stack_calls,
    unit_cycle,
    wide_gff_text,
)
from oracles import parse_report, stacked_sets, supermodularity_checks_reference


C4_TEXT = "gff 4 4 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 1 1.0\n"
P4_TEXT = "gff 4 3 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseModel:
    def test_single_edge_gff(self):
        m = io.parse_model_text("gff 2 1 1\n1 2 2.0\n")
        assert isinstance(m, GffModel)
        assert m.edges == ((1, 2, 2.0),)
        assert m.pin == 1

    def test_gmrf_cov_counterexample(self):
        rows = "\n".join(" ".join(f"{x:.6g}" for x in row)
                         for row in COUNTEREXAMPLE_SIGMA)
        text = f"gmrf-cov\n4 4\n1 2 3 4\n{rows}\n"
        m = io.parse_model_text(text)
        assert isinstance(m, GmrfModel)
        assert abs(err(m, {1}) - 0.1887) < 2e-4

    def test_comment_lines_around_a_model(self):
        m = io.parse_model_text("# a comment\n\ngff 2 1 1\n  # between edges\n1 2 2.0\n# end\n")
        assert m.edges == ((1, 2, 2.0),)
        g = io.parse_model_text("# precision\ngmrf\n2 2\n1 2\n2 1\n1 2\n\n# end\n")
        assert g.precision_matrix.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_model_round_trip(self):
        m = io.parse_model_text(C4_TEXT)
        again = io.parse_model_text(io.format_model(m))
        assert again.edges == m.edges and again.pin == m.pin
        gm = GmrfModel.from_covariance(COUNTEREXAMPLE_SIGMA)
        back = io.parse_model_text(io.format_model(gm))
        assert np.allclose(back.precision_matrix,
                           gm.precision_matrix, rtol=1e-10)

    # former one-off tests, now BAD_FILES rows: each keeps its name, so that
    # test results compared by name across commits still find it, and runs
    # its rows
    def test_negative_resistance_rejected(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gff-negative-resistance")

    def test_errors_carry_line_numbers(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gff-edge-fields", "unknown-kind")

    def test_text_after_gmrf_matrix_rejected(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gmrf-text-after-comment")


class TestMatrixText:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        model = GmrfModel(random_pd_supported(rng, (1, 2, 3)).block)
        text = io.format_model(model)
        assert text.splitlines()[:3] == ["gmrf", "3 3", "1 2 3"]
        back = io.parse_model_text(text)
        assert back.n == 3
        assert np.allclose(back.precision_matrix, model.precision_matrix,
                           rtol=1e-11)

    # a former one-off test, now BAD_FILES rows (see TestParseModel)
    def test_parse_errors_carry_line_numbers(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "matrix-header-fields", "matrix-support-integer",
                          "matrix-entry-numeric", "matrix-non-finite", "matrix-not-symmetric",
                          "gmrf-support-range")


class TestReports:
    def test_emit_keys_and_values(self):
        from gmrf_select.exact import exact_budget
        rep = exact_budget(unit_cycle(4), 1)
        payload = json.loads(io.emit_report(rep))
        assert list(payload) == ["selected", "err", "solver", "guarantee",
                                 "n", "budget_or_alpha", "wall_ms"]
        assert payload["selected"] == [1, 3]
        assert abs(payload["err"] - 0.25) < 1e-9
        assert payload["wall_ms"] is None

    def test_round_trip(self):
        from gmrf_select.greedy import greedy_budget
        rep = greedy_budget(unit_cycle(5), 2)
        back = parse_report(io.emit_report(rep))
        assert back.selected == rep.selected
        assert abs(back.err_value - rep.err_value) <= 1e-9 * rep.err_value
        assert back.solver == rep.solver
        assert back.guarantee.source == rep.guarantee.source

    def test_unknown_format_rejected(self):
        from gmrf_select.greedy import greedy_budget
        rep = greedy_budget(unit_cycle(4), 1)
        with pytest.raises(ParseError, match="^unknown report format 'xml'$"):
            io.emit_report(rep, fmt="xml")

    def test_empty_selection_reports_pin(self):
        from gmrf_select.greedy import greedy_budget
        rep = greedy_budget(unit_cycle(4), 0)
        payload = json.loads(io.emit_report(rep))
        assert payload["selected"] == [1]


class TestCli:
    def test_select_exact(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        assert main(["select", "exact", "--input", path, "--budget", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"] == [1, 3]
        assert abs(payload["err"] - 0.25) < 1e-9

    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        main(["select", "greedy", "--input", path, "--budget", "2"])
        first = capsys.readouterr().out
        main(["select", "greedy", "--input", path, "--budget", "2"])
        assert capsys.readouterr().out == first

    def test_eval_and_pin_override(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        assert main(["eval", "--input", path, "--set", "3", "--pin", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"] == [2, 3]

    def test_select_dp_with_td_file(self, tmp_path, capsys):
        from gmrf_select.decomposition import balance_for_tree, write_td_text
        gff_text = "gff 4 3 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n"
        path = write(tmp_path, "p4.gff", gff_text)
        td = balance_for_tree(4, [(1, 2), (2, 3), (3, 4)])
        td_path = write(tmp_path, "p4.td", write_td_text(td))
        code = main(["select", "dp", "--input", path, "--budget", "1",
                     "--eps-prime", "0.1", "--td", td_path])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "dp"

    def test_dp_non_tree_without_td_errors(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        assert main(["select", "dp", "--input", path, "--budget", "1"]) == 2

    def test_dp_gmrf_with_svd_rounding(self, tmp_path, capsys):
        from gmrf_select.decomposition import normalize, write_td_text
        from gmrf_select.models import random_gmrf
        from conftest import triangle_chain_gmrf
        model, edges, bags, links = triangle_chain_gmrf(5, np.random.default_rng(8))
        path = write(tmp_path, "w2.gmrf", io.format_model(model))
        td = normalize(bags, links, 5, edges)
        td_path = write(tmp_path, "w2.td", write_td_text(td))
        code = main(["select", "dp", "--input", path, "--budget", "1",
                     "--td", td_path, "--rounding", "svd"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "dp" and len(payload["selected"]) <= 1

    def test_gen_round_trips(self, tmp_path, capsys):
        assert main(["gen", "gff", "--n", "6", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        m = io.parse_model_text(text)
        assert m.n == 6
        assert main(["gen", "gmrf", "--n", "5", "--seed", "3", "--width", "2"]) == 0
        m2 = io.parse_model_text(capsys.readouterr().out)
        assert isinstance(m2, GmrfModel)

    def test_convert(self, tmp_path, capsys):
        text = "gmrf\n2 2\n1 2\n2 1\n1 2\n"
        path = write(tmp_path, "t.gmrf", text)
        assert main(["convert", "tree-gmrf-to-gff", "--input", path]) == 0
        back = io.parse_model_text(capsys.readouterr().out)
        assert isinstance(back, GffModel)

    def test_converted_file_reads_back(self, tmp_path, capsys):
        # the '#' lines convert writes before the model do not stop a reader
        gmrf_path, gff_path = str(tmp_path / "t5.gmrf"), str(tmp_path / "t5.gff")
        assert main(["gen", "gmrf", "--n", "5", "--width", "1", "--seed", "3",
                     "--out", gmrf_path]) == 0
        assert main(["convert", "tree-gmrf-to-gff", "--input", gmrf_path,
                     "--out", gff_path]) == 0
        assert main(["eval", "--input", gff_path, "--set", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["n"] > 5

    @pytest.mark.parametrize("name, limit", [
        ("wide7", ["--alpha", "0.1"]), ("wide7", ["--budget", "1"]),
        ("wide7", ["--budget", "2"]), ("wide173", ["--alpha", "0.1"]),
        ("wide173", ["--budget", "2"])])
    def test_non_positive_variance_exit_code(self, tmp_path, capsys, name, limit):
        # a round whose covariance holds a variance <= 0 is refused with one
        # line, before a gain is formed: no traceback, no warning, no answer
        path = write(tmp_path, f"{name}.gff", wide_gff_text(name))
        assert main(["select", "greedy", *limit, "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: conditional covariance is not positive definite: "
                            r"vertex \d has variance \S+\n", captured.err)

    def test_positive_variances_round_answers(self, tmp_path, capsys):
        path = write(tmp_path, "wide173.gff", wide_gff_text("wide173"))
        assert main(["select", "greedy", "--budget", "1", "--input", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert (payload["selected"], payload["err"]) == ([1, 6], 0.870787546462)

    @pytest.mark.filterwarnings("error")
    def test_conductance_near_float_max(self, tmp_path, capsys):
        # 1e308 is a finite conductance, but twice it is not: a Laplacian that
        # is exactly symmetric must be stored as built, not averaged with its
        # transpose
        g = GffModel(3, [(1, 2, 1e-308), (2, 3, 1.0)])
        assert np.isfinite(g.precision_matrix).all()
        for s in ({1}, {1, 2}, {1, 3}):
            rest = [v for v in g.vertices if v not in s]
            by_resistance = sum(effective_resistance(g, i, s) for i in rest) / g.n
            assert abs(err(g, s) - by_resistance) <= 1e-9 * by_resistance
        path = write(tmp_path, "wide.gff", "gff 3 2 1\n1 2 1e-308\n2 3 1\n")
        assert main(["select", "greedy", "--input", path, "--budget", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == [1, 3]
        assert main(["select", "exact", "--input", path, "--budget", "1"]) == 0
        captured = capsys.readouterr()
        assert '"err": 3.33333333333e-309,' in captured.out and captured.err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("limit", [["--budget", "1"], ["--alpha", "2e199"]],
                             ids=["budget", "alpha"])
    def test_greedy_scales_huge_covariances(self, tmp_path, capsys, limit):
        # the covariance is finite but its squares are not: greedy scales it by
        # a power of two and answers as exact does
        path = write(tmp_path, "m.gff", "gff 3 2 1\n1 2 1e200\n2 3 1e200\n")
        reports = []
        for solver in ("greedy", "exact"):
            assert main(["select", solver, "--input", path, *limit]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(json.loads(captured.out))
        assert reports[0]["selected"] == reports[1]["selected"] == [1, 3]
        assert reports[0]["err"] == reports[1]["err"] == 1.66666666667e+199

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count_exit_code(self, tmp_path, capsys, monkeypatch, value):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        monkeypatch.setenv("GMRF_SELECT_THREADS", value)
        assert main(["select", "exact", "--input", path, "--budget", "1"]) == 2
        assert main(["validate", "--seed", "1", "--trials", "1"]) == 2
        err_text = capsys.readouterr().err
        assert err_text.count("error: GMRF_SELECT_THREADS") == 2

    def test_bad_thread_count_cover_exit_code(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        monkeypatch.setenv("GMRF_SELECT_THREADS", "abc")
        assert main(["select", "exact", "--input", path, "--alpha", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: GMRF_SELECT_THREADS")

    @pytest.mark.parametrize("mode", ["greedy", "exact", "dp"])
    def test_budget_with_pin_override(self, tmp_path, capsys, mode):
        # a tree, so dp needs no decomposition file; the pin is free
        g = random_gff(9, density=0.0, seed=5)
        path = write(tmp_path, "t9.gff", io.format_model(g))
        lap = laplacian(g)
        for pin in (4, 9):
            assert main(["select", mode, "--input", path, "--budget", "2",
                         "--pin", str(pin)]) == 0
            payload = json.loads(capsys.readouterr().out)
            selected = payload["selected"]
            assert pin in selected and len(selected) == 3
            rest = [v - 1 for v in g.vertices if v not in selected]
            want = np.trace(np.linalg.inv(lap[np.ix_(rest, rest)])) / g.n
            assert abs(payload["err"] - want) <= 1e-9 * want

    def test_import_leaves_scipy_out(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        probe = "import sys, gmrf_select.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"

    def test_each_command_loads_only_its_modules(self, tmp_path):
        # the package resolves its public names on demand and the CLI imports
        # the DP and the suites inside the commands that run them, so one
        # stray top-level import puts their import time back on every request
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        c4, p4 = write(tmp_path, "c4.gff", C4_TEXT), write(tmp_path, "p4.gff", P4_TEXT)
        tree = write(tmp_path, "t.gmrf", "gmrf\n2 2\n1 2\n2 1\n1 2\n")
        probe = ("import sys\n"
                 "if sys.argv[1:]:\n"
                 "    from gmrf_select.cli import main\n"
                 "    assert main(sys.argv[1:]) == 0\n"
                 "else:\n"
                 "    import gmrf_select\n"
                 "print(' '.join(sorted(m for m in sys.modules if m.startswith('gmrf_select.'))))")

        def loaded(*argv):
            out = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                                 capture_output=True, text=True, check=True).stdout
            return {m.removeprefix("gmrf_select.") for m in out.splitlines()[-1].split()}

        assert loaded() == set()
        # the graph helpers live in models, so only the DP loads decomposition
        common = {"cli", "errors", "io", "models"}
        for argv, solver in ((["select", "greedy", "--input", c4, "--budget", "2"], {"greedy"}),
                             (["select", "exact", "--input", c4, "--budget", "2"], {"exact"}),
                             (["eval", "--input", c4, "--set", "1"], set()),
                             (["gen", "gff", "--n", "6", "--out", str(tmp_path / "g.gff")], set()),
                             (["convert", "tree-gmrf-to-gff", "--input", tree,
                               "--out", str(tmp_path / "t.gff")], set())):
            assert loaded(*argv) == common | solver, argv
        dp = loaded("select", "dp", "--input", p4, "--budget", "1")
        assert dp == common | {"dp", "rounding", "linalg", "decomposition"}

    def test_main_leaves_the_collector_unfrozen(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        path = write(tmp_path, "c4.gff", C4_TEXT)
        assert main(["select", "greedy", "--input", path, "--budget", "1"]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.filterwarnings("error")
    def test_process_entry_matches_in_process_main(self, tmp_path, capsys):
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                        os.pardir, "src"))
        path = write(tmp_path, "c4.gff", C4_TEXT)
        tree = write(tmp_path, "t12.gff", io.format_model(random_gff(12, density=0.0, seed=2)))
        for argv, code in ((["select", "exact", "--input", path, "--budget", "2"], 0),
                           (["select", "greedy", "--input", path, "--budget", "2"], 0),
                           (["select", "dp", "--input", tree, "--budget", "1"], 0),
                           (["eval", "--input", str(tmp_path / "missing.gff"), "--set", "1"], 2),
                           (["validate", "--trials", "2"], 0)):
            # a RuntimeWarning is an error on both sides; the GFF DP's clamped
            # epsilon is one note line on stderr
            assert main(argv) == code
            captured = capsys.readouterr()
            assert ("clamped to 1e-12" in captured.err) == (argv[1] == "dp")
            if argv[1] == "dp":
                assert re.fullmatch(r"note: theoretical rounding resolution \S+ is below "
                                    r"machine precision; clamped to 1e-12\n", captured.err)
            proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                                   "-m", "gmrf_select.cli", *argv],
                                  env=env, capture_output=True, text=True)
            assert (proc.stdout, proc.stderr, proc.returncode) == (
                captured.out, captured.err, code)

    def test_traced_launcher_matches_plain_cli(self, tmp_path):
        # benchmark/traced.py rebinds each layer function by name; a rename in
        # src/ must fail here rather than silently drop spans from a traced run
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        path = write(tmp_path, "tree.gff", io.format_model(random_gff(9, density=0.0, seed=5)))
        layers = {
            "dp": {"dp.factorize", "dp.run_dp", "dp.extract_solution", "linalg.add",
                   "linalg.obs", "linalg.marginal", "linalg.SupportedMatrix.init",
                   "rounding.round"},
            "greedy": {"greedy.greedy_budget", "models.make_report", "models.err"},
        }
        for mode, expected in layers.items():
            request = ["select", mode, "--input", path, "--budget", "2"]
            spans = str(tmp_path / "t.json")
            plain = subprocess.run([sys.executable, "-m", "gmrf_select.cli", *request],
                                   env=env, capture_output=True)
            traced = subprocess.run([sys.executable,
                                     os.path.join(root, "benchmark", "traced.py"),
                                     spans, "r1", *request], env=env, capture_output=True)
            assert plain.returncode == 0 and traced.returncode == 0
            assert traced.stdout == plain.stdout
            with open(spans) as fh:
                trace = json.load(fh)
            assert expected <= {trace["names"][span[0]] for span in trace["spans"]}
            assert (trace["counters"].get("dp.contexts", 0) > 0) == (mode == "dp")

    def test_validate_cli(self, tmp_path, capsys):
        out_path = str(tmp_path / "findings.json")
        code = main(["validate", "--seed", "1", "--trials", "5",
                     "--out", out_path])
        assert code == 0
        with open(out_path) as fh:
            findings = json.load(fh)
        assert findings["trials"] == 5

    @pytest.mark.parametrize("argv, names", [
        (["eval", "--set", "1", "--input", "{tmp}/missing.gff"], ("missing.gff",)),
        (["eval", "--set", "1", "--input", "{tmp}/binary.gff"],
         ("binary.gff", "can't decode")),
        (["select", "dp", "--budget", "1", "--input", "{tmp}/p4.gff",
          "--td", "{tmp}/missing.td"], ("missing.td",)),
        (["select", "dp", "--budget", "1", "--input", "{tmp}/p4.gff",
          "--td", "{tmp}/binary.td"], ("binary.td", "can't decode")),
        (["gen", "gff", "--n", "5", "--out", "{tmp}/no/dir/model.gff"], ("model.gff",)),
        (["convert", "tree-gmrf-to-gff", "--input", "{tmp}/t3.gmrf",
          "--out", "{tmp}/no/dir/model.gff"], ("model.gff",)),
        (["validate", "--trials", "1", "--out", "{tmp}/no/dir/findings.json"],
         ("findings.json",)),
    ], ids=["missing-input", "undecodable-input", "missing-td", "undecodable-td",
            "gen-out", "convert-out", "validate-out"])
    def test_unreadable_or_unwritable_file_exit_code(self, tmp_path, capsys, argv, names):
        write(tmp_path, "p4.gff", "gff 4 3 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n")
        write(tmp_path, "t3.gmrf", "gmrf\n3 3\n1 2 3\n2 -1 0\n-1 2 -1\n0 -1 2\n")
        (tmp_path / "binary.gff").write_bytes(b"\xff\xfe")
        (tmp_path / "binary.td").write_bytes(b"\xff\xfe")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert all(name in captured.err for name in names)

    def test_validate_unwritable_out_fails_before_suites(self, tmp_path, capsys, monkeypatch):
        import gmrf_select.validate as validate_mod

        def must_not_run(seed, trials):
            pytest.fail("a suite ran before the output file was opened")

        monkeypatch.setattr(validate_mod, "SUITES", (("three-path", must_not_run),))
        out_path = tmp_path / "no" / "dir" / "f.json"
        assert main(["validate", "--trials", "1", "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "f.json" in captured.err

    def test_validate_crashing_suite_leaves_no_out_file(self, tmp_path, monkeypatch):
        import gmrf_select.validate as validate_mod

        def crash(seed, trials):
            raise RuntimeError("suite crashed")

        monkeypatch.setattr(validate_mod, "SUITES", (("three-path", crash),))
        out_path = tmp_path / "f.json"
        with pytest.raises(RuntimeError, match="suite crashed"):
            main(["validate", "--trials", "1", "--out", str(out_path)])
        assert not out_path.exists()

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        assert main(["select", "greedy", "--input", path, "--budget", "1",
                     "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"greedy-budget: selected=\[1,\d\] err=\S+ n=4 guarantee=\S+",
                            lines[0])

    def test_timing_reports_wall_ms(self, tmp_path, capsys):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        argv = ["select", "greedy", "--input", path, "--budget", "1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["wall_ms"] is None
        assert main([*argv, "--timing"]) == 0
        wall_ms = json.loads(capsys.readouterr().out)["wall_ms"]
        assert isinstance(wall_ms, float) and wall_ms >= 0

    # former one-off tests, now rows of BAD_FILES and REFUSED_COMMANDS (see
    # TestParseModel)
    def test_text_after_gmrf_matrix_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gmrf-text-after")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gff-negative-resistance")

    def test_overflowing_conductance_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gff-conductance-overflow")

    def test_overflowing_total_conductance_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gff-total-conductance-overflow")

    def test_unsorted_support_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gmrf-unsorted-support")

    @pytest.mark.parametrize("case", ["inf-diagonal", "inf-off-diagonal", "nan"])
    def test_non_finite_gmrf_exit_code(self, tmp_path, capsys, case):
        bad_files_refused(tmp_path, capsys, f"gmrf-{case}")

    def test_support_out_of_range_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gmrf-support-range")

    def test_overflowing_precision_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gmrf-cov-inverse-overflow")

    def test_singular_covariance_exit_code(self, tmp_path, capsys):
        bad_files_refused(tmp_path, capsys, "gmrf-cov-singular")

    def test_dp_state_cap_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "dp-state-cap")

    def test_exact_cap_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "exact-cap")

    def test_dp_negative_state_cap_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "dp-state-cap-negative", "dp-state-cap-0")

    def test_convert_independent_pair_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "convert-independent-pair")

    def test_pin_on_gmrf_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "eval-pin-on-gmrf")

    def test_dp_gff_rounding_on_gmrf_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "dp-gff-rounding-on-gmrf")

    def test_dp_svd_rounding_on_gff_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "dp-svd-rounding-on-gff")

    def test_dp_alpha_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "dp-alpha")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("mode", ["greedy", "exact"])
    def test_non_finite_alpha_exit_code(self, tmp_path, capsys, mode, value):
        commands_refused(tmp_path, capsys, f"{mode}-alpha-{value}")

    def test_validate_negative_trials_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "validate-negative-trials")

    def test_validate_negative_seed_exit_code(self, tmp_path, capsys):
        commands_refused(tmp_path, capsys, "validate-negative-seed")

    @pytest.mark.parametrize("case", ["density-nan", "density-1.5", "cond-cap-nan", "width-0",
                                      "gff-seed-neg", "gmrf-seed-neg"])
    def test_gen_bad_parameter_exit_code(self, tmp_path, capsys, case):
        commands_refused(tmp_path, capsys, f"gen-{case}")

    @pytest.mark.parametrize("case", ["inverse-1e308-budget", "inverse-1e308-alpha"])
    def test_greedy_overflow_exit_code(self, tmp_path, capsys, case):
        commands_refused(tmp_path, capsys, f"greedy-{case}")

    @pytest.mark.parametrize("case", ["grid-range-200", "grid-range-308", "flat-gmrf",
                                      "negative-budget"])
    def test_dp_refusal_exit_code(self, tmp_path, capsys, case):
        commands_refused(tmp_path, capsys, f"dp-{case}")


TD_TWO_BAGS = "s td 2 3 4\nb 1 1 2\nb 2 2 3 4\n"
TREE_GMRF_TEXT = "gmrf\n2 2\n1 2\n2 1\n1 2\n"

# one case per message a model or decomposition file can get at the boundary:
# (model text, decomposition text or None, exact message)
BAD_FILES = {
    "empty-model": ("# nothing here\n\n", None, "line 1: empty model file"),
    "unknown-kind": ("mystery 3\n", None, "line 1: unknown model kind 'mystery'"),
    "gff-header-fields": ("gff 2 1\n", None, "line 1: expected 'gff n m pin', got 'gff 2 1'"),
    "gff-header-integer": ("gff 2 x 1\n", None, "line 1: non-integer header field"),
    "gff-negative-edge-count": ("gff 2 -1 1\n", None, "line 1: invalid dimensions n=2 m=-1"),
    "gff-edge-fields": ("gff 2 1 1\n1 2\n", None, "line 2: expected 'u v r', got '1 2'"),
    "gff-edge-malformed": ("gff 2 1 1\n1 2 x\n", None, "line 2: malformed edge '1 2 x'"),
    "gff-negative-resistance": ("gff 2 1 1\n1 2 -1.0\n", None,
                                "line 2: resistance must be positive and finite, got -1.0"),
    # refused at the parser, which names the line, not by the model
    "gff-nan-resistance": ("gff 2 1 1\n1 2 nan\n", None,
                           "line 2: resistance must be positive and finite, got nan"),
    "gff-inf-resistance": ("gff 2 1 1\n# a comment\n1 2 inf\n", None,
                           "line 3: resistance must be positive and finite, got inf"),
    "gff-edge-count": ("gff 3 2 1\n1 2 1.0\n", None, "expected 2 edges, found 1"),
    "gff-one-vertex": ("gff 1 0 1\n", None, "a GFF needs at least 2 vertices, got 1"),
    "gff-pin-range": ("gff 2 1 3\n1 2 1.0\n", None, "pin 3 outside 1..2"),
    "gff-edge-range": ("gff 2 1 1\n1 3 1.0\n", None, "edge (1,3) outside 1..2"),
    "gff-conflicting": ("gff 2 2 1\n1 2 1.0\n2 1 2.0\n", None,
                        "conflicting resistances on edge (1, 2)"),
    # refused while the model is built, so every command on it gets this line
    "gff-conductance-overflow": ("gff 2 1 1\n1 2 1e-320\n", None,
                                 "conductance 1/1e-320 on edge (1,2) overflows"),
    # each conductance is finite, but their sum at vertex 2 is not
    "gff-total-conductance-overflow": ("gff 3 2 1\n1 2 1e-308\n2 3 1e-308\n", None,
                                       "total conductance at vertex 2 overflows"),
    # n far above the edge count: refused before any walk over n vertices,
    # with a message whose size does not grow with n
    "gff-huge-n": ("gff 200000 1 1\n1 2 1\n", None,
                   "200000 vertices need 199999 edges, got 1"),
    "gff-two-vertices-no-edge": ("gff 2 0 1\n", None, "2 vertices need 1 edge, got 0"),
    # any support line but 1..n is reported at that line
    "gmrf-partial-support": ("gmrf\n3 2\n1 2\n1 0\n0 1\n", None,
                             "line 3: support (1, 2) is not 1..3"),
    "gmrf-support-range": ("gmrf\n3 2\n1 5\n1 0\n0 1\n", None,
                           "line 3: support (1, 5) is not 1..3"),
    "gmrf-support-range-square": ("gmrf\n2 2\n1 3\n1 0\n0 1\n", None,
                                  "line 3: support (1, 3) is not 1..2"),
    "gmrf-unsorted-support": ("gmrf\n2 2\n2 1\n1 0\n0 1\n", None,
                              "line 3: support (2, 1) is not 1..2"),
    # n far above the file's length: refused without building anything n-sized
    "gmrf-huge-n": ("gmrf\n1000000000000 1\n1\n1\n", None,
                    "line 3: support (1,) is not 1..1000000000000"),
    # n = 0 with a blank support line, not a 0 x 0 model
    "gmrf-empty": ("gmrf\n0 0\n\n\n", None, "line 2: invalid dimensions n=0 k=0"),
    # block errors name the row holding the bad entry
    "gmrf-inf-diagonal": ("gmrf\n2 2\n1 2\ninf 0\n0 1\n", None,
                          "line 4: block has non-finite entries"),
    "gmrf-inf-off-diagonal": ("gmrf\n2 2\n1 2\n1 inf\ninf 1\n", None,
                              "line 4: block has non-finite entries"),
    "gmrf-nan": ("gmrf\n2 2\n1 2\nnan 0\n0 1\n", None, "line 4: block has non-finite entries"),
    "gmrf-nan-last-row": ("gmrf\n2 2\n1 2\n1 0\n0 nan\n", None,
                          "line 5: block has non-finite entries"),
    "gmrf-not-symmetric": ("gmrf\n2 2\n1 2\n1 0.5\n0.2 1\n", None,
                           "line 5: block is not symmetric"),
    "gmrf-cov-not-symmetric": ("gmrf-cov\n2 2\n1 2\n1 0.5\n0.2 1\n", None,
                               "line 5: block is not symmetric"),
    "gmrf-entry-too-large": ("gmrf\n2 2\n1 2\n1 0\n0 1e308\n", None,
                             "line 5: block has entries above 8.98847e+307 in magnitude"),
    # the file parses, but the inverse of the covariance overflows to inf; no
    # covariance line is at fault, so the message names none
    "gmrf-cov-inverse-overflow": ("gmrf-cov\n2 2\n1 2\n1e-310 0\n0 1\n", None,
                                  "covariance is ill-conditioned (its inverse: block has "
                                  "non-finite entries)"),
    # the inverse holds 1e308: refused before inv + inv.T overflows (no warning)
    "gmrf-cov-inverse-too-large": ("gmrf-cov\n2 2\n1 2\n1e-308 0\n0 1\n", None,
                                   "covariance is ill-conditioned (its inverse: block has "
                                   "entries above 8.98847e+307 in magnitude)"),
    "gmrf-cov-singular": ("gmrf-cov\n2 2\n1 2\n1 1\n1 1\n", None,
                          "covariance is singular (its inverse: Singular matrix)"),
    "gmrf-not-definite": ("gmrf\n2 2\n1 2\n1 2\n2 1\n", None,
                          "precision not positive definite (lambda_min = -1.000e+00)"),
    # blank and '#' lines after the matrix are skipped, the next is not
    "gmrf-text-after": ("gmrf\n2 2\n1 2\n2 1\n1 2\n3 3\n1 2 3\nx y\n", None,
                        "line 6: unexpected text after the matrix '3 3'"),
    "gmrf-text-after-comment": ("gmrf\n2 2\n1 2\n2 1\n1 2\n\n# fine\nx\n", None,
                                "line 8: unexpected text after the matrix 'x'"),
    "gmrf-text-after-1x1": ("gmrf\n1 1\n1\n2\nextra\n", None,
                            "line 5: unexpected text after the matrix 'extra'"),
    "matrix-no-header": ("gmrf\n", None, "line 2: missing matrix header"),
    "matrix-header-fields": ("gmrf\nnonsense", None, "line 2: expected 'n k', got 'nonsense'"),
    "matrix-header-integer": ("gmrf\n2 x\n", None, "line 2: non-integer matrix header '2 x'"),
    "matrix-dimensions": ("gmrf\n2 3\n", None, "line 2: invalid dimensions n=2 k=3"),
    "matrix-short": ("gmrf\n2 2\n1 2\n1 0\n", None,
                     "line 4: expected support line and 2 rows"),
    "matrix-support-count": ("gmrf\n2 2\n1\n1 0\n0 1\n", None,
                             "line 3: expected 2 support indices, got 1"),
    "matrix-support-integer": ("gmrf\n3 2\n1 x\n1 0\n0 1", None,
                               "line 3: non-integer support index in '1 x'"),
    "matrix-row-length": ("gmrf\n2 2\n1 2\n1 0 0\n0 1\n", None,
                          "line 4: expected 2 entries, got 3"),
    "matrix-entry-numeric": ("gmrf\n3 2\n1 2\n1 oops\n0 1", None,
                             "line 4: non-numeric entry in '1 oops'"),
    "matrix-non-finite": ("gmrf\n2 2\n1 2\n1 0\n0 inf", None,
                          "line 5: block has non-finite entries"),
    "matrix-not-symmetric": ("gmrf\n3 3\n1 2 3\n1 0 0\n0 1 0.5\n0 0.7 1", None,
                             "line 6: block is not symmetric"),
    # twice 1e308 overflows, so the block could not be averaged with its mirror
    "matrix-entry-too-large": ("gmrf\n2 2\n1 2\n1e308 0\n0 1\n", None,
                               "line 4: block has entries above 8.98847e+307 in magnitude"),
    "td-duplicate-header": (P4_TEXT, "s td 1 4 4\ns td 1 4 4\n",
                            "line 2: duplicate 's td' header"),
    "td-header-integer": (P4_TEXT, "s td 1 x 4\n", "line 1: non-integer header field"),
    "td-malformed-header": (P4_TEXT, "s td 1 2\n", "line 1: malformed header 's td 1 2'"),
    "td-bag-first": (P4_TEXT, "b 1 1 2\n", "line 1: bag before 's td' header"),
    # a bag line without its index
    "td-bag-no-index": (P4_TEXT, "s td 1 2 4\nb\n", "line 2: malformed bag line 'b'"),
    # a count below 1 is refused at the header, not as a tree of -1 edges
    "td-zero-bags": (P4_TEXT, "s td 0 1 4\n", "line 1: invalid dimensions m=0 width+1=1 n=4"),
    "td-negative-bags": (P4_TEXT, "s td -1 1 4\n",
                         "line 1: invalid dimensions m=-1 width+1=1 n=4"),
    "td-bag-malformed": (P4_TEXT, "s td 1 4 4\nb x 1\n", "line 2: malformed bag line 'b x 1'"),
    "td-bag-duplicate": (P4_TEXT, "s td 2 4 4\nb 1 1 2\nb 1 1 2\n",
                         "line 3: duplicate bag 1"),
    "td-bag-indices": (P4_TEXT, "s td 2 3 4\nb 1 1 2\nb 3 2 3 4\n", "bag indices [1, 3] != 1..2"),
    # a bag count far above the file's length: refused without building anything m-sized
    "td-huge-bag-count": (P4_TEXT, "s td 1000000000000 2 4\nb 1 1 2\n",
                          "bag indices [1] != 1..1000000000000"),
    "td-bag-too-wide": (P4_TEXT, "s td 2 2 4\nb 1 1 2 3\nb 2 3 4\n1 2\n",
                        "declared width+1 = 2 but a bag has 3 vertices"),
    "td-edge-first": (P4_TEXT, "1 2\ns td 1 4 4\n", "line 1: edge before 's td' header"),
    "td-edge-malformed": (P4_TEXT, TD_TWO_BAGS + "1 2 3\n",
                          "line 4: malformed edge line '1 2 3'"),
    "td-edge-integer": (P4_TEXT, TD_TWO_BAGS + "1 x\n", "line 4: non-integer edge '1 x'"),
    "td-no-header": (P4_TEXT, "c a comment only\n", "missing 's td' header"),
    # an edge names two different bags of 1..m, in the file's own numbering
    "td-tree-edge": (P4_TEXT, TD_TWO_BAGS + "1 1\n",
                     "line 4: tree edge '1 1' does not join two different bags of 1..2"),
    "td-tree-edge-range": (P4_TEXT, TD_TWO_BAGS + "1 5\n",
                           "line 4: tree edge '1 5' does not join two different bags of 1..2"),
    "td-tree-edge-zero": (P4_TEXT, TD_TWO_BAGS + "0 1\n",
                          "line 4: tree edge '0 1' does not join two different bags of 1..2"),
    "td-edge-count": (P4_TEXT, TD_TWO_BAGS, "0 tree edges for 2 clusters; a tree needs 1"),
    "td-vertex-range": (P4_TEXT, "s td 2 3 4\nb 1 1 2 5\nb 2 2 3 4\n1 2\n",
                        "cluster vertices [5] outside 1..4"),
}

GREEDY_OVERFLOW_TEXT = ("gff 8 7 1\n1 2 1.01652327565\n1 5 1e308\n2 3 0.610608350828\n"
                        "2 6 1.57505825349\n2 7 1.07116993631\n3 4 1.86257548384\n"
                        "3 8 0.519472119791\n")
# one case per refusal of a command whose files parse: (model text written to
# {input}, or None; the arguments, split at spaces, with {out} for a path that
# must stay unwritten; exit code; exact stderr)
REFUSED_COMMANDS = {
    "eval-bad-set": (C4_TEXT, "eval --input {input} --set 1,x", 2,
                     "error: bad vertex set '1,x'"),
    "eval-pin-on-gmrf": (TREE_GMRF_TEXT, "eval --input {input} --set 1 --pin 2", 2,
                         "error: --pin applies to GFF models only"),
    "greedy-alpha-nan": (C4_TEXT, "select greedy --input {input} --alpha nan", 2,
                         "error: alpha must be finite and >= 0, got nan"),
    "greedy-alpha-inf": (C4_TEXT, "select greedy --input {input} --alpha inf", 2,
                         "error: alpha must be finite and >= 0, got inf"),
    "exact-alpha-nan": (C4_TEXT, "select exact --input {input} --alpha nan", 2,
                        "error: alpha must be finite and >= 0, got nan"),
    "exact-alpha-inf": (C4_TEXT, "select exact --input {input} --alpha inf", 2,
                        "error: alpha must be finite and >= 0, got inf"),
    # the inverse holds 1e308, so inv + inv.T would overflow
    "greedy-inverse-1e308-budget": (GREEDY_OVERFLOW_TEXT,
                                    "select greedy --input {input} --budget 2", 2,
                                    "error: covariance is ill-conditioned (inverting the "
                                    "precision: block has entries above 8.98847e+307 in "
                                    "magnitude)"),
    "greedy-inverse-1e308-alpha": (GREEDY_OVERFLOW_TEXT,
                                   "select greedy --input {input} --alpha 0.1", 2,
                                   "error: covariance is ill-conditioned (inverting the "
                                   "precision: block has entries above 8.98847e+307 in "
                                   "magnitude)"),
    "exact-cap": ("gff 25 24 1\n" + "".join(f"{i} {i + 1} 1.0\n" for i in range(1, 25)),
                  "select exact --input {input} --budget 2", 3,
                  "infeasible: n = 25 exceeds the exhaustive-search cap 20; raise max_n "
                  "explicitly to override"),
    "exact-max-n": ("gff 5 4 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n",
                    "select exact --budget 2 --max-n 4 --input {input}", 3,
                    "infeasible: n = 5 exceeds the exhaustive-search cap 4; raise max_n "
                    "explicitly to override"),
    # a negative cap is refused as an argument, not reported as an instance too large
    "exact-max-n-negative": (C4_TEXT, "select exact --budget 1 --max-n -1 --input {input}", 2,
                             "error: max_n must be >= 0, got -1"),
    "dp-alpha": (C4_TEXT, "select dp --input {input} --alpha 0.3", 2,
                 "error: select dp needs --budget"),
    "dp-negative-budget": (P4_TEXT, "select dp --input {input} --budget -1", 2,
                           "error: budget must be >= 0, got -1"),
    "dp-state-cap": ("gff 6 5 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n5 6 1.0\n",
                     "select dp --input {input} --budget 2 --state-cap 10", 3,
                     "infeasible: mode=gff eps=1.000e-12 budget=2 edges=1 contexts=4 states=7"),
    # a legal cap that nothing fits under
    "dp-state-cap-0": (P4_TEXT, "select dp --input {input} --budget 1 --state-cap 0", 3,
                       "infeasible: mode=gff eps=5.808e-10 budget=1 edges=0 contexts=1 "
                       "states=0"),
    "dp-state-cap-negative": (P4_TEXT, "select dp --input {input} --budget 1 --state-cap -5",
                              2, "error: state cap must be >= 0, got -5"),
    "dp-gff-rounding-on-gmrf": (TREE_GMRF_TEXT,
                                "select dp --input {input} --budget 1 --rounding gff", 2,
                                "error: gff factorization needs a GffModel"),
    # a GFF Laplacian is singular, so general factorization cannot start
    "dp-svd-rounding-on-gff": (P4_TEXT, "select dp --input {input} --budget 1 --rounding svd",
                               2, "error: svd rounding needs a GMRF; a GFF Laplacian is "
                               "singular"),
    # the GFF grid's c_h / c_l overflows; at 1e-308 c_l underflows to 0 too
    "dp-grid-range-200": ("gff 3 2 1\n1 2 1e-200\n2 3 1\n",
                          "select dp --input {input} --budget 1", 2,
                          "error: conductances [1.000e+00, 1.000e+200] overflow the grid"),
    "dp-grid-range-308": ("gff 3 2 1\n1 2 1e-308\n2 3 1\n",
                          "select dp --input {input} --budget 1", 2,
                          "error: conductances [1.000e+00, 1.000e+308] overflow the grid"),
    # positive definite, but lambda_min / lambda_max is below RANK_TOL
    "dp-flat-gmrf": ("gmrf\n2 2\n1 2\n5e-13 1e-13\n1e-13 1\n",
                     "select dp --input {input} --budget 1", 2,
                     "error: general factorization needs positive definite Lambda"),
    "convert-gff": (C4_TEXT, "convert tree-gmrf-to-gff --input {input}", 2,
                    "error: convert expects a GMRF model file"),
    # couplings of -1e-5 leave Cov(X1, X4) near 1e-15, under the tolerance
    "convert-independent-pair": ("gmrf\n4 4\n1 2 3 4\n1 -1e-5 0 0\n-1e-5 1 -1e-5 0\n"
                                 "0 -1e-5 1 -1e-5\n0 0 -1e-5 1\n",
                                 "convert tree-gmrf-to-gff --input {input}", 2,
                                 "error: variables 1 and 4 are independent"),
    "gen-density-nan": (None, "gen gff --density nan --n 6 --out {out}", 2,
                        "error: density must lie in [0, 1], got nan"),
    "gen-density-1.5": (None, "gen gff --density 1.5 --n 6 --out {out}", 2,
                        "error: density must lie in [0, 1], got 1.5"),
    "gen-cond-cap-nan": (None, "gen gmrf --cond-cap nan --n 6 --out {out}", 2,
                         "error: condition cap must exceed 1, got nan"),
    "gen-width-0": (None, "gen gmrf --width 0 --n 6 --out {out}", 2,
                    "error: tree width hint must be >= 1, got 0"),
    "gen-gff-seed-neg": (None, "gen gff --seed -1 --n 6 --out {out}", 2,
                         "error: seed must be >= 0, got -1"),
    "gen-gmrf-seed-neg": (None, "gen gmrf --seed -1 --n 6 --out {out}", 2,
                          "error: seed must be >= 0, got -1"),
    # conductances past the largest float: refused at the first such edge in
    # draw order, (1,2) at seed 0 and (2,4) at seed 4, where (1,5) is the
    # first in sorted order
    "gen-tiny-resistances-0": (None, "gen gff --n 12 --seed 0 --r-min 5e-324 --r-max 1e-300",
                               2, "error: conductance 1/3.45900274699043e-309 on edge (1,2) "
                               "overflows"),
    "gen-tiny-resistances-4": (None, "gen gff --n 12 --seed 4 --r-min 5e-324 --r-max 1e-300",
                               2, "error: conductance 1/3.8e-322 on edge (2,4) overflows"),
    "validate-negative-trials": (None, "validate --trials -3 --out {out}", 2,
                                 "error: trials must be >= 0, got -3"),
    "validate-negative-seed": (None, "validate --seed -1 --trials 1 --out {out}", 2,
                               "error: seed must be >= 0, got -1"),
}


def bad_files_refused(tmp_path, capsys, *cases):
    """For each BAD_FILES case, with warnings as errors: the parser raises the
    row's message, and `eval` (`select dp --td` for a decomposition) prints it
    on stderr, nothing on stdout, and exits 2."""
    for case in cases:
        model_text, td_text, message = BAD_FILES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GmrfSelectError) as info:
                model = io.parse_model_text(model_text)
                parse_and_normalize(td_text, model)
            assert str(info.value) == message, case
            # a message that names a line of the file is the parser's
            assert isinstance(info.value, ParseError) or not message.startswith("line "), case
            argv = ["eval", "--set", "1", "--input", write(tmp_path, "m.txt", model_text)]
            if td_text is not None:
                argv = ["select", "dp", "--budget", "1", "--input", argv[-1],
                        "--td", write(tmp_path, "m.td", td_text)]
            assert main(argv) == 2, case
        assert capsys.readouterr() == ("", f"error: {message}\n"), case


def commands_refused(tmp_path, capsys, *cases):
    """Run each REFUSED_COMMANDS case in a directory of its own, with warnings
    as errors: it exits with the row's code and stderr, prints nothing on
    stdout and writes no file, under {out} or elsewhere."""
    for case in cases:
        model_text, args, code, stderr = REFUSED_COMMANDS[case]
        directory = tmp_path / case
        directory.mkdir()
        files = [] if model_text is None else [write(directory, "m.txt", model_text)]
        argv = [a.format(input=directory / "m.txt", out=directory / "out")
                for a in args.split()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code, case
        assert capsys.readouterr() == ("", f"{stderr}\n"), case
        assert sorted(str(p) for p in directory.iterdir()) == files, case


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_file_message_and_exit_code(tmp_path, capsys, case):
    bad_files_refused(tmp_path, capsys, case)


@pytest.mark.parametrize("case", sorted(REFUSED_COMMANDS))
def test_refused_command(tmp_path, capsys, case):
    commands_refused(tmp_path, capsys, case)


def test_vertex_set_boundary(tmp_path, capsys):
    path = write(tmp_path, "c4.gff", C4_TEXT)
    assert main(["eval", "--input", path, "--set", " "]) == 0
    assert json.loads(capsys.readouterr().out)["selected"] == [1]   # the pin alone


def test_convert_gff_exit_code(tmp_path, capsys):
    # a former one-off test, now a REFUSED_COMMANDS row (see TestParseModel)
    commands_refused(tmp_path, capsys, "convert-gff")


class TestValidateSuite:
    def test_default_passes(self):
        code, payload = validate_suite(seed=0, trials=10)
        assert code == 0
        assert all(f["severity"] != "violation" for f in payload["findings"])

    @pytest.mark.filterwarnings("error")   # the note replaces the warning
    def test_zero_trials_warns(self):
        code, payload = validate_suite(seed=0, trials=0)
        assert code == 0
        assert payload["note"] == "vacuous pass: zero trials"

    def test_injected_fault_fails(self, monkeypatch):
        # harness self-test: flip a sign inside the conditional-variance path
        import gmrf_select.validate as validate_mod

        true_cv = validate_mod.models.conditional_variance

        def broken_cv(model, i, s):
            return -true_cv(model, i, s)

        monkeypatch.setattr(validate_mod.models, "conditional_variance", broken_cv)
        code, payload = validate_suite(seed=0, trials=5)
        assert code == 4
        assert any(f["suite"] == "three-path" for f in payload["findings"])

    # A fault in one solver must surface as findings of that solver's suite,
    # with the severity that decides the exit code.

    def _faulty_run(self, monkeypatch, name, fault):
        """validate_suite(seed=0, trials=3) with validate's ``name`` replaced
        by ``fault(true_function, *args)``; returns the exit code and findings."""
        import gmrf_select.validate as validate_mod

        true_fn = getattr(validate_mod, name)
        monkeypatch.setattr(validate_mod, name, lambda *args: fault(true_fn, *args))
        code, payload = validate_suite(seed=0, trials=3)
        return code, payload["findings"]

    def test_greedy_above_classical_bound_is_a_violation(self, monkeypatch):
        def worst(greedy, g, b):   # worse than observing nothing but the pin
            return replace(greedy(g, b), err_value=err(g, g.pinned) + 1.0)

        code, findings = self._faulty_run(monkeypatch, "greedy_budget", worst)
        assert code == 4
        violations = [f for f in findings if f["severity"] == "violation"]
        assert len(violations) == 3
        assert all((f["suite"], f["detail"]) == ("greedy-budget", "classical mixed bound violated")
                   and f["greedy"] > f["bound"] for f in violations)

    def test_greedy_at_classical_bound_is_a_discrepancy(self, monkeypatch):
        def at_bound(greedy, g, b):   # the err the classical bound allows, and no more
            opt = exact_budget(g, b).err_value
            return replace(greedy(g, b),
                           err_value=err(g, {g.pin}) / math.e + (1.0 - 1.0 / math.e) * opt)

        code, findings = self._faulty_run(monkeypatch, "greedy_budget", at_bound)
        assert code == 0 and findings
        assert all((f["severity"], f["suite"], f["detail"]) == (
            "discrepancy", "greedy-budget",
            "stated factor e/(e-1) exceeded (known-unproven certificate)")
            and f["ratio"] > BUDGET_FACTOR for f in findings)

    def test_greedy_cover_above_certificate_is_a_violation(self, monkeypatch):
        def understated(greedy, g, alpha):   # a certificate of half a vertex per optimal one
            return replace(greedy(g, alpha), guarantee=Guarantee(0.5, "wrong"))

        code, findings = self._faulty_run(monkeypatch, "greedy_cover", understated)
        assert code == 4 and len(findings) == 3
        assert all((f["severity"], f["suite"], f["detail"], f["factor"]) == (
            "violation", "greedy-cover", "cover certificate violated", 0.5)
            for f in findings)

    def test_dp_above_target_is_a_violation(self, monkeypatch):
        def doubled(dp, g, td, b, eps_prime):
            report = dp(g, td, b, eps_prime)
            return replace(report, err_value=2.0 * report.err_value + 1.0)

        code, findings = self._faulty_run(monkeypatch, "dp_select", doubled)
        assert code == 4 and len(findings) == 4
        assert all((f["severity"], f["suite"], f["detail"]) == (
            "violation", "dp-vs-exact", "DP err above 1.1 * exact")
            and f["dp"] > 1.1 * f["exact"] for f in findings)

    def test_cli_prints_findings(self, monkeypatch, capsys):
        import gmrf_select.validate as validate_mod

        true_cv = validate_mod.models.conditional_variance
        monkeypatch.setattr(validate_mod.models, "conditional_variance",
                            lambda model, i, s: -true_cv(model, i, s))
        assert main(["validate", "--seed", "0", "--trials", "2"]) == 4
        head, *lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"validate: [1-9]\d* violations, \d+ discrepancies "
                            r"\(seed=0, trials=2\)", head)
        assert lines and all(re.fullmatch(r"  \[(violation|discrepancy)\] [\w-]+: .+", x)
                             for x in lines)
        assert any(x.startswith("  [violation] three-path: ") for x in lines)

    def _flag_first_check(self, monkeypatch, below):
        """Lower the stacked err(A) score of the first supermodularity check of
        seed 0 until lhs = err(A) - err(A + x) sits ``below`` under rhs =
        err(A + y) - err(A + x + y), and make any call of err fail. Returns a
        dict that receives that check's model, its four sets A, A+x, A+y,
        A+x+y and their scores as the suite saw them."""
        import gmrf_select.validate as validate_mod

        first = {}

        def flag(models, owner, unobserved, scores):
            if not first:
                scores[0] = scores[1] + scores[2] - scores[3] - below
                sets = stacked_sets(models, owner[:4], unobserved[:4])
                first.update(model=sets[0][0], sets=[frozenset(s) for _, s in sets],
                             scores=scores[:4].tolist())

        def no_err(model, subset):
            raise AssertionError("the supermodularity suite called err")

        recorded_stack_calls(monkeypatch, flag)
        monkeypatch.setattr(validate_mod, "err", no_err)
        return first

    def test_break_within_tolerance_makes_no_finding(self, monkeypatch):
        import gmrf_select.validate as validate_mod

        self._flag_first_check(monkeypatch, 0.5e-9)
        assert validate_mod.suite_supermodularity(0, 10) == []

    def test_confirmed_batch_flag_carries_errs_numbers(self, monkeypatch):
        # the batch's numbers are err's, bit for bit, so the finding carries them
        import gmrf_select.validate as validate_mod

        first = self._flag_first_check(monkeypatch, 1.0)
        (finding,) = validate_mod.suite_supermodularity(0, 10)
        g, (a, ax, ay, axy) = first["model"], first["sets"]
        e_a, e_ax, e_ay, e_axy = first["scores"]
        assert (finding["suite"], finding["n"]) == ("supermodularity", g.n)
        assert (set(finding["a"]), {finding["x"]}, {finding["y"]}) == (a, ax - a, ay - a)
        assert (finding["lhs"], finding["rhs"]) == (e_a - e_ax, e_ay - e_axy)
        assert (e_ax, e_ay, e_axy) == tuple(err(g, s) for s in (ax, ay, axy))

    def test_supermodularity_draws_are_the_scalar_loops(self, monkeypatch):
        # the models (n, density, seed) and the checks (n, A, x, y) of the
        # suite's five draws per block, at a full block and across two blocks
        # whose last model has 7 checks
        import gmrf_select.validate as validate_mod

        calls = recorded_stack_calls(monkeypatch)
        drawn, recorded_edges = [], validate_mod.random_gff_edges

        def drawing_edges(n, density, resistance_range, seed):
            drawn.append((n, density, seed))
            return recorded_edges(n, density, resistance_range, seed)

        monkeypatch.setattr(validate_mod, "random_gff_edges", drawing_edges)
        for seed in range(8):
            for trials in (1000, 1007):
                calls.clear()
                drawn.clear()
                validate_mod.suite_supermodularity(seed, trials)
                checks = []
                for models, owner, unobserved, _ in calls:
                    sets = stacked_sets(models, owner, unobserved)
                    for c in range(0, len(sets), 4):
                        a, ax, ay, axy = (set(s) for _, s in sets[c:c + 4])
                        (x,), (y,) = ax - a, ay - a
                        assert axy == a | {x, y}
                        checks.append((sets[c][0].n, a, x, y))
                assert (drawn, checks) == supermodularity_checks_reference(seed, trials)

    def test_dp_vs_exact_draws(self, monkeypatch):
        # per trial: n from 4..9, the tree's seed, and a budget from 0..2
        import gmrf_select.validate as validate_mod

        calls, true_dp = [], validate_mod.dp_select

        def recording_dp(g, td, b, eps_prime):
            calls.append((g.n, b))
            return true_dp(g, td, b, eps_prime)

        monkeypatch.setattr(validate_mod, "dp_select", recording_dp)
        for seed in range(4):
            calls.clear()
            validate_mod.suite_dp_vs_exact(seed, 10)
            rng, expected = np.random.default_rng(seed), []
            for _ in range(10):
                n, _seed, b = rng.integers(4, 10), rng.integers(0, 1 << 30), rng.integers(0, 3)
                expected.append((int(n), int(b)))
            assert calls == expected
            assert any(b == 0 for _, b in calls), seed

    def test_supermodularity_memory_is_bounded_by_blocks(self, monkeypatch):
        # 5,000 checks: five stacked calls of 100 models and 4,000 sets, and no
        # more than 100 models drawn for any call
        import gmrf_select.validate as validate_mod

        true_edges, true_stack = validate_mod.random_gff_edges, validate_mod.err_stack
        drawn, sizes, marks = [], [], [0]   # marks: len(drawn) at each stacked call

        def drawing_edges(*args):
            drawn.append(args)
            return true_edges(*args)

        def recording_stack(precisions, ns, owner, unobserved):
            marks.append(len(drawn))
            sizes.append((len(precisions), len(ns), len(owner), len(unobserved),
                          marks[-1] - marks[-2] <= 100))
            return true_stack(precisions, ns, owner, unobserved)

        monkeypatch.setattr(validate_mod, "random_gff_edges", drawing_edges)
        monkeypatch.setattr(validate_mod, "err_stack", recording_stack)
        validate_mod.suite_supermodularity(0, 5000)
        assert len(drawn) == 500
        assert sizes == [(100, 100, 4000, 4000, True)] * 5

    def test_threaded_run_matches(self, monkeypatch):
        code_serial, payload_serial = validate_suite(seed=2, trials=6)
        monkeypatch.setenv("GMRF_SELECT_THREADS", "3")
        code_threaded, payload_threaded = validate_suite(seed=2, trials=6)
        assert code_serial == code_threaded
        assert payload_serial["findings"] == payload_threaded["findings"]
