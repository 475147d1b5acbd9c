import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gmrf_select import io
from gmrf_select.cli import main
from gmrf_select.errors import ParseError
from gmrf_select.models import GffModel, GmrfModel, err, laplacian, random_gff
from gmrf_select.validate import validate_suite

from conftest import COUNTEREXAMPLE_SIGMA, unit_cycle


C4_TEXT = "gff 4 4 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 1 1.0\n"


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

    def test_negative_resistance_rejected(self):
        with pytest.raises(ParseError):
            io.parse_model_text("gff 2 1 1\n1 2 -1.0\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            io.parse_model_text("gff 2 1 1\n1 2\n")
        with pytest.raises(ParseError, match="line 1"):
            io.parse_model_text("mystery 3\n")

    def test_model_round_trip(self):
        m = io.parse_model_text(C4_TEXT)
        again = io.parse_model_text(io.format_model(m))
        assert again.edges == m.edges and again.pin == m.pin
        gm = GmrfModel.from_covariance(COUNTEREXAMPLE_SIGMA)
        back = io.parse_model_text(io.format_model(gm))
        assert np.allclose(back.precision_matrix.block,
                           gm.precision_matrix.block, rtol=1e-10)


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
        back = io.parse_report(io.emit_report(rep))
        assert back.selected == rep.selected
        assert abs(back.err_value - rep.err_value) <= 1e-9 * rep.err_value
        assert back.solver == rep.solver
        assert back.guarantee.source == rep.guarantee.source

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
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

    def test_dp_state_cap_exit_code(self, tmp_path):
        gff_text = "gff 6 5 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n5 6 1.0\n"
        path = write(tmp_path, "p6.gff", gff_text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["select", "dp", "--input", path, "--budget", "2",
                         "--state-cap", "10"])
        assert code == 3

    def test_exact_cap_exit_code(self, tmp_path):
        n = 25
        edges = "\n".join(f"{i} {i+1} 1.0" for i in range(1, n))
        path = write(tmp_path, "big.gff", f"gff {n} {n-1} 1\n{edges}\n")
        assert main(["select", "exact", "--input", path, "--budget", "2"]) == 3

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
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        back = io.parse_model_text("\n".join(lines))
        assert isinstance(back, GffModel)

    def test_parse_error_exit_code(self, tmp_path):
        path = write(tmp_path, "bad.gff", "gff 2 1 1\n1 2 -3\n")
        assert main(["eval", "--input", path, "--set", "1"]) == 2

    def test_overflowing_conductance_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.gff", "gff 2 1 1\n1 2 1e-320\n")
        assert main(["select", "greedy", "--input", path, "--budget", "1"]) == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["inf 0\n0 1", "1 inf\ninf 1", "nan 0\n0 1"],
                             ids=["inf-diagonal", "inf-off-diagonal", "nan"])
    def test_non_finite_gmrf_exit_code(self, tmp_path, capsys, rows):
        path = write(tmp_path, "bad.gmrf", f"gmrf\n2 2\n1 2\n{rows}\n")
        assert main(["eval", "--input", path, "--set", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 4: block has non-finite entries\n"

    def test_support_out_of_range_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.gmrf", "gmrf\n3 2\n1 5\n1 0\n0 1\n")
        assert main(["eval", "--input", path, "--set", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: support (1, 5) not within 1..3\n"

    def test_overflowing_precision_exit_code(self, tmp_path, capsys):
        # the file parses, but the inverse of the covariance overflows to inf
        path = write(tmp_path, "tiny.gmrf", "gmrf-cov\n2 2\n1 2\n1e-310 0\n0 1\n")
        assert main(["eval", "--input", path, "--set", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_singular_covariance_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "rank1.gmrf", "gmrf-cov\n2 2\n1 2\n1 1\n1 1\n")
        assert main(["eval", "--input", path, "--set", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: covariance is singular")

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

    def test_dp_gff_rounding_on_gmrf_exit_code(self, tmp_path, capsys):
        from conftest import random_tree_gmrf
        model = random_tree_gmrf(5, np.random.default_rng(4))
        path = write(tmp_path, "t5.gmrf", io.format_model(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no clamp notice either
            assert main(["select", "dp", "--input", path, "--budget", "1",
                         "--rounding", "gff"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gff factorization needs a GffModel\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("mode", ["greedy", "exact"])
    def test_non_finite_alpha_exit_code(self, tmp_path, capsys, mode, value):
        path = write(tmp_path, "c4.gff", C4_TEXT)
        assert main(["select", mode, "--input", path, "--alpha", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: alpha must be finite and >= 0, got {value}\n"

    def test_dp_negative_state_cap_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "p4.gff", "gff 4 3 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n")
        argv = ["select", "dp", "--input", path, "--budget", "1", "--state-cap"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([*argv, "-5"]) == 2
            assert capsys.readouterr().err == "error: state cap must be >= 0, got -5\n"
            assert main([*argv, "0"]) == 3   # a legal cap that nothing fits under
        assert capsys.readouterr().err.startswith("infeasible:")

    @pytest.mark.parametrize("mode", ["greedy", "exact", "dp"])
    def test_budget_with_pin_override(self, tmp_path, capsys, mode):
        # a tree, so dp needs no decomposition file; the pin is free
        g = random_gff(9, density=0.0, seed=5)
        path = write(tmp_path, "t9.gff", io.format_model(g))
        lap = laplacian(g).to_dense()
        for pin in (4, 9):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
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

    def test_traced_launcher_matches_plain_cli(self, tmp_path):
        # benchmark/traced.py wraps layer functions by name; a rename in src/
        # must fail here rather than silently drop spans from a traced run
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        path = write(tmp_path, "p4.gff", "gff 4 3 1\n1 2 1.0\n2 3 1.0\n3 4 1.0\n")
        request = ["select", "dp", "--input", path, "--budget", "1"]
        spans = str(tmp_path / "spans.json")
        plain = subprocess.run([sys.executable, "-m", "gmrf_select.cli", *request],
                               env=env, capture_output=True)
        traced = subprocess.run([sys.executable, os.path.join(root, "benchmark", "traced.py"),
                                 spans, "p4", *request], env=env, capture_output=True)
        assert plain.returncode == 0 and traced.returncode == 0
        assert traced.stdout == plain.stdout
        with open(spans) as fh:
            trace = json.load(fh)
        init = trace["names"].index("linalg.SupportedMatrix.init")
        assert any(span[0] == init for span in trace["spans"])

    def test_validate_cli(self, tmp_path, capsys):
        out_path = str(tmp_path / "findings.json")
        code = main(["validate", "--seed", "1", "--trials", "5",
                     "--out", out_path])
        assert code == 0
        with open(out_path) as fh:
            findings = json.load(fh)
        assert findings["trials"] == 5

    def test_validate_negative_trials_exit_code(self, tmp_path, capsys):
        out_path = tmp_path / "findings.json"
        assert main(["validate", "--trials", "-3", "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trials must be >= 0, got -3\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["gff", "--density", "nan"],
        ["gff", "--density", "1.5"],
        ["gmrf", "--cond-cap", "nan"],
        ["gmrf", "--width", "0"],
    ], ids=["density-nan", "density-1.5", "cond-cap-nan", "width-0"])
    def test_gen_bad_parameter_exit_code(self, tmp_path, capsys, argv):
        out_path = tmp_path / "model.txt"
        assert main(["gen", *argv, "--n", "6", "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out_path.exists()


class TestValidateSuite:
    def test_default_passes(self):
        code, payload = validate_suite(seed=0, trials=10)
        assert code == 0
        assert all(f["severity"] != "violation" for f in payload["findings"])

    def test_zero_trials_warns(self):
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            code, payload = validate_suite(seed=0, trials=0)
        assert code == 0
        assert payload["note"].startswith("vacuous")
        assert any("trials" in str(w.message) for w in wlist)

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

    def test_threaded_run_matches(self, monkeypatch):
        code_serial, payload_serial = validate_suite(seed=2, trials=6)
        monkeypatch.setenv("GMRF_SELECT_THREADS", "3")
        code_threaded, payload_threaded = validate_suite(seed=2, trials=6)
        assert code_serial == code_threaded
        assert payload_serial["findings"] == payload_threaded["findings"]
