"""Command-line interface: subcommands, exit codes, JSON determinism, and
corpus parallel/serial agreement."""
import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import syzcurve
import syzcurve.cli
from syzcurve import CurveRecord, parse
from syzcurve.cli import main

from conftest import BAD_CURVE_FILES, write_curve_file

GOOD_FILE = """name = cli_quartic
f = x*y*z^2 + x^4 + y^4
sing = (0:0:1) A1
"""

BAD_FILE = """name = cli_bad
f = x^4 + y^4 + z^4
sing = (0:0:1) A1
"""

# a line without "=", then a bad integer, a record check, a bad point, a
# file that is not UTF-8, an irreducible flag that is neither true nor
# false, a misspelt key, a pair expectation that is not a pair, an unknown
# singularity type, a point with two coordinates, a declaration without a
# point and a tangent off its point, each with the field its error names
MALFORMED_FILES = [("line 1", "name only\n")] + [
    BAD_CURVE_FILES[i] for i in (0, 4, 7, 8, 9, 10, 12, 14, 15, 16, 17)]
MALFORMED_IDS = [field.split()[0] for field, _ in MALFORMED_FILES[:8]] + [
    "sing_type", "sing_point", "sing_layout", "sing_tangent"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_catalog_curve(self, capsys):
        code, out, _ = run(capsys, "analyze", "triangle")
        assert code == 0
        assert "tau        3" in out
        assert "free       True  exponents=(1, 1)" in out
        assert re.search(r"^time       \d+\.\d{3}s$", out, re.MULTILINE)

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "missing.curve")
        assert code == 1
        assert "usage error" in err

    def test_curve_file(self, capsys, tmp_path):
        path = tmp_path / "c.curve"
        path.write_text(GOOD_FILE)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "tau        1" in out

    def test_failing_verification_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text(BAD_FILE)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "verification failed" in err

    def test_wrong_cusp_tangent_exit_2(self, capsys, tmp_path):
        # x passes through the cusp (0:0:1) of z*y^2 - x^3, but the
        # cuspidal tangent there is y
        path = write_curve_file(tmp_path / "cusp.curve",
                                "name = cusp\nf = z*y^2 - x^3\n"
                                "sing = (0:0:1) A2 tangent=x\n")
        code, out, err = run(capsys, "analyze", path)
        assert (code, out) == (2, "")
        assert err.startswith("verification failed: cusp: "
                              "sing[0] A2 tangent cone -- Hessian at (0:0:1)")

    @pytest.mark.parametrize("field, text", MALFORMED_FILES,
                             ids=MALFORMED_IDS)
    def test_malformed_file_exit_2(self, capsys, tmp_path, field, text):
        path = write_curve_file(tmp_path / "syn.curve", text)
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert err.startswith("curve file error: %s: " % field)
        assert out == ""

    def test_directory_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path))
        assert code == 1
        assert err.startswith("usage error: ")

    def test_file_without_sing_line_claims_smooth(self, capsys, tmp_path):
        path = tmp_path / "triangle.curve"
        path.write_text("name = undeclared\nf = x*y*z\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "verification failed" in err
        assert "declared 0, computed 3" in err
        assert out == ""

    def test_wrong_component_count_exit_2(self, capsys, tmp_path):
        # three lines, declared as two components: the three nodes pass,
        # and ar_dim(f, d - 2) + 1 = 3 contradicts the declared count
        path = tmp_path / "two.curve"
        path.write_text("name = two\nf = x*y*z\nirreducible = false\n"
                        "components = 2\n"
                        "sing = (1:0:0) A1 ; (0:1:0) A1 ; (0:0:1) A1\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err == ("verification failed: two: the nodal curve of degree "
                       "3 declares 2 components, but ar_dim(f, 1) + 1 gives "
                       "3\n")
        assert out == ""

    @pytest.mark.parametrize("poly, factor", [
        ("x^2*y", "x"), ("x^3", "x"),
        ("(x^2 + y^2 + z^2)^2*(x + y + z)^3*y", "x^3 + ")])
    def test_not_reduced_file_exit_2(self, capsys, tmp_path, poly, factor):
        path = tmp_path / "nr.curve"
        path.write_text("name = doubled\nf = %s\n" % poly)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("verification failed: doubled: reduced -- ")
        assert "is not reduced" in err
        assert "repeats the factor %s" % factor in err
        assert out == ""

    def test_library_not_reduced_exit_2(self, capsys, monkeypatch):
        rec = CurveRecord("doubled", parse("x^2*y"), False, 2, None, ())
        monkeypatch.setattr(syzcurve.cli, "lookup", lambda name: rec)
        code, out, err = run(capsys, "analyze", "doubled")
        assert code == 2
        assert err == ("not reduced: curve of degree 3 is not reduced: it "
                       "repeats the factor x\n")
        assert out == ""

    @pytest.mark.parametrize("error", [syzcurve.RelationViolated,
                                       syzcurve.NegativeH2])
    def test_internal_check_failure_exit_3(self, capsys, monkeypatch, error):
        def fail(f):
            raise error("planted at m=4")
        monkeypatch.setattr(syzcurve.cli, "freeness", fail)
        code, out, err = run(capsys, "freeness", "triangle")
        assert code == 3
        assert err == "internal check failed: planted at m=4\n"
        assert out == ""

    def test_other_arithmetic_error_stays_a_traceback(self, monkeypatch):
        def fail(f):
            raise ArithmeticError("planted")
        monkeypatch.setattr(syzcurve.cli, "freeness", fail)
        with pytest.raises(ArithmeticError, match="planted"):
            main(["freeness", "triangle"])

    @pytest.mark.parametrize("poly, degree", [("x", 1), ("1", 0)])
    def test_degree_below_two_exit_2(self, capsys, tmp_path, poly, degree):
        path = tmp_path / "low.curve"
        path.write_text("name = low\nf = %s\n" % poly)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "curve file error" in err
        assert "degree must be at least 2, got %d" % degree in err

    def test_json_to_file_round_trips(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", "nodal_cubic", "--json",
                         str(dest))
        assert code == 0
        raw = dest.read_text()
        assert raw == json.dumps(json.loads(raw), indent=2,
                                 sort_keys=True) + "\n"

    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "analyze", "fermat3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["invariants"]["tau"] == 0

    def test_json_is_byte_identical_across_runs(self, capsys):
        outputs = [run(capsys, "analyze", "fermat4", "--json")
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0
        assert "timing" not in json.loads(outputs[0][1])


class TestTable:
    def test_milnor_fermat3(self, capsys):
        code, out, _ = run(capsys, "table", "milnor", "fermat3", "0..3")
        assert code == 0
        assert [line.split("\t")[1] for line in out.strip().splitlines()] \
            == ["1", "3", "3", "1"]

    def test_ar_triangle(self, capsys):
        code, out, _ = run(capsys, "table", "ar", "triangle", "0..3")
        assert code == 0
        assert out.startswith("0\t0\n1\t2\n")

    def test_defect_triangle(self, capsys):
        code, out, _ = run(capsys, "table", "defect", "triangle", "0..2")
        assert code == 0
        assert [l.split("\t")[1] for l in out.strip().splitlines()] \
            == ["2", "0", "0"]

    def test_negative_range_after_separator(self, capsys):
        code, out, _ = run(capsys, "table", "h1", "triangle", "--", "-3..3")
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_unknown_invariant_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "h9", "triangle", "0..3")
        assert code == 1
        assert "unknown invariant" in err

    def test_bad_range_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "ar", "triangle", "3")
        assert code == 1
        code, _, _ = run(capsys, "table", "ar", "triangle", "5..2")
        assert code == 1


class TestVerdictCommands:
    def test_stability(self, capsys):
        code, out, _ = run(capsys, "stability", "zariski_sextic")
        assert code == 0
        assert "stable: True" in out

    def test_freeness(self, capsys):
        code, out, _ = run(capsys, "freeness", "a1_arrangement")
        assert code == 0
        assert "free: True" in out
        assert "exponents: (2, 3)" in out

    def test_torelli(self, capsys):
        code, out, _ = run(capsys, "torelli", "two_node_sextic")
        assert code == 0
        assert "status: torelli" in out
        assert "witness degree: 2" in out

    def test_torelli_obstruction(self, capsys):
        code, out, _ = run(capsys, "torelli", "nodal_cubic")
        assert code == 0
        assert "dimension_obstruction" in out
        assert "family 8 > bundle family 5" in out


class TestCorpus:
    def test_filter_free(self, capsys):
        code, out, _ = run(capsys, "corpus", "--filter", "free")
        assert code == 0
        lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
        assert [l.split()[0] for l in lines] == \
            ["triangle", "a1_arrangement", "dual_hesse"]

    def test_max_degree_subset(self, capsys):
        code, out, _ = run(capsys, "corpus", "--max-degree", "3")
        assert code == 0
        assert "triangle" in out and "fermat3" in out
        assert "zariski_sextic" not in out

    def test_full_run_passes_and_parallel_identical(self, capsys):
        code, serial, _ = run(capsys, "corpus")
        assert code == 0
        assert "0 failures" in serial
        code2, parallel, _ = run(capsys, "corpus", "--parallel")
        assert code2 == 0
        assert parallel == serial

    def test_json_matrix(self, capsys, tmp_path):
        dest = tmp_path / "m.json"
        code, _, _ = run(capsys, "corpus", "--filter", "free", "--json",
                         str(dest))
        assert code == 0
        data = json.loads(dest.read_text())
        assert data["failures"] == 0
        assert len(data["curves"]) == 3


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1
        assert "analyze" in out

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "syzcurve.cli", "table",
                              "ar", "triangle", "0..1"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout == "0\t0\n1\t2\n"

    def test_version_matches_pyproject(self):
        text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        m = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
        assert m is not None
        assert syzcurve.__version__ == m.group(1)

    def test_traced_functions_stay_public(self):
        # perfbench's tracer reports a function's per_layer metrics only
        # while its module defines it publicly, and sizes each exactlin
        # call by that function's QMatrix argument
        root = Path(__file__).parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        for metric in spec["per_layer"]:
            parts = metric["name"].split(".")
            if len(parts) != 3 or parts[2] not in ("calls", "self_s"):
                continue
            module = importlib.import_module("syzcurve." + parts[0])
            func = getattr(module, parts[1], None)
            assert not parts[1].startswith("_"), metric["name"]
            assert inspect.isfunction(func), metric["name"]
            assert func.__module__ == module.__name__, metric["name"]
        exactlin = syzcurve.exactlin
        for name, func in vars(exactlin).items():
            if (name.startswith("_") or not inspect.isfunction(func)
                    or func.__module__ != exactlin.__name__):
                continue
            params = list(inspect.signature(func).parameters)
            matrix = params[1] if name == "in_span" else params[0]
            assert (typing.get_type_hints(func)[matrix]
                    is exactlin.QMatrix), name

    def test_public_functions_have_callers_in_the_package(self):
        # A public function or method that nothing else in the package
        # refers to is surface for the tests alone.  The exceptions: the
        # functions the benchmark traces, and user API (HPoly.variable
        # builds the benchmark's line arrangements).  Docstrings and
        # __init__'s re-exports are no reference.
        root = Path(__file__).parent.parent
        defined, units = [], []
        for path in sorted((root / "src" / "syzcurve").glob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.parse(path.read_text()).body:
                members = [node]
                if (isinstance(node, ast.ClassDef)
                        and not node.name.startswith("_")):
                    members = node.body
                    defined += [(path.stem + "." + node.name, item)
                                for item in node.body
                                if isinstance(item, ast.FunctionDef)]
                elif isinstance(node, ast.FunctionDef):
                    defined.append((path.stem, node))
                units += members
        names = [{n.id if isinstance(n, ast.Name) else n.attr
                  for n in ast.walk(unit)
                  if isinstance(n, (ast.Name, ast.Attribute))}
                 for unit in units]
        unreferenced = {
            owner + "." + node.name for owner, node in defined
            if not node.name.startswith("_")
            and not any(node.name in refs for unit, refs in zip(units, names)
                        if unit is not node)}
        spec = json.loads((root / "BENCHMARK.json").read_text())
        traced = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
        allowed_traced = {"polygcd.divides", "syzygy.ar_basis"}
        assert allowed_traced <= traced
        assert unreferenced == allowed_traced | {
            "ring3.linear_change", "singcat.kouchnirenko_mu",
            "torelli.torelli_nodal_count", "ring3.HPoly.variable"}
