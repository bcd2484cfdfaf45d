"""Curve catalog: record integrity, declared-data verification, the two
parametrized families, and the curve-file format."""
import re
from fractions import Fraction
from pathlib import Path

import pytest

from syzcurve import (CurveFileSyntax, CurveRecord, DeclaredSing, ProjPoint,
                      SingType, VerificationFailed, catalog,
                      check_expectations, load_curve_file, lookup, mdr,
                      non_ts_family, parse, tau, thom_sebastiani,
                      verify_record)

from conftest import BAD_CURVE_FILES, write_curve_file

F = Fraction


class TestCatalogIntegrity:
    def test_size_and_unique_names(self):
        names = [r.name for r in catalog()]
        assert len(names) >= 15
        assert len(set(names)) == len(names)

    def test_every_record_verifies(self):
        for rec in catalog():
            verify_record(rec)

    def test_degrees_match_polynomials(self):
        for rec in catalog():
            assert rec.degree == rec.f.degree
            assert rec.degree >= 3

    def test_free_tag_is_exactly_the_free_curves(self):
        free = sorted(r.name for r in catalog() if "free" in r.tags)
        assert free == ["a1_arrangement", "dual_hesse", "triangle"]

    def test_lookup(self):
        assert lookup("triangle").name == "triangle"
        with pytest.raises(KeyError):
            lookup("no_such_curve")

    def test_component_structure(self):
        for rec in catalog():
            if rec.irreducible:
                assert rec.components == 1
            if rec.component_genera is not None:
                assert len(rec.component_genera) == rec.components

    def test_record_invariants_enforced(self):
        f = parse("x^3 + y^3 + z^3")
        with pytest.raises(ValueError):
            CurveRecord("bad", f, True, 2, None, ())
        with pytest.raises(ValueError):
            CurveRecord("bad", f, False, 2, (0,), ())


class TestFamilies:
    def test_thom_sebastiani_records(self):
        rec = thom_sebastiani(2, 3)
        assert rec.degree == 5
        assert tau(rec.f) == 12
        assert mdr(rec.f) == 1
        verify_record(rec)

    def test_thom_sebastiani_sings(self):
        rec = thom_sebastiani(2, 2)
        # germs y^2 + z^4 and x^2 + z^4 at the two coordinate points
        assert {str(s.stype) for s in rec.sings} == {"A3"}
        assert len(rec.sings) == 2
        one_sided = thom_sebastiani(1, 3)
        assert len(one_sided.sings) == 1
        assert one_sided.sings[0].point == ProjPoint(1, 0, 0)

    def test_thom_sebastiani_validation(self):
        with pytest.raises(ValueError):
            thom_sebastiani(0, 3)

    def test_non_ts_family_records(self):
        rec = non_ts_family(2, 2, 2)
        assert rec.degree == 6
        assert str(rec.sings[0].stype) == "T(2,6,6)"
        verify_record(rec)

    def test_non_ts_family_validation(self):
        with pytest.raises(ValueError):
            non_ts_family(1, 2, 2)

    def test_non_ts_family_general_exponent_has_no_declared_type(self):
        rec = non_ts_family(2, 3, 2)
        assert rec.sings == ()
        # declaring nothing makes no smoothness claim for a library record
        verify_record(rec)
        verify_record(non_ts_family(2, 2, 3))


GOOD_FILE = """
# a quartic with one node
name = sample_quartic
f = x*y*z^2 + x^4 + y^4
irreducible = true
components = 1
genera = 2
sing = (0:0:1) A1
expect.tau = 1
expect.mdr = 4
expect.alpha = 1
expect.free = false
expect.exponents = none
"""

BAD_DECLARATION = """
name = wrong
f = x^4 + y^4 + z^4
sing = (0:0:1) A1
"""


class TestCurveFile:
    def test_load_good(self, tmp_path):
        path = tmp_path / "good.curve"
        path.write_text(GOOD_FILE)
        rec = load_curve_file(str(path))
        assert rec.name == "sample_quartic"
        assert rec.degree == 4
        assert rec.component_genera == (2,)
        assert rec.expected["tau"] == 1
        assert rec.expected["alpha"] == 1
        assert rec.expected["free"] is False
        assert rec.expected["exponents"] is None
        assert "file" in rec.tags

    def test_expect_value_forms(self, tmp_path):
        path = tmp_path / "vals.curve"
        path.write_text("name = v\nf = x*y*z\nirreducible = false\n"
                        "components = 3\n"
                        "sing = (1:0:0) A1 ; (0:1:0) A1 ; (0:0:1) A1\n"
                        "expect.alpha = 5/6\nexpect.exponents = (1,1)\n"
                        "expect.defect_profile = 2,0,0\n"
                        "expect.ar_at = (1,2)\n"
                        "expect.h0m_at = (0, 0); (2, 0)\n")
        rec = load_curve_file(str(path))
        assert rec.expected["alpha"] == F(5, 6)
        assert rec.expected["exponents"] == (1, 1)
        assert rec.expected["defect_profile"] == (2, 0, 0)
        # ar_at and h0m_at take (k, v) pairs, one or several
        assert rec.expected["ar_at"] == ((1, 2),)
        assert rec.expected["h0m_at"] == ((0, 0), (2, 0))
        ok = {r.key: r.ok for r in check_expectations(rec)}
        assert ok["ar_at"] and ok["h0m_at"]

    def test_readme_example_holds(self, tmp_path):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = re.search(r"```text\n(# a one-node quartic\n.*?)```",
                          readme.read_text(encoding="utf-8"), re.S).group(1)
        path = write_curve_file(tmp_path / "readme.curve", block)
        results = check_expectations(load_curve_file(path))
        assert len(results) == 5
        assert [(r.key, r.computed) for r in results if not r.ok] == []

    def test_tangent_declaration(self, tmp_path):
        path = tmp_path / "cusp.curve"
        path.write_text("name = c\nf = z*y^2 - x^3\n"
                        "sing = (0:0:1) A2 tangent=y\n")
        rec = load_curve_file(str(path))
        assert rec.sings[0].tangent == parse("y")

    def test_verification_failure(self, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text(BAD_DECLARATION)
        with pytest.raises(VerificationFailed):
            load_curve_file(str(path))

    @pytest.mark.parametrize("text", [
        "f = x^3 + y^3 + z^3\n",                       # missing name
        "name = a\n",                                  # missing f
        "name = a\nf = x^2 + y\n",                     # inhomogeneous
        "name = a\nf = x^3\nsing = (0:0) A1\n",        # bad point
        "name = a\nf = x^3\nsing = (0:0:1) Q7\n",      # unknown type
        "name = a\nf = x^3\njust a line\n",            # no key = value
    ] + [text for _, text in BAD_CURVE_FILES])
    def test_syntax_errors(self, tmp_path, text):
        path = write_curve_file(tmp_path / "syn.curve", text)
        with pytest.raises(CurveFileSyntax):
            load_curve_file(path)

    @pytest.mark.parametrize("field, text", BAD_CURVE_FILES)
    def test_syntax_error_names_the_field(self, tmp_path, field, text):
        path = write_curve_file(tmp_path / "syn.curve", text)
        with pytest.raises(CurveFileSyntax) as info:
            load_curve_file(path)
        assert str(info.value).startswith(field + ": ")

    def test_round_trip_against_catalog(self, tmp_path):
        # a file matching a catalog entry reproduces its invariants
        path = tmp_path / "tri.curve"
        path.write_text("name = tri\nf = x*y*z\nirreducible = false\n"
                        "components = 3\ngenera = 0,0,0\n"
                        "sing = (1:0:0) A1 ; (0:1:0) A1 ; (0:0:1) A1\n")
        rec = load_curve_file(str(path))
        assert tau(rec.f) == tau(lookup("triangle").f)
