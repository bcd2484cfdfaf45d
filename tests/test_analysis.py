"""Analysis reports: structure, serialization determinism, the torelli
dispatch with the dimension-obstruction upgrade, and the expectation
comparator."""
import json

import pytest

from syzcurve import (UnknownInvariant, ar_dim, build_report,
                      check_expectations, defect, h1_tangent, lookup,
                      milnor_dim, table_values, torelli_report)


class TestTableValues:
    def test_matches_direct_functions(self):
        f = lookup("nodal_cubic").f
        assert table_values(f, "ar", 0, 3) == [ar_dim(f, k) for k in range(4)]
        assert table_values(f, "milnor", 0, 3) == \
            [milnor_dim(f, k) for k in range(4)]
        assert table_values(f, "defect", 0, 2) == \
            [defect(f, k) for k in range(3)]
        assert table_values(f, "h1", -3, 1) == \
            [h1_tangent(f, k) for k in range(-3, 2)]

    def test_unknown_invariant(self):
        with pytest.raises(UnknownInvariant):
            table_values(lookup("triangle").f, "h3", 0, 1)


class TestReportStructure:
    def test_triangle_report(self):
        report = build_report(lookup("triangle"))
        data = report.data
        assert data["schema"] == 1
        assert data["curve"]["degree"] == 3
        assert data["invariants"] == {"tau": 3, "mdr": 1, "ct": 2,
                                      "alpha": "1"}
        assert data["freeness"]["free"] is True
        assert data["freeness"]["exponents"] == [1, 1]
        assert data["stability"]["stable"] is False
        assert data["tables"]["ar"]["start"] == 0
        assert data["tables"]["ar"]["values"] == [0, 2, 6, 12]
        assert data["tables"]["h1"]["start"] == -3
        assert data["tables"]["h1"]["values"] == [0] * 7
        assert data["genus_check"]["passed"] is True

    def test_smooth_report(self):
        data = build_report(lookup("fermat3")).data
        assert data["invariants"]["mdr"] is None
        assert data["invariants"]["ct"] is None
        assert data["invariants"]["alpha"] is None
        assert data["stability"]["sufficient_criterion_applies"] is None
        assert data["torelli"]["status"] == "not_applicable"

    def test_max_degree_caps_tables(self):
        data = build_report(lookup("two_node_sextic"), max_degree=2).data
        assert len(data["tables"]["ar"]["values"]) == 3       # 0..2
        assert len(data["tables"]["h0"]["values"]) == 6       # -3..2

    def test_json_round_trip_byte_identical(self):
        report = build_report(lookup("one_node_quartic"))
        text = report.to_json()
        again = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert again == text

    def test_rationals_serialized_as_strings(self):
        data = build_report(lookup("zariski_sextic")).data
        assert data["invariants"]["alpha"] == "5/6"
        json.dumps(data)   # everything must be JSON-clean


class TestTorelliDispatch:
    def test_obstruction_upgrade_on_stable_nodal_cubic(self):
        info = torelli_report(lookup("nodal_cubic"))
        assert info["criterion_status"] == "criterion_fails"
        assert info["status"] == "dimension_obstruction"
        assert info["obstruction"]["family_dim"] == 8
        assert info["obstruction"]["bundle_family_dim"] == 5

    def test_no_upgrade_without_stability(self):
        info = torelli_report(lookup("triangle"))
        assert info["status"] == "criterion_fails"
        assert info["obstruction"] is not None   # informational only

    def test_no_upgrade_when_unobstructed(self):
        info = torelli_report(lookup("six_node_sextic"))
        assert info["status"] == "criterion_fails"
        assert info["obstruction"] is None       # 21 <= 48

    def test_positive_verdict_passes_through(self):
        info = torelli_report(lookup("one_node_quartic"))
        assert info["status"] == "torelli"
        assert info["witness_degree"] == 1

    def test_out_of_scope_types(self):
        info = torelli_report(lookup("a1_arrangement"))
        assert info["applicable"] is False
        assert info["status"] == "not_applicable"


class TestExpectationComparator:
    def test_all_pass_on_sample(self):
        for name in ("triangle", "nodal_cubic", "one_node_quartic",
                     "family_2_2_2"):
            results = check_expectations(lookup(name))
            assert results, name
            assert all(r.ok for r in results), \
                [(r.key, r.expected, r.computed) for r in results if not r.ok]

    def test_detects_wrong_expectation(self):
        from syzcurve import CurveRecord
        base = lookup("triangle")
        wrong = CurveRecord("w", base.f, False, 3, (0, 0, 0), base.sings,
                            frozenset(), {"tau": 99})
        results = check_expectations(wrong)
        assert len(results) == 1
        assert not results[0].ok

    def test_unknown_key_reported_not_ok(self):
        from syzcurve import CurveRecord
        base = lookup("triangle")
        rec = CurveRecord("u", base.f, False, 3, (0, 0, 0), base.sings,
                          frozenset(), {"nonsense": 1})
        results = check_expectations(rec)
        assert len(results) == 1 and not results[0].ok

    def test_one_torelli_search_for_status_and_witness(self, monkeypatch):
        import syzcurve.analysis
        calls = []
        real = syzcurve.analysis._criterion
        monkeypatch.setattr(syzcurve.analysis, "_criterion",
                            lambda rec: calls.append(rec.name) or real(rec))
        rec = lookup("one_node_quartic")
        assert {"torelli_status", "torelli_witness"} <= set(rec.expected)
        assert all(r.ok for r in check_expectations(rec))
        assert calls == ["one_node_quartic"]

    @pytest.mark.parametrize("name", ["nine_d4_nonic", "zariski_sextic"])
    def test_certifies_before_the_relation_profile(self, name, monkeypatch):
        # f is certified reduced before any result is kept, so the
        # Jacobian ranks above T/2 behind ar_at and ar_profile are read off
        # the lower half whatever the key order: a cold run builds Jacobian
        # rows above T/2 only at T + 1, and returns its results in sorted
        # key order
        import dataclasses

        import syzcurve.syzygy
        from syzcurve import parse
        rec = lookup(name)
        rec = dataclasses.replace(rec, f=parse(str(rec.f)))
        top = 3 * (rec.degree - 2)
        built = []
        real = syzcurve.syzygy.jacobian_rows
        monkeypatch.setattr(syzcurve.syzygy, "jacobian_rows",
                            lambda g, t: built.append(t) or real(g, t))
        results = check_expectations(rec)
        assert all(r.ok for r in results)
        assert [r.key for r in results] == sorted(rec.expected)
        assert [t for t in built if 2 * t > top] == [top + 1]
