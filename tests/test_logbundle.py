"""Logarithmic tangent bundle: Chern data, cohomology dimensions, stability,
freeness, and the genus-sum consistency check."""
from fractions import Fraction

import pytest

import syzcurve.logbundle
from syzcurve import (NotNodal, RelationViolated, ar_dim, dim_graded, freeness,
                      genus_sum_check, h0_tangent, h1_tangent, h2_tangent,
                      h0m_dim, is_stable, linear_change, mdr, numerics,
                      parse, stability_sufficient, tau)
from syzcurve.curvecat import catalog, lookup

F = Fraction


class TestNumerics:
    def test_triangle(self):
        n = numerics(3, 3)
        assert (n.c1, n.c2, n.chi, n.discriminant) == (0, 0, 2, 0)

    def test_zariski_discriminant(self):
        assert numerics(6, 12).discriminant == -27

    def test_discriminant_twist_independent(self):
        for k in (-2, 0, 1, 3):
            assert numerics(6, 12, k).discriminant == -27

    def test_twist_shifts_c1(self):
        base = numerics(5, 4)
        twisted = numerics(5, 4, 2)
        assert twisted.c1 == base.c1 + 4
        assert twisted.twist == 2

    def test_chi_euler_cohomology(self):
        # chi = h0 - h1 + h2 termwise on a sample of curves and twists
        for name in ("triangle", "nodal_cubic", "zariski_sextic",
                     "one_node_quartic"):
            rec = lookup(name)
            f, d = rec.f, rec.degree
            t = tau(f)
            for k in range(-3, d + 1):
                n = numerics(d, t, k)
                assert n.chi == (h0_tangent(f, k) - h1_tangent(f, k)
                                 + h2_tangent(f, k))


class TestCohomology:
    def test_h0_is_shifted_relation_space(self):
        f = lookup("triangle").f
        for k in range(-3, 4):
            expect = ar_dim(f, k + 1) if k + 1 >= 0 else 0
            assert h0_tangent(f, k) == expect

    def test_h1_window(self):
        f = lookup("nodal_cubic").f
        # h1(k) = defect-module dimension in degree d + k
        assert h1_tangent(f, -3) == h0m_dim(f, 0)
        assert h1_tangent(f, 1) == 0   # beyond the module support window

    def test_h1_free_curve_vanishes(self):
        f = lookup("dual_hesse").f
        for k in range(-3, 10):
            assert h1_tangent(f, k) == 0

    def test_h2_nonnegative_on_catalog_window(self):
        for rec in catalog():
            f, d = rec.f, rec.degree
            for k in range(-3, d + 1):
                assert h2_tangent(f, k) >= 0

    def test_h2_vanishes_at_genus_degree(self):
        for rec in catalog():
            assert h2_tangent(rec.f, rec.degree - 3) == 0


class TestStability:
    def test_fixtures(self):
        assert is_stable(lookup("fermat3").f)
        assert is_stable(lookup("zariski_sextic").f)
        assert not is_stable(lookup("triangle").f)
        assert not is_stable(lookup("cuspidal_cubic").f)

    def test_equivalent_to_low_degree_relation_vanishing(self):
        for name in ("fermat4", "nodal_cubic", "a1_arrangement",
                     "nine_d4_nonic"):
            f = lookup(name).f
            d = f.degree
            expected = all(ar_dim(f, m) == 0 for m in range((d - 1) // 2 + 1))
            assert is_stable(f) == expected

    def test_sufficient_criterion(self):
        # alpha = 5/6 at degree 6 clears the threshold
        assert stability_sufficient(6, F(5, 6))
        # alpha = 2/3 at degree 9 sits exactly on the boundary
        assert not stability_sufficient(9, F(2, 3))
        # alpha <= 1/2 never certifies
        assert not stability_sufficient(12, F(1, 2))

    def test_sufficient_implies_stable_on_catalog(self):
        from syzcurve import SmoothCurve, alpha_curve
        for rec in catalog():
            try:
                alpha = alpha_curve(rec.sings)
            except SmoothCurve:
                continue
            if stability_sufficient(rec.degree, alpha):
                assert is_stable(rec.f), rec.name

    def test_not_free_sufficient_boundary(self):
        # stability implies the bundle does not split, so the stability
        # criterion is also sufficient for non-freeness
        assert not stability_sufficient(9, F(2, 3))
        assert stability_sufficient(6, F(5, 6))


class TestFreeness:
    def test_free_fixtures(self):
        for name, exponents in (("triangle", (1, 1)),
                                ("a1_arrangement", (2, 3)),
                                ("dual_hesse", (4, 4))):
            v = freeness(lookup(name).f)
            assert v.free and v.exponents == exponents
            assert v.defect_module_vanishes and v.split_test
            assert v.methods_agree
            assert v.witness_degree is None

    def test_not_free_fixtures(self):
        for name in ("fermat3", "nodal_cubic", "cuspidal_cubic",
                     "zariski_sextic"):
            v = freeness(lookup(name).f)
            assert not v.free
            assert v.methods_agree

    def test_exponent_sum_and_product(self):
        for name in ("triangle", "a1_arrangement", "dual_hesse"):
            rec = lookup(name)
            d = rec.degree
            a, b = freeness(rec.f).exponents
            assert a + b == d - 1
            assert a * b == (d - 1) ** 2 - tau(rec.f)

    def test_free_relation_dims_split(self):
        # a free curve's relation module is generated in the two exponent
        # degrees: ar_dim(m) = dim S_{m-a} + dim S_{m-b}
        for name in ("triangle", "a1_arrangement", "dual_hesse"):
            rec = lookup(name)
            a, b = freeness(rec.f).exponents
            for m in range(0, rec.degree):
                assert ar_dim(rec.f, m) == dim_graded(m - a) + dim_graded(m - b)

    @pytest.mark.parametrize("name, wrong_tau, message", [
        ("triangle", 1, "degree 3: tau = 1, r = 1, bounds 2..3"),
        ("triangle", 4, "degree 3: tau = 4, r = 1, bounds 2..3"),
        ("nodal_cubic", 2, "degree 3: tau = 2, r = 2, bounds 0..1")])
    def test_tau_outside_du_plessis_wall_bounds(self, monkeypatch, name,
                                                wrong_tau, message):
        monkeypatch.setattr(syzcurve.logbundle, "tau", lambda f: wrong_tau)
        with pytest.raises(RelationViolated) as info:
            freeness(parse(str(lookup(name).f)))
        assert str(info.value) == ("du Plessis-Wall bounds fail at " + message)

    def test_du_plessis_wall_needs_mdr_capped(self):
        # one_node_quartic has mdr 4 > d - 1; uncapped, the bounds would be
        # -3..-2 and miss tau = 1
        f = lookup("one_node_quartic").f
        assert mdr(f) == 4 and tau(f) == 1
        assert not freeness(f).free

    def test_free_arrangement_in_general_coordinates(self):
        # x y z (x^2 - y^2)(y^2 - z^2) is free with exponents (3, 3); a
        # coordinate change moves every line off the coordinate axes and
        # keeps every invariant
        f = parse("x*y*z*(x^2 - y^2)*(y^2 - z^2)")
        g = linear_change(f, [[1, 2, 3], [0, 1, 5], [1, 0, 1]])
        assert g != f and g.degree == 7
        profiles = []
        for h in (f, g):
            v = freeness(h)
            profiles.append((tau(h), mdr(h), v.free, v.exponents,
                             [h0m_dim(h, k) for k in range(16)]))
        assert profiles[0] == profiles[1] == (27, 3, True, (3, 3), [0] * 16)

    def test_stable_never_free(self):
        for rec in catalog():
            if is_stable(rec.f):
                assert not freeness(rec.f).free, rec.name


class TestGenusCheck:
    def test_nodal_cubic(self):
        gc = genus_sum_check(lookup("nodal_cubic"))
        assert (gc.h1, gc.genus_sum) == (0, 0)
        assert gc.matches and gc.cross_check_ok and gc.passed

    def test_smooth_curves(self):
        gc = genus_sum_check(lookup("fermat4"))
        assert (gc.h1, gc.genus_sum, gc.passed) == (3, 3, True)

    def test_all_nodal_catalog_entries_pass(self):
        for rec in catalog():
            nodal = all(s.stype.kind == "A" and s.stype.params == (1,)
                        for s in rec.sings)
            if nodal and rec.component_genera is not None:
                assert genus_sum_check(rec).passed, rec.name

    def test_rejects_non_nodal(self):
        with pytest.raises(NotNodal):
            genus_sum_check(lookup("cuspidal_cubic"))

    def test_rejects_missing_genera(self):
        from syzcurve import CurveRecord, DeclaredSing, ProjPoint, SingType
        rec = CurveRecord("tmp", lookup("nodal_cubic").f, True, 1, None,
                          (DeclaredSing(SingType.A(1), ProjPoint(0, 0, 1)),))
        with pytest.raises(NotNodal):
            genus_sum_check(rec)
