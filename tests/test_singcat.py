"""Singularity types: exponents, local invariants, declaration verification,
and the Newton-polygon Milnor number."""
from fractions import Fraction

import pytest

from syzcurve import (DeclaredSing, NonConvenient, ProjPoint, SingType,
                      SmoothCurve, alpha_curve, arnold_exponent,
                      kouchnirenko_mu, local_numbers, parse, verify_declared)

F = Fraction


class TestSingType:
    def test_validation(self):
        with pytest.raises(ValueError):
            SingType.A(0)
        with pytest.raises(ValueError):
            SingType.E(5)
        with pytest.raises(ValueError):
            SingType.ordinary(2)   # an ordinary double point is A1
        with pytest.raises(ValueError):
            SingType.weighted(F(1), F(2))   # weights must lie in (0, 1)

    def test_str(self):
        assert str(SingType.A(1)) == "A1"
        assert str(SingType.D(4)) == "D4"
        assert str(SingType.ordinary(5)) == "ORD5"

    def test_tangent_requires_point(self):
        with pytest.raises(ValueError):
            DeclaredSing(SingType.A(2), None, tangent=parse("x"))
        with pytest.raises(ValueError):
            DeclaredSing(SingType.A(2), ProjPoint(0, 0, 1),
                         tangent=parse("x^2"))


class TestExponents:
    def test_ade(self):
        assert arnold_exponent(SingType.A(1)) == 1
        assert arnold_exponent(SingType.A(2)) == F(5, 6)
        assert arnold_exponent(SingType.A(3)) == F(3, 4)
        assert arnold_exponent(SingType.D(4)) == F(2, 3)
        assert arnold_exponent(SingType.E(6)) == F(7, 12)
        assert arnold_exponent(SingType.E(7)) == F(5, 9)
        assert arnold_exponent(SingType.E(8)) == F(8, 15)

    def test_ordinary_and_weighted(self):
        assert arnold_exponent(SingType.ordinary(4)) == F(1, 2)
        assert arnold_exponent(SingType.weighted(F(1, 3), F(1, 4))) == F(7, 12)
        assert arnold_exponent(SingType.T(5, 5)) == F(1, 2)

    def test_consistency_ordinary_triple_is_d4(self):
        assert arnold_exponent(SingType.ordinary(3)) == \
            arnold_exponent(SingType.D(4))


class TestLocalNumbers:
    def test_ade(self):
        assert local_numbers(SingType.A(1)) == (1, 1)
        assert local_numbers(SingType.A(2)) == (2, 2)
        assert local_numbers(SingType.D(4)) == (4, 4)
        assert local_numbers(SingType.E(8)) == (8, 8)

    def test_ordinary(self):
        assert local_numbers(SingType.ordinary(3)) == (4, 4)
        assert local_numbers(SingType.ordinary(4)) == (9, 9)

    def test_weighted(self):
        # mu = tau = (1/w1 - 1)(1/w2 - 1) for weighted-homogeneous germs
        assert local_numbers(SingType.weighted(F(1, 3), F(1, 4))) == (6, 6)
        # non-integer local Milnor number is rejected at construction
        with pytest.raises(ValueError):
            SingType.weighted(F(2, 5), F(1, 2))

    def test_t_family(self):
        assert local_numbers(SingType.T(6, 6)) == (13, 12)


class TestAlpha:
    def test_minimum(self):
        sings = (DeclaredSing(SingType.A(1), ProjPoint(1, 0, 0)),
                 DeclaredSing(SingType.D(4)),
                 DeclaredSing(SingType.A(2)))
        assert alpha_curve(sings) == F(2, 3)

    def test_smooth_raises(self):
        with pytest.raises(SmoothCurve):
            alpha_curve(())


class TestVerifyDeclared:
    def test_nodal_cubic_passes(self):
        f = parse("y^2*z - x^2*(x + z)")
        report = verify_declared(
            f, [DeclaredSing(SingType.A(1), ProjPoint(0, 0, 1))])
        assert report.passed
        assert report.failures() == []

    def test_wrong_point_fails(self):
        f = parse("y^2*z - x^2*(x + z)")
        report = verify_declared(
            f, [DeclaredSing(SingType.A(1), ProjPoint(1, 1, 1))])
        assert not report.passed
        assert any("gradient" in c.name for c in report.failures())

    def test_wrong_type_fails_tjurina_sum(self):
        f = parse("y^2*z - x^2*(x + z)")
        report = verify_declared(
            f, [DeclaredSing(SingType.A(2), ProjPoint(0, 0, 1),
                             tangent=parse("y"))])
        assert not report.passed

    def test_tangent_incidence_checked(self):
        f = parse("z*y^2 - x^3")
        good = verify_declared(
            f, [DeclaredSing(SingType.A(2), ProjPoint(0, 0, 1),
                             tangent=parse("y"))])
        assert good.passed
        # z does not vanish at (0:0:1), so the incidence check must fail
        bad = verify_declared(
            f, [DeclaredSing(SingType.A(2), ProjPoint(0, 0, 1),
                             tangent=parse("z"))])
        assert not bad.passed
        assert any("tangent" in c.name for c in bad.failures())

    def test_pointless_declarations_count_tjurina(self):
        f = parse("(x^2 + y^2)^3 + (y^3 + z^3)^2")
        report = verify_declared(f, [DeclaredSing(SingType.A(2))
                                     for _ in range(6)])
        assert report.passed
        short = verify_declared(f, [DeclaredSing(SingType.A(2))
                                    for _ in range(5)])
        assert not short.passed

    def test_complete_empty_declaration_claims_smooth(self):
        assert verify_declared(parse("x^3 + y^3 + z^3"), [],
                               complete=True).passed
        report = verify_declared(parse("x*y*z"), [], complete=True)
        assert not report.passed
        assert [c.name for c in report.failures()] == ["tjurina total"]
        assert "declared 0, computed 3" in report.failures()[0].detail
        # without `complete` an empty declaration claims nothing
        assert verify_declared(parse("x*y*z"), []).passed


class TestKouchnirenko:
    def test_cusp(self):
        assert kouchnirenko_mu([(0, 2), (3, 0)], (3, 2)) == 2

    def test_node(self):
        assert kouchnirenko_mu([(0, 2), (1, 1), (2, 0)], (2, 2)) == 1

    def test_t_family_germ(self):
        # germ y^2 z^2 + y^d + z^d has mu = 2d + 1
        for d in (5, 6, 8):
            assert kouchnirenko_mu([(0, d), (2, 2), (d, 0)], (d, d)) == 2 * d + 1

    def test_family_formula(self):
        # boundary [(0,d),(b,b),(d,0)] gives mu = 2d(b-1)+1
        for d, b in ((6, 2), (6, 3), (7, 3), (8, 3), (8, 4)):
            assert kouchnirenko_mu([(0, d), (b, b), (d, 0)], (d, d)) == \
                2 * d * (b - 1) + 1

    def test_non_convenient_rejected(self):
        with pytest.raises(NonConvenient):
            kouchnirenko_mu([(1, 1)], (2, 2))
