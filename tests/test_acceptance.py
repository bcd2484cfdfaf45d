"""Acceptance suite: eleven end-to-end criteria, one test each.

Every expected number below is an exact integer or rational; no tolerances.
Each test exercises the library through its public API exactly as a user
would, on the worked examples the package is built around.
"""
import math
from fractions import Fraction

from syzcurve import (RelationViolated, alpha_curve, ar_dim, catalog, ct,
                      defect, dimension_obstruction, er_dim, freeness,
                      genus_sum_check, h0m_dim, h1_tangent, is_stable,
                      koszul_dim, kouchnirenko_mu, lookup, mdr, non_ts_family,
                      numerics, parse, partials, stability_sufficient, tau,
                      thom_sebastiani, torelli_cuspidal, torelli_nodal)

from conftest import koszul_rank


def test_criterion_01_zariski_sextic_threshold_tau_stability_discriminant():
    f = lookup("zariski_sextic").f
    assert [ar_dim(f, m) for m in range(3)] == [0, 0, 0]
    assert ar_dim(f, 3) >= 1
    assert tau(f) == 12
    assert is_stable(f) is True
    assert numerics(6, tau(f)).discriminant == -27


def test_criterion_02_nine_triple_point_nonic_threshold_and_tau():
    f = lookup("nine_d4_nonic").f
    assert [ar_dim(f, m) for m in range(4)] == [0, 0, 0, 0]
    assert ar_dim(f, 4) >= 1
    assert is_stable(f) is False
    assert tau(f) == 36


def test_criterion_03_triangle_full_profile():
    f = lookup("triangle").f
    assert tau(f) == 3
    assert mdr(f) == 1
    assert ct(f) == 2
    assert ar_dim(f, 1) == 2
    verdict = freeness(f)
    assert verdict.free is True and verdict.exponents == (1, 1)
    assert all(h1_tangent(f, k) == 0 for k in range(-3, 3 + 1))


def test_criterion_04_nodal_cubic_extremal_degrees_and_genus():
    rec = lookup("nodal_cubic")
    f, d = rec.f, rec.degree
    assert mdr(f) == 2 == 2 * d - 4
    assert ct(f) == 3 == 3 * (d - 2)
    assert is_stable(f) is True
    assert freeness(f).free is False
    gc = genus_sum_check(rec)
    assert (gc.h1, gc.genus_sum, gc.passed) == (0, 0, True)


def test_criterion_05_cuspidal_cubic_unstable_and_not_free():
    f = lookup("cuspidal_cubic").f
    assert ar_dim(f, 1) >= 1
    assert is_stable(f) is False
    assert freeness(f).free is False
    # no integer exponent pair can satisfy a+b = d-1 = 2 with
    # a*b = (d-1)^2 - tau = 2
    assert tau(f) == 2
    assert all(a * (2 - a) != 2 for a in range(3))


def test_criterion_06_free_line_arrangements_and_boundary():
    v6 = freeness(lookup("a1_arrangement").f)
    assert v6.free is True and v6.exponents == (2, 3) and v6.methods_agree
    v9 = freeness(lookup("dual_hesse").f)
    assert v9.free is True and v9.exponents == (4, 4) and v9.methods_agree
    assert stability_sufficient(9, Fraction(2, 3)) is False


def test_criterion_07_coordinate_product_plus_power_curves():
    for a, b in ((2, 2), (3, 3), (2, 4)):
        f = thom_sebastiani(a, b).f
        assert mdr(f) == 1, (a, b)
        assert freeness(f).free is False, (a, b)
        assert is_stable(f) is False, (a, b)


def test_criterion_08_monomial_plus_binomial_family():
    for a, b, c in ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3)):
        f = non_ts_family(a, b, c).f
        d = a + b + c
        assert mdr(f) == min(d - b, d - c), (a, b, c)
        assert h0m_dim(f, b + c) >= 1, (a, b, c)
    # Newton-boundary Milnor numbers of the germ at (1:0:0) when b = c,
    # including the b = c = d//2 boundary instances
    for d, b in ((6, 2), (6, 3), (7, 3), (8, 3), (8, 4)):
        boundary = [(0, d), (b, b), (d, 0)]
        assert kouchnirenko_mu(boundary, (d, d)) == 2 * d * (b - 1) + 1


def test_criterion_09_reconstruction_suite():
    for name, witness in (("one_node_quartic", 1), ("two_node_sextic", 2),
                          ("three_node_sextic", 2), ("collinear_octic", 3)):
        verdict = torelli_nodal(lookup(name))
        assert verdict.status == "torelli", name
        assert verdict.witness_degree == witness, name
    cusp = torelli_cuspidal(lookup("one_cusp_octic"))
    assert cusp.status == "torelli"
    assert torelli_nodal(lookup("nodal_cubic")).status == "criterion_fails"
    for (d, n, kappa), dims in (((3, 1, 0), (8, 5)), ((5, 10, 0), (10, 5)),
                                ((6, 0, 9), (9, 0))):
        ob = dimension_obstruction(d, n, kappa)
        assert (ob.family_dim, ob.bundle_family_dim) == dims
        assert ob.family_dim > ob.bundle_family_dim


def test_criterion_10_catalog_wide_identities():
    records = list(catalog())
    assert len(records) >= 15
    x, y, z = parse("x"), parse("y"), parse("z")
    failures = []

    def check(ok, rec, label):
        if not ok:
            failures.append("%s: %s" % (rec.name, label))

    for rec in records:
        f, d = rec.f, rec.degree
        fx, fy, fz = partials(f)
        check(x * fx + y * fy + z * fz == f * d, rec, "euler relation")
        # the eliminated Koszul span matches koszul_dim's closed formula,
        # and er must stay non-negative
        for m in range(0, d + 2):
            check(koszul_rank(f, m) == koszul_dim(f, m), rec,
                  "koszul rank vs formula at m=%d" % m)
            try:
                er_dim(f, m)
            except RelationViolated as e:
                check(False, rec, "er consistency: %s" % e)
        q = mdr(f)
        if q is not None:
            check(ct(f) == q + d - 2, rec, "ct = mdr + d - 2")
        if rec.sings:
            alpha = alpha_curve(rec.sings)
            bound = alpha * d - 2
            m = 0
            while Fraction(m) < bound:
                check(ar_dim(f, m) == 0, rec, "vanishing below alpha*d-2")
                m += 1
            check(Fraction(ct(f)) >= (alpha + 1) * d - 4, rec,
                  "ct lower bound")
            for k in range(math.ceil((2 - alpha) * d - 2), 3 * (d - 2) + 1):
                check(defect(f, k) == 0, rec, "defect vanishing bound")
        all_nodes = all(s.stype.kind == "A" and s.stype.params == (1,)
                        for s in rec.sings)
        if all_nodes:
            check(ar_dim(f, d - 2) == rec.components - 1, rec,
                  "nodal relation count at d-2")
            if rec.component_genera is not None:
                check(genus_sum_check(rec).passed, rec, "genus sum")
        verdict = freeness(f)
        check(verdict.methods_agree, rec, "freeness methods agree")
        if is_stable(f):
            check(not verdict.free, rec, "stable implies not free")
        t = tau(f)
        check(ar_dim(f, d - 2)
              == h1_tangent(f, d - 3) - ((d - 1) * (d - 2) // 2 - t),
              rec, "degree d-2 sequence identity")
        if d >= 4:
            check(ar_dim(f, d - 3)
                  == h1_tangent(f, d - 4) - (d * (d - 1) // 2 - t),
                  rec, "degree d-3 sequence identity")
    assert failures == []


def test_criterion_11_point_condition_defects():
    assert defect(lookup("six_node_sextic").f, 2) == 1
    triangle = lookup("triangle").f
    assert [defect(triangle, k) for k in range(4)] == [2, 0, 0, 0]
