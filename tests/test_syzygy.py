"""Graded syzygy invariants of the Jacobian ideal: relation modules, the
minimal relation degree, coincidence threshold, Tjurina number, saturation,
and defect dimensions."""
import dataclasses
import functools
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import syzcurve.exactlin
import syzcurve.syzygy
from syzcurve import (CurveRecord, NotReduced, QMatrix, RelationViolated,
                      ar_basis, ar_dim, build_report, catalog, ct, defect,
                      dim_graded, er_dim, freeness, gcd_many,
                      gradient_matrix, h0m_dim, jacobian_dim, kernel_basis,
                      koszul_dim, linear_change, mdr, milnor_dim, mono_basis,
                      parse, rank, sat_basis, saturation_dim, table_values,
                      tau)
from syzcurve.curvecat import lookup, non_ts_family, thom_sebastiani
from syzcurve.ring3 import (Mono, SingularMatrix, _basis_index, mult_matrix,
                            partials)
from syzcurve.syzygy import (_colon_matrix, _jac_left_kernel, _rank_mod_p,
                             _results, jacobian_rows)

from conftest import (LADDER_LINES, MIRROR_CURVES, coeffs,
                      direct_jacobian_dim, hpolys, koszul_rank, line_product,
                      mirror_curve, same_span, smooth_milnor_dim)

TRIANGLE = parse("x*y*z")
FERMAT3 = parse("x^3 + y^3 + z^3")
NODAL = parse("y^2*z - x^2*(x + z)")
CUSP = parse("z*y^2 - x^3")
C222 = non_ts_family(2, 2, 2).f


class TestJacobianDim:
    def test_fermat3_values(self):
        # partials x^2, y^2, z^2: degree-3 piece misses only x*y*z
        assert jacobian_dim(FERMAT3, 2) == 3
        assert jacobian_dim(FERMAT3, 3) == 9
        assert jacobian_dim(FERMAT3, 1) == 0

    def test_gradient_matrix_shape(self):
        m = gradient_matrix(FERMAT3, 1)
        assert (m.rows, m.cols) == (dim_graded(3), 9)

    def test_milnor_complements_jacobian(self):
        for k in range(0, 6):
            assert milnor_dim(FERMAT3, k) == dim_graded(k) - jacobian_dim(
                FERMAT3, k)


def reference_gradient_matrix(f, m):
    """The matrix of (a, b, c) -> a f_x + b f_y + c f_z from degree-m
    triples, as the three Fraction mult_matrix blocks side by side: a
    reference that shares no code with ring3.product_rows."""
    blocks = [mult_matrix(g, m) for g in partials(f)]
    nrows = dim_graded(m + f.degree - 1)
    flat = []
    for i in range(nrows):
        for b in blocks:
            flat.extend(b.row(i))
    return QMatrix(nrows, sum(b.cols for b in blocks), flat)


def check_against_gradient_matrix(f):
    """jacobian_rows(f, t) against every generator column of the reference
    gradient matrix at m, t = m + d - 1, for t up to 3(d-2) + 2: equal
    rank, equal kernel, and no more rows left out than the Koszul closed
    form 3 dim S_{m-d+1} - dim S_{m-2d+2}.  gradient_matrix(f, m) has the
    reference's kernel, the one ar_basis reads.  Returns the numbers of
    rows left out, by m."""
    d = f.degree
    nonzero = sum(not g.is_zero() for g in partials(f))
    dropped = []
    for m in range(0, 3 * (d - 2) + 2 - (d - 1) + 1):
        rows = jacobian_rows(f, m + d - 1)
        full = reference_gradient_matrix(f, m)
        assert rank(rows) == rank(full)
        assert same_span(kernel_basis(rows), kernel_basis(full.transpose()))
        assert same_span(kernel_basis(gradient_matrix(f, m)),
                         kernel_basis(full))
        left_out = nonzero * dim_graded(m) - rows.rows
        assert 0 <= left_out <= (3 * dim_graded(m - d + 1)
                                 - dim_graded(m - 2 * d + 2))
        dropped.append(left_out)
    return dropped


class TestJacobianRows:
    """The Koszul-pruned generator rows span the same Jacobian ideal piece
    as the full gradient matrix; ranks and left kernels come out equal."""

    @given(hpolys(min_degree=2, max_degree=6))
    @settings(max_examples=25, deadline=None)
    def test_random_reduced_curves(self, f):
        assume(gcd_many(partials(f)).degree == 0)
        check_against_gradient_matrix(f)

    @pytest.mark.parametrize("text", ["x*y*(x - y)", "y*z*(y - z)"])
    def test_zero_partial_prunes_nothing(self, text):
        f = parse(text)
        assert any(g.is_zero() for g in partials(f))
        check_against_gradient_matrix(f)
        # the first nonzero partial's leading monomial (x*y, y*z) prunes one
        # row of the second at m = 2; the zero partial prunes nothing
        assert jacobian_rows(f, 4).rows == 2 * dim_graded(2) - 1

    def test_fraction_coefficients(self):
        f = parse("1/2*x^4 - 2/3*x^2*y*z + 5/7*y^4 + 1/5*z^4 + x*y^3")
        check_against_gradient_matrix(f)

    def test_fermat4_coprime_leads_reach_the_bound(self):
        f = lookup("fermat4").f
        d = f.degree
        assert check_against_gradient_matrix(f) == [
            3 * dim_graded(m - d + 1) - dim_graded(m - 2 * d + 2)
            for m in range(0, 3 * (d - 2) + 2 - (d - 1) + 1)]

    def test_collinear_octic(self):
        dropped = check_against_gradient_matrix(lookup("collinear_octic").f)
        assert dropped[-1] > 0

    def test_ideal_pieces_need_no_gradient_matrix(self, monkeypatch):
        def refuse(f, m):
            raise AssertionError("gradient_matrix(%s, %d) built" % (f, m))
        monkeypatch.setattr(syzcurve.syzygy, "gradient_matrix", refuse)
        rec = lookup("one_node_quartic")
        f = parse(str(rec.f))
        assert tau(f) == rec.expected["tau"]
        assert mdr(f) == rec.expected["mdr"]
        assert (tuple(h0m_dim(f, k) for k in range(7))
                == rec.expected["h0m_profile"])


class TestRelations:
    def test_triangle_relations(self):
        assert ar_dim(TRIANGLE, 0) == 0
        assert ar_dim(TRIANGLE, 1) == 2

    def test_ar_basis_members_are_relations(self):
        for f in (TRIANGLE, NODAL, C222):
            fx, fy, fz = partials(f)
            for m in range(0, 5):
                basis = ar_basis(f, m)
                assert len(basis) == ar_dim(f, m)
                for a, b, c in basis:
                    assert (a * fx + b * fy + c * fz).is_zero()

    def test_koszul_formula_consistency(self):
        # koszul_dim's closed formula against an elimination of the span
        curves = [TRIANGLE, FERMAT3, NODAL, CUSP, C222]
        curves += [rec.f for rec in catalog() if rec.degree <= 8]
        for f in curves:
            for m in range(0, 2 * f.degree + 1):
                assert koszul_rank(f, m) == koszul_dim(f, m), (str(f), m)

    def test_er_nonnegative_and_smooth_trivial(self):
        for m in range(0, 7):
            assert er_dim(FERMAT3, m) == 0
        assert er_dim(TRIANGLE, 1) == 2

    @given(hpolys(degree=3))
    @settings(max_examples=15, deadline=None)
    def test_ar_contains_koszul(self, f):
        assume(gcd_many(partials(f)).degree == 0)
        for m in range(0, 5):
            assert ar_dim(f, m) >= koszul_dim(f, m) == koszul_rank(f, m)


class TestScalarInvariants:
    def test_triangle(self):
        assert tau(TRIANGLE) == 3
        assert mdr(TRIANGLE) == 1
        assert ct(TRIANGLE) == 2

    def test_smooth(self):
        assert tau(FERMAT3) == 0
        assert mdr(FERMAT3) is None
        with pytest.raises(ValueError):
            ct(FERMAT3)

    def test_nodal_cubic(self):
        assert tau(NODAL) == 1
        assert mdr(NODAL) == 2
        assert ct(NODAL) == 3

    def test_ct_mdr_relation(self):
        for f in (TRIANGLE, NODAL, CUSP, C222):
            assert ct(f) == mdr(f) + f.degree - 2

    @pytest.mark.parametrize(
        "name", [rec.name for rec in catalog() if rec.sings])
    def test_ct_is_the_last_degree_agreeing_with_smooth(self, name):
        # the definition of ct, scanned with direct Jacobian ranks on a
        # fresh copy: the first degree where the Milnor algebra differs
        # from a smooth one, minus 1
        f = parse(str(lookup(name).f))
        d = f.degree
        first = next(k for k in range(3 * (d - 2) + 2)
                     if dim_graded(k) - direct_jacobian_dim(f, k)
                     != smooth_milnor_dim(d, k))
        assert ct(f) == first - 1

    @pytest.mark.parametrize(
        "rec", list(catalog()) + [thom_sebastiani(1, 4),
                                  non_ts_family(2, 2, 3),
                                  non_ts_family(3, 2, 3)],
        ids=lambda rec: rec.name)
    def test_milnor_minus_smooth_is_er(self, rec):
        # the identity behind ct: the partials of a smooth curve have only
        # the trivial relations, so the Milnor algebras differ by er
        f = rec.f
        d = f.degree
        for k in range(3 * (d - 2) + 4):
            assert (milnor_dim(f, k) - smooth_milnor_dim(d, k)
                    == er_dim(f, k - d + 1)), k

    def test_smooth_milnor_symmetric(self):
        dims = [smooth_milnor_dim(3, k) for k in range(4)]
        assert dims == [1, 3, 3, 1]
        assert smooth_milnor_dim(3, 4) == 0
        dims4 = [smooth_milnor_dim(4, k) for k in range(7)]
        assert dims4 == dims4[::-1]

    def test_tau_invariant_under_coordinate_change(self):
        from syzcurve import linear_change
        m = [[1, 1, 0], [0, 1, 2], [1, 0, 1]]
        assert tau(linear_change(NODAL, m)) == 1
        assert tau(linear_change(TRIANGLE, m)) == 3


class TestCoordinateInvariance:
    """tau, mdr and the h0m row over 0..T are projective invariants of a
    reduced curve: a random invertible coordinate change keeps them."""

    @given(hpolys(min_degree=2, max_degree=5),
           st.lists(coeffs, min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_random_reduced_curves(self, f, entries):
        assume(gcd_many(partials(f)).degree == 0)
        try:
            g = linear_change(f, [entries[0:3], entries[3:6], entries[6:]])
        except SingularMatrix:
            assume(False)
        top = 3 * (f.degree - 2)

        def profile(h):
            return tau(h), mdr(h), [h0m_dim(h, k) for k in range(top + 1)]

        assert profile(g) == profile(f)


class TestDegreeBelowTwo:
    @pytest.mark.parametrize("text", ["x", "x + y"])
    def test_rejected_naming_the_degree(self, text):
        f = parse(text)
        for invariant in (tau, mdr, ct):
            with pytest.raises(ValueError, match="got degree 1"):
                invariant(f)
        rec = CurveRecord(text, f, True, 1, None, ())
        with pytest.raises(ValueError, match="got degree 1"):
            build_report(rec)


def milnor_tail(f):
    """The Milnor algebra dimension at T, T + 1 and T + 2, T = 3(d - 2),
    from direct ranks of the Jacobian pieces of f."""
    t = 3 * (f.degree - 2)
    return [dim_graded(k) - direct_jacobian_dim(f, k)
            for k in (t, t + 1, t + 2)]


class TestTauFromOneDegree:
    """tau reads milnor_dim at T + 1 only.  The theorem behind that, that
    a reduced curve's Milnor algebra has dimension tau in every degree from
    T = 3(d - 2) on (a smooth curve's: 1, 0, 0), is checked here with the
    ranks at T, T + 1 and T + 2."""

    @staticmethod
    def check(f):
        t = tau(parse(str(f)))
        assert milnor_tail(f) == ([1, 0, 0] if t == 0 else [t, t, t])
        return t

    @pytest.mark.parametrize("name", [rec.name for rec in catalog()])
    def test_catalog(self, name):
        rec = lookup(name)
        assert self.check(rec.f) == rec.expected["tau"]

    def test_ladder_septic(self):
        assert self.check(line_product(LADDER_LINES[:7])) > 0

    @given(hpolys(min_degree=2, max_degree=6))
    @settings(max_examples=25, deadline=None)
    def test_random_reduced_curves(self, f):
        assume(gcd_many(partials(f)).degree == 0)
        self.check(f)


class TestNotReduced:
    # the factor named is the product of the repeated components
    @pytest.mark.parametrize("text, factor", [
        ("x^2*y", "x"), ("x^3", "x"),
        ("(x^2 + y^2 + z^2)^2*(x + y + z)^3*y",
         str(parse("(x^2 + y^2 + z^2)*(x + y + z)")))])
    def test_probe_raises_naming_degree_and_factor(self, text, factor):
        f = parse(text)
        start = time.perf_counter()
        with pytest.raises(NotReduced) as info:
            tau(f)
        assert time.perf_counter() - start < 1
        assert str(info.value).startswith("curve of degree %d " % f.degree)
        assert str(info.value).endswith("repeats the factor %s" % factor)
        # the Koszul dimension behind mdr needs a reduced curve too
        with pytest.raises(NotReduced) as again:
            mdr(parse(text))
        assert str(again.value) == str(info.value)

    def test_mdr_certifies_before_any_jacobian_rows(self, monkeypatch):
        built = []
        real = syzcurve.syzygy.jacobian_rows
        monkeypatch.setattr(syzcurve.syzygy, "jacobian_rows",
                            lambda f, t: built.append(t) or real(f, t))
        with pytest.raises(NotReduced, match="repeats the factor x$"):
            mdr(parse("x^2*y"))
        assert built == []

    def test_every_invariant_refuses_non_reduced_input(self):
        # _results certifies f before anything is kept, so every degree
        # raises: the lower half, the self-dual upper half and past T
        f = parse("x^2*y*z")
        top = 3 * (f.degree - 2)
        funcs = (jacobian_dim, milnor_dim, ar_dim, er_dim, koszul_dim,
                 saturation_dim, sat_basis, ar_basis, h0m_dim, defect)
        for _ in range(2):
            for func in funcs:
                for k in (0, top // 2 + 1, top + 1):
                    with pytest.raises(NotReduced,
                                       match="repeats the factor x$"):
                        func(f, k)
            # nothing is kept, so the next call certifies and raises again
            assert f._results is None

    def test_vanishing_pencil_member_is_skipped(self):
        # f_y + 7 f_z vanishes, so the gcd runs on f_x + 3 f_z and f_z
        f = parse("x^3 - (7*y - z)^3")
        fx, fy, fz = partials(f)
        assert (fy + fz * 7).is_zero()
        assert tau(f) == 4

    def test_first_pair_sharing_a_factor_still_certifies(self):
        # ts_2_3 after z <- z - 3x - 7y: f_x + 3 f_z and f_y + 7 f_z share
        # x y^2, and f_z finishes the gcd; the values are ts_2_3's
        f = parse("x^2*y^3 + (z - 3*x - 7*y)^5")
        fx, fy, fz = partials(f)
        assert gcd_many((fx + fz * 3, fy + fz * 7)) == parse("x*y^2")
        g = parse("x^2*y^3 + z^5")
        top = 3 * (f.degree - 2)
        assert (tau(f), mdr(f)) == (tau(g), mdr(g)) == (12, 1)
        assert ([h0m_dim(f, k) for k in range(top + 1)]
                == [h0m_dim(g, k) for k in range(top + 1)]
                == [0, 0, 0, 1, 1, 1, 1, 0, 0, 0])

    def test_certificate_is_kept_on_the_polynomial(self, monkeypatch):
        f = parse("y^2*z - x^2*(x + z)")
        assert tau(f) == 1

        def refuse(polys, t):
            raise AssertionError("product_rows(%s, %d) built" % (polys, t))
        monkeypatch.setattr(syzcurve.polygcd, "product_rows", refuse)
        assert tau(f) == 1


def sat_dim_iterative(f, k, plateau=2):
    """Saturation dimension via the increasing union over N of
    {g : g * (every degree-N monomial) lies in the ideal}.

    Stops when `plateau` + 1 consecutive N give equal dimension or when N
    reaches the provable cutoff.  A cross-check for the direct computation
    in sat_basis; the plateau rule alone can stop too early on curves whose
    saturation fills in only at high N.
    """
    d = f.degree
    cutoff = max(1, 3 * (d - 2) + 1 - k)
    nk = dim_graded(k)
    dims = []
    for n in range(1, cutoff + 1):
        t = k + n
        lker = _jac_left_kernel(f, t)
        if not lker:
            dims.append(nk)
        else:
            rows = []
            idx = _basis_index(t)
            for u in mono_basis(n):
                shift = []
                for mm in mono_basis(k):
                    shift.append(idx[Mono(mm.ex + u.ex, mm.ey + u.ey, mm.ez + u.ez)])
                for l in lker:
                    rows.append([l[s] for s in shift])
            dims.append(nk - rank(QMatrix.from_rows(rows)))
        if len(dims) > plateau and all(v == dims[-1] for v in dims[-plateau - 1:]):
            break
    return dims[-1]


class TestSaturation:
    def test_triangle_saturation_is_node_ideal(self):
        # saturation = ideal of the three coordinate points
        assert saturation_dim(TRIANGLE, 0) == 0
        assert saturation_dim(TRIANGLE, 1) == 0
        assert saturation_dim(TRIANGLE, 2) == 3   # xy, xz, yz
        assert saturation_dim(TRIANGLE, 3) == 7   # 10 - 3 point conditions

    def test_sat_basis_members(self):
        basis = sat_basis(TRIANGLE, 2)
        assert len(basis) == 3
        # every member must vanish at the three nodes
        from syzcurve import ProjPoint
        from syzcurve.ring3 import eval_at
        pts = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)]
        for g in basis:
            assert all(eval_at(g, p) == 0 for p in pts)

    def test_stabilized_tail_matches_jacobian(self):
        # above degree 3(d-2) the saturation adds nothing
        for f in (TRIANGLE, NODAL, C222):
            top = 3 * (f.degree - 2)
            for k in (top + 1, top + 2):
                assert h0m_dim(f, k) == 0

    def test_c222_certified_value(self):
        # the plateau heuristic undercounts here (it would report 0)
        assert h0m_dim(C222, 4) == 3

    def test_iterative_cross_check_where_exact(self):
        for f, ks in ((NODAL, range(0, 4)), (TRIANGLE, range(0, 4))):
            for k in ks:
                assert sat_dim_iterative(f, k) == saturation_dim(f, k)

    def test_defect_triangle(self):
        assert [defect(TRIANGLE, k) for k in range(4)] == [2, 0, 0, 0]

    def test_defect_nonnegative(self):
        for f in (TRIANGLE, NODAL, CUSP, C222):
            for k in range(0, 3 * (f.degree - 2) + 1):
                assert defect(f, k) >= 0


SELF_DUAL_CURVES = ([rec.name for rec in catalog() if rec.degree <= 8]
                    + ["ladder_septic"])


def self_dual_curve(name):
    if name == "ladder_septic":
        return line_product(LADDER_LINES[:7])
    return lookup(name).f


@functools.cache
def direct_rows(name):
    """h0m and defect over 0..T, T = 3(d - 2), every degree from its own
    saturation kernel (sat_basis) and Jacobian rank (direct_jacobian_dim),
    on a freshly parsed copy: h0m = sat - rank and defect = tau - (dim S_k
    - sat)."""
    g = parse(str(self_dual_curve(name)))
    sat = [len(sat_basis(g, k)) for k in range(3 * (g.degree - 2) + 1)]
    t = tau(g)
    return (tuple(s - direct_jacobian_dim(g, k) for k, s in enumerate(sat)),
            tuple(t - (dim_graded(k) - s) for k, s in enumerate(sat)))


def regularity_index(name):
    """The least k <= T with defect 0, that is with dim S_k - sat = tau,
    from the direct rows; None when there is none."""
    return next((k for k, v in enumerate(direct_rows(name)[1]) if v == 0),
                None)


def middle_out_freeness(name):
    """The freeness scan over the whole window 0..T, middle-out, on direct
    h0m values: (free, exponents, witness_degree)."""
    row = direct_rows(name)[0]
    top = len(row) - 1
    witness = next((k for k in sorted(range(top + 1),
                                      key=lambda k: (abs(2 * k - top), k))
                    if row[k]), None)
    f = self_dual_curve(name)
    r = mdr(f)
    free = witness is None
    exponents = (r, f.degree - 1 - r) if free and r is not None else None
    return free, exponents, witness


class TestSelfDuality:
    """The defect module sat(J)/J is self-dual about T/2, T = 3(d - 2)
    (Sernesi 2014): h0m(k) == h0m(T - k) for 0 <= k <= T.  h0m_dim reads
    the upper half off the lower one, so both sides are computed directly
    here, and h0m_dim must give the same row.  defect reaches the same
    mirror through tau - milnor_dim + h0m_dim and must match its direct
    row too."""

    @staticmethod
    def check(name):
        row, defects = direct_rows(name)
        assert row == row[::-1]
        f = self_dual_curve(name)
        assert tuple(h0m_dim(f, k) for k in range(len(row))) == row
        assert tuple(defect(f, k) for k in range(len(row))) == defects
        return row

    @pytest.mark.parametrize(
        "name", [rec.name for rec in catalog() if rec.degree <= 8])
    def test_catalog(self, name):
        self.check(name)

    def test_ladder_septic(self):
        assert sum(self.check("ladder_septic")) > 0

    @pytest.mark.parametrize("name", SELF_DUAL_CURVES)
    def test_mdr_from_the_regularity_index(self, name):
        # er_dim(f, q) = defect(f, 2d - 5 - q) (Dimca 2013), and the defect
        # is tau below degree 0, stays nonzero below the regularity index
        # k* and vanishes from k* on: so mdr = 2d - 4 - k* when tau > 0,
        # k* from the direct rows, and a smooth curve has no essential
        # relation at all
        f = self_dual_curve(name)
        if tau(f) == 0:
            assert mdr(f) is None
        else:
            assert mdr(f) == 2 * f.degree - 4 - regularity_index(name)

    @pytest.mark.parametrize("name", SELF_DUAL_CURVES)
    def test_no_saturation_kernel_above_the_middle(self, name, monkeypatch):
        # nor any colon matrix from the regularity index k* = 2d - 4 - mdr
        # on, once mdr is kept: the saturation dimensions there are
        # dim S_k - tau.  A smooth curve, mdr None, reads k* as 2d - 4
        f = parse(str(self_dual_curve(name)))
        k0 = 2 * f.degree - 4 - (mdr(f) or 0)
        seen = {"_colon_matrix": [], "sat_basis": []}
        for path, ks in seen.items():
            def spy(g, k, ks=ks, real=getattr(syzcurve.syzygy, path)):
                ks.append(k)
                return real(g, k)
            monkeypatch.setattr(syzcurve.syzygy, path, spy)
        freeness(f)
        table_values(f, "h1", -3, f.degree)
        assert all(k < k0 for ks in seen.values() for k in ks)

    @pytest.mark.parametrize("name", SELF_DUAL_CURVES)
    def test_half_scan_matches_full_middle_out_scan(self, name):
        v = freeness(parse(str(self_dual_curve(name))))
        assert ((v.free, v.exponents, v.witness_degree)
                == middle_out_freeness(name))


def mirror_record(name):
    """A record of a freshly parsed copy of mirror_curve(name), for
    build_report; the arrangements outside the catalog declare nothing."""
    f = parse(str(mirror_curve(name)))
    if name.startswith("ladder_") or name == "free_nonic":
        return CurveRecord(name, f, False, f.degree, None, ())
    rec = thom_sebastiani(1, 7) if name == "ts_1_7" else lookup(name)
    return dataclasses.replace(rec, f=f)


@functools.cache
def shared_copy(name):
    """A freshly parsed copy of mirror_curve(name), with tau computed,
    shared by the tests that compare its values with direct ones."""
    g = parse(str(mirror_curve(name)))
    tau(g)
    return g


# the degrees above T/2 at which a cold report builds Jacobian rows: only
# T + 1, for tau, whatever the regularity index
UPPER_ROWS = [("two_conics", [7]), ("zariski_sextic", [13]),
              ("family_2_2_2", [13]), ("ladder_7", [16]),
              ("free_nonic", [22]), ("ts_2_3", [10]), ("ts_1_7", [19])]


class TestUpperHalfFromLowerHalf:
    """For a reduced curve the essential relations of degree q count the
    defect of the singular scheme in degree 2d - 5 - q (Dimca 2013):
    er_dim(f, q) = defect(f, 2d - 5 - q).  So every Jacobian rank at
    t > T/2 is 3 dim S_q - koszul_dim(f, q) - defect(f, T - t) with
    q = t - d + 1, the defect being tau above T, and no rank at t is
    taken.  Once the singular scheme imposes tau conditions from some k*
    on (Eisenbud, The Geometry of Syzygies, ch. 4), every saturation
    dimension from k* on is dim S_k - tau.  Both are checked against
    direct eliminations."""

    @pytest.mark.parametrize("name", MIRROR_CURVES)
    def test_mirrored_ranks_match_direct(self, name):
        f = mirror_curve(name)
        g = shared_copy(name)
        top = 3 * (g.degree - 2)
        degrees = range(top // 2 + 1, max(top + 2, 2 * g.degree) + 1)
        assert ([jacobian_dim(g, t) for t in degrees]
                == [direct_jacobian_dim(f, t) for t in degrees])

    @pytest.mark.parametrize("name, upper", UPPER_ROWS,
                             ids=[name for name, _ in UPPER_ROWS])
    def test_report_builds_jacobian_rows_above_the_middle_only_at_t_plus_1(
            self, name, upper, monkeypatch):
        rec = mirror_record(name)
        f = rec.f
        top = 3 * (f.degree - 2)
        built = []
        real = syzcurve.syzygy.jacobian_rows
        monkeypatch.setattr(syzcurve.syzygy, "jacobian_rows",
                            lambda g, t: built.append(t) or real(g, t))
        build_report(rec)
        assert [t for t in built if 2 * t > top] == upper == [top + 1]

    @pytest.mark.parametrize("name, values", [
        ("free_nonic", (49, 3, True, (3, 5), (0,) * 22)),
        ("ts_2_3", (12, 1, False, None, (0, 0, 0, 1, 1, 1, 1, 0, 0, 0)))])
    def test_regularity_index_above_the_middle_keeps_every_value(
            self, name, values):
        f = shared_copy(name)
        v = freeness(f)
        top = 3 * (f.degree - 2)
        assert (tau(f), mdr(f), v.free, v.exponents,
                tuple(h0m_dim(f, k) for k in range(top + 1))) == values
        assert 2 * (2 * f.degree - 4 - mdr(f)) > top

    def test_mirror_outside_its_range_names_degree_and_t(self, monkeypatch):
        f = parse(str(TRIANGLE))
        tau(f)
        # dim J_3 = 3 dim S_1 - koszul(1) - defect(0) = 9 - 0 - 10 leaves
        # [0, dim S_3] = [0, 10]
        monkeypatch.setattr(syzcurve.syzygy, "defect", lambda g, k: 10)
        with pytest.raises(RelationViolated, match="at degree 3, t=3$"):
            jacobian_dim(f, 3)


class TestCertifiedColonRank:
    """saturation_dim reads c(k) = tau from the regularity index k* =
    2d - 4 - mdr on, once mdr is kept; below it, it takes the rank of the
    colon matrix modulo a prime and accepts it only where it reaches its
    bound, and elsewhere falls back to the exact colon kernel
    (sat_basis)."""

    @pytest.mark.parametrize("name", MIRROR_CURVES)
    def test_certified_rank_is_the_exact_rank(self, name):
        g = shared_copy(name)
        mdr(g)
        for k in range(3 * (g.degree - 2) + 1):
            m = _colon_matrix(g, k)
            # the same rank, eliminated with the shorter side as columns
            exact = rank(m if m.cols <= m.rows else m.transpose())
            # a modular rank that reaches its bound is the exact rank
            bound = min(m.rows, m.cols, tau(g))
            r = _rank_mod_p(m, bound)
            assert r <= exact and (r < bound or r == exact)
            assert saturation_dim(g, k) == dim_graded(k) - exact

    @pytest.mark.parametrize("name", [rec.name for rec in catalog()
                                      if "smooth" not in rec.tags]
                             + ["ladder_7", "ladder_8", "ladder_9",
                                "free_nonic"])
    def test_regularity_index_is_2d_minus_4_minus_mdr(self, name):
        # er_dim(f, q) = tau - c(2d - 5 - q) (Dimca 2013), and c never
        # decreases and stops at tau from k* on: so the exact colon rank is
        # tau at k* = 2d - 4 - mdr and below tau at k* - 1, and
        # saturation_dim, which with mdr kept reads c(k*) = tau with no
        # rank, agrees at both degrees once the values that mdr's own scan
        # kept there are dropped
        g = shared_copy(name)
        k = 2 * g.degree - 4 - mdr(g)

        def exact(j):
            if j < 0:
                return 0
            m = _colon_matrix(g, j)
            return rank(m if m.cols <= m.rows else m.transpose())
        assert exact(k) == tau(g) > exact(k - 1)
        degrees = [j for j in (k - 1, k) if j >= 0]
        for j in degrees:
            _results(g).pop(("sat", j), None)
        assert ([saturation_dim(g, j) for j in degrees]
                == [dim_graded(j) - exact(j) for j in degrees])

    @pytest.mark.parametrize("name, kstar", [
        ("free_nonic", 11), ("ladder_7", 5), ("ladder_8", 6),
        ("ladder_9", 7)])
    def test_regularity_index(self, name, kstar):
        g = shared_copy(name)
        assert 2 * g.degree - 4 - mdr(g) == kstar

    @staticmethod
    def values(name):
        """The report of a fresh copy of mirror_curve(name), and its
        saturation, h0m and defect over 0..T."""
        rec = mirror_record(name)
        f = rec.f
        report = build_report(rec).to_json()
        return (report,
                [(saturation_dim(f, k), h0m_dim(f, k), defect(f, k))
                 for k in range(3 * (f.degree - 2) + 1)])

    @pytest.mark.parametrize("below_tau_only", [False, True])
    @pytest.mark.parametrize("name", [rec.name for rec in catalog()]
                             + ["ladder_7"])
    def test_unlucky_prime_changes_no_value(self, name, below_tau_only,
                                            monkeypatch):
        # a modular colon rank one short of the rank fails the certificate,
        # so every saturation that saturation_dim does not read as
        # dim S_k - tau, at k below 2d - 4 - mdr (below 2d - 4 before mdr
        # is kept), comes from the exact fallback, sat_basis: at every such
        # degree when every rank falls short, and where c(k) < tau when
        # only the ranks below tau do, tau being a third of the colon
        # matrix's rows
        want = self.values(name)
        modular = syzcurve.syzygy._rank_mod_p

        def unlucky(m, bound):
            r = modular(m, bound)
            return r if below_tau_only and 3 * r == m.rows else r - 1
        monkeypatch.setattr(syzcurve.syzygy, "_rank_mod_p", unlucky)
        assert self.values(name) == want

    @pytest.mark.parametrize("name", [rec.name for rec in catalog()]
                             + ["ladder_7"])
    def test_unlucky_prime_in_rank_changes_no_value(self, name, monkeypatch):
        # exactlin.rank accepts a modular rank only where it reaches
        # min(rows, cols); one short, every rank, the reducedness
        # certificate's included, comes from the elimination over Q
        want = self.values(name)
        modular = syzcurve.exactlin._rank_mod_p
        monkeypatch.setattr(syzcurve.exactlin, "_rank_mod_p",
                            lambda m, bound: modular(m, bound) - 1)
        assert self.values(name) == want


def jacobian_span_equal(f, g):
    """Whether f and g have the same span of partial derivatives."""
    cols_f = [p.coeff_vector() for p in partials(f)]
    cols_g = [p.coeff_vector() for p in partials(g)]
    rf = rank(QMatrix.from_rows(cols_f))
    rg = rank(QMatrix.from_rows(cols_g))
    rboth = rank(QMatrix.from_rows(cols_f + cols_g))
    return rf == rg == rboth


def h0m_mult_kernel(f, g, m):
    """Kernel dimension of multiplication by g from the degree-m piece of
    (saturation / ideal) to the degree m + deg g piece."""
    basis = sat_basis(f, m)
    if not basis:
        return 0
    t = m + g.degree
    lker = _jac_left_kernel(f, t)
    if not lker:
        return len(basis) - jacobian_dim(f, m)
    idx = _basis_index(t)
    cols = []
    for b in basis:
        prod = g * b
        vec = [Fraction(0)] * dim_graded(t)
        for mono, c in prod.terms.items():
            vec[idx[mono]] = c
        cols.append([sum(Fraction(li) * vi for li, vi in zip(l, vec) if li and vi)
                     for l in lker])
    mat = QMatrix.from_rows(cols).transpose()
    kdim = len(kernel_basis(mat))
    return kdim - jacobian_dim(f, m)


class TestSpanAndMultiplication:
    def test_jacobian_span_equal_positive(self):
        assert jacobian_span_equal(parse("x^4 + y^4 + z^4"),
                                   parse("x^4 + y^4 + 2*z^4"))

    def test_jacobian_span_equal_negative(self):
        assert not jacobian_span_equal(FERMAT3, parse("x^3 + y^3 + z^3 + x*y*z"))

    def test_mult_kernel_full_for_ideal_member(self):
        f = lookup("one_node_quartic").f
        fx = partials(f)[0]
        for m in range(0, 4):
            assert h0m_mult_kernel(f, fx, m) == h0m_dim(f, m)

    def test_mult_kernel_zero_for_generic_form(self):
        f = lookup("one_node_quartic").f
        g = parse("z^3")
        assert h0m_mult_kernel(f, g, 0) == 0
        assert h0m_mult_kernel(f, g, 1) == 0


class TestResultsOnPolynomial:
    def test_fresh_equal_polynomial_recomputes_same_values(self):
        filled = [tau(NODAL), saturation_dim(NODAL, 2), h0m_dim(NODAL, 2)]
        fresh = parse(str(NODAL))
        assert fresh == NODAL and fresh is not NODAL
        assert [tau(fresh), saturation_dim(fresh, 2), h0m_dim(fresh, 2)] == filled

    def test_filling_keeps_equality_and_hash(self):
        f = parse("y^2*z - x^3 - x*z^2")
        before = hash(f)
        tau(f)
        saturation_dim(f, 1)
        g = parse(str(f))
        assert f == g and hash(f) == before == hash(g)
        assert len({f, g}) == 1

    def test_mdr_is_kept_none_included(self, monkeypatch):
        def refuse(f, q):
            raise AssertionError("er_dim(%s, %d) recomputed" % (f, q))
        for text, want in ((str(NODAL), 2), (str(FERMAT3), None)):
            f = parse(text)
            assert mdr(f) == want
            with monkeypatch.context() as m:
                m.setattr(syzcurve.syzygy, "er_dim", refuse)
                assert mdr(f) == want

    def test_no_module_level_mutable_state(self):
        for name, value in vars(syzcurve.syzygy).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            assert not isinstance(value, (dict, list, set)), name
