"""Graded syzygy invariants of the Jacobian ideal: relation modules, the
minimal relation degree, coincidence threshold, Tjurina number, saturation,
and defect dimensions."""
from fractions import Fraction

import pytest
from hypothesis import given, settings

import syzcurve.syzygy
from syzcurve import (ar_basis, ar_dim, ct, defect, dim_graded,
                      er_dim, gradient_matrix, h0m_dim, h0m_mult_kernel,
                      jacobian_dim, jacobian_span_equal, koszul_dim, mdr,
                      milnor_dim, parse, sat_basis, sat_dim_iterative,
                      saturation_dim, smooth_milnor_dim, tau)
from syzcurve.curvecat import lookup, non_ts_family
from syzcurve.ring3 import partials

from conftest import hpolys

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


class TestRelations:
    def test_triangle_relations(self):
        assert ar_dim(TRIANGLE, 0) == 0
        assert ar_dim(TRIANGLE, 1) == 2

    def test_ar_basis_members_are_relations(self):
        for f in (TRIANGLE, NODAL, C222):
            for m in range(0, 5):
                basis = ar_basis(f, m)
                assert len(basis) == ar_dim(f, m)
                for triple in basis:
                    assert triple.is_relation(f)

    def test_koszul_formula_consistency(self):
        # koszul_dim cross-checks a rank computation against the closed
        # formula internally and raises on disagreement
        for f in (TRIANGLE, FERMAT3, NODAL, CUSP, C222):
            for m in range(0, 2 * f.degree):
                assert koszul_dim(f, m) >= 0

    def test_er_nonnegative_and_smooth_trivial(self):
        for m in range(0, 7):
            assert er_dim(FERMAT3, m) == 0
        assert er_dim(TRIANGLE, 1) == 2

    @given(hpolys(degree=3))
    @settings(max_examples=15, deadline=None)
    def test_ar_contains_koszul(self, f):
        if milnor_dim(f, 3 * (f.degree - 2) + 1) != 0:
            # non-reduced or infinite Tjurina: outside scope
            return
        for m in range(0, 5):
            assert ar_dim(f, m) >= koszul_dim(f, m)


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

    def test_no_module_level_mutable_state(self):
        for name, value in vars(syzcurve.syzygy).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            assert not isinstance(value, (dict, list, set)), name
