"""Reconstructability criteria, interpolation linear systems, base loci,
dimension counts, and the Jacobian-membership helpers."""
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from syzcurve import (CurveRecord, DeclaredSing, HPoly, LinearSystem,
                      NotNodal, ProjPoint, QMatrix, SingType,
                      WrongSingularityTypes, ar_dim, base_locus_zero_dim,
                      dimension_obstruction, genus_sum_check,
                      gradient_matrix, in_span, kernel_basis, linear_change,
                      linear_system_cusps, linear_system_points, moduli_dim,
                      mono_basis, parse, saturation_dim, severi_dim, singcat,
                      torelli_cuspidal, torelli_nodal, torelli_nodal_count)
from syzcurve.curvecat import lookup
from syzcurve.ring3 import eval_at, partials
from syzcurve.singcat import CUSP

from conftest import coeffs, same_span

F = Fraction


class DegreeMismatch(ValueError):
    """Operands have incompatible degrees."""


def syzygy_growth_delta(f, k):
    """Difference of syzygy dimensions one degree up versus d-2 degrees
    down; the quantity controlled by the recovery arguments."""
    return ar_dim(f, k + 1) - ar_dim(f, k - f.degree + 2)


def jacobian_membership(f, g):
    """Is the degree-(d-1) form g a constant linear combination of the
    three partial derivatives of f?"""
    if not g.is_zero() and g.degree != f.degree - 1:
        raise DegreeMismatch("expected degree %d, got %d"
                             % (f.degree - 1, g.degree))
    if g.is_zero():
        return True
    return in_span(g.coeff_vector(), gradient_matrix(f, 0))


def _directional_derivative(g, point, direction):
    gx, gy, gz = partials(g)
    return sum(F(w) * eval_at(p, point)
               for w, p in zip(direction, (gx, gy, gz)))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def kernel_direction_system(nodes, cusps, m):
    """The basis of linear_system_cusps with each cusp's second tangent
    point taken as the first vector of kernel_basis of the tangent's 1x3
    coefficient row that is independent of the cusp point."""
    monos = [HPoly.monomial(u) for u in mono_basis(m)]
    rows = [[eval_at(g, p) for g in monos] for p in nodes]
    for s in cusps:
        point = s.point
        line = QMatrix.from_rows([s.tangent.coeff_vector()])
        second = next(v for v in kernel_basis(line)
                      if any(cross(v, point.coords)))
        rows.append([eval_at(g, point) for g in monos])
        rows.append([_directional_derivative(g, point, second)
                     for g in monos])
    return tuple(HPoly.from_coeff_vector(m, v)
                 for v in kernel_basis(QMatrix.from_rows(rows)))


points = st.tuples(coeffs, coeffs, coeffs).filter(any)


def pointless_node_cubic(*extra):
    """The nodal cubic with its node declared by type only, plus `extra`."""
    return CurveRecord("pointless_node", parse("y^2*z - x^2*(x + z)"), True,
                       1, (0,), (DeclaredSing(SingType.A(1)),) + extra)


class TestLinearSystems:
    def test_no_points_full_system(self):
        assert linear_system_points([], 1).dim == 3
        assert linear_system_points([], 2).dim == 6

    def test_point_conditions(self):
        p = ProjPoint(0, 0, 1)
        sys1 = linear_system_points([p], 1)
        assert sys1.dim == 2
        for g in sys1.basis:
            assert eval_at(g, p) == 0

    def test_three_coordinate_points(self):
        pts = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)]
        sys2 = linear_system_points(pts, 2)
        assert sys2.dim == 3
        for g in sys2.basis:
            assert all(eval_at(g, p) == 0 for p in pts)

    def test_cusp_imposes_two_conditions(self):
        cusp = DeclaredSing(CUSP, ProjPoint(0, 0, 1), parse("x"))
        system = linear_system_cusps([], [cusp], 2)
        assert system.dim == 4
        # each member vanishes at the cusp and its derivative along the
        # tangent direction vanishes too
        for g in system.basis:
            assert eval_at(g, ProjPoint(0, 0, 1)) == 0

    def test_mixed_nodes_and_cusps(self):
        nodes = [ProjPoint(1, 0, 0)]
        cusps = [DeclaredSing(CUSP, ProjPoint(0, 0, 1), parse("x"))]
        system = linear_system_cusps(nodes, cusps, 2)
        assert system.dim == 3
        for g in system.basis:
            assert eval_at(g, ProjPoint(1, 0, 0)) == 0
            assert eval_at(g, ProjPoint(0, 0, 1)) == 0

    def test_tangent_off_its_point_yields_no_system(self):
        # the line z = 0 misses (0:0:1), so its direction l x p is 0 and
        # the derivative row would impose nothing: a raw (point, tangent)
        # pair is not taken, and the declared cusp refuses the tangent
        point, tangent = ProjPoint(0, 0, 1), parse("z")
        with pytest.raises(AttributeError):
            linear_system_cusps([], [(point, tangent)], 2)
        with pytest.raises(ValueError, match="does not pass through"):
            DeclaredSing(CUSP, point, tangent)

    @given(st.lists(points, max_size=2),
           st.lists(st.tuples(points, points), min_size=1, max_size=2),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_second_tangent_point_leaves_the_basis(self, nodes, pairs, m):
        # the tangent through p and q is p x q; the cross product of the
        # tangent with p spans the same conditions as any other second
        # point, so both systems are the same space of forms
        assume(all(any(cross(p, q)) for p, q in pairs))
        nodes = [ProjPoint(*n) for n in nodes]
        cusps = [DeclaredSing(CUSP, ProjPoint(*p),
                              HPoly.from_coeff_vector(1, cross(p, q)))
                 for p, q in pairs]
        assert same_span(
            [g.coeff_vector()
             for g in linear_system_cusps(nodes, cusps, m).basis],
            [g.coeff_vector()
             for g in kernel_direction_system(nodes, cusps, m)])


class TestBaseLocus:
    def test_zero_dimensional(self):
        assert base_locus_zero_dim(LinearSystem(1, (parse("x"), parse("y"))))

    def test_common_factor(self):
        system = LinearSystem(2, (parse("x*y"), parse("x*z")))
        assert not base_locus_zero_dim(system)

    def test_empty_system(self):
        assert not base_locus_zero_dim(LinearSystem(2, ()))

    def test_invariant_under_coordinate_change(self):
        m = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
        for basis in ((parse("x"), parse("y")),
                      (parse("x*y"), parse("x*z")),
                      (parse("x*y - z^2"), parse("x^2 - y*z"))):
            system = LinearSystem(basis[0].degree, basis)
            moved = LinearSystem(basis[0].degree,
                                 tuple(linear_change(g, m) for g in basis))
            assert base_locus_zero_dim(system) == base_locus_zero_dim(moved)


class TestNodalCriterion:
    def test_one_node_quartic(self):
        v = torelli_nodal(lookup("one_node_quartic"))
        assert v.status == "torelli"
        assert v.witness_degree == 1

    def test_two_and_three_node_sextics(self):
        for name in ("two_node_sextic", "three_node_sextic"):
            v = torelli_nodal(lookup(name))
            assert (v.status, v.witness_degree) == ("torelli", 2)

    def test_collinear_octic(self):
        v = torelli_nodal(lookup("collinear_octic"))
        assert (v.status, v.witness_degree) == ("torelli", 3)

    def test_nodal_cubic_fails_criterion(self):
        v = torelli_nodal(lookup("nodal_cubic"))
        assert v.status == "criterion_fails"

    def test_rejects_cusps_and_smooth(self):
        with pytest.raises(NotNodal):
            torelli_nodal(lookup("cuspidal_cubic"))
        with pytest.raises(NotNodal):
            torelli_nodal(lookup("fermat3"))

    def test_node_without_point_fails_criterion(self):
        # the search needs every node's point; one declared by type only
        # makes it unavailable, as a pointless cusp does for the cusp-aware
        # criterion, and neither raises
        v = torelli_nodal(pointless_node_cubic())
        assert (v.status, v.witness_degree, v.by_count) == (
            "criterion_fails", None, False)
        assert v.detail == ("1 declared singularities lack the rational "
                            "point/tangent data needed for a witness search")
        with_cusp = pointless_node_cubic(DeclaredSing(SingType.A(2)))
        assert torelli_cuspidal(with_cusp).detail == (
            "count criterion fails and 2 declared singularities lack the "
            "rational point/tangent data needed for a witness search")

    def test_count_shortcut(self):
        assert torelli_nodal_count(4, 1, True)
        assert torelli_nodal_count(6, 2, True)
        assert not torelli_nodal_count(6, 3, True)   # count is sufficient only
        assert not torelli_nodal_count(6, 2, False)  # reducible bound tighter
        assert torelli_nodal_count(7, 2, False)

    def test_count_certificate_always_confirmed_by_search(self):
        for name in ("one_node_quartic", "two_node_sextic"):
            rec = lookup(name)
            n = len(rec.sings)
            if torelli_nodal_count(rec.degree, n, rec.irreducible):
                assert torelli_nodal(rec).status == "torelli"


class TestCuspidalCriterion:
    def test_one_cusp_octic_by_count(self):
        v = torelli_cuspidal(lookup("one_cusp_octic"))
        assert v.status == "torelli"
        assert v.by_count
        assert v.witness_degree == 2

    def test_nine_cusp_sextic_unsearchable(self):
        v = torelli_cuspidal(lookup("nine_cusp_sextic"))
        assert v.status == "criterion_fails"
        assert "lack" in v.detail

    def test_nodal_input_allowed_but_window_narrower(self):
        # nodes-only input is in scope, but the cusp-aware witness window
        # (2m < 5d/6 - 2) is narrower than the nodal one (2m < d - 1): the
        # two-node sextic is certified by the nodal search at m = 2, which
        # this criterion cannot reach
        v = torelli_cuspidal(lookup("two_node_sextic"))
        assert v.status == "criterion_fails"
        assert torelli_nodal(lookup("two_node_sextic")).status == "torelli"

    def test_rejects_other_types_and_smooth(self):
        with pytest.raises(WrongSingularityTypes):
            torelli_cuspidal(lookup("a1_arrangement"))   # has D4 points
        with pytest.raises(WrongSingularityTypes):
            torelli_cuspidal(lookup("fermat3"))


class TestCriterionScope:
    @pytest.mark.parametrize("criterion, error, name, declared", [
        (torelli_nodal, NotNodal, "cuspidal_cubic", "[A2]"),
        (torelli_nodal, NotNodal, "fermat3", "[]"),
        (torelli_nodal, NotNodal, "ts_2_3", "[WH(1/3,1/5), A4]"),
        (torelli_cuspidal, WrongSingularityTypes, "fermat4", "[]"),
        (torelli_cuspidal, WrongSingularityTypes, "family_2_2_2",
         "[T(2,6,6)]"),
    ])
    def test_scope_error_names_the_declared_types(self, criterion, error,
                                                  name, declared):
        with pytest.raises(error) as info:
            criterion(lookup(name))
        assert str(info.value).endswith("; got " + declared)

    def test_one_not_nodal_error(self):
        # the genus check and the nodal criterion share one exception
        assert NotNodal is singcat.NotNodal
        for check in (genus_sum_check, torelli_nodal):
            with pytest.raises(NotNodal):
                check(lookup("one_cusp_octic"))


class TestDimensionCounts:
    def test_severi(self):
        assert severi_dim(3, 1, 0) == 8
        assert severi_dim(5, 10, 0) == 10
        assert severi_dim(6, 0, 9) == 9

    def test_moduli(self):
        assert moduli_dim(3, 1, 0) == 5
        assert moduli_dim(5, 10, 0) == 5
        assert moduli_dim(6, 0, 9) == 0

    def test_obstruction_cases(self):
        ob = dimension_obstruction(3, 1, 0)
        assert ob is not None
        assert (ob.family_dim, ob.bundle_family_dim) == (8, 5)
        assert dimension_obstruction(5, 10, 0).family_dim == 10
        assert dimension_obstruction(6, 0, 9).bundle_family_dim == 0

    def test_unobstructed(self):
        assert dimension_obstruction(4, 1, 0) is None


class TestJacobianHelpers:
    def test_membership_of_partials(self):
        f = lookup("one_node_quartic").f
        for g in partials(f):
            assert jacobian_membership(f, g)

    def test_zero_is_member(self):
        f = lookup("one_node_quartic").f
        assert jacobian_membership(f, HPoly.zero(3))

    def test_non_member(self):
        f = lookup("one_node_quartic").f
        assert not jacobian_membership(f, parse("z^3"))

    def test_degree_checked(self):
        f = lookup("one_node_quartic").f
        with pytest.raises(DegreeMismatch):
            jacobian_membership(f, parse("z^2"))

    def test_syzygy_growth_delta(self):
        f = lookup("fermat3").f
        # at k = d - 2 = 1 the difference counts the relations appearing
        # in degree d - 1 (here: the three trivial ones)
        assert syzygy_growth_delta(f, 1) == 3
        g = lookup("nodal_cubic").f
        for k in range(0, 4):
            assert syzygy_growth_delta(g, k) == \
                ar_dim(g, k + 1) - ar_dim(g, k - g.degree + 2)


class TestSaturationInterpolationAgreement:
    def test_nodal_saturation_is_point_ideal(self):
        # for a nodal curve the saturated Jacobian ideal cuts out exactly
        # the nodes, so its graded dimensions match point interpolation
        for name in ("triangle", "one_node_quartic", "two_conics",
                     "five_lines"):
            rec = lookup(name)
            pts = [s.point for s in rec.sings]
            for k in range(0, rec.degree + 1):
                assert saturation_dim(rec.f, k) == \
                    linear_system_points(pts, k).dim, (name, k)
