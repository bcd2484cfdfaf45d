"""Graded polynomial ring in three variables: parsing, arithmetic, graded
bases, multiplication matrices, evaluation, coordinate changes."""
from fractions import Fraction

import pytest
from hypothesis import given, settings

from syzcurve import HPoly, Mono, ProjPoint, dim_graded, linear_change, \
    mono_basis, parse, partials
from syzcurve.ring3 import (NotHomogeneous, ParseError, SingularMatrix,
                            _basis_index, eval_at, mult_matrix)

from conftest import hpolys, mat_vec

F = Fraction


class TestBasis:
    def test_dim_graded_values(self):
        assert [dim_graded(k) for k in range(-2, 5)] == [0, 0, 1, 3, 6, 10, 15]

    def test_mono_basis_size_and_uniqueness(self):
        for k in range(7):
            basis = mono_basis(k)
            assert len(basis) == dim_graded(k)
            assert len(set(basis)) == len(basis)
            assert all(sum(m) == k for m in basis)

    def test_graded_lex_leading_monomial(self):
        # x is the largest variable, so pure powers of x come first
        assert mono_basis(3)[0] == Mono(3, 0, 0)
        assert mono_basis(3)[-1] == Mono(0, 0, 3)

    def test_mono_index_round_trip(self):
        for k in (0, 1, 4):
            for i, m in enumerate(mono_basis(k)):
                assert _basis_index(k)[m] == i


class TestParse:
    def test_simple(self):
        f = parse("x^2*y - 3*z^3 + 2*y*z^2")
        assert f.degree == 3
        assert f.terms[Mono(2, 1, 0)] == 1
        assert f.terms[Mono(0, 0, 3)] == -3
        assert f.terms[Mono(0, 1, 2)] == 2

    def test_parenthesized_products(self):
        f = parse("(x + y)*(x - y)")
        assert f == parse("x^2 - y^2")

    def test_powers_of_sums(self):
        assert parse("(x + y + z)^2") == \
            parse("x^2 + y^2 + z^2 + 2*x*y + 2*x*z + 2*y*z")

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            parse("x^2 + y")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse("x +* y")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("x + w")


class TestArithmetic:
    @given(hpolys(), hpolys())
    @settings(max_examples=40)
    def test_product_degree_and_commutativity(self, f, g):
        fg = f * g
        assert fg.degree == f.degree + g.degree
        assert fg == g * f

    @given(hpolys(degree=3), hpolys(degree=3), hpolys(degree=2))
    @settings(max_examples=40)
    def test_distributivity(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(hpolys())
    @settings(max_examples=40)
    def test_euler_relation(self, f):
        # x f_x + y f_y + z f_z = d f for homogeneous f of degree d
        fx, fy, fz = partials(f)
        x, y, z = parse("x"), parse("y"), parse("z")
        assert x * fx + y * fy + z * fz == f * f.degree

    def test_partials_example(self):
        fx, fy, fz = partials(parse("x^2*y + z^3"))
        assert fx == parse("2*x*y")
        assert fy == parse("x^2")
        assert fz == parse("3*z^2")


class TestMultMatrix:
    @given(hpolys(max_degree=3), hpolys(max_degree=3))
    @settings(max_examples=30)
    def test_matrix_action_is_multiplication(self, g, h):
        m = mult_matrix(g, h.degree)
        assert mat_vec(m, h.coeff_vector()) == (g * h).coeff_vector()

    def test_shape(self):
        g = parse("x^2 + y*z")
        m = mult_matrix(g, 3)
        assert (m.rows, m.cols) == (dim_graded(5), dim_graded(3))

    def test_negative_source_degree(self):
        assert mult_matrix(parse("x"), -1).cols == 0


class TestEvalAndPoints:
    def test_projpoint_canonicalization(self):
        assert ProjPoint(2, 4, 6) == ProjPoint(1, 2, 3)
        assert hash(ProjPoint(0, 5, 10)) == hash(ProjPoint(0, 1, 2))
        assert ProjPoint(1, 0, 0) != ProjPoint(0, 1, 0)

    def test_projpoint_rejects_zero(self):
        with pytest.raises(ValueError):
            ProjPoint(0, 0, 0)

    def test_eval_at(self):
        f = parse("x^2*z - y^3")
        # (2:1:1) canonicalizes to (1, 1/2, 1/2): 1/2 - 1/8 = 3/8
        assert eval_at(f, ProjPoint(2, 1, 1)) == F(3, 8)
        assert eval_at(parse("x*y - z^2"), ProjPoint(1, 1, 1)) == 0

    @given(hpolys())
    @settings(max_examples=30)
    def test_eval_representative_independent(self, f):
        p = ProjPoint(3, -6, 9)
        q = ProjPoint(1, -2, 3)
        assert eval_at(f, p) == eval_at(f, q)


class TestLinearChange:
    IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    SWAP = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    SHEAR = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]

    def test_identity(self):
        f = parse("x^3 + x*y*z")
        assert linear_change(f, self.IDENTITY) == f

    def test_swap(self):
        assert linear_change(parse("x^2*z"), self.SWAP) == parse("y^2*z")

    def test_shear(self):
        assert linear_change(parse("x^2"), self.SHEAR) == \
            parse("x^2 + 2*x*y + y^2")

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            linear_change(parse("x^2"), [[1, 0, 0], [1, 0, 0], [0, 0, 1]])

    @given(hpolys(max_degree=3), hpolys(max_degree=3))
    @settings(max_examples=20)
    def test_respects_products(self, f, g):
        m = self.SHEAR
        assert linear_change(f * g, m) == \
            linear_change(f, m) * linear_change(g, m)
