"""Exact rational linear algebra: rank, kernel, span membership, solving."""
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from syzcurve import QMatrix, in_span, kernel_basis, rank, solve
from syzcurve.curvecat import lookup
from syzcurve.exactlin import _echelon, _integer_rows, _rank_mod_p
from syzcurve.syzygy import gradient_matrix, jacobian_rows

from conftest import (LADDER_LINES, coeffs, line_product, mat_vec,
                      nonzero_coeffs, qmatrices, row_lists, same_span)

F = Fraction


def M(rowlists):
    return QMatrix.from_rows([[F(v) for v in row] for row in rowlists])


def identity(n):
    return M([[int(i == j) for j in range(n)] for i in range(n)])


def reference_rref(m):
    """Reduced row echelon form of m by plain Fraction Gauss-Jordan.

    Returns (rows, pivot_cols).  Independent of the package's fraction-free
    elimination; the tests use it as the reference for rank and kernel.
    """
    rows = row_lists(m)
    pivot_cols = []
    r = 0
    for c in range(m.cols):
        p = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return rows[:r], pivot_cols


def reference_kernel(m):
    """The canonical kernel basis: one vector per free column, 1 there, 0 in
    the other free columns, read off the reduced row echelon form."""
    rows, pivot_cols = reference_rref(m)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_cols:
            continue
        v = [F(0)] * m.cols
        v[fc] = F(1)
        for row, pc in zip(rows, pivot_cols):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def fraction_back_substitution(m):
    """The kernel basis by the earlier Fraction back-substitution over the
    package's echelon rows: a reference for the integer back-substitution
    on matrices too large for reference_kernel."""
    rows = _integer_rows(row_lists(m))
    rank_, pivot_cols = _echelon(rows, m.cols)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_cols:
            continue
        v = [F(0)] * m.cols
        v[fc] = F(1)
        for r in range(rank_ - 1, -1, -1):
            row = rows[r]
            pc = pivot_cols[r]
            acc = F(0)
            for j in range(pc + 1, m.cols):
                if row[j] and v[j]:
                    acc += row[j] * v[j]
            v[pc] = -acc / row[pc] if acc else F(0)
        basis.append(v)
    return basis


@st.composite
def shaped_qmatrices(draw):
    """Matrices with inserted zero rows and columns, wide or tall shapes and
    optionally fractional entries."""
    shape = draw(st.sampled_from(["any", "wide", "tall"]))
    if shape == "any":
        m = draw(qmatrices(max_dim=8))
        rows, cols = m.rows, m.cols
        entries = list(m.entries)
    else:
        short = draw(st.integers(min_value=1, max_value=3))
        long_ = draw(st.integers(min_value=5, max_value=12))
        rows, cols = (short, long_) if shape == "wide" else (long_, short)
        entries = [F(draw(coeffs)) for _ in range(rows * cols)]
    if draw(st.booleans()):
        entries = [e / draw(nonzero_coeffs) for e in entries]
    grid = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(grid)))
        grid.insert(at, [F(0)] * cols)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=cols))
        for row in grid:
            row.insert(at, F(0))
        cols += 1
    return QMatrix.from_rows(grid)


class TestRank:
    def test_identity(self):
        assert rank(identity(4)) == 4

    def test_zero(self):
        assert rank(QMatrix(3, 3, [F(0)] * 9)) == 0

    def test_dependent_rows(self):
        assert rank(M([[1, 2], [2, 4], [3, 6]])) == 1

    def test_fractional_entries(self):
        m = QMatrix(2, 2, [F(1, 2), F(1, 3), F(1, 5), F(1)])
        assert rank(m) == 2
        # and a genuinely singular fractional matrix
        assert rank(QMatrix(2, 2, [F(1, 2), F(1, 3), F(3, 2), F(1)])) == 1

    def test_known_rank_two(self):
        assert rank(M([[1, 0, 1], [0, 1, 1], [1, 1, 2]])) == 2

    @given(qmatrices())
    @settings(max_examples=60)
    def test_rank_equals_transpose_rank(self, m):
        assert rank(m) == rank(m.transpose())

    @given(qmatrices())
    @settings(max_examples=60)
    def test_rank_bounded(self, m):
        assert 0 <= rank(m) <= min(m.rows, m.cols)


def check_kernel(m):
    """What kernel_basis(m) promises: coprime integer rows v with m v = 0,
    cols - rank(m) of them, each positive in a column where every other
    row is 0, spanning what the two Fraction references span.  Returns
    the rows."""
    ker = kernel_basis(m)
    for v in ker:
        assert len(v) == m.cols
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        assert not any(mat_vec(m, v))
    assert len(ker) == m.cols - rank(m)
    for i, v in enumerate(ker):
        assert any(x > 0 and not any(w[j] for w in ker[:i] + ker[i + 1:])
                   for j, x in enumerate(v))
    assert same_span(ker, fraction_back_substitution(m))
    assert same_span(ker, reference_kernel(m))
    return ker


def sparsest_first_kernel(m):
    """The kernel basis kernel_basis promises, built from the references:
    reference_kernel of m with its columns stably sorted by ascending
    nonzero count, mapped back and scaled to coprime integers."""
    order = sorted(range(m.cols),
                   key=lambda j: sum(1 for i in range(m.rows)
                                     if m.entries[i * m.cols + j]))
    sorted_m = QMatrix.from_rows([[row[j] for j in order]
                                  for row in row_lists(m)])
    basis = []
    for v in reference_kernel(sorted_m):
        den = 1
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
        nums = [int(x * den) for x in v]
        g = gcd(*nums)
        w = [0] * m.cols
        for j, n in zip(order, nums):
            w[j] = n // g
        basis.append(w)
    return basis


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel_basis(identity(3)) == []

    def test_known_kernel(self):
        # x + y + z = 0 has a two-dimensional solution space; the equal
        # column counts keep the column order, so y and z are free
        assert kernel_basis(M([[1, 1, 1]])) == [[-1, 1, 0], [-1, 0, 1]]

    @given(qmatrices())
    @settings(max_examples=60)
    def test_rank_nullity(self, m):
        assert rank(m) + len(kernel_basis(m)) == m.cols

    @given(qmatrices())
    @settings(max_examples=60)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_basis(m):
            assert all(x == 0 for x in mat_vec(m, v))
            assert any(x != 0 for x in v)

    def test_kernel_deterministic(self):
        m = M([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
        assert kernel_basis(m) == kernel_basis(m)


class TestAgainstReference:
    """rank equals a plain Fraction Gauss-Jordan, and kernel_basis spans
    the kernel that Gauss-Jordan and the earlier Fraction
    back-substitution give, in coprime integer rows.  Callers read the
    basis only through its span."""

    @given(qmatrices(max_dim=8))
    @settings(max_examples=100)
    def test_small(self, m):
        check_kernel(m)
        assert rank(m) == len(reference_rref(m)[1])

    @given(shaped_qmatrices())
    @settings(max_examples=100)
    def test_shaped(self, m):
        check_kernel(m)
        assert rank(m) == len(reference_rref(m)[1])

    def test_zero_matrix(self):
        m = QMatrix(2, 3, [F(0)] * 6)
        assert check_kernel(m) == row_lists(identity(3))

    def test_six_node_sextic_left_kernel(self):
        # the transposed gradient matrix at T + 1 = 13, as in the left
        # kernel behind every saturation degree of this sextic
        f = lookup("six_node_sextic").f
        m = gradient_matrix(f, 13 - (f.degree - 1)).transpose()
        assert (m.rows, m.cols) == (135, 105)
        ker = kernel_basis(m)
        assert same_span(ker, fraction_back_substitution(m))
        # tau = 6 (six nodes) fixes both numbers
        assert len(ker) == 6
        assert rank(m) == 105 - 6


class TestIntegerKernel:
    """kernel_basis eliminates the sparsest columns first: its basis is the
    canonical one for the columns stably sorted by ascending nonzero
    count, scaled to coprime integers positive in the free column."""

    @given(qmatrices(max_dim=8))
    @settings(max_examples=100)
    def test_small(self, m):
        assert kernel_basis(m) == sparsest_first_kernel(m)

    @given(shaped_qmatrices())
    @settings(max_examples=100)
    def test_shaped(self, m):
        assert kernel_basis(m) == sparsest_first_kernel(m)

    def test_no_rows(self):
        # every vector is in the kernel; a column order of equal counts
        # keeps the identity
        assert check_kernel(QMatrix(0, 3, [])) == row_lists(identity(3))

    def test_ladder_nonic_left_kernel(self):
        # the Jacobian rows at T + 1 = 22 of the degree-9 arrangement: the
        # left kernel behind the saturation and freeness of that curve;
        # tau = C(9, 2) nodes
        m = jacobian_rows(line_product(LADDER_LINES), 22)
        ker = kernel_basis(m)
        assert len(ker) == 36 == m.cols - rank(m)
        # 36 independent vectors of a 36-dimensional kernel span it
        assert rank(QMatrix.from_rows(ker)) == 36
        for v in ker:
            assert gcd(*v) == 1
            assert not any(mat_vec(m, v))


class TestRankModP:
    """_rank_mod_p(m, bound) is min(bound, rank modulo a prime): never above
    the rank over Q, and equal to it on small-entried matrices, whose
    minors the prime 2^61 - 1 cannot divide unless they vanish."""

    @given(qmatrices(max_dim=8), st.integers(min_value=0, max_value=9))
    @settings(max_examples=100)
    def test_small(self, m, bound):
        ints = QMatrix(m.rows, m.cols, [int(v) for v in m.entries])
        assert _rank_mod_p(ints, bound) == min(bound, rank(ints))

    def test_multiple_of_the_prime_drops_rank(self):
        p = (1 << 61) - 1
        m = QMatrix.from_rows([[p, 0], [0, 3 * p * p], [1, 1]])
        assert (rank(m), _rank_mod_p(m, 2)) == (2, 1)


class TestIntegerInput:
    """Rows of ints enter the elimination as they are.  Rank and kernel
    equal those of Fraction copies of the same matrix: one with equal
    entries, one with each row divided by its own integer, and one that
    mixes int and Fraction rows."""

    @staticmethod
    def check(ints):
        assert all(type(v) is int for v in ints.entries)
        n = ints.cols
        rows = row_lists(ints)
        copies = [
            QMatrix.from_rows([[F(v) for v in row] for row in rows]),
            QMatrix.from_rows([[F(v, i + 2) for v in row]
                               for i, row in enumerate(rows)]),
            QMatrix.from_rows([[F(v) for v in row] if i % 2 else row
                               for i, row in enumerate(rows)])]
        want = (rank(ints), kernel_basis(ints))
        for other in copies:
            assert other.cols == n
            assert (rank(other), kernel_basis(other)) == want
        return want

    @given(qmatrices(max_dim=8))
    @settings(max_examples=100)
    def test_small(self, m):
        ints = QMatrix(m.rows, m.cols, [int(v) for v in m.entries])
        assert same_span(self.check(ints)[1], reference_kernel(m))

    def test_ladder_sextic_jacobian_rows(self):
        # the Jacobian rows at T + 1 = 13, an integer matrix as built; the
        # kernel has dimension tau = C(6, 2) nodes
        m = jacobian_rows(line_product(LADDER_LINES[:6]), 13)
        assert len(self.check(m)[1]) == 15


class TestSpanAndSolve:
    def test_in_span_true(self):
        # the two columns span a plane inside Q^3
        m = M([[1, 0, 1], [0, 1, 1]]).transpose()
        assert in_span([F(1), F(1), F(2)], m)
        assert not in_span([F(0), F(0), F(1)], m)

    def test_solve_exact(self):
        m = M([[2, 1], [1, 3]])
        x = solve(m, [F(5), F(10)])
        assert x is not None
        assert mat_vec(m, x) == [F(5), F(10)]

    def test_solve_inconsistent(self):
        m = M([[1, 1], [1, 1]])
        assert solve(m, [F(0), F(1)]) is None

    @given(qmatrices(), st.data())
    @settings(max_examples=60)
    def test_solve_recovers_image_vector(self, m, data):
        x = [F(data.draw(coeffs)) for _ in range(m.cols)]
        b = mat_vec(m, x)
        y = solve(m, b)
        assert y is not None
        assert mat_vec(m, y) == b

    @given(qmatrices(), st.data())
    @settings(max_examples=60)
    def test_in_span_consistent_with_solve(self, m, data):
        v = [F(data.draw(coeffs)) for _ in range(m.rows)]
        assert in_span(v, m) == (solve(m, v) is not None)
