"""Shared strategies and helpers for the test suite."""
from fractions import Fraction

import hypothesis.strategies as st

from syzcurve import HPoly, QMatrix, dim_graded, mono_basis, partials, rank
from syzcurve.syzygy import jacobian_rows

# a generic arrangement of nine lines (no three concurrent); its first d
# lines give the benchmark's degree-ladder curve of degree d
LADDER_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, 3), (3, 1, 2),
                (-3, 1, 3), (1, -1, 1), (2, -3, -3), (-2, -3, 1))

# malformed curve files, each with the field its error names; the one named
# encoding is not UTF-8
BAD_CURVE_FILES = [
    ("components", "name = a\nf = x*y*z\nirreducible = false\n"
                   "components = three\n"),
    ("irreducible", "name = a\nf = x*y*z\nirreducible = true\n"
                    "components = 3\n"),
    ("sing", "name = a\nf = x^3\nsing = (0:0:0) A1\n"),
    ("sing", "name = a\nf = x^3\nsing = (1:0:0) A0\n"),
    ("genera", "name = a\nf = x*y*z\nirreducible = false\n"
               "components = 3\ngenera = 0,0\n"),
    ("sing", "name = a\nf = z*y^2 - x^3\nsing = (0:0:1) A2 tangent = x^2\n"),
    ("expect.tau", "name = a\nf = x^3 + y^3 + z^3\nexpect.tau = abc\n"),
    ("sing", "name = a\nf = x*y*z\nsing = (1:0:1/0) A1\n"),
    ("encoding", b"name = a\nf = x^3 + y^3 + z^3 \xff\n"),
    ("irreducible", "name = a\nf = x^3 + y^3 + z^3\nirreducible = yes\n"),
    ("compnents", "name = a\nf = x^3 + y^3 + z^3\ncompnents = 3\n"),
    ("genera", "name = a\nf = x*y*z\nirreducible = false\n"
               "components = 3\ngenera = -1,1,0\n"
               "sing = (1:0:0) A1 ; (0:1:0) A1 ; (0:0:1) A1\n"),
    ("expect.ar_at", "name = a\nf = x^3 + y^3 + z^3\nexpect.ar_at = 1,2\n"),
    ("expect.h0m_at", "name = a\nf = x^3 + y^3 + z^3\n"
                      "expect.h0m_at = (0, 0); (1, 0, 0)\n"),
]


def write_curve_file(path, text) -> str:
    """Write a curve file's text, or its raw bytes, and return the path."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


coeffs = st.integers(min_value=-9, max_value=9)
nonzero_coeffs = coeffs.filter(lambda c: c != 0)


@st.composite
def hpolys(draw, degree=None, min_degree=1, max_degree=4):
    """Random nonzero homogeneous polynomial with small integer coefficients."""
    if degree is None:
        degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    basis = mono_basis(degree)
    n = len(basis)
    picks = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          min_size=1, max_size=min(n, 6), unique=True))
    terms = {}
    for i in picks:
        terms[basis[i]] = Fraction(draw(nonzero_coeffs))
    return HPoly(degree, terms)


@st.composite
def qmatrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(st.lists(coeffs, min_size=rows * cols,
                            max_size=rows * cols))
    return QMatrix(rows, cols, [Fraction(e) for e in entries])


def row_lists(m) -> list:
    """The rows of a QMatrix as lists."""
    return [m.row(i) for i in range(m.rows)]


def mat_vec(m, v) -> list:
    """The product m v of a QMatrix and a vector, exact."""
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return [sum((e * w for e, w in zip(row, v) if e and w), Fraction(0))
            for row in row_lists(m)]


def same_span(a, b) -> bool:
    """Whether the lists of rows a and b span the same space."""
    r = rank(QMatrix.from_rows(a))
    return (rank(QMatrix.from_rows(b)) == r
            and rank(QMatrix.from_rows(a + b)) == r)


def koszul_rank(f, m) -> int:
    """Rank of the degree-m span of the three sign-alternating relations
    (0, f_z, -f_y), (-f_z, 0, f_x), (f_y, -f_x, 0), each times every
    monomial of degree m - d + 1: an elimination to check koszul_dim's
    closed formula against."""
    fx, fy, fz = partials(f)
    zero = HPoly.zero(f.degree - 1)
    triples = [(zero, fz, -fy), (-fz, zero, fx), (fy, -fx, zero)]
    cols = []
    for u in mono_basis(m - f.degree + 1):
        um = HPoly.monomial(u)
        for a, b, c in triples:
            cols.append((um * a).coeff_vector() + (um * b).coeff_vector()
                        + (um * c).coeff_vector())
    return rank(QMatrix.from_rows(cols)) if cols else 0


def direct_jacobian_dim(f, t) -> int:
    """Rank of jacobian_rows(f, t): the dimension of the degree-t piece of
    the Jacobian ideal by its own elimination, which jacobian_dim replaces
    by a lower-half reading above T/2."""
    return rank(jacobian_rows(f, t))


def smooth_milnor_dim(d: int, k: int) -> int:
    """Degree-k coefficient of ((1 - t^(d-1)) / (1 - t))^3, the Milnor
    algebra Hilbert function shared by all smooth curves of degree d: the
    oracle that ct's definition compares milnor_dim against."""
    return sum((-1) ** i * c * dim_graded(k - i * (d - 1))
               for i, c in enumerate((1, 3, 3, 1)))


def line_product(lines) -> HPoly:
    """The product of the linear forms a x + b y + c z, (a, b, c) in lines."""
    x, y, z = (HPoly.variable(v) for v in "xyz")
    f = HPoly.constant(1)
    for a, b, c in lines:
        f = f * (a * x + b * y + c * z)
    return f
