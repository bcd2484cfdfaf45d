"""Greatest common divisors of homogeneous polynomials in Q[x, y, z].

Strategy: gcd(g, h) is read off the Sylvester-type map
(p, q) -> p h + q g (Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, ch. 3 sec. 6).  If G = gcd(g, h) has degree e, the pairs with
p h + q g = 0 landing in degree t are exactly p = r g / G, q = -r h / G
with r of degree t - deg g - deg h + e.  So one rank in degree
deg g + deg h - 1 gives e (the rank defect is dim S_{e-1}, zero exactly
when g and h are coprime).  When e = deg h, h itself is the gcd;
otherwise in degree deg g + deg h - e the kernel is a single pair, whose p
is g / G up to a scalar, and G is the exact quotient.
The rows of the map are ring3.product_rows, integer rows u g and u h
against the monomial basis, the same exact linear algebra as everywhere
else in the package.
The gcd is returned with leading coefficient 1 in the canonical monomial
order.
"""
from __future__ import annotations

from .exactlin import in_span, kernel_basis, rank, solve
from .ring3 import HPoly, dim_graded, mult_matrix, product_rows


class AllZero(ValueError):
    """gcd of an empty or all-zero family is undefined."""


def common_degree(g: HPoly, h: HPoly) -> int:
    """Degree of gcd(g, h) for nonzero forms of positive degree, from one
    rank: the rows u h and v g of degree deg g + deg h - 1 have the rank
    defect dim S_{e-1} when e = deg gcd(g, h), so 0 means coprime."""
    m = product_rows((h, g), g.degree + h.degree - 1)
    defect = m.rows - rank(m)
    e = 0
    while dim_graded(e - 1) < defect:
        e += 1
    return e


def _gcd_pair(g: HPoly, h: HPoly) -> HPoly:
    if g.degree < h.degree:
        g, h = h, g
    if h.degree == 0:
        return HPoly.constant(1)
    e = common_degree(g, h)
    if e == 0:
        return HPoly.constant(1)
    if e == h.degree:
        return h  # h divides g
    # the single kernel pair (p, q) in degree deg g + deg h - e has
    # p = g / gcd up to a scalar, in the rows of h
    (vec,) = kernel_basis(
        product_rows((h, g), g.degree + h.degree - e).transpose())
    p = HPoly.from_coeff_vector(g.degree - e, vec[:dim_graded(g.degree - e)])
    return exact_quotient(g, p)


def gcd_many(polys) -> HPoly:
    """Gcd of a family of homogeneous polynomials, monic in canonical order.

    Zero polynomials in the family are ignored; if every member is zero the
    family has no gcd and AllZero is raised.
    """
    nonzero = [f for f in polys if not f.is_zero()]
    if not nonzero:
        raise AllZero("gcd of an all-zero family")
    g = nonzero[0]
    for f in nonzero[1:]:
        if g.degree == 0:
            break
        g = _gcd_pair(g, f)
    return g.monic()


def divides(g: HPoly, f: HPoly) -> bool:
    """Whether g divides f exactly (both homogeneous, g nonzero)."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return True
    if f.degree < g.degree:
        return False
    return in_span(f.coeff_vector(), mult_matrix(g, f.degree - g.degree))


def exact_quotient(f: HPoly, g: HPoly) -> HPoly:
    """f / g when the division is exact; raises ArithmeticError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return HPoly.zero(max(f.degree - g.degree, 0))
    k = f.degree - g.degree
    if k < 0:
        raise ArithmeticError("quotient degree would be negative")
    sol = solve(mult_matrix(g, k), f.coeff_vector())
    if sol is None:
        raise ArithmeticError("division is not exact")
    return HPoly.from_coeff_vector(k, sol)
