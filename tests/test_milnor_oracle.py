"""milnor_dim against the standard monomials of a sympy Groebner basis of
the partials, an independent oracle that is used by the tests only; the
module is skipped when sympy is missing."""
import pytest
from hypothesis import assume, given, settings

from syzcurve import HPoly, gcd_many, milnor_dim, mono_basis, partials, tau

from conftest import hpolys

sympy = pytest.importorskip("sympy")
X, Y, Z = sympy.symbols("x y z")


def to_sympy(f):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * X ** m.ex * Y ** m.ey * Z ** m.ez
               for m, c in f.terms.items())


def standard_monomial_counts(f, top):
    """The number of monomials of each degree 0..top outside the leading
    terms of a grevlex Groebner basis of the partials of f: the Hilbert
    function of the Milnor algebra, by sympy."""
    gens = [to_sympy(g) for g in partials(f) if not g.is_zero()]
    basis = sympy.groebner(gens, X, Y, Z, order="grevlex", domain="QQ")
    leads = [g.monoms(order="grevlex")[0] for g in basis.polys]
    return [sum(not any(all(a >= b for a, b in zip(u, lead))
                        for lead in leads)
                for u in mono_basis(k))
            for k in range(top + 1)]


class TestAgainstSympy:
    """For a reduced curve, milnor_dim in degrees 0..T+2, T = 3(d-2), whose
    degrees above T/2 are read off the lower half: after tau, which keeps
    the kernel at T+1, and on a fresh copy, which reaches it from degree
    0 up."""

    @given(hpolys(min_degree=2, max_degree=5))
    @settings(max_examples=25, deadline=None)
    def test_random_reduced_curves(self, f):
        assume(gcd_many(partials(f)).degree == 0)
        top = 3 * (f.degree - 2) + 2
        want = standard_monomial_counts(f, top)
        fresh = HPoly(f.degree, f.terms)
        tau(f)
        assert [milnor_dim(f, k) for k in range(top + 1)] == want
        assert [milnor_dim(fresh, k) for k in range(top + 1)] == want
