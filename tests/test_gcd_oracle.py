"""gcd_many against sympy's multivariate gcd, an independent oracle that is
used by the tests only; the module is skipped when sympy is missing."""
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from syzcurve import gcd_many

from conftest import hpolys

sympy = pytest.importorskip("sympy")
X, Y, Z = sympy.symbols("x y z")


def to_sympy(f):
    return sympy.Poly.from_dict(
        {tuple(m): sympy.Rational(c.numerator, c.denominator)
         for m, c in f.terms.items()}, X, Y, Z, domain="QQ")


class TestAgainstSympy:
    @given(st.lists(hpolys(max_degree=2), min_size=2, max_size=3),
           hpolys(max_degree=2))
    @settings(max_examples=40, deadline=None)
    def test_family_with_a_common_factor(self, cofactors, h):
        family = [c * h for c in cofactors]
        want = to_sympy(family[0])
        for f in family[1:]:
            want = sympy.gcd(want, to_sympy(f))
        # both are determined up to a scalar; monic in one order fixes it
        assert to_sympy(gcd_many(family)).monic() == want.monic()
