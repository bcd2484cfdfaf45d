"""The graded polynomial ring Q[x, y, z] and its degree pieces.

Monomials of a fixed total degree are ordered graded-lexicographically with
x > y > z; that order fixes the coordinates used by every matrix in the
package.  Homogeneous polynomials are sparse maps from monomials to nonzero
rational coefficients, with the total degree carried explicitly so that the
zero polynomial of each degree is representable.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, NamedTuple

from .exactlin import QMatrix


class ParseError(ValueError):
    """Input string does not match the polynomial grammar."""


class NotHomogeneous(ValueError):
    """Parsed polynomial mixes total degrees."""


class ZeroPolynomial(ValueError):
    """Parsed polynomial is identically zero."""


class SingularMatrix(ValueError):
    """A coordinate change matrix must be invertible."""


class Mono(NamedTuple):
    ex: int
    ey: int
    ez: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey + self.ez

    def __mul__(self, other):  # type: ignore[override]
        return Mono(self.ex + other.ex, self.ey + other.ey, self.ez + other.ez)

    def __str__(self):
        parts = []
        for name, e in zip("xyz", self):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"


def dim_graded(k: int) -> int:
    """Dimension of the degree-k piece of Q[x,y,z]: C(k+2, 2), 0 for k < 0."""
    if k < 0:
        return 0
    return (k + 2) * (k + 1) // 2


@lru_cache(maxsize=None)
def mono_basis(k: int) -> tuple:
    """All monomials of total degree k in canonical (graded-lex) order."""
    if k < 0:
        return ()
    out = []
    for ex in range(k, -1, -1):
        for ey in range(k - ex, -1, -1):
            out.append(Mono(ex, ey, k - ex - ey))
    return tuple(out)


@lru_cache(maxsize=None)
def _basis_index(k: int) -> dict:
    return {m: i for i, m in enumerate(mono_basis(k))}


class HPoly:
    """Homogeneous polynomial of a fixed total degree.

    `_results` starts as None; syzygy fills it with this curve's graded
    results, so they live exactly as long as the polynomial.  It takes no
    part in equality or hashing.
    """

    __slots__ = ("degree", "terms", "_hash", "_results")

    def __init__(self, degree: int, terms: dict):
        if degree < 0:
            raise ValueError("negative degree")
        clean = {}
        for m, c in terms.items():
            if not isinstance(m, Mono):
                m = Mono(*m)
            if m.degree != degree:
                raise NotHomogeneous(
                    "monomial %s has degree %d, expected %d" % (m, m.degree, degree))
            c = Fraction(c)
            if c:
                clean[m] = c
        self.degree = degree
        self.terms = clean
        self._hash = None
        self._results = None

    @classmethod
    def zero(cls, degree: int) -> "HPoly":
        return cls(degree, {})

    @classmethod
    def monomial(cls, m, coeff=1) -> "HPoly":
        m = Mono(*m)
        return cls(m.degree, {m: Fraction(coeff)})

    @classmethod
    def variable(cls, name: str) -> "HPoly":
        i = "xyz".index(name)
        e = [0, 0, 0]
        e[i] = 1
        return cls.monomial(Mono(*e))

    @classmethod
    def constant(cls, c) -> "HPoly":
        return cls(0, {Mono(0, 0, 0): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff_vector(self) -> list:
        """Coefficients against mono_basis(degree), canonical order."""
        return [self.terms.get(m, Fraction(0)) for m in mono_basis(self.degree)]

    @classmethod
    def from_coeff_vector(cls, degree: int, vec) -> "HPoly":
        basis = mono_basis(degree)
        if len(vec) != len(basis):
            raise ValueError("coefficient vector length mismatch")
        return cls(degree, {m: c for m, c in zip(basis, vec) if c})

    def leading_monomial(self) -> Mono:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        for m in mono_basis(self.degree):
            if m in self.terms:
                return m
        raise AssertionError("unreachable")

    def monic(self) -> "HPoly":
        lc = self.terms[self.leading_monomial()]
        if lc == 1:
            return self
        return self * (1 / lc)

    def __add__(self, other: "HPoly") -> "HPoly":
        if self.degree != other.degree:
            raise NotHomogeneous("cannot add degrees %d and %d" % (self.degree, other.degree))
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return HPoly(self.degree, terms)

    def __neg__(self) -> "HPoly":
        return HPoly(self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HPoly):
            return HPoly(self.degree + other.degree,
                         _dict_mul(self.terms, other.terms))
        c = Fraction(other)
        if not c:
            return HPoly.zero(self.degree)
        return HPoly(self.degree, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, HPoly) and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.degree, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in mono_basis(self.degree):
            c = self.terms.get(m)
            if c is None:
                continue
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if m.degree == 0:
                body = str(c)
            elif c == 1:
                body = str(m)
            else:
                body = "%s*%s" % (c, m)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "HPoly(%s)" % self


def partials(f: HPoly) -> tuple:
    """The three partial derivatives (f_x, f_y, f_z), each of degree d-1."""
    if f.degree == 0:
        raise ValueError("constant has no homogeneous partials")
    out = []
    for i in range(3):
        terms: dict = {}
        for m, c in f.terms.items():
            e = m[i]
            if e:
                lowered = list(m)
                lowered[i] = e - 1
                terms[Mono(*lowered)] = c * e
        out.append(HPoly(f.degree - 1, terms))
    return tuple(out)


def mult_matrix(g: HPoly, k: int) -> QMatrix:
    """Matrix of multiplication by g from degree k to degree k + deg g.

    Columns follow mono_basis(k), rows follow mono_basis(k + deg g).
    """
    if k < 0:
        return QMatrix(dim_graded(k + g.degree), 0, [])
    src = mono_basis(k)
    tgt_index = _basis_index(k + g.degree)
    nrows = len(tgt_index)
    ncols = len(src)
    flat = [Fraction(0)] * (nrows * ncols)
    for j, u in enumerate(src):
        for m, c in g.terms.items():
            flat[tgt_index[u * m] * ncols + j] += c
    return QMatrix(nrows, ncols, flat)


def product_rows(polys, t: int, prune: bool = False) -> QMatrix:
    """Integer rows u * g against mono_basis(t): for each g in polys in
    turn, one row per u in mono_basis(t - deg g).  All of polys are scaled
    by one common integer, the lcm of their denominators, which changes no
    rank and no kernel.

    With prune, the row u * g_j is left out when lm(g_i) divides u for an
    earlier member g_i (lm in the graded-lex order of mono_basis), the
    criterion of Faugere's F5: with u = w * lm(g_i),
    lc(g_i) * u * g_j = w * g_j * g_i - w * (g_i - lc(g_i) lm(g_i)) * g_j
    is a combination of g_i rows and of g_j rows at monomials below u, so
    by induction on j and on u the kept rows span the same space as all
    rows.  Pruning needs every member nonzero.
    """
    scale = lcm(*(c.denominator for g in polys for c in g.terms.values()))
    idx = _basis_index(t)
    ncols = len(idx)
    leads: list = []
    flat: list = []
    nrows = 0
    for g in polys:
        terms = [(m, int(c * scale)) for m, c in g.terms.items()]
        for u in mono_basis(t - g.degree):
            if any(u.ex >= l.ex and u.ey >= l.ey and u.ez >= l.ez
                   for l in leads):
                continue
            row = [0] * ncols
            for m, c in terms:
                row[idx[u * m]] = c
            flat.extend(row)
            nrows += 1
        if prune:
            leads.append(g.leading_monomial())
    return QMatrix(nrows, ncols, flat)


def eval_at(f: HPoly, p: "ProjPoint") -> Fraction:
    """Value of f at the canonical representative of p."""
    a, b, c = p.coords
    total = Fraction(0)
    for m, coef in f.terms.items():
        total += coef * a ** m.ex * b ** m.ey * c ** m.ez
    return total


def linear_change(f: HPoly, matrix) -> HPoly:
    """Substitute x_i <- sum_j m[i][j] x_j; requires an invertible 3x3 matrix."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if len(m) != 3 or any(len(r) != 3 for r in m):
        raise ValueError("expected a 3x3 matrix")
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    if det == 0:
        raise SingularMatrix("coordinate change is not invertible")
    subs = [HPoly(1, {Mono(1, 0, 0): m[i][0], Mono(0, 1, 0): m[i][1],
                      Mono(0, 0, 1): m[i][2]}) for i in range(3)]
    # cache powers of the three substituted linear forms
    pows = [[HPoly.constant(1)] for _ in range(3)]
    for i in range(3):
        for _ in range(f.degree):
            pows[i].append(pows[i][-1] * subs[i])
    result = HPoly.zero(f.degree)
    for mono, c in f.terms.items():
        term = pows[0][mono.ex] * pows[1][mono.ey] * pows[2][mono.ez]
        result = result + term * c
    return result


class ProjPoint:
    """Point of the projective plane, stored by its canonical representative
    (first nonzero coordinate scaled to 1)."""

    __slots__ = ("coords",)

    def __init__(self, a, b, c):
        v = (Fraction(a), Fraction(b), Fraction(c))
        for lead in v:
            if lead:
                self.coords = tuple(w / lead for w in v)
                return
        raise ValueError("(0:0:0) is not a projective point")

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "(%s:%s:%s)" % self.coords

    def __repr__(self):
        return "ProjPoint%s" % (self.coords,)


# ---------------------------------------------------------------------------
# parser
#
# expr     := ('+'|'-')? term (('+'|'-') term)*
# term     := factor ('*'? factor)*
# factor   := base ('^' uint)?
# base     := rational | 'x' | 'y' | 'z' | '(' expr ')'
# rational := int ('/' uint)?
# ---------------------------------------------------------------------------

_VAR_MONO = {"x": Mono(1, 0, 0), "y": Mono(0, 1, 0), "z": Mono(0, 0, 1)}


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()xyz":
                self.toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise ParseError("unexpected character %r" % ch)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok


def _parse_expr(ts: _Tokens) -> dict:
    sign = 1
    if ts.peek() in ("+", "-"):
        sign = -1 if ts.take() == "-" else 1
    acc = _scale(_parse_term(ts), sign)
    while ts.peek() in ("+", "-"):
        sign = -1 if ts.take() == "-" else 1
        for m, c in _parse_term(ts).items():
            s = acc.get(m, 0) + sign * c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return acc


def _parse_term(ts: _Tokens) -> dict:
    acc = _parse_factor(ts)
    while True:
        nxt = ts.peek()
        if nxt == "*":
            ts.take()
            acc = _dict_mul(acc, _parse_factor(ts))
        elif nxt is not None and (nxt in "xyz(" or nxt[0].isdigit()):
            acc = _dict_mul(acc, _parse_factor(ts))
        else:
            return acc


def _parse_factor(ts: _Tokens) -> dict:
    base = _parse_base(ts)
    if ts.peek() == "^":
        ts.take()
        e = ts.take()
        if not e.isdigit():
            raise ParseError("exponent must be a nonnegative integer, got %r" % e)
        n = int(e)
        acc = {Mono(0, 0, 0): Fraction(1)}
        for _ in range(n):
            acc = _dict_mul(acc, base)
        return acc
    return base


def _parse_base(ts: _Tokens) -> dict:
    tok = ts.take()
    if tok == "(":
        inner = _parse_expr(ts)
        if ts.take() != ")":
            raise ParseError("missing closing parenthesis")
        return inner
    if tok in _VAR_MONO:
        return {_VAR_MONO[tok]: Fraction(1)}
    if tok[0].isdigit():
        num = int(tok)
        if ts.peek() == "/":
            ts.take()
            den = ts.take()
            if not den.isdigit() or int(den) == 0:
                raise ParseError("denominator must be a positive integer")
            return {Mono(0, 0, 0): Fraction(num, int(den))}
        return {Mono(0, 0, 0): Fraction(num)}
    raise ParseError("unexpected token %r" % tok)


def _scale(d: dict, s: int) -> dict:
    return d if s == 1 else {m: -c for m, c in d.items()}


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 * m2
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def parse(text: str) -> HPoly:
    """Parse a homogeneous polynomial in x, y, z with rational coefficients."""
    ts = _Tokens(text)
    if ts.peek() is None:
        raise ParseError("empty input")
    d = _parse_expr(ts)
    if ts.peek() is not None:
        raise ParseError("trailing input at token %r" % ts.peek())
    if not d:
        raise ZeroPolynomial("polynomial is identically zero")
    degrees = {m.degree for m in d}
    if len(degrees) != 1:
        raise NotHomogeneous("mixed total degrees %s" % sorted(degrees))
    return HPoly(degrees.pop(), d)
