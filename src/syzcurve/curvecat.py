"""Catalog of verified example curves, parametrized families, and the
curve-file ingestion format.

Every record carries declared singularity data and a map of expected
invariant values.  The expected values were computed once with this
library, cross-checked against independent derivations (point-condition
counts, closed formulas, Newton-polygon counts), and frozen; the corpus
run recomputes them from scratch, so the catalog doubles as the
regression suite.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .ring3 import HPoly, ProjPoint, parse
from .singcat import NODE, DeclaredSing, SingType, verify_declared
from .syzygy import ar_dim


class VerificationFailed(ValueError):
    """Declared singularity data contradicts the exact computation."""


class CurveFileSyntax(SyntaxError):
    """Malformed curve file."""


@dataclass(frozen=True)
class CurveRecord:
    name: str
    f: HPoly
    irreducible: bool
    components: int
    component_genera: Optional[tuple]
    sings: tuple
    tags: frozenset = field(default_factory=frozenset)
    expected: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("components: component count must be >= 1")
        if self.irreducible and self.components != 1:
            raise ValueError(
                "irreducible: an irreducible curve has one component")
        if (self.component_genera is not None
                and len(self.component_genera) != self.components):
            raise ValueError("genera: need one genus per component")
        if self.component_genera and min(self.component_genera) < 0:
            raise ValueError("genera: a geometric genus is at least 0, got %d"
                             % min(self.component_genera))

    @property
    def degree(self) -> int:
        return self.f.degree


def _rec(name, f, irreducible, components, genera, sings, tags, expected,
         notes=""):
    return CurveRecord(name, parse(f) if isinstance(f, str) else f,
                       irreducible, components,
                       tuple(genera) if genera is not None else None,
                       tuple(sings), frozenset(tags), dict(expected), notes)


def _A1(*coords):
    return DeclaredSing(SingType.A(1), ProjPoint(*coords))


def _A2(coords=None, tangent=None):
    p = ProjPoint(*coords) if coords is not None else None
    t = parse(tangent) if tangent is not None else None
    return DeclaredSing(SingType.A(2), p, tangent=t)


def _D4(coords=None):
    p = ProjPoint(*coords) if coords is not None else None
    return DeclaredSing(SingType.D(4), p)


def thom_sebastiani(a: int, b: int) -> CurveRecord:
    """The curve x^a y^b + z^(a+b): a product of coordinate-axis powers
    plus a pure power.  Always carries a degree-1 syzygy, hence is neither
    free nor stable for degree >= 3."""
    if a < 1 or b < 1:
        raise ValueError("exponents must be positive")
    d = a + b
    f = parse("x^%d*y^%d + z^%d" % (a, b, d))
    sings = []
    alphas = []
    # local germ at (1:0:0) is y^b + z^d, at (0:1:0) is x^a + z^d
    for expo, pt, tangent in ((b, (1, 0, 0), "y"), (a, (0, 1, 0), "x")):
        if expo >= 2:
            if expo == 2:
                st = SingType.A(d - 1)
            else:
                st = SingType.weighted(Fraction(1, expo), Fraction(1, d))
            sings.append(DeclaredSing(st, ProjPoint(*pt), tangent=parse(tangent)))
            alphas.append(Fraction(1, d) + Fraction(1, expo))
    expected = {"tau": (d - 1) * (d - 2), "free": False}
    if d >= 3:
        expected.update({"mdr": 1, "ct": d - 1, "stable": False})
    if alphas:
        expected["alpha"] = min(alphas)
    return _rec("ts_%d_%d" % (a, b), f, True, 1, None, sings,
                {"family", "product-power"}, expected,
                notes="carries the degree-1 syzygy (%d*x, -%d*y, 0)" % (b, a))


def non_ts_family(a: int, b: int, c: int) -> CurveRecord:
    """The curve x^a y^b z^c + y^d + z^d (d = a+b+c), singular only at
    (1:0:0).  Its minimal relation degree is min(d-b, d-c); the class of
    y^b z^c survives in the saturation quotient at degree b+c, so the
    curve is never free."""
    if a < 2 or b < 2 or c < 2:
        raise ValueError("exponents must all be at least 2")
    d = a + b + c
    f = parse("x^%d*y^%d*z^%d + y^%d + z^%d" % (a, b, c, d, d))
    sings = []
    if b == 2 and c == 2:
        sings.append(DeclaredSing(SingType.T(d, d), ProjPoint(1, 0, 0)))
    expected = {
        "mdr": min(d - b, d - c),
        "free": False,
        "h0m_at": ((b + c, None),),   # nonzero; exact value fixture-dependent
    }
    if b == 2 and c == 2:
        expected["tau"] = 2 * d
        expected["alpha"] = Fraction(1, 2)
    return _rec("family_%d_%d_%d" % (a, b, c), f, True, 1, None, sings,
                {"family"}, expected)


def _six_node_sextic_poly() -> HPoly:
    # nodes at (1:t:t^2), t in {0,1,-1,2,-2,3}, on the conic q = xz - y^2;
    # g is a cubic meeting the conic exactly in those six points, and the
    # curve is a generic member of the square of the ideal (q, g)
    q = parse("x*z - y^2")
    g = parse("z^3 - 3*y*z^2 - 5*x*z^2 + 15*y^3 + 4*x^2*z - 12*x^2*y")
    return q * q * parse("x^2 + y^2 + z^2") + q * g * parse("x + y + z") + g * g


def _catalog_entries():
    F = Fraction
    entries = []

    entries.append(_rec(
        "triangle", "x*y*z", False, 3, (0, 0, 0),
        [_A1(1, 0, 0), _A1(0, 1, 0), _A1(0, 0, 1)],
        {"arrangement", "nodal", "free", "reducible"},
        {"tau": 3, "mdr": 1, "ct": 2, "stable": False, "free": True,
         "exponents": (1, 1), "alpha": F(1), "torelli_status": "criterion_fails",
         "genus_h1": 0, "defect_profile": (2, 0, 0, 0),
         "ar_at": ((1, 2),), "discriminant": 0},
        notes="three general lines"))

    entries.append(_rec(
        "fermat3", "x^3 + y^3 + z^3", True, 1, (1,), [],
        {"smooth", "irreducible"},
        {"tau": 0, "mdr": None, "stable": True, "free": False,
         "genus_h1": 1, "h0m_profile": (1, 3, 3, 1), "discriminant": -12}))

    entries.append(_rec(
        "fermat4", "x^4 + y^4 + z^4", True, 1, (3,), [],
        {"smooth", "irreducible"},
        {"tau": 0, "mdr": None, "stable": True, "free": False,
         "genus_h1": 3}))

    entries.append(_rec(
        "nodal_cubic", "y^2*z - x^2*(x + z)", True, 1, (0,),
        [_A1(0, 0, 1)],
        {"nodal", "irreducible"},
        {"tau": 1, "mdr": 2, "ct": 3, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "criterion_fails", "genus_h1": 0,
         "severi": 8, "moduli": 5, "obstructed": True}))

    entries.append(_rec(
        "cuspidal_cubic", "z*y^2 - x^3", True, 1, (0,),
        [_A2((0, 0, 1), "y")],
        {"cuspidal", "irreducible"},
        {"tau": 2, "mdr": 1, "ct": 2, "stable": False, "free": False,
         "alpha": F(5, 6), "ar_at": ((1, 1),)}))

    entries.append(_rec(
        "one_node_quartic", "x*y*z^2 + x^4 + y^4", True, 1, (2,),
        [_A1(0, 0, 1)],
        {"nodal", "irreducible", "torelli"},
        {"tau": 1, "mdr": 4, "ct": 6, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "torelli", "torelli_witness": 1,
         "genus_h1": 2, "h0m_profile": (0, 2, 5, 6, 5, 2, 0),
         "severi": 13, "moduli": 20, "obstructed": False}))

    entries.append(_rec(
        "two_node_sextic",
        "x^2*z^4 + y^2*z^4 + x^2*y^4 + z^2*y^4 + x^6", True, 1, (8,),
        [_A1(0, 0, 1), _A1(0, 1, 0)],
        {"nodal", "irreducible", "torelli"},
        {"tau": 2, "mdr": 7, "ct": 11, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "torelli", "torelli_witness": 2,
         "genus_h1": 8},
        notes="any factorization would force at least five intersection "
              "nodes, so tau = 2 certifies irreducibility"))

    entries.append(_rec(
        "three_node_sextic",
        "x^2*z^4 + y^2*z^4 + x^2*y^4 + y^4*z^2 + x^4*y^2 + x^4*z^2",
        True, 1, (7,),
        [_A1(0, 0, 1), _A1(0, 1, 0), _A1(1, 0, 0)],
        {"nodal", "irreducible", "torelli"},
        {"tau": 3, "mdr": 7, "ct": 11, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "torelli", "torelli_witness": 2,
         "genus_h1": 7},
        notes="three non-collinear nodes at the coordinate points"))

    entries.append(_rec(
        "six_node_sextic", _six_node_sextic_poly(), True, 1, (4,),
        [_A1(1, t, t * t) for t in (0, 1, -1, 2, -2, 3)],
        {"nodal", "irreducible", "defect"},
        {"tau": 6, "mdr": 5, "ct": 9, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "criterion_fails",
         "genus_h1": 4, "defect_profile": (5, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
        notes="six nodes on the conic x*z - y^2: they impose dependent "
              "conditions on conics (defect 1 at degree 2)"))

    entries.append(_rec(
        "collinear_octic",
        "y^2*z^2*(y-z)^2*(y^2+z^2) + x*(y*z*(y-z)*(y^4+z^4)) "
        "+ x^2*(x^6+y^6+z^6)",
        True, 1, (18,),
        [_A1(0, 0, 1), _A1(0, 1, 0), _A1(0, 1, 1)],
        {"nodal", "irreducible", "torelli"},
        {"tau": 3, "mdr": 10, "ct": 16, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "torelli", "torelli_witness": 3,
         "genus_h1": 18},
        notes="three collinear nodes on the line x = 0"))

    entries.append(_rec(
        "one_cusp_octic", "x^2*z^6 + y^3*z^5 + x^8 + y^8", True, 1, None,
        [_A2((0, 0, 1), "x")],
        {"cuspidal", "irreducible", "torelli"},
        {"tau": 2, "mdr": 11, "ct": 17, "stable": True, "free": False,
         "alpha": F(5, 6), "torelli_status": "torelli", "torelli_witness": 2},
        notes="single cusp with tangent line x = 0; the affine quadratic "
              "part at the cusp has rank one"))

    entries.append(_rec(
        "zariski_sextic", "(x^2 + y^2)^3 + (y^3 + z^3)^2", True, 1, None,
        [_A2() for _ in range(6)],
        {"cuspidal", "irreducible"},
        {"tau": 12, "mdr": 3, "ct": 7, "stable": True, "free": False,
         "alpha": F(5, 6), "discriminant": -27,
         "ar_profile": (0, 0, 0, 1)},
        notes="six cusps on the conic x^2 + y^2 = 0; none has rational "
              "coordinates, so they are declared by type only"))

    entries.append(_rec(
        "nine_d4_nonic", "(x^3 + y^3 + z^3)^3 + (x^3 + 2*y^3 + 3*z^3)^3",
        False, 3, (1, 1, 1),
        [_D4() for _ in range(9)],
        {"reducible", "heavy"},
        {"tau": 36, "mdr": 4, "ct": 11, "stable": False, "free": False,
         "alpha": F(2, 3), "ar_profile": (0, 0, 0, 0, 1, 3),
         "h0m_at": ((10, 12),)},
        notes="three smooth cubics meeting pairwise transversally in nine "
              "ordinary triple points, none rational"))

    entries.append(_rec(
        "a1_arrangement", "(x^2 - y^2)*(y^2 - z^2)*(x^2 - z^2)",
        False, 6, (0, 0, 0, 0, 0, 0),
        [_A1(0, 0, 1), _A1(0, 1, 0), _A1(1, 0, 0),
         _D4((1, 1, 1)), _D4((1, 1, -1)), _D4((1, -1, 1)), _D4((1, -1, -1))],
        {"arrangement", "free", "reducible"},
        {"tau": 19, "mdr": 2, "ct": 6, "stable": False, "free": True,
         "exponents": (2, 3), "alpha": F(2, 3)},
        notes="six lines: three double points at the coordinate vertices "
              "and four triple points"))

    entries.append(_rec(
        "dual_hesse", "(x^3 - y^3)*(y^3 - z^3)*(x^3 - z^3)",
        False, 9, (0,) * 9,
        [_D4((0, 0, 1)), _D4((0, 1, 0)), _D4((1, 0, 0)), _D4((1, 1, 1))]
        + [_D4() for _ in range(8)],
        {"arrangement", "free", "reducible", "heavy"},
        {"tau": 48, "mdr": 4, "ct": 11, "stable": False, "free": True,
         "exponents": (4, 4), "alpha": F(2, 3)},
        notes="nine lines through twelve triple points; eight of the "
              "twelve have no rational representative"))

    entries.append(_rec(
        "five_lines", "x*y*z*(x + y + z)*(x + 2*y + 3*z)",
        False, 5, (0, 0, 0, 0, 0),
        [_A1(0, 0, 1), _A1(0, 1, 0), _A1(1, 0, 0), _A1(0, 1, -1),
         _A1(0, 3, -2), _A1(1, 0, -1), _A1(3, 0, -1), _A1(1, -1, 0),
         _A1(2, -1, 0), _A1(1, -2, 1)],
        {"arrangement", "nodal", "reducible"},
        {"tau": 10, "mdr": 3, "ct": 6, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "criterion_fails", "genus_h1": 0,
         "severi": 10, "moduli": 5, "obstructed": True},
        notes="five lines in general position: ten ordinary double points"))

    entries.append(_rec(
        "two_conics", "(x^2 + y^2 - 2*z^2)*(x^2 + 2*y^2 - 3*z^2)",
        False, 2, (0, 0),
        [_A1(1, 1, 1), _A1(1, 1, -1), _A1(1, -1, 1), _A1(1, -1, -1)],
        {"nodal", "reducible"},
        {"tau": 4, "mdr": 2, "ct": 4, "stable": True, "free": False,
         "alpha": F(1), "torelli_status": "criterion_fails", "genus_h1": 0,
         "severi": 10, "moduli": 8, "obstructed": True},
        notes="two transverse conics through four rational points"))

    entries.append(_rec(
        "nine_cusp_sextic",
        "x^6 + y^6 + z^6 - 2*x^3*y^3 - 2*y^3*z^3 - 2*x^3*z^3",
        True, 1, (1,),
        [_A2((1, 1, 0), "x - y"), _A2((1, 0, 1), "x - z"),
         _A2((0, 1, 1), "y - z")] + [_A2() for _ in range(6)],
        {"cuspidal", "irreducible"},
        {"tau": 18, "mdr": 3, "ct": 7, "stable": True, "free": False,
         "alpha": F(5, 6), "torelli_status": "criterion_fails",
         "severi": 9, "moduli": 0, "obstructed": True},
        notes="the dual curve of a smooth cubic: nine cusps, three of them "
              "rational; stored as a precomputed literal"))

    ts = thom_sebastiani(2, 3)
    ts.expected.update({"tau": 12, "ct": 4, "alpha": F(8, 15)})
    entries.append(ts)

    fam = non_ts_family(2, 2, 2)
    fam.expected.update({"tau": 12, "mdr": 4, "ct": 8, "stable": True,
                         "h0m_at": ((4, 3),), "alpha": F(1, 2)})
    entries.append(fam)

    return tuple(entries)


_CATALOG = None


def catalog() -> tuple:
    """All named example curves, in a fixed order."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _catalog_entries()
    return _CATALOG


def lookup(name: str) -> CurveRecord:
    for rec in catalog():
        if rec.name == name:
            return rec
    raise KeyError("no catalog curve named %r" % name)


def verify_record(rec: CurveRecord, complete: bool = False):
    """Run the declared-data verification; raise VerificationFailed with
    the failing checks listed.  With `complete`, a record that declares no
    singularity claims a smooth curve (see verify_declared).

    A record whose declared singularities are all nodes (an empty one
    with `complete` too) must have ar_dim(f, d-2) = components - 1: with n
    nodes, tau = n and the genus sum is C(d-1, 2) - n + components - 1, so
    this is genus_sum_check's two identities, h^1 = the genus sum and
    ar_dim(f, d-2) = h^1 - (C(d-1, 2) - tau), taken together.
    """
    report = verify_declared(rec.f, rec.sings, complete)
    if not report.passed:
        raise VerificationFailed(
            "%s: %s" % (rec.name,
                        "; ".join(c.name + " -- " + c.detail
                                  for c in report.failures())))
    if (rec.sings or complete) and all(s.stype == NODE for s in rec.sings):
        d = rec.degree
        computed = ar_dim(rec.f, d - 2) + 1
        if computed != rec.components:
            raise VerificationFailed(
                "%s: the nodal curve of degree %d declares %d components, "
                "but ar_dim(f, %d) + 1 gives %d"
                % (rec.name, d, rec.components, d - 2, computed))
    return report


# ---------------------------------------------------------------------------
# curve files

def _parse_sing(chunk: str) -> DeclaredSing:
    """`(a:b:c) TYPE [tangent = l]`, read by the parsers of each part."""
    chunk = chunk.strip()
    m = re.match(r"^(\([^)]*\))\s+(\S+)(?:\s+tangent\s*=\s*(.+))?$", chunk)
    if not m:
        raise ValueError("malformed singularity declaration %r" % chunk)
    point = ProjPoint.parse(m.group(1))
    stype = SingType.parse(m.group(2))
    tangent = parse(m.group(3).strip()) if m.group(3) else None
    return DeclaredSing(stype, point, tangent=tangent)


def _parse_expect_value(text: str):
    text = text.strip()
    low = text.lower()
    if low == "none":
        return None
    if low in ("true", "false"):
        return low == "true"
    if re.match(r"^\(.*\)$", text):
        return tuple(int(p) for p in text[1:-1].split(",") if p.strip())
    if "/" in text:
        return Fraction(text)
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return int(text)


_PAIR_RE = re.compile(r"\(\s*([+-]?\d+)\s*,\s*([+-]?\d+|(?i:none))\s*\)")


def _parse_pairs(text: str, none_ok: bool) -> tuple:
    """`(k, v); (k, v); ...`, one pair or more: the form of ar_at, h0m_at.
    Where none_ok, v may be `none` (any case): "any nonzero value"."""
    pairs = [_PAIR_RE.fullmatch(chunk.strip()) for chunk in text.split(";")]
    if not all(pairs) or not none_ok and any(m[2].isalpha() for m in pairs):
        raise ValueError("expected (k, v) integer pairs separated by ';'"
                         + (", v may be none" if none_ok else ""))
    return tuple((int(m[1]), None if m[2].isalpha() else int(m[2]))
                 for m in pairs)


@contextmanager
def _field(name: str):
    """Report a ValueError or ZeroDivisionError (a bad number, point,
    singularity type, form or encoding) as a CurveFileSyntax naming the
    field it was read from."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as e:
        raise CurveFileSyntax("%s: %s" % (name, e)) from e


_FILE_KEYS = ("name", "f", "irreducible", "components", "genera", "sing")


def load_curve_file(path: str) -> CurveRecord:
    """Parse a line-oriented curve description, build the record, and run
    the declared-data verification.  The file format requires explicit
    rational points for every declared singularity and a degree of at
    least 2.  A malformed file raises CurveFileSyntax, which names the
    field at fault."""
    fields = {}
    expected = {}
    with open(path, "r", encoding="utf-8") as fh, _field("encoding"):
        lines = list(fh)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CurveFileSyntax("line %d: expected key = value" % lineno)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key.startswith("expect."):
            name = key[len("expect."):]
            with _field(key):
                expected[name] = (_parse_pairs(value, name == "h0m_at")
                                  if name in ("ar_at", "h0m_at")
                                  else _parse_expect_value(value))
        elif key in _FILE_KEYS:
            fields[key] = value
        else:
            raise CurveFileSyntax(
                "%s: unknown field; expected one of %s or expect.*"
                % (key, ", ".join(_FILE_KEYS)))
    for required in ("name", "f"):
        if required not in fields:
            raise CurveFileSyntax("missing required field %r" % required)
    with _field("f"):
        f = parse(fields["f"])
    if f.degree < 2:
        raise CurveFileSyntax("curve degree must be at least 2, got %d"
                              % f.degree)
    irreducible = fields.get("irreducible", "true").lower()
    if irreducible not in ("true", "false"):
        raise CurveFileSyntax("irreducible: expected true or false, got %r"
                              % fields["irreducible"])
    with _field("components"):
        components = int(fields.get("components", "1"))
    genera = None
    if "genera" in fields and fields["genera"].strip():
        with _field("genera"):
            genera = tuple(int(g) for g in fields["genera"].split(","))
    sings = []
    if "sing" in fields and fields["sing"].strip():
        with _field("sing"):
            sings = [_parse_sing(c) for c in fields["sing"].split(";")
                     if c.strip()]
    try:
        rec = CurveRecord(fields["name"], f, irreducible == "true",
                          components, genera, tuple(sings),
                          frozenset({"file"}), expected)
    except ValueError as e:
        # CurveRecord's own checks name the field at fault
        raise CurveFileSyntax(str(e)) from e
    # a file lists every singularity: one without a sing line claims that
    # the curve is smooth
    verify_record(rec, complete=True)
    return rec
