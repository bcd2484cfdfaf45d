"""Seeded inputs of the benchmark workloads.

Every curve is built from the public syzcurve API and a `random.Random`
seeded from the workload seed, so the same seed gives the same curves.  The
expectations attached here are derived from the construction (line
arrangements, the Thom-Sebastiani and non-Thom-Sebastiani families), not
from the code under test.
"""
from __future__ import annotations

import random
from math import comb

import syzcurve as sc

COEFFS = range(-3, 4)
TRIANGLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
LADDER_DEGREES = (7, 8, 9)
SESSION_LINE_COUNTS = (4, 5, 6)
SESSION_VARIANTS = 2
SESSION_TS_DEGREES = (5, 6, 7, 8)
SESSION_NON_TS = ((2, 2), (2, 3), (3, 2), (3, 3))


def det3(a, b, c) -> int:
    """Exact 3x3 determinant of the rows a, b, c."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def cross(a, b) -> tuple:
    """The intersection point of the lines a and b."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def is_generic(lines) -> bool:
    """No line is zero, no two coincide and no three pass through one point.

    For three or more lines the determinant test covers the first two
    conditions: a zero or repeated line makes every triple holding it
    singular.
    """
    lines = [tuple(l) for l in lines]
    if any(not any(l) for l in lines):
        return False
    if any(not any(cross(a, b)) for i, a in enumerate(lines)
           for b in lines[i + 1:]):
        return False
    n = len(lines)
    return all(det3(lines[i], lines[j], lines[k])
               for i in range(n) for j in range(i + 1, n)
               for k in range(j + 1, n))


def draw_lines(rng: random.Random, d: int) -> list:
    """d >= 3 generic lines with integer coefficients in [-3, 3]: the
    coordinate triangle and d - 3 lines drawn from rng."""
    lines = list(TRIANGLE)
    while len(lines) < d:
        cand = tuple(rng.choice(COEFFS) for _ in range(3))
        if is_generic(lines + [cand]):
            lines.append(cand)
    return lines


def line_product(lines) -> "sc.HPoly":
    x, y, z = (sc.HPoly.variable(v) for v in "xyz")
    f = sc.HPoly.constant(1)
    for a, b, c in lines:
        f = f * (a * x + b * y + c * z)
    return f


def base_lines(d: int) -> list:
    """The first d lines of one fixed generic arrangement: the coordinate
    triangle and six lines drawn once with coefficients in [-3, 3]."""
    return draw_lines(random.Random("perfbench-base"), max(LADDER_DEGREES))[:d]


def sign_changes() -> list:
    """The four coordinate sign changes (x, y, z) -> (x, +-y, +-z)."""
    return [(1, s1, s2) for s1 in (1, -1) for s2 in (1, -1)]


def transform(lines, signs) -> list:
    return [tuple(s * c for s, c in zip(signs, line)) for line in lines]


def ladder_rungs(seed: int) -> list:
    """One generic arrangement per ladder degree: [(d, lines, f)].

    Independent random arrangements of one degree differed in cost by
    1.6-1.8x, and so did coordinate permutations of one arrangement, because
    bit growth in exact elimination depends on the coefficients and on the
    pivot order.  That would swamp any regression bound.  So the seed
    picks a sign change of the coordinates of a fixed arrangement: a
    different curve whose matrices differ from the fixed one only in the
    signs of rows and columns, which fraction-free elimination does not
    notice.
    """
    rng = random.Random("ladder:%d" % seed)
    out = []
    for d in LADDER_DEGREES:
        lines = transform(base_lines(d), rng.choice(sign_changes()))
        out.append((d, lines, line_product(lines)))
    return out


def arrangement_record(name: str, lines) -> "sc.CurveRecord":
    """A generic arrangement with its C(d, 2) nodes declared at the
    pairwise intersection points."""
    d = len(lines)
    nodes = [sc.DeclaredSing(sc.SingType.A(1), sc.ProjPoint(*cross(a, b)))
             for i, a in enumerate(lines) for b in lines[i + 1:]]
    return sc.CurveRecord(name, line_product(lines), False, d, (0,) * d,
                          tuple(nodes), frozenset({"arrangement", "nodal"}),
                          own_expectations("lines", (d,)))


def own_expectations(kind: str, params: tuple) -> dict:
    """Invariants the construction fixes, independent of the library:
    tau, mdr and the freeness verdict (plus h^1 = 0 for arrangements)."""
    if kind == "lines":
        (d,) = params
        return {"tau": comb(d, 2), "mdr": d - 2, "free": d <= 3,
                "genus_h1": 0}
    if kind == "ts":
        a, b = params
        d = a + b
        return {"tau": (d - 1) * (d - 2), "mdr": 1, "free": False}
    a, b, c = params
    d = a + b + c
    out = {"mdr": min(d - b, d - c), "free": False}
    if b == 2 and c == 2:
        out["tau"] = 2 * d
    return out


def session_records(seed: int) -> list:
    """[(record, own expectations)] for the session workload: generic
    arrangements of 4, 5 and 6 lines (two sign changes of the base
    arrangement each, picked by the seed as in ladder_rungs), every
    Thom-Sebastiani curve x^a y^b + z^(a+b) with 1 <= a <= b and
    a + b in 5..8, and non_ts_family(a, 2, c) for a, c in {2, 3}."""
    rng = random.Random("session:%d" % seed)
    out = []
    for d in SESSION_LINE_COUNTS:
        for i, signs in enumerate(rng.sample(sign_changes(),
                                             SESSION_VARIANTS)):
            lines = transform(base_lines(d), signs)
            out.append((arrangement_record("lines_%d_%d" % (d, i), lines),
                        own_expectations("lines", (d,))))
    for d in SESSION_TS_DEGREES:
        for a in range(1, d // 2 + 1):
            out.append((sc.thom_sebastiani(a, d - a),
                        own_expectations("ts", (a, d - a))))
    for a, c in SESSION_NON_TS:
        out.append((sc.non_ts_family(a, 2, c),
                    own_expectations("non_ts", (a, 2, c))))
    return out


def split_identity(d: int, tau: int, r) -> bool:
    """The split test of freeness: exponents (r, d-1-r) with 2r <= d-1 and
    r(d-1-r) = (d-1)^2 - tau."""
    return (r is not None and 2 * r <= d - 1
            and r * (d - 1 - r) == (d - 1) ** 2 - tau)
