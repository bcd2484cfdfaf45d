"""Local data of declared plane curve singularities.

Each supported germ type carries a closed-form minimal Arnold exponent and
local Milnor/Tjurina numbers, and reads back the text form it prints.
Declarations live on curve records; the verification routine checks them
against the exact global computations (gradient vanishing, tangent cone,
Tjurina count) and reports failures instead of raising.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ring3 import HPoly, ProjPoint, eval_at, partials
from .syzygy import tau as global_tau
from .syzygy import NotReduced


class SmoothCurve(ValueError):
    """Operation needs at least one declared singularity."""


class NonConvenient(ValueError):
    """Newton boundary does not touch both coordinate axes."""


class NotNodal(ValueError):
    """Check or criterion needs every declared singularity to be a node."""


@dataclass(frozen=True)
class SingType:
    """Singularity type: kind plus numeric parameters.

    kinds: "A" (params k>=1), "D" (k>=4), "E" (k in 6,7,8),
    "ORD" (ordinary point of multiplicity m>=3),
    "WH" (weighted homogeneous with weights (w1, w2), each in (0, 1/2]),
    "T" (the series x^2 y^2 + x^q + y^r, params (q, r), q,r >= 2).
    """
    kind: str
    params: tuple

    def __post_init__(self):
        k = self.kind
        p = self.params
        if k == "A":
            if len(p) != 1 or p[0] < 1:
                raise ValueError("A(k) needs k >= 1")
        elif k == "D":
            if len(p) != 1 or p[0] < 4:
                raise ValueError("D(k) needs k >= 4")
        elif k == "E":
            if len(p) != 1 or p[0] not in (6, 7, 8):
                raise ValueError("E(k) needs k in {6,7,8}")
        elif k == "ORD":
            if len(p) != 1 or p[0] < 3:
                raise ValueError("ordinary multiple point needs multiplicity >= 3")
        elif k == "WH":
            if len(p) != 2:
                raise ValueError("weighted homogeneous type needs two weights")
            w1, w2 = (Fraction(w) for w in p)
            if not (0 < w1 <= Fraction(1, 2) and 0 < w2 <= Fraction(1, 2)):
                raise ValueError("weights must lie in (0, 1/2]")
            mu = (1 / w1 - 1) * (1 / w2 - 1)
            if mu.denominator != 1:
                raise ValueError("weights %s, %s give non-integer local Milnor number" % (w1, w2))
        elif k == "T":
            if len(p) != 2 or p[0] < 2 or p[1] < 2:
                raise ValueError("T series needs q, r >= 2")
        else:
            raise ValueError("unknown singularity kind %r" % k)

    # constructors -----------------------------------------------------
    @staticmethod
    def A(k: int) -> "SingType":
        return SingType("A", (k,))

    @staticmethod
    def D(k: int) -> "SingType":
        return SingType("D", (k,))

    @staticmethod
    def E(k: int) -> "SingType":
        return SingType("E", (k,))

    @staticmethod
    def ordinary(m: int) -> "SingType":
        return SingType("ORD", (m,))

    @staticmethod
    def weighted(w1, w2) -> "SingType":
        return SingType("WH", (Fraction(w1), Fraction(w2)))

    @staticmethod
    def T(q: int, r: int) -> "SingType":
        return SingType("T", (q, r))

    def __str__(self):
        if self.kind in ("A", "D", "E"):
            return "%s%d" % (self.kind, self.params[0])
        if self.kind == "ORD":
            return "ORD%d" % self.params[0]
        if self.kind == "WH":
            return "WH(%s,%s)" % self.params
        return "T(2,%d,%d)" % self.params

    @staticmethod
    def parse(token: str) -> "SingType":
        """Read the form __str__ prints: A<k>, D<k>, E<k>, ORD<m>, WH(p,q)
        or T(2,q,r)."""
        head, paren, rest = token.partition("(")
        args = rest[:-1].split(",") if rest.endswith(")") else ()
        kind = head.rstrip("0123456789")
        build = {"A": SingType.A, "D": SingType.D, "E": SingType.E,
                 "ORD": SingType.ordinary}.get(kind)
        if head == "WH" and len(args) == 2:
            return SingType.weighted(*map(Fraction, args))
        if head == "T" and len(args) == 3 and args[0] == "2":
            return SingType.T(int(args[1]), int(args[2]))
        if build is not None and kind != head and not paren:
            return build(int(head[len(kind):]))
        raise ValueError("unknown singularity type %r" % token)


# the two types the genus, component and Torelli criteria are stated for
NODE = SingType.A(1)
CUSP = SingType.A(2)


@dataclass(frozen=True)
class DeclaredSing:
    """A declared singular point of a curve.

    The point is optional: singularities at non-rational coordinates are
    declared by type only and skip the point-wise verification checks.
    """
    stype: SingType
    point: Optional[ProjPoint] = None
    tangent: Optional[HPoly] = None

    def __post_init__(self):
        if self.tangent is not None:
            if self.tangent.degree != 1:
                raise ValueError("tangent must be a linear form")
            if self.point is None:
                raise ValueError("tangent declaration needs a point")
            if eval_at(self.tangent, self.point) != 0:
                raise ValueError("tangent %s does not pass through %s"
                                 % (self.tangent, self.point))


def arnold_exponent(t: SingType) -> Fraction:
    """Minimal Arnold exponent of the germ, as an exact rational."""
    k = t.kind
    p = t.params
    if k == "A":
        return Fraction(1, 2) + Fraction(1, p[0] + 1)
    if k == "D":
        return Fraction(p[0], 2 * (p[0] - 1))
    if k == "E":
        return {6: Fraction(7, 12), 7: Fraction(5, 9), 8: Fraction(8, 15)}[p[0]]
    if k == "ORD":
        return Fraction(2, p[0])
    if k == "WH":
        return Fraction(p[0]) + Fraction(p[1])
    return Fraction(1, 2)  # T series


def local_numbers(t: SingType) -> tuple:
    """Local (Milnor, Tjurina) numbers of the germ."""
    k = t.kind
    p = t.params
    if k in ("A", "D", "E"):
        return (p[0], p[0])
    if k == "ORD":
        m = p[0]
        return ((m - 1) ** 2, (m - 1) ** 2)
    if k == "WH":
        w1, w2 = (Fraction(w) for w in p)
        mu = int((1 / w1 - 1) * (1 / w2 - 1))
        return (mu, mu)
    q, r = p
    return (q + r + 1, q + r)


def alpha_curve(sings) -> Fraction:
    """Minimum Arnold exponent over the declared singularities."""
    sings = list(sings)
    if not sings:
        raise SmoothCurve("no declared singularities")
    return min(arnold_exponent(s.stype) for s in sings)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checks: tuple

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_declared(f: HPoly, sings, complete: bool = False) -> VerificationReport:
    """Check declared singularity data against exact computation.

    Runs: gradient vanishing at each declared point; at each singular one
    the tangent cone, read off the Hessian H of f there (A_k, k >= 2:
    H = c*l*l^T with c != 0, l the declared tangent if any; D_k, E_k,
    ORD_m: H = 0; not checked at A1, WH and T points); and the global
    Tjurina count against the sum of declared local Tjurina numbers.  A
    nonempty declaration is taken as complete.  An empty one claims nothing
    (a family may have singularities outside the type dictionary) unless
    `complete` is set: then it claims that the curve is smooth, and tau = 0
    is checked.
    Failures are reported, not raised.
    """
    sings = list(sings)
    checks = []
    grads = partials(f)
    hessian = None
    for i, s in enumerate(sings):
        label = "sing[%d] %s" % (i, s.stype)
        if s.point is None:
            checks.append(Check(label + " gradient", True,
                                "no rational point declared; skipped"))
            continue
        vals = [eval_at(g, s.point) for g in grads]
        ok = all(v == 0 for v in vals)
        checks.append(Check(label + " gradient", ok,
                            "gradient at %s = (%s, %s, %s)" % (s.point, *vals)))
        if not ok or s.stype == NODE or s.stype.kind in ("WH", "T"):
            continue
        if hessian is None:
            hessian = [partials(g) for g in grads]
        h = [[eval_at(g, s.point) for g in row] for row in hessian]
        line = (s.tangent.coeff_vector() if s.tangent is not None
                else next(filter(any, h), h[0]))
        # A_k: H = c*l*l^T with c != 0, that is H nonzero and each row a
        # multiple of l; D_k, E_k, ORD_m: H = 0
        ok = (any(map(any, h)) == (s.stype.kind == "A")
              and all(r[a] * line[b] == r[b] * line[a] for r in h
                      for a in range(3) for b in range(a)))
        checks.append(Check(label + " tangent cone", ok, "Hessian at %s = [%s]"
                            % (s.point, "; ".join(" ".join(map(str, r))
                                                  for r in h))))
    if sings or complete:
        declared = sum(local_numbers(s.stype)[1] for s in sings)
        try:
            computed = global_tau(f)
            checks.append(Check("tjurina total", declared == computed,
                                "declared %d, computed %d" % (declared, computed)))
        except NotReduced as e:
            checks.append(Check("reduced", False, str(e)))
    return VerificationReport(all(c.passed for c in checks), tuple(checks))


def kouchnirenko_mu(boundary, intercepts) -> int:
    """Milnor number of a convenient Newton-non-degenerate germ from its
    Newton boundary: 2*A - d1 - d2 + 1, where A is the area between the
    boundary and the axes and (d1, d2) are the axis intercepts.

    `boundary` is a sequence of lattice points (i, j); it must contain
    (d1, 0) and (0, d2).
    """
    d1, d2 = intercepts
    pts = sorted({(int(i), int(j)) for (i, j) in boundary})
    if d1 <= 0 or d2 <= 0:
        raise NonConvenient("intercepts must be positive")
    if (d1, 0) not in pts or (0, d2) not in pts:
        raise NonConvenient("boundary must touch both axes at the intercepts")
    if any(i < 0 or j < 0 for (i, j) in pts):
        raise NonConvenient("boundary points must be in the first quadrant")
    # polygon (0,0) -> (0,d2) -> ... -> (d1,0) -> (0,0); boundary points
    # ordered by increasing first coordinate, decreasing second
    chain = sorted(pts, key=lambda p: (p[0], -p[1]))
    poly = [(0, 0)] + chain
    twice_area = 0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        twice_area += x0 * y1 - x1 * y0
    twice_area = abs(twice_area)
    return twice_area - d1 - d2 + 1
