"""Numerics and cohomology of the rank-two bundle of vector fields tangent
to a reduced plane curve.

Global sections of the k-th twist are the degree-(k+1) syzygies of the
gradient; first cohomology is read off the saturation defect module; second
cohomology comes from the Euler characteristic.  Stability is decided by the
vanishing of low-degree syzygies, freeness by the vanishing of the whole
defect module (with an independent cross-check through the minimal relation
degree and the Tjurina number).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .ring3 import HPoly
from .singcat import NODE
from .syzygy import RelationViolated, ar_dim, h0m_dim, mdr, tau


class NegativeH2(ArithmeticError):
    """Euler characteristic bookkeeping produced a negative h^2."""


class NotNodal(ValueError):
    """Check is only valid for curves whose singularities are all nodes."""


@dataclass(frozen=True)
class BundleNumerics:
    """Chern and Euler numbers of the k-th twist for a degree-d curve with
    total Tjurina number tau."""
    degree: int
    tau: int
    twist: int
    c1: int
    c2: int
    chi: int
    discriminant: int


def numerics(d: int, tau_val: int, k: int = 0) -> BundleNumerics:
    """Exact Chern classes, Euler characteristic and discriminant of the
    k-th twist.  All binomials are evaluated as polynomials (no clamping at
    negative arguments)."""
    c1 = 3 - d + 2 * k
    c2 = d * d - (3 + k) * d + 3 + 3 * k + k * k - tau_val
    chi = 3 * (k + 3) * (k + 2) // 2 - (d + k + 2) * (d + k + 1) // 2 + tau_val
    disc = 4 * tau_val - 3 * (d - 1) ** 2
    return BundleNumerics(d, tau_val, k, c1, c2, chi, disc)


def h0_tangent(f: HPoly, k: int) -> int:
    """h^0 of the k-th twist: the dimension of degree-(k+1) syzygies."""
    return ar_dim(f, k + 1)


def h1_tangent(f: HPoly, k: int) -> int:
    """h^1 of the k-th twist, read from the saturation defect module in
    degree d+k.  The defect module is supported in degrees 0..3(d-2)."""
    d = f.degree
    t = d + k
    if t < 0 or t > 3 * (d - 2):
        return 0
    return h0m_dim(f, t)


def h2_tangent(f: HPoly, k: int) -> int:
    """h^2 of the k-th twist, via the Euler characteristic."""
    num = numerics(f.degree, tau(f), k)
    h2 = num.chi - h0_tangent(f, k) + h1_tangent(f, k)
    if h2 < 0:
        raise NegativeH2("chi bookkeeping gave h2 = %d < 0 at twist %d" % (h2, k))
    return h2


def is_stable(f: HPoly) -> bool:
    """Slope stability: no nonzero syzygies in degrees m <= (d-1)/2."""
    d = f.degree
    return all(ar_dim(f, m) == 0 for m in range(0, (d - 1) // 2 + 1))


def stability_sufficient(d: int, alpha: Fraction) -> bool:
    """Sufficient numeric criterion for stability in terms of the minimal
    Arnold exponent alpha of the singularities: alpha > 1/2 together with a
    degree bound (strict) depending on the parity of d."""
    alpha = Fraction(alpha)
    if alpha <= Fraction(1, 2):
        return False
    bound = Fraction(3 if d % 2 == 1 else 2, 2 * alpha - 1)
    return d > bound


@dataclass(frozen=True)
class FreenessVerdict:
    free: bool
    exponents: Optional[tuple]
    defect_module_vanishes: bool
    split_test: bool
    methods_agree: bool
    witness_degree: Optional[int]


def freeness(f: HPoly) -> FreenessVerdict:
    """Decide whether the curve is free.

    Primary method: the curve is free iff the saturation defect module
    vanishes in every degree of its support window 0..T, T = 3(d-2).  The
    module is self-dual, h0m(k) = h0m(T - k) (see h0m_dim), so only the
    lower half is scanned, from floor(T/2) down to 0, since a nonzero
    defect, if any, appears near the middle.  The witness degree is the
    first nonzero degree of that scan: the nonzero degree k <= T/2 nearest
    the middle, whose mirror T - k is nonzero too.  Cross-check: freeness
    is equivalent to r*(d-1-r) = (d-1)^2 - tau for r the minimal relation
    degree with 2r <= d-1.  The verdict is driven by the primary method;
    disagreement is recorded, not raised.

    tau itself is checked against the bounds of du Plessis and Wall: with
    r = min(mdr, d - 1) (mdr counts only non-Koszul relations, so it can
    exceed d - 1), (d-1)(d-r-1) <= tau <= (d-1)(d-r-1) + r^2, the upper
    bound less C(2r-d+2, 2) when 2r >= d.  A violation raises
    RelationViolated.
    """
    d = f.degree
    top = 3 * (d - 2)
    # with mdr kept, the scan below reads every saturation from the
    # regularity index k* = 2d - 4 - mdr on as dim S_k - tau, no rank
    r = mdr(f)
    t = tau(f)
    witness = None
    for k in range(top // 2, -1, -1):
        if h0m_dim(f, k) != 0:
            witness = k
            break
    vanishes = witness is None

    r_cap = d - 1 if r is None else min(r, d - 1)
    lower = (d - 1) * (d - r_cap - 1)
    upper = lower + r_cap ** 2 - (comb(2 * r_cap - d + 2, 2)
                                  if 2 * r_cap >= d else 0)
    if not lower <= t <= upper:
        raise RelationViolated(
            "du Plessis-Wall bounds fail at degree %d: tau = %d, r = %d, "
            "bounds %d..%d" % (d, t, r_cap, lower, upper))
    split = (r is not None and 2 * r <= d - 1
             and r * (d - 1 - r) == (d - 1) ** 2 - t)

    exponents = (r, d - 1 - r) if (vanishes and r is not None) else None
    return FreenessVerdict(vanishes, exponents, vanishes, split,
                           vanishes == split, witness)


@dataclass(frozen=True)
class GenusCheck:
    h1: int
    genus_sum: int
    matches: bool
    cross_check_ok: bool
    passed: bool


def genus_sum_check(curve) -> GenusCheck:
    """For a nodal curve record with declared component genera, h^1 of the
    (d-3)-rd twist equals the sum of the geometric genera of the
    components.  Cross-checked against the syzygy count in degree d-2.
    Raises NotNodal if a declared singularity is not an ordinary node."""
    for s in curve.sings:
        if s.stype != NODE:
            raise NotNodal("declared singularity %s is not a node" % s.stype)
    if curve.component_genera is None:
        raise NotNodal("curve record declares no component genera")
    f = curve.f
    d = f.degree
    h1 = h1_tangent(f, d - 3)
    gsum = int(sum(curve.component_genera))
    matches = h1 == gsum
    binom = (d - 1) * (d - 2) // 2
    cross = ar_dim(f, d - 2) == h1 - (binom - tau(f))
    return GenusCheck(h1, gsum, matches, cross, matches and cross)
