"""Deciding whether a curve is recoverable from its logarithmic bundle.

The positive criteria work through linear systems of low-degree curves cut
out by the singular points: if such a system is nonzero and its base locus
is zero-dimensional (no common component), the curve is certified
recoverable.  Count-based shortcuts certify the same conclusion from the
number of singularities alone.  When no criterion applies the verdict is
"criterion fails" -- an explicit non-answer, not a disproof.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactlin import QMatrix, kernel_basis
from .polygcd import gcd_many
from .ring3 import HPoly, ProjPoint, eval_at, mono_basis
from .singcat import CUSP, NODE


class NotNodalCurve(ValueError):
    """Criterion needs all declared singularities to be ordinary nodes."""


class WrongSingularityTypes(ValueError):
    """Criterion needs all declared singularities to be nodes or cusps."""


class TangentNotThroughPoint(ValueError):
    """Declared tangent line does not pass through the declared point."""


@dataclass(frozen=True)
class LinearSystem:
    """Basis of the homogeneous forms of fixed degree satisfying the
    imposed point/tangency conditions."""
    degree: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def _powers(point: ProjPoint, mono_list) -> list:
    """[a^0, ..., a^k] for each coordinate a of p, k the monomials' degree."""
    k = mono_list[0].degree if mono_list else 0
    return [[a ** e for e in range(k + 1)] for a in point.coords]


def _eval_row(mono_list, point):
    """The value a^ex b^ey c^ez of each monomial at p = (a:b:c)."""
    pa, pb, pc = _powers(point, mono_list)
    return [pa[ex] * pb[ey] * pc[ez] for ex, ey, ez in mono_list]


def _tangent_direction(point: ProjPoint, tangent: HPoly) -> tuple:
    """A second point of the tangent line l through p: the cross product
    l x p, which lies on l and is not p, since (l x p) . p = 0 < p . p over
    Q.  Any second point of l spans the same derivative condition modulo
    the vanishing one (by Euler's relation, the derivative along p is a
    multiple of the value at p), so the system does not depend on which."""
    if eval_at(tangent, point) != 0:
        raise TangentNotThroughPoint(
            "tangent %s does not pass through %s" % (tangent, point))
    a, b, c = tangent.coeff_vector()
    px, py, pz = point.coords
    return (b * pz - c * py, c * px - a * pz, a * py - b * px)


def _derivative_row(mono_list, point, direction):
    """The derivative sum_i w_i d_i(m)(p) of each monomial m at p along
    w = direction, from the exponents: d_x(x^ex y^ey z^ez) is
    ex x^(ex-1) y^ey z^ez, and a zero exponent gives a zero term."""
    pa, pb, pc = _powers(point, mono_list)
    u, v, w = map(Fraction, direction)
    return [(u * ex * pa[ex - 1] * pb[ey] * pc[ez] if ex else 0)
            + (v * ey * pa[ex] * pb[ey - 1] * pc[ez] if ey else 0)
            + (w * ez * pa[ex] * pb[ey] * pc[ez - 1] if ez else 0)
            for ex, ey, ez in mono_list]


def linear_system_points(points, m: int) -> LinearSystem:
    """Forms of degree m vanishing at every given point."""
    return linear_system_cusps(points, (), m)


def linear_system_cusps(nodes, cusps, m: int) -> LinearSystem:
    """Forms of degree m vanishing at every node, and at each cusp point
    with tangent cone containing the declared cuspidal tangent (vanishing
    plus a directional-derivative condition: two linear conditions per
    cusp)."""
    monos = mono_basis(m)
    rows = [_eval_row(monos, p) for p in nodes]
    for point, tangent in cusps:
        direction = _tangent_direction(point, tangent)
        rows.append(_eval_row(monos, point))
        rows.append(_derivative_row(monos, point, direction))
    # sized by the monomials, so that with no condition every one is free
    mat = QMatrix(len(rows), len(monos), [c for row in rows for c in row])
    return LinearSystem(m, tuple(HPoly.from_coeff_vector(m, v)
                                 for v in kernel_basis(mat)))


def base_locus_zero_dim(system: LinearSystem) -> bool:
    """True when the members of the system share no curve component."""
    if not system.basis:
        return False
    return gcd_many(system.basis).degree == 0


@dataclass(frozen=True)
class TorelliVerdict:
    status: str        # "torelli" | "criterion_fails" | "dimension_obstruction"
    witness_degree: Optional[int]
    by_count: bool
    detail: str


def _first_witness(system_of, bound) -> Optional[int]:
    """The least m >= 1 with 2m < bound whose linear system system_of(m)
    is nonzero with zero-dimensional base locus, or None."""
    m = 1
    while 2 * m < bound:
        system = system_of(m)
        if system.dim > 0 and base_locus_zero_dim(system):
            return m
        m += 1
    return None


def torelli_nodal(curve) -> TorelliVerdict:
    """Witness search for a nodal curve record: find m (with 2m < d-1 for
    an irreducible curve, 2m < d-2 otherwise) such that the degree-m forms
    through the nodes are nonzero with zero-dimensional base locus.  The
    criterion is sufficient only: exhausting the search returns
    "criterion_fails", never a disproof."""
    points = []
    for s in curve.sings:
        if s.stype != NODE:
            raise NotNodalCurve("declared singularity %s is not a node" % s.stype)
        if s.point is None:
            raise NotNodalCurve("node without a declared point")
        points.append(s.point)
    if not points:
        raise NotNodalCurve("curve declares no nodes; the nodal criterion "
                            "needs a singular curve")
    d = curve.f.degree
    limit = (d - 1) if curve.irreducible else (d - 2)
    witness = _first_witness(lambda m: linear_system_points(points, m), limit)
    if witness is not None:
        return TorelliVerdict("torelli", witness, False,
                              "degree-%d system through the %d nodes has "
                              "zero-dimensional base locus"
                              % (witness, len(points)))
    return TorelliVerdict("criterion_fails", None, False,
                          "no admissible witness degree below %s/2" % limit)


def torelli_nodal_count(d: int, n: int, irreducible: bool) -> bool:
    """Count shortcut for nodal curves: n nodes with 2n < d-1 (irreducible)
    or 2n < d-2 (otherwise) always certify recoverability."""
    bound = (d - 1) if irreducible else (d - 2)
    return 2 * n < bound


def torelli_cuspidal(curve) -> TorelliVerdict:
    """Criteria for a curve record whose singularities are nodes and
    ordinary cusps only.

    First the count criterion n + 2*kappa <= 5d/12 - 1; when it certifies,
    a witness is attached if the declared data allow the search.  Otherwise
    a direct witness search over 2m < 5d/6 - 2.  Cusps declared without a
    rational point (or without a tangent) make the witness search
    unavailable.
    """
    d = curve.f.degree
    if not curve.sings:
        raise WrongSingularityTypes("curve declares no singularities; the "
                                    "node-and-cusp criteria need a singular "
                                    "curve")
    nodes = []
    cusps = []
    missing = 0
    for s in curve.sings:
        if s.stype not in (NODE, CUSP):
            raise WrongSingularityTypes(
                "declared singularity %s is neither a node nor a cusp" % s.stype)
        if s.stype == NODE and s.point is not None:
            nodes.append(s.point)
        elif s.stype == CUSP and s.point is not None and s.tangent is not None:
            cusps.append((s.point, s.tangent))
        else:
            missing += 1
    n = sum(1 for s in curve.sings if s.stype == NODE)
    kappa = len(curve.sings) - n

    def find_witness():
        return _first_witness(lambda m: linear_system_cusps(nodes, cusps, m),
                              Fraction(5 * d, 6) - 2)

    count_ok = Fraction(n + 2 * kappa) <= Fraction(5 * d, 12) - 1
    if count_ok:
        witness = find_witness() if not missing else None
        detail = "%d + 2*%d <= 5*%d/12 - 1" % (n, kappa, d)
        if witness is not None:
            detail += "; witness degree %d attached" % witness
        return TorelliVerdict("torelli", witness, True, detail)
    if missing:
        return TorelliVerdict(
            "criterion_fails", None, False,
            "count criterion fails and %d declared singularities lack the "
            "rational point/tangent data needed for a witness search" % missing)
    witness = find_witness()
    if witness is not None:
        return TorelliVerdict("torelli", witness, False,
                              "witness system of degree %d" % witness)
    return TorelliVerdict("criterion_fails", None, False,
                          "no witness degree m with 2m < 5*%d/6 - 2" % d)


def severi_dim(d: int, n: int, kappa: int) -> int:
    """Expected dimension of the family of degree-d curves with n nodes and
    kappa cusps."""
    return d * (d + 3) // 2 - n - 2 * kappa


def moduli_dim(d: int, n: int, kappa: int) -> int:
    """Dimension bound for the family of logarithmic bundles arising from
    such curves."""
    if d % 2 == 1:
        s = (d - 1) // 2
        return 12 * s * s - 3 - 4 * n - 8 * kappa
    s = d // 2
    return 12 * s * s - 12 * s - 4 * n - 8 * kappa


@dataclass(frozen=True)
class DimensionObstruction:
    family_dim: int
    bundle_family_dim: int
    detail: str


def dimension_obstruction(d: int, n: int, kappa: int) -> Optional[DimensionObstruction]:
    """Compare the two dimension counts: when the family of curves is
    strictly bigger than the family of bundles, a generic member of the
    family cannot be recovered from its bundle.  Returns None when the
    counts carry no obstruction."""
    sv = severi_dim(d, n, kappa)
    md = moduli_dim(d, n, kappa)
    if sv > md:
        return DimensionObstruction(
            sv, md,
            "curve family has dimension %d but the bundle family only %d; "
            "members of the family share bundles" % (sv, md))
    return None
