"""Graded syzygies of the Jacobian ideal of a reduced plane curve.

Everything here reduces to exact linear algebra on graded pieces of the
Jacobian ideal J = (f_x, f_y, f_z).  Its degree-t piece is spanned by the
generator rows u * f_i with deg u = t - d + 1, built by ring3.product_rows.
The rows forced by the trivial (Koszul) relations f_i * f_j = f_j * f_i
are left out before any elimination (jacobian_rows), so the ranks of J_t
and its annihilator in the dual of S_t, the left kernel behind saturation,
eliminate only the generators that can carry new information.  The
relation module itself needs every generator column: its degree-m piece is
the kernel of gradient_matrix(f, m), which sends a triple (a, b, c) of
degree-m forms to a f_x + b f_y + c f_z.  The trivial relations themselves
need no elimination: for a reduced curve their span has the dimension of
the Koszul complex's closed formula (koszul_dim).

The invariants are defined for reduced curves, so one gcd proves f
reduced before anything is kept for it (_certify_reduced, behind
_results), and every invariant of input that is not reduced raises
NotReduced.  For a reduced curve the Milnor algebra S/J has dimension tau
in every degree above T = 3(d-2).  So tau is read off one elimination,
the left kernel at T + 1, which saturation and freeness need anyway.

Above T/2 no wide elimination is needed, and the saturation mostly needs
no exact one.  The Hilbert function c of the singular scheme never
decreases, never exceeds tau and stops at tau from its regularity index
k* on (Eisenbud, The Geometry of Syzygies, ch. 4).
c(k) is the rank of an integer colon matrix, so a rank modulo a prime that
reaches min(dim S_k, tau) is c(k).  The essential relations of degree q
count the defect tau - c in degree 2d - 5 - q (Dimca 2013).  So the least
of them, mdr, is 2d - 4 - k*: once mdr is known, the saturation from
k* = 2d - 4 - mdr on needs no rank at all, and from 2d - 4 on it never
does (saturation_dim).  The same identity reads the Jacobian rank at every
t > T/2 off one defect at T - t < T/2 (jacobian_dim).  The defect module
sat(J)/J is self-dual about T/2 (Sernesi 2014; van Straten and Warmt
2015), which h0m_dim alone applies.

Each curve's ranks, left kernels and saturation dimensions are kept on
the polynomial itself, keyed by (kind, degree), and reused for as long as
the polynomial lives.
"""
from __future__ import annotations

from typing import NamedTuple

from .exactlin import QMatrix, _rank_mod_p, kernel_basis, rank
from .polygcd import exact_quotient, gcd_many
from .ring3 import (HPoly, Mono, dim_graded, mono_basis, _basis_index,
                    partials, product_rows)


class RelationViolated(ArithmeticError):
    """A cross-checked identity between invariants failed."""


class NotReduced(ValueError):
    """The curve has a repeated component, so its invariants are undefined."""


class SyzygyTriple(NamedTuple):
    a: HPoly
    b: HPoly
    c: HPoly


def _results(f: HPoly) -> dict:
    """The results already computed for f, keyed by (kind, degree).

    Every cached invariant starts here, so this is where a polynomial of
    degree below 2, which is no curve with a Jacobian ideal, is refused,
    and where f is proved reduced (_certify_reduced).  A polynomial that
    has results is reduced; one that is not keeps nothing, so every call
    on it raises NotReduced.
    """
    if f._results is None:
        if f.degree < 2:
            raise ValueError(
                "curve degree must be at least 2, got degree %d" % f.degree)
        _certify_reduced(f)
        f._results = {}
    return f._results


def gradient_matrix(f: HPoly, m: int) -> QMatrix:
    """Matrix of (a,b,c) -> a f_x + b f_y + c f_z from degree m triples.

    Rows follow mono_basis(m + d - 1); the columns are the blocks for f_x,
    f_y, f_z side by side, each following mono_basis(m): the transposed
    product rows of all three partials, scaled by one common integer, which
    leaves the kernel as it is.  Every column is needed where the kernel is
    the relation module (ar_basis), whose Koszul relations live in exactly
    the columns jacobian_rows leaves out.
    """
    return product_rows(partials(f), m + f.degree - 1).transpose()


def jacobian_rows(f: HPoly, t: int) -> QMatrix:
    """Integer rows spanning the degree-t piece of the Jacobian ideal,
    against mono_basis(t): the F5-pruned product rows u * f_i of the
    nonzero partials in x, y, z order (ring3.product_rows with prune).  A
    zero partial contributes no rows and leaves nothing out.
    """
    return product_rows([g for g in partials(f) if not g.is_zero()], t,
                        prune=True)


def jacobian_dim(f: HPoly, t: int) -> int:
    """Dimension of the degree-t piece of the Jacobian ideal (f_x, f_y, f_z):
    the rank of jacobian_rows(f, t), or, above T/2 (T = 3(d-2)), the same
    value read off one defect of the lower half.

    For a reduced curve the essential relations of degree q count the
    defect of the singular scheme in degree 2d - 5 - q: er_dim(f, q) =
    defect(f, 2d - 5 - q) (Dimca 2013, Syzygies of Jacobian ideals and
    defects of linear systems).  Solved for the rank with q = t - d + 1,
    dim J_t = 3 dim S_q - koszul_dim(f, q) - defect(f, T - t), where the
    defect is tau for t > T.  For 2t > T the degree T - t lies below T/2,
    where defect needs one rank and one saturation: no rank at t, and
    RelationViolated if the value leaves [0, dim S_t].
    """
    results = _results(f)
    key = ("jdim", t)
    if key not in results:
        d, top = f.degree, 3 * (f.degree - 2)
        q = t - d + 1
        if 2 * t > top:
            j = (3 * dim_graded(q) - koszul_dim(f, q)
                 - (tau(f) if t > top else defect(f, top - t)))
            if not 0 <= j <= dim_graded(t):
                raise RelationViolated(
                    "Jacobian dimension %d leaves [0, dim S_t] = [0, %d] "
                    "at degree %d, t=%d" % (j, dim_graded(t), d, t))
            results[key] = j
        else:
            results[key] = 0 if q < 0 else rank(jacobian_rows(f, t))
    return results[key]


def _jac_left_kernel(f: HPoly, t: int) -> list:
    """Basis of the annihilator of the Jacobian ideal piece inside the dual
    of the degree-t graded piece: the right kernel of jacobian_rows(f, t),
    as coprime integer rows.  Fills jacobian_dim(f, t) as well."""
    results = _results(f)
    key = ("lker", t)
    if key in results:
        return results[key]
    rows = kernel_basis(jacobian_rows(f, t))
    results[key] = rows
    results.setdefault(("jdim", t), dim_graded(t) - len(rows))
    return rows


def ar_dim(f: HPoly, m: int) -> int:
    """Dimension of the degree-m piece of the module of relations among the
    partial derivatives of f."""
    if m < 0:
        return 0
    return 3 * dim_graded(m) - jacobian_dim(f, m + f.degree - 1)


def ar_basis(f: HPoly, m: int) -> list:
    """Kernel basis of gradient_matrix(f, m) as SyzygyTriple objects."""
    results = _results(f)
    if m < 0:
        return []
    n = dim_graded(m)
    out = []
    for v in kernel_basis(gradient_matrix(f, m)):
        out.append(SyzygyTriple(
            HPoly.from_coeff_vector(m, v[:n]),
            HPoly.from_coeff_vector(m, v[n:2 * n]),
            HPoly.from_coeff_vector(m, v[2 * n:])))
    results.setdefault(("jdim", m + f.degree - 1), 3 * n - len(out))
    return out


def koszul_dim(f: HPoly, m: int) -> int:
    """Dimension of the degree-m span of the three sign-alternating relations
    built from pairs of partials: 3 dim S_{m-d+1} - dim S_{m-2d+2}.

    The formula is exact once the Koszul complex on the partials is exact
    at H_2, which holds when they share no factor: the ideal they generate
    then has depth at least 2 (Eisenbud, Commutative Algebra, ch. 17).  A
    reduced f leaves its partials no common factor, and _results refuses
    any other f (NotReduced).  Below degree d - 1 the span is 0.
    """
    _results(f)
    d = f.degree
    if m < d - 1:
        return 0
    return 3 * dim_graded(m - d + 1) - dim_graded(m - 2 * d + 2)


def er_dim(f: HPoly, m: int) -> int:
    """Dimension of the degree-m piece of the essential (non-trivial)
    relation module: ar_dim minus the span of the trivial relations."""
    k = koszul_dim(f, m)
    a = ar_dim(f, m)
    if a < k:
        raise RelationViolated("trivial relations exceed all relations at m=%d" % m)
    return a - k


def mdr(f: HPoly) -> int | None:
    """Minimal degree of a non-trivial relation; None when no such relation
    exists in degrees up to 3(d-1).  Kept on f, None included."""
    results = _results(f)
    key = ("mdr", 3 * (f.degree - 1))
    if key not in results:
        results[key] = next(
            (q for q in range(key[1] + 1) if er_dim(f, q)), None)
    return results[key]


def milnor_dim(f: HPoly, k: int) -> int:
    """Dimension of the degree-k piece of S/(f_x, f_y, f_z)."""
    return dim_graded(k) - jacobian_dim(f, k)


def _certify_reduced(f: HPoly) -> None:
    """Prove f reduced, or raise NotReduced naming its repeated components.

    A repeated factor of f divides every partial, and in characteristic 0
    f is reduced iff the partials have a constant gcd.  The pencil
    f_x + 3 f_z, f_y + 7 f_z, f_z spans the same forms as the partials,
    so it has the same gcd; when its first two members are coprime,
    gcd_many decides that with one rank (polygcd.common_degree).

    When f = prod p_i^e_i, the gcd g of the partials is prod p_i^(e_i - 1),
    so g divided by the gcd of g and its own partials is the product of
    the repeated components p_i, which is what NotReduced names.
    """
    fx, fy, fz = partials(f)
    common = gcd_many((fx + fz * 3, fy + fz * 7, fz))
    if common.degree > 0:
        repeated = exact_quotient(
            common, gcd_many((common, *partials(common))))
        raise NotReduced(
            "curve of degree %d is not reduced: it repeats the factor %s"
            % (f.degree, repeated))


def tau(f: HPoly) -> int:
    """Global Tjurina number of a reduced curve: milnor_dim at 3(d-2) + 1.

    For reduced f the Milnor algebra has dimension tau in every degree
    > 3(d-2) (Choudary and Dimca 1994; du Plessis and Wall 1999), so one
    degree is enough.  Degree 3(d-2) itself is not: there the Milnor
    algebra of a smooth curve keeps its socle, m = 1 with tau = 0.  The
    value is the dimension of the left kernel at 3(d-2) + 1, which
    saturation, freeness and the reports need too, so this is the only
    Jacobian elimination tau does.
    """
    return len(_jac_left_kernel(f, 3 * (f.degree - 2) + 1))


def ct(f: HPoly) -> int:
    """Largest q such that the Milnor algebra agrees with the smooth one in
    every degree <= q; ValueError if they agree through 3(d-2) + 1.  In
    degree k they differ by er_dim(f, k - d + 1), because the partials of
    a smooth curve have only the trivial relations, so ct = mdr + d - 2."""
    d = f.degree
    top = 3 * (d - 2) + 1
    r = mdr(f)
    if r is None or r + d - 1 > top:
        raise ValueError("Milnor algebra looks smooth through degree %d" % top)
    return r + d - 2


def _monomial_shift_index(k: int, t: int, var: int) -> list:
    """Index map: position j in mono_basis(k) -> position of x_var^(t-k) * m_j
    in mono_basis(t)."""
    dx, dy, dz = (t - k if v == var else 0 for v in range(3))
    idx = _basis_index(t)
    return [idx[Mono(ex + dx, ey + dy, ez + dz)]
            for ex, ey, ez in mono_basis(k)]


def _colon_matrix(f: HPoly, k: int) -> QMatrix:
    """The integer colon matrix in degree k, whose kernel is the degree-k
    piece of the saturation of the Jacobian ideal: for each variable x_i
    and each row l of _jac_left_kernel(f, k + N), the functional
    g -> l(x_i^N g) on mono_basis(k).

    A form g lies in the saturation exactly when g times every sufficiently
    high power of each variable lands in the ideal.  Powers of the three
    variables with exponent N are enough once k + N exceeds 3(d-2), the top
    degree where ideal and saturation can differ, so N = max(1, 3(d-2) + 1
    - k) makes a single colon computation exact.  Its rank is c(k), the
    number of conditions the singular scheme imposes in degree k.
    """
    t = k + max(1, 3 * (f.degree - 2) + 1 - k)
    lker = _jac_left_kernel(f, t)
    rows = []
    for var in range(3):
        shift = _monomial_shift_index(k, t, var)
        rows += (map(l.__getitem__, shift) for l in lker)
    return QMatrix.from_rows(rows)


def sat_basis(f: HPoly, k: int) -> list:
    """Basis of the degree-k piece of the saturation of the Jacobian ideal:
    the kernel of the colon matrix (_colon_matrix), exact."""
    colon = _colon_matrix(f, k)
    if colon.rows:
        out = [HPoly.from_coeff_vector(k, v) for v in kernel_basis(colon)]
    else:
        out = [HPoly.monomial(m) for m in mono_basis(k)]
    _results(f)[("sat", k)] = len(out)
    return out


def saturation_dim(f: HPoly, k: int) -> int:
    """Dimension of the degree-k piece of the saturation of the Jacobian
    ideal, dim S_k - c(k); kept on f.  The first of these that applies:

    - k >= k* = 2d - 4 - mdr: c(k) = tau, with no elimination, since
      er_dim(f, q) = tau - c(2d - 5 - q) (Dimca 2013) puts the least q
      with er_dim(f, q) != 0 at 2d - 4 - k*;
    - the colon rank modulo a prime, which can only drop, where it reaches
      min(dim S_k, its row count, tau);
    - sat_basis, the exact colon kernel.

    mdr is read only when it is kept on f, and as 0 until then or when it
    is None, since c(k) = tau for k >= 2d - 4 whatever mdr is.  mdr's own
    scan reaches this function through jacobian_dim and defect.
    """
    results = _results(f)
    key = ("sat", k)
    if key in results:
        return results[key]
    d = f.degree
    r = results.get(("mdr", 3 * (d - 1))) or 0
    if k >= 2 * d - 4 - r:
        results[key] = dim_graded(k) - tau(f)
        return results[key]
    m = _colon_matrix(f, k)
    bound = min(m.rows, m.cols, tau(f))
    if _rank_mod_p(m, bound) == bound:
        results[key] = dim_graded(k) - bound
    else:
        sat_basis(f, k)
    return results[key]


def h0m_dim(f: HPoly, k: int) -> int:
    """Dimension of the degree-k piece of (saturation / Jacobian ideal),
    the torsion that obstructs freeness.

    For a reduced curve this module is self-dual about T/2, T = 3(d-2):
    h0m(k) = h0m(T - k) (Sernesi 2014; van Straten and Warmt 2015).  So
    for T/2 < k <= T the value is read from degree T - k, and no wide
    saturation kernel of the upper half is eliminated.  Every other degree
    is saturation_dim(f, k) minus jacobian_dim(f, k).
    """
    top = 3 * (f.degree - 2)
    if top < 2 * k <= 2 * top:
        return h0m_dim(f, top - k)
    val = saturation_dim(f, k) - jacobian_dim(f, k)
    if val < 0:
        raise RelationViolated("saturation smaller than ideal at k=%d" % k)
    return val


def defect(f: HPoly, k: int) -> int:
    """tau(f) minus the number of conditions the singular subscheme imposes
    on forms of degree k: tau - (dim S_k - saturation_dim(f, k)), read as
    tau - milnor_dim(f, k) + h0m_dim(f, k) so that degrees above T/2 reach
    the self-dual mirror of h0m_dim instead of a saturation kernel."""
    return tau(f) - milnor_dim(f, k) + h0m_dim(f, k)
