"""Exact linear algebra over the rationals.

Dense matrices with Fraction entries, eliminated fraction-free over the
integers (per-row denominator clearing, then integer row combinations with
content stripping).  The one kernel routine, kernel_basis, eliminates the
sparsest columns first and back-substitutes in integers, returning coprime
integer rows; solve makes Fractions only of the one solution it returns.
No floating point is used anywhere; every rank, kernel and membership
answer is exact.  A rank taken modulo a prime (_rank_mod_p) is a lower
bound, which callers accept only where it meets an upper bound they know:
rank accepts it where it reaches min(rows, cols), and eliminates over Q
only where it falls short.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd


class QMatrix:
    """Dense rational matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                "expected %d entries, got %d" % (rows * cols, len(entries)))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rowlists) -> "QMatrix":
        rowlists = [list(r) for r in rowlists]
        nrows = len(rowlists)
        ncols = len(rowlists[0]) if rowlists else 0
        flat = []
        for r in rowlists:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    def row(self, i: int) -> list:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def transpose(self) -> "QMatrix":
        flat = []
        for j in range(self.cols):
            for i in range(self.rows):
                flat.append(self.entries[i * self.cols + j])
        return QMatrix(self.cols, self.rows, flat)

    def augment_column(self, col) -> "QMatrix":
        col = list(col)
        if len(col) != self.rows:
            raise ValueError("column length mismatch")
        flat = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.append(col[i])
        return QMatrix(self.rows, self.cols + 1, flat)

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return "QMatrix(%d, %d)" % (self.rows, self.cols)


def _integer_rows(rows) -> list:
    """Each rational row scaled by the lcm of its denominators to integers
    (row scaling preserves rank and kernel).  A row whose entries are all
    ints, as Jacobian rows and integer kernels are, is taken as it is, not
    copied."""
    out = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            out.append(row)
            continue
        den = 1
        for v in row:
            d = v.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        if den == 1:
            out.append([int(v) for v in row])
        else:
            out.append([int(v * den) for v in row])
    return out


def _echelon(rows, ncols):
    """In-place fraction-free row echelon form on integer rows.

    Pivot choice: in the current column, the nonzero entry of smallest
    bit-size wins; ties go to the lowest row index.  Each updated row is
    divided by its integer content, which keeps entry growth in check
    without ever leaving exact integer arithmetic.  A row below the pivot is
    already zero left of the pivot column, so it is combined with the pivot
    row only from that column on.

    Returns (rank, pivot_cols).
    """
    nrows = len(rows)
    rank = 0
    pivot_cols = []
    for c in range(ncols):
        if rank == nrows:
            break
        best = -1
        best_bits = -1
        for i in range(rank, nrows):
            a = rows[i][c]
            if a:
                bits = a.bit_length() if a > 0 else (-a).bit_length()
                if best < 0 or bits < best_bits:
                    best, best_bits = i, bits
        if best < 0:
            continue
        if best != rank:
            rows[rank], rows[best] = rows[best], rows[rank]
        rp = rows[rank]
        piv = rp[c]
        tail = rp[c:]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if not f:
                continue
            g = gcd(piv, f)
            a, b = piv // g, f // g
            new = [a * x - b * y for x, y in zip(ri[c:], tail)]
            ct = gcd(*new)
            if ct > 1:
                new = [x // ct for x in new]
            ri[c:] = new
        pivot_cols.append(c)
        rank += 1
    return rank, pivot_cols


def rank(m: QMatrix) -> int:
    """Rank of m, exact: min(rows, cols) when the rank modulo a prime, a
    lower bound (_rank_mod_p), reaches it, else by elimination over Q."""
    rows = _integer_rows(m.row(i) for i in range(m.rows))
    full = min(m.rows, m.cols)
    ints = QMatrix(m.rows, m.cols, [x for row in rows for x in row])
    if _rank_mod_p(ints, full) == full:
        return full
    r, _ = _echelon(rows, m.cols)
    return r


def kernel_basis(m: QMatrix) -> list:
    """A basis of the right kernel {v : m v = 0} as coprime integer rows,
    each positive in its free column.

    The elimination runs on a copy of m whose columns are stably sorted by
    ascending nonzero count, so the sparsest columns are eliminated first;
    the vectors are mapped back to m's columns.  There is one vector per
    free column of that order, carrying 0 in the other free columns, so
    the basis spans the kernel of m but is not the one read off m's own
    reduced echelon form.

    Back-substitution runs in integers: each vector is kept as integer
    numerators over one common denominator, on its solved support only (the
    free column and the nonzero pivot values found so far).  The numerators
    are multiplied through only when a pivot does not divide the
    accumulated sum.
    """
    columns = [m.entries[j::m.cols] for j in range(m.cols)]
    order = sorted(range(m.cols),
                   key=lambda j: m.rows - columns[j].count(0))
    rows = _integer_rows(list(r) for r in zip(*(columns[j] for j in order)))
    rank_, pivot_cols = _echelon(rows, m.cols)
    pivset = set(pivot_cols)
    basis = []
    for fc in (j for j in range(m.cols) if j not in pivset):
        cols, nums, den = [fc], [1], 1
        # echelon rows are triangular on the pivot columns; solve upwards
        for r in range(rank_ - 1, -1, -1):
            row = rows[r]
            acc = 0
            for j, n in zip(cols, nums):
                coef = row[j]
                if coef:
                    acc += coef * n
            if not acc:
                continue
            # v[pc] = -acc / (den * piv); scale by piv / g unless piv | acc
            piv = row[pivot_cols[r]]
            g = gcd(acc, piv)
            if g != abs(piv):
                mul = piv // g
                nums = [n * mul for n in nums]
                den *= mul
                piv = g
            cols.append(pivot_cols[r])
            nums.append(-(acc // piv))
        # gcd(*nums) divides den == nums[0]; dividing by it, with the sign
        # of den, leaves coprime integers positive in the free column
        g = gcd(*nums)
        if den < 0:
            g = -g
        v = [0] * m.cols
        for j, n in zip(cols, nums):
            v[order[j]] = n // g
        basis.append(v)
    return basis


def _rank_mod_p(m: QMatrix, bound: int) -> int:
    """min(bound, rank of the integer matrix m modulo the prime 2^61 - 1).

    Reducing modulo a prime can only lose rank, so this is a lower bound on
    rank(m); a caller that knows bound >= rank(m) and finds it reached has
    the exact rank, and otherwise has to eliminate over Q.  Rows are
    reduced one at a time, kept sparse, from their least nonzero column up,
    so the elimination stops at the first row that reaches bound; a pivot
    row, scaled to 1, updates only the entries where it is nonzero.
    Entries are reduced modulo p only where a row becomes a pivot or a
    multiplier is read off.
    """
    p = (1 << 61) - 1
    pivots = {}     # pivot column -> the pivot row's (column, value) pairs
    for i in range(m.rows):
        if len(pivots) >= bound:
            break
        v = {j: x for j, x in enumerate(m.row(i)) if x}
        cols = list(v)  # v's columns in ascending order, fill-in included
        k = 0
        while k < len(cols):
            c = cols[k]
            k += 1
            a = v[c] % p
            if not a:
                continue
            if c not in pivots:
                inv = pow(a, -1, p)
                pivots[c] = [(j, v[j] * inv % p) for j in cols[k:]
                             if v[j] % p]
                break
            for j, y in pivots[c]:
                if j in v:
                    v[j] -= a * y
                else:
                    v[j] = -a * y
                    insort(cols, j)
    return min(len(pivots), bound)


def in_span(v, m: QMatrix) -> bool:
    """Whether vector v lies in the column span of m."""
    v = list(v)
    if len(v) != m.rows:
        raise ValueError("vector length %d does not match %d rows" % (len(v), m.rows))
    base = rank(m)
    return rank(m.augment_column(v)) == base


def solve(m: QMatrix, v) -> list | None:
    """One solution x of m x = v, or None when v is outside the column span."""
    v = list(v)
    if len(v) != m.rows:
        raise ValueError("vector length mismatch")
    aug = m.augment_column([-w for w in v])
    for vec in kernel_basis(aug):
        t = vec[m.cols]
        if t:
            return [Fraction(w, t) for w in vec[:m.cols]]
    return None
