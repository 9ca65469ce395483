"""Exact integer and rational linear algebra.

Vectors are tuples of Python ints, matrices are tuples of row tuples, and
rationals are ``fractions.Fraction`` (always reduced, positive denominator).
Everything here is immutable and every operation is pure, so values can be
shared across threads without coordination.  No floating point is used
anywhere: lattice indices, Cartier certificates and lattice-point counts are
integer-exact claims and are computed as such.  Inverses are fraction-free
integer pairs.  The Smith normal form gives the integer kernel of a
lower-dimensional cone (``fans.Fan.kernel``) and the exact rational solves
of ``solve_rational_linear``.  The module also holds the one Fourier-Motzkin
elimination routine, shared by fan validation and lattice-point counting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import QuasilinesError
from .frozen import Frozen

Vec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
FracVec = tuple[Fraction, ...]


class ZeroVectorError(QuasilinesError, ValueError):
    """An operation that needs a nonzero vector received the zero vector."""


class InfiniteIndexError(QuasilinesError, ValueError):
    """A sublattice spanned by dependent generators has infinite index."""


class NoSolutionError(QuasilinesError, ValueError):
    """The linear system A x = b is inconsistent."""


# Largest number of rows one Fourier-Motzkin level may hold.
FM_ROW_BUDGET = 200_000


class FourierMotzkinBudgetError(QuasilinesError):
    """Fourier-Motzkin elimination produced more rows than ``FM_ROW_BUDGET``."""


def _dims(a: Matrix) -> tuple[int, int]:
    if not a or not a[0]:
        raise ValueError("matrix must have at least one row and one column")
    cols = len(a[0])
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    return len(a), cols


def transpose(a: Matrix) -> Matrix:
    rows, cols = _dims(a)
    return tuple(tuple(a[i][j] for i in range(rows)) for j in range(cols))


def mat_vec(a: Matrix, v: Vec) -> Vec:
    rows, cols = _dims(a)
    if len(v) != cols:
        raise ValueError(f"cannot apply {rows}x{cols} matrix to vector of length {len(v)}")
    return _row_products(a, v)


def _row_products(a: Matrix, v: Vec) -> Vec:
    """A v for a matrix whose shape the caller has fixed: nothing is checked,
    and a short row or vector truncates."""
    return tuple(sum(map(mul, row, v)) for row in a)


def dot(u, v) -> int | Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum(x * y for x, y in zip(u, v))


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, S, V) with U*a*V = S, S diagonal and s1 | s2 | ...

    U and V are unimodular (determinant +1 or -1) and the diagonal entries
    of S are nonnegative, with the zero entries trailing.  The elimination
    runs on one bordered matrix [[a, I], [I, 0]]: an operation on its first
    ``rows`` rows acts on a and U together, one on its first ``cols``
    columns acts on a and V together, and U, S and V are read off the blocks.
    """
    rows, cols = _dims(a)
    b = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(a)]
    b += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        bi = b[i]
        for k, y in enumerate(b[j]):
            bi[k] -= q * y

    def col_sub(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        for r in b:
            r[i] -= q * r[j]

    for t in range(min(rows, cols)):
        while True:
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if b[i][j] != 0 and (best is None or abs(b[i][j]) < abs(b[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            b[t], b[i] = b[i], b[t]
            if j != t:
                for r in b:
                    r[t], r[j] = r[j], r[t]
            p = b[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if b[i][t] != 0:
                    row_sub(i, t, b[i][t] // p)
                    if b[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if b[t][j] != 0:
                    col_sub(j, t, b[t][j] // p)
                    if b[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if b[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # Pull the offending row into the pivot row; the next pass
            # produces a remainder strictly smaller than |p|.
            row_sub(t, offender, -1)
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]

    return (tuple(tuple(row[cols:]) for row in b[:rows]),
            tuple(tuple(row[:cols]) for row in b[:rows]),
            tuple(tuple(row[:cols]) for row in b[rows:]))


def primitive(v: Vec) -> Vec:
    """Divide a nonzero integer vector by the gcd of its coordinates,
    ``math.gcd(*v)``, which is nonnegative and 0 only for the zero or empty
    vector; those raise ``ZeroVectorError``."""
    g = gcd(*v)
    if g == 0:
        raise ZeroVectorError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


class LinearSolution(Frozen):
    """Exact solution of A x = b; ``unique`` means A had full column rank."""

    x: FracVec
    unique: bool


def solve_rational_linear(a: Matrix, b: Vec) -> LinearSolution:
    """Solve A x = b exactly over the rationals, through the Smith form.

    With U A V = S, the system reads S y = U b for y = V^-1 x: each y_i is
    (U b)_i / s_i on a nonzero invariant factor s_i and zero on the others,
    and x = V y.  Returns that solution and a uniqueness flag.  Raises
    ``NoSolutionError`` when some (U b)_i is nonzero on a zero factor.
    """
    rows, cols = _dims(a)
    if len(b) != rows:
        raise ValueError("right-hand side length does not match the matrix")
    u, s, v = smith_normal_form(a)
    c = mat_vec(u, b)
    y = [Fraction(0)] * cols
    rank = 0
    for i in range(rows):
        factor = s[i][i] if i < cols else 0
        if factor:
            y[i] = Fraction(c[i], factor)
            rank += 1
        elif c[i]:
            raise NoSolutionError("inconsistent linear system")
    x = tuple(sum(v[i][j] * y[j] for j in range(cols)) for i in range(cols))
    return LinearSolution(x, unique=(rank == cols))


def rational_inverse(a: Matrix) -> tuple[Matrix, int]:
    """The inverse of a square nonsingular integer matrix as (N, d).

    N is an integer matrix and d = |det a| > 0 with a N = d I, so the
    inverse is N / d.  Computed by fraction-free Gauss-Jordan elimination
    (Bareiss 1968) on [a | I]: after the step on column k every entry is a
    minor of order k + 1, so each division is exact.  A row that is 0 in
    the pivot column becomes (p x) / prev, itself when the pivot p equals
    the last one, prev; such rows are left as they are.  Raises
    ``InfiniteIndexError("matrix is singular")`` when det a = 0: the columns
    then span a sublattice of infinite index.
    """
    rows, cols = _dims(a)
    if rows != cols:
        raise ValueError("inverse of a non-square matrix")
    n = rows
    m = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            raise InfiniteIndexError("matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        pk, p = m[k], m[k][k]
        for i in range(n):
            f = m[i][k]
            if i != k and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], pk)]
        prev = p
    sign = 1 if prev > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in m), abs(prev)


Row = tuple[int, ...]


def _normalize_row(row: Row):
    """Reduce an inequality row (coeffs..., rhs); returns None (trivial),
    "infeasible", or the reduced row."""
    coeffs, rhs = row[:-1], row[-1]
    if all(c == 0 for c in coeffs):
        return "infeasible" if rhs > 0 else None
    return primitive(row)


def _fm_system(rows) -> tuple[dict[int, Row], bool]:
    """The distinct reduced rows keyed by their history, one bit per row,
    and whether an input row reads 0 >= positive."""
    distinct: set[Row] = set()
    contradiction = False
    for row in rows:
        reduced = _normalize_row(row)
        if reduced == "infeasible":
            contradiction = True
        elif reduced is not None:
            distinct.add(reduced)
    return {1 << i: row for i, row in enumerate(sorted(distinct))}, contradiction


def _within_fm_budget(rows: dict[int, Row]) -> dict[int, Row]:
    """``rows``, or ``FourierMotzkinBudgetError`` when they number more than
    ``FM_ROW_BUDGET``."""
    if len(rows) > FM_ROW_BUDGET:
        raise FourierMotzkinBudgetError(
            f"Fourier-Motzkin elimination reached {len(rows)} rows, "
            f"over the budget FM_ROW_BUDGET = {FM_ROW_BUDGET}"
        )
    return rows


def _fm_eliminate(system: dict[int, Row], var: int, depth: int) -> tuple[dict[int, Row], bool]:
    """One Fourier-Motzkin step: the rows of the projection along ``var``,
    and whether a combination read 0 >= positive (no real solution).

    ``system`` maps the history of each row, the bitmask of the input rows
    it combines, to the row; ``depth`` counts the eliminations including
    this one.  Every positive-``var`` row is combined with every negative
    one so that ``var`` cancels, and rows free of ``var`` are kept.  Two
    kinds of combination are skipped, because the other rows imply them
    (Chernikov 1965): one of more than depth + 1 input rows, and a second
    one with the same history.  Which pairs are combined depends on the
    signs of the coefficients alone, never on the right-hand sides.  Raises
    ``FourierMotzkinBudgetError`` as soon as the result, the kept rows
    first and then each new row, exceeds ``FM_ROW_BUDGET``.
    """
    pos = [(h, r) for h, r in system.items() if r[var] > 0]
    neg = [(h, r) for h, r in system.items() if r[var] < 0]
    keep = _within_fm_budget({h: r for h, r in system.items() if r[var] == 0})
    contradiction = False
    for hp, p in pos:
        for hq, q in neg:
            history = hp | hq
            if history.bit_count() > depth + 1 or history in keep:
                continue
            a, b = -q[var], p[var]
            reduced = _normalize_row(tuple(a * x + b * y for x, y in zip(p, q)))
            if reduced == "infeasible":
                contradiction = True
            elif reduced is not None:
                keep[history] = reduced
                _within_fm_budget(keep)
    return keep, contradiction


def fm_feasible(rows, dim: int) -> bool:
    """Fourier-Motzkin feasibility for the system coeffs . u >= rhs.

    Rows are integer tuples (c_1, ..., c_dim, rhs).  Exact, no floating
    point; feasibility over the reals equals feasibility over the rationals.
    Each step eliminates the variable that generates the fewest rows.
    """
    system, contradiction = _fm_system(rows)
    remaining = list(range(dim))
    depth = 0
    while remaining and not contradiction:
        var = min(
            remaining,
            key=lambda k: sum(1 for r in system.values() if r[k] > 0)
            * sum(1 for r in system.values() if r[k] < 0),
        )
        remaining.remove(var)
        depth += 1
        system, contradiction = _fm_eliminate(system, var, depth)
    return not contradiction


def fm_projections(rows, dim: int) -> tuple[list[list[Row]], bool]:
    """The projection chain of the system coeffs . u >= rhs.

    Eliminates u_{dim-1}, ..., u_1 in turn.  Entry k of the returned list
    holds reduced rows that describe the projection onto u_0 ... u_k; rows
    keep their full length, zero past position k.  The flag reports whether
    some level read 0 >= positive, so that the system has no real solution.
    Elimination goes on past such a level, and which rows are combined
    depends on the coefficients alone, so the coefficient rows of every
    level also describe the projection of the recession cone
    {u : coeffs . u >= 0}.
    """
    system, empty = _fm_system(rows)
    levels = [list(system.values())]
    for depth, var in enumerate(range(dim - 1, 0, -1), start=1):
        system, contradiction = _fm_eliminate(system, var, depth)
        empty = empty or contradiction
        levels.append(list(system.values()))
    levels.reverse()
    return levels, empty
