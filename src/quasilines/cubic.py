"""Exact polynomial machinery and the conic count on cubic threefolds.

Lines on a cubic hypersurface through a smooth rational point are counted
by expanding the cubic along the pencil of lines through the point, each
monomial term by term by the binomial theorem, restricting the quadratic
and cubic parts to the plane cut out by the linear part, and certifying
the count through a Sylvester resultant: a squarefree resultant of degree
6 with no solutions escaping to infinity certifies exactly six lines.
Through the classical two-points-on-a-secant correspondence this number is
the conic invariant e of the threefold.

Arithmetic is exact: integer coefficients stay integers, and a rational
appears only where the algorithm divides.  The expansion works on plain
dicts and builds one ``Poly`` per graded piece; its t^0 piece is f(p), so
it also checks that the point lies on the cubic.  The count after it runs
over the integers: the restricted forms are scaled to integer
polynomials in (s, y), and their resultant in y comes out of one
pseudo-division over Z[s] (Collins 1971; von zur Gathen and Gerhard 2013,
ch. 6).  The no-loss test is the same integer resultant, taken in s.
Squarefreeness is certified by a constant gcd of R and R' modulo a prime
p with p not dividing deg R lc R; any other case runs Euclid's algorithm
on R and R' over the rationals.  A ``Fraction`` appears only to clear the
denominators of rational input, in that rare Euclid fallback, and in the
one final division by the scales.  ``sylvester_resultant`` and
``gcd_univariate`` decide the same over ``Poly``.  Genericity is never
assumed, only detected, and failures trigger seeded resampling.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, lcm, prod

from .errors import QuasilinesError, UsageError
from .frozen import Frozen


class DimensionMismatchError(UsageError):
    """Operands live in polynomial rings with different variable counts."""


class ZeroPolynomialError(QuasilinesError, ValueError):
    """A resultant operand is zero or constant in the elimination variable."""


class NotOnHypersurfaceError(QuasilinesError, ValueError):
    """The base point does not lie on the hypersurface."""


class SingularPointError(QuasilinesError, ValueError):
    """The hypersurface is singular at the base point."""


class DegenerateError(QuasilinesError, ValueError):
    """Infinitely many solutions: the count is not defined."""


# Largest number of seeded samples one conic count certificate may draw.
CUBIC_RESAMPLE_BUDGET = 40


class RetriesExhaustedError(QuasilinesError, RuntimeError):
    """No generic sample was found within ``CUBIC_RESAMPLE_BUDGET`` samples."""


def _exact(value) -> int | Fraction:
    """Ints and Fractions as given; any other value is read through Fraction."""
    return value if type(value) in (int, Fraction) else Fraction(value)


class Poly:
    """Sparse multivariate polynomial with exact coefficients.

    Terms map exponent tuples (one entry per variable) to nonzero int or
    Fraction coefficients; ints stay ints, and any other value is read
    through Fraction.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in (terms or {}).items():
            coeff = _exact(coeff)
            if coeff != 0:
                if len(exps) != nvars:
                    raise DimensionMismatchError("exponent tuple has wrong length")
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Poly":
        exps = tuple(int(i == index) for i in range(nvars))
        return cls(nvars, {exps: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"{self.nvars} variables vs {other.nvars}"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.constant(1, self.nvars)
        for _ in range(power):
            result = result * self
        return result

    def evaluate(self, point) -> int | Fraction:
        if len(point) != self.nvars:
            raise DimensionMismatchError("evaluation point has wrong length")
        total = 0
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value *= _exact(x) ** e
            total += value
        return total

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    def coefficients_in(self, var: int) -> list["Poly"]:
        """Coefficient polynomials of var^0, var^1, ... (var eliminated)."""
        degree = self.degree_in(var)
        buckets: list[dict] = [dict() for _ in range(degree + 1)]
        for exps, coeff in self.terms.items():
            stripped = exps[:var] + (0,) + exps[var + 1:]
            buckets[exps[var]][stripped] = coeff
        return [Poly(self.nvars, b) for b in buckets]

    def active_variables(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(self.nvars) if any(e[v] for e in self.terms)
        )

    def as_univariate(self, var: int) -> list[int | Fraction]:
        """Ascending coefficient list; every other variable must be absent."""
        extra = [v for v in self.active_variables() if v != var]
        if extra:
            raise ValueError(f"polynomial also involves variables {extra}")
        coeffs = [0] * (max(self.degree_in(var), 0) + 1)
        for exps, coeff in self.terms.items():
            coeffs[exps[var]] = coeff
        return coeffs

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(exps) if e
            )
            coeff = self.terms[exps]
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(parts) + ")"


def _uni_trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _uni_rem(num: list, den: list) -> list:
    """Remainder of ascending coefficient lists, by exact rational division."""
    num = list(num)
    while len(num) >= len(den) and _uni_trim(num):
        shift = len(num) - len(den)
        factor = Fraction(num[-1], den[-1])
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        _uni_trim(num)
    return num


def gcd_univariate(p: Poly, q: Poly) -> Poly:
    """Monic gcd of two univariate polynomials over the rationals."""
    active = sorted(set(p.active_variables()) | set(q.active_variables()))
    if len(active) > 1:
        raise ValueError("gcd_univariate needs polynomials in one shared variable")
    if p.nvars != q.nvars:
        raise DimensionMismatchError("operands live in different rings")
    var = active[0] if active else 0
    a = _uni_trim(p.as_univariate(var))
    b = _uni_trim(q.as_univariate(var))
    while b:
        a, b = b, _uni_trim(_uni_rem(a, b))
    if not a:
        return Poly.zero(p.nvars)
    lead = a[-1]
    terms = {}
    for e, coeff in enumerate(a):
        if coeff:
            exps = tuple(e if i == var else 0 for i in range(p.nvars))
            terms[exps] = Fraction(coeff, lead)
    return Poly(p.nvars, terms)


def _poly_determinant(matrix: list[list[Poly]], nvars: int) -> Poly:
    """Determinant of a matrix of polynomials by column-subset expansion."""
    size = len(matrix)
    cache: dict[tuple[int, tuple[int, ...]], Poly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> Poly:
        if row == size:
            return Poly.constant(1, nvars)
        key = (row, cols)
        if key in cache:
            return cache[key]
        total = Poly.zero(nvars)
        for position, col in enumerate(cols):
            entry = matrix[row][col]
            if entry.is_zero:
                continue
            sub = minor(row + 1, cols[:position] + cols[position + 1:])
            term = entry * sub
            total = total + (term if position % 2 == 0 else -term)
        cache[key] = total
        return total

    return minor(0, tuple(range(size)))


def sylvester_resultant(p: Poly, q: Poly, var: int) -> Poly:
    """Exact determinant of the Sylvester matrix of p and q w.r.t. ``var``."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("resultant of a zero polynomial")
    p._check(q)
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m < 1 or n < 1:
        raise ZeroPolynomialError("both operands need positive degree in the variable")
    pc = p.coefficients_in(var)
    qc = q.coefficients_in(var)
    size = m + n
    zero = Poly.zero(p.nvars)
    matrix = [[zero] * size for _ in range(size)]
    for row in range(n):
        for k in range(m + 1):
            matrix[row][row + k] = pc[m - k]
    for row in range(m):
        for k in range(n + 1):
            matrix[n + row][row + k] = qc[n - k]
    return _poly_determinant(matrix, p.nvars)


class PencilExpansion(Frozen):
    """Graded pieces of a cubic along the pencil of lines through a point.

    With the direction representative fixed (the coordinate where the base
    point is nonzero is set to zero), f(p + t v) = t q1(v) + t^2 q2(v)
    + t^3 q3(v) identically.
    """

    point: tuple[int | Fraction, ...]
    pivot: int
    q1: Poly
    q2: Poly
    q3: Poly


class LineCountReport(Frozen):
    count: int
    with_multiplicity: bool
    generic: bool
    resultant_degree: int
    squarefree: bool
    no_loss_at_infinity: bool
    full_fibre_degrees: bool
    resultant: tuple[int | Fraction, ...]


def line_pencil_expansion(f: Poly, point) -> PencilExpansion:
    """Expand a cubic form along lines through a rational point of it.

    Each monomial c x^e of f is expanded term by term, on plain dicts, by
    the binomial theorem: (p_i + t v_i)^e_i = sum_k C(e_i, k) p_i^(e_i - k)
    t^k v_i^k, where only k = 0 is taken on the pivot coordinate (v_pivot
    = 0) and only k = e_i where p_i = 0.  The power of t sorts each term
    into its graded piece.  The t^0 piece is f(p), so the point lies on the
    hypersurface exactly when that piece is zero; no separate evaluation
    is made.
    """
    if f.nvars != 5:
        raise DimensionMismatchError("a cubic form in five variables is required")
    if f.total_degree() > 3:
        raise ValueError("total degree must be at most 3")
    point = tuple(_exact(x) for x in point)
    if len(point) != 5:
        raise DimensionMismatchError("the point needs five coordinates")
    if all(x == 0 for x in point):
        raise ValueError("the base point must be nonzero")
    pivot = next(i for i, x in enumerate(point) if x != 0)
    # tables[i][e] lists the kept pairs (k, C(e, k) p_i^(e - k)).
    tables = [
        [[(0, x ** e if e else 1)] if i == pivot else
         [(k, comb(e, k) * x ** (e - k)) for k in range(e) if x] + [(e, 1)]
         for e in range(4)]
        for i, x in enumerate(point)
    ]
    graded: list[dict] = [{} for _ in range(4)]
    for exps, coeff in f.terms.items():
        for combo in product(*map(list.__getitem__, tables, exps)):
            ks, factors = zip(*combo)
            piece = graded[sum(ks)]
            piece[ks] = piece.get(ks, 0) + prod(factors, start=coeff)
    parts = [Poly(5, g) for g in graded]
    if not parts[0].is_zero:
        raise NotOnHypersurfaceError("f does not vanish at the point")
    return PencilExpansion(point, pivot, parts[1], parts[2], parts[3])


# The largest prime below 2^30 (checked by trial division): a residue fits
# one CPython digit.
_SQUAREFREE_PRIME = 1_073_741_789


def _squarefree(r: list[int]) -> bool:
    """Whether the integer polynomial r (ascending, degree >= 2) is
    squarefree, that is Res(r, r') != 0, certified modulo a prime first.

    When p = ``_SQUAREFREE_PRIME`` divides neither deg r nor lc r, both
    reductions keep their formal degrees, so the Sylvester matrix of the
    reductions is the integer one mod p and Res(r, r') mod p is their
    resultant over F_p, nonzero exactly when their gcd is constant.  So a
    constant gcd mod p, by Euclid's algorithm, proves Res(r, r') != 0
    (Collins 1971; von zur Gathen and Gerhard 2013, ch. 6).  Every other
    case, "not squarefree" included, runs Euclid's algorithm on r and r'
    over the rationals (``_uni_rem``): r is squarefree exactly when the
    last nonzero remainder is a constant.  The leading coefficient is
    checked before any modular inverse.
    """
    p = _SQUAREFREE_PRIME
    derivative = [i * c for i, c in enumerate(r)][1:]
    if len(derivative) * r[-1] % p:
        a, b = [c % p for c in r], [c % p for c in derivative]
        while len(b) > 1:
            inverse = pow(b[-1], -1, p)
            while len(a) >= len(b):
                factor, shift = a[-1] * inverse % p, len(a) - len(b)
                for i, c in enumerate(b):
                    a[shift + i] = (a[shift + i] - factor * c) % p
                _uni_trim(a)
            a, b = b, a
        if b:
            return True
    a, b = r, derivative
    while b:
        a, b = b, _uni_rem(a, b)
    return len(a) == 1


def _restrict_to_plane(form: Poly, degree: int, lead, line_powers: list[dict],
                       eliminated: int, survivor: int, resultant_var: int):
    """Integer restriction of a form of ``degree`` to the plane q1 = 0 and
    to the chart = 1, in the survivor s and the resultant variable y.

    With q1 solved as x_eliminated = line / lead, where ``line_powers[k]``
    holds the terms of line^k, lead^degree times the restriction is a
    polynomial; any denominators left from rational coefficients are
    cleared by their lcm.  Returns the columns of the integer polynomial P,
    one ascending list in s per power of y, each trimmed and the last
    nonzero ([] for P = 0), and the scale, the rational factor that turns
    the restriction into P.
    """
    grid: list[list[int | Fraction]] = [[0] * (degree + 1) for _ in range(degree + 1)]
    for exps, coeff in form.terms.items():
        k = exps[eliminated]
        factor = coeff * lead ** (degree - k)
        for (i, j), c in line_powers[k].items():
            grid[j + exps[resultant_var]][i + exps[survivor]] += factor * c
    den = lcm(*(c.denominator for column in grid for c in column))
    columns = [_uni_trim([(c * den).numerator for c in column]) for column in grid]
    while columns and not columns[-1]:
        columns.pop()
    return columns, lead ** degree * den


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product of two ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _plus(*terms: list[int]) -> list[int]:
    """Sum of ascending integer coefficient lists, untrimmed."""
    out = [0] * max(map(len, terms))
    for term in terms:
        for i, x in enumerate(term):
            out[i] += x
    return out


def _resultant(p_cols: list[list[int]], q_cols: list[list[int]]) -> list[int]:
    """Ascending coefficients of Res_y(P, Q) in s, trimmed, for integer
    polynomials P, Q in (s, y) given by their columns as
    ``_restrict_to_plane`` returns them: P of degree 1 or 2 in y, whose y^2
    column is then a nonzero constant, and Q of degree n >= 1.

    For P = c + b y, Res = sum_k q_k (-c)^k b^(n - k), by Horner's rule.
    For P = c + b y + a y^2, pseudo-division gives a^(n - 1) Q = S P + r0
    + r1 y, so a^(n - 1) Res(P, Q) = Res(P, r0 + r1 y) = c r1^2 - b r0 r1
    + a r0^2, and the division by a^(n - 1) is exact (Collins 1971; von zur
    Gathen and Gerhard 2013, ch. 6).  Both are identities over Z[s], so
    the resultant comes out as a polynomial in s.
    """
    n = len(q_cols) - 1
    if len(p_cols) == 2:
        c, b = p_cols
        minus_c, res, b_power = [-x for x in c], q_cols[n], [1]
        for k in reversed(range(n)):
            b_power = _times(b_power, b)
            res = _plus(_times(res, minus_c), _times(q_cols[k], b_power))
        return _uni_trim(res)
    c, b, (a,) = p_cols
    q = list(q_cols)
    for k in range(n, 1, -1):
        lead = [-x for x in q.pop()]
        q = [[a * x for x in col] for col in q]
        q[k - 1] = _plus(q[k - 1], _times(lead, b))
        q[k - 2] = _plus(q[k - 2], _times(lead, c))
    r0, r1 = q
    res = _plus(_times(c, _times(r1, r1)), _times(b, _times(r0, [-x for x in r1])),
                [a * x for x in _times(r0, r0)])
    return _uni_trim([x // a ** (n - 1) for x in res])


def count_lines_through_point(f: Poly, point) -> LineCountReport:
    """Count the lines on the cubic through a smooth point of it.

    The linear part cuts a plane out of the direction space; the quadric
    and cubic parts restrict to a conic and a cubic there, and the count
    is certified by the degree and squarefreeness of their resultant.

    The pencil expansion also checks that the point lies on the cubic.  The
    work after it is integral.  Each restricted form is scaled to an
    integer polynomial P or Q; their resultant is computed in Z[s] by
    pseudo-division (``_resultant``) and divided once by the scales,
    Res(P, Q) = scale_P^deg Q scale_Q^deg P Res(conic, cubic).  A
    univariate R of degree >= 2 is squarefree exactly when Res(R, R') != 0:
    a constant gcd of R and R' modulo a prime p, with p not dividing
    deg R lc R, proves it, and any other case takes Euclid's algorithm over
    the rationals (``_squarefree``).  No solution escapes to infinity when
    the two leading coefficients share no root, Res(lc_P, lc_Q) != 0; a
    constant leading coefficient has no root, and otherwise lc_P is linear
    in s and ``_resultant`` takes it in s.  ``sylvester_resultant`` and
    ``gcd_univariate`` decide the same over ``Poly``.
    """
    expansion = line_pencil_expansion(f, point)
    if expansion.q1.is_zero:
        raise SingularPointError("the linear part vanishes: singular base point")
    linear = {exps.index(1): coeff for exps, coeff in expansion.q1.terms.items()}
    eliminated = min(linear)
    lead = linear[eliminated]
    chart, survivor, resultant_var = sorted(
        set(range(5)) - {expansion.pivot, eliminated}
    )
    # On the plane q1 = 0 and the chart = 1, lead * x_eliminated is the
    # line below.  q2 and q3 are homogeneous, so a form vanishes on the
    # plane exactly when it vanishes on the chart.
    line = {
        key: -linear[var]
        for var, key in ((chart, (0, 0)), (survivor, (1, 0)), (resultant_var, (0, 1)))
        if var in linear
    }
    # line^k = line^(k - 1) * line, on dicts keyed by (s, y) exponents.
    line_powers = [{(0, 0): 1}]
    for _ in range(3):
        power: dict = {}
        for (i, j), c in line_powers[-1].items():
            for (a, b), d in line.items():
                power[i + a, j + b] = power.get((i + a, j + b), 0) + c * d
        line_powers.append(power)
    axes = (eliminated, survivor, resultant_var)
    conic, conic_scale = _restrict_to_plane(expansion.q2, 2, lead, line_powers, *axes)
    cubic, cubic_scale = _restrict_to_plane(expansion.q3, 3, lead, line_powers, *axes)
    if not conic or not cubic:
        raise DegenerateError("a restricted form vanishes identically")
    d_conic, d_cubic = len(conic) - 1, len(cubic) - 1
    full_degrees = d_conic == 2 and d_cubic == 3
    if d_conic < 1 or d_cubic < 1:
        return LineCountReport(
            count=0,
            with_multiplicity=True,
            generic=False,
            resultant_degree=-1,
            squarefree=False,
            no_loss_at_infinity=False,
            full_fibre_degrees=full_degrees,
            resultant=(),
        )
    resultant = _resultant(conic, cubic)
    if not resultant:
        raise DegenerateError("resultant vanishes identically")
    degree = len(resultant) - 1
    squarefree = degree == 1 or (degree >= 2 and _squarefree(resultant))
    no_loss = (
        len(conic[-1]) == 1 or len(cubic[-1]) == 1
        or bool(_resultant([[x] for x in conic[-1]], [[x] for x in cubic[-1]]))
    )
    generic = full_degrees and degree == 6 and squarefree and no_loss
    scale = conic_scale ** d_cubic * cubic_scale ** d_conic
    return LineCountReport(
        count=degree,
        with_multiplicity=not squarefree,
        generic=generic,
        resultant_degree=degree,
        squarefree=squarefree,
        no_loss_at_infinity=no_loss,
        full_fibre_degrees=full_degrees,
        resultant=tuple(Fraction(c, scale) for c in resultant),
    )


BASE_POINT = (1, 0, 0, 0, 0)


def sample_cubic_instance(seed: int, bound: int = 9) -> tuple[Poly, tuple[int, ...]]:
    """Seeded random integer cubic through the base point (1,0,0,0,0).

    The coefficient of x0^3 is forced to zero so the base point lies on the
    hypersurface; everything stays in exact integers.
    """
    if bound < 0:
        raise UsageError("the coefficient bound must be non-negative")
    rng = random.Random(seed)
    terms = {}
    for combo in combinations_with_replacement(range(5), 3):
        exps = [0] * 5
        for i in combo:
            exps[i] += 1
        exps = tuple(exps)
        if exps == (3, 0, 0, 0, 0):
            continue
        coeff = rng.randint(-bound, bound)
        if coeff:
            terms[exps] = coeff
    return Poly(5, terms), BASE_POINT


def reducible_demo_instance() -> tuple[Poly, tuple[int, ...]]:
    """A cubic containing a plane through the base point; the count is
    degenerate by construction."""
    x1 = Poly.variable(1, 5)
    quadric = (
        Poly.variable(0, 5) ** 2
        + Poly.variable(2, 5) ** 2
        + Poly.variable(3, 5) ** 2
        + Poly.variable(4, 5) ** 2
    )
    return x1 * quadric, BASE_POINT


class ConicCountCertificate(Frozen):
    """Certified conic invariant e for a seeded cubic threefold sample."""

    seed: int
    attempt: int
    e: int
    cubic: Poly
    point: tuple[int, ...]
    report: LineCountReport


def conic_count_certificate(seed: int, bound: int = 9) -> ConicCountCertificate:
    """Count lines through a seeded smooth point, reported as the conic
    invariant e via the secant correspondence; resamples until generic."""
    for attempt in range(CUBIC_RESAMPLE_BUDGET):
        f, point = sample_cubic_instance(seed * 1000 + attempt, bound)
        try:
            report = count_lines_through_point(f, point)
        except (SingularPointError, DegenerateError):
            continue
        if report.generic:
            return ConicCountCertificate(
                seed=seed,
                attempt=attempt,
                e=report.count,
                cubic=f,
                point=point,
                report=report,
            )
    raise RetriesExhaustedError(f"no generic sample found for seed {seed} within the budget "
                                f"CUBIC_RESAMPLE_BUDGET = {CUBIC_RESAMPLE_BUDGET} attempts")
