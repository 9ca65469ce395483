"""Tests for exact polynomials, resultants and the conic count pipeline."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from conftest import (
    compose,
    compose_pencil_expansion,
    derivative,
    determinant,
    fraction_line_count,
    fraction_plane_restriction,
)
from quasilines import cubic
from quasilines.cli import run
from quasilines.cubic import (
    BASE_POINT,
    DegenerateError,
    LineCountReport,
    NotOnHypersurfaceError,
    Poly,
    SingularPointError,
    ZeroPolynomialError,
    conic_count_certificate,
    count_lines_through_point,
    gcd_univariate,
    line_pencil_expansion,
    reducible_demo_instance,
    sample_cubic_instance,
    sylvester_resultant,
    _SQUAREFREE_PRIME,
    _resultant,
    _squarefree,
)
from quasilines.errors import QuasilinesError


def var(i, nvars):
    return Poly.variable(i, nvars)


class TestPolyArithmetic:
    def test_difference_of_squares(self):
        x, y = var(0, 2), var(1, 2)
        assert (x + y) * (x - y) == x * x - y * y

    def test_derivative(self):
        x = var(0, 1)
        assert derivative(x ** 3, 0) == 3 * x * x

    def test_gcd_univariate(self):
        x = var(0, 1)
        one = Poly.constant(1, 1)
        g = gcd_univariate(x * x - one, x * x - 2 * x + one)
        assert g == x - one
        assert compose(x * x - one, [one]).is_zero

    def test_evaluate(self):
        x, y = var(0, 2), var(1, 2)
        p = 2 * x * x * y - y + Poly.constant(5, 2)
        assert p.evaluate((Fraction(1, 2), 3)) == Fraction(2 * 3, 4) - 3 + 5

    def test_substitute(self):
        x, y = var(0, 2), var(1, 2)
        p = x * x + y
        assert compose(p, [y, y]) == y * y + y


class TestSylvesterResultant:
    def test_linear_pair(self):
        x, a, b = var(0, 3), var(1, 3), var(2, 3)
        res = sylvester_resultant(x - a, x - b, 0)
        assert res in (a - b, b - a)

    def test_coprime_quadratics(self):
        x = var(0, 1)
        res = sylvester_resultant(x * x - Poly.constant(2, 1), x * x - Poly.constant(3, 1), 0)
        assert res == Poly.constant(1, 1)

    def test_common_root_detected(self):
        x = var(0, 1)
        one = Poly.constant(1, 1)
        res = sylvester_resultant(x * x - one, x - one, 0)
        assert res.is_zero

    def test_generic_conic_cubic_degree(self):
        rng = random.Random(17)
        x, y = var(0, 2), var(1, 2)
        for _ in range(5):
            conic = Poly(2, {
                (2, 0): rng.randint(1, 5), (1, 1): rng.randint(-5, 5),
                (0, 2): rng.randint(1, 5), (1, 0): rng.randint(-5, 5),
                (0, 1): rng.randint(-5, 5), (0, 0): rng.randint(-5, 5),
            })
            cubic = Poly(2, {
                (3, 0): rng.randint(1, 5), (0, 3): rng.randint(1, 5),
                (2, 1): rng.randint(-5, 5), (1, 2): rng.randint(-5, 5),
                (2, 0): rng.randint(-5, 5), (0, 2): rng.randint(-5, 5),
                (1, 1): rng.randint(-5, 5), (1, 0): rng.randint(-5, 5),
                (0, 1): rng.randint(-5, 5), (0, 0): rng.randint(-5, 5),
            })
            res = sylvester_resultant(conic, cubic, 0)
            assert res.degree_in(1) <= 6

    def test_zero_rejected(self):
        x = var(0, 1)
        with pytest.raises(ZeroPolynomialError):
            sylvester_resultant(x, Poly.zero(1), 0)
        with pytest.raises(ZeroPolynomialError):
            sylvester_resultant(x, Poly.constant(4, 1), 0)


class TestLinePencilExpansion:
    def test_monomial_cubic(self):
        f = var(0, 5) ** 2 * var(1, 5) + var(0, 5) * var(2, 5) ** 2 + var(3, 5) ** 3
        expansion = line_pencil_expansion(f, (1, 0, 0, 0, 0))
        assert expansion.pivot == 0
        assert expansion.q1 == var(1, 5)
        assert expansion.q2 == var(2, 5) ** 2
        assert expansion.q3 == var(3, 5) ** 3

    def test_not_on_hypersurface(self):
        f = var(0, 5) ** 3
        with pytest.raises(NotOnHypersurfaceError):
            line_pencil_expansion(f, (1, 0, 0, 0, 0))

    @pytest.mark.parametrize("point", [
        (1, 1, 0, 0, 0),
        (Fraction(1, 2), Fraction(1, 3), 0, 0, 0),
    ])
    def test_off_the_surface_raises_from_the_t0_piece(self, point):
        # f(p) = 1 and 1/12: the t^0 piece of the expansion is f(p).
        f = var(0, 5) ** 2 * var(1, 5) + var(2, 5) ** 3
        for call in (line_pencil_expansion, count_lines_through_point):
            with pytest.raises(NotOnHypersurfaceError,
                               match="^f does not vanish at the point$"):
                call(f, point)

    def test_count_makes_no_separate_evaluation(self, monkeypatch):
        calls = []
        evaluate = Poly.evaluate
        monkeypatch.setattr(Poly, "evaluate",
                            lambda self, point: calls.append(1) or evaluate(self, point))
        for seed in range(10):
            count_lines_through_point(*sample_cubic_instance(seed))
        assert calls == []

    def test_identity_by_substitution(self):
        rng = random.Random(8)
        for seed in range(4):
            f, point = sample_cubic_instance(seed)
            expansion = line_pencil_expansion(f, point)
            for _ in range(50):
                t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
                v[expansion.pivot] = Fraction(0)
                shifted = tuple(pi + t * vi for pi, vi in zip(point, v))
                expected = (
                    t * expansion.q1.evaluate(v)
                    + t ** 2 * expansion.q2.evaluate(v)
                    + t ** 3 * expansion.q3.evaluate(v)
                )
                assert f.evaluate(shifted) == expected

    def test_gradient_pairing(self):
        f, point = sample_cubic_instance(11)
        expansion = line_pencil_expansion(f, point)
        rng = random.Random(0)
        for _ in range(20):
            v = [rng.randint(-5, 5) for _ in range(5)]
            v[expansion.pivot] = 0
            gradient = sum(
                derivative(f, i).evaluate(point) * v[i] for i in range(5)
            )
            assert expansion.q1.evaluate(v) == gradient


class TestCountLines:
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_cubics_have_six_lines(self, seed):
        certificate = conic_count_certificate(seed)
        assert certificate.e == 6
        report = certificate.report
        assert report.generic
        assert report.resultant_degree == 6
        assert report.squarefree
        assert not report.with_multiplicity
        assert len(report.resultant) == 7

    def test_reducible_cubic_is_degenerate(self):
        f, point = reducible_demo_instance()
        with pytest.raises(DegenerateError):
            count_lines_through_point(f, point)

    def test_singular_point(self):
        f = var(0, 5) * var(1, 5) ** 2 + var(2, 5) ** 3
        with pytest.raises(SingularPointError):
            count_lines_through_point(f, (1, 0, 0, 0, 0))

    def test_restricted_form_constant_along_the_pencil(self):
        # The conic or the cubic has degree 0 in the resultant variable, so
        # no resultant is formed and the count is 0.
        f, point = sample_cubic_instance(66, 1)
        assert count_lines_through_point(f, point) == LineCountReport(
            count=0, with_multiplicity=True, generic=False, resultant_degree=-1,
            squarefree=False, no_loss_at_infinity=False, full_fibre_degrees=False,
            resultant=(),
        )

    def test_leading_coefficients_decided_by_gcd(self):
        # Both leading coefficients are nonconstant and coprime, so the
        # no-loss test takes the branch that compares their roots.
        f, point = sample_cubic_instance(16, 2)
        assert count_lines_through_point(f, point) == LineCountReport(
            count=5, with_multiplicity=False, generic=False, resultant_degree=5,
            squarefree=True, no_loss_at_infinity=True, full_fibre_degrees=False,
            resultant=(2, -2, -3, -3, 4, 2),
        )
        conic, cubic_form, _, resultant_var = fraction_plane_restriction(f, point)
        leads = [form.coefficients_in(resultant_var)[form.degree_in(resultant_var)]
                 for form in (conic, cubic_form)]
        assert all(lc.total_degree() > 0 for lc in leads)
        assert gcd_univariate(*leads).total_degree() == 0

    def test_determinism(self):
        first = conic_count_certificate(3)
        second = conic_count_certificate(3)
        assert first.cubic == second.cubic
        assert first.report == second.report

    def test_bezout_bound(self):
        for seed in range(3):
            certificate = conic_count_certificate(seed)
            assert certificate.report.resultant_degree <= 2 * 3


class TestNumberPolicy:
    """Integers stay integers; a rational appears only at an exact division."""

    @pytest.mark.parametrize("value", [0.5, "1/2", Fraction(1, 2)])
    def test_other_coefficients_read_through_fraction(self, value):
        coeff = Poly(1, {(1,): value}).terms[(1,)]
        assert type(coeff) is Fraction and coeff == Fraction(1, 2)

    def test_gcd_divides_exactly(self):
        x = var(0, 1)
        one = Poly.constant(1, 1)
        g = gcd_univariate(3 * x - one, (3 * x - one) * (x + 2 * one))
        assert g.terms == {(1,): 1, (0,): Fraction(-1, 3)}

    @pytest.mark.parametrize("seed", range(20))
    def test_sampled_cubics_expand_over_the_integers(self, seed):
        f, point = sample_cubic_instance(seed)
        expansion = line_pencil_expansion(f, point)
        for form in (f, expansion.q1, expansion.q2, expansion.q3):
            assert all(type(c) is int for c in form.terms.values()), form


CUBIC_MONOMIALS = [
    tuple(combo.count(i) for i in range(5))
    for combo in combinations_with_replacement(range(5), 3)
    if combo != (0, 0, 0)
]


@st.composite
def integer_cubics(draw):
    """Integer cubics through BASE_POINT whose linear part has a lead that
    does not divide it, so the plane substitution mixes int and Fraction."""
    coeff = st.integers(-9, 9)
    terms = {exps: draw(coeff) for exps in CUBIC_MONOMIALS}
    # q1 is read off the x0^2 x_i coefficients and x1 is eliminated.
    lead = draw(st.integers(2, 9)) * draw(st.sampled_from([1, -1]))
    terms[(2, 1, 0, 0, 0)] = lead
    terms[(2, 0, 1, 0, 0)] = draw(coeff.filter(lambda c: c % lead))
    return terms


def _count_or_error(f):
    try:
        return count_lines_through_point(f, BASE_POINT)
    except QuasilinesError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(integer_cubics())
def test_fraction_coefficients_give_the_same_count(terms):
    as_ints = _count_or_error(Poly(5, terms))
    as_fractions = _count_or_error(Poly(5, {e: Fraction(c) for e, c in terms.items()}))
    note(repr(as_ints))
    assert as_ints == as_fractions


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def rational_cubics_through_points(draw):
    """``Fraction`` cubics through a rational point whose pivot, its first
    nonzero coordinate, is not x0, so every binomial term of the other
    nonzero coordinates enters the expansion."""
    pivot = draw(st.integers(1, 4))
    point = [0] * pivot + [draw(RATIONALS.filter(bool))]
    point += [draw(RATIONALS) for _ in range(4 - pivot)]
    terms = {exps: draw(RATIONALS) for exps in [(3, 0, 0, 0, 0), *CUBIC_MONOMIALS]}
    # Subtract f(p) / p_pivot^3 times x_pivot^3, so that f(p) = 0.
    cube = tuple(3 * (i == pivot) for i in range(5))
    terms[cube] -= Poly(5, terms).evaluate(point) / point[pivot] ** 3
    return terms, tuple(point)


def taylor_terms(f, point, pivot):
    """q1 = grad f(p).v, q2 = v^T H_f(p) v / 2 and q3 = f(v), v_pivot = 0."""
    free = [i for i in range(5) if i != pivot]
    unit = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    q1 = {unit[i]: derivative(f, i).evaluate(point) for i in free}
    q2 = {
        tuple(a + b for a, b in zip(unit[i], unit[j])):
            derivative(derivative(f, i), j).evaluate(point) / (1 + (i == j))
        for i in free for j in free if i <= j
    }
    q3 = {e: c for e, c in f.terms.items() if e[pivot] == 0}
    return tuple(Poly(5, q) for q in (q1, q2, q3))


def _typed(poly):
    return {e: (type(c), str(c)) for e, c in poly.terms.items()}


def _expansion_matches_oracles(f, point):
    expansion = line_pencil_expansion(f, point)
    parts = (expansion.q1, expansion.q2, expansion.q3)
    assert [_typed(q) for q in parts] == [_typed(q) for q in compose_pencil_expansion(f, point)]
    assert parts == taylor_terms(f, point, expansion.pivot)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    integer_cubics().map(lambda terms: (terms, BASE_POINT)),
    rational_cubics_through_points(),
))
def test_expansion_matches_compose_and_taylor_terms(case):
    terms, point = case
    _expansion_matches_oracles(Poly(5, terms), point)


def test_expansion_matches_compose_on_seeded_samples():
    for seed in range(300):
        for attempt in (0, 1):
            _expansion_matches_oracles(*sample_cubic_instance(seed * 1000 + attempt))


# SHA-256 of the report bytes of ``cubic --seed s`` for s = 0..19, recorded
# when every coefficient was a Fraction: the bytes must not depend on the
# coefficient type.
GOLDEN_REPORT_DIGESTS = [
    "dbf7382cdd824c69318c3faf2955956f973e363b578444e9bc5ad43479cdfd55",
    "8064c18680e28f4ba94e7c65eca40515e807807290e69d563839640cf10b81fe",
    "4f4cb6700ec7727fc4fa1e2232e37140fc735d90ddf7035ff046b8d1d9327b26",
    "d586a44a915ce47c9ad3a97ce157388367eb70a8f676c18418ea4409e9f0cc9b",
    "753d36556ff8e957062ac2a10c43546ab2438d5bf95f2b4d65d50fd8ecb7918f",
    "aa536f7150e520aeb1e23f739cdd2550e10501fb958be09fbd686566c008a661",
    "7685561a86bffed571ad81b6b241661388bbd19d1d55c79de13358cdb10b34d7",
    "d72f96d3e6316ba49a53e6f023987751c6da2539ec8fa7e1367ba4a2c6378abd",
    "543a27c770aff3dabd851b4aa423130aea803bf9068cb3de95a69e297638819c",
    "7c337d83656ecdbe46135da80bea4acb6b3d1541d765a1057a23dea9d46b0f46",
    "a18c2b389f34d080964df7f4793036579b65c5a5aa6f6ad3a74be3dac9db964a",
    "ee666386ddfdc128cd3f9792a78c12771aeb2a0479c348984b5e4a3ad33ea26a",
    "41a19e5a6c4ecc7181fc90f6c7e50fb79108b0947fc922ccd37dd79f928dd395",
    "0b71e975d0e9cda6f73d20beb3c55d746bb55ffd946952e004969387a0a39f78",
    "7306abfadb87d9994455adfd6cf66385797ed99139935addf27faed8d8de6c5a",
    "e2a270d151cf09ab150240ca80f51b9cc71518af7e48e7cd30abb43dacda80d3",
    "c900e0945955e35f9624278bfd78546c32a53325dd88760b8b1890d4f7827b6c",
    "48b302f84c864fd4d5e8e0fb2835c67181633191b1c295da31991b14a2da3404",
    "3bf51a4ec44e3aaeaaa013172cdd1a2c34a76f7ad39efd920ff53cee8980c668",
    "22c6b9dda9bd07c8de6a232b8b572d1f366af952fb852d74a151855488e9cefa",
]


@pytest.mark.parametrize("seed", range(len(GOLDEN_REPORT_DIGESTS)))
def test_cubic_report_bytes_are_pinned(seed):
    code, out = run(["cubic", "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORT_DIGESTS[seed]


def _times(a, b):
    """Product of two ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trimmed(coeffs):
    """An ascending coefficient list without its trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return coeffs


def _recorded(monkeypatch, name, shape):
    """Record ``shape(*args)`` for every call of the ``cubic`` helper
    ``name``, which still runs."""
    calls = []
    exact = getattr(cubic, name)
    monkeypatch.setattr(cubic, name,
                        lambda *args: calls.append(shape(*args)) or exact(*args))
    return calls


def _branch_calls(monkeypatch):
    """(degree of P in y, degree of Q in y) for every ``_resultant`` call:
    degree 1 takes the Horner sum, degree 2 the pseudo-division."""
    return _recorded(monkeypatch, "_resultant", lambda p, q: (len(p) - 1, len(q) - 1))


def _remainder_calls(monkeypatch):
    """Operand lengths of every ``_uni_rem`` call, the exact Euclid steps."""
    return _recorded(monkeypatch, "_uni_rem", lambda num, den: (len(num), len(den)))


def _integer_polys(degree, coeff=st.integers(-9, 9)):
    """Ascending integer coefficient lists of exactly ``degree``."""
    return st.lists(coeff, min_size=degree, max_size=degree).flatmap(
        lambda low: coeff.filter(bool).map(lambda lead: low + [lead]))


@st.composite
def squarefree_cases(draw):
    """Integer polynomials of degree 2..8: plain draws with small or large
    coefficients, a forced repeated factor g^2 h, two roots that agree
    modulo ``_SQUAREFREE_PRIME`` ((x - a)(x - a - k p) h), and a leading
    coefficient that the prime divides."""
    p = _SQUAREFREE_PRIME
    kind = draw(st.sampled_from(["plain", "square", "collision", "lead"]))
    if kind == "plain":
        wide = st.one_of(st.integers(-9, 9), st.integers(-2 * p, 2 * p))
        return draw(st.integers(2, 8).flatmap(lambda d: _integer_polys(d, wide)))
    if kind == "square":
        g = draw(st.integers(1, 2).flatmap(_integer_polys))
        h = draw(st.integers(0, 8 - 2 * (len(g) - 1)).flatmap(_integer_polys))
        return _times(_times(g, g), h)
    h = draw(st.integers(0, 6).flatmap(_integer_polys))
    if kind == "collision":
        a, k = draw(st.integers(-5, 5)), draw(st.integers(-3, 3).filter(bool))
        return _times(_times([-a, 1], [-a - k * p, 1]), h)
    r = _times(draw(st.integers(1, 2).flatmap(_integer_polys)), h)
    while len(r) < 3:
        r = _times(r, [draw(st.integers(-3, 3)), 1])
    r[-1] *= p * draw(st.integers(1, 3))
    return r


@st.composite
def resultant_pairs(draw):
    """Column lists (P, Q) in the shape ``_restrict_to_plane`` returns:
    ascending integer lists in s, one per power of y, the last one nonzero.
    P is linear in y, or a conic whose y^2 column is a nonzero constant; Q
    has 2..4 columns.  Coefficients are small or up to 2^70 in size."""
    coeff = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))
    column = st.lists(coeff, max_size=3).map(_trimmed)
    lead = column.filter(bool)
    p = draw(st.one_of(
        st.tuples(column, lead),
        st.tuples(column, column, coeff.filter(bool).map(lambda a: [a])),
    ))
    q = draw(st.integers(1, 3).flatmap(lambda n: st.tuples(*[column] * n, lead)))
    return list(p), list(q)


def _columns_poly(cols):
    """The polynomial in (s, y) = (x0, x1) with the given columns."""
    return Poly(2, {(i, j): c for j, col in enumerate(cols) for i, c in enumerate(col)})


def _sylvester_matrix(p, q):
    """Sylvester matrix of two ascending integer coefficient lists: deg q
    shifted rows of p, then deg p shifted rows of q."""
    m, n = len(p) - 1, len(q) - 1
    return ([[0] * r + p[::-1] + [0] * (n - 1 - r) for r in range(n)]
            + [[0] * r + q[::-1] + [0] * (m - 1 - r) for r in range(m)])


class TestIntegerKernels:
    """The integer helpers of the count path against exact oracles."""

    @settings(max_examples=300, deadline=None)
    @given(resultant_pairs())
    def test_resultant_matches_sylvester_resultant(self, case):
        p, q = case
        res = _resultant(p, q)
        assert all(type(c) is int for c in res)
        oracle = sylvester_resultant(_columns_poly(p), _columns_poly(q), 1)
        assert res == _trimmed(oracle.as_univariate(0))

    def test_conic_cubic_closed_form_is_the_resultant(self):
        # a^(n - 1) Q = S P + r0 + r1 y, and then a^(n - 1) Res(P, Q)
        # = c r1^2 - b r0 r1 + a r0^2 in Z[a, b, c, q0..q3], n = 1, 2, 3.
        a, b, c, y, *qs = (var(i, 8) for i in range(8))
        p = c + b * y + a * y ** 2
        f1 = a * qs[2] - qs[3] * b
        pseudo_divisions = {
            1: (Poly.zero(8), qs[0], qs[1]),
            2: (qs[2], a * qs[0] - qs[2] * c, a * qs[1] - qs[2] * b),
            3: (a * qs[3] * y + f1, a * a * qs[0] - f1 * c,
                a * (a * qs[1] - qs[3] * c) - f1 * b),
        }
        for n, (quotient, r0, r1) in pseudo_divisions.items():
            q = sum((qs[k] * y ** k for k in range(1, n + 1)), qs[0])
            assert a ** (n - 1) * q == quotient * p + r0 + r1 * y
            assert (a ** (n - 1) * sylvester_resultant(p, q, 3)
                    == c * r1 * r1 - b * r0 * r1 + a * r0 * r0)

    def test_linear_resultant_is_the_horner_sum(self):
        # Res(c + b y, Q) = sum_k q_k (-c)^k b^(n - k) in Z[b, c, q0..q3].
        b, c, y, *qs = (var(i, 7) for i in range(7))
        for n in (1, 2, 3):
            q = sum((qs[k] * y ** k for k in range(1, n + 1)), qs[0])
            expected = sum((qs[k] * (-c) ** k * b ** (n - k) for k in range(1, n + 1)),
                           qs[0] * b ** n)
            assert sylvester_resultant(c + b * y, q, 2) == expected

    @settings(max_examples=300, deadline=None)
    @given(squarefree_cases())
    def test_squarefree_matches_the_integer_determinant(self, r):
        # Res(r, r') != 0 by the conftest determinant, which shares no step
        # with the modular certificate or the Euclid fallback.
        r_prime = [i * c for i, c in enumerate(r)][1:]
        assert _squarefree(r) == (determinant(_sylvester_matrix(r, r_prime)) != 0)

    @pytest.mark.parametrize("r,squarefree,fallbacks", [
        # (p x + 1)^2: p divides the leading coefficient, where both
        # reductions lose their degree and read as coprime.
        (_times([1, _SQUAREFREE_PRIME], [1, _SQUAREFREE_PRIME]), False, 1),
        # (x - 1)(x - 1 - p): distinct roots that agree modulo p.
        (_times([-1, 1], [-1 - _SQUAREFREE_PRIME, 1]), True, 1),
        # (x - 1)^2 (x + 2)
        (_times(_times([-1, 1], [-1, 1]), [2, 1]), False, 1),
        # x^2 - 2 and (x - 1)(x - 2)(x + 3) are certified modulo p alone.
        ([-2, 0, 1], True, 0),
        (_times(_times([-1, 1], [-2, 1]), [3, 1]), True, 0),
    ])
    def test_squarefree_falls_back_to_the_determinant(self, monkeypatch, r, squarefree,
                                                      fallbacks):
        # The fallback is one exact Euclid run, which starts on (r, r').
        calls = _remainder_calls(monkeypatch)
        assert _squarefree(r) is squarefree
        assert calls[:1] == [(len(r), len(r) - 1)] * fallbacks
        assert [num for num, _ in calls] == sorted({num for num, _ in calls}, reverse=True)

    def test_squarefree_prime_is_the_largest_below_2_to_the_30(self):
        # A composite p could make pow(lc, -1, p) raise, and a constant gcd
        # modulo p would no longer prove anything.
        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

        assert is_prime(_SQUAREFREE_PRIME)
        assert not any(map(is_prime, range(_SQUAREFREE_PRIME + 1, 2 ** 30)))


@st.composite
def sparse_cubics(draw):
    """Integer cubics through BASE_POINT with mostly zero coefficients: they
    reach the singular point and both degenerate raises."""
    coeff = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1])
    return {exps: draw(coeff) for exps in CUBIC_MONOMIALS}


def _same_count(f, point):
    """The integer count path and the ``Fraction`` oracle agree: equal
    reports, each resultant coefficient printing alike, or equal error
    classes."""
    outcomes = []
    for count in (count_lines_through_point, fraction_line_count):
        try:
            outcomes.append(count(f, point))
        except QuasilinesError as exc:
            outcomes.append(type(exc))
    ours, oracle = outcomes
    assert ours == oracle
    if isinstance(ours, LineCountReport):
        assert [str(c) for c in ours.resultant] == [str(c) for c in oracle.resultant]


@settings(max_examples=80, deadline=None)
@given(st.one_of(integer_cubics(), sparse_cubics()), st.integers(1, 6))
def test_integer_count_matches_fraction_oracle(terms, denominator):
    _same_count(Poly(5, terms), BASE_POINT)
    _same_count(Poly(5, {e: Fraction(c) for e, c in terms.items()}), BASE_POINT)
    # Rational coefficients leave denominators for the lcm to clear.
    _same_count(Poly(5, {e: Fraction(c, denominator + i % 3)
                         for i, (e, c) in enumerate(sorted(terms.items()))}), BASE_POINT)


# Bound-1 samples reach every branch of the count: seed 56 has a degree-1
# resultant, 66 forms none, 254 and 362 lose a root at infinity, and 738
# and 3006 give the two degenerate raises.
BOUND_1_SEEDS = [*range(40), 56, 66, 254, 362, 738, 3006]


# Seeds 208 and 239 resample once at bound 9.
@pytest.mark.parametrize("seed,bound", [
    *((seed * 1000 + attempt, 9) for seed in range(30) for attempt in range(4)),
    (208000, 9), (208001, 9), (239000, 9), (239001, 9),
    *((seed, 1) for seed in BOUND_1_SEEDS),
])
def test_seeded_count_matches_fraction_oracle(seed, bound):
    _same_count(*sample_cubic_instance(seed, bound))


def test_seeded_counts_certify_squarefree_modulo_the_prime(monkeypatch):
    # Each bound-9 count has full degrees, so it takes one pseudo-division
    # of the cubic by the conic; the modular certificate decides the
    # squarefree test with no exact Euclid step, and no-loss reads a
    # constant leading coefficient.
    branches, remainders = _branch_calls(monkeypatch), _remainder_calls(monkeypatch)
    for seed in range(30):
        for attempt in range(4):
            report = count_lines_through_point(*sample_cubic_instance(seed * 1000 + attempt, 9))
            assert report.generic
    assert branches == [(2, 3)] * 120
    assert remainders == []


@pytest.mark.parametrize("seed,shapes", [
    # The cubic is linear in y: a pseudo-division with n = 1, no step.
    (0, ([(2, 1)], [])),
    # The conic is linear in y: the Horner sum.
    (9, ([(1, 3)], [])),
    # Full degrees, and R is not squarefree: exact Euclid on R and R',
    # down to the linear gcd.
    (31, ([(2, 3)], [(7, 6), (6, 5), (5, 4), (4, 3), (3, 2)])),
    # Both leading coefficients are linear in s, so the no-loss test takes
    # the Horner sum in s.
    (42, ([(1, 2), (1, 1)], [])),
])
def test_lower_degrees_fall_back_to_the_determinant(monkeypatch, seed, shapes):
    """Bound-1 counts below full degrees, or off the modular certificate,
    pinned to the ``_resultant`` branches and the exact Euclid steps they
    take."""
    branches, remainders = _branch_calls(monkeypatch), _remainder_calls(monkeypatch)
    count_lines_through_point(*sample_cubic_instance(seed, 1))
    assert (branches, remainders) == shapes


def test_bound_1_seeds_reach_every_branch():
    outcomes = set()
    for seed in BOUND_1_SEEDS:
        try:
            report = count_lines_through_point(*sample_cubic_instance(seed, 1))
        except QuasilinesError as exc:
            outcomes.add(str(exc))
            continue
        outcomes.add((min(report.resultant_degree, 2), report.squarefree,
                      report.no_loss_at_infinity))
    assert outcomes == {
        "a restricted form vanishes identically",
        "resultant vanishes identically",
        "the linear part vanishes: singular base point",
        (-1, False, False), (1, True, True), (2, True, True),
        (2, False, True), (2, True, False), (2, False, False),
    }


# SHA-256 over s = 0..299 of the structured report bytes of
# ``cubic --seed s --format structured`` followed by its exit code.
CUBIC_300_SEED_DIGEST = "105c5dfb63716fc510c78b832981c544778bd4b9cd8955c36a955e631bda27cf"


def test_300_seed_cubic_digest():
    digest = hashlib.sha256()
    for seed in range(300):
        code, out = run(["cubic", "--seed", str(seed), "--format", "structured"])
        digest.update(out.encode())
        digest.update(str(code).encode())
    assert digest.hexdigest() == CUBIC_300_SEED_DIGEST
