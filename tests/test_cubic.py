"""Tests for exact polynomials, resultants and the conic count pipeline."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

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
        assert (x ** 3).derivative(0) == 3 * x * x

    def test_gcd_univariate(self):
        x = var(0, 1)
        one = Poly.constant(1, 1)
        g = gcd_univariate(x * x - one, x * x - 2 * x + one)
        assert g == x - one
        assert (x * x - one).compose([one]).is_zero

    def test_evaluate(self):
        x, y = var(0, 2), var(1, 2)
        p = 2 * x * x * y - y + Poly.constant(5, 2)
        assert p.evaluate((Fraction(1, 2), 3)) == Fraction(2 * 3, 4) - 3 + 5

    def test_substitute(self):
        x, y = var(0, 2), var(1, 2)
        p = x * x + y
        assert p.compose([y, y]) == y * y + y


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
                f.derivative(i).evaluate(point) * v[i] for i in range(5)
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

    def test_leading_coefficients_decided_by_gcd(self, monkeypatch):
        # Both leading coefficients are nonconstant, so a second gcd, after
        # the squarefree test, decides that no root is lost at infinity.
        calls = []

        def counting_gcd(a, b):
            calls.append((a, b))
            return gcd_univariate(a, b)

        monkeypatch.setattr(cubic, "gcd_univariate", counting_gcd)
        f, point = sample_cubic_instance(16, 2)
        assert count_lines_through_point(f, point) == LineCountReport(
            count=5, with_multiplicity=False, generic=False, resultant_degree=5,
            squarefree=True, no_loss_at_infinity=True, full_fibre_degrees=False,
            resultant=(2, -2, -3, -3, 4, 2),
        )
        assert len(calls) == 2

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
