"""Tests for support functions, Cartier certificates and section counts."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_count,
    per_sample_extension_check,
    random_bounded_system,
    recession_probe_axis,
)
from quasilines import divisors
from quasilines.cli import run
from quasilines.divisors import (
    NotCartierError,
    NotMorphismError,
    SectionsPolyhedron,
    SupportFunction,
    UnboundedPolyhedronError,
    _points_above,
    cartier_certificate,
    count_lattice_points,
    h0,
    pullback,
    quotient_extension_check,
    quotient_hyperplane_support,
    sampled_extension_check,
    sections_polyhedron,
)
from quasilines.fans import (
    cyclic_quotient_fans,
    desingularize,
    is_smooth,
    make_fan,
    stellar_subdivide,
)
from quasilines.errors import UsageError
from quasilines.lattice import dot
from test_fans import VALID_FANS

P2_FAN = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
P1_FAN = make_fan(1, [(1,), (-1,)], [(0,), (1,)])


class TestSupportFunction:
    @pytest.mark.parametrize("values,message", [
        ((0, 0), "2 values for 3 rays"),
        ((0, 0, 0, 0), "4 values for 3 rays"),
    ])
    def test_wrong_length_is_a_usage_error_with_the_report_text(self, values, message):
        # The command line reports this text as it is (test_exit_codes.py).
        with pytest.raises(UsageError) as caught:
            SupportFunction(P2_FAN, values)
        assert str(caught.value) == message


class TestCartierCertificate:
    def test_hyperplane_on_projective_side(self):
        sub, _, _ = cyclic_quotient_fans(2)
        certificate = cartier_certificate(quotient_hyperplane_support(sub))
        assert certificate.cartier
        for cone, dual in zip(sub.max_cones, certificate.cone_duals):
            for i in cone:
                assert dot(dual, sub.rays[i]) == certificate.support.values[i]

    def test_hyperplane_fails_on_quotient_side(self):
        _, big, _ = cyclic_quotient_fans(2)
        certificate = cartier_certificate(quotient_hyperplane_support(big))
        assert not certificate.cartier
        assert certificate.failure_cone == 0
        assert certificate.failure_solution == (Fraction(-2, 3), Fraction(-1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quotient_witness_denominator_divides_group_order(self, n):
        sub, big, _ = cyclic_quotient_fans(n)
        assert cartier_certificate(quotient_hyperplane_support(sub)).cartier
        certificate = cartier_certificate(quotient_hyperplane_support(big))
        assert not certificate.cartier
        assert any(v.denominator > 1 for v in certificate.failure_solution)
        assert all((n + 1) % v.denominator == 0 for v in certificate.failure_solution)

    def test_zero_support_function(self):
        certificate = cartier_certificate(SupportFunction(P2_FAN, (0, 0, 0)))
        assert certificate.cartier
        assert certificate.cone_duals == ((0, 0),) * 3

    def test_evaluate_without_a_certificate(self):
        _, big, _ = cyclic_quotient_fans(2)
        certificate = cartier_certificate(quotient_hyperplane_support(big))
        with pytest.raises(NotCartierError, match="no certificate to evaluate"):
            certificate.evaluate((1, 0))

    def test_evaluate_outside_the_support(self):
        half_plane = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        certificate = cartier_certificate(SupportFunction(half_plane, (-1, -2)))
        assert certificate.evaluate((2, 1)) == -4
        with pytest.raises(ValueError, match="outside the support"):
            certificate.evaluate((-1, 0))


class TestPullback:
    def test_identity(self):
        psi = SupportFunction(P2_FAN, (0, 0, -1))
        identity = ((1, 0), (0, 1))
        assert pullback(psi, identity, P2_FAN).values == psi.values

    def test_quotient_anticanonical_style_n2(self):
        sub, big, inclusion = cyclic_quotient_fans(2)
        psi = SupportFunction(big, (-1, -1, -1))
        pulled = pullback(psi, inclusion, sub)
        assert pulled.values == (-1, -1, -1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quotient_multiple_of_hyperplane(self, n):
        sub, big, inclusion = cyclic_quotient_fans(n)
        values = tuple(-(n + 1) if i == 1 else 0 for i in range(n + 1))
        psi = SupportFunction(big, values)
        certificate = cartier_certificate(psi)
        assert certificate.cartier
        pulled = pullback(psi, inclusion, sub)
        from quasilines.lattice import mat_vec

        for ray_sub, value in zip(sub.rays, pulled.values):
            assert value == certificate.evaluate(mat_vec(inclusion, ray_sub))
        assert pulled.values == values

    def test_not_morphism(self):
        half_plane = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        psi = SupportFunction(half_plane, (0, 0))
        reflection = ((-1, 0), (0, 1))
        with pytest.raises(NotMorphismError):
            pullback(psi, reflection, half_plane)

    def test_not_cartier(self):
        _, big, _ = cyclic_quotient_fans(2)
        psi = quotient_hyperplane_support(big)
        with pytest.raises(NotCartierError, match="^no certificate: cone 0 has rational-only dual$"):
            pullback(psi, ((1, 0), (0, 1)), big)


class TestSectionsPolyhedron:
    def test_quotient_system_n2(self):
        _, big, _ = cyclic_quotient_fans(2)
        polyhedron = sections_polyhedron(quotient_hyperplane_support(big))
        assert polyhedron.constraints == (
            ((3, -2), 0),
            ((0, 1), -1),
            ((-3, 1), 0),
        )

    def test_zero_values_on_plane_fan(self):
        polyhedron = sections_polyhedron(SupportFunction(P2_FAN, (0, 0, 0)))
        assert polyhedron.constraints == (
            ((1, 0), 0),
            ((0, 1), 0),
            ((-1, -1), 0),
        )

    def test_hyperplane_values_on_plane_fan(self):
        polyhedron = sections_polyhedron(SupportFunction(P2_FAN, (0, 0, -1)))
        assert polyhedron.constraints == (
            ((1, 0), 0),
            ((0, 1), 0),
            ((-1, -1), -1),
        )


class TestCountLatticePoints:
    def test_quotient_polytope_is_origin_only(self):
        _, big, _ = cyclic_quotient_fans(2)
        result = count_lattice_points(sections_polyhedron(quotient_hyperplane_support(big)))
        assert result.count == 1
        assert result.points == ((0, 0),)

    def test_plane_hyperplane_class(self):
        result = count_lattice_points(
            sections_polyhedron(SupportFunction(P2_FAN, (0, 0, -1)))
        )
        assert result.count == 3
        assert set(result.points) == {(0, 0), (1, 0), (0, 1)}

    def test_unbounded(self):
        with pytest.raises(UnboundedPolyhedronError):
            count_lattice_points(SectionsPolyhedron(1, (((1,), 0),)))

    def test_empty_is_zero(self):
        polyhedron = SectionsPolyhedron(2, (((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 0)))
        assert count_lattice_points(polyhedron).count == 0

    def test_matches_brute_force_and_monotone(self):
        rng = random.Random(4242)
        for _ in range(100):
            dim = rng.choice([2, 3])
            polyhedron, lows, highs = random_bounded_system(rng, dim)
            expected, expected_points = brute_force_count(
                polyhedron.constraints, lows, highs
            )
            result = count_lattice_points(polyhedron)
            assert result.count == expected
            assert sorted(result.points) == sorted(expected_points)
            normal = tuple(rng.randint(-3, 3) for _ in range(dim))
            if all(x == 0 for x in normal):
                continue
            tightened = SectionsPolyhedron(
                dim, polyhedron.constraints + ((normal, rng.randint(-6, 2)),)
            )
            assert count_lattice_points(tightened).count <= result.count


@st.composite
def bounded_systems(draw):
    """A box in dims 1-4 plus up to four random rows; returns the
    polyhedron and the box, which is the brute-force scan region."""
    dim = draw(st.integers(1, 4))
    reach = 4 if dim < 4 else 2
    lows = [draw(st.integers(-reach, 0)) for _ in range(dim)]
    highs = [draw(st.integers(0, reach)) for _ in range(dim)]
    constraints = []
    for j in range(dim):
        axis = tuple(int(k == j) for k in range(dim))
        constraints.append((axis, lows[j]))
        constraints.append((tuple(-x for x in axis), -highs[j]))
    normals = st.tuples(*[st.integers(-4, 4)] * dim)
    for normal in draw(st.lists(normals, max_size=4)):
        constraints.append((normal, draw(st.integers(-8, 2))))
    order = draw(st.permutations(range(len(constraints))))
    polyhedron = SectionsPolyhedron(dim, tuple(constraints[i] for i in order))
    return polyhedron, lows, highs


@st.composite
def arbitrary_systems(draw):
    """Up to six random rows in dims 1-4, optionally with a contradictory
    pair <u, c> >= r, <u, -c> >= 1 - r that empties the system."""
    dim = draw(st.integers(1, 4))
    normals = st.tuples(*[st.integers(-3, 3)] * dim)
    rows = draw(st.lists(st.tuples(normals, st.integers(-6, 3)), max_size=6))
    if draw(st.booleans()):
        normal = draw(normals)
        rhs = draw(st.integers(-3, 3))
        rows += [(normal, rhs), (tuple(-x for x in normal), 1 - rhs)]
    return SectionsPolyhedron(dim, tuple(rows))


class TestProjectionCounterProperties:
    @settings(max_examples=300, deadline=None)
    @given(bounded_systems())
    def test_equals_brute_force_in_scan_order(self, case):
        polyhedron, lows, highs = case
        expected, expected_points = brute_force_count(polyhedron.constraints, lows, highs)
        result = count_lattice_points(polyhedron)
        assert result.count == expected
        assert result.points == tuple(expected_points)

    @settings(max_examples=300, deadline=None)
    @given(arbitrary_systems())
    @example(SectionsPolyhedron(2, (((1, 0), 0), ((-1, 0), 1))))
    @example(SectionsPolyhedron(1, (((0,), 1), ((1,), 0))))
    @example(SectionsPolyhedron(3, ()))
    def test_boundedness_matches_recession_probes(self, polyhedron):
        axis = recession_probe_axis(polyhedron)
        if axis is None:
            count_lattice_points(polyhedron)
        else:
            with pytest.raises(UnboundedPolyhedronError) as caught:
                count_lattice_points(polyhedron)
            assert str(caught.value) == f"recession direction exists along axis {axis}"


class TestH0:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quotient_divisor_has_one_section(self, n):
        _, big, _ = cyclic_quotient_fans(n)
        assert h0(quotient_hyperplane_support(big)) == 1

    def test_plane_hyperplane(self):
        assert h0(SupportFunction(P2_FAN, (0, 0, -1))) == 3

    def test_zero_divisor_on_complete_fans(self):
        assert h0(SupportFunction(P2_FAN, (0, 0, 0))) == 1
        assert h0(SupportFunction(P1_FAN, (0, 0))) == 1


class TestExtensionChecks:
    @pytest.mark.parametrize("n,bound,samples", [(2, 5, 30), (3, 3, 10)])
    def test_quotient_extensions_stay_bounded_by_one(self, n, bound, samples):
        report, quotient, refined = quotient_extension_check(n, bound, samples, seed=0)
        assert len(refined.rays) > len(quotient.rays)
        assert report.cartier_samples == samples
        assert report.base_count == 1
        assert report.all_ok
        assert all(count <= 1 for count in report.counts)

    def test_seeded_reports_are_reproducible(self):
        first, _, _ = quotient_extension_check(2, 5, 12, seed=3)
        second, _, _ = quotient_extension_check(2, 5, 12, seed=3)
        assert first == second

    def test_refinement_must_keep_the_base_rays(self):
        base = SupportFunction(make_fan(2, [(1, 0), (0, 1)], [(0, 1)]), (0, -1))
        dropped = make_fan(2, [(1, 0), (1, 1)], [(0, 1)])
        with pytest.raises(ValueError, match="^refined fan must preserve the base rays as a prefix$"):
            sampled_extension_check(base, dropped, coeff_bound=1, samples=1, seed=0)

    def test_degenerate_refinement_without_new_rays(self):
        base = SupportFunction(P1_FAN, (0, -1))
        report = sampled_extension_check(base, P1_FAN, coeff_bound=5, samples=5, seed=1)
        assert report.base_count == h0(base) == 2
        assert report.counts == (2, 2, 2, 2, 2)
        assert report.all_ok


@functools.cache
def quotient_refinement(n):
    """The smooth refinement of the order n+1 quotient fan, built once."""
    return desingularize(cyclic_quotient_fans(n)[1])


@st.composite
def refinement_extensions(draw):
    """A support function with small values on a quotient fan, a
    refinement that keeps its rays as a prefix, and values on the new rays.

    The refinement is the smooth one of the quotient fan, n = 2..4, or a
    random stellar subdivision of either fan of a quotient pair, which is
    often not smooth.
    """
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        base_fan = cyclic_quotient_fans(n)[1]
        refined = quotient_refinement(n)
    else:
        refined, _ = draw(VALID_FANS)
        n = refined.dim
        base_fan = next(
            fan for fan in cyclic_quotient_fans(n)[:2] if fan.rays == refined.rays[:n + 1]
        )
    base = SupportFunction(base_fan, draw(st.tuples(*[st.integers(-2, 1)] * (n + 1))))
    extra = draw(st.tuples(*[st.integers(-3, 3)] * (len(refined.rays) - n - 1)))
    return base, refined, extra


# The unrefined n = 2 quotient fan (every cone of multiplicity 3), subdivided
# at (1, 0), and 3 times the hyperplane divisor, which is Cartier on it.
_, QUOTIENT2, _ = cyclic_quotient_fans(2)
PARTLY_SMOOTH2 = stellar_subdivide(QUOTIENT2, (1, 0))
TRIPLE_HYPERPLANE2 = SupportFunction(QUOTIENT2, (0, -3, 0))


class TestExtensionReductions:
    """The filtered base points and the once-per-fan Cartier decision
    against a count and a certificate per sample."""

    @settings(max_examples=200, deadline=None)
    @given(refinement_extensions())
    def test_filter_equals_count_and_smooth_means_cartier(self, case):
        base, refined, extra = case
        base_points = count_lattice_points(sections_polyhedron(base)).points
        psi = SupportFunction(refined, base.values + extra)
        new_rays = refined.rays[len(base.fan.rays):]
        assert _points_above(base_points, new_rays, extra) == (
            count_lattice_points(sections_polyhedron(psi)).points
        )
        if is_smooth(refined):
            assert cartier_certificate(psi).cartier

    @settings(max_examples=100, deadline=None)
    @given(refinement_extensions(), st.integers(0, 3), st.integers(0, 2**16))
    def test_report_equals_per_sample_path(self, case, bound, seed):
        base, refined, _ = case
        assert sampled_extension_check(base, refined, bound, 4, seed) == (
            per_sample_extension_check(base, refined, bound, 4, seed)
        )

    @pytest.mark.parametrize("base,refined", [
        (quotient_hyperplane_support(QUOTIENT2), QUOTIENT2),
        (TRIPLE_HYPERPLANE2, QUOTIENT2),
        (TRIPLE_HYPERPLANE2, PARTLY_SMOOTH2),
    ], ids=["unrefined-hyperplane", "unrefined-triple", "partly-smooth-triple"])
    def test_non_smooth_refinement_equals_per_sample_path(self, base, refined):
        assert not is_smooth(refined)
        report = sampled_extension_check(base, refined, 3, 10, seed=0)
        assert report == per_sample_extension_check(base, refined, 3, 10, seed=0)


@pytest.fixture
def work_counts(monkeypatch):
    """Calls of ``count_lattice_points``, ``cartier_certificate`` and
    ``sections_polyhedron`` made through ``divisors`` from now on."""
    calls = {"count_lattice_points": 0, "cartier_certificate": 0, "sections_polyhedron": 0}
    for name in calls:
        def counting(*args, name=name, original=getattr(divisors, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(divisors, name, counting)
    return calls


class TestExtensionWork:
    def test_smooth_refinement_counts_once_and_certifies_nothing(self, work_counts):
        code, _ = run(["lemma-a2", "--n", "3", "--samples", "8"])
        assert code == 0
        assert work_counts == {
            "count_lattice_points": 1, "cartier_certificate": 0, "sections_polyhedron": 1,
        }

    def test_quotient_check_inverts_only_the_quotient_cones(self, inverse_calls):
        # The quotient cones share facets, so one of them is inverted and
        # the others exchange from it.  The refinement inherits every kernel
        # from desingularize, so its smoothness test and the base divisor
        # invert nothing more.
        n = 6
        report, quotient, refined = quotient_extension_check(n, 2, 20, seed=0)
        assert report.all_ok and len(refined.max_cones) == 915
        assert len(inverse_calls) == 1

    @pytest.mark.parametrize("base,refined", [
        (quotient_hyperplane_support(QUOTIENT2), QUOTIENT2),
        (TRIPLE_HYPERPLANE2, PARTLY_SMOOTH2),
    ], ids=["unrefined-hyperplane", "partly-smooth-triple"])
    def test_non_smooth_refinement_certifies_every_tested_sample(
        self, work_counts, base, refined
    ):
        report = sampled_extension_check(base, refined, 3, 10, seed=0)
        assert work_counts == {
            "count_lattice_points": 1,
            "cartier_certificate": report.tested,
            "sections_polyhedron": 1,
        }
