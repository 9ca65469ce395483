"""Tests for simplicial fans, subdivision and the cyclic quotient fans."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scan_desingularize, scan_is_toric_morphism, supports_agree
from quasilines.cli import fan_from_doc
from quasilines.fans import (
    BadDimensionError,
    Fan,
    NotMaximalError,
    OutsideSupportError,
    _box_lattice_points,
    _carrier_star,
    _certifies_complete,
    _facet_table,
    _integer_kernel,
    _meet_in_common_face,
    cone_contains,
    cone_coordinates,
    cone_multiplicity,
    cyclic_quotient_fans,
    desingularize,
    is_smooth,
    is_toric_morphism,
    make_fan,
    stellar_subdivide,
    validate_fan,
)
from quasilines.lattice import mat_vec, primitive
from quasilines.report import parse
from test_cli import LOWER_DIM_FAN_DOC

PLANE_CONE = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])


class TestQuotientFans:
    def test_rays_n2(self):
        _, big, _ = cyclic_quotient_fans(2)
        assert big.rays == ((3, -2), (0, 1), (-3, 1))

    def test_rays_n4(self):
        _, big, _ = cyclic_quotient_fans(4)
        assert big.rays[0] == (5, -2, -3, -4)
        assert big.rays[4] == (-5, 1, 2, 3)
        for j in range(4):
            assert sum(ray[j] for ray in big.rays) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_structure(self, n):
        sub, big, inclusion = cyclic_quotient_fans(n)
        assert len(big.rays) == n + 1
        assert len(big.max_cones) == n + 1
        for j in range(n):
            assert sum(ray[j] for ray in big.rays) == 0
        assert validate_fan(sub).valid
        assert validate_fan(big).valid
        assert is_smooth(sub)
        assert not is_smooth(big)
        for cone in big.max_cones:
            assert cone_multiplicity(big, cone) == n + 1
        for cone in sub.max_cones:
            assert cone_multiplicity(sub, cone) == 1
        assert is_toric_morphism(inclusion, sub, big)
        for ray_sub, ray_big in zip(sub.rays, big.rays):
            assert mat_vec(inclusion, ray_sub) == ray_big

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            cyclic_quotient_fans(1)


class TestValidateFan:
    def test_non_primitive_ray(self):
        fan = make_fan(2, [(2, 0), (0, 1)], [(0, 1)])
        report = validate_fan(fan)
        assert not report.valid
        assert any("not primitive" in v for v in report.violations)

    def test_overlapping_cones(self):
        fan = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
        report = validate_fan(fan)
        assert not report.valid
        assert any("common face" in v for v in report.violations)

    def test_unused_ray(self):
        fan = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1)])
        report = validate_fan(fan)
        assert not report.valid
        assert any("no maximal cone" in v for v in report.violations)

    def test_empty_cone(self):
        report = validate_fan(make_fan(2, [(1, 0)], [()]))
        assert report.violations == ("cone 0 is empty", "ray 0 appears in no maximal cone")

    def test_dimension_must_be_positive(self):
        assert validate_fan(Fan(0, (), ())).violations == ("dimension must be positive",)

    def test_projective_plane_is_valid(self):
        fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert validate_fan(fan).valid


class TestConeMultiplicity:
    def test_smooth_standard_cone(self):
        assert cone_multiplicity(PLANE_CONE, (0, 1)) == 1

    def test_not_maximal(self):
        with pytest.raises(NotMaximalError):
            cone_multiplicity(PLANE_CONE, (0,))

    def test_single_smooth_cone_fan(self):
        assert is_smooth(PLANE_CONE)


class TestStellarSubdivide:
    def test_plane_blowup(self):
        result = stellar_subdivide(PLANE_CONE, (1, 1))
        assert result.rays == ((1, 0), (0, 1), (1, 1))
        assert result.max_cones == ((0, 2), (1, 2))
        assert validate_fan(result).valid

    def test_existing_ray_is_noop(self):
        fan = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
        assert stellar_subdivide(fan, (1, 1)) == fan

    def test_outside_support(self):
        with pytest.raises(OutsideSupportError):
            stellar_subdivide(PLANE_CONE, (-1, 0))

    def test_quotient_interior_point_drops_multiplicity(self):
        _, big, _ = cyclic_quotient_fans(2)
        result = stellar_subdivide(big, (1, 0))
        w_index = result.rays.index((1, 0))
        children = [c for c in result.max_cones if w_index in c]
        assert len(children) == 2
        for child in children:
            assert cone_multiplicity(result, child) < 3
        assert sorted(cone_multiplicity(result, c) for c in children) == [1, 2]

    def test_preserves_support(self):
        _, big, _ = cyclic_quotient_fans(2)
        result = stellar_subdivide(big, (1, 0))
        assert supports_agree(big, result, random.Random(5), 60)
        assert validate_fan(result).valid


class TestBoxLatticePoints:
    def test_singular_quotient_cone(self):
        rays = ((3, -2), (0, 1))
        points = _box_lattice_points(rays, _integer_kernel(rays, 2))
        assert points == {(1, 0), (2, -1)}

    def test_smooth_cone_has_none(self):
        rays = ((1, 0), (0, 1))
        assert _box_lattice_points(rays, _integer_kernel(rays, 2)) == set()

    def test_lower_dimensional_cone(self):
        # Cone (0, 1) of TestLowerDimensionalCone.FAN spans the plane z = 0
        # with multiplicity 2: its one box point is half the sum of its rays.
        fan = TestLowerDimensionalCone.FAN
        rays = tuple(fan.rays[i] for i in (0, 1))
        assert _box_lattice_points(rays, fan.kernel((0, 1))) == {(1, 1, 0)}


class TestDesingularize:
    def test_already_smooth(self):
        fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert desingularize(fan) == fan

    def test_quotient_n2(self):
        _, big, _ = cyclic_quotient_fans(2)
        smooth = desingularize(big)
        assert is_smooth(smooth)
        assert smooth.rays[:3] == big.rays
        assert validate_fan(smooth).valid
        assert supports_agree(big, smooth, random.Random(11), 100)

    def test_quotient_n3(self):
        _, big, _ = cyclic_quotient_fans(3)
        smooth = desingularize(big)
        assert is_smooth(smooth)
        assert smooth.rays[:4] == big.rays
        assert validate_fan(smooth).valid
        assert supports_agree(big, smooth, random.Random(12), 40)

    @pytest.mark.parametrize("n,rays,cones", [
        (2, 9, 9), (3, 14, 24), (4, 35, 105), (5, 38, 180), (6, 119, 915),
        (7, 82, 864), (8, 177, 2700), (9, 282, 6200), (10, 913, 28782),
    ])
    def test_quotient_refinement_sizes(self, n, rays, cones):
        # Pins the ray chosen at every step: another scoring rule refines
        # the n = 5 and n = 6 fans differently.
        _, big, _ = cyclic_quotient_fans(n)
        smooth = desingularize(big)
        assert (len(smooth.rays), len(smooth.max_cones)) == (rays, cones)

    @pytest.mark.parametrize("n,digest", [
        (2, "fe273d8c76dc66448caa6522eae762ff75db5ae5c4bac4cfcf7a2a58e773df88"),
        (3, "9e4321dc44cc44e28d866a1de369ac8e22aeb49db168e0b2b340889eec137e9a"),
        (4, "641836e5aeea5ee6a368d771dddd1e97b3d9578dfd758c4b3bd92f3b62d6577b"),
        (5, "a70a7ad53cc3759789959f504befb05235f6baf00ee8c1d5393b6f6dbccc5768"),
        (6, "66ced54eff22b07f8d189202970582f6f350e3903591bf1f73d511c261910f89"),
        (7, "8fa06343e3126f02e394c8af495956db0312bb8091c8a2b3536dfc02fafaef7b"),
        (8, "c1e1b235204d2d76b0d9061e7106ac396675abe530047c8875ef1964242df78a"),
        (9, "3164f6270a7827257ae556ab67e3164813ec3cef3bb396109076ca03770b2381"),
        (10, "6f9cd1cdf3710287fba04f0e03c3679c0be2f5fbda2570a54faa6b4fc1c98e15"),
    ])
    def test_quotient_refinement_bytes(self, n, digest):
        # SHA-256 of repr of each refinement as the whole-fan scan chose it:
        # the rays, their order and the cone order are pinned.
        smooth = desingularize(cyclic_quotient_fans(n)[1])
        assert hashlib.sha256(repr(smooth).encode()).hexdigest() == digest


def h_vector(fan):
    """h-vector of a complete simplicial fan, read from its cone index
    tuples alone: f_i counts the distinct faces with i rays, and
    h_k = sum_i (-1)^(k - i) C(n - i, k - i) f_i."""
    n = fan.dim
    f = [len({face for cone in fan.max_cones for face in itertools.combinations(cone, i)})
         for i in range(n + 1)]
    return [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
            for k in range(n + 1)]


@pytest.mark.parametrize("n", range(2, 10))
def test_refinement_satisfies_dehn_sommerville(n):
    # A smooth complete fan has a symmetric h-vector, its even Betti
    # numbers, with h_0 = 1 and h_1 = rays - n (Fulton 1993, ch. 4;
    # Ziegler 1995, ch. 8).  The check reads only the cone index tuples.
    smooth = desingularize(cyclic_quotient_fans(n)[1])
    h = h_vector(smooth)
    assert h == h[::-1]
    assert h[0] == 1 and h[1] == len(smooth.rays) - n
    if n == 5:
        assert h == [1, 33, 56, 56, 33, 1]


class TestToricMorphism:
    def test_identity(self):
        fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert is_toric_morphism(((1, 0), (0, 1)), fan, fan)

    def test_reflection_fails_on_half_plane(self):
        reflection = ((-1, 0), (0, 1))
        assert not is_toric_morphism(reflection, PLANE_CONE, PLANE_CONE)


class TestLowerDimensionalCone:
    # Cone (0, 1) spans the plane z = 0 with multiplicity 2.
    FAN = make_fan(
        3, [(1, 0, 0), (1, 2, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1), (2, 3)]
    )

    @pytest.mark.parametrize("point", [
        (1, 1, 0), (2, 2, 0), (1, 0, 0), (0, 0, 0), (Fraction(1, 2), 1, 0),
    ])
    def test_inside(self, point):
        assert cone_contains(self.FAN, (0, 1), point)

    @pytest.mark.parametrize("point,signs", [
        ((0, 1, 0), (-1, 1)),
        ((-1, 0, 0), (-1, 0)),
        ((1, -2, 0), (1, -1)),
    ])
    def test_in_span_outside_cone(self, point, signs):
        coords = cone_coordinates(self.FAN, (0, 1), point)
        assert tuple((c > 0) - (c < 0) for c in coords) == signs
        assert not cone_contains(self.FAN, (0, 1), point)

    @pytest.mark.parametrize("point", [(0, 0, 1), (1, 1, 1), (0, 0, -1)])
    def test_outside_span(self, point):
        assert cone_coordinates(self.FAN, (0, 1), point) is None
        assert not cone_contains(self.FAN, (0, 1), point)

    @pytest.mark.parametrize("fan,cone,point", [
        (FAN, (0, 1), (1, 1)),
        (FAN, (0, 1), (1, 1, 0, 0)),
        (FAN, (2, 3), ()),
        (make_fan(2, [(1, 0), (0, 1)], [(0, 1)]), (0, 1), (1,)),
        (make_fan(2, [(1, 0), (0, 1)], [(0, 1)]), (0, 1), (1, 1, 0)),
    ])
    def test_wrong_length_point_raises(self, fan, cone, point):
        # The row product would silently truncate to the shorter of a
        # kernel row and the point; the length check in front must not.
        with pytest.raises(ValueError, match=f"point of length {len(point)} "):
            cone_coordinates(fan, cone, point)
        with pytest.raises(ValueError, match=f"point of length {len(point)} "):
            cone_contains(fan, cone, point)


def certificate_accepts(fan):
    try:
        return _certifies_complete(fan)
    except ValueError:
        return False


def pairwise_accepts(fan):
    return all(
        _meet_in_common_face(fan, a, b)
        for a, b in itertools.combinations(fan.max_cones, 2)
    )


CORRUPTIONS = ("none", "drop", "duplicate", "nudge", "flip", "swap", "one-sided")


def lattice_points(n):
    return st.tuples(*[st.integers(-3, 3)] * n).filter(any).map(primitive)


@st.composite
def subdivided_fans(draw, corruptions=CORRUPTIONS):
    """A complete fan from random stellar subdivisions of a quotient fan
    pair, n = 2..4, and the name of the corruption, drawn from
    ``corruptions``, applied to it."""
    n = draw(st.integers(2, 4))
    fan = draw(st.sampled_from(cyclic_quotient_fans(n)[:2]))
    for w in draw(st.lists(lattice_points(n), max_size=3)):
        fan = stellar_subdivide(fan, w)
    corruption = draw(st.sampled_from(corruptions))
    cones = list(fan.max_cones)
    k = draw(st.integers(0, len(cones) - 1))
    rays = list(fan.rays)
    if corruption == "drop":
        del cones[k]
    elif corruption == "duplicate":
        cones.append(cones[k])
    elif corruption in ("nudge", "flip"):
        i = draw(st.integers(0, len(rays) - 1))
        if corruption == "flip":
            rays[i] = tuple(-x for x in rays[i])
        else:
            j = draw(st.integers(0, n - 1))
            step = draw(st.sampled_from((-1, 1)))
            moved = tuple(x + step * (c == j) for c, x in enumerate(rays[i]))
            rays[i] = primitive(moved) if any(moved) else rays[i]
    elif corruption == "swap":
        outside = [i for i in range(len(rays)) if i not in cones[k]]
        pos = draw(st.integers(0, n - 1))
        new = draw(st.sampled_from(outside))
        cones[k] = tuple(sorted(cones[k][:pos] + (new,) + cones[k][pos + 1:]))
    elif corruption == "one-sided":
        # Subdivide only cone k at a point inside one of its facets, so the
        # neighbour across that facet keeps the whole facet.
        pos = draw(st.integers(0, n - 1))
        facet = cones[k][:pos] + cones[k][pos + 1:]
        w = primitive(tuple(map(sum, zip(*(rays[i] for i in facet)))))
        part = stellar_subdivide(Fan(n, fan.rays, (cones[k],)), w)
        rays = list(part.rays)
        cones[k:k + 1] = part.max_cones
    return Fan(n, tuple(rays), tuple(cones)), corruption


class TestCompletenessCertificate:
    @settings(max_examples=300, deadline=None)
    @given(subdivided_fans())
    def test_agrees_with_pairwise_oracle(self, case):
        fan, corruption = case
        if certificate_accepts(fan):
            assert pairwise_accepts(fan)
        if corruption == "none":
            assert certificate_accepts(fan)
            assert validate_fan(fan).valid
        if corruption == "duplicate":
            assert not validate_fan(fan).valid

    @settings(max_examples=50, deadline=None)
    @given(subdivided_fans(("drop", "duplicate")))
    def test_corruptions_give_one_and_three_sided_facets(self, case):
        # Dropping a cone leaves each of its facets one side; repeating a
        # cone gives each of them three.  The certificate rejects both.
        fan, corruption = case
        sides = {len(found) for found in _facet_table(fan).values()}
        assert (1 if corruption == "drop" else 3) in sides
        assert not certificate_accepts(fan)


VALID_FANS = subdivided_fans(("none",))


@st.composite
def points_on_faces(draw):
    """A valid complete fan, one of its cones, and a primitive positive
    combination of a nonempty subset of that cone's rays."""
    fan, _ = draw(VALID_FANS)
    cone = draw(st.sampled_from(fan.max_cones))
    face = draw(st.lists(st.sampled_from(cone), min_size=1, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(face), max_size=len(face)))
    w = tuple(
        sum(c * fan.rays[i][j] for c, i in zip(weights, face)) for j in range(fan.dim)
    )
    return fan, cone, primitive(w)


@st.composite
def fan_homs(draw):
    """A lattice hom between two valid complete fans: a multiple of the
    identity on a refinement of the target, so that some are toric
    morphisms, or a random small integer matrix."""
    dst, _ = draw(VALID_FANS)
    if draw(st.booleans()):
        src = dst
        for w in draw(st.lists(lattice_points(dst.dim), max_size=2)):
            src = stellar_subdivide(src, w)
        k = draw(st.integers(0, 2))
        hom = tuple(tuple(k * (i == j) for j in range(dst.dim)) for i in range(dst.dim))
    else:
        src, _ = draw(VALID_FANS)
        row = st.tuples(*[st.integers(-1, 1)] * src.dim)
        hom = draw(st.tuples(*[row] * dst.dim))
    return hom, src, dst


class TestStarAgainstScan:
    """The star lookups of ``desingularize`` and ``is_toric_morphism``
    against the whole-fan scans they replace (``conftest``)."""

    @settings(max_examples=300, deadline=None)
    @given(points_on_faces())
    def test_carrier_star_is_the_containing_cones(self, case):
        fan, cone, w = case
        holders = {}
        for other in fan.max_cones:
            for i in other:
                holders.setdefault(i, set()).add(other)
        star = _carrier_star(holders, cone, cone_coordinates(fan, cone, w))
        assert star == {other for other in fan.max_cones if cone_contains(fan, other, w)}

    @settings(max_examples=60, deadline=None)
    @given(VALID_FANS)
    def test_desingularize_equals_scan(self, case):
        fan, _ = case
        assert desingularize(fan) == scan_desingularize(fan)

    @settings(max_examples=200, deadline=None)
    @given(fan_homs())
    def test_is_toric_morphism_equals_scan(self, case):
        hom, src, dst = case
        assert is_toric_morphism(hom, src, dst) == scan_is_toric_morphism(hom, src, dst)


LOWER_DIM_FAN = fan_from_doc(parse(LOWER_DIM_FAN_DOC))


@st.composite
def subdivisions(draw):
    """A quotient fan, n = 2..5, a valid ``subdivided_fans`` fan or the
    lower-dimensional fan of ``LOWER_DIM_FAN_DOC``, and the fans of up to
    two stellar subdivisions of it at lattice points of its support."""
    kind = draw(st.sampled_from(("quotient", "subdivided", "lower")))
    if kind == "quotient":
        fan = draw(st.sampled_from(cyclic_quotient_fans(draw(st.integers(2, 5)))[:2]))
    elif kind == "subdivided":
        fan, _ = draw(VALID_FANS)
    else:
        fan = LOWER_DIM_FAN
    steps = []
    for _ in range(draw(st.integers(0, 2))):
        cone = draw(st.sampled_from(fan.max_cones))
        face = draw(st.lists(st.sampled_from(cone), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(face), max_size=len(face)))
        w = tuple(
            sum(c * fan.rays[i][j] for c, i in zip(weights, face)) for j in range(fan.dim)
        )
        fan = stellar_subdivide(fan, primitive(w))
        steps.append(fan)
    return fan, steps


class TestInheritedKernels:
    """The kernels ``stellar_subdivide`` and ``desingularize`` hand on
    against those an equal fan computes for itself."""

    @settings(max_examples=150, deadline=None)
    @given(subdivisions())
    def test_every_cone_keeps_the_kernel_an_equal_fan_computes(self, case):
        fan, steps = case
        for result in steps + [desingularize(fan)]:
            fresh = Fan(result.dim, result.rays, result.max_cones)
            for cone in result.max_cones:
                inv, d = result._kernels[cone]
                for row, i in zip(inv, cone):
                    assert [sum(x * y for x, y in zip(row, result.rays[j])) for j in cone] == [
                        d * (j == i) for j in cone
                    ]
                assert (inv, d) == fresh.kernel(cone)


class TestSmithCalls:
    """``desingularize`` reads each target's box off its kernel; the Smith
    form only gives the first kernel of a lower-dimensional cone."""

    def test_full_dimensional_fan_needs_none(self, smith_calls):
        smooth = desingularize(cyclic_quotient_fans(5)[1])
        assert len(smooth.max_cones) == 180
        assert smith_calls == []

    def test_one_call_per_lower_dimensional_kernel(self, smith_calls):
        # The two input cones, then the children of cone 0 1 at (1, 1, 0):
        # the one that replaces ray 0, then the one that replaces ray 1.
        fan = Fan(LOWER_DIM_FAN.dim, LOWER_DIM_FAN.rays, LOWER_DIM_FAN.max_cones)
        smooth = desingularize(fan)
        assert smooth.max_cones == ((0, 4), (1, 4), (2, 3))
        assert smith_calls == [
            [smooth.rays[i] for i in cone] for cone in ((0, 1), (2, 3), (1, 4), (0, 4))
        ]
