"""The integer cone kernel against the ``Fraction`` oracles."""

import itertools
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quasilines
from conftest import (
    determinant,
    fraction_box_lattice_points,
    gauss_jordan_solve,
    invariant_factors,
    smith_index,
    solve_cone_contains,
)
from quasilines import argscan, cli, cubic, divisors, fans, lattice, models
from quasilines.cubic import Poly
from quasilines.divisors import SupportFunction, _integral_cone_solution, cartier_certificate
from quasilines.fans import (
    Fan,
    _box_lattice_points,
    _exchange_kernel,
    cone_contains,
    cone_coordinates,
    cone_multiplicity,
    cyclic_quotient_fans,
)
from quasilines.lattice import (
    InfiniteIndexError,
    NoSolutionError,
    primitive,
    rational_inverse,
    solve_rational_linear,
    transpose,
)


def sign(x):
    return (x > 0) - (x < 0)


def rank(rows):
    return sum(1 for f in invariant_factors(rows) if f != 0)


def square_matrices(n):
    return st.tuples(*[st.tuples(*[st.integers(-6, 6)] * n)] * n)


def primitive_vectors(dim):
    vectors = st.tuples(*[st.integers(-4, 4)] * dim)
    return vectors.filter(lambda v: any(v)).map(primitive)


@st.composite
def simplicial_cones(draw):
    """A one-cone fan in dims 1-5 whose cone spans 1..dim independent rays,
    and a point: a rational combination of the rays (inside the span, with
    coefficients of either sign) or a random lattice point."""
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(1, dim))
    rays = tuple(draw(st.lists(primitive_vectors(dim), min_size=k, max_size=k)))
    assume(rank(rays) == k)
    if draw(st.booleans()):
        coeffs = [
            Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 1, 2, 3])))
            for _ in range(k)
        ]
        point = tuple(sum(c * ray[j] for c, ray in zip(coeffs, rays)) for j in range(dim))
        point = tuple(int(x) if x.denominator == 1 else x for x in point)
    else:
        point = draw(st.tuples(*[st.integers(-6, 6)] * dim))
    return Fan(dim, rays, (tuple(range(k)),)), point


@st.composite
def full_dimensional_fans(draw):
    """Up to four full-dimensional simplicial cones over a shared ray pool
    in dims 1-5, with one integer value per ray."""
    dim = draw(st.integers(1, 5))
    rays = tuple(draw(st.lists(primitive_vectors(dim), min_size=dim, max_size=dim + 2,
                               unique=True)))
    subsets = st.lists(st.sampled_from(range(len(rays))), min_size=dim, max_size=dim,
                       unique=True).map(lambda c: tuple(sorted(c)))
    cones = tuple(draw(st.lists(subsets, min_size=1, max_size=4)))
    assume(all(rank(tuple(rays[i] for i in cone)) == dim for cone in cones))
    values = tuple(draw(st.integers(-5, 5)) for _ in rays)
    return SupportFunction(Fan(dim, rays, cones), values)


@st.composite
def sparse_matrices(draw):
    """A square integer matrix of size 2-8 with at least half of its entries
    0 and some unit columns, as the cones of the quotient fans have.  Its
    entries on a random permutation are nonzero, which keeps most draws
    nonsingular.  Their fraction-free steps meet many rows that are 0 in
    the pivot column."""
    n = draw(st.integers(2, 8))
    column_of = draw(st.permutations(range(n)))
    nonzero = st.sampled_from([x for x in range(-6, 7) if x])
    a = [[draw(nonzero) if j == column_of[i] else 0 for j in range(n)] for i in range(n)]
    others = [(i, j) for i in range(n) for j in range(n) if j != column_of[i]]
    for i, j in draw(st.permutations(others))[:n * n // 2 - n]:
        a[i][j] = draw(st.integers(-6, 6))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in range(n):
            a[row][column_of[i]] = int(row == i)
    return tuple(map(tuple, a))


def first_quotient_cones():
    return [
        transpose([fan.rays[i] for i in fan.max_cones[0]])
        for n in range(2, 13) for fan in cyclic_quotient_fans(n)[:2]
    ]


class TestRationalInverse:
    @staticmethod
    def assert_kernel_identity(a):
        inv, d = rational_inverse(a)
        n = len(a)
        assert d == abs(determinant(a))
        assert all(type(x) is int for row in inv for x in row)
        for i in range(n):
            for j in range(n):
                assert sum(a[i][k] * inv[k][j] for k in range(n)) == d * (i == j)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(square_matrices))
    def test_kernel_identity(self, a):
        assume(determinant(a) != 0)
        self.assert_kernel_identity(a)

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_kernel_identity_on_sparse_matrices(self, a):
        # A row that is 0 in the pivot column is kept only while the pivot
        # equals the last one; these matrices reach both cases.
        assume(determinant(a) != 0)
        self.assert_kernel_identity(a)

    @pytest.mark.parametrize("a", first_quotient_cones())
    def test_kernel_identity_on_the_first_quotient_cones(self, a):
        self.assert_kernel_identity(a)


@st.composite
def points_from_rays(draw):
    """A ``simplicial_cones`` cone and a point made of its own rays: a ray,
    its negative, or a sum of rays with signs."""
    fan, _ = draw(simplicial_cones())
    rays = fan.rays
    kind = draw(st.sampled_from(("ray", "negative", "sum")))
    if kind == "sum":
        signs = draw(st.lists(st.sampled_from((-1, 0, 1, 1)), min_size=len(rays),
                              max_size=len(rays)))
    else:
        signs = [0] * len(rays)
        signs[draw(st.integers(0, len(rays) - 1))] = 1 if kind == "ray" else -1
    point = tuple(sum(s * ray[j] for s, ray in zip(signs, rays)) for j in range(fan.dim))
    return fan, point


class TestConeMembership:
    @settings(max_examples=400, deadline=None)
    @given(simplicial_cones(), st.sampled_from([gauss_jordan_solve, solve_rational_linear]))
    def test_signs_match_oracle(self, case, solve):
        fan, point = case
        cone = fan.max_cones[0]
        try:
            expected = solve(transpose(fan.rays), point).x
        except NoSolutionError:
            expected = None
        coords = cone_coordinates(fan, cone, point)
        if expected is None:
            assert coords is None
            assert not cone_contains(fan, cone, point)
            return
        assert coords is not None
        assert [sign(c) for c in coords] == [sign(x) for x in expected]
        assert cone_contains(fan, cone, point) == all(x >= 0 for x in expected)
        if all(type(x) is int for x in point):
            assert all(type(c) is int for c in coords)

    @settings(max_examples=400, deadline=None)
    @given(points_from_rays())
    def test_points_from_the_rays_match_the_oracle(self, case):
        # A ray is in its cone without arithmetic, and a full-dimensional
        # cone reads rows up to the first negative one: the Fraction solve
        # shares neither shortcut.
        fan, point = case
        cone = fan.max_cones[0]
        assert cone_contains(fan, cone, point) == solve_cone_contains(fan, cone, point)

    @settings(max_examples=200, deadline=None)
    @given(full_dimensional_fans())
    def test_every_ray_against_every_cone(self, psi):
        # A ray of the fan outside a cone is not one of the cone's rays.
        fan = psi.fan
        for cone, ray in itertools.product(fan.max_cones, fan.rays):
            assert cone_contains(fan, cone, ray) == solve_cone_contains(fan, cone, ray)

    def test_quotient_inclusion_builds_no_coordinate_vector(self, monkeypatch):
        # Every image of the inclusion is a ray of the quotient fan: each
        # of the 13 x 13 tests is a ray lookup or stops at a negative row.
        sub, big, inclusion = cyclic_quotient_fans(12)
        for cone in big.max_cones:
            big.kernel(cone)
        calls = []

        def counted(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in ("cone_contains", "cone_coordinates", "_row_products"):
            monkeypatch.setattr(fans, name, counted(name, getattr(fans, name)))
        assert fans.is_toric_morphism(inclusion, sub, big)
        assert calls == ["cone_contains"] * 13 * 13


class TestCartierCertificate:
    @settings(max_examples=300, deadline=None)
    @given(full_dimensional_fans())
    def test_matches_oracle(self, psi):
        fan = psi.fan
        duals = []
        failure = None
        for index, cone in enumerate(fan.max_cones):
            rays = tuple(fan.rays[i] for i in cone)
            rhs = tuple(psi.values[i] for i in cone)
            solution = gauss_jordan_solve(rays, rhs).x
            if any(x.denominator != 1 for x in solution):
                failure = (index, solution)
                break
            duals.append(tuple(int(x) for x in solution))
        certificate = cartier_certificate(psi)
        if failure is None:
            assert certificate.cone_duals == tuple(duals)
            assert certificate.failure_cone is None
        else:
            assert certificate.cone_duals is None
            assert (certificate.failure_cone, certificate.failure_solution) == failure


class TestMultiplicity:
    @settings(max_examples=300, deadline=None)
    @given(simplicial_cones())
    def test_matches_determinants(self, case):
        fan, _ = case
        cone = fan.max_cones[0]
        rays = tuple(fan.rays[i] for i in cone)
        k = len(rays)
        # The index of the lattice the rays span in the lattice points of
        # their span is the gcd of the k x k minors of the ray matrix.
        expected = gcd(*(
            determinant(tuple(tuple(ray[j] for j in cols) for ray in rays))
            for cols in itertools.combinations(range(fan.dim), k)
        ))
        assert fan.kernel(cone)[1] == smith_index(rays) == expected
        assert expected == prod(invariant_factors(rays))
        if k == fan.dim:
            assert cone_multiplicity(fan, cone) == abs(determinant(rays))


class TestOneKernel:
    """``Fan.kernel`` on cones of every dimension k <= n <= 5 against the
    Smith-form oracles: ``solve_rational_linear`` and the Smith index."""

    @settings(max_examples=300, deadline=None)
    @given(simplicial_cones())
    def test_kernel_identity(self, case):
        fan, _ = case
        cone = fan.max_cones[0]
        rays = fan.rays
        inv, d = fan.kernel(cone)
        assert all(type(x) is int for row in inv for x in row)
        assert len(inv) == len(cone) and all(len(row) == fan.dim for row in inv)
        for i, row in enumerate(inv):
            for j, ray in enumerate(rays):
                assert sum(x * y for x, y in zip(row, ray)) == d * (i == j)

    @settings(max_examples=300, deadline=None)
    @given(simplicial_cones(), st.lists(st.integers(-6, 6), min_size=5, max_size=5))
    def test_cone_solution_is_the_smith_solution(self, case, values):
        fan, _ = case
        cone = fan.max_cones[0]
        rhs = tuple(values[:len(cone)])
        expected = solve_rational_linear(fan.rays, rhs).x
        integral, witness = _integral_cone_solution(fan, cone, rhs)
        if all(x.denominator == 1 for x in expected):
            assert witness is None
            assert integral == tuple(int(x) for x in expected)
        else:
            assert integral is None
            assert witness == expected

    @settings(max_examples=300, deadline=None)
    @given(simplicial_cones(), st.lists(st.integers(0, 4), min_size=5, max_size=5))
    def test_positive_coordinates_are_child_indices(self, case, weights):
        fan, _ = case
        cone = fan.max_cones[0]
        rays = fan.rays
        w = tuple(sum(c * ray[j] for c, ray in zip(weights, rays)) for j in range(fan.dim))
        assume(any(w))
        # Dividing by the gcd gives lattice points of the cone off the
        # lattice the rays span.
        w = primitive(w)
        coords = cone_coordinates(fan, cone, w)
        assert coords is not None and all(c >= 0 for c in coords)
        for pos, coeff in enumerate(coords):
            if coeff > 0:
                assert coeff == smith_index(rays[:pos] + (w,) + rays[pos + 1:])


class TestDependentCones:
    # Rays 0 and 1 are opposite: cone (0, 1) is a line, not a simplicial
    # cone, and its points have no unique coordinates to read signs from.
    LINE = Fan(3, ((1, 0, 0), (-1, 0, 0), (0, 0, 1)), ((0, 1), (2,)))

    def test_membership_raises(self):
        with pytest.raises(InfiniteIndexError):
            cone_contains(self.LINE, (0, 1), (-1, 0, 0))
        with pytest.raises(InfiniteIndexError):
            self.LINE.kernel((0, 1))

    def test_membership_raises_at_its_own_rays(self):
        # The kernel is read before the rays are: a point that is one of
        # the cone's rays has no unique coordinates either.
        plane = Fan(2, ((1, 0), (-1, 0), (0, 1)), ((0, 1), (1, 1)))
        for fan, cone in ((self.LINE, (0, 1)), (plane, (0, 1)), (plane, (1, 1))):
            for i in cone:
                with pytest.raises(InfiniteIndexError):
                    cone_contains(fan, cone, fan.rays[i])

    def test_is_toric_morphism_raises(self):
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        src = Fan(3, ((0, 0, 1),), ((0,),))
        with pytest.raises(InfiniteIndexError):
            fans.is_toric_morphism(identity, src, self.LINE)

    def test_validation_reports_it(self):
        assert fans.validate_fan(self.LINE).violations == ("cone 0 is not simplicial",)


class TestBoxLatticePoints:
    @settings(max_examples=200, deadline=None)
    @given(simplicial_cones())
    def test_matches_fraction_oracle(self, case):
        fan, _ = case
        rays = fan.rays
        kernel = fan.kernel(fan.max_cones[0])
        assert _box_lattice_points(rays, kernel) == fraction_box_lattice_points(rays)


class TestKernelStore:
    def test_store_is_invisible_to_repr_eq_and_hash(self):
        fresh, used = cyclic_quotient_fans(3)[1], cyclic_quotient_fans(3)[1]
        before = (repr(used), hash(used))
        for cone in used.max_cones:
            used.kernel(cone)
        assert used._kernels and not fresh._kernels
        assert (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))
        assert used == fresh
        assert {used: 1}[fresh] == 1

    def test_store_is_not_a_constructor_parameter(self):
        with pytest.raises(TypeError):
            Fan(1, ((1,), (-1,)), ((0,), (1,)), {})
        with pytest.raises(TypeError):
            Fan(1, ((1,), (-1,)), ((0,), (1,)), _kernels={})

    def test_each_kernel_is_computed_once_per_fan(self, inverse_calls):
        first, second = cyclic_quotient_fans(3)[1], cyclic_quotient_fans(3)[1]
        for fan in (first, first, second):
            for cone in fan.max_cones:
                assert fan.kernel(cone)[1] == 4
        # Every two cones share a facet, so each fan inverts its first cone
        # and exchanges into the others.  The store belongs to the fan: an
        # equal fan computes its own.
        assert len(inverse_calls) == 2

    def test_desingularize_computes_each_kernel_once(self, inverse_calls):
        # Only the first input cone is inverted: the other input cones are
        # its facet neighbours, and every child inherits its kernel, so the
        # result's smoothness costs nothing.
        quotient = cyclic_quotient_fans(5)[1]
        smooth = fans.desingularize(quotient)
        assert len(smooth.max_cones) == 180
        assert inverse_calls == [transpose([quotient.rays[i] for i in quotient.max_cones[0]])]
        inverse_calls.clear()
        assert fans.is_smooth(smooth)
        assert inverse_calls == []

    def test_desingularize_hands_its_kernels_on(self, inverse_calls):
        # P(1, 1, 2): cone 0 2 has multiplicity 2 and is replaced by two
        # children; the other two are smooth and survive the subdivision.
        weighted = fans.make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        smooth = fans.desingularize(weighted)
        assert len(smooth.rays) == 4
        stored = dict(smooth._kernels)
        # Exactly the cones of the result are kept, each under its own key.
        assert set(stored) == set(smooth.max_cones) == {(0, 1), (1, 2), (0, 3), (2, 3)}
        for cone, kernel in stored.items():
            assert kernel == rational_inverse(transpose([smooth.rays[i] for i in cone]))
        inverse_calls.clear()
        assert fans.is_smooth(smooth) and fans.is_smooth(smooth)
        assert inverse_calls == []


@st.composite
def exchanges(draw):
    """A nonsingular ray matrix R (dims 1-6) as cone 0..dim-1, a position,
    and a replacement ray w = ray dim.  In half the draws w is a nonzero
    combination of the facet opposite pos, so c = (N w)[pos] = 0; in the
    others w is random and negated half the time, so c takes either sign."""
    dim = draw(st.integers(1, 6))
    rays = draw(square_matrices(dim))
    assume(determinant(rays) != 0)
    pos = draw(st.integers(0, dim - 1))
    if draw(st.booleans()):
        coeffs = [draw(st.integers(-3, 3)) if i != pos else 0 for i in range(dim)]
        w = tuple(sum(a * ray[j] for a, ray in zip(coeffs, rays)) for j in range(dim))
        assume(any(w))
    else:
        w = draw(st.tuples(*[st.integers(-6, 6)] * dim))
        if draw(st.booleans()):
            w = tuple(-x for x in w)
    return tuple(rays), pos, w


@st.composite
def unimodular_exchanges(draw):
    """A unimodular ray matrix R (dims 1-6, d = 1) as cone 0..dim-1, a
    position, and w = sum a_j ray_j with a_pos nonzero and other a_j often
    0.  Then c = (N w)[pos] = a_pos; where it is -1 or 1, c = d and the
    rows with c_j = 0 are kept by the step; a_pos = 2 or -3 gives a child
    of multiplicity 2 or 3, where they are not."""
    dim = draw(st.integers(1, 6))
    rays = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, 2 * dim))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        k = draw(st.integers(-2, 2))
        if i != j:
            rays[i] = [x + k * y for x, y in zip(rays[i], rays[j])]
    rays = draw(st.permutations(rays))
    pos = draw(st.integers(0, dim - 1))
    coeffs = [
        draw(st.sampled_from((1, -1, 2, -3))) if i == pos
        else draw(st.sampled_from((0, 0, 0, 1, -1, 2)))
        for i in range(dim)
    ]
    w = tuple(sum(a * ray[j] for a, ray in zip(coeffs, rays)) for j in range(dim))
    return tuple(map(tuple, rays)), pos, w


class TestExchangeStep:
    """A full-dimensional kernel is unique, so the one exchange step of
    ``_exchange_kernel`` must give ``rational_inverse`` of the new rays."""

    @settings(max_examples=300, deadline=None)
    @given(exchanges(), st.randoms(use_true_random=False))
    def test_step_equals_rational_inverse(self, exchange, rnd):
        self.assert_step_equals_rational_inverse(exchange, rnd)

    @settings(max_examples=300, deadline=None)
    @given(unimodular_exchanges(), st.randoms(use_true_random=False))
    def test_smooth_step_equals_rational_inverse(self, exchange, rnd):
        rays, pos, w = exchange
        assert rational_inverse(transpose(rays))[1] == 1
        self.assert_step_equals_rational_inverse(exchange, rnd)

    @staticmethod
    def assert_step_equals_rational_inverse(exchange, rnd):
        rays, pos, w = exchange
        dim = len(rays)
        cone = tuple(range(dim))
        kernel = rational_inverse(transpose(rays))
        coords = lattice.mat_vec(kernel[0], w)
        assume(coords[pos] != 0)
        # Any row order: the rows follow the child's tuple.
        child = [i for i in cone if i != pos] + [dim]
        rnd.shuffle(child)
        child = tuple(child)
        pool = rays + (w,)
        expected = rational_inverse(transpose([pool[i] for i in child]))
        assert _exchange_kernel(kernel, cone, coords, pos, dim, child) == expected
        assert expected[1] == abs(coords[pos])

    @settings(max_examples=300, deadline=None)
    @given(exchanges())
    def test_fan_kernel_exchanges_or_raises(self, exchange):
        rays, pos, w = exchange
        dim = len(rays)
        cone = tuple(range(dim))
        child = tuple(sorted(set(cone) - {pos} | {dim}))
        fan = Fan(dim, rays + (w,), (cone, child))
        fan.kernel(cone)
        assert fan._facets[child[:-1]] == [(cone, pos), (child, dim - 1)]
        child_rays = transpose([fan.rays[i] for i in child])
        if lattice.mat_vec(fan.kernel(cone)[0], w)[pos] == 0:
            # As Bareiss does: w lies in the facet's span.
            with pytest.raises(InfiniteIndexError, match="matrix is singular"):
                rational_inverse(child_rays)
            with pytest.raises(InfiniteIndexError, match="matrix is singular"):
                fan.kernel(child)
            assert child not in fan._kernels
        else:
            assert fan.kernel(child) == rational_inverse(child_rays)

    @pytest.fixture(scope="class")
    def fans_with_oracles(self):
        found = [cyclic_quotient_fans(n)[k] for n in range(2, 13) for k in (0, 1)]
        found += [fans.desingularize(cyclic_quotient_fans(n)[1]) for n in range(2, 6)]
        return [
            (fan.dim, fan.rays, fan.max_cones, {
                cone: rational_inverse(transpose([fan.rays[i] for i in cone]))
                for cone in fan.max_cones
            })
            for fan in found
        ]

    @settings(max_examples=10, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_every_order_gives_the_oracle(self, fans_with_oracles, rnd):
        # The quotient fans n = 2..12 and the refinements n = 2..5, each
        # read afresh with an empty store, in a random cone order.
        for dim, rays, cones, oracle in fans_with_oracles:
            fan = Fan(dim, rays, cones)
            order = list(cones)
            rnd.shuffle(order)
            for cone in order:
                assert fan.kernel(cone) == oracle[cone]

    def test_one_inversion_per_quotient_fan(self, inverse_calls):
        for n in range(2, 13):
            for fan in cyclic_quotient_fans(n)[:2]:
                for cone in reversed(fan.max_cones):
                    fan.kernel(cone)
        assert len(inverse_calls) == 2 * 11

    def test_other_cones_take_their_own_kernel(self, inverse_calls, smith_calls):
        # P^2 with cone 0 1 stored: a repeated index and dependent rays
        # find a neighbour with c = 0 and raise, and a ray takes the Smith
        # form, as without the neighbour.
        fan = Fan(2, ((1, 0), (0, 1), (-1, -1), (2, 0)), ((0, 1), (1, 2), (0, 2)))
        fan.kernel((0, 1))
        for cone in [(1, 1), (0, 3)]:
            with pytest.raises(InfiniteIndexError, match="matrix is singular"):
                fan.kernel(cone)
        assert fan.kernel((0,)) == (((1, 0),), 1)
        assert len(inverse_calls) == 3 and len(smith_calls) == 1
        # Cones 1 2 and then 0 2 each exchange from a stored neighbour.
        assert fan.kernel((1, 2)) == rational_inverse(transpose([(0, 1), (-1, -1)]))
        assert fan.kernel((0, 2)) == rational_inverse(transpose([(1, 0), (-1, -1)]))
        assert len(inverse_calls) == 3


class TestFacetTable:
    """One facet table per fan: the kernel exchange and the completeness
    certificate read the same map, built once."""

    @pytest.fixture(scope="class")
    def refinement(self):
        smooth = fans.desingularize(cyclic_quotient_fans(8)[1])
        assert len(smooth.max_cones) == 2700
        return smooth

    @pytest.fixture
    def builds(self, monkeypatch):
        """One flag per call of ``_facet_table`` from now on: whether that
        call built the table."""
        calls = []
        build = fans._facet_table

        def spy(fan):
            calls.append(fan._facets is None)
            return build(fan)

        monkeypatch.setattr(fans, "_facet_table", spy)
        return calls

    def test_every_facet_has_two_sides(self, refinement):
        table = fans._facet_table(Fan(refinement.dim, refinement.rays, refinement.max_cones))
        assert len(table) == 2700 * 8 // 2
        for facet, sides in table.items():
            assert len(sides) == 2
            assert all(cone[:pos] + cone[pos + 1:] == facet for cone, pos in sides)

    @pytest.mark.parametrize("source", ["file", "desingularize"])
    def test_validation_builds_the_table_once(self, refinement, builds, source):
        # A fan read from a file builds the table at its first kernel miss
        # and the certificate reads it; a fan that holds every kernel, as
        # the one desingularize returns does, builds it in the certificate.
        fan = Fan(refinement.dim, refinement.rays, refinement.max_cones)
        if source == "desingularize":
            fan = fans._sharing_kernels(fan, dict(refinement._kernels))
        assert fans.validate_fan(fan).valid
        assert builds.count(True) == 1
        table = fan._facets
        # A second certificate builds nothing and allocates no map of its
        # own: its peak, mostly the slice of cones past cone 0, stays well
        # below the size of the table's dict alone.
        builds.clear()
        tracemalloc.start()
        try:
            assert fans._certifies_complete(fan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert builds == [False] and fan._facets is table
        assert peak < sys.getsizeof(table) // 4

    def test_subdivisions_build_no_table(self, builds):
        # The fans stellar_subdivide and desingularize return hold a kernel
        # for every cone, so reading them needs no neighbour.
        quotient = cyclic_quotient_fans(4)[1]
        smooth = fans.desingularize(quotient)
        split = fans.stellar_subdivide(smooth, (1, 1, 1, 1))
        for fan in (smooth, split):
            assert fans.is_smooth(fan)
            for cone in fan.max_cones:
                cone_coordinates(fan, cone, (1, 2, 3, 4))
            assert fan._facets is None
        assert builds.count(True) == 1 and quotient._facets is not None

    def test_table_is_invisible_and_not_a_parameter(self):
        fresh, used = cyclic_quotient_fans(3)[1], cyclic_quotient_fans(3)[1]
        before = (repr(used), hash(used))
        assert fans._certifies_complete(used)
        assert used._facets and fresh._facets is None
        assert (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))
        assert used == fresh
        with pytest.raises(TypeError):
            Fan(1, ((1,), (-1,)), ((0,), (1,)), _facets={})


def test_deleted_names_stay_gone():
    # Multiplicity, membership and the box enumeration are integer
    # computations on the cone kernel; the Fraction path must not return.
    assert not hasattr(fans, "Fraction")
    for module, name in [
        (fans, "_general_multiplicity"),
        # Fan.kernel gives the multiplicity of a cone of any dimension.
        (fans, "_cone_index"),
        (fans, "_multiplicity"),
        (lattice, "invariant_factors"),
        # Each fan keeps its own kernels (Fan.kernel); no module-level cache.
        (fans, "cone_kernel"),
        (fans, "find_containing_cone"),
        (lattice, "determinant"),
        (lattice, "sublattice_index"),
        (models, "check_record"),
        (models, "ConsistencyReport"),
        # One rule table; propagate is the one loop that applies its steps.
        (models, "_Engine"),
        (models, "_IMPLICATIONS"),
        (quasilines, "sublattice_index"),
        (quasilines, "check_record"),
        # The class of an error decides its exit code (quasilines.errors).
        (cli, "MATH_ERRORS"),
        (cli, "_RECORD_KEYS"),
        # One compose per form restricts to the plane and the chart.
        (Poly, "substitute"),
        # The pencil is expanded term by term; the oracles live in conftest.
        (Poly, "compose"),
        (Poly, "derivative"),
        (divisors, "ExtensionSample"),
        # One table-driven scanner reads argv.
        (cli, "build_parser"),
        (cli, "_Parser"),
        # MAX_QUOTIENT_N bounds both appendix and lemma-a2.
        (cli, "MAX_LEMMA_N"),
        # A builtin record's arity is read from its code object.
        (cli, "inspect"),
        # Negative numbers are read by isdecimal checks (argscan._negative_number).
        (argscan, "re"),
        # Res_y(P, Q) comes out of one pseudo-division over Z[s], with no
        # evaluation points, no interpolation and no integer determinant.
        (cubic, "_resultant_over_z"),
        (cubic, "_conic_cubic_resultant"),
        (cubic, "_interpolate"),
        (cubic, "_sylvester_determinant"),
        (cubic, "_bareiss_determinant"),
    ]:
        assert not hasattr(module, name), name
