"""Metamorphic properties of the toric kernel: identities that need no oracle.

A unimodular change of basis g in GL(n, Z) maps a fan to an isomorphic one
(Fulton 1993, ch. 1), and adding <m, v_i> to every value translates the
sections polyhedron by m (Cox, Little and Schenck 2011, section 4.3).  Both
run on the quotient fans and their smooth refinements for n = 2..5, with -K
(value -1 on every ray) and with seeded values in [-2, 1].  The image fans
are built fresh, with their rays and cones reordered, so every kernel comes
from an inversion or a facet-neighbour exchange step that starts from other
cones than on the original fan.

On the quotient fans n = 2..4, D = (n + 1) times the hyperplane image is
Cartier, and its pullback to the smooth refinement counts the same sections
for every multiple kD.  For k = 0..n + 1 the count is a polynomial of degree
at most n in k (Ehrhart; Cox, Little and Schenck 2011, section 9.4), so its
(n + 1)-th forward difference is 0.  The interior lattice points of kD,
those with <u, v_i> >= k b_i + 1, number (-1)^n L(-k), where L is that
Ehrhart polynomial (Macdonald 1971; Stanley 1974; Beck and Robins 2007,
ch. 4).  This reciprocity needs no oracle, and it reaches n = 5, where the
count of 5D passes the lattice-point budget.
"""

import random

import pytest

from quasilines.divisors import (
    SupportFunction,
    cartier_certificate,
    count_lattice_points,
    h0,
    pullback,
    quotient_hyperplane_support,
    sections_polyhedron,
)
from quasilines.fans import (
    _certifies_complete,
    cone_multiplicity,
    cyclic_quotient_fans,
    desingularize,
    is_smooth,
    make_fan,
    validate_fan,
)
from quasilines.lattice import mat_vec, rational_inverse, transpose

NS = (2, 3, 4, 5)


def fans_under_test(n):
    """The quotient fan (multiplicity n + 1, not smooth) and its refinement,
    each rebuilt with no stored kernel."""
    quotient = cyclic_quotient_fans(n)[1]
    refined = desingularize(quotient)
    return [make_fan(fan.dim, fan.rays, fan.max_cones) for fan in (quotient, refined)]


def value_vectors(fan, rng):
    return [(-1,) * len(fan.rays)] + [
        tuple(rng.randint(-2, 1) for _ in fan.rays) for _ in range(2)
    ]


def unimodular(rng, n):
    """A seeded g in GL(n, Z): signed permutation times elementary row
    operations."""
    perm = rng.sample(range(n), n)
    g = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        g[i] = [x + k * y for x, y in zip(g[i], g[j])]
    return tuple(map(tuple, g))


def transformed(fan, g, rng):
    """g . fan with its rays and cones shuffled, and the ray order used:
    image ray k is g times ray order[k]."""
    order = rng.sample(range(len(fan.rays)), len(fan.rays))
    where = {old: new for new, old in enumerate(order)}
    cones = [tuple(where[i] for i in cone) for cone in fan.max_cones]
    rng.shuffle(cones)
    return make_fan(fan.dim, [mat_vec(g, fan.rays[i]) for i in order], cones), order


def kernel_view(fan, values):
    """Validity with the path that decided it, smoothness, the multiplicity
    and Cartier dual of each cone keyed by its set of rays, and the sections
    point list."""
    psi = SupportFunction(fan, values)
    report = validate_fan(fan)
    certificate = cartier_certificate(psi)
    key = lambda cone: frozenset(fan.rays[i] for i in cone)
    duals = dict(zip(map(key, fan.max_cones), certificate.cone_duals or ()))
    return {
        "valid": (report.valid, report.violations, _certifies_complete(fan)),
        "smooth": is_smooth(fan),
        "multiplicities": {key(c): cone_multiplicity(fan, c) for c in fan.max_cones},
        "cartier": certificate.cartier,
        "duals": duals,
        "points": count_lattice_points(sections_polyhedron(psi)).points,
    }


@pytest.mark.parametrize("n", NS)
def test_unimodular_image_keeps_every_invariant(n):
    rng = random.Random(100 + n)
    for fan in fans_under_test(n):
        for values in value_vectors(fan, rng):
            base = kernel_view(fan, values)
            assert base["valid"] == (True, (), True)
            for _ in range(2):
                g = unimodular(rng, n)
                inv, d = rational_inverse(g)
                assert d == 1
                image, order = transformed(fan, g, rng)
                seen = kernel_view(image, tuple(values[i] for i in order))
                # Ray sets map by g, dual vectors and points by g^-T.
                move = lambda rays: frozenset(mat_vec(g, ray) for ray in rays)
                dual_map = transpose(inv)
                assert seen["valid"] == base["valid"]
                assert seen["smooth"] == base["smooth"]
                assert seen["multiplicities"] == {
                    move(k): m for k, m in base["multiplicities"].items()}
                assert seen["cartier"] == base["cartier"]
                assert seen["duals"] == {
                    move(k): mat_vec(dual_map, m) for k, m in base["duals"].items()}
                assert seen["points"] == tuple(sorted(
                    mat_vec(dual_map, u) for u in base["points"]))


@pytest.mark.parametrize("n", NS)
def test_linear_equivalence_translates_the_points(n):
    rng = random.Random(200 + n)
    for fan in fans_under_test(n):
        for values in value_vectors(fan, rng):
            base = kernel_view(fan, values)
            m = tuple(rng.randint(-3, 3) for _ in range(n))
            shifted = tuple(b + sum(x * y for x, y in zip(m, ray))
                            for b, ray in zip(values, fan.rays))
            seen = kernel_view(make_fan(fan.dim, fan.rays, fan.max_cones), shifted)
            assert seen["cartier"] == base["cartier"]
            assert seen["duals"] == {
                k: tuple(x + y for x, y in zip(dual, m)) for k, dual in base["duals"].items()}
            # Lexicographic order survives a translation.
            assert seen["points"] == tuple(
                tuple(x + y for x, y in zip(u, m)) for u in base["points"])


def dilation_divisors(n):
    """D = (n + 1) times the hyperplane image on the quotient fan, and its
    pullback along the identity to the smooth refinement, as (fan, values)
    pairs."""
    quotient = cyclic_quotient_fans(n)[1]
    hyperplane = quotient_hyperplane_support(quotient)
    divisor = SupportFunction(quotient, tuple((n + 1) * v for v in hyperplane.values))
    assert cartier_certificate(divisor).cartier
    refined = desingularize(quotient)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return [(quotient, divisor.values), (refined, pullback(divisor, identity, refined).values)]


def sections(fan, values, k, shift=0):
    """h0 of the values k v + shift: the lattice points of kD for shift 0,
    and those of its interior for shift 1."""
    return h0(SupportFunction(fan, tuple(k * v + shift for v in values)))


def newton_value(values, x):
    """The polynomial of degree below len(values) that takes values[i] at
    i = 0, 1, ..., evaluated at the integer x by Newton's forward
    differences; each binomial C(x, j) is an exact integer."""
    total, binomial, diffs = 0, 1, list(values)
    for j in range(len(values)):
        total += diffs[0] * binomial
        binomial = binomial * (x - j) // (j + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


# h0(kD) for k = 0..n + 1; at n = 5 the count for k = 6 is over the
# lattice-point budget.
EHRHART_COUNTS = {
    2: (1, 4, 10, 19),
    3: (1, 10, 43, 116, 245),
    4: (1, 26, 201, 776, 2126, 4751),
}


@pytest.mark.parametrize("n", sorted(EHRHART_COUNTS))
def test_pullback_keeps_the_ehrhart_counts(n):
    (quotient, values), (refined, pulled) = dilation_divisors(n)
    counts = []
    for k in range(n + 2):
        count = sections(quotient, values, k)
        assert sections(refined, pulled, k) == count
        counts.append(count)
    assert tuple(counts) == EHRHART_COUNTS[n]
    for _ in range(n + 1):
        counts = [b - a for a, b in zip(counts, counts[1:])]
    assert counts == [0]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_interior_counts_satisfy_ehrhart_macdonald_reciprocity(n):
    # L(-k) is extrapolated exactly from L(0..n), on both fans.
    for fan, values in dilation_divisors(n):
        ehrhart = [sections(fan, values, k) for k in range(n + 1)]
        interior = [sections(fan, values, k, shift=1) for k in range(1, n + 2)]
        assert interior == [(-1) ** n * newton_value(ehrhart, -k) for k in range(1, n + 2)]
        if n == 3:
            assert interior == [0, 9, 42, 115]


def test_reciprocity_brings_n_5_into_the_ehrhart_check():
    # L(-2) and L(-1), read off the interior counts at k = 2 and 1, stand in
    # for the counts at k = 5 and 6, which pass the lattice-point budget.
    for fan, values in dilation_divisors(5):
        counts = [-sections(fan, values, k, shift=1) for k in (2, 1)]
        counts += [sections(fan, values, k) for k in range(5)]
        assert counts == [-76, 0, 1, 80, 1038, 5620, 19811]
        for _ in range(6):
            counts = [b - a for a, b in zip(counts, counts[1:])]
        assert counts == [0]
