"""Support functions, Cartier certificates and lattice-point section counts.

A toric divisor sum(a_i D_i) is carried as the ray-indexed value list of its
support function, with the convention value(v_i) = -a_i.  Sections are
counted exactly as the integer points of the polyhedron {u : <u, v_i> >=
value(v_i)}, by integer projection: one Fourier-Motzkin chain eliminates the
coordinates from the last down, decides boundedness and bounds every
coordinate in terms of the earlier ones.  Unbounded systems are a hard
error, since an infinite count is meaningless.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import QuasilinesError, UsageError
from .fans import (
    Cone,
    Fan,
    cone_contains,
    cyclic_quotient_fans,
    desingularize,
    is_smooth,
    is_toric_morphism,
)
from .frozen import Frozen
from .lattice import (
    FracVec,
    Vec,
    dot,
    fm_projections,
    mat_vec,
)


class NotMorphismError(QuasilinesError, ValueError):
    """The lattice hom does not define a toric morphism between the fans."""


class NotCartierError(QuasilinesError, ValueError):
    """The divisor being pulled back admits no Cartier certificate."""


class UnboundedPolyhedronError(QuasilinesError):
    """The sections polyhedron has a nontrivial recession cone."""


# Largest number of lattice points one count may enumerate.
LATTICE_POINT_BUDGET = 100_000

# Largest number of coordinate values one count may scan: the sizes of all
# the ranges it walks, at every level, so a count that finds few points is
# bounded too.  Ten values per point of LATTICE_POINT_BUDGET; P^2 with
# O(400) scans 81,002.
LATTICE_SCAN_BUDGET = 1_000_000


class LatticePointBudgetError(QuasilinesError):
    """A lattice-point count has more than ``LATTICE_POINT_BUDGET`` points,
    or scans more than ``LATTICE_SCAN_BUDGET`` values."""


class SupportFunction(Frozen):
    """One integer value per ray of the fan, value(v_i) = -a_i.

    Any other number of values raises ``UsageError`` with the text the
    command line reports, such as "2 values for 3 rays".
    """

    fan: Fan
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.fan.rays):
            raise UsageError(f"{len(self.values)} values for {len(self.fan.rays)} rays")


class CartierCertificate(Frozen):
    """Per-cone integral dual vectors, or the first failing cone with its
    rational-only solution as witness."""

    support: SupportFunction
    cone_duals: tuple[Vec, ...] | None
    failure_cone: int | None
    failure_solution: FracVec | None

    @property
    def cartier(self) -> bool:
        return self.cone_duals is not None

    def evaluate(self, point: Vec) -> int:
        """Value of the piecewise linear function at a lattice point."""
        if not self.cartier:
            raise NotCartierError("no certificate to evaluate")
        fan = self.support.fan
        for cone, dual in zip(fan.max_cones, self.cone_duals):
            if cone_contains(fan, cone, point):
                return int(dot(dual, point))
        raise ValueError(f"{point} lies outside the support of the fan")


class SectionsPolyhedron(Frozen):
    """Integer inequality system <u, normal> >= rhs, normals the fan rays."""

    dim: int
    constraints: tuple[tuple[Vec, int], ...]


class LatticePointCount(Frozen):
    count: int
    points: tuple[Vec, ...]


def _integral_cone_solution(fan: Fan, cone: Cone, rhs: tuple[int, ...]):
    """Solve <m, ray_i> = rhs_i over the rays of ``cone``; return (m, None)
    when m is integral and (None, m) with m rational otherwise.

    With the cone kernel (N, d), m = N^T rhs / d solves it: N R^T = d I
    for the ray matrix R.  N^T rhs is summed over the rows of N with a
    nonzero right-hand side.  m is integral exactly when d divides every
    entry.  A full-dimensional cone has no other solution; on a smaller
    one m is the particular solution of the Smith-form solve,
    V[:, :k] diag(1 / s_i) U rhs.
    """
    inv, d = fan.kernel(cone)
    scaled = [0] * len(inv[0])
    for value, row in zip(rhs, inv):
        if value:
            scaled = [x + value * y for x, y in zip(scaled, row)]
    if all(x % d == 0 for x in scaled):
        return tuple(x // d for x in scaled), None
    return None, tuple(Fraction(x, d) for x in scaled)


def cartier_certificate(psi: SupportFunction) -> CartierCertificate:
    """Certify psi as piecewise integral-linear, cone by cone.

    Failure is a certificate too: the first cone whose dual solve is
    rational but not integral is reported together with that solution.
    """
    fan = psi.fan
    duals: list[Vec] = []
    for index, cone in enumerate(fan.max_cones):
        rhs = tuple(psi.values[i] for i in cone)
        integral, witness = _integral_cone_solution(fan, cone, rhs)
        if integral is None:
            return CartierCertificate(psi, None, index, witness)
        assert all(dot(integral, fan.rays[i]) == val for i, val in zip(cone, rhs))
        duals.append(integral)
    return CartierCertificate(psi, tuple(duals), None, None)


def pullback(psi: SupportFunction, hom, src: Fan) -> SupportFunction:
    """Pull a Cartier support function back along a toric morphism."""
    if not is_toric_morphism(hom, src, psi.fan):
        raise NotMorphismError("hom does not map the source fan into the target fan")
    certificate = cartier_certificate(psi)
    if not certificate.cartier:
        raise NotCartierError(
            f"no certificate: cone {certificate.failure_cone} has rational-only dual"
        )
    values = tuple(certificate.evaluate(mat_vec(hom, ray)) for ray in src.rays)
    return SupportFunction(src, values)


def sections_polyhedron(psi: SupportFunction) -> SectionsPolyhedron:
    """One constraint <u, v_i> >= value(v_i) per ray.

    Only the rays matter, so a support function on a union of rays (no
    common extension to the cones required) yields the same system.
    """
    return SectionsPolyhedron(
        psi.fan.dim,
        tuple((ray, val) for ray, val in zip(psi.fan.rays, psi.values)),
    )


def count_lattice_points(polyhedron: SectionsPolyhedron) -> LatticePointCount:
    """Exact lattice-point count with the point list, by integer projection.

    Fourier-Motzkin elimination of u_{d-1}, ..., u_1 gives one system per
    level k in u_0 ... u_k alone.  The polyhedron is bounded exactly when
    every level k has rows bounding u_k from below and from above: the
    eliminations combine rows by their coefficients only, so this decides
    the recession cone {u : <u, normal> >= 0} from the normals, and an empty
    system with a recession direction is still unbounded.  Unless some level
    reads 0 >= positive, the points are then enumerated depth first: each
    integer u_0 allowed by level 0 is substituted into level 1 to bound u_1,
    and so on, so the points come out in lexicographic order.
    """
    levels, empty = fm_projections(
        (normal + (rhs,) for normal, rhs in polyhedron.constraints), polyhedron.dim
    )
    bounds = []
    for k, rows in enumerate(levels):
        lower = [(row[:k], row[k], row[-1]) for row in rows if row[k] > 0]
        upper = [(row[:k], row[k], row[-1]) for row in rows if row[k] < 0]
        if not lower or not upper:
            raise UnboundedPolyhedronError(f"recession direction exists along axis {k}")
        bounds.append((lower, upper))
    points: list[Vec] = []
    if not empty:
        _enumerate_points(bounds, (), points)
    return LatticePointCount(len(points), tuple(points))


def _enumerate_points(bounds, prefix: Vec, points: list[Vec], scanned: int = 0) -> int:
    """Append the lattice points extending ``prefix``, in lexicographic
    order, and return the number of values scanned, ``scanned`` before.

    A level row c * u_k + <coeffs, prefix> >= rhs bounds u_k from below
    when c > 0 and from above when c < 0; one integer division each.  The
    size of each range is added to the scanned count before the range is
    walked.  Raises ``LatticePointBudgetError`` before the points pass
    ``LATTICE_POINT_BUDGET`` or the scanned values pass
    ``LATTICE_SCAN_BUDGET``.
    """
    lower, upper = bounds[len(prefix)]
    lo = max(
        -((sum(a * x for a, x in zip(coeffs, prefix)) - rhs) // c)
        for coeffs, c, rhs in lower
    )
    hi = min(
        (rhs - sum(a * x for a, x in zip(coeffs, prefix))) // c
        for coeffs, c, rhs in upper
    )
    last = len(prefix) + 1 == len(bounds)
    reached = len(points) + hi - lo + 1
    if last and reached > LATTICE_POINT_BUDGET:
        raise LatticePointBudgetError(
            f"lattice-point enumeration reached {reached} points, "
            f"over the budget LATTICE_POINT_BUDGET = {LATTICE_POINT_BUDGET}"
        )
    scanned += max(hi - lo + 1, 0)
    if scanned > LATTICE_SCAN_BUDGET:
        raise LatticePointBudgetError(
            f"lattice-point enumeration scanned {scanned} values, "
            f"over the budget LATTICE_SCAN_BUDGET = {LATTICE_SCAN_BUDGET}"
        )
    for value in range(lo, hi + 1):
        if last:
            points.append(prefix + (value,))
        else:
            scanned = _enumerate_points(bounds, prefix + (value,), points, scanned)
    return scanned


def h0(psi: SupportFunction) -> int:
    """Dimension of the section space, as a lattice-point count."""
    return count_lattice_points(sections_polyhedron(psi)).count


def quotient_hyperplane_support(fan: Fan) -> SupportFunction:
    """The hyperplane-image divisor of the cyclic quotient family: value -1
    on the second ray, 0 elsewhere."""
    values = tuple(-1 if i == 1 else 0 for i in range(len(fan.rays)))
    return SupportFunction(fan, values)


class ExtensionReport(Frozen):
    """Outcome of sampling integral extensions of a support function to a
    refinement of its fan.

    Both bounds hold before any sample is drawn, so the two failure fields
    are 0 on every report: the ray prefix makes the base constraints the
    first constraints of every extended polyhedron, and each count filters
    the base points (see ``sampled_extension_check``).  The per-sample
    recount that checks this lives in the tests, as
    ``conftest.per_sample_extension_check``.  On a smooth refinement every
    sample is Cartier, so ``cartier_samples`` equals ``tested``.
    """

    seed: int
    coeff_bound: int
    requested: int
    tested: int
    cartier_samples: int
    base_count: int
    counts: tuple[int, ...]
    containment_failures: int
    count_violations: int
    note: str

    @property
    def all_ok(self) -> bool:
        return self.containment_failures == 0 and self.count_violations == 0


_EXTENSION_NOTE = (
    "finitely many sampled extensions are probed; the section bound itself "
    "quantifies over every integral extension"
)


def _points_above(points, rays, values) -> tuple[Vec, ...]:
    """The ``points`` u with <u, ray> >= value for every ray, in order."""
    cuts = tuple(zip(rays, values))
    return tuple(
        point for point in points
        if all(sum(a * x for a, x in zip(ray, point)) >= value for ray, value in cuts)
    )


def sampled_extension_check(
    base: SupportFunction,
    refined: Fan,
    coeff_bound: int,
    samples: int,
    seed: int,
) -> ExtensionReport:
    """Sample integral extensions of ``base`` to ``refined`` and check that
    the extended sections polyhedron keeps every base constraint and never
    counts more lattice points than the base one.

    ``refined`` must keep the base rays as a prefix (stellar subdivisions
    do).  New-ray values are drawn uniformly from [-coeff_bound,
    coeff_bound]; extensions without a Cartier certificate are skipped, not
    counted as violations.  At most 20 draws are made per requested sample.
    A negative ``coeff_bound`` or ``samples`` raises ``UsageError``.

    Smoothness of ``refined`` is decided once.  On a smooth fan every
    integral support function is Cartier (Fulton 1993, section 3.3): each
    cone has index 1, so its dual solve is integral for every integral
    right-hand side, and a sample costs one filter of the base points.  On
    any other fan each draw first gets its own ``cartier_certificate``.

    Both bounds follow before the loop starts, so ``containment_failures``
    and ``count_violations`` are 0 without a check per sample.
    Containment: the extended polyhedron's constraints are
    zip(refined.rays, values), and the ray prefix makes its first ones
    exactly the base constraints.  The count: the extended polyhedron is
    the base one cut by the new rays' half-spaces, so its lattice points
    are the base points that satisfy the new rows (``_points_above``), in
    the same lexicographic order, and a subset of the base points is never
    larger.  The base count has bounded the polyhedron and passed
    ``LATTICE_POINT_BUDGET`` and ``LATTICE_SCAN_BUDGET``, so the filter can
    raise neither.  ``conftest.per_sample_extension_check`` in the tests
    still certifies, recounts and checks containment for every sample, and
    the reports are compared with it.
    """
    if coeff_bound < 0:
        raise UsageError("the coefficient bound must be non-negative")
    if samples < 0:
        raise UsageError("the sample count must be non-negative")
    base_rays = base.fan.rays
    if refined.rays[: len(base_rays)] != base_rays:
        raise ValueError("refined fan must preserve the base rays as a prefix")
    base_points = count_lattice_points(sections_polyhedron(base)).points
    new_rays = refined.rays[len(base_rays):]
    smooth = is_smooth(refined)
    rng = random.Random(seed)
    counts: list[int] = []
    tested = 0
    while len(counts) < samples and tested < 20 * samples:
        tested += 1
        extra = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in new_rays)
        values = base.values + extra
        if smooth or cartier_certificate(SupportFunction(refined, values)).cartier:
            counts.append(len(_points_above(base_points, new_rays, extra)))
    return ExtensionReport(
        seed=seed,
        coeff_bound=coeff_bound,
        requested=samples,
        tested=tested,
        cartier_samples=len(counts),
        base_count=len(base_points),
        counts=tuple(counts),
        containment_failures=0,
        count_violations=0,
        note=_EXTENSION_NOTE,
    )


def quotient_extension_check(
    n: int, coeff_bound: int, samples: int, seed: int
) -> tuple[ExtensionReport, Fan, Fan]:
    """Run the sampled extension check on the desingularized quotient fan.

    Returns the report together with the quotient fan and its smooth
    refinement, for reporting.
    """
    _, quotient, _ = cyclic_quotient_fans(n)
    refined = desingularize(quotient)
    base = quotient_hyperplane_support(quotient)
    report = sampled_extension_check(base, refined, coeff_bound, samples, seed)
    return report, quotient, refined
