"""Simplicial fans: validation, multiplicity, subdivision, toric morphisms.

Only simplicial fans are supported; every cone is stored as a sorted tuple of
ray indices.  Membership, Cartier and scoring questions on a cone of any
dimension read signs, or divisibility by d, off its integer kernel (N, d),
and d is its multiplicity.  Membership needs no row of N for a ray of the
cone, and in a full-dimensional cone stops at the first row negative on
the point.  Mod d, the columns of N generate a group whose elements are
the lattice points of the cone's half-open box.  The Smith normal form
only gives the first kernel of a lower-dimensional cone.
Validation accepts a complete fan of full-dimensional cones by a
facet-pairing certificate on the same kernels; any other fan is decided by a
Fourier-Motzkin test per pair of cones.  Cones of a valid fan meet face to
face, so a point lies in exactly the cones through its carrier face: the
desingularizer keeps the cones through each ray and scores and subdivides
each candidate ray on that star alone, and the toric-morphism test finds
the cones holding each image ray once.  A ``Fan`` keeps each kernel from
first use for its own lifetime, and one facet table, built once, that maps
each facet of a full-dimensional maximal cone to the cones on its sides: a
full-dimensional cone that shares a facet with a stored one takes its
kernel from that neighbour's by one fraction-free exchange step, so a fan
whose cones are read facet to facet inverts one matrix, and the
completeness certificate reads its facet pairs off the same table.  A
stellar subdivision derives each new cone's kernel from its parent's.  A
full-dimensional child gets its multiplicity at once and defers the same
exchange step until its N is first read, as a desingularization target,
in a scored star or by ``Fan.kernel``; smoothness and multiplicity read d
alone (``Fan.multiplicity``).  So the fans that ``stellar_subdivide`` and
``desingularize`` build hold a kernel or a deferred step for every
maximal cone and compute none afresh.  The module also builds the fans of
projective space and of its cyclic quotient of order n+1, together with
the lattice inclusion realising the quotient map.
"""

from __future__ import annotations

import heapq
import itertools
from math import prod
from operator import mul

from .errors import QuasilinesError, UsageError
from .frozen import Frozen
from .lattice import (
    InfiniteIndexError,
    Matrix,
    Vec,
    _row_products,
    fm_feasible,
    mat_vec,
    primitive,
    rational_inverse,
    smith_normal_form,
    transpose,
)

Cone = tuple[int, ...]
LatticeHom = Matrix


class BadDimensionError(UsageError):
    """The requested construction needs a larger ambient dimension."""


class OutsideSupportError(QuasilinesError, ValueError):
    """A point expected inside the support of a fan lies outside it."""


class NotMaximalError(UsageError):
    """Cone multiplicity is defined here only for full-dimensional cones."""


# Largest number of stellar subdivisions one desingularization may run.
DESINGULARIZATION_STEP_BUDGET = 10_000

# Largest number of cones one desingularization may hold at once.
DESINGULARIZATION_CONE_BUDGET = 200_000

# Largest multiplicity d of a cone whose box desingularization may list: the
# box holds d - 1 nonzero lattice points, each scored in turn.
BOX_POINT_BUDGET = 10_000


class DesingularizationBudgetError(QuasilinesError):
    """Desingularization needed more than ``DESINGULARIZATION_STEP_BUDGET``
    stellar subdivisions or ``DESINGULARIZATION_CONE_BUDGET`` cones at
    once, or a target cone's box more than ``BOX_POINT_BUDGET`` points."""


# Largest number of cone pairs one pairwise fan validation may test.
FAN_PAIR_BUDGET = 100_000


class FanPairBudgetError(QuasilinesError):
    """Pairwise fan validation needed more than ``FAN_PAIR_BUDGET`` face
    tests."""


class Fan(Frozen):
    """Primitive ray generators plus maximal cones as sorted index tuples.

    The fan stores, keyed by the cone, each cone kernel it computes for its
    own lifetime, or a deferred exchange step that gives the kernel when
    first read (``_forced``).  Its facet table (``_facet_table``) maps each
    facet of a full-dimensional maximal cone to its sides (cone, pos), pos
    the position of the ray opposite the facet.  It is built once, at the
    first kernel miss on a full-dimensional cone or the first completeness
    certificate, and both read it; a fan that ``stellar_subdivide`` or
    ``desingularize`` builds holds a kernel or a deferred step for every
    maximal cone, so it builds the table only if validated.  Store and
    table are set at construction, and are not fields: neither is built
    from, shown or compared.
    """

    dim: int
    rays: tuple[Vec, ...]
    max_cones: tuple[Cone, ...]

    def __post_init__(self):
        object.__setattr__(self, "_kernels", {})
        object.__setattr__(self, "_facets", None)

    def kernel(self, cone: Cone) -> tuple[Matrix, int]:
        """Integer kernel (N, d) of a cone of any dimension (see
        ``_integer_kernel``), computed once per fan.

        A stored deferred step is taken in place (``_forced``).  A
        full-dimensional cone that shares a facet with a maximal cone
        whose kernel is stored takes its kernel from that neighbour's by one
        exchange step (``_exchange_kernel``), which costs O(dim^2) against
        O(dim^3) for an inversion.  Its new ray w has coordinate
        c = (N w)[pos] opposite the facet, and c = 0 exactly when w lies in
        the facet's span: the rays are then dependent, and
        ``_integer_kernel`` raises as it would without the neighbour.  Any
        other cone takes ``_integer_kernel``.
        """
        kernel = self._kernels.get(cone)
        if kernel is None:
            kernel = (len(cone) == self.dim and self._neighbour_kernel(cone)) or _integer_kernel(
                [self.rays[i] for i in cone], self.dim
            )
            self._kernels[cone] = kernel
        elif kernel[0] is None:
            kernel = _forced(self._kernels, cone)
        return kernel

    def multiplicity(self, cone: Cone) -> int:
        """The multiplicity d of ``cone``, read off its stored entry without
        taking a deferred step; a cone with no entry takes ``kernel``."""
        entry = self._kernels.get(cone)
        return (self.kernel(cone) if entry is None else entry)[1]

    def _neighbour_kernel(self, cone: Cone) -> tuple[Matrix, int] | None:
        """The kernel of ``cone`` by one exchange step from the first side,
        across one of its facets, whose kernel is stored, or None.

        The facets are tried from the one without the last ray back.  Its
        other side swaps the largest ray of a sorted cone for another one;
        when that ray is smaller, as it mostly is, the other side comes
        earlier in lexicographic order.  So a fan whose cones are read in
        that order, as the quotient fans are, mostly finds a stored side at
        the first try.
        """
        facets = _facet_table(self)
        for at, w_index in reversed([*enumerate(cone)]):
            for neighbour, pos in facets.get(cone[:at] + cone[at + 1:], ()):
                if neighbour in self._kernels:
                    kernel = self.kernel(neighbour)
                    w = self.rays[w_index]
                    coords = _row_products(kernel[0], w) if len(w) == self.dim else None
                    if coords is None or not coords[pos]:
                        return None
                    return _exchange_kernel(kernel, neighbour, coords, pos, w_index, cone)
        return None


def _facet_table(fan: Fan) -> dict[Cone, list[tuple[Cone, int]]]:
    """The facet table of ``fan``, built on first use and then kept.

    It maps each facet of a full-dimensional maximal cone to its sides
    (cone, pos) in cone order, pos the position of the ray of the cone
    opposite the facet.
    """
    if fan._facets is None:
        facets: dict[Cone, list[tuple[Cone, int]]] = {}
        full = [cone for cone in fan.max_cones if len(cone) == fan.dim]
        for cone, pos in itertools.product(full, range(fan.dim)):
            facets.setdefault(cone[:pos] + cone[pos + 1:], []).append((cone, pos))
        object.__setattr__(fan, "_facets", facets)
    return fan._facets


def _forced(kernels: dict, cone: Cone) -> tuple[Matrix, int]:
    """The kernel of ``cone`` in the store ``kernels``, its deferred step
    taken in place first if it has one.

    A deferred entry is (None, d, step), d the cone's multiplicity and step
    the arguments (kernel, parent, coords, pos, w_index) of the exchange
    step from the parent's kernel (``_exchange_kernel``); ``_star_children``
    records it.  A kernel entry is (N, d), so entry[1] is d either way.
    """
    entry = kernels[cone]
    if entry[0] is None:
        entry = kernels[cone] = _exchange_kernel(*entry[2], cone)
    return entry


def _integer_kernel(rays, dim: int) -> tuple[Matrix, int]:
    """Integer kernel (N, d) of the cone spanned by ``rays`` in ``dim``.

    With the k rays as the rows of R, N is k x dim and N R^T = d I, where d
    is the cone's multiplicity: the index of the lattice the rays span in
    the lattice points of their span.  A full-dimensional cone takes N by
    fraction-free elimination and d = |det R|; N is then unique.  A smaller
    cone takes the Smith form U R V = S with invariant factors s_i:
    d = prod s_i and N = U^T diag(d / s_i) V[:, :k]^T, one left inverse
    among many.  This one has R^T N = d V^-T[:, :k] V[:, :k]^T, so R^T N / d
    is integral, as ``_box_lattice_points`` needs.  Dependent rays raise
    ``InfiniteIndexError``.
    """
    k = len(rays)
    if k == dim:
        return rational_inverse(transpose(rays))
    u, s, v = smith_normal_form(rays)
    factors = [s[i][i] for i in range(min(k, dim))]
    if len(factors) < k or 0 in factors:
        raise InfiniteIndexError("cone generators are linearly dependent")
    d = prod(factors)
    scaled = [tuple(d // f * x for x in row) for f, row in zip(factors, u)]
    inv = tuple(
        tuple(sum(scaled[a][i] * v[j][a] for a in range(k)) for j in range(dim))
        for i in range(k)
    )
    return inv, d


class ValidationReport(Frozen):
    valid: bool
    violations: tuple[str, ...]


def make_fan(dim: int, rays, cones) -> Fan:
    return Fan(
        dim,
        tuple(tuple(int(x) for x in ray) for ray in rays),
        tuple(tuple(sorted(int(i) for i in cone)) for cone in cones),
    )


def _sharing_kernels(fan: Fan, kernels: dict) -> Fan:
    """``fan`` with ``kernels``, computed on a prefix of its rays, as store."""
    object.__setattr__(fan, "_kernels", kernels)
    return fan


def _check_length(fan: Fan, point) -> None:
    if len(point) != fan.dim:
        raise ValueError(f"point of length {len(point)} in a fan of dimension {fan.dim}")


def cone_coordinates(fan: Fan, cone: Cone, point) -> Vec | None:
    """Coordinates of ``point`` in the ray basis of ``cone`` times the cone's
    multiplicity d, or None off the cone's linear span.

    With the cone kernel (N, d) this is N * point: a point x R of the span
    gives N R^T x = d x.  At a lattice point it lists the multiplicities of
    the cones that replace one ray by the point (Cramer's rule).  A
    lower-dimensional cone first checks that the point lies in its span,
    R^T (N * point) = d * point.
    """
    _check_length(fan, point)
    inv, d = fan.kernel(cone)
    coords = _row_products(inv, point)
    if len(cone) < fan.dim and any(
        sum(c * fan.rays[i][j] for c, i in zip(coords, cone)) != d * x
        for j, x in enumerate(point)
    ):
        return None
    return coords


def cone_contains(fan: Fan, cone: Cone, point) -> bool:
    """Whether ``point`` lies in the closed cone, read off its kernel (N, d).

    The kernel is read first, so dependent rays raise ``InfiniteIndexError``
    at any point.  A ray of the cone lies in it, since N ray_j = d e_j.  In
    a full-dimensional cone the point lies in it exactly when every row of
    N is nonnegative on it, and the rows are read until the first negative
    one.  Any other point of a smaller cone takes ``cone_coordinates``,
    which tests the span.
    """
    _check_length(fan, point)
    inv, _ = fan.kernel(cone)
    if point in map(fan.rays.__getitem__, cone):
        return True
    if len(cone) < fan.dim:
        coords = cone_coordinates(fan, cone, point)
        return coords is not None and all(c >= 0 for c in coords)
    return all(sum(map(mul, row, point)) >= 0 for row in inv)


def cone_multiplicity(fan: Fan, cone: Cone) -> int:
    """Index of the sublattice spanned by the ray generators of ``cone``.

    Multiplicity 1 means the corresponding affine chart is smooth.  Only
    full-dimensional (maximal) cones are accepted.
    """
    if len(cone) != fan.dim:
        raise NotMaximalError(f"cone {cone} is not full-dimensional in dim {fan.dim}")
    return fan.multiplicity(cone)


def is_smooth(fan: Fan) -> bool:
    return all(fan.multiplicity(cone) == 1 for cone in fan.max_cones)


def _meet_in_common_face(fan: Fan, a: Cone, b: Cone) -> bool:
    """Exact face test for two simplicial cones of a candidate fan.

    The cones intersect in the common face spanned by their shared rays if
    and only if some linear functional vanishes on the shared rays and is
    strictly positive on the remaining generators of one cone and strictly
    negative on those of the other.  Feasibility of that (strict, scaled to
    >= 1) system is decided by Fourier-Motzkin elimination.
    """
    shared = set(a) & set(b)
    rows: list[tuple[int, ...]] = []
    for i in set(a) - shared:
        rows.append(fan.rays[i] + (1,))
    for i in set(b) - shared:
        rows.append(tuple(-x for x in fan.rays[i]) + (1,))
    for i in shared:
        rows.append(fan.rays[i] + (0,))
        rows.append(tuple(-x for x in fan.rays[i]) + (0,))
    return fm_feasible(rows, fan.dim)


def _certifies_complete(fan: Fan) -> bool:
    """Facet-pairing certificate that ``fan`` is a complete fan.

    The rays of each full-dimensional cone must be independent, as
    ``validate_fan`` checks first.  The certificate accepts when there is at
    least one cone, every cone is full-dimensional, every facet (a cone
    minus the ray at position pos) lies in exactly two cones a and b, as
    the fan's facet table (``_facet_table``) lists them, row pa of the
    kernel N_a of a is negative on the ray of b opposite the facet, and the
    point p = sum of the rays of cone 0 lies in no other closed cone: each
    other kernel's rows are read until the first one negative on p.

    Row pa of N_a vanishes on the facet and is d_a > 0 on the ray of a
    opposite it, so the sign test says that a and b lie strictly on opposite
    sides of the facet's hyperplane (the test is symmetric in a and b).
    Proof of completeness: under that pairing, a path that crosses a facet
    leaves one cone and enters one, so the number of cones covering a
    generic point is constant.  N_0 p = d_0 (1, ..., 1), so p is interior
    to cone 0 and, lying in no other closed cone, has a neighbourhood
    covered once.  So the interiors of the cones are disjoint and cover
    R^dim, and with the facet pairing the cones meet face to face (De
    Loera, Rambau and Santos, Triangulations, 2010, ch. 4): the pairwise
    test would accept too.  A fan this rejects may still be valid.
    """
    cones = fan.max_cones
    if not cones or any(len(cone) != fan.dim for cone in cones):
        return False
    for sides in _facet_table(fan).values():
        if len(sides) != 2:
            return False
        (a, pa), (b, pb) = sides
        if sum(map(mul, fan.kernel(a)[0][pa], fan.rays[b[pb]])) >= 0:
            return False
    p = tuple(sum(coords) for coords in zip(*(fan.rays[i] for i in cones[0])))
    return all(any(sum(map(mul, row, p)) < 0 for row in fan.kernel(cone)[0])
               for cone in cones[1:])


def validate_fan(fan: Fan) -> ValidationReport:
    """Check all Fan invariants and list the violations found.

    Rays and cones are checked one by one, and a cone listed twice is
    reported at its repeat.  If they pass, a complete fan of
    full-dimensional cones is accepted by the facet-pairing certificate of
    ``_certifies_complete``; any other fan is decided by a Fourier-Motzkin
    face test on every pair of cones, which lists each failing pair.  More
    than ``FAN_PAIR_BUDGET`` pairs raise ``FanPairBudgetError`` before the
    first test.
    """
    violations: list[str] = []
    if fan.dim < 1:
        violations.append("dimension must be positive")
        return ValidationReport(False, tuple(violations))
    for idx, ray in enumerate(fan.rays):
        if len(ray) != fan.dim:
            violations.append(f"ray {idx} has wrong dimension")
        elif all(x == 0 for x in ray):
            violations.append(f"ray {idx} is zero")
        elif primitive(ray) != ray:
            violations.append(f"ray {idx} is not primitive")
    seen: dict[Vec, int] = {}
    for idx, ray in enumerate(fan.rays):
        if ray in seen:
            violations.append(f"rays {seen[ray]} and {idx} coincide")
        else:
            seen[ray] = idx
    first: dict[Cone, int] = {}
    for cidx, cone in enumerate(fan.max_cones):
        if cone in first:
            violations.append(f"cone {cidx} repeats cone {first[cone]}")
        elif not cone:
            violations.append(f"cone {cidx} is empty")
        elif len(set(cone)) != len(cone):
            violations.append(f"cone {cidx} repeats a ray index")
        elif any(i < 0 or i >= len(fan.rays) for i in cone):
            violations.append(f"cone {cidx} references a missing ray")
        elif len(cone) > fan.dim:
            violations.append(f"cone {cidx} has more generators than the dimension")
        elif all(len(fan.rays[i]) == fan.dim for i in cone):
            # A ray of the wrong length is already reported above.
            try:
                fan.kernel(cone)
            except InfiniteIndexError:
                violations.append(f"cone {cidx} is not simplicial")
        first.setdefault(cone, cidx)
    used = {i for cone in fan.max_cones for i in cone}
    for idx in range(len(fan.rays)):
        if idx not in used:
            violations.append(f"ray {idx} appears in no maximal cone")
    if not violations and not _certifies_complete(fan):
        pairs = len(fan.max_cones) * (len(fan.max_cones) - 1) // 2
        if pairs > FAN_PAIR_BUDGET:
            raise FanPairBudgetError(
                f"pairwise fan validation needs {pairs} cone pairs, "
                f"over the budget FAN_PAIR_BUDGET = {FAN_PAIR_BUDGET}"
            )
        for i, j in itertools.combinations(range(len(fan.max_cones)), 2):
            if not _meet_in_common_face(fan, fan.max_cones[i], fan.max_cones[j]):
                violations.append(f"cones {i} and {j} do not meet in a common face")
    return ValidationReport(not violations, tuple(violations))


def stellar_subdivide(fan: Fan, w: Vec) -> Fan:
    """Star subdivision of ``fan`` at the primitive lattice point ``w``.

    ``fan`` must be valid (see ``validate_fan``), as for ``desingularize``.
    At a ray of ``fan`` the subdivision changes nothing, and ``fan`` itself
    is returned.  Otherwise every maximal cone containing ``w``, found by
    ``cone_contains`` on every cone, is replaced by the joins of ``w`` with
    its facets not containing ``w``, and ``w`` is appended to the rays;
    cones away from ``w`` survive unchanged, and coordinates of ``w`` are
    computed only in the cones that contain it.  The new fan's store holds
    an entry for every maximal cone: the survivors' entries as ``fan``
    stores them and those of ``_star_children`` for the joins.
    """
    w = tuple(int(x) for x in w)
    if all(x == 0 for x in w):
        raise ValueError("cannot subdivide at the zero vector")
    if primitive(w) != w:
        raise ValueError("subdivision point must be primitive")
    if w in fan.rays:
        return fan
    star = {cone: cone_coordinates(fan, cone, w)
            for cone in fan.max_cones if cone_contains(fan, cone, w)}
    if not star:
        raise OutsideSupportError(f"{w} lies outside the support of the fan")
    new_rays = fan.rays + (w,)
    kernels = {cone: fan._kernels[cone] for cone in fan.max_cones if cone not in star}
    for cone, coords in star.items():
        kernels.update(_star_children(new_rays, cone, coords, fan._kernels[cone]))
    return _sharing_kernels(Fan(fan.dim, new_rays, tuple(sorted(kernels))), kernels)


def _star_children(rays, cone: Cone, coords, kernel):
    """The cones, each with its store entry, that replace ``cone`` when a
    stellar subdivision adds the lattice point w, the last of ``rays``.

    ``coords`` = N w are the kernel coordinates of w in ``cone``, all
    nonnegative, where ``kernel`` = (N, d).  The join of w with the facet
    opposite each ray of positive coordinate c = coords[pos] is yielded.
    Its multiplicity is c in every dimension: w = sum c_j ray_j / d, so
    replacing ray pos by w scales the index d by c / d (Cramer's rule).  A
    full-dimensional child's entry is (None, c, step), its exchange step
    (``_exchange_kernel``) deferred until its N is first read
    (``_forced``): the step needs only the parent's kernel, which stays as
    it is.  A lower-dimensional child has many left inverses, so it takes
    its own from ``_integer_kernel``, as an equal fan would.  Since w has
    the largest index, the child is the cone without ray pos with w
    appended, already sorted.
    """
    w_index = len(rays) - 1
    dim = len(rays[w_index])
    for pos, c in enumerate(coords):
        if c > 0:
            child = cone[:pos] + cone[pos + 1:] + (w_index,)
            if len(cone) < dim:
                yield child, _integer_kernel([rays[i] for i in child], dim)
            else:
                yield child, (None, c, (kernel, cone, coords, pos, w_index))


def _exchange_kernel(kernel, cone: Cone, coords, pos: int, w_index: int, child: Cone):
    """Kernel of the full-dimensional ``child``: ``cone`` with the ray at
    ``pos`` replaced by w = ray ``w_index``.

    ``kernel`` = (N, d) is the kernel of ``cone`` and ``coords`` = N w, with
    c = coords[pos] nonzero.  This is one fraction-free exchange step, as
    ``rational_inverse`` takes it (Bareiss 1968).  Row pos of N vanishes on
    the facet and is c on w, so it becomes w's row; row i becomes
    (c N_i - c_i N_pos) / d, which vanishes on w and is c on ray i.  Every
    entry is a minor, so each division is exact.  The child's multiplicity
    is d' = |c|; when c < 0 every row is negated, which the step does by
    negating N_pos and c, so that N' R'^T = d' I.  The rows follow the
    order of ``child``.  Row i is N_i itself when c_i = 0 and c = d, as
    between neighbouring smooth cones, and is then kept as it is.
    """
    inv, d = kernel
    c, pivot = coords[pos], inv[pos]
    if c < 0:
        c, pivot = -c, tuple([-x for x in pivot])
    rows = {w_index: pivot}
    for i, row, ci in zip(cone, inv, coords):
        if i != cone[pos]:
            rows[i] = row if not ci and c == d else tuple(
                [(c * x - ci * y) // d for x, y in zip(row, pivot)]
            )
    return tuple(rows[i] for i in child), c


def _box_lattice_points(rays: tuple[Vec, ...], kernel) -> set[Vec]:
    """Nonzero lattice points in the half-open parallelepiped of ``rays``.

    Read off the cone's kernel (N, d), so the cost is proportional to the
    multiplicity d rather than to any coordinate bounding box (Cox, Little
    and Schenck 2011, section 11.1).  x -> N x mod d maps Z^dim onto the box
    group of the cone, which has d elements, so a breadth-first closure over
    the columns of N lists the group, and each nonzero element g gives the
    box point (sum g_i ray_i) / d, an exact division.  For a full-dimensional
    cone N is unique.  For a smaller one this holds only for the Smith-form
    left inverse of ``_integer_kernel``: there R^T N / d is integral, so
    every N x is N p for a lattice point p of the span.  An arbitrary integer
    left inverse need not have that property.
    """
    inv, d = kernel
    columns = {tuple(x % d for x in column) for column in zip(*inv)}
    group = [(0,) * len(rays)]
    seen = set(group)
    for g in group:
        for column in columns:
            h = tuple([(x + y) % d for x, y in zip(g, column)])
            if h not in seen:
                seen.add(h)
                group.append(h)
    ray_columns = [*zip(*rays)]
    return {
        tuple([sum(map(mul, g, column)) // d for column in ray_columns])
        for g in group[1:]
    }


def _carrier_star(holders: dict[int, set[Cone]], cone: Cone, coords) -> set[Cone]:
    """The cones through the carrier face of a point of ``cone``.

    ``coords`` are the point's coordinates in ``cone``, and the carrier face
    is spanned by the rays of positive coordinate; ``holders`` maps each ray
    index to the cones through it, and the sets are intersected smallest
    first.  In a valid fan the point lies in the relative interior of its
    carrier face, so these are exactly the cones that contain it.
    """
    return set.intersection(*sorted((holders[i] for i, c in zip(cone, coords) if c > 0), key=len))


def desingularize(fan: Fan) -> Fan:
    """Refine ``fan`` by stellar subdivisions until every cone is smooth.

    Strategy: take a maximal cone of largest multiplicity (ties broken by
    the lexicographically smallest index tuple), read the lattice points of
    its half-open generator parallelepiped off its kernel
    (``_box_lattice_points``), and subdivide at the primitive candidate
    minimising the largest multiplicity among the cones the subdivision
    creates, ties again lexicographic.  Each child cone has strictly
    smaller multiplicity than its parent, so the procedure terminates; the
    support and the original rays are preserved.  More than
    ``DESINGULARIZATION_STEP_BUDGET`` subdivisions, more than
    ``DESINGULARIZATION_CONE_BUDGET`` cones held at once (checked as each
    child is added), or a target of multiplicity over ``BOX_POINT_BUDGET``,
    raise ``DesingularizationBudgetError``; a target's box is listed only
    after its multiplicity is checked.  A smooth input is returned as is.

    ``fan`` must be valid (see ``validate_fan``): its cones meet face to
    face, so a candidate w lies in exactly the cones that contain its
    carrier face F, the face of the target cone spanned by the rays on
    which w has a positive coordinate.  The cones through each ray are kept
    from step to step, and star(F) is the intersection of those sets over
    F; w is scored and the fan subdivided on star(F) alone.  w lies in the
    span of every cone of star(F), and its kernel coordinates there are the
    multiplicities of the children, so a candidate's score is its largest
    coordinate, and the target's coordinates of a candidate serve both its
    carrier face and its star.  One table maps each live cone to its store
    entry: the input cones' entries are read once, and each child takes
    its entry from ``_star_children``, a deferred exchange step in full
    dimension and the Smith-form kernel in a lower one, so only a new
    lower-dimensional child takes a Smith form.  A deferred step is taken
    (``_forced``) only when its cone becomes a target, whose box is read
    off its N, or enters the star of a scored candidate.  The heap and the
    returned fan's smoothness read only d, so most children are never
    forced.  A heap keyed by (-d, cone), whose entries for replaced cones
    are skipped, gives the target.  Rays are only appended, so the table
    serves every step and then the returned fan, which computes no kernel
    afresh.
    """
    dim, rays = fan.dim, fan.rays
    heap = [(-d, cone) for cone in fan.max_cones if (d := fan.multiplicity(cone)) > 1]
    heapq.heapify(heap)
    kernels = {cone: fan._kernels[cone] for cone in fan.max_cones}
    holders: dict[int, set[Cone]] = {}
    for cone in kernels:
        for i in cone:
            holders.setdefault(i, set()).add(cone)
    steps = 0
    while True:
        while heap and heap[0][1] not in kernels:
            heapq.heappop(heap)
        if not heap:
            if not steps:
                return fan
            return _sharing_kernels(Fan(dim, rays, tuple(sorted(kernels))), kernels)
        if steps == DESINGULARIZATION_STEP_BUDGET:
            raise DesingularizationBudgetError(
                f"desingularization needs more than {steps} stellar subdivisions, "
                f"over the budget DESINGULARIZATION_STEP_BUDGET = "
                f"{DESINGULARIZATION_STEP_BUDGET}"
            )
        steps += 1
        target = heapq.heappop(heap)[1]

        if kernels[target][1] > BOX_POINT_BUDGET:
            raise DesingularizationBudgetError(
                f"desingularization target {target} has multiplicity "
                f"{kernels[target][1]}, over the budget BOX_POINT_BUDGET = {BOX_POINT_BUDGET}"
            )
        kernel = _forced(kernels, target)

        def scored(w):
            at_target = _row_products(kernel[0], w)
            star = {
                cone: at_target if cone == target else _row_products(_forced(kernels, cone)[0], w)
                for cone in _carrier_star(holders, target, at_target)
            }
            return max(map(max, star.values())), w, star

        box = _box_lattice_points(tuple(rays[i] for i in target), kernel)
        candidates = sorted({primitive(p) for p in box})
        _, w, star = min(map(scored, candidates))
        rays += (w,)
        for cone, coords in star.items():
            for i in cone:
                holders[i].discard(cone)
            for child, entry in _star_children(rays, cone, coords, kernels.pop(cone)):
                kernels[child] = entry
                if len(kernels) > DESINGULARIZATION_CONE_BUDGET:
                    raise DesingularizationBudgetError(
                        f"desingularization holds {len(kernels)} cones, over the budget "
                        f"DESINGULARIZATION_CONE_BUDGET = {DESINGULARIZATION_CONE_BUDGET}"
                    )
                for i in child:
                    holders.setdefault(i, set()).add(child)
                if entry[1] > 1:
                    heapq.heappush(heap, (-entry[1], child))


def is_toric_morphism(hom: LatticeHom, src: Fan, dst: Fan) -> bool:
    """True when the hom maps every cone of ``src`` into some cone of ``dst``.

    A cone maps into a cone exactly when the images of its rays lie there.
    So each source ray is mapped once, the set of ``dst`` cones that contain
    each distinct image is computed once, and a source cone maps into the
    fan exactly when the sets of its rays' images share a cone.  Each test
    is ``cone_contains``: an image that is a ray of the cone is in it
    without arithmetic, as every image is under the inclusion of
    ``cyclic_quotient_fans``, and any other image of a full-dimensional cone
    is read row by row up to the first negative row, so no coordinate
    vector is built there.  Neither fan needs to be valid, but every
    ``dst`` cone is tested, so one with dependent rays, of any dimension,
    raises ``InfiniteIndexError`` whatever the cone order: it gives a point
    no unique coordinates whose signs could decide membership.
    """
    if len(hom) != dst.dim or any(len(row) != src.dim for row in hom):
        raise ValueError("lattice hom dimensions do not match the fans")
    images: dict[int, Vec] = {}
    holders: dict[Vec, frozenset[Cone]] = {}
    for cone in src.max_cones:
        for i in cone:
            if i not in images:
                images[i] = mat_vec(hom, src.rays[i])
        common = frozenset(dst.max_cones)
        for img in (images[i] for i in cone):
            if img not in holders:
                holders[img] = frozenset(
                    candidate for candidate in dst.max_cones
                    if cone_contains(dst, candidate, img)
                )
            common &= holders[img]
        if not common:
            return False
    return True


def cyclic_quotient_fans(n: int) -> tuple[Fan, Fan, LatticeHom]:
    """Fans of P^n and of its quotient by the cyclic group of order n+1.

    Rays in the ambient lattice are v1 = (n+1, -2, -3, ..., -n), vi = e_i
    for 2 <= i <= n, and v_{n+1} = (-(n+1), 1, 2, ..., n-1); maximal cones
    are all n-element subsets.  The first fan is written in the basis
    ((n+1)e1, e2, ..., en) of the index-(n+1) sublattice, where it is the
    smooth fan of projective space; the returned hom is the lattice
    inclusion, and the induced toric map is the quotient map.
    """
    if n < 2:
        raise BadDimensionError("the quotient construction needs n >= 2")
    v_first = (n + 1,) + tuple(-j for j in range(2, n + 1))
    v_last = (-(n + 1),) + tuple(j - 1 for j in range(2, n + 1))
    units = [tuple(int(k == i) for k in range(n)) for i in range(1, n)]
    rays_big = (v_first, *units, v_last)
    rays_sub = ((1,) + v_first[1:], *units, (-1,) + v_last[1:])
    cones = tuple(itertools.combinations(range(n + 1), n))
    inclusion = tuple(
        tuple((n + 1) if i == j == 0 else int(i == j) for j in range(n))
        for i in range(n)
    )
    assert all(sum(r[j] for r in rays_big) == 0 for j in range(n))
    fan_sub = Fan(n, rays_sub, cones)
    fan_big = Fan(n, rays_big, cones)
    return fan_sub, fan_big, inclusion
