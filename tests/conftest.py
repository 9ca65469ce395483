"""Shared oracles for the test suite."""

import argparse
import dataclasses
import itertools
import random
from fractions import Fraction
from math import prod
from operator import mul

import pytest

from quasilines import cli, fans, lattice
from quasilines.cubic import (
    DegenerateError,
    DimensionMismatchError,
    LineCountReport,
    Poly,
    SingularPointError,
    gcd_univariate,
    line_pencil_expansion,
    sylvester_resultant,
)
from quasilines.divisors import (
    _EXTENSION_NOTE,
    ExtensionReport,
    SectionsPolyhedron,
    SupportFunction,
    cartier_certificate,
    count_lattice_points,
    sections_polyhedron,
)
from quasilines.errors import UsageError
from quasilines.fans import Fan, cone_contains
from quasilines.lattice import (
    InfiniteIndexError,
    LinearSolution,
    NoSolutionError,
    fm_feasible,
    mat_vec,
    primitive,
    smith_normal_form,
    transpose,
)
from quasilines.models import BUILTIN_RECORDS


def random_bounded_system(rng, dim):
    """Random inequality system with explicit box bounds, always bounded.

    Returns (polyhedron, lows, highs); the box is the independent scan
    region for the brute-force oracle.
    """
    lows = [-rng.randint(0, 6) for _ in range(dim)]
    highs = [rng.randint(0, 6) for _ in range(dim)]
    constraints = []
    for j in range(dim):
        axis = tuple(int(k == j) for k in range(dim))
        constraints.append((axis, lows[j]))
        constraints.append((tuple(-x for x in axis), -highs[j]))
    for _ in range(rng.randint(0, 4)):
        normal = tuple(rng.randint(-4, 4) for _ in range(dim))
        if all(x == 0 for x in normal):
            continue
        constraints.append((normal, rng.randint(-8, 2)))
    return SectionsPolyhedron(dim, tuple(constraints)), lows, highs


def rational_cone_points(fan, cone, rng, count):
    """Sample ``count`` rational points from the closed cone."""
    points = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in cone]
        point = tuple(
            sum(c * fan.rays[i][j] for c, i in zip(coeffs, cone))
            for j in range(fan.dim)
        )
        points.append(point)
    return points


def find_containing_cone(fan, point):
    """First maximal cone of ``fan`` that ``cone_contains`` places ``point``
    in, or None.  The cone found is confirmed by ``solve_cone_contains``,
    which shares no code with the kernel, and None is returned when it
    disagrees: a false "no" already leaves no cone, and a false "yes" is
    caught here."""
    cone = next((c for c in fan.max_cones if cone_contains(fan, c, point)), None)
    return cone if cone is not None and solve_cone_contains(fan, cone, point) else None


def supports_agree(fan_a, fan_b, rng, per_cone):
    """Sampling oracle: points of each fan's cones lie in the other fan."""
    for src, dst in ((fan_a, fan_b), (fan_b, fan_a)):
        for cone in src.max_cones:
            for point in rational_cone_points(src, cone, rng, per_cone):
                if find_containing_cone(dst, point) is None:
                    return False
    return True


def brute_force_count(constraints, lows, highs):
    """Independent lattice-point count by scanning an explicit integer box."""
    count = 0
    points = []
    for candidate in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if all(
            sum(n * x for n, x in zip(normal, candidate)) >= rhs
            for normal, rhs in constraints
        ):
            count += 1
            points.append(candidate)
    return count, points


def recession_probe_axis(polyhedron):
    """First axis along which the recession cone {u : <u, normal> >= 0} has
    a direction, or None when it is trivial.

    Independent of the projection chain: one Fourier-Motzkin feasibility
    probe per signed coordinate direction, u_axis >= 1 or -u_axis >= 1.
    """
    dim = polyhedron.dim
    recession_rows = [normal + (0,) for normal, _ in polyhedron.constraints]
    for axis in range(dim):
        for sign in (1, -1):
            probe = tuple(sign * int(axis == j) for j in range(dim)) + (1,)
            if fm_feasible(recession_rows + [probe], dim):
                return axis
    return None


def gauss_jordan_solve(a, b):
    """Reference solver for A x = b: Gauss-Jordan elimination over
    ``Fraction``, free variables set to zero.

    Independent of the integer kernel and of the Smith form; raises
    ``NoSolutionError`` when the system is inconsistent.
    """
    rows, cols = len(a), len(a[0])
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] != 0:
            raise NoSolutionError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for row_idx, c in enumerate(pivot_cols):
        x[c] = aug[row_idx][cols]
    return LinearSolution(tuple(x), unique=(len(pivot_cols) == cols))


def determinant(a):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    rows = len(a)
    if any(len(row) != rows for row in a):
        raise ValueError("determinant of a non-square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(rows - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, rows) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, rows):
            for j in range(k + 1, rows):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[rows - 1][rows - 1]


def compose(poly, replacements):
    """Reference substitution: ``poly`` with the ``Poly`` replacements[i]
    put in for variable i, each power built once, in ascending order."""
    if len(replacements) != poly.nvars:
        raise DimensionMismatchError("one replacement per variable is required")
    nvars = replacements[0].nvars
    if any(r.nvars != nvars for r in replacements):
        raise DimensionMismatchError("replacements live in different rings")
    powers = [[Poly.constant(1, nvars)] for _ in replacements]
    result = Poly.zero(nvars)
    for exps, coeff in poly.terms.items():
        term = Poly.constant(coeff, nvars)
        for repl, table, e in zip(replacements, powers, exps):
            if e:
                while len(table) <= e:
                    table.append(table[-1] * repl)
                term = term * table[e]
        result = result + term
    return result


def derivative(poly, var):
    """Reference partial derivative of ``poly`` in variable ``var``."""
    terms = {}
    for exps, coeff in poly.terms.items():
        e = exps[var]
        if e:
            key = exps[:var] + (e - 1,) + exps[var + 1:]
            terms[key] = terms.get(key, 0) + coeff * e
    return Poly(poly.nvars, terms)


def compose_pencil_expansion(f, point):
    """Reference for the graded pieces (q1, q2, q3) of
    ``cubic.line_pencil_expansion``: f composed with p_i + t v_i in the
    ring (t, v_0, ..., v_4), v_pivot = 0, then sorted by the power of t."""
    point = tuple(x if type(x) in (int, Fraction) else Fraction(x) for x in point)
    pivot = next(i for i, x in enumerate(point) if x != 0)
    t = Poly.variable(0, 6)
    replacements = [Poly.constant(x, 6) for x in point]
    for i in range(5):
        if i != pivot:
            replacements[i] = replacements[i] + t * Poly.variable(1 + i, 6)
    graded = [{} for _ in range(4)]
    for exps, coeff in compose(f, replacements).terms.items():
        graded[exps[0]][exps[1:]] = coeff
    assert not graded[0]
    return tuple(Poly(5, g) for g in graded[1:])


def fraction_plane_restriction(f, point):
    """The conic and the cubic of ``fraction_line_count`` as ``Poly`` over
    ``Fraction``, with the survivor and the resultant variable: two
    ``compose`` calls restrict q2 and q3 to the plane q1 = 0 and to the
    chart = 1."""
    expansion = line_pencil_expansion(f, point)
    if expansion.q1.is_zero:
        raise SingularPointError("the linear part vanishes: singular base point")
    linear = {exps.index(1): coeff for exps, coeff in expansion.q1.terms.items()}
    eliminated = min(linear)
    lead = linear[eliminated]
    chart, survivor, resultant_var = sorted(
        set(range(5)) - {expansion.pivot, eliminated}
    )
    plane = [Poly.variable(v, 5) for v in range(5)]
    plane[chart] = Poly.constant(1, 5)
    solved = Poly.zero(5)
    for var, coeff in linear.items():
        if var != eliminated:
            solved = solved + plane[var] * Fraction(-coeff, lead)
    plane[eliminated] = solved
    return compose(expansion.q2, plane), compose(expansion.q3, plane), survivor, resultant_var


def fraction_line_count(f, point):
    """Reference for ``cubic.count_lines_through_point``: the same checks
    over ``Poly`` with ``Fraction`` coefficients.  The forms are restricted
    by ``fraction_plane_restriction``, ``sylvester_resultant`` expands
    their resultant by column subsets, and ``gcd_univariate`` decides the
    squarefree and no-loss tests."""
    conic_affine, cubic_affine, survivor, resultant_var = fraction_plane_restriction(f, point)
    if conic_affine.is_zero or cubic_affine.is_zero:
        raise DegenerateError("a restricted form vanishes identically")
    d_conic = conic_affine.degree_in(resultant_var)
    d_cubic = cubic_affine.degree_in(resultant_var)
    full_degrees = d_conic == 2 and d_cubic == 3
    if d_conic < 1 or d_cubic < 1:
        return LineCountReport(
            count=0, with_multiplicity=True, generic=False, resultant_degree=-1,
            squarefree=False, no_loss_at_infinity=False,
            full_fibre_degrees=full_degrees, resultant=(),
        )
    resultant = sylvester_resultant(conic_affine, cubic_affine, resultant_var)
    if resultant.is_zero:
        raise DegenerateError("resultant vanishes identically")
    degree = resultant.degree_in(survivor)
    squarefree = (
        degree >= 1
        and gcd_univariate(resultant, derivative(resultant, survivor)).total_degree() == 0
    )
    lc_conic = conic_affine.coefficients_in(resultant_var)[d_conic]
    lc_cubic = cubic_affine.coefficients_in(resultant_var)[d_cubic]
    if lc_conic.total_degree() == 0 or lc_cubic.total_degree() == 0:
        no_loss = True
    else:
        no_loss = gcd_univariate(lc_conic, lc_cubic).total_degree() == 0
    return LineCountReport(
        count=degree,
        with_multiplicity=not squarefree,
        generic=full_degrees and degree == 6 and squarefree and no_loss,
        resultant_degree=degree,
        squarefree=squarefree,
        no_loss_at_infinity=no_loss,
        full_fibre_degrees=full_degrees,
        resultant=tuple(resultant.as_univariate(survivor)),
    )


def _isinstance_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return " ".join(_isinstance_scalar(v) for v in value)
    raise TypeError(f"cannot render {value!r}")


def isinstance_render(entries):
    """Reference for ``report.render``: every scalar through one isinstance
    chain, as before the exact-type dispatch."""
    lines = []
    for key, value in entries:
        if isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"- {_isinstance_scalar(item)}")
        else:
            text = _isinstance_scalar(value)
            lines.append(f"{key}: {text}" if text else f"{key}:")
    return "\n".join(lines) + "\n"


def invariant_factors(a):
    """Diagonal of the Smith normal form of ``a`` (zeros included)."""
    _, s, _ = smith_normal_form(a)
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]))))


def smith_index(rays):
    """Reference multiplicity: the index of the lattice spanned by ``rays``
    in the lattice points of their span, the product of the Smith invariant
    factors.  Independent of the cone kernel; dependent rays raise
    ``InfiniteIndexError``."""
    factors = invariant_factors(rays)
    if len(factors) < len(rays) or 0 in factors:
        raise InfiniteIndexError("cone generators are linearly dependent")
    return prod(factors)


def fraction_box_lattice_points(rays):
    """Reference for ``fans._box_lattice_points``: the Smith-group
    enumeration with ``Fraction`` coefficients lam = (sum z_i U_i / s_i)
    mod 1 and points lam R, independent of the cone kernel."""
    k = len(rays)
    u, s, _ = smith_normal_form(rays)
    factors = [s[i][i] for i in range(k)]
    if any(f == 0 for f in factors):
        raise InfiniteIndexError("cone generators are linearly dependent")
    points = set()
    for residues in itertools.product(*(range(f) for f in factors)):
        mu = [Fraction(z, f) for z, f in zip(residues, factors)]
        lam = [sum(mu[i] * u[i][j] for i in range(k)) for j in range(k)]
        frac = [c - (c.numerator // c.denominator) for c in lam]
        coords = [
            sum(frac[i] * rays[i][j] for i in range(k))
            for j in range(len(rays[0]))
        ]
        assert all(Fraction(c).denominator == 1 for c in coords)
        if any(c != 0 for c in coords):
            points.add(tuple(int(c) for c in coords))
    return points


def per_sample_extension_check(base, refined, coeff_bound, samples, seed):
    """Reference for ``divisors.sampled_extension_check``: the same draws,
    but every sample gets its own Cartier certificate and its own
    lattice-point count of the whole extended polyhedron."""
    base_polyhedron = sections_polyhedron(base)
    base_count = count_lattice_points(base_polyhedron).count
    base_constraints = set(base_polyhedron.constraints)
    new_rays = len(refined.rays) - len(base.fan.rays)
    rng = random.Random(seed)
    counts = []
    tested = cartier_samples = containment_failures = count_violations = 0
    attempts_cap = samples * 20 if samples else 0
    while cartier_samples < samples and tested < attempts_cap:
        tested += 1
        extra = tuple(rng.randint(-coeff_bound, coeff_bound) for _ in range(new_rays))
        psi = SupportFunction(refined, base.values + extra)
        if not cartier_certificate(psi).cartier:
            continue
        cartier_samples += 1
        extended = sections_polyhedron(psi)
        if not base_constraints <= set(extended.constraints):
            containment_failures += 1
        result = count_lattice_points(extended)
        counts.append(result.count)
        if result.count > base_count:
            count_violations += 1
    return ExtensionReport(
        seed=seed,
        coeff_bound=coeff_bound,
        requested=samples,
        tested=tested,
        cartier_samples=cartier_samples,
        base_count=base_count,
        counts=tuple(counts),
        containment_failures=containment_failures,
        count_violations=count_violations,
        note=_EXTENSION_NOTE,
    )


def scan_desingularize(fan):
    """Reference for ``fans.desingularize``: the same choice of target cone
    and ray, but every candidate is scored against every maximal cone, the
    multiplicities are read for every cone at every step, and each step
    builds its own star.  Every multiplicity, the children's included, is a
    Smith index, so the scan reads no cone kernel and takes no exchange
    step.  Needs no valid fan and no budget.

    In a full-dimensional cone with rays r_i, w = sum l_i r_i has l_i =
    det(r with r_i replaced by w) / det(r) (Cramer's rule), and that
    numerator is <C_i, w> for the row C_i of cofactors of r_i (Laplace
    expansion).  So the cofactors are read once per cone and scan, each a
    ``determinant`` of a minor, and w lies in the cone when no <C_i, w> has
    the sign opposite to det(r) = <C_0, r_0>.  A smaller cone is tested by
    ``solve_cone_contains`` and read by ``gauss_jordan_solve`` for each
    candidate.  The child that replaces ray pos by w, for each positive
    coordinate, is built as a sorted index tuple, and each Smith index is
    read once per scan and ray tuple."""
    cofactors, indices = {}, {}

    def cofactor(rays, i, j):
        rest = rays[:i] + rays[i + 1:]
        return (-1) ** (i + j) * determinant([r[:j] + r[j + 1:] for r in rest])

    def coordinates(current, cone, w):
        rays = tuple(current.rays[i] for i in cone)
        if len(cone) < current.dim:
            if not solve_cone_contains(current, cone, w):
                return None
            return gauss_jordan_solve(transpose(rays), w).x
        if rays not in cofactors:
            k = len(rays)
            cofactors[rays] = [[cofactor(rays, i, j) for j in range(k)] for i in range(k)]
        rows = cofactors[rays]
        sign = 1 if sum(map(mul, rows[0], rays[0])) > 0 else -1
        coords = [sign * sum(map(mul, row, w)) for row in rows]
        return coords if min(coords) >= 0 else None

    def index(rays):
        if rays not in indices:
            indices[rays] = smith_index(rays)
        return indices[rays]

    current = fan
    while True:
        mults = {cone: index(tuple(current.rays[i] for i in cone)) for cone in current.max_cones}
        worst = max(mults.values(), default=1)
        if worst == 1:
            return current
        target = min(cone for cone, m in mults.items() if m == worst)
        target_rays = tuple(current.rays[i] for i in target)
        candidates = sorted({primitive(p) for p in fraction_box_lattice_points(target_rays)})
        rays = current.rays
        best = None
        for w in candidates:
            star, children = set(), set()
            for cone in current.max_cones:
                coords = coordinates(current, cone, w)
                if coords is not None:
                    star.add(cone)
                    children.update(
                        tuple(sorted(cone[:pos] + cone[pos + 1:] + (len(rays),)))
                        for pos, c in enumerate(coords) if c > 0
                    )
            score = max(index(tuple((rays + (w,))[i] for i in child)) for child in children)
            if best is None or score < best[0]:
                best = score, w, star, children
        _, w, star, children = best
        cones = sorted(set(current.max_cones) - star | children)
        current = Fan(current.dim, rays + (w,), tuple(cones))


def solve_cone_contains(fan, cone, point):
    """Reference for ``fans.cone_contains``: the signs of the point's
    coordinates in the cone's rays by ``gauss_jordan_solve``, with no
    kernel and no shortcut for the rays.  Dependent rays raise
    ``InfiniteIndexError`` at every point, as the kernel does.  Uniqueness
    depends on the rays alone, so a point in their span is read by one
    solve, and only a point outside it takes a second, homogeneous one."""
    columns = transpose([fan.rays[i] for i in cone])
    try:
        solution, in_span = gauss_jordan_solve(columns, point), True
    except NoSolutionError:
        solution, in_span = gauss_jordan_solve(columns, (0,) * fan.dim), False
    if not solution.unique:
        raise InfiniteIndexError("cone generators are linearly dependent")
    return in_span and all(x >= 0 for x in solution.x)


def scan_is_toric_morphism(hom, src, dst):
    """Reference for ``fans.is_toric_morphism``: one membership test per
    (source cone, target cone, image ray), each by ``solve_cone_contains``."""
    if len(hom) != dst.dim or any(len(row) != src.dim for row in hom):
        raise ValueError("lattice hom dimensions do not match the fans")
    for cone in src.max_cones:
        images = [mat_vec(hom, src.rays[i]) for i in cone]
        if not any(
            all(solve_cone_contains(dst, candidate, img) for img in images)
            for candidate in dst.max_cones
        ):
            return False
    return True


# Reference for ``cli.parse_args``: the argparse parser the command line
# used before its table-driven scanner, unchanged.
class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to exit 1
        raise UsageError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("human", "structured"), default="human")
    common.add_argument("--out", type=str, default=None)

    parser = _Parser(prog="quasilines", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("appendix", parents=[common],
                       help="quotient fans, Cartier dichotomy and section count")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lemma-a2", parents=[common],
                       help="sampled divisor extensions on the smooth refinement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("bundle", parents=[common], help="splitting-type calculus")
    p.add_argument("subop", choices=(
        "elm", "plan", "self-int", "recover", "cor17", "thm41", "thm16", "point",
    ))
    p.add_argument("--type", dest="type_", type=str, default=None)
    p.add_argument("--targets", type=str, default=None)
    p.add_argument("--anchor", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--dimD", dest="dim_d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--quasiline", choices=("true", "false"), default=None)

    p = sub.add_parser("cubic", parents=[common],
                       help="certified line count through a point of a cubic threefold")
    p.add_argument("--bound", type=int, default=9)
    p.add_argument("--demo", choices=("reducible",), default=None)

    p = sub.add_parser("models", parents=[common], help="invariant propagation")
    p.add_argument("record", nargs="?", default=None,
                   help="builtin record name: " + ", ".join(sorted(BUILTIN_RECORDS)))
    p.add_argument("--file", type=str, default=None)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("fan", parents=[common], help="fan file operations")
    p.add_argument("subop", choices=("validate", "desingularize", "cartier", "h0"))
    p.add_argument("fanfile", nargs="?", default=None)
    p.add_argument("--values", type=str, default=None)
    p.add_argument("--divisor", type=str, default=None)

    return parser


def fan_file_parser():
    """``build_parser()`` with the one deliberate change of the scanner: an
    optional positional that matches nothing stays pending, so the fan file
    is read wherever it follows the subop."""
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    fan = commands.choices["fan"]
    match = fan._match_arguments_partial

    def pending_fan_file(actions, pattern):
        counts = match(actions, pattern)
        while counts and counts[-1] == 0 and actions[len(counts) - 1].nargs == "?":
            counts.pop()
        return counts

    fan._match_arguments_partial = pending_fan_file
    return parser


def dataclass_twin(cls):
    """A ``dataclass(frozen=True)`` with the name, fields, defaults and
    ``__post_init__`` of the value class ``cls``: the reference for the
    methods ``quasilines.frozen.Frozen`` derives."""
    own = vars(cls)
    namespace = {"__annotations__": dict(cls.__annotations__),
                 "__qualname__": cls.__qualname__, "__module__": cls.__module__}
    namespace.update((name, own[name]) for name in cls.__annotations__ if name in own)
    if "__post_init__" in own:
        namespace["__post_init__"] = own["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


@pytest.fixture
def inverse_calls(monkeypatch):
    """The matrices ``fans`` passes to ``rational_inverse`` from now on."""
    calls = []

    def counting(a):
        calls.append(a)
        return lattice.rational_inverse(a)

    monkeypatch.setattr(fans, "rational_inverse", counting)
    return calls


@pytest.fixture
def smith_calls(monkeypatch):
    """The matrices ``fans`` passes to ``smith_normal_form`` from now on."""
    calls = []

    def counting(a):
        calls.append(a)
        return lattice.smith_normal_form(a)

    monkeypatch.setattr(fans, "smith_normal_form", counting)
    return calls


@pytest.fixture
def exchange_calls(monkeypatch):
    """The child cones ``fans`` passes to ``_exchange_kernel`` from now on,
    one per exchange step, deferred or not."""
    calls = []
    step = fans._exchange_kernel

    def counting(kernel, cone, coords, pos, w_index, child):
        calls.append(child)
        return step(kernel, cone, coords, pos, w_index, child)

    monkeypatch.setattr(fans, "_exchange_kernel", counting)
    return calls
