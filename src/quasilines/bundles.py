"""Splitting-type calculus for direct sums of line bundles on the line.

A splitting type is the sorted exponent multiset (a_1, ..., a_k) of
O(a_1) + ... + O(a_k).  Elementary transforms and blow-up rules act on it
by decrementing exponents; the self-intersection map and its inverse tie
the calculus to intersection numbers.  Centers are assumed in general
position throughout: non-general incidence (a center meeting the
distinguished section, or meeting the curve in several points) is rejected
by the preconditions, not modelled.
"""

from __future__ import annotations

from .errors import QuasilinesError, UsageError
from .frozen import Frozen


class InvalidSplittingError(QuasilinesError, ValueError):
    """Self-intersection targets incompatible with any splitting type."""


class NotAmpleError(QuasilinesError, ValueError):
    """An operation needs every exponent to be at least 1."""


class InapplicableReductionError(QuasilinesError, ValueError):
    """A numeric reduction hypothesis fails; the message names it."""


# Largest number of codimension-2 blow-ups one quasi-line plan may list.
PLAN_STEP_BUDGET = 10_000


class PlanBudgetError(QuasilinesError):
    """A quasi-line plan needs more than ``PLAN_STEP_BUDGET`` blow-ups."""


class SplittingType(Frozen):
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not self.exponents:
            raise UsageError("a splitting type needs at least one exponent")
        object.__setattr__(self, "exponents", tuple(sorted(int(a) for a in self.exponents)))

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def total(self) -> int:
        return sum(self.exponents)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.exponents)


class DivisorData(Frozen):
    """Numeric divisor data on an n-fold: d_y = D.Y, dim_d = dim |D|."""

    d_y: int
    dim_d: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("ambient dimension must be at least 2")


class BlowupPlan(Frozen):
    """Trajectory of splitting types; kinds[i] produced types[i+1]."""

    types: tuple[SplittingType, ...]
    kinds: tuple[str, ...]
    almost_line: bool

    @property
    def steps(self) -> int:
        return len(self.kinds)

    @property
    def final(self) -> SplittingType:
        return self.types[-1]


class FibrationReduction(Frozen):
    """Outcome of trading D.Y = d for d-1 point blow-ups."""

    reduced: SplittingType
    d_y: int
    dim_d: int
    target_dim: int


def self_intersections(t: SplittingType) -> tuple[int, ...]:
    """Entry i is -(a_1 + ... + a_k) + k * a_i, in sorted exponent order."""
    k = len(t)
    total = t.total
    return tuple(-total + k * a for a in t.exponents)


def recover_splitting(targets, anchor_sum: int) -> SplittingType:
    """The unique splitting type with the given self-intersections and total.

    The forward map determines exponents only up to translation; the total
    degree pins the translate.  Raises ``InvalidSplittingError`` when the
    targets sum to a nonzero value, differ by non-multiples of k, or force
    non-integral exponents.
    """
    targets = tuple(int(x) for x in targets)
    k = len(targets)
    if k < 2:
        raise InvalidSplittingError("at least two targets are required")
    if sum(targets) != 0:
        raise InvalidSplittingError("self-intersections must sum to zero")
    if any((x - targets[0]) % k != 0 for x in targets):
        raise InvalidSplittingError(f"pairwise differences must be divisible by {k}")
    if (targets[0] + anchor_sum) % k != 0:
        raise InvalidSplittingError("anchor sum is inconsistent with integrality")
    return SplittingType(tuple((x + anchor_sum) // k for x in targets))


def elementary_transform(t: SplittingType) -> SplittingType:
    """General-position elementary transform: top exponent drops by one."""
    if len(t) < 2:
        raise UsageError("an elementary transform needs rank at least 2")
    return codim2_blowup(t)


def point_blowup(t: SplittingType) -> SplittingType:
    """Blowing up a point on the curve twists by O(-p): all exponents drop."""
    return SplittingType(tuple(a - 1 for a in t.exponents))


def codim2_blowup(t: SplittingType) -> SplittingType:
    """Blow-up along a general codimension-2 center meeting the curve once.

    Acts on the normal-bundle splitting exactly like the elementary
    transform on the associated projective bundle.
    """
    exponents = list(t.exponents)
    exponents[-1] -= 1
    return SplittingType(tuple(exponents))


def quasiline_plan(t: SplittingType) -> BlowupPlan:
    """Schedule codimension-2 blow-ups turning an ample type into (1,...,1).

    The plan has sum(a_i - 1) steps and, unless the input already is a
    quasi-line type, the exceptional divisor of the last step meets the
    curve once, so the result is flagged as an almost-line.  More than
    ``PLAN_STEP_BUDGET`` steps raise ``PlanBudgetError`` before the first.
    """
    if any(a < 1 for a in t.exponents):
        raise NotAmpleError("every exponent must be at least 1")
    steps = sum(a - 1 for a in t.exponents)
    if steps > PLAN_STEP_BUDGET:
        raise PlanBudgetError(
            f"the quasi-line plan needs {steps} codimension-2 blow-ups, "
            f"over the budget PLAN_STEP_BUDGET = {PLAN_STEP_BUDGET}"
        )
    trajectory = [t]
    while any(a > 1 for a in trajectory[-1].exponents):
        trajectory.append(codim2_blowup(trajectory[-1]))
    kinds = ("codim2",) * (len(trajectory) - 1)
    return BlowupPlan(tuple(trajectory), kinds, almost_line=len(kinds) > 0)


def fibration_reduction(t: SplittingType, dd: DivisorData) -> FibrationReduction:
    """Reduce D.Y = d to 1 with d-1 point blow-ups on the curve.

    Applicable when a_1 >= d and dim |D| >= d; the reduced model fibres
    over a projective space of dimension dim |D| - d + 1.
    """
    d = dd.d_y
    if d < 1:
        raise InapplicableReductionError("d = D.Y must be positive")
    if t.exponents[0] < d:
        raise InapplicableReductionError(f"smallest exponent {t.exponents[0]} is below d = {d}")
    if dd.dim_d < d:
        raise InapplicableReductionError(f"dim |D| = {dd.dim_d} is below d = {d}")
    reduced = SplittingType(tuple(a - (d - 1) for a in t.exponents))
    return FibrationReduction(
        reduced=reduced,
        d_y=1,
        dim_d=dd.dim_d - (d - 1),
        target_dim=dd.dim_d - d + 1,
    )


def rationality_criterion(t: SplittingType, dd: DivisorData) -> bool:
    """True when 0 < d <= a_1 and dim |D| >= n + d - 1, which forces the
    ambient n-fold to be rational."""
    if dd.n != len(t) + 1:
        raise UsageError("normal bundle rank must be n - 1")
    d = dd.d_y
    return 0 < d <= t.exponents[0] and dd.dim_d >= dd.n + d - 1


def strong_rationality_criterion(dd: DivisorData, has_quasiline: bool) -> bool:
    """True when a quasi-line meets some divisor once and dim |D| >= n."""
    return has_quasiline and dd.d_y == 1 and dd.dim_d >= dd.n
