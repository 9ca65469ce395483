"""Forward-chaining rule engine over partially known model invariants.

A model record carries the numeric invariants of a pair (ambient manifold,
distinguished rational curve): e counts the family's curves through two
general points, e0 through one point with a general tangent direction,
etilde is the minimum of e over covers etale along the curve, b the degree
of the formal-function field extension, and ex the minimum of e over
blow-up models.  Flags (g3, rational, unirational, strongly_rational) are
tristate: True, False, or unknown (None).  The engine only derives, never
guesses; contradictions are first-class results carrying a witness, so a
front end can print the offending rule and fields.

Invariants whose geometric definitions live outside this toolkit (formal
completions, Hilbert and Chow families) appear only through these recorded
integers.

Rules:
  R1   e = etilde * b
  R2   e0 <= etilde <= e (with squeezes when the bounds pinch)
  R3   g3 holds exactly when etilde = e
  R4   e = 1 implies rational
  R5   e0 = 1 implies unirational
  R6   e = 1 implies g3
  R7   strongly_rational implies rational
  R8   ex = 1 implies rational
  R9   rational implies unirational
  R10  rational implies ex = 1

The rules run in passes, in the order R3, R2, R1, R4, ..., R10, until a
pass derives nothing.  Each rule is a generator over the record it is
given: it yields (inputs, field, value) to derive a field, or (fields,
detail) for a contradiction among known fields.  R2 reads one snapshot, the
record as it was when R2 started, even after its own first steps are
applied; each of R4-R10 is given the record as it is when it runs, so an
implication sees what an earlier rule of the same pass derived.
``propagate`` alone applies the steps, and the first contradiction stops
the run.
"""

from __future__ import annotations

from .errors import UsageError
from .frozen import Frozen

INT_FIELDS = ("dim", "e", "e0", "etilde", "b", "ex")
FLAG_FIELDS = ("g3", "rational", "unirational", "strongly_rational")


class ModelRecord(Frozen):
    name: str
    dim: int | None = None
    e: int | None = None
    e0: int | None = None
    etilde: int | None = None
    b: int | None = None
    ex: int | None = None
    g3: bool | None = None
    rational: bool | None = None
    unirational: bool | None = None
    strongly_rational: bool | None = None
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for name in INT_FIELDS:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be a positive integer")

    def known_fields(self) -> dict[str, int | bool]:
        known = {}
        for name in INT_FIELDS + FLAG_FIELDS:
            value = getattr(self, name)
            if value is not None:
                known[name] = value
        return known


class RuleFiring(Frozen):
    rule: str
    inputs: tuple[str, ...]
    derived: str


class Contradiction(Frozen):
    rule: str
    fields: tuple[str, ...]
    detail: str


class PropagationResult(Frozen):
    record: ModelRecord
    firings: tuple[RuleFiring, ...]
    contradiction: Contradiction | None

    @property
    def consistent(self) -> bool:
        return self.contradiction is None


def _shown(value) -> str:
    """A field value as reports print it: flags as true and false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _r1(record):
    e, etilde, b = record.e, record.etilde, record.b
    if e is not None and etilde is not None and b is not None:
        if e != etilde * b:
            yield ("e", "etilde", "b"), f"e = {e} but etilde * b = {etilde * b}"
    elif etilde is not None and b is not None:
        yield ("etilde", "b"), "e", etilde * b
    elif e is not None:
        # At most one factor is known here; the other is the quotient.
        for known, factor, other in (("etilde", etilde, "b"), ("b", b, "etilde")):
            if factor is not None and e % factor:
                yield ("e", known), (f"{known} = {factor} does not divide e = {e} "
                                     "with integer quotient")
            elif factor is not None:
                yield ("e", known), other, e // factor


def _r2(record):
    e, e0, etilde = record.e, record.e0, record.etilde
    for low, high in (("e0", "etilde"), ("etilde", "e"), ("e0", "e")):
        below, above = getattr(record, low), getattr(record, high)
        if below is not None and above is not None and below > above:
            yield (low, high), f"{low} = {below} exceeds {high} = {above}"
    if e == 1:
        yield ("e",), "etilde", 1
        yield ("e",), "e0", 1
    if etilde == 1:
        yield ("etilde",), "e0", 1
    if e0 is not None and e0 == e:
        yield ("e0", "e"), "etilde", e0


def _r3(record):
    e, etilde, g3 = record.e, record.etilde, record.g3
    if e is not None and etilde is not None:
        yield ("etilde", "e"), "g3", etilde == e
    elif g3 is True and e is not None:
        yield ("g3", "e"), "etilde", e
    elif g3 is True and etilde is not None:
        yield ("g3", "etilde"), "e", etilde


def _implies(premise, value, name, derived):
    def steps(record):
        if getattr(record, premise) == value:
            yield (premise,), name, derived
    return steps


# Rules in firing order.  R3 and R2 run before R1 so that a violated
# biconditional or ordering is witnessed as such, not as a divisibility
# failure.
_RULES = (
    ("R3", _r3),
    ("R2", _r2),
    ("R1", _r1),
    ("R4", _implies("e", 1, "rational", True)),
    ("R5", _implies("e0", 1, "unirational", True)),
    ("R6", _implies("e", 1, "g3", True)),
    ("R7", _implies("strongly_rational", True, "rational", True)),
    ("R8", _implies("ex", 1, "rational", True)),
    ("R9", _implies("rational", True, "unirational", True)),
    ("R10", _implies("rational", True, "ex", 1)),
)


def propagate(record: ModelRecord) -> PropagationResult:
    """Run the rules to a fixed point; derivation order is deterministic.

    This is the one place a step is applied: a step derives its field when
    the field is unset, is skipped when the field already holds its value,
    and otherwise ends the run with a contradiction.
    """
    firings = []
    changed = True
    while changed:
        changed = False
        for rule, steps in _RULES:
            for step in steps(record):
                if len(step) == 2:
                    inputs, detail = step
                    fields = inputs
                else:
                    inputs, name, value = step
                    current = getattr(record, name)
                    if current is None:
                        record = record.replace(
                            **{name: value},
                            provenance=record.provenance + ((name, f"derived by {rule}"),),
                        )
                        firings.append(RuleFiring(rule, inputs, f"{name} = {_shown(value)}"))
                        changed = True
                        continue
                    if current == value:
                        continue
                    fields = inputs + (name,)
                    detail = (f"{name} = {_shown(current)} conflicts with "
                              f"derived {name} = {_shown(value)}")
                firings.append(RuleFiring(rule, inputs, "contradiction"))
                return PropagationResult(record, tuple(firings),
                                         Contradiction(rule, fields, detail))
    return PropagationResult(record, tuple(firings), None)


def projective_space_record(n: int | None = None) -> ModelRecord:
    return ModelRecord(
        name="projective-space-line",
        dim=n,
        e=1,
        provenance=(("e", "two points lie on a single line"),),
    )


def cubic_conic_record() -> ModelRecord:
    return ModelRecord(
        name="cubic-threefold-conic",
        dim=3,
        e=6,
        e0=6,
        rational=False,
        provenance=(
            ("e", "computed by the seeded line-count certificate"),
            ("e0", "recorded tangent-direction count, not recomputed here"),
            ("rational", "classical non-rationality of the smooth cubic threefold"),
        ),
    )


def toric_quotient_record(n: int = 2) -> ModelRecord:
    """Quotient of projective n-space by the cyclic group of order n+1."""
    if n < 2:
        raise UsageError("the quotient family needs n >= 2")
    return ModelRecord(
        name=f"toric-quotient-{n}",
        dim=n,
        e0=1,
        e=n + 1,
        b=n + 1,
        provenance=(
            ("e0", "pulled back from the projective cover, one curve per direction"),
            ("e", "cover degree times the count upstairs"),
            ("b", "degree of the covering etale along the curve"),
        ),
    )


def cotangent_bundle_record(r: int = 2) -> ModelRecord:
    """Projectivised cotangent bundle of projective r-space with an
    almost-line; a single curve of the family joins two general points."""
    if r < 2:
        raise UsageError("the cotangent family needs r >= 2")
    return ModelRecord(
        name=f"cotangent-bundle-{r}",
        dim=2 * r - 1,
        e=1,
        g3=True,
        provenance=(
            ("e", "unique curve through two general points of the bundle"),
            ("g3", "follows from e = 1"),
        ),
    )


BUILTIN_RECORDS = {
    "pn-line": projective_space_record,
    "cubic-conic": cubic_conic_record,
    "toric-quotient": toric_quotient_record,
    "cotangent-bundle": cotangent_bundle_record,
}


def catalog() -> tuple[ModelRecord, ...]:
    """Worked examples, each consistent under propagation."""
    return (
        projective_space_record(),
        cubic_conic_record(),
        toric_quotient_record(2),
        toric_quotient_record(3),
        cotangent_bundle_record(2),
    )
