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


# R4-R10 in firing order: (rule, premise field, premise value, derived field, value).
_IMPLICATIONS = (
    ("R4", "e", 1, "rational", True),
    ("R5", "e0", 1, "unirational", True),
    ("R6", "e", 1, "g3", True),
    ("R7", "strongly_rational", True, "rational", True),
    ("R8", "ex", 1, "rational", True),
    ("R9", "rational", True, "unirational", True),
    ("R10", "rational", True, "ex", 1),
)


def _shown(value) -> str:
    """A field value as reports print it: flags as true and false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _Engine:
    def __init__(self, record: ModelRecord):
        self.record = record
        self.firings: list[RuleFiring] = []
        self.contradiction: Contradiction | None = None

    def get(self, name):
        return getattr(self.record, name)

    def set(self, rule: str, inputs: tuple[str, ...], name: str, value) -> bool:
        current = self.get(name)
        if current is None:
            note = f"derived by {rule}"
            self.record = self.record.replace(
                **{name: value},
                provenance=self.record.provenance + ((name, note),),
            )
            self.firings.append(RuleFiring(rule, inputs, f"{name} = {_shown(value)}"))
            return True
        if current != value:
            self.contradiction = Contradiction(
                rule,
                inputs + (name,),
                f"{name} = {_shown(current)} conflicts with derived {name} = {_shown(value)}",
            )
            self.firings.append(RuleFiring(rule, inputs, "contradiction"))
        return False

    def fail(self, rule: str, fields: tuple[str, ...], detail: str) -> None:
        self.contradiction = Contradiction(rule, fields, detail)
        self.firings.append(RuleFiring(rule, fields, "contradiction"))

    def run(self) -> PropagationResult:
        changed = True
        while changed and self.contradiction is None:
            changed = False
            # R3 and R2 run before R1 so that a violated biconditional or
            # ordering is witnessed as such, not as a divisibility failure.
            for rule in (self._r3, self._r2, self._r1, self._implications):
                changed = rule() or changed
                if self.contradiction is not None:
                    break
        return PropagationResult(self.record, tuple(self.firings), self.contradiction)

    def _r1(self) -> bool:
        e, etilde, b = self.get("e"), self.get("etilde"), self.get("b")
        if e is not None and etilde is not None and b is not None:
            if e != etilde * b:
                self.fail("R1", ("e", "etilde", "b"),
                          f"e = {e} but etilde * b = {etilde * b}")
            return False
        if etilde is not None and b is not None:
            return self.set("R1", ("etilde", "b"), "e", etilde * b)
        if e is not None and etilde is not None:
            if e % etilde != 0 or e < etilde:
                self.fail("R1", ("e", "etilde"),
                          f"etilde = {etilde} does not divide e = {e} with integer quotient")
                return False
            return self.set("R1", ("e", "etilde"), "b", e // etilde)
        if e is not None and b is not None:
            if e % b != 0 or e < b:
                self.fail("R1", ("e", "b"),
                          f"b = {b} does not divide e = {e} with integer quotient")
                return False
            return self.set("R1", ("e", "b"), "etilde", e // b)
        return False

    def _r2(self) -> bool:
        e, e0, etilde = self.get("e"), self.get("e0"), self.get("etilde")
        if e0 is not None and etilde is not None and e0 > etilde:
            self.fail("R2", ("e0", "etilde"), f"e0 = {e0} exceeds etilde = {etilde}")
            return False
        if etilde is not None and e is not None and etilde > e:
            self.fail("R2", ("etilde", "e"), f"etilde = {etilde} exceeds e = {e}")
            return False
        if e0 is not None and e is not None and e0 > e:
            self.fail("R2", ("e0", "e"), f"e0 = {e0} exceeds e = {e}")
            return False
        changed = False
        if e == 1:
            changed = self.set("R2", ("e",), "etilde", 1) or changed
            if self.contradiction is None:
                changed = self.set("R2", ("e",), "e0", 1) or changed
        if self.contradiction is None and etilde == 1:
            changed = self.set("R2", ("etilde",), "e0", 1) or changed
        if self.contradiction is None and e0 is not None and e is not None and e0 == e:
            changed = self.set("R2", ("e0", "e"), "etilde", e0) or changed
        return changed

    def _r3(self) -> bool:
        e, etilde, g3 = self.get("e"), self.get("etilde"), self.get("g3")
        if e is not None and etilde is not None:
            return self.set("R3", ("etilde", "e"), "g3", etilde == e)
        if g3 is True and e is not None:
            return self.set("R3", ("g3", "e"), "etilde", e)
        if g3 is True and etilde is not None:
            return self.set("R3", ("g3", "etilde"), "e", etilde)
        return False

    def _implications(self) -> bool:
        changed = False
        for rule, premise, value, name, derived in _IMPLICATIONS:
            if self.get(premise) == value:
                changed = self.set(rule, (premise,), name, derived) or changed
                if self.contradiction is not None:
                    break
        return changed


def propagate(record: ModelRecord) -> PropagationResult:
    """Run the rules to a fixed point; derivation order is deterministic."""
    return _Engine(record).run()


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
