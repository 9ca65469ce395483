"""Tests for the invariant rule engine and its catalog."""

import hashlib
import itertools
import random

import pytest

from quasilines.models import (
    Contradiction,
    ModelRecord,
    RuleFiring,
    catalog,
    cubic_conic_record,
    projective_space_record,
    propagate,
    toric_quotient_record,
)


class TestPropagate:
    def test_toric_quotient_derivations(self):
        result = propagate(ModelRecord(name="q", e0=1, e=4, b=4))
        assert result.consistent
        assert result.record.etilde == 1
        assert result.record.g3 is False
        assert any(f.rule == "R1" and "etilde = 1" in f.derived for f in result.firings)
        assert any(f.rule == "R3" and "g3 = false" in f.derived for f in result.firings)

    def test_equal_e_and_etilde(self):
        result = propagate(ModelRecord(name="c", e=6, etilde=6))
        assert result.consistent
        assert result.record.b == 1
        assert result.record.g3 is True

    def test_r2_contradiction(self):
        result = propagate(ModelRecord(name="bad", e0=2, e=1))
        assert not result.consistent
        assert result.contradiction.rule == "R2"

    @pytest.mark.parametrize("fields,rule,inputs,detail", [
        ({"etilde": 2, "b": 3, "e": 7}, "R1", ("e", "etilde", "b"),
         "e = 7 but etilde * b = 6"),
        ({"e": 7, "etilde": 2}, "R1", ("e", "etilde"),
         "etilde = 2 does not divide e = 7 with integer quotient"),
        ({"e0": 3, "etilde": 2}, "R2", ("e0", "etilde"), "e0 = 3 exceeds etilde = 2"),
        ({"etilde": 3, "e": 2}, "R2", ("etilde", "e"), "etilde = 3 exceeds e = 2"),
    ], ids=["r1-product", "r1-not-divisible", "r2-e0-over-etilde", "r2-etilde-over-e"])
    def test_contradiction_witness(self, fields, rule, inputs, detail):
        result = propagate(ModelRecord(name="bad", **fields))
        assert result.contradiction == Contradiction(rule, inputs, detail)
        assert result.firings[-1] == RuleFiring(rule, inputs, "contradiction")

    @pytest.mark.parametrize("fields,rule,witness,detail", [
        ({"g3": True, "etilde": 2, "e": 3}, "R3", ("etilde", "e", "g3"),
         "g3 = true conflicts with derived g3 = false"),
        ({"rational": True, "ex": 2}, "R10", ("rational", "ex"),
         "ex = 2 conflicts with derived ex = 1"),
        # R5 reads the e0 = 1 that R2 derived from e = 1 earlier in the pass.
        ({"e": 1, "unirational": False}, "R5", ("e0", "unirational"),
         "unirational = false conflicts with derived unirational = true"),
    ], ids=["r3-g3", "r10-ex", "r5-derived-e0"])
    def test_set_field_conflict_witness(self, fields, rule, witness, detail):
        # The contradiction names the conflicting field; the firing keeps
        # only the rule's inputs.
        result = propagate(ModelRecord(name="bad", **fields))
        assert result.contradiction == Contradiction(rule, witness, detail)
        assert result.firings[-1] == RuleFiring(rule, witness[:-1], "contradiction")

    def test_propagate_digest(self):
        # Pins record, provenance, firings and contradiction of every
        # record over a small grid of values, in a fixed order.
        ints = (None, 1, 2, 3, 6)
        flags = (None, True, False)
        digest = hashlib.sha256()
        for e, e0, etilde, b in itertools.product(ints, repeat=4):
            for ex in (None, 1, 2):
                for g3, rational, unirational in itertools.product(flags, repeat=3):
                    for strongly in (None, True):
                        record = ModelRecord("r", None, e, e0, etilde, b, ex,
                                             g3, rational, unirational, strongly)
                        digest.update(repr(propagate(record)).encode())
        assert digest.hexdigest() == (
            "025522996a50ffbde7f517a0b7650023da35d0f4026f95a9abed2789f4c37242")

    def test_r1_divisibility_contradiction(self):
        result = propagate(ModelRecord(name="bad", e=3, b=2))
        assert not result.consistent
        assert result.contradiction.rule == "R1"

    def test_e_one_closure(self):
        result = propagate(ModelRecord(name="p", e=1))
        record = result.record
        assert (record.e, record.e0, record.etilde, record.b) == (1, 1, 1, 1)
        assert record.rational and record.unirational and record.g3
        assert record.ex == 1

    def test_idempotent(self):
        first = propagate(ModelRecord(name="q", e0=1, e=3, b=3))
        second = propagate(first.record)
        assert second.record == first.record
        assert second.firings == ()

    def test_set_fields_are_never_overwritten(self):
        result = propagate(ModelRecord(name="x", e=6, etilde=2, b=3))
        assert result.consistent
        assert result.record.e == 6

    def test_random_consistent_records(self):
        rng = random.Random(123)
        for _ in range(300):
            etilde = rng.randint(1, 6)
            b = rng.randint(1, 6)
            base = ModelRecord(
                name="r",
                e=etilde * b,
                etilde=etilde,
                b=b,
                e0=rng.randint(1, etilde),
            )
            closure = propagate(base)
            assert closure.consistent
            known = closure.record.known_fields()
            keep = [k for k in known if rng.random() < 0.6]
            subset = ModelRecord(name="r", **{k: known[k] for k in keep})
            partial = propagate(subset)
            assert partial.consistent
            again = propagate(partial.record)
            assert again.record == partial.record
            derived = partial.record.known_fields()
            for name, value in derived.items():
                assert known[name] == value
            missing = [k for k in known if k not in derived]
            if missing:
                extra = rng.choice(missing)
                grown = propagate(
                    ModelRecord(name="r", **{k: known[k] for k in set(keep) | {extra}})
                )
                assert grown.consistent
                grown_fields = grown.record.known_fields()
                for name, value in derived.items():
                    assert grown_fields[name] == value


class TestCheckRecord:
    def test_consistent_record(self):
        record = cubic_conic_record()
        result = propagate(record)
        assert result.contradiction is None
        before = record.known_fields()
        derived = {k: v for k, v in result.record.known_fields().items() if k not in before}
        assert derived["etilde"] == 6
        assert derived["b"] == 1

    def test_rational_with_large_ex(self):
        result = propagate(ModelRecord(name="bad", rational=True, ex=2))
        assert result.contradiction is not None
        assert result.contradiction.rule in ("R8", "R10")

    def test_g3_against_unequal_counts(self):
        result = propagate(ModelRecord(name="bad", g3=True, etilde=2, e=3))
        assert result.contradiction is not None
        assert result.contradiction.rule == "R3"


class TestCatalog:
    def test_all_entries_consistent(self):
        for entry in catalog():
            assert propagate(entry).contradiction is None, entry.name

    def test_projective_space_closure(self):
        record = propagate(projective_space_record()).record
        assert (record.e, record.e0, record.etilde, record.b) == (1, 1, 1, 1)
        assert record.rational is True

    def test_cubic_conic_closure(self):
        record = propagate(cubic_conic_record()).record
        assert record.etilde == 6
        assert record.b == 1
        assert record.g3 is True
        assert record.rational is False

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_toric_quotient_closure(self, n):
        record = propagate(toric_quotient_record(n)).record
        assert record.etilde == 1
        assert record.g3 is False
        assert record.unirational is True
        assert record.e0 == 1 < record.e == n + 1

    def test_strictness_witness(self):
        record = propagate(toric_quotient_record(2)).record
        assert record.e0 < record.e
