"""Tests for the splitting-type calculus and its numeric criteria."""

import random

import pytest

from quasilines import bundles
from quasilines.bundles import (
    DivisorData,
    InapplicableReductionError,
    InvalidSplittingError,
    NotAmpleError,
    PlanBudgetError,
    SplittingType,
    codim2_blowup,
    elementary_transform,
    fibration_reduction,
    point_blowup,
    quasiline_plan,
    rationality_criterion,
    recover_splitting,
    self_intersections,
    strong_rationality_criterion,
)


def random_type(rng, max_rank=8, low=-10, high=10):
    k = rng.randint(2, max_rank)
    return SplittingType(tuple(rng.randint(low, high) for _ in range(k)))


class TestSelfIntersections:
    def test_hirzebruch_sections(self):
        assert self_intersections(SplittingType((0, 1))) == (-1, 1)

    def test_balanced_type_is_zero(self):
        assert self_intersections(SplittingType((0, 0, 0, 0))) == (0, 0, 0, 0)

    def test_direct_substitution(self):
        assert self_intersections(SplittingType((1, 2, 3))) == (-3, 0, 3)

    def test_row_sum_identity(self):
        rng = random.Random(1)
        for _ in range(300):
            assert sum(self_intersections(random_type(rng))) == 0


class TestRecoverSplitting:
    def test_forward_map_oracle(self):
        assert recover_splitting((-1, 1), 1) == SplittingType((0, 1))

    def test_balanced(self):
        assert recover_splitting((0, 0), 2) == SplittingType((1, 1))

    def test_integrality_obstruction(self):
        with pytest.raises(InvalidSplittingError):
            recover_splitting((1, 2), 0)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(InvalidSplittingError):
            recover_splitting((2, -2, 1), 1)

    def test_bad_anchor_rejected(self):
        with pytest.raises(InvalidSplittingError):
            recover_splitting((-1, 1), 2)

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(1000):
            t = random_type(rng)
            assert recover_splitting(self_intersections(t), t.total) == t


class TestTransforms:
    def test_elm_on_rank_two(self):
        assert elementary_transform(SplittingType((0, 4))) == SplittingType((0, 3))

    def test_elm_tie_drops_one_copy(self):
        assert elementary_transform(SplittingType((1, 1, 1))) == SplittingType((0, 1, 1))

    def test_elm_example(self):
        assert elementary_transform(SplittingType((0, 1, 4))) == SplittingType((0, 1, 3))

    def test_point_blowup(self):
        assert point_blowup(SplittingType((1, 1, 1))) == SplittingType((0, 0, 0))
        assert point_blowup(SplittingType((5,))) == SplittingType((4,))
        assert point_blowup(SplittingType((1, 3))) == SplittingType((0, 2))

    def test_codim2(self):
        assert codim2_blowup(SplittingType((1, 2, 3))) == SplittingType((1, 2, 2))
        assert codim2_blowup(SplittingType((1, 1))) == SplittingType((0, 1))
        assert codim2_blowup(SplittingType((2, 2))) == SplittingType((1, 2))

    def test_degree_bookkeeping(self):
        rng = random.Random(3)
        for _ in range(500):
            t = random_type(rng)
            assert elementary_transform(t).total == t.total - 1
            assert codim2_blowup(t).total == t.total - 1
            assert point_blowup(t).total == t.total - len(t)

    def test_elm_shift_relation(self):
        # Reconstruction oracle: after an elementary transform the k-1
        # untouched self-intersections shift by +1 under the natural pairing.
        rng = random.Random(4)
        for _ in range(1000):
            t = random_type(rng)
            k = len(t)
            s = self_intersections(t)
            shifted = tuple(x + 1 for x in s[:-1]) + (s[-1] - (k - 1),)
            assert recover_splitting(shifted, t.total - 1) == elementary_transform(t)


class TestQuasilinePlan:
    def test_already_quasiline(self):
        plan = quasiline_plan(SplittingType((1, 1)))
        assert plan.steps == 0
        assert not plan.almost_line

    def test_example_plan(self):
        plan = quasiline_plan(SplittingType((2, 3)))
        assert plan.steps == 3
        assert [t.exponents for t in plan.types] == [
            (2, 3), (2, 2), (1, 2), (1, 1),
        ]
        assert plan.almost_line

    def test_not_ample(self):
        with pytest.raises(NotAmpleError):
            quasiline_plan(SplittingType((0, 2)))

    def test_random_plans(self):
        rng = random.Random(5)
        for _ in range(500):
            k = rng.randint(1, 6)
            t = SplittingType(tuple(rng.randint(1, 5) for _ in range(k)))
            plan = quasiline_plan(t)
            assert plan.steps == sum(a - 1 for a in t.exponents)
            assert plan.final.exponents == (1,) * k
            for before, after in zip(plan.types, plan.types[1:]):
                assert after == codim2_blowup(before)
                assert min(after.exponents) >= 1
            assert plan.almost_line == (t.exponents != (1,) * k)


class TestPlanBudget:
    def test_plan_at_the_budget_is_allowed(self, monkeypatch):
        monkeypatch.setattr(bundles, "PLAN_STEP_BUDGET", 3)
        assert quasiline_plan(SplittingType((2, 3))).steps == 3
        monkeypatch.setattr(bundles, "PLAN_STEP_BUDGET", 2)
        with pytest.raises(PlanBudgetError, match="needs 3 codimension-2 blow-ups, "
                           "over the budget PLAN_STEP_BUDGET = 2$"):
            quasiline_plan(SplittingType((2, 3)))

    def test_long_plan_raises_before_the_first_step(self, monkeypatch):
        # The step count is the sum of the exponents less their number, so
        # a type of a few digits asks for a plan longer than any output.
        def blowup(t):
            raise AssertionError("a step ran")

        monkeypatch.setattr(bundles, "codim2_blowup", blowup)
        with pytest.raises(PlanBudgetError, match="needs 999999999 codimension-2 blow-ups"):
            quasiline_plan(SplittingType((10**9, 1)))


class TestFibrationReduction:
    def test_worked_example(self):
        result = fibration_reduction(SplittingType((2, 2)), DivisorData(d_y=2, dim_d=2, n=3))
        assert result.reduced == SplittingType((1, 1))
        assert result.d_y == 1
        assert result.dim_d == 1
        assert result.target_dim == 1

    def test_d_one_is_identity(self):
        t = SplittingType((3, 5))
        result = fibration_reduction(t, DivisorData(d_y=1, dim_d=4, n=3))
        assert result.reduced == t
        assert result.dim_d == 4
        assert result.target_dim == 4

    def test_inapplicable(self):
        with pytest.raises(InapplicableReductionError, match="smallest exponent"):
            fibration_reduction(SplittingType((1, 2)), DivisorData(d_y=2, dim_d=5, n=3))
        with pytest.raises(InapplicableReductionError, match="dim"):
            fibration_reduction(SplittingType((3, 3)), DivisorData(d_y=2, dim_d=1, n=3))


class TestCriteria:
    def test_rationality_holds(self):
        assert rationality_criterion(SplittingType((2, 2)), DivisorData(d_y=2, dim_d=4, n=3))

    def test_rationality_fails_on_degree(self):
        assert not rationality_criterion(SplittingType((2, 2)), DivisorData(d_y=3, dim_d=9, n=3))

    def test_rationality_boundary_miss(self):
        assert not rationality_criterion(SplittingType((2, 2)), DivisorData(d_y=2, dim_d=3, n=3))

    def test_strong_rationality(self):
        assert strong_rationality_criterion(DivisorData(d_y=1, dim_d=3, n=3), True)
        assert not strong_rationality_criterion(DivisorData(d_y=2, dim_d=9, n=3), True)
        assert not strong_rationality_criterion(DivisorData(d_y=1, dim_d=2, n=3), True)
        assert not strong_rationality_criterion(DivisorData(d_y=1, dim_d=3, n=3), False)
