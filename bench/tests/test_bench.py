"""Tests of the benchmark itself: seeded inputs, repeatable traced counts and
the output checker.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def program():
    return run._import_program()


def _rounds(workload, seed, work, count=3):
    rounds = workloads.Rounds(workload, seed, work)
    ops = [op for _ in range(count) for op in rounds.next_round()]
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return ops, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops_and_files(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _rounds(workload, 7, tmp_path / "a")
    assert first == _rounds(workload, 7, tmp_path / "b")
    assert first[0] != _rounds(workload, 8, tmp_path / "c")[0]


@pytest.mark.parametrize("workload", ["cubic-models", "appendix-sweep"])
def test_traced_call_counts_repeat(workload, tmp_path):
    def calls():
        tally, metrics, _ = run.measure_traced(workload, 3, tmp_path)
        assert tally.failures == []
        return {k: v for k, v in metrics.items() if k.endswith(".calls")}

    first = calls()
    assert len(first) == len(run.tracing.NAMED)
    assert any(value for value, _ in first.values())
    assert first == calls()


def test_removed_function_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.setattr(run.tracing, "NAMED", run.tracing.NAMED + ("fans.removed_function",))
    tally, metrics, details = run.measure_traced("cubic-models", 3, tmp_path)
    assert tally.failures == []
    assert details["absent"] == ["fans.removed_function"]
    assert "fans.removed_function.calls" not in metrics
    assert "cubic.sylvester_resultant.calls" in metrics


def _captured_cubic(tmp_path):
    """A seed-0 cubic op, whose output has a committed digest."""
    op = workloads.Rounds("cubic-models", 0, tmp_path).next_round()
    op = next(o for o in op if o.kind == "cubic")
    digests = run.Tally(tmp_path).digests
    assert op.key in digests
    result = run.run_op(op.resolved(tmp_path))
    assert run.verdict(op, result, tmp_path, digests) is None
    return op, result, digests


def test_checker_rejects_flipped_byte(tmp_path):
    op, result, digests = _captured_cubic(tmp_path)
    text = result["out"]
    at = text.index("resultant-coefficients")
    result["out"] = text[:at] + text[at:].replace("1", "7", 1)
    assert result["out"] != text
    assert run.verdict(op, result, tmp_path, digests) == (
        "structured output differs from the committed digest")


def test_checker_rejects_wrong_count(tmp_path):
    op, result, digests = _captured_cubic(tmp_path)
    assert "\ncount: 6\n" in result["out"]
    result["out"] = result["out"].replace("\ncount: 6\n", "\ncount: 5\n")
    assert run.verdict(op, result, tmp_path, digests) == "line count is not 6"


def test_checker_rejects_wrong_exit_code(tmp_path):
    op, result, digests = _captured_cubic(tmp_path)
    result["code"] = 2
    assert run.verdict(op, result, tmp_path, digests) == "exit code 2, expected 0"


def test_checker_rejects_wrong_appendix_witness(tmp_path):
    op = workloads.Op(("appendix", "--n", "3", "--format", "structured"), "appendix", (3,))
    result = run.run_op(list(op.argv))
    assert run.verdict(op, result, tmp_path, {}) is None
    assert "\nwitness-denominator-lcm: 2\n" in result["out"]
    result["out"] = result["out"].replace("\nwitness-denominator-lcm: 2\n",
                                          "\nwitness-denominator-lcm: 4\n")
    assert run.verdict(op, result, tmp_path, {}) == "wrong witness denominator lcm"


def test_op_over_the_cap_is_killed(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.5)
    result = run.run_op(["lemma-a2", "--n", "3", "--samples", "200", "--format", "structured"])
    assert result["error"] == "killed after the 0.5 s cap"
    assert result["wall_s"] < 5


def test_tail_percentile_keeps_ten_ops_beyond():
    values = sorted(float(i) for i in range(1, 121))
    assert run.tail(values, 99.9) == (90.0, 108.0)
    assert run.tail(values, 75.0) == (75.0, 90.0)
    assert run.tail(values[:15], 75.0) == (100.0, 15.0)
