"""Closed-loop benchmark of the quasilines command line.

    python3 bench/run.py --workload appendix-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
One op (one CLI argv) is in flight at a time.  Every op runs in a fresh
process forked from this one, which has imported ``quasilines.cli`` and done
nothing else, so each op starts with cold module caches, as a real command
line invocation does.  Latency is timed around ``run()`` in the op process
and scaled to a nominal host speed (see ``reference_kernel``).

``--trace 0`` runs whole rounds of the workload until ``--seconds`` have
passed and reports the end-to-end metrics.  ``--trace 1`` runs a fixed number
of rounds, each op once untraced and once traced, and reports per-layer
calls and self time (see tracing.py), so its counts repeat exactly for a
seed.  The last line of standard output is one JSON object; the line before
it holds the details (tail percentile, sample counts, failed argvs).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# An op process still running after this many seconds is killed and the op
# counts as failed, so a Fourier-Motzkin blow-up cannot hang a run.
OP_CAP_S = 20.0
# No op starts later than this many seconds after ``--seconds`` ran out,
# even inside an unfinished round.
LATE_START_S = 60.0
SETUP_REPEATS = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The tail percentile of each workload is fixed, so that it does not move
# when a faster program completes more ops in a run: the highest ladder
# percentile with at least ten ops beyond it at the op count a run reaches
# at the commit that added the benchmark.  cubic-models takes p90, not p95:
# cubic ops that had to resample take about twice as long, their share
# (near 5% of all ops) varies by seed, and p95 sat on the edge of that
# cluster.  A run with too few ops for its percentile steps down the
# ladder; the percentile used is in the details.
TAIL_PERCENTILE = {"appendix-sweep": 75.0, "lemma-extension": 75.0, "fan-pipeline": 75.0,
                   "cubic-models": 90.0}
# Typical time of one unit of ``reference_kernel`` on the 2-vCPU Xeon host
# the benchmark was tuned on; reported times are scaled to this speed.
REF_UNIT_S = 0.0002
# While an op runs, its process reads TICK_UNITS kernel units every TICK_S.
TICK_S = 0.05
TICK_UNITS = 2
TRACE_ROUNDS = {"appendix-sweep": 1, "lemma-extension": 2, "fan-pipeline": 1,
                "cubic-models": 10}
DIGESTS_FILE = BENCH / "digests.json"


def _import_program():
    if not (SRC / "quasilines" / "cli.py").is_file():
        raise SystemExit(f"bench: no quasilines sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quasilines.cli
    if Path(quasilines.cli.__file__).resolve().parent != SRC / "quasilines":
        raise SystemExit(f"bench: imported quasilines from {quasilines.cli.__file__}")
    return quasilines.cli


def reference_kernel(units: int = 10) -> float:
    """Seconds per unit of a fixed piece of exact arithmetic, over ``units``.

    The host changes speed by up to 1.7x within seconds, per vCPU, which raw
    wall times would carry straight into every metric.  So each op process
    reads this kernel right before ``run()``, every TICK_S while it runs and
    right after it, and the op time (less the readings) is multiplied by
    REF_UNIT_S over the mean reading.  The kernel does not touch quasilines,
    so a faster program still reads faster.
    """
    start = perf_counter()
    for _ in range(units):
        total = Fraction(0)
        for i in range(1, 30):
            total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i + 2)
        sorted((i * 7919) % 1009 for i in range(200))
    return (perf_counter() - start) / units


def measure_setup() -> float:
    """Median seconds from interpreter launch until quasilines.cli is imported.

    The launched interpreter prints the clock when the import is done (the
    monotonic clock is shared by all processes), then reads the reference
    kernel, so the interval is scaled by a reading from the same process.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import quasilines.cli; "
            f"done = time.perf_counter(); sys.path.insert(0, {str(BENCH)!r}); import run; "
            "run.reference_kernel(); print(done, run.reference_kernel())")
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                             capture_output=True, text=True).stdout
        done, reading = map(float, out.split())
        times.append((done - start) * REF_UNIT_S / reading)
    return statistics.median(times)


def _child(argv: list[str], traced: bool) -> dict:
    # Untraced ops walk the bindings too, so both kinds of op process copy
    # the same forked pages before the timer starts.
    found = tracing.bindings()
    recorder = tracing.install(found) if traced else None
    cli = sys.modules["quasilines.cli"]
    readings, ticking_ns = [], [0]

    def tick(signum, frame):
        start = perf_counter_ns()
        readings.append(reference_kernel(TICK_UNITS))
        end = perf_counter_ns()
        ticking_ns[0] += end - start
        if recorder is not None:
            recorder.add_span("bench.reading", start, end)

    reference_kernel()  # absorbs the page copies a fresh fork makes
    readings.append(reference_kernel())
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    start = perf_counter_ns()
    try:
        code, text = cli.run(argv)
    finally:
        elapsed_ns = perf_counter_ns() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    readings.append(reference_kernel())
    result = {"code": code, "out": text, "ms": (elapsed_ns - ticking_ns[0]) / 1e6,
              "scale": REF_UNIT_S / statistics.fmean(readings), "reference_s": readings[0]}
    if recorder is not None:
        result["trace"] = recorder.export()
    return result


def run_op(argv: list[str], traced: bool = False) -> dict:
    """Run one op in a forked process; returns its result plus rss_kb,
    wall_s and, on a crash or the cap, an ``error``."""
    # Every op process starts from the same collector state.
    gc.collect()
    read_fd, write_fd = os.pipe()
    start = perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            try:
                payload = _child(argv, traced)
            except BaseException:
                payload = {"error": traceback.format_exc(limit=-1).strip().splitlines()[-1]}
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    killed = False
    try:
        deadline = start + OP_CAP_S
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    if killed:
        result = {"error": f"killed after the {OP_CAP_S:g} s cap"}
    else:
        try:
            result = json.loads(b"".join(chunks))
        except ValueError:
            result = {"error": "op process died without a result"}
    result["rss_kb"] = usage.ru_maxrss
    result["wall_s"] = wall
    return result


def verdict(op: workloads.Op, result: dict, work: Path, digests: dict) -> str | None:
    """None when the op is correct, else the reason it failed."""
    if "error" in result:
        return result["error"]
    try:
        workloads.check(op, result["code"], result["out"], work)
    except workloads.CheckFailed as exc:
        return str(exc)
    except (KeyError, ValueError, IndexError, OSError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    want = digests.get(op.key)
    if want is not None and output_digest(op, result["out"], work) != want:
        return "structured output differs from the committed digest"
    return None


def output_digest(op: workloads.Op, text: str, work: Path) -> str:
    if op.out_file is not None:
        text = (work / op.out_file).read_text()
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: list[float], highest: float) -> tuple[float, float]:
    """The highest ladder percentile up to ``highest`` with at least ten
    ops beyond it, and its value."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        if p <= highest and n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(sorted_values, p)
    return 100.0, sorted_values[-1]


class Tally:
    """Attempted ops and the argv and reason of each failed one."""

    def __init__(self, work: Path):
        self.work = work
        self.digests = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.wrong = False

    def record(self, op: workloads.Op, argv: list[str], result: dict) -> bool:
        self.attempted += 1
        reason = verdict(op, result, self.work, self.digests)
        if reason is None:
            return True
        self.failures.append({"argv": argv, "reason": reason})
        self.wrong = self.wrong or not reason.startswith("killed")
        return False


def measure(workload: str, seed: int, seconds: float, work: Path) -> tuple[Tally, dict, dict]:
    """Whole rounds until ``seconds`` have passed; the end-to-end metrics
    other than ``setup_s``."""
    rounds = workloads.Rounds(workload, seed, work)
    tally = Tally(work)
    latencies, by_kind, raw_ms, readings = [], {}, [], []
    rss_kb, completed, late = 0, 0, False
    start = perf_counter()
    while perf_counter() - start < seconds and not late:
        for op in rounds.next_round():
            if perf_counter() - start > seconds + LATE_START_S:
                late = True
                break
            argv = op.resolved(work)
            result = run_op(argv)
            rss_kb = max(rss_kb, result["rss_kb"])
            ok = tally.record(op, argv, result)
            if ok:
                latencies.append(result["ms"] * result["scale"])
                raw_ms.append(result["ms"])
                readings.append(result["reference_s"])
            else:
                # A failed op counts as missing every latency limit.
                latencies.append(OP_CAP_S * 1000.0)
            by_kind.setdefault(op.kind, []).append(latencies[-1])
        else:
            completed += 1
    latencies.sort()
    tail_p, tail_ms = tail(latencies, TAIL_PERCENTILE[workload])
    metrics = {
        "ops_per_s": (len(raw_ms) / (sum(latencies) / 1000.0), "1/s"),
        "op_p50_ms": (percentile(latencies, 50.0), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    details = {"rounds": completed, "ops": tally.attempted,
               "op_tail_percentile": tail_p, "measured_s": perf_counter() - start,
               "kind_p50_ms": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
               "raw_op_p50_ms": statistics.median(raw_ms) if raw_ms else None,
               "reference_unit_ms": statistics.median(readings) * 1000.0 if readings else None}
    return tally, metrics, details


def measure_traced(workload: str, seed: int, work: Path) -> tuple[Tally, dict, dict]:
    """TRACE_ROUNDS rounds, each op untraced then traced; the per-layer
    metrics."""
    rounds = workloads.Rounds(workload, seed, work)
    tally = Tally(work)
    totals: dict = {}
    overheads = []
    lemma_cartier = lemma_tested = cubic_ops = cubic_tries = 0
    for _ in range(TRACE_ROUNDS[workload]):
        for op in rounds.next_round():
            argv = op.resolved(work)
            plain = run_op(argv)
            if not tally.record(op, argv, plain):
                continue
            traced = run_op(argv, traced=True)
            if not tally.record(op, argv, traced):
                continue
            overheads.append(traced["ms"] * traced["scale"] / (plain["ms"] * plain["scale"]) - 1.0)
            tracing.aggregate(traced["trace"], totals, traced["scale"])
            doc = workloads.read_report(plain["out"]) if plain["out"] else {}
            if op.kind == "lemma-a2":
                lemma_cartier += int(doc["samples-cartier"])
                lemma_tested += int(doc["samples-tested"])
            elif op.kind == "cubic":
                cubic_ops += 1
                cubic_tries += int(doc["attempt"]) + 1
    metrics, absent = {}, []
    for layer in tracing.LAYERS:
        self_ns = sum(v[1] for k, v in totals.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_ms"] = (self_ns / 1e6, "ms")
    known = {name for name, _ in tracing.public_functions()}
    for name in tracing.NAMED:
        if name not in known:
            absent.append(name)
            continue
        calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
    contains = totals.get("fans.cone_contains", (0, 0))[0]
    hits = totals.get("fans.cone_contains#hits", (0, 0))[0]
    metrics["fans.cone_contains.hit_ratio"] = (_ratio(hits, contains), "ratio")
    metrics["divisors.cartier_accept_ratio"] = (_ratio(lemma_cartier, lemma_tested), "ratio")
    metrics["cubic.generic_ratio"] = (_ratio(cubic_ops, cubic_tries), "ratio")
    # Median over ops of traced over untraced latency, minus 1.
    metrics["trace_overhead_frac"] = (statistics.median(overheads) if overheads else 0.0, "ratio")
    details = {"rounds": TRACE_ROUNDS[workload], "ops": tally.attempted, "absent": absent,
               "ratio_bases": {"fans.cone_contains.hit_ratio": contains,
                               "divisors.cartier_accept_ratio": lemma_tested,
                               "cubic.generic_ratio": cubic_tries,
                               "trace_overhead_frac": len(overheads)}}
    return tally, metrics, details


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is 0 reads 0; the base is printed with the details."""
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.trace:
            tally, metrics, details = measure_traced(args.workload, args.seed, work)
        else:
            tally, metrics, details = measure(args.workload, args.seed, args.seconds, work)
            metrics = {"setup_s": (measure_setup(), "s"), **metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed, failures=tally.failures)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
