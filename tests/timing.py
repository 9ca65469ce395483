"""Per-test time of the tier-1 suite under fixed Hypothesis seeds.

Run from the repository root:

    python tests/timing.py

It runs the tier-1 suite once for each seed in ``SEEDS``, each run in its
own process, as ``python -m pytest -q -p no:cacheprovider
--hypothesis-seed=S --durations=0 --durations-min=0 tests`` with ``src`` on
``PYTHONPATH``.  A test's time in a run is the sum of its setup, call and
teardown durations as pytest reports them.  It prints one line per test,
slowest median first, with the median and each seed's time; then each
run's pytest summary and wall time, and the median of the suite totals
pytest reports.  Unseeded, one run says little: a Hypothesis test's time
depends on its draw, by up to 5x for one test.  The exit status is 0 when
every run passed, and 1 otherwise.  Nothing is written under ``src/``: the
runs write no bytecode and no pytest cache.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2)

DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(\S.*)$")
SUMMARY = re.compile(r"^=*\s*(\d+ (?:failed|passed|errors?)\b.* in ([\d.]+)s\b.*?)\s*=*$")


def timed_run(seed: int) -> tuple[int, dict[str, float], str, float, float]:
    """One seeded tier-1 run: its exit status, each test's time, pytest's
    summary line, the total it reports and the run's wall time."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        f"--hypothesis-seed={seed}", "--durations=0", "--durations-min=0", "tests",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    times: dict[str, float] = {}
    summary, total = "no summary line", float("nan")
    for line in done.stdout.splitlines():
        if match := DURATION.match(line):
            test = match.group(2)
            times[test] = times.get(test, 0.0) + float(match.group(1))
        elif match := SUMMARY.match(line):
            summary, total = match.group(1), float(match.group(2))
    if done.returncode:
        sys.stdout.write(done.stdout[-2000:] + done.stderr[-2000:])
    return done.returncode, times, summary, total, wall


def main() -> int:
    runs = [timed_run(seed) for seed in SEEDS]
    per_seed = [times for _, times, *_ in runs]
    tests = set().union(*per_seed)
    rows = sorted(
        ((statistics.median(t[test] for t in per_seed if test in t), test) for test in tests),
        reverse=True,
    )
    print(f"median s  per seed {', '.join(map(str, SEEDS))} (s)  test")
    for median, test in rows:
        each = " ".join(f"{t[test]:7.2f}" if test in t else "      -" for t in per_seed)
        print(f"{median:8.2f}  {each}  {test}")
    for seed, (status, _, summary, _, wall) in zip(SEEDS, runs):
        print(f"seed {seed}: {summary}; exit status {status}; wall {wall:.1f} s")
    totals = [total for _, _, _, total, _ in runs]
    print(
        f"{len(tests)} tests; suite total median {statistics.median(totals):.1f} s; "
        f"{sum(wall for *_, wall in runs):.0f} s for all {len(SEEDS)} runs"
    )
    return 1 if any(status for status, *_ in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
