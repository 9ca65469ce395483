"""Write digests.json: SHA-256 of the structured output of every op in the
default-seed (seed 0) traced op list of each workload.

    python3 bench/record_digests.py

Run it only at a commit whose output is known to be right: the benchmark
then fails any op whose output differs from these bytes.  Ops must pass the
benchmark's meaning checks before their digest is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run._import_program()
    digests = {}
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix="digests-", dir=run.ROOT / ".bench_work"))
        try:
            rounds = workloads.Rounds(name, 0, work)
            for _ in range(run.TRACE_ROUNDS[name]):
                for op in rounds.next_round():
                    result = run.run_op(op.resolved(work))
                    reason = run.verdict(op, result, work, {})
                    if reason is not None:
                        print(f"{op.key}: {reason}", file=sys.stderr)
                        return 1
                    digests[op.key] = run.output_digest(op, result["out"], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {run.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
