"""Line coverage of ``src/quasilines`` by the tier-1 suite, on the stdlib.

Run from the repository root:

    python tests/line_coverage.py

It runs the tier-1 suite in this process, as ``pytest -q -p
no:cacheprovider --hypothesis-seed=0 tests``, with a ``sys.settrace``
tracer that follows only frames whose file lies under ``src/quasilines``.
The executable lines of a module are the lines of its code objects, read
by ``co_lines()`` and recursing through ``co_consts``, so statements that
compile to no instruction, such as ``nonlocal`` or a function docstring,
do not count.  Every executable line that no test ran is printed as
``file:line`` with its source text, and an allowlisted one with its
reason.  The exit status is 1 when such a line
lies outside ``ALLOWLIST``, or when an allowlisted line did run, and 0
otherwise.  Nothing is written under ``src/``.  Lines that run only in a
subprocess a test starts, or in another thread, are not seen.  The traced
suite runs about six times slower than the plain one.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "quasilines")

# (module file, qualified name of the code object, stripped source text,
# which of the code object's lines with that text, in line order) -> why no
# tier-1 test runs the line.
ALLOWLIST = {
    ("argscan.py", "scan", "return None", -1): (
        "every help string is also an option at the top level, so a help "
        "request is taken there and the scan never falls through to its last "
        "positionals"
    ),
    ("cli.py", "_cmd_cubic", 'raise AssertionError("the reducible demo must be degenerate")', 0): (
        "the reducible demo is degenerate, so the count before it always raises"
    ),
}


def executable_lines(path: str) -> dict[int, set[str]]:
    """Each executable line of the module at ``path``, with the qualified
    names of the code objects that hold it."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines: dict[int, set[str]] = {}
    stack = [code]
    while stack:
        code = stack.pop()
        for _, _, line in code.co_lines():
            if line:
                lines.setdefault(line, set()).add(code.co_qualname)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_suite() -> tuple[int, dict[str, set[int]]]:
    """Run the tier-1 suite under the tracer; return pytest's exit status
    and the lines run in each package file."""
    prefix = PACKAGE + os.sep
    ran: dict[str, set[int]] = {}
    wanted: dict[types.CodeType, set[int] | None] = {}

    def local(frame, event, arg):
        wanted[frame.f_code].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            path = os.path.abspath(code.co_filename)
            wanted[code] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        hits = wanted[code]
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        return local

    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    sys.settrace(global_)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", os.path.join(ROOT, "tests")]
        )
    finally:
        sys.settrace(None)
    return int(status), ran


def allowed_lines(name: str, source: list[str], lines: dict[int, set[str]]):
    """The allowlisted lines of module ``name``, each with its reason, and
    the allowlist entries that match no line."""
    allowed, stale = {}, []
    for key, reason in ALLOWLIST.items():
        module, owner, text, which = key
        if module != name:
            continue
        matches = [
            line for line, owners in sorted(lines.items())
            if owner in owners and source[line - 1].strip() == text
        ]
        if -len(matches) <= which < len(matches):
            allowed[matches[which]] = reason
        else:
            stale.append(key)
    return allowed, stale


def main() -> int:
    start = time.perf_counter()
    status, ran = traced_suite()
    elapsed = time.perf_counter() - start
    missed = stale = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as handle:
            source = handle.read().splitlines()
        lines = executable_lines(path)
        allowed, unmatched = allowed_lines(name, source, lines)
        for key in unmatched:
            stale += 1
            print(f"allowlist entry matches no line: {key}")
        hits = ran.get(path, set())
        for line in sorted(lines):
            text = source[line - 1].strip()
            where = f"src/quasilines/{name}:{line}"
            if line in hits:
                if line in allowed:
                    stale += 1
                    print(f"{where}: allowlisted but ran: {text}")
            elif line in allowed:
                print(f"{where}: {text}    [allowed: {allowed[line]}]")
            else:
                missed += 1
                print(f"{where}: {text}")
    print(
        f"pytest exit status {status}; {missed} lines not run outside the "
        f"allowlist, {stale} stale allowlist entries; {elapsed:.0f} s"
    )
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
