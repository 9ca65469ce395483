"""Spans around the public functions of quasilines, installed from outside.

``install`` wraps every public module-level function of each layer module
and rebinds the wrapper wherever ``bindings`` found the original, in every
quasilines namespace and module-level dict, so ``from .fans import
cone_contains`` in ``divisors`` is traced too.  Private helpers are not wrapped: their time
shows up as self time of the public function that calls them.

Spans live in memory in the op process as ``[name, start_ns, end_ns,
parent]`` lists and are shipped to the benchmark process with the op's
result; ``aggregate`` turns them into per-function calls and self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

LAYERS = ("lattice", "fans", "divisors", "cubic", "bundles", "models", "report", "cli")

NAMED = (
    "cli.run",
    "lattice.smith_normal_form",
    "lattice.rational_inverse",
    "lattice.solve_rational_linear",
    "fans.cone_coordinates",
    "fans.cone_contains",
    "fans.is_toric_morphism",
    "fans.validate_fan",
    "fans.desingularize",
    "fans.stellar_subdivide",
    "divisors.cartier_certificate",
    "divisors.count_lattice_points",
    "cubic.count_lines_through_point",
    "cubic.sylvester_resultant",
    "cubic.gcd_univariate",
    "models.propagate",
    "report.render",
    "report.parse",
)

# Functions whose truthy returns are counted, for hit ratios.
COUNT_HITS = ("fans.cone_contains",)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.hits: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        count_hits = name in COUNT_HITS
        if count_hits:
            self.hits[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count_hits and result:
                self.hits[name] += 1
            return result

        return traced

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished span under the open one, such as time spent in
        a signal handler; a name outside every layer counts in no layer."""
        if name not in self.names:
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.names.index(name), start_ns, end_ns, parent])

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "hits": self.hits}


def public_functions():
    """(layer.name, function) for each public function defined in a loaded
    layer module."""
    for layer in LAYERS:
        module = sys.modules.get(f"quasilines.{layer}")
        if module is None:
            continue
        for attr, fn in sorted(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                yield f"{layer}.{attr}", fn


def bindings() -> list[tuple[dict, str, object]]:
    """(namespace, key, function) for every binding of a public layer
    function in a quasilines module namespace or module-level dict."""
    targets = {id(fn) for _, fn in public_functions()}
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "quasilines" or name.startswith("quasilines.")):
            continue
        for attr, value in vars(module).items():
            if id(value) in targets:
                found.append((vars(module), attr, value))
            elif isinstance(value, dict) and not attr.startswith("__"):
                found.extend((value, k, v) for k, v in value.items() if id(v) in targets)
    return found


def install(found) -> Recorder:
    """Rebind every binding in ``found`` to a span-recording wrapper."""
    recorder = Recorder()
    wrappers = {id(fn): recorder.wrap(name, fn) for name, fn in public_functions()}
    for namespace, key, fn in found:
        namespace[key] = wrappers[id(fn)]
    return recorder


def aggregate(exported: dict, totals: dict, scale: float = 1.0) -> None:
    """Add one op's calls, self time (ns, times ``scale``) and hits into
    ``totals``."""
    names, spans = exported["names"], exported["spans"]
    child_ns = [0] * len(spans)
    for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (index, start, end, _) in enumerate(spans):
        entry = totals.setdefault(names[index], [0, 0])
        entry[0] += 1
        entry[1] += (end - start - child_ns[i]) * scale
    for name, hits in exported["hits"].items():
        totals.setdefault(name + "#hits", [0, 0])[0] += hits
