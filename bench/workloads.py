"""Seeded op lists, input files and output checks for the four workloads.

An op is one CLI argv for ``quasilines.cli.run``.  Argv entries may hold the
placeholder ``{work}``, the run's scratch directory; the argv with the
placeholder left in is the op's key, which is what the committed output
digests are indexed by.  Each workload is a sequence of rounds; round ``r``
of a seed is always the same, so a run that completes the same number of
rounds repeats the same ops.

The checks use their own small reader for the report format, so a defect in
``quasilines.report.parse`` cannot hide a wrong report.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("appendix-sweep", "lemma-extension", "fan-pipeline", "cubic-models")

# Rays of the smooth refinement that `fan desingularize` produces for the
# n = 3 quotient fan; the `fan cartier` and `fan h0` values are drawn for it
# before the refinement exists.  The committed digests pin this output.
REFINED_N3_RAYS = 14

BUILTIN_MODELS = ("pn-line", "cubic-conic", "toric-quotient", "cotangent-bundle")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str
    expect: tuple = ()
    out_file: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def resolved(self, work: Path) -> list[str]:
        return [a.replace("{work}", str(work)) for a in self.argv]


@dataclass
class Rounds:
    """Endless seeded stream of rounds for one workload and seed."""

    workload: str
    seed: int
    work: Path

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        self._rng = random.Random(f"{self.workload}/{self.seed}")
        if self.workload == "fan-pipeline":
            for n in (3, 4, 5):
                (self.work / f"q{n}.fan").write_text(_quotient_fan_doc(n))

    def next_round(self) -> list[Op]:
        return getattr(self, "_" + self.workload.replace("-", "_"))()

    def _appendix_sweep(self) -> list[Op]:
        ks = list(range(2, 13))
        self._rng.shuffle(ks)
        return [Op(("appendix", "--n", str(k), "--format", "structured"), "appendix", (k,))
                for k in ks]

    def _lemma_extension(self) -> list[Op]:
        rng = self._rng
        ops = []
        for n, samples in ((2, 20),) * 2 + ((3, 8),) * 4:
            argv = ("lemma-a2", "--n", str(n), "--samples", str(samples),
                    "--bound", str(rng.randint(2, 8)), "--seed", str(rng.randrange(10**6)),
                    "--format", "structured")
            ops.append(Op(argv, "lemma-a2"))
        rng.shuffle(ops)
        return ops

    def _fan_pipeline(self) -> list[Op]:
        rng = self._rng
        ops = []
        for n in (3, 4, 5):
            q, r = f"{{work}}/q{n}.fan", f"{{work}}/r{n}.fan"
            ops.append(Op(("fan", "validate", q, "--format", "structured"), "fan-validate"))
            ops.append(Op(("fan", "desingularize", q, "--out", r, "--format", "structured"),
                          "fan-desingularize", (n,), out_file=f"r{n}.fan"))
            ops.append(Op(("fan", "validate", r, "--format", "structured"), "fan-validate"))
        for subop, low, high in (("cartier", -3, 3),) * 3 + (("h0", -2, 0),) * 3:
            values = ",".join(str(rng.randint(low, high)) for _ in range(REFINED_N3_RAYS))
            ops.append(Op(("fan", subop, "{work}/r3.fan", f"--values={values}",
                           "--format", "structured"), f"fan-{subop}"))
        return ops

    def _cubic_models(self) -> list[Op]:
        rng = self._rng
        ops = [Op(("cubic", "--seed", str(rng.randrange(10**6)), "--format", "structured"),
                  "cubic") for _ in range(6)]
        name = rng.choice(BUILTIN_MODELS)
        argv = ("models", name, "--format", "structured")
        if name == "toric-quotient":
            argv += ("--n", str(rng.randint(2, 6)))
        ops.append(Op(argv, "models", (0,)))
        ops.append(self._record_op(rng))
        for _ in range(2):
            ops.append(_bundle_op(rng))
        rng.shuffle(ops)
        return ops

    def _record_op(self, rng) -> Op:
        """A ``models --file`` record; half of them contradict rule R1."""
        etilde, b = rng.randint(1, 6), rng.randint(1, 6)
        text = f"etilde: {etilde}\nb: {b}\n"
        contradictory = rng.random() < 0.5
        if contradictory:
            text += f"e: {etilde * b + rng.randint(1, 5)}\n"
        name = "rec-" + hashlib.sha256(text.encode()).hexdigest()[:12] + ".txt"
        (self.work / name).write_text(text)
        return Op(("models", "--file", f"{{work}}/{name}", "--format", "structured"),
                  "models", (2, "R1") if contradictory else (0, etilde * b))


def _bundle_op(rng) -> Op:
    exps = sorted(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
    text = ",".join(map(str, exps))
    sub = rng.choice(("elm", "plan", "self-int", "recover"))
    if sub == "recover":
        targets = ",".join(map(str, _self_intersections(exps)))
        argv = ("bundle", "recover", f"--targets={targets}", "--anchor", str(sum(exps)))
    else:
        argv = ("bundle", sub, "--type", text)
    return Op(argv + ("--format", "structured"), f"bundle-{sub}", tuple(exps))


def _self_intersections(exps) -> list[int]:
    return [len(exps) * a - sum(exps) for a in exps]


def _quotient_fan_doc(n: int) -> str:
    """Fan file of the quotient of projective n-space by Z/(n+1)."""
    first = (n + 1,) + tuple(-j for j in range(2, n + 1))
    last = (-(n + 1),) + tuple(j - 1 for j in range(2, n + 1))
    units = [tuple(int(k == i) for k in range(n)) for i in range(1, n)]
    lines = [f"dim: {n}", "rays:"]
    lines += ["- " + " ".join(map(str, ray)) for ray in (first, *units, last)]
    lines.append("cones:")
    lines += ["- " + " ".join(map(str, cone)) for cone in combinations(range(n + 1), n)]
    return "\n".join(lines) + "\n"


# --- report reader -----------------------------------------------------------

def read_report(text: str) -> dict:
    """Keys to raw values: a string, or a list of item strings."""
    doc: dict = {}
    current = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("- "):
            if current is None:
                raise ValueError(f"list item outside a list: {line!r}")
            current.append(line[2:])
            continue
        key, sep, rest = line.partition(":")
        if not sep or key in doc:
            raise ValueError(f"malformed or repeated key line: {line!r}")
        rest = rest.strip()
        doc[key] = rest if rest else []
        current = doc[key] if not rest else None
    return doc


def _nums(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(token) for token in text.split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.split())


def _items(doc: dict, key: str) -> list[str]:
    value = doc[key]
    if value == "none":
        return []
    if isinstance(value, str):
        return [value] if value else []
    return value


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _require_solves(m, rays, values, indices, what: str) -> None:
    """<m, ray_i> = value_i for each i in ``indices``."""
    for i in indices:
        _require(sum(a * b for a, b in zip(m, rays[i])) == values[i],
                 f"{what} misses the value on ray {i}")


def _check_points(doc: dict) -> None:
    points = [_ints(p) for p in _items(doc, "lattice-points")]
    constraints = [_ints(c) for c in _items(doc, "constraints")]
    _require(doc["h0"] == doc["section-count"] == str(len(points)),
             "h0, section-count and the point list disagree")
    for p in points:
        for c in constraints:
            _require(sum(a * x for a, x in zip(c[:-1], p)) >= c[-1],
                     f"point {p} violates constraint {c}")


def _check_witness(doc: dict, n: int) -> None:
    """The witness solves the failing cone's equations, is not integral,
    and its denominators have the printed lcm, which divides n+1."""
    rays = [_ints(r) for r in doc["quotient-rays"]]
    m = _nums(doc["rational-solution"])
    _require_solves(m, rays, _ints(doc["divisor-values"]), _ints(doc["failing-cone-rays"]),
                    "witness")
    lcm = 1
    for x in m:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    _require(doc["witness-denominator-lcm"] == str(lcm), "wrong witness denominator lcm")
    _require(lcm > 1 and (n + 1) % lcm == 0, "witness denominator lcm does not divide n+1")


def _check_cartier(doc: dict, fan: dict, values: tuple[int, ...]) -> None:
    rays = [_ints(r) for r in fan["rays"]]
    cones = [_ints(c) for c in fan["cones"]]
    if doc["cartier"] == "true":
        duals = [_ints(d) for d in _items(doc, "cone-duals")]
        _require(len(duals) == len(cones), "one dual per cone expected")
        for cone, m in zip(cones, duals):
            _require_solves(m, rays, values, cone, f"dual {m}")
        return
    _require(doc["cartier"] == "false", "cartier is not a boolean")
    m = _nums(doc["rational-solution"])
    _require(any(x.denominator != 1 for x in m), "failure witness is integral")
    _require_solves(m, rays, values, cones[int(doc["failing-cone"])], "witness")


def check(op: Op, code: int, text: str, work: Path) -> None:
    """Raise CheckFailed unless the op's report means what it must."""
    expected_code = op.expect[0] if op.kind == "models" else 0
    _require(code == expected_code, f"exit code {code}, expected {expected_code}")
    if op.out_file is not None:
        _require(text == "", "report printed although --out was given")
        text = (work / op.out_file).read_text()
    doc = read_report(text)
    kind = op.kind
    if kind == "appendix":
        (n,) = op.expect
        _require(doc["n"] == str(n), "wrong n")
        _require(doc["cartier-on-projective"] == "true", "not Cartier on projective space")
        _require(doc["cartier-on-quotient"] == "false", "Cartier on the quotient")
        _check_witness(doc, n)
        _check_points(doc)
    elif kind == "lemma-a2":
        _require(doc["all-ok"] == "true", "all-ok is not true")
    elif kind == "cubic":
        _require(doc["count"] == "6" and doc["e"] == "6", "line count is not 6")
        _require(doc["generic"] == "true", "sample is not generic")
    elif kind == "models":
        if code == 0:
            _require(doc["consistent"] == "true", "record not consistent")
            if len(op.expect) > 1:
                _require(f"e = {op.expect[1]}" in _items(doc, "derived-fields"),
                         "e = etilde * b not derived")
        else:
            _require(doc["contradiction-rule"] == op.expect[1], "wrong contradiction rule")
    elif kind == "fan-validate":
        _require(doc["valid"] == "true", "fan not valid")
    elif kind == "fan-desingularize":
        _require(doc["smooth"] == "true", "refinement not smooth")
        _require(doc["dim"] == str(op.expect[0]), "wrong dimension")
    elif kind == "fan-cartier":
        values = _ints(op.argv[3].partition("=")[2].replace(",", " "))
        _check_cartier(doc, read_report((work / "r3.fan").read_text()), values)
    elif kind == "fan-h0":
        _check_points(doc)
    elif kind.startswith("bundle-"):
        _check_bundle(kind, list(op.expect), doc)
    else:
        raise CheckFailed(f"no check for op kind {kind}")


def _check_bundle(kind: str, exps: list[int], doc: dict) -> None:
    if kind == "bundle-elm":
        want = sorted(exps[:-1] + [exps[-1] - 1])
        _require(doc["result"] == ",".join(map(str, want)), "wrong elementary transform")
    elif kind == "bundle-self-int":
        _require(_ints(doc["self-intersections"]) == tuple(_self_intersections(exps)),
                 "wrong self-intersections")
    elif kind == "bundle-recover":
        _require(doc["result"] == ",".join(map(str, exps)), "wrong recovered type")
    else:
        _require(doc["steps"] == str(sum(a - 1 for a in exps)), "wrong plan length")
        trajectory = _items(doc, "trajectory")
        _require(trajectory[-1] == ",".join(["1"] * len(exps)), "plan does not end at 1,...,1")
