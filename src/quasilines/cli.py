"""Batch command line front end with reproducible, seedable runs.

Subcommands: appendix, lemma-a2, bundle (elm | point | plan | self-int |
recover | cor17 | thm41 | thm16), cubic, models, fan (validate |
desingularize | cartier | h0).  Reports are line-oriented key/value
documents with stable field order; an identical configuration renders to
byte-identical structured output, and every header carries the seed in use.

One table, ``_COMMANDS``, lists each command's positionals and options, and
one scanner, ``quasilines.argscan``, reads argv against it.  A flag takes
one value, as ``--flag v`` or ``--flag=v``, and its last occurrence wins; a
unique prefix names a flag (``--s`` is ``--seed`` on ``appendix``,
ambiguous on ``lemma-a2``); a plain negative number such as ``-3`` is a
value, ``-1,1`` needs ``--flag=-1,1``; ``--`` ends the options.  A fan file
may come before or after the options, and a ``--flag=--`` value is the text
``--``.  ``-h``/``--help`` returns the usage of the program or of a command
with exit 0.

Exit codes: 0 success, 1 usage or parse failure, 2 mathematical error
condition, 3 internal failure.  The class of an error decides its code (see
``quasilines.errors``): a ``UsageError`` exits 1 with a usage report on
stderr, any other ``QuasilinesError`` exits 2 with an error report naming
the class, and any other exception exits 3 with an ``internal`` report,
never a traceback.  A models contradiction also exits 2.
"""

from __future__ import annotations

import sys
from math import lcm
from pathlib import Path
from types import SimpleNamespace

from .argscan import ONE, OPTIONAL, REST, scan
from .bundles import (
    DivisorData,
    InapplicableReductionError,
    SplittingType,
    elementary_transform,
    fibration_reduction,
    point_blowup,
    quasiline_plan,
    rationality_criterion,
    recover_splitting,
    self_intersections,
    strong_rationality_criterion,
)
from .cubic import (
    conic_count_certificate,
    count_lines_through_point,
    reducible_demo_instance,
)
from .divisors import (
    SupportFunction,
    cartier_certificate,
    count_lattice_points,
    quotient_extension_check,
    quotient_hyperplane_support,
    sections_polyhedron,
)
from .fans import (
    BadDimensionError,
    Fan,
    cone_multiplicity,
    cyclic_quotient_fans,
    desingularize,
    is_smooth,
    is_toric_morphism,
    make_fan,
    validate_fan,
)
from .errors import QuasilinesError, UsageError
from .models import BUILTIN_RECORDS, FLAG_FIELDS, INT_FIELDS, ModelRecord, _shown, propagate
from .report import parse, render

MAX_QUOTIENT_N = 12


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    values = []
    for position, token in enumerate(text.split(","), start=1):
        token = token.strip()
        try:
            values.append(int(token))
        except ValueError:
            raise UsageError(f"{flag}: position {position}: invalid integer {token!r}")
    return tuple(values)


# The command table: each command's one-line summary, its positionals and
# its options, in the form ``argscan`` reads.  Every command also takes the
# common options and -h/--help.
_COMMON = {
    "--seed": ("seed", int, 0, False),
    "--format": ("format", ("human", "structured"), "human", False),
    "--out": ("out", str, None, False),
}
_COMMANDS = {
    "appendix": ("quotient fans, Cartier dichotomy and section count", (), {
        "--n": ("n", int, None, True),
    }),
    "lemma-a2": ("sampled divisor extensions on the smooth refinement", (), {
        "--n": ("n", int, None, True),
        "--bound": ("bound", int, 5, False),
        "--samples": ("samples", int, 100, False),
    }),
    "bundle": ("splitting-type calculus", (
        ("subop", ("elm", "plan", "self-int", "recover", "cor17", "thm41", "thm16", "point"),
         ONE),
    ), {
        "--type": ("type_", str, None, False),
        "--targets": ("targets", str, None, False),
        "--anchor": ("anchor", int, None, False),
        "--d": ("d", int, None, False),
        "--dimD": ("dim_d", int, None, False),
        "--n": ("n", int, None, False),
        "--quasiline": ("quasiline", ("true", "false"), None, False),
    }),
    "cubic": ("certified line count through a point of a cubic threefold", (), {
        "--bound": ("bound", int, 9, False),
        "--demo": ("demo", ("reducible",), None, False),
    }),
    "models": ("invariant propagation on a record file or a builtin record: "
               + ", ".join(sorted(BUILTIN_RECORDS)), (("record", None, OPTIONAL),), {
        "--file": ("file", str, None, False),
        "--n": ("n", int, None, False),
    }),
    "fan": ("fan file operations", (
        ("subop", ("validate", "desingularize", "cartier", "h0"), ONE),
        ("fanfile", None, OPTIONAL),
    ), {
        "--values": ("values", str, None, False),
        "--divisor": ("divisor", str, None, False),
    }),
}
_TOP = (("command", {name: (positionals, {**_COMMON, **options})
                     for name, (_, positionals, options) in _COMMANDS.items()}, REST),)


def parse_args(argv) -> SimpleNamespace | str:
    """The arguments of one command line, or the help text when -h/--help
    comes before any error; raises ``UsageError`` otherwise."""
    values: dict = {}
    extras = scan(list(argv), _TOP, {}, values)
    if extras is None:
        return help_text(values["command"])
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def help_text(command: str | None) -> str:
    """Usage of ``command``, or of the program when it is None, from the
    command table."""
    if command is None:
        width = max(map(len, _COMMANDS))
        return "\n".join([
            "usage: quasilines <command> [options]", "", "commands:",
            *(f"  {name:<{width}}  {summary}" for name, (summary, _, _) in _COMMANDS.items()),
            "", "Run 'quasilines <command> -h' for the options of a command.", "",
        ])
    summary, positionals, options = _COMMANDS[command]
    words = ["{" + ",".join(choices) + "}" if kind == ONE else f"[{dest}]"
             for dest, choices, kind in positionals]
    rows = [("-h, --help", "show this help and exit")]
    for flag, (_, kind, default, required) in {**_COMMON, **options}.items():
        shown = kind.__name__.upper() if isinstance(kind, type) else "{" + ",".join(kind) + "}"
        note = "required" if required else "" if default is None else f"default {default}"
        rows.append((f"{flag} {shown}", note))
    width = max(len(left) for left, _ in rows)
    return "\n".join([
        " ".join(["usage: quasilines", command, *words, "[options]"]), "", summary, "",
        "options:", *(f"  {left:<{width}}  {note}".rstrip() for left, note in rows), "",
    ])


def _read_doc(path) -> dict:
    """Parse the document at ``path``; a path that cannot be read as text
    is a usage error that carries the operating system's message."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(str(exc)) from exc
    return parse(text)


def _items(value) -> tuple:
    """The entries of a document value: a list's items, a tuple's scalars,
    or the value alone."""
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _as_int(value, key: str) -> int:
    """An integer scalar of a document; a fraction, a bool or a string is
    rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{key}: invalid integer {_shown(value)!r}")
    return value


def fan_from_doc(doc: dict) -> Fan:
    for key in ("dim", "rays", "cones"):
        if key not in doc:
            raise UsageError(f"fan document is missing the key {key!r}")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise UsageError("fan dim must be a positive integer")
    rays = [tuple(_as_int(x, "rays") for x in _items(item)) for item in _items(doc["rays"])]
    cones = [tuple(_as_int(x, "cones") for x in _items(item)) for item in _items(doc["cones"])]
    return make_fan(dim, rays, cones)


def _load_fan(args) -> tuple[Fan, dict | None]:
    """The fan, and the divisor document when the fan was found through it."""
    if args.fanfile is not None:
        return fan_from_doc(_read_doc(args.fanfile)), None
    if args.divisor is None:
        raise UsageError("a fan file is required")
    divisor = _read_doc(args.divisor)
    ref = divisor.get("fan")
    if not isinstance(ref, str):
        raise UsageError("divisor file does not reference a fan file")
    return fan_from_doc(_read_doc(Path(args.divisor).parent / ref)), divisor


def _load_values(args, divisor: dict | None) -> tuple[int, ...]:
    if args.values is not None:
        values = _parse_int_list(args.values, "--values")
    elif args.divisor is not None:
        if divisor is None:
            divisor = _read_doc(args.divisor)
        if "values" not in divisor:
            raise UsageError("divisor file has no values key")
        values = tuple(_as_int(x, "values") for x in _items(divisor["values"]))
    else:
        raise UsageError("provide --values or --divisor")
    return values


def _require(args, flag: str):
    """The value of the command's option ``flag``, read under the dest that
    the command table gives it; a usage error when it was not given."""
    value = getattr(args, _COMMANDS[args.command][2][flag][0])
    if value is None:
        raise UsageError(f"{flag} is required for this operation")
    return value


def _failing_cone_rows(certificate) -> list:
    """The first cone on which a Cartier test fails, and its rational-only
    solution."""
    cone = certificate.failure_cone
    return [
        ("failing-cone", cone),
        ("failing-cone-rays", certificate.support.fan.max_cones[cone]),
        ("rational-solution", certificate.failure_solution),
    ]


def _section_rows(psi: SupportFunction) -> list:
    """The sections polyhedron of ``psi``, its lattice points and their count."""
    polyhedron = sections_polyhedron(psi)
    counted = count_lattice_points(polyhedron)
    return [
        ("constraints", [normal + (rhs,) for normal, rhs in polyhedron.constraints]),
        ("lattice-points", list(counted.points) or "none"),
        ("section-count", counted.count),
        ("h0", counted.count),
    ]


def _cmd_appendix(args) -> tuple[list, int]:
    sub_fan, big_fan, inclusion = cyclic_quotient_fans(args.n)
    psi_big = quotient_hyperplane_support(big_fan)
    psi_sub = quotient_hyperplane_support(sub_fan)
    cert_sub = cartier_certificate(psi_sub)
    cert_big = cartier_certificate(psi_big)
    assert cert_sub.cartier and not cert_big.cartier
    entries = [
        ("n", args.n),
        ("quotient-rays", list(big_fan.rays)),
        ("quotient-cones", list(big_fan.max_cones)),
        ("quotient-multiplicities",
         tuple(cone_multiplicity(big_fan, c) for c in big_fan.max_cones)),
        ("quotient-smooth", is_smooth(big_fan)),
        ("projective-rays", list(sub_fan.rays)),
        ("projective-smooth", is_smooth(sub_fan)),
        ("quotient-map", is_toric_morphism(inclusion, sub_fan, big_fan)),
        ("divisor-values", psi_big.values),
        ("cartier-on-projective", cert_sub.cartier),
        ("projective-cone-duals", list(cert_sub.cone_duals)),
        ("cartier-on-quotient", cert_big.cartier),
        *_failing_cone_rows(cert_big),
        ("witness-denominator-lcm",
         lcm(*(value.denominator for value in cert_big.failure_solution))),
        *_section_rows(psi_big),
    ]
    return entries, 0


def _cmd_lemma_a2(args) -> tuple[list, int]:
    report, quotient, refined = quotient_extension_check(
        args.n, args.bound, args.samples, args.seed
    )
    entries = [
        ("n", args.n),
        ("coeff-bound", args.bound),
        ("samples-requested", report.requested),
        ("samples-tested", report.tested),
        ("samples-cartier", report.cartier_samples),
        ("original-rays", len(quotient.rays)),
        ("original-cones", len(quotient.max_cones)),
        ("refined-rays", len(refined.rays)),
        ("refined-cones", len(refined.max_cones)),
        ("refined-smooth", is_smooth(refined)),
        ("base-section-count", report.base_count),
        ("counts", report.counts if report.counts else "none"),
        ("containment-failures", report.containment_failures),
        ("count-violations", report.count_violations),
        ("all-ok", report.all_ok),
        ("note", report.note),
    ]
    return entries, 0


def _cmd_bundle(args) -> tuple[list, int]:
    if args.subop == "recover":
        targets = _parse_int_list(_require(args, "--targets"), "--targets")
        anchor = _require(args, "--anchor")
        result = recover_splitting(targets, anchor)
        return [("targets", targets), ("anchor", anchor), ("result", str(result))], 0
    if args.subop == "thm41":
        dd = DivisorData(d_y=_require(args, "--d"), dim_d=_require(args, "--dimD"),
                         n=_require(args, "--n"))
        has_quasiline = _require(args, "--quasiline") == "true"
        verdict = strong_rationality_criterion(dd, has_quasiline)
        return [("d", dd.d_y), ("dimD", dd.dim_d), ("n", dd.n), ("quasiline", has_quasiline),
                ("strongly-rational-criterion", verdict)], 0
    t = SplittingType(_parse_int_list(_require(args, "--type"), "--type"))
    entries = [("type", str(t))]
    if args.subop == "elm":
        return entries + [("result", str(elementary_transform(t)))], 0
    if args.subop == "point":
        return entries + [("result", str(point_blowup(t)))], 0
    if args.subop == "self-int":
        return entries + [("self-intersections", self_intersections(t))], 0
    if args.subop == "plan":
        plan = quasiline_plan(t)
        return entries + [
            ("steps", plan.steps),
            ("almost-line", plan.almost_line),
            ("trajectory", [str(step) for step in plan.types]),
            ("kinds", list(plan.kinds) or "none"),
        ], 0
    # cor17 and thm16 read the divisor data; n defaults to the rank plus one.
    dd = DivisorData(d_y=_require(args, "--d"), dim_d=_require(args, "--dimD"),
                     n=len(t) + 1 if args.n is None else args.n)
    entries += [("d", dd.d_y), ("dimD", dd.dim_d), ("n", dd.n)]
    if args.subop == "cor17":
        return entries + [("rational-criterion", rationality_criterion(t, dd))], 0
    try:
        reduction = fibration_reduction(t, dd)
    except InapplicableReductionError as exc:
        return entries + [("applicable", False), ("reason", str(exc))], 0
    return entries + [
        ("applicable", True),
        ("reduced-type", str(reduction.reduced)),
        ("reduced-d", reduction.d_y),
        ("reduced-dimD", reduction.dim_d),
        ("target-dim", reduction.target_dim),
    ], 0


def _cmd_cubic(args) -> tuple[list, int]:
    if args.demo == "reducible":
        f, point = reducible_demo_instance()
        count_lines_through_point(f, point)  # raises DegenerateError
        raise AssertionError("the reducible demo must be degenerate")
    certificate = conic_count_certificate(args.seed, args.bound)
    report = certificate.report
    entries = [
        ("coefficient-bound", args.bound),
        ("attempt", certificate.attempt),
        ("point", certificate.point),
        ("cubic-coefficients",
         [exps + (coeff,) for exps, coeff in sorted(certificate.cubic.terms.items())]),
        ("resultant-coefficients", report.resultant),
        ("resultant-degree", report.resultant_degree),
        ("squarefree", report.squarefree),
        ("no-loss-at-infinity", report.no_loss_at_infinity),
        ("full-fibre-degrees", report.full_fibre_degrees),
        ("generic", report.generic),
        ("count", report.count),
        ("e", certificate.e),
    ]
    return entries, 0


def _record_from_doc(doc: dict, default_name: str) -> ModelRecord:
    fields: dict = {"name": default_name}
    for key, value in doc.items():
        if key not in ("name",) + INT_FIELDS + FLAG_FIELDS:
            raise UsageError(f"unknown record field {key!r}")
        if key in FLAG_FIELDS and not isinstance(value, bool):
            raise UsageError(f"record field {key!r} must be true or false")
        if key in INT_FIELDS and (isinstance(value, bool) or not isinstance(value, int)):
            raise UsageError(f"record field {key!r} must be an integer")
        if key == "name":
            words = value if isinstance(value, tuple) else (value,)
            if not all(isinstance(word, str) for word in words):
                raise UsageError("record field 'name' must be text")
            value = " ".join(words)
        fields[key] = value
    return ModelRecord(**fields)


def _cmd_models(args) -> tuple[list, int]:
    if args.file is not None:
        record = _record_from_doc(_read_doc(args.file), Path(args.file).stem)
    elif args.record is not None:
        builder = BUILTIN_RECORDS.get(args.record)
        if builder is None:
            raise UsageError(
                f"unknown builtin record {args.record!r}; choose from "
                + ", ".join(sorted(BUILTIN_RECORDS))
            )
        # A functools.wraps wrapper, as a tracer installs, keeps the builder
        # in __wrapped__.
        arity = getattr(builder, "__wrapped__", builder).__code__.co_argcount
        if args.n is not None and not arity:
            raise UsageError(f"--n does not apply to the builtin record {args.record!r}")
        record = builder(args.n) if args.n is not None else builder()
    else:
        raise UsageError("provide a builtin record name or --file")
    result = propagate(record)
    before = record.known_fields()
    after = result.record.known_fields()
    entries = [
        ("record", record.name),
        ("input-fields", [f"{k} = {_shown(v)}" for k, v in sorted(before.items())] or "none"),
        ("firings", [
            f"{f.rule} [{' '.join(f.inputs)}] -> {f.derived}" for f in result.firings
        ] or "none"),
        ("derived-fields", [
            f"{k} = {_shown(v)}" for k, v in sorted(after.items()) if k not in before
        ] or "none"),
        ("consistent", result.consistent),
    ]
    if result.contradiction is None:
        entries.append(("contradiction", "none"))
        return entries, 0
    entries.append(("contradiction-rule", result.contradiction.rule))
    entries.append(
        ("contradiction",
         f"{result.contradiction.rule}: {result.contradiction.detail}")
    )
    return entries, 2


def _cmd_fan(args) -> tuple[list, int]:
    fan, divisor = _load_fan(args)
    outcome = validate_fan(fan)
    if args.subop == "validate":
        return [
            ("dim", fan.dim),
            ("ray-count", len(fan.rays)),
            ("cone-count", len(fan.max_cones)),
            ("valid", outcome.valid),
            ("violations", list(outcome.violations) or "none"),
        ], 0
    if not outcome.valid:
        raise UsageError(f"invalid fan: {outcome.violations[0]}")
    if args.subop == "desingularize":
        smooth = desingularize(fan)
        return [
            ("dim", smooth.dim),
            ("rays", list(smooth.rays)),
            ("cones", list(smooth.max_cones)),
            ("smooth", is_smooth(smooth)),
            ("added-rays", len(smooth.rays) - len(fan.rays)),
        ], 0
    values = _load_values(args, divisor)
    psi = SupportFunction(fan, values)
    entries = [("values", values)]
    if args.subop == "cartier":
        certificate = cartier_certificate(psi)
        entries.append(("cartier", certificate.cartier))
        if certificate.cartier:
            return entries + [("cone-duals", list(certificate.cone_duals))], 0
        return entries + _failing_cone_rows(certificate), 0
    return entries + _section_rows(psi), 0


# Each handler returns its body rows and exit code; ``run`` puts the report
# and seed rows in front.
_DISPATCH = {
    "appendix": _cmd_appendix,
    "lemma-a2": _cmd_lemma_a2,
    "bundle": _cmd_bundle,
    "cubic": _cmd_cubic,
    "models": _cmd_models,
    "fan": _cmd_fan,
}


def _usage_report(exc: Exception) -> tuple[int, str]:
    return 1, render([("report", "error"), ("error", "usage"), ("detail", str(exc))])


def run(argv) -> tuple[int, str]:
    """Execute one command; returns (exit code, rendered report), or (0,
    usage text) for -h/--help.  The class of a failure decides the code, as
    the module docstring says.  ``appendix`` and ``lemma-a2`` both take n
    in 2..``MAX_QUOTIENT_N``."""
    try:
        args = parse_args(argv)
        if isinstance(args, str):
            return 0, args
        if args.command in ("appendix", "lemma-a2") and not 2 <= args.n <= MAX_QUOTIENT_N:
            raise BadDimensionError(f"--n must be between 2 and {MAX_QUOTIENT_N}")
        entries, code = _DISPATCH[args.command](args)
        name = f"{args.command}-{args.subop}" if hasattr(args, "subop") else args.command
        body = render([("report", name), ("seed", args.seed), *entries])
    except UsageError as exc:
        return _usage_report(exc)
    except QuasilinesError as exc:
        code = 2
        body = render([
            ("report", "error"),
            ("seed", args.seed),
            ("error", type(exc).__name__),
            ("detail", str(exc)),
        ])
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        return 3, render([("report", "error"), ("error", "internal"), ("detail", detail)])
    if args.format == "human":
        body = f"# quasilines {args.command}\n" + body
    if not args.out:
        return code, body
    try:
        Path(args.out).write_text(body)
    except OSError as exc:
        return _usage_report(exc)
    return code, ""


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        stream = sys.stderr if code == 1 else sys.stdout
        stream.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
