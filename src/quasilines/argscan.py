"""The command line's argv scanner, driven by a table of arguments.

One level of the table is a tuple of positionals, each (dest, choices,
kind) with kind ``ONE``, ``OPTIONAL`` or ``REST``, and a dict of options,
flag -> (dest, kind, default, required), where an option's kind is int, str
or a tuple of choices.  Every level also takes -h/--help.  A ``REST``
positional names a command: its choices map each name to the (positionals,
options) level that reads the rest of argv.

The readings and usage messages are those of the standard library's option
parser for the same arguments, which ``tests/conftest.py`` keeps as the
reference, except for the two changes ``scan`` names.
"""

from __future__ import annotations

from .errors import UsageError

ONE, OPTIONAL, REST = "one", "optional", "rest"
_HELP = {"-h": None, "--help": None}


def _choices(choices) -> str:
    return ", ".join(map(repr, choices))


def _negative_number(arg: str) -> bool:
    r"""Whether ``arg``, which begins with a dash, reads as a negative number
    by the standard parser's pattern ``^-\d+$|^-\d*\.\d+$``: ``$`` also
    matches before one final newline, and ``\d`` is what ``isdecimal``
    accepts."""
    whole, dot, fraction = arg[1:].removesuffix("\n").partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (not whole or whole.isdecimal())


def _classify(arg: str, flags: dict):
    """How a string that precedes any ``--`` reads: None for a positional,
    else (flag, explicit value or None), where the flag is None for an
    unknown option.  A unique prefix of a ``--`` flag names it, and a plain
    negative number such as ``-3`` is a positional."""
    if not arg.startswith("-"):
        return None
    if arg in flags:
        return arg, None
    if len(arg) == 1:
        return None
    flag, equals, value = arg.partition("=")
    if equals and flag in flags:
        return flag, value
    if arg[1] == "-":
        matches = [(f, value if equals else None) for f in flags if f.startswith(flag)]
    else:  # -hXYZ is -h with the explicit value XYZ
        matches = [(f, arg[2:]) for f in flags if f == arg[:2]]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {arg} could match "
                         + ", ".join(f for f, _ in matches))
    if matches:
        return matches[0]
    if _negative_number(arg) or " " in arg:
        return None
    return None, None


def _convert(flag: str, kind, value: str):
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
    if kind is not str and value not in kind:
        raise UsageError(
            f"argument {flag}: invalid choice: {value!r} (choose from {_choices(kind)})"
        )
    return value


def scan(argv: list, positionals, options: dict, values: dict):
    """Read ``argv`` against one level of the table and store each value
    under its dest.  Returns the strings no argument took, or None when
    -h/--help is taken; a ``REST`` positional reads the rest of ``argv``
    against the level of the command it names.

    Options and runs of positionals are taken alternately, left to right,
    so the first failing argument names the error.  An option takes the
    next string unless that is ``--`` or reads as an option, and its last
    occurrence wins; ``--flag=--`` gives the text ``--``.  An optional
    positional that matches nothing stays pending, so it still takes a
    string that follows the options, such as the file of ``fan validate
    --format structured f.txt``."""
    flags = {**_HELP, **options}
    for dest, _, _ in positionals:
        values[dest] = None
    for dest, _, default, _ in options.values():
        values[dest] = default
    kinds, found = [], {}
    for i, arg in enumerate(argv):
        if arg == "--":
            kinds += "-" + "A" * (len(argv) - i - 1)
            break
        option = _classify(arg, flags)
        if option is not None:
            found[i] = option
        kinds.append("A" if option is None else "O")
    pattern = "".join(kinds)
    end = len(pattern)
    pending = list(positionals)
    seen, extras, late = set(), [], []

    def take_positionals(i):
        nonlocal late
        while pending:
            dest, choices, kind = pending[0]
            j = i
            while j < end and pattern[j] == "-":
                j += 1
            if j < end and pattern[j] == "A":
                j += 1
            elif kind != OPTIONAL:
                break
            if kind == REST:
                j = end
            while j < end and pattern[j] == "-":
                j += 1
            if j == i:
                break
            group, i = argv[i:j], j
            del pending[0]
            seen.add(dest)
            if kind != REST and "--" in group:
                group.remove("--")
            value = group[0] if group else None
            if choices is not None and value not in choices:
                raise UsageError(f"argument {dest}: invalid choice: {value!r} "
                                 f"(choose from {_choices(choices)})")
            values[dest] = value
            if kind == REST:
                late = scan(group[1:], *choices[value], values)
                if late is None:
                    return None
        return i

    def take_option(i):
        flag, explicit = found[i]
        if flag is None:
            extras.append(argv[i])
            return i + 1
        if flags[flag] is None:
            if explicit is not None:
                # -h takes no value, but -hh reads as -h -h.
                rest = explicit.lstrip("h") if flag == "-h" else explicit
                if rest or not explicit:
                    raise UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
            return None
        if explicit is None:
            if pattern[i + 1:i + 2] != "A":
                raise UsageError(f"argument {flag}: expected one argument")
            i += 1
            explicit = argv[i]
        dest, kind, _, _ = flags[flag]
        values[dest] = _convert(flag, kind, explicit)
        seen.add(dest)
        return i + 1

    i = 0
    for k in found:  # option indices, in order
        if i < k:
            i = take_positionals(i)
            if i is None:
                return None
            extras.extend(argv[i:k])
        if i <= k:  # else the command positional took it
            i = take_option(k)
            if i is None:
                return None
    i = take_positionals(i)
    if i is None:
        return None
    extras.extend(argv[i:])
    missing = [dest for dest, _, kind in positionals if kind != OPTIONAL and dest not in seen]
    missing += [flag for flag, (dest, _, _, required) in options.items()
                if required and dest not in seen]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    return extras + late
