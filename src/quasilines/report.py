"""Line-oriented key/value documents used for reports and data files.

A document is a sequence of ``key: value`` lines; list values are written
as a bare ``key:`` line followed by ``- item`` lines, and an empty value
as a bare ``key:`` line, which reads back as an empty list.  Scalars are ints,
reduced fractions (``-2/3``), the words ``true``/``false``, or plain
strings; an item holding several whitespace-separated scalars parses as a
tuple, and a bare ``-`` item, as an empty string or tuple renders, parses
as the empty string.  Field order is preserved exactly, so identical inputs
render to byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError


class ParseError(UsageError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _render_scalar(value) -> str:
    """One scalar or tuple item as text.

    Exact ints and strings, nearly every scalar a report holds, are told by
    their type alone.  Every other value takes one isinstance chain: a
    tuple of any kind joins its items, a bool is a word, and any other int,
    string or Fraction is ``str(value)``, so a subclass that keeps its
    base's ``__str__`` renders as its base type does.
    """
    # isinstance(value, Fraction) is an ABC check, too slow to run on
    # every int; the exact types skip the chain.
    kind = type(value)
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, tuple):
        return " ".join(map(_render_scalar, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str, Fraction)):
        return str(value)
    raise TypeError(f"cannot render {value!r}")


def render(entries) -> str:
    """Render (key, value) pairs; a list value becomes a block of items."""
    lines = []
    for key, value in entries:
        if isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"- {_render_scalar(item)}")
        else:
            text = _render_scalar(value)
            lines.append(f"{key}: {text}" if text else f"{key}:")
    return "\n".join(lines) + "\n"


def _parse_scalar(token: str):
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            pass
    return token


def _parse_value(text: str):
    tokens = text.split()
    if not tokens:
        return ""
    if len(tokens) == 1:
        return _parse_scalar(tokens[0])
    return tuple(_parse_scalar(t) for t in tokens)


def parse(text: str) -> dict:
    """Parse a document into an ordered dict; raises ParseError with the
    offending line number."""
    result: dict = {}
    pending_key: str | None = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "-" or line.startswith("- "):
            if pending_key is None:
                raise ParseError(number, "list item outside any list")
            result[pending_key].append(_parse_value(line[2:]))
            continue
        if ":" not in line:
            raise ParseError(number, f"expected 'key: value', got {raw!r}")
        key, _, rest = line.partition(":")
        key = key.strip()
        if not key:
            raise ParseError(number, "empty key")
        if key in result:
            raise ParseError(number, f"duplicate key {key!r}")
        rest = rest.strip()
        if rest:
            result[key] = _parse_value(rest)
            pending_key = None
        else:
            result[key] = []
            pending_key = key
    return result
