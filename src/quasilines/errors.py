"""The package's error hierarchy; the class of an error decides its exit code.

Every error class of the package subclasses ``QuasilinesError``.  A
``UsageError`` is malformed or out-of-range input, and the command line
exits 1 on it; any other ``QuasilinesError`` is a mathematical condition of
well-formed input, and it exits 2.  Any other exception that reaches the
command line is an internal failure, exit 3.
"""


class QuasilinesError(Exception):
    """A mathematical condition of well-formed input (exit 2)."""


class UsageError(QuasilinesError, ValueError):
    """Malformed or out-of-range input (exit 1)."""
