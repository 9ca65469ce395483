"""The immutable base of the package's value classes.

A value class names its fields as class annotations, in order, and gives a
field its default as a class attribute.  ``Frozen`` reads that list once
per class and derives from it the constructor (positional and keyword
arguments, defaults, then ``__post_init__``), ``repr``, ``==``, ``hash``
and ``replace``: the methods ``dataclass(frozen=True)`` would give, with
the same reprs, equality and hashes.  Assigning or deleting an attribute
raises ``AttributeError``; ``object.__setattr__`` still sets one, as a
``__post_init__`` that normalizes a field does.  Nothing is generated or
compiled, so defining a class costs two dicts.
"""


class Frozen:
    def __init_subclass__(cls):
        cls._fields = dict.fromkeys(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        values = zip(self._fields, args)
        if kwargs or len(args) != len(self._fields):
            given = {**dict(values), **kwargs}
            values = {**self._defaults, **given}
            if len(given) != len(args) + len(kwargs) or values.keys() != self._fields.keys():
                raise TypeError(f"{type(self).__name__}() takes each field once, unless it "
                                f"has a default: {', '.join(self._fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the fields in ``changes`` set to their new values."""
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))
