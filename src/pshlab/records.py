"""The record idiom of the value classes that are not tuples.

Pure immutable records are `typing.NamedTuple`s.  Value and arithmetic
types, and classes with a cached property, subclass `Record` or `Frozen`:
a subclass names its fields in `_fields`, in constructor order, and sets
them in its own `__init__`.  Equality within the class and the
`Name(field=value, ...)` repr read those fields.  Defining such a class
costs microseconds, and no class decorator generates code (or imports
`inspect`) when pshlab is imported.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A record whose fields may be reassigned; it has no hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:  # not a function, so never bound: self._values(self)
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    """Fields set once, by `__init__` through `object.__setattr__`; the
    hash is that of the field tuple, and assignment raises AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild the fields, not __init__
        return _rebuild, (self.__class__, self._values(self))


def _rebuild(cls, values: tuple) -> Frozen:
    self = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(self, name, value)
    return self
