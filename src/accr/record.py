"""Immutable record classes whose methods are written out, not generated.

A subclass names its fields in `__slots__`.  `Record.__init__` sets them once,
in slot order, one positional argument each; a subclass that checks its fields
or gives them defaults passes them on to it.  After that, assigning or deleting
an attribute raises AttributeError.  Unlike `@dataclass(frozen=True)`, which
generates and compiles each class's methods when its module is imported,
defining such a class costs no more than any other class statement.
"""
from __future__ import annotations

from operator import attrgetter

__all__ = ["Record", "Value"]


class Record:
    """An immutable object whose fields are its `__slots__`, set in that order."""

    __slots__ = ()
    _unshown: tuple[str, ...] = ()  # fields that repr leaves out

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, not {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} field {name!r} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} field {name!r} is read-only")

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._unshown)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):  # copy and pickle call __init__ again, which sets the fields
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Value(Record):
    """A Record equal to one of the same class with equal fields, and hashed by them."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields as a tuple, a lone field as itself; being no descriptor, it is called as self._key(self)
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.__class__, self._key(self)))
