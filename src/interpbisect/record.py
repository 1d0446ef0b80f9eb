"""The frozen record base of the package's value classes.

A record's fields are its classes' ``__slots__`` not starting with
``_``, in order; its ``__init__`` sets them with :data:`init_field`, as
assignment and deletion raise AttributeError.  Equality (type-sensitive),
hashing and ``repr`` are those of ``dataclass(frozen=True)``, without
its per-class code generation at import, and pickles and copies rebuild
a record from its fields.  ``dataclasses.replace`` and ``fields`` still
work: ``perfbench/selftest.py`` replaces fields of traces and certificates.
"""

import sys

init_field = object.__setattr__


class _Field:
    """A field as ``dataclasses.replace``, ``fields`` and ``asdict`` read it."""

    init = True
    # Read only by those functions, so dataclasses is loaded by then.
    _field_type = property(lambda self: sys.modules["dataclasses"]._FIELD)

    def __init__(self, name: str):
        self.name = name


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        slots = (name for k in reversed(cls.__mro__) for name in k.__dict__.get("__slots__", ()))
        cls._fields = tuple(name for name in slots if name[0] != "_")
        cls.__dataclass_fields__ = {name: _Field(name) for name in cls._fields}

    def _init(self, *values) -> None:
        """Set the fields in order; for an ``__init__`` off the hot paths."""
        for name, value in zip(self._fields, values):
            init_field(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
