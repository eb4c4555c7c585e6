"""The frozen value classes' shared behaviour.

A value class lists its public fields in ``_fields`` and keeps them, with
any private caches, in ``__slots__``.  Its ``__init__`` validates and then
stores each field with ``object.__setattr__``; after that every assignment
raises AttributeError.  ``repr`` shows ``_fields``; ``==`` and ``hash``
compare the tuple ``_key`` returns, all fields unless a class leaves
some out.
"""


class Value:
    __slots__ = ()
    _fields = ()

    def _assign(self, *values):
        """Store ``values`` as the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        """A copy with some fields changed, built through ``__init__``."""
        return type(self)(*(changes.get(f, getattr(self, f)) for f in self._fields))

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not by assigning slots
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
