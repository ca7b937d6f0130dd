"""Base of the value classes: each names its fields in ``__slots__`` and
sets them once in ``__init__`` through ``set_field``; the base refuses later
assignment and compares, hashes and prints by field."""

set_field = object.__setattr__  # bound once; bypasses Frozen.__setattr__


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which sets the slots
        return type(self), self._fields()
