"""Frozen value records: the one base class of the package's value types.

A subclass's fields are its own annotations in order, and class
attributes are their defaults.  Records compare, hash and print by their
fields as frozen dataclasses do, and :meth:`Record.replace` rebuilds one
through ``__init__``, so its ``__post_init__`` checks run again.
``class C(Record, uncompared=("x",))`` leaves field ``x`` out of equality
and hashing.  Nothing is compiled per class, which keeps the package's
import cheap.
"""

_MISSING = object()
# Fields are set with object.__setattr__, as frozen dataclasses do: it keeps
# them in the instance's inline values, whereas filling self.__dict__ would
# make every later attribute read slower.
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class Record:
    _fields = {}  # field name -> default, or _MISSING
    _compared = ()  # the fields that equality and hashing read

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = {name: getattr(cls, name, _MISSING) for name in cls.__annotations__}
        cls._compared = tuple(name for name in cls._fields if name not in uncompared)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    def _arguments(self, args, kwargs):
        """Every field's value, in order, for a call with keywords or defaults."""
        fields, name = self._fields, type(self).__name__
        given = dict(zip(fields, args), **kwargs)
        values = {**fields, **given}
        if len(given) < len(args) + len(kwargs) or len(values) > len(fields):
            raise TypeError(f"{name}() got too many, unknown or repeated arguments")
        if len(given) < len(fields):
            missing = [field for field, value in values.items() if value is _MISSING]
            if missing:
                raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return values.values()

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        return type(self)(*[changes.pop(name, getattr(self, name)) for name in self._fields], **changes)
