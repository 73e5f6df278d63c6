"""The value layer: every exception class of the package, :func:`in_full`
and :func:`shown` for what messages and reprs quote, the field checks of
the input records, and :class:`Record`, the base of the value types."""

import operator
from decimal import Decimal
from fractions import Fraction


def in_full(n: int) -> str:
    """``str(n)`` without the int-to-str digit limit, which decimal does
    not apply."""
    return str(Decimal(n))


def shown(value) -> str:
    """``repr(value)``; where that raises on an integer past the int-to-str
    digit limit, the integers in full, in lists and tuples, and others by type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (list, tuple)):
            inner = ", ".join(map(shown, value)) + "," * (type(value) is tuple and len(value) == 1)
            return f"[{inner}]" if isinstance(value, list) else f"({inner})"
        return in_full(value) if isinstance(value, int) else f"<{type(value).__name__}>"


class SingLocusError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidValue(SingLocusError, ValueError):
    """An argument of the wrong type, shape or value."""


def integer(value) -> int:
    """``value`` as an exact ``int``; a bool is refused, not read as 0 or 1."""
    if type(value) is bool or not hasattr(value, "__index__"):
        raise InvalidValue(f"expected an integer, got {shown(value)}")
    return operator.index(value)


def items(value, count=None) -> tuple:
    """``value``, a list or tuple of ``count`` items when given, as a tuple."""
    if isinstance(value, (list, tuple)) and count in (None, len(value)):
        return tuple(value)
    raise InvalidValue(f"expected a list{f' of {count} items' if count else ''}, got {shown(value)}")


def integers(value) -> tuple[int, ...]:
    """``value``, a list or tuple of integers, as a tuple."""
    return tuple(map(integer, items(value)))


def pair(value) -> tuple[int, int]:
    """``value``, a list or tuple of two integers, as a tuple."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return integer(value[0]), integer(value[1])
    raise InvalidValue(f"expected a pair of integers, got {shown(value)}")


def nonzero(value, what: str) -> Fraction:
    """``value``, a nonzero ``int`` or ``Fraction``, as a ``Fraction``."""
    if type(value) is not Fraction and type(value) is not int:
        raise InvalidValue(f"{what} must be an int or Fraction, got {shown(value)}")
    if not value:
        raise InvalidValue(f"{what} must be nonzero")
    return value if type(value) is Fraction else Fraction(value)


def instance(value, cls):
    """``value``, refused unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise InvalidValue(f"expected a {cls.__name__}, got {shown(value)}")
    return value


_MISSING = object()
# Fields are set with object.__setattr__, as frozen dataclasses do: it keeps
# them in the instance's inline values, whereas filling self.__dict__ would
# make every later attribute read slower.
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class Record:
    """Base of the frozen value types.  They compare, hash and print by their
    fields (annotations in order, class attributes as defaults) as frozen
    dataclasses do, but print integers past the digit limit in full; nothing
    is compiled per class, which keeps the package's import cheap."""

    _fields = {}  # field name -> default, or _MISSING

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = {name: getattr(cls, name, _MISSING) for name in cls.__annotations__}

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
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={shown(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        return type(self)(*[changes.pop(name, getattr(self, name)) for name in self._fields], **changes)


class ParseError(SingLocusError):
    """Malformed JSON payloads (shape errors, bad rationals, ...)."""


class DisconnectedGraph(SingLocusError):
    """The operation requires a connected graph."""


class InvalidGraph(SingLocusError):
    """A graph failed validation; ``.report`` holds the violation list."""

    def __init__(self, report):
        self.report = list(report)
        super().__init__("invalid graph: " + "; ".join(self.report))


class NonOrientable(SingLocusError):
    """The ribbon structure has nontrivial w1; the twisted variant is not built."""


class GraphMismatch(SingLocusError):
    """Two diagrams do not share the same underlying graph."""


class TriangleConstraintViolated(SingLocusError):
    """A pants presentation whose triangle scalar products are not 1."""


class InvalidFan(SingLocusError):
    """A fan failed validation; ``.report`` holds the violation list."""

    def __init__(self, report):
        self.report = list(report)
        super().__init__("invalid fan: " + "; ".join(self.report))


class SplitStar(SingLocusError):
    """The star of a ray of a valid fan is not one cycle or one chain, so
    its divisor is not classified."""


class NotAWall(SingLocusError):
    """The given ray pair is not a 2-cone of the fan."""


class BoundaryWall(SingLocusError):
    """The wall lies in a single maximal cone; defect data is undefined.

    ``.cone`` holds the index of the unique adjacent maximal cone.
    """

    def __init__(self, wall, cone):
        self.wall = wall
        self.cone = cone
        super().__init__(
            f"wall {wall} lies only in maximal cone {cone}; "
            "no defect is defined on a boundary wall"
        )


class NegativeDefect(SingLocusError):
    """Pencil localization needs every edge defect to be >= 0."""
