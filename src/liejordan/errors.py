"""Error types, the value base class and the limits shared across the package.

Input problems (bad types, malformed files, invalid coordinates) raise
plain ValueError subclasses; blown resource guards raise
ResourceGuardError subclasses so callers can tell "you asked for
something wrong" apart from "you asked for something too big".
DEFAULT_JORDAN_LIMIT, the largest finite-group order accepted unless the
caller raises it, sits beside OrderLimitError, the refusal it triggers,
so the CLI can state it without loading the finite-group strand.

Exact integers are kept with up to ten times as many decimal digits as
CPython's int->str limit (or its default, when the limit is off), and
printed with up to the limit itself; past either, ResourceGuardError.
User input is quoted in messages cut to its first 40 characters.

FrozenValue, the base of every value class, acts as a frozen dataclass over
the subclass's __slots__ without loading dataclasses, which costs more than
most CLI answers take.  Copy and pickle call the class on its shown fields,
its constructor's arguments, so its checks run again.
"""
from __future__ import annotations

import sys
from operator import attrgetter

_FORMED_PER_PRINTED = 10
_ECHO_CHARS = 40


class ResourceGuardError(RuntimeError):
    """A configurable size limit was exceeded; raise rather than grind."""


class RankBudgetError(ResourceGuardError):
    """Requested rank or enumeration cap is over the configured budget."""


class OrderLimitError(ResourceGuardError):
    """A finite group is larger than the configured order limit."""


DEFAULT_JORDAN_LIMIT = 200


class FrozenValue:
    """An immutable value whose fields are its class's __slots__, each set
    once by the subclass's __init__ through object.__setattr__.  As a
    frozen dataclass: the repr shows the shown fields by name, == compares
    the compared fields of two instances of one class (NotImplemented
    across classes), the hash is that of the compared fields' tuple, and
    setting or deleting an attribute raises AttributeError.  Both default
    to every slot; a subclass narrows them by class keywords, as in
    class Subgroup(FrozenValue, compared=("elements",)).  Copy and pickle
    call the class on the shown fields, which must be its arguments.
    """

    __slots__ = ()

    def __init_subclass__(cls, shown=None, compared=None):
        cls._shown = cls.__slots__ if shown is None else shown
        compared = cls._shown if compared is None else compared
        if len(compared) > 1:
            cls._key = staticmethod(attrgetter(*compared))
        elif compared:  # attrgetter of one name returns the bare value
            get = attrgetter(*compared)
            cls._key = staticmethod(lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._shown])


def _field_repr(value) -> str:
    """repr(value); a number past the int->str limit, or a tuple or list
    holding one, shows its start as _echo writes it instead."""
    try:
        return repr(value)
    except ValueError:
        return _echo(value)


def _field_echo(value) -> str:
    """_field_repr(value) cut to its first 40 characters, as _echo cuts."""
    text = _field_repr(value)
    return text[:_ECHO_CHARS] + ("..." if len(text) > _ECHO_CHARS else "")


def _digit_budget() -> int:
    """Most decimal digits an exact integer may print with."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _digits_from_bits(bits: int) -> int:
    """Decimal digits that every integer >= 2**bits has at least."""
    return bits * 30102 // 100000 + 1  # 0.30102 < log10(2)


def _refusal(digits: str, limit: int) -> ResourceGuardError:
    """The refusal of an exact value with at least digits (a count as _echo
    writes it, or a power such as '2^m') decimal digits, kept up to limit."""
    budget = _digit_budget()
    kept = "" if limit == budget else f"{limit}, {_FORMED_PER_PRINTED} times "
    return ResourceGuardError(
        f"the exact value has at least {digits} decimal digits, more than {kept}the "
        f"{budget} allowed by the int->str digit limit (raise it with PYTHONINTMAXSTRDIGITS)")


def _within(value: int, limit: int) -> int:
    """value, refused when it has more than limit decimal digits."""
    bits = value.bit_length() - 1  # value >= 2**bits; 8**limit < 10**limit < 2**(3.322 * limit)
    if bits >= 3 * limit and (1000 * bits >= 3322 * limit or value >= 10 ** limit):
        raise _refusal(_echo(max(limit + 1, _digits_from_bits(bits))), limit)
    return value


def _formed(bits_at_least: int, make) -> int:
    """make(), refused before it runs when a result of at least that many bits
    has more digits than exact values are kept with, and after if it has."""
    limit, digits = _FORMED_PER_PRINTED * _digit_budget(), _digits_from_bits(bits_at_least)
    if digits > limit:
        raise _refusal(_echo(digits), limit)
    return _within(make(), limit)


def _echo(value) -> str:
    """User input quoted in an error message, cut to its first 40 characters:
    a string by its repr, anything else as str() writes it."""
    if isinstance(value, str):
        text, shown = value, repr(value[:_ECHO_CHARS])
    else:
        text = _head(value)
        shown = text[:_ECHO_CHARS]
    return shown + ("..." if len(text) > _ECHO_CHARS else "")


def _head(value) -> str:
    """str(value), or a start of it longer than 40 characters: a tuple or
    list stops once that long, and an integer of more than 4 * 40 bits shows
    its leading digits, also as a fraction's numerator or denominator, so no
    integer past the int->str limit is converted."""
    if isinstance(value, (tuple, list)):
        parts, size = [], 0
        for x in value:
            if size > _ECHO_CHARS:
                break
            parts.append(_head(x))
            size += len(parts[-1]) + 2
        inner = ", ".join(parts)
        if isinstance(value, list):
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, int) and value.bit_length() > 4 * _ECHO_CHARS:
        cut = _digits_from_bits(value.bit_length() - 1) - _ECHO_CHARS - 1
        return ("-" if value < 0 else "") + str(abs(value) // 10 ** cut)
    if hasattr(value, "denominator") and not isinstance(value, int):  # a Fraction
        numerator = _head(value.numerator)
        return numerator if value.denominator == 1 else f"{numerator}/{_head(value.denominator)}"
    return str(value)
