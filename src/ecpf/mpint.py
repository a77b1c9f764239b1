"""Fixed-capacity unsigned multiprecision integers.

Values are immutable and bounded by a capacity; the constructor raises on
a negative value or one that exceeds the capacity, instead of wrapping.
``MpInt`` carries values for parsing, validation and output; it has no
arithmetic, because every layer above computes on whole ints (CPython's
built-in integer).  So no ``MpInt`` holds a product, and the capacity
(2*b bits plus one limb for a b-bit field) only bounds what the parsers
accept: scalars, seeds, n and h.
"""

from __future__ import annotations

from functools import total_ordering

from .errors import ParseError, RangeError

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")  # string.hexdigits
LIMB_BITS = 64


def capacity_for_bits(bits: int) -> int:
    """Capacity of parsed values in a ``bits``-bit field: 2*bits plus one limb."""
    return 2 * bits + LIMB_BITS


DEFAULT_CAPACITY = capacity_for_bits(192)  # headroom for a 192-bit field


class Frozen:
    """Base of the immutable value types: ``_bind`` alone binds each slot, once.

    ``domain.parse_curve_file``'s ``_validated`` is the one later write.  Equality
    (same class only), hashing and the default repr see ``_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]  # set by each subclass

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _bind(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setstate__(self, state):  # pickle and copy: state is (None, {slot: value})
        self._bind(*map(state[1].get, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


@total_ordering
class MpInt(Frozen):
    """An unsigned integer below ``2**capacity``, in canonical form.

    Equality, hashing and ordering see the value only, never the capacity.
    """

    __slots__ = ("value", "capacity")
    _fields = ("value",)

    def __init__(self, value: int, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise RangeError(f"capacity must be positive, got {capacity}")
        if value < 0:
            raise RangeError(f"negative value {value} for unsigned integer")
        if value.bit_length() > capacity:
            raise RangeError(
                f"value of {value.bit_length()} bits exceeds capacity {capacity}"
            )
        self._bind(value, capacity)

    @classmethod
    def from_hex(cls, text: str, capacity: int = DEFAULT_CAPACITY) -> "MpInt":
        """Parse big-endian hex (case-insensitive, no prefix or separators)."""
        if not text:
            raise ParseError("empty hex string")
        for ch in text:
            if ch not in _HEX_DIGITS:
                raise ParseError(f"invalid hex character {ch!r}")
        return cls(int(text, 16), capacity)

    def to_hex(self, width: int) -> str:
        """Lowercase big-endian hex, left-padded with zeros to ``width`` digits."""
        digits = max(1, -(-self.value.bit_length() // 4))
        if width < digits:
            raise RangeError(f"width {width} below {digits} significant digits")
        return format(self.value, f"0{width}x")

    def bit_length(self) -> int:
        """Index of the highest set bit plus one; 0 for the value 0."""
        return self.value.bit_length()

    def compare(self, other: "MpInt") -> int:
        """-1, 0, or 1 as self is less than, equal to, or greater than other."""
        return (self.value > other.value) - (self.value < other.value)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value < other.value

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"MpInt(0x{self.value:x}, capacity={self.capacity})"
