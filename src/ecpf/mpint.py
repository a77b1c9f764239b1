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

from dataclasses import dataclass, field
from string import hexdigits

from .errors import ParseError, RangeError

LIMB_BITS = 64

#: Headroom for a 192-bit field: 2 * 192 + one limb.
DEFAULT_CAPACITY = 2 * 192 + LIMB_BITS


def capacity_for_bits(bits: int) -> int:
    """Capacity of parsed values in a ``bits``-bit field: 2*bits plus one limb."""
    return 2 * bits + LIMB_BITS


@dataclass(frozen=True, order=True, slots=True)
class MpInt:
    """An unsigned integer below ``2**capacity``, in canonical form.

    Equality, hashing and ordering see the value only, never the capacity.
    """

    value: int
    capacity: int = field(default=DEFAULT_CAPACITY, compare=False)

    def __post_init__(self):
        value, capacity = self.value, self.capacity
        if capacity < 1:
            raise RangeError(f"capacity must be positive, got {capacity}")
        if value < 0:
            raise RangeError(f"negative value {value} for unsigned integer")
        if value.bit_length() > capacity:
            raise RangeError(
                f"value of {value.bit_length()} bits exceeds capacity {capacity}"
            )

    @classmethod
    def from_hex(cls, text: str, capacity: int = DEFAULT_CAPACITY) -> "MpInt":
        """Parse big-endian hex (case-insensitive, no prefix or separators)."""
        if not text:
            raise ParseError("empty hex string")
        for ch in text:
            if ch not in hexdigits:
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
        if self.value < other.value:
            return -1
        if self.value > other.value:
            return 1
        return 0

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"MpInt(0x{self.value:x}, capacity={self.capacity})"
