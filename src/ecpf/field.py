"""Arithmetic in the prime field GF(p).

A ``Modulus`` is a read-only context carrying the prime and its cached bit
length; a ``FieldElement`` is a canonical residue in ``[0, p)`` bound to its
context.  Mixing elements from different contexts is a hard error, never a
silent re-reduction.  Inversion uses the extended Euclidean algorithm; the
reduction after products is generic division, which measured faster in
CPython than a fold exploiting the shape of the 192-bit NIST prime.
"""

from .errors import ContextError, NoInverseError, RangeError
from .mpint import Frozen, MpInt, capacity_for_bits

#: The NIST 192-bit prime, 2**192 - 2**64 - 1.
P192 = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF


class Modulus(Frozen):
    """A prime modulus context, shareable and immutable.

    Derived once: ``capacity``, of the values parsed in this field (scalars,
    seeds, n and h), and ``hex_width``, of its serialized elements.
    """

    __slots__ = ("p", "bits", "capacity", "hex_width")
    _fields = ("p", "bits")

    def __init__(self, p: MpInt):
        if p.value < 2:
            raise RangeError(f"modulus must be at least 2, got {p.value}")
        bits = p.bit_length()
        self._bind(p, bits, capacity_for_bits(bits), -(-bits // 4))

    @classmethod
    def from_int(cls, p: int) -> "Modulus":
        return cls(MpInt(p, capacity_for_bits(p.bit_length())))

    def hex(self, value: MpInt) -> str:
        """Lowercase hex, zero-padded to at least ``hex_width`` digits, never cut."""
        return format(value.value, f"0{self.hex_width}x")

    def element(self, value: int) -> "FieldElement":
        """The residue of any int modulo p, as an element."""
        return FieldElement(MpInt(value % self.p.value, self.capacity), self)


class FieldElement(Frozen):
    """A canonical residue in [0, p) attached to its modulus context.

    Instances are immutable.  The arithmetic operators implement the field
    operations: +, -, * modulo p; unary - is the additive inverse;
    ``inverse`` the multiplicative one.  Each computes its result as a
    plain int and hands it to ``Modulus.element``, the one place where a
    residue is reduced and wrapped.
    """

    __slots__ = _fields = ("value", "modulus")

    def __init__(self, value: MpInt, modulus: Modulus):
        residue, p = value.value, modulus.p.value
        if residue >= p:
            raise RangeError(f"residue {residue} not canonical below {p}")
        self._bind(value, modulus)

    @property
    def is_zero(self) -> bool:
        return self.value.value == 0

    def _require_same(self, other: "FieldElement") -> None:
        if self.modulus is not other.modulus and self.modulus != other.modulus:
            raise ContextError("operands belong to different modulus contexts")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._require_same(other)
        return self.modulus.element(self.value.value + other.value.value)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._require_same(other)
        return self.modulus.element(self.value.value - other.value.value)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._require_same(other)
        return self.modulus.element(self.value.value * other.value.value)

    def __neg__(self) -> "FieldElement":
        return self.modulus.element(-self.value.value)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        m = self.modulus
        return m.element(inverse_mod(self.value.value, m.p.value))

    def __repr__(self) -> str:
        return f"FieldElement({self.value.value} mod {self.modulus.p.value})"


def inverse_mod(value: int, p: int) -> int:
    """Plain-int inverse of a canonical residue; ``NoInverseError`` if none."""
    if value == 0:
        raise NoInverseError("zero has no multiplicative inverse")
    try:
        return pow(value, -1, p)
    except ValueError:
        raise NoInverseError(f"{value} shares a factor with the modulus") from None
