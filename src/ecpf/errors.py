"""Exception hierarchy shared by all ecpf modules."""


class Error(Exception):
    """Base class for every error raised by this package."""


class ParseError(Error):
    """Text input is not valid hex / not in the expected format."""


class RangeError(Error):
    """A value does not fit its fixed capacity, width, or index range."""


class ContextError(Error):
    """Operands belong to different modulus or curve contexts."""


class NoInverseError(Error):
    """The element has no multiplicative inverse (zero residue)."""


class DomainError(Error):
    """A point operand does not lie on the curve it is used with."""


class FormatError(Error):
    """A curve file violates the key=value format contract."""


class ValidationError(Error):
    """Curve or point parameters violate a structural invariant."""


class RandomnessError(Error):
    """The entropy source failed or produced no acceptable value."""


class UsageError(Error):
    """Command line invocation is structurally invalid."""
