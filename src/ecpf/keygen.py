"""Private-scalar generation and public-key derivation Q = d*G.

Random mode draws from the OS through ``random.SystemRandom``, the generator
behind ``secrets.randbits``, with rejection sampling: a uniform d in [1, n-1].
Deterministic mode maps a caller-supplied seed through (seed mod (n-1)) + 1;
it exists for reproducible tests only, is not uniform, and must never be
used for production keys.  Q = d*G comes from the ladder.  On a validated
curve, where n*G = O, it runs on the one k = d mod n in [2**L, 2**L + n),
L the bit length of n, so every key costs the same number of ladder steps.
"""

from random import SystemRandom
from types import SimpleNamespace

from .curve import AffinePoint, CurveParams, on_curve
from .errors import RandomnessError, RangeError, ValidationError
from .mpint import Frozen, MpInt
from .scalar_mul import ladder

# Rejection sampling accepts with probability above 1/2 per draw, so this
# bound is unreachable with a working entropy source.
_MAX_DRAWS = 4096

# secrets.randbits under its usual patch point; importing secrets would load OpenSSL.
secrets = SimpleNamespace(randbits=SystemRandom().getrandbits)


class KeyPair(Frozen):
    """A private scalar d in [1, n-1] with its public point Q = d*G."""

    __slots__ = _fields = ("d", "q", "curve_name")

    def __init__(self, d: MpInt, q: AffinePoint, curve_name: str):
        self._bind(d, q, curve_name)

    def serialize(self) -> str:
        """Two lines, "private=<hex>" and "public=<x-hex>,<y-hex>".

        Each value is written by ``Modulus.hex``: at least the field's hex
        width, and wider for a d that needs more digits (n may exceed p).
        """
        m = self.q.x.modulus
        x, y = m.hex(self.q.x.value), m.hex(self.q.y.value)
        return f"private={m.hex(self.d)}\npublic={x},{y}"


def random_scalar(n: MpInt, *, seed: int | MpInt | None = None, randbits=None) -> MpInt:
    """Draw a private scalar d in [1, n-1].

    With ``seed`` given, returns (seed mod (n-1)) + 1 deterministically.
    Otherwise draws bit_length(n) bits per attempt, rejecting 0 and values
    at or above n.  ``randbits`` defaults to the OS source and is injectable
    for tests.
    """
    if n.value < 2:
        raise RangeError(f"order must be at least 2, got {n.value}")
    if seed is not None:
        d = int(seed) % (n.value - 1) + 1
        return MpInt(d, n.capacity)
    randbits = randbits or secrets.randbits
    bits = n.bit_length()
    for _ in range(_MAX_DRAWS):
        try:
            d = randbits(bits)
        except Exception as exc:
            raise RandomnessError("entropy source failed") from exc
        if 0 < d < n.value:
            return MpInt(d, n.capacity)
    raise RandomnessError("rejection sampling produced no acceptable value")


def generate_keypair(
    curve: CurveParams, *, seed: int | MpInt | None = None, randbits=None
) -> KeyPair:
    """Generate d and derive Q = d*G; ``ValidationError`` if Q is O.

    Only on a validated curve, where n*G = O, is the scalar padded.
    """
    d = random_scalar(curve.n, seed=seed, randbits=randbits)
    k = d
    if curve._validated:
        top = 1 << curve.n.bit_length()
        k = MpInt(top + (d.value - top) % curve.n.value, d.capacity)
    q = ladder(k, curve.g, curve)
    if q.is_infinity:
        raise ValidationError("d*G is the identity, so n is not the order of G")
    return KeyPair(d=d, q=q, curve_name=curve.name)


def validate_public_key(q: AffinePoint, curve: CurveParams) -> bool:
    """True iff Q is finite, on the curve, and killed by the group order.

    On a curve that passed ``domain.parse_curve_file`` with h = 1, #E = n,
    so every finite point on it has order n and the n*Q ladder is skipped.
    That rests on p and n being prime, which the validator decides with
    Miller-Rabin on 13 fixed bases: a proof below 3.3e24, strong evidence
    above.  The curve is trusted input; Q is the untrusted one.
    """
    if q.is_infinity or not on_curve(q, curve):
        return False
    if curve._validated and curve.h.value == 1:
        return True
    return ladder(curve.n, q, curve).is_infinity
