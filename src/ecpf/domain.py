"""Curve domains: loading and validating (p, a, b, G, n, h).

A curve comes from a key=value file, a user's or one in ``curves/`` beside
this module, read by ``load_curve_file`` and validated once, on load, with
checks from SEC 1 v2 section 3.1.1.2.1: ``CurveParams`` makes its structural
checks, and this module adds those that need primality tests, a scalar
multiplication or the Hasse bound.  It sits above ``scalar_mul`` so that it
can run the n*G ladder without an import cycle.  Shipped curves are cached
per process; curve files are read on every call, because a file can change.
``format_curve_file`` writes the same format back.
"""

import os
from functools import cache

from .curve import CurveParams
from .errors import Error, FormatError, ParseError, RangeError, UsageError, ValidationError
from .field import Modulus
from .mpint import MpInt
from .scalar_mul import ladder

BUNDLED_CURVES = ("p192", "smoke17")

_REQUIRED_KEYS = ("name", "p", "a", "b", "gx", "gy", "n", "h")

# Read as ASCII with newline="", one character is one byte.
_MAX_CURVE_FILE = 65536  # the shipped curves are 382 and 110 bytes

# Bounds the cost of Miller-Rabin on p and of the n*G ladder on load.
_MAX_P_BITS = 1024

# Fixed Miller-Rabin bases: deterministic below 3.3e24 (psi_13), strong evidence above.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def parse_curve_file(text: str) -> CurveParams:
    """Parse and validate the key=value curve description format.

    Required keys, each exactly once: name, p, a, b, gx, gy, n, h.  Numeric
    values are unprefixed hex; lines starting with '#' and blank lines are
    ignored; keys are case-sensitive and order-free.

    This is the one place where curve-domain validity is decided, for
    bundled curves and curve files alike: beyond the structural checks of
    ``CurveParams``, p and n must be probable primes, n*G must be O, n must
    differ from p and exceed 4*sqrt(p), and h*n must lie in the Hasse
    interval.  Together these make d*G finite for every d in [1, n-1] and
    prove #E = h*n, which the returned curve records as ``_validated``.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"line {lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        if key not in _REQUIRED_KEYS:
            raise FormatError(f"line {lineno}: unknown key {key}")
        if key in entries:
            raise FormatError(f"duplicate key {key}")
        entries[key] = (value, lineno)
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise FormatError(f"missing key {key}")

    name = entries["name"][0]
    if not name:
        raise FormatError("empty curve name")

    def numeric(key: str, capacity: int) -> MpInt:
        value, lineno = entries[key]
        try:
            return MpInt.from_hex(value, capacity)
        except (ParseError, RangeError) as exc:  # bad hex, or past the capacity
            raise type(exc)(f"line {lineno}: {key}: {exc}") from None

    # p sizes its own capacity; everything else lives in p's context.
    p_text = entries["p"][0]
    modulus = Modulus(numeric("p", max(4 * len(p_text), 8)))
    if modulus.bits > _MAX_P_BITS:
        raise ValidationError(f"p is larger than {_MAX_P_BITS} bits")

    p, ints = modulus.p.value, []
    for key in _REQUIRED_KEYS[2:]:  # a, b, gx, gy, n, h
        value = numeric(key, modulus.capacity).value
        if key not in ("n", "h") and value >= p:
            raise ValidationError(f"{key} is not a canonical residue")
        ints.append(value)
    params = CurveParams.from_ints(name, p, *ints)
    n, h = ints[-2:]
    if not _is_probable_prime(p):
        raise ValidationError("p is not prime")
    if not _is_probable_prime(n):
        raise ValidationError("n is not prime")
    if not ladder(params.n, params.g, params).is_infinity:
        raise ValidationError("n*G is not the identity")
    if n == p:
        raise ValidationError("n equals p")
    if n * n <= 16 * p:
        raise ValidationError("n is not larger than 4*sqrt(p)")
    if (h * n - p - 1) ** 2 > 4 * p:
        raise ValidationError("h*n is outside the Hasse interval")
    # These imply SEC 1's h = floor((sqrt(p)+1)**2/n): h*n <= p+1+2sqrt(p) < (h+1)*n.
    # And n | #E (n*G = O), so #E = h*n: a Hasse interval, 4sqrt(p) < n long, has one.
    object.__setattr__(params, "_validated", True)
    return params


def format_curve_file(curve: CurveParams) -> str:
    """Inverse of ``parse_curve_file``: each key in order, ints in ``Modulus.hex``."""
    m, g = curve.modulus, curve.g
    ints = (m.p, curve.a.value, curve.b.value, g.x.value, g.y.value, curve.n, curve.h)
    values = (curve.name, *map(m.hex, ints))
    return "".join(f"{k}={v}\n" for k, v in zip(_REQUIRED_KEYS, values, strict=True))


def load_curve_file(path: str) -> CurveParams:
    try:
        with open(path, encoding="ascii", newline="") as handle:
            text = handle.read(_MAX_CURVE_FILE + 1)
    except UnicodeDecodeError:
        raise FormatError("curve file is not ASCII text") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot read curve file: {exc}") from None
    if len(text) > _MAX_CURVE_FILE:
        raise FormatError(f"curve file is larger than {_MAX_CURVE_FILE} bytes")
    return parse_curve_file(text)


@cache
def bundled_curve(name: str) -> CurveParams:
    """A shipped curve: its file beside this module, loaded once per process."""
    if name not in BUNDLED_CURVES:
        raise ValidationError(f"no bundled curve named {name!r}")
    path = os.path.join(os.path.dirname(__file__), "curves", f"{name}.curve")
    try:
        return load_curve_file(path)
    except UsageError as exc:  # not the user's argv: the installation is broken
        raise Error(str(exc)) from None


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
