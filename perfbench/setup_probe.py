"""Set-up probe: what a fresh interpreter pays before its first P-192 result.

    python setup_probe.py keygen SEED
    python setup_probe.py varbase QX QY K        (hex)

Run with ``src`` on PYTHONPATH.  Times ``import ecpf``, the bundled-curve
load and the first operation, so a lazily built cache or table shows up
here; prints the seconds on the first line and the operation's output after.
"""

import random
import sys
from time import perf_counter


def main(argv: list[str]) -> None:
    t0 = perf_counter()
    import ecpf
    from ecpf.cli import bundled_curve

    curve = bundled_curve("p192")
    if argv[0] == "keygen":
        pair = ecpf.generate_keypair(curve, randbits=random.Random(int(argv[1])).getrandbits)
        out = pair.serialize()
    else:
        x, y, k = (int(v, 16) for v in argv[1:])
        m = curve.modulus
        q = ecpf.AffinePoint(m.element(x), m.element(y))
        k = ecpf.MpInt(k, m.capacity)
        valid = ecpf.validate_public_key(q, curve)
        r = ecpf.ladder(k, q, curve)
        o = ecpf.double_and_add(k, q, curve)
        out = f"{valid}\n{ecpf.format_point(r, curve)}\n{ecpf.format_point(o, curve)}"
    elapsed = perf_counter() - t0
    print(elapsed)
    print(out)


if __name__ == "__main__":
    main(sys.argv[1:])
