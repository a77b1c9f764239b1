"""ecpf benchmark: three closed-loop workloads with reference-checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``.  One
caller keeps one operation in flight: the next starts when the last returns.
With ``--trace 0`` the run measures for ``--seconds`` (at least MIN_OPS ops,
ending on a whole seeded round of op kinds) and reports the end-to-end
metrics, with times scaled to a reference machine speed (see ``Speed``).
With ``--trace 1`` it runs a fixed seeded op list in-process twice,
untraced and then traced, and reports the traced pass's per-layer metrics,
so two traced runs of one seed give identical counts.  Every output
is checked against ``reference.py`` after the timing ends.  The last line of
stdout is the JSON result; README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import deque
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference as ref
from reference import P192, SMOKE17
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100  # so that p90 has at least ten samples above it
WINDOWS = 10  # of the timed section; each also yields one set-up sample
CHECK_BATCH = 240
KERNEL_EVERY_S = 0.05
CALIBRATION_S = 1.5e-3  # the kernel's median on the 2-vCPU machine this was sized on
STARTUP_REPS = 5
CHILD_TIMEOUT_S = 60
ERROR_LINE = re.compile(rb"error: [^\n]+\n")

ecpf = None  # main() imports the package from SRC once it knows SRC holds it


def python(*args: str) -> subprocess.CompletedProcess:
    """A child interpreter that imports ecpf from SRC."""
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=CHILD_TIMEOUT_S)


def vm_hwm_mb() -> float:
    """This process's peak RSS since its exec.

    Unlike ``ru_maxrss``, VmHWM does not start from the resident size of
    the process that spawned this one.
    """
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:"))) / 1024


@contextmanager
def _replaced(owner, attr: str, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


def xy(point):
    """A library AffinePoint as the reference's plain form."""
    return None if point.is_infinity else (point.x.value.value, point.y.value.value)


def setup_probe(args: list[str], expected: str) -> tuple[float, bool]:
    """One fresh-interpreter set-up; the probe's own timing when it succeeds."""
    t0 = perf_counter()
    out = python(str(HERE / "setup_probe.py"), *args)
    elapsed = perf_counter() - t0
    first, _, rest = out.stdout.decode().partition("\n")
    ok = out.returncode == 0 and rest == expected
    return (float(first) if ok else elapsed), ok


class Workload:
    """Defaults for a workload whose ops call the library in this process.

    A workload makes op i's input with ``prepare(i)`` (untimed), runs it
    with ``call`` (timed), and after the timing checks a batch of outputs
    with ``check``; ``start`` rewinds its seeded streams.
    """

    cycle = 1  # ops per seeded round; timed runs end on a whole round
    draws = 0  # entropy draws during the last in-process pass

    def inprocess(self):
        """Context for the in-process passes of a traced run."""
        return nullcontext()

    def call_inprocess(self, x):
        return self.call(x)

    def plain(self, out):
        return out

    def peak_rss_mb(self) -> tuple[float, bool]:
        return vm_hwm_mb(), True


class KeygenP192(Workload):
    """A library caller generating P-192 keypairs; the curve loads once."""

    trace_ops = 30

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.curve = ecpf.cli.bundled_curve("p192")
        self.table = ref.Multiples(P192.g, P192)

    def start(self) -> None:
        rng = random.Random(self.seed)
        self.ref_rng = random.Random(self.seed)

        def randbits(bits: int) -> int:
            self.draws += 1
            return rng.getrandbits(bits)

        self.draws = 0
        self.randbits = randbits

    def prepare(self, i: int):
        return None

    def call(self, _):
        return ecpf.generate_keypair(self.curve, randbits=self.randbits)

    def plain(self, pair):
        return (pair.d.value, xy(pair.q))

    def check(self, inputs, plains) -> list[bool]:
        ok = []
        for got in plains:
            d = ref.sampled_private(self.ref_rng.getrandbits, P192)
            ok.append(got == (d, self.table.mul(d)))
        return ok

    def setup_once(self) -> tuple[float, bool]:
        d = ref.sampled_private(random.Random(self.seed).getrandbits, P192)
        return setup_probe(["keygen", str(self.seed)],
                           ref.keypair_lines(d, self.table.mul(d), P192))


EDGE_SCALARS = (0, 1, 2, P192.n - 1, P192.n, P192.n + 1, 2**191, 2**192 - 1)


class VarbaseP192(Workload):
    """Peer-key traffic: validate Q, then ladder(k, Q) and the oracle.

    Q comes from a seeded pool of random multiples of G.  Every eighth op
    takes the next edge scalar of a seeded shuffle of EDGE_SCALARS, so each
    run meets the infinity, P = Q and P = -Q branches in the same share.
    """

    cycle = 8
    trace_ops = 16
    pool_size = 32

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.curve = ecpf.cli.bundled_curve("p192")
        rng = random.Random(seed)
        g = ref.Multiples(P192.g, P192)
        self.pool = [g.mul(rng.randrange(2, P192.n - 1)) for _ in range(self.pool_size)]
        m = self.curve.modulus
        self.points = [ecpf.AffinePoint(m.element(x), m.element(y)) for x, y in self.pool]
        # Built before the timing, so the reference's share of peak RSS is fixed.
        self.tables = [ref.Multiples(q, P192) for q in self.pool]
        self.valid = [ref.on_curve(q, P192) and t.mul(P192.n) is None
                      for q, t in zip(self.pool, self.tables)]
        self.start()
        self.probe = self.prepare(0)[:2]

    def start(self) -> None:
        self.rng = random.Random(f"varbase-ops-{self.seed}")
        self.edges = []

    def prepare(self, i: int):
        j = self.rng.randrange(self.pool_size)
        if i % self.cycle == self.cycle - 1:
            if not self.edges:
                self.edges = self.rng.sample(EDGE_SCALARS, len(EDGE_SCALARS))
            k = self.edges.pop()
        else:
            k = self.rng.getrandbits(192)
        return j, k, ecpf.MpInt(k, self.curve.modulus.capacity)

    def call(self, x):
        j, _, k = x
        q, c = self.points[j], self.curve
        return ecpf.validate_public_key(q, c), ecpf.ladder(k, q, c), ecpf.double_and_add(k, q, c)

    def plain(self, out):
        valid, r, o = out
        return (valid, xy(r), xy(o))

    def expected(self, j: int, k: int):
        """The reference's (valid, k*Q, k*Q) for pool point j."""
        kq = self.tables[j].mul(k)
        return self.valid[j], kq, kq

    def check(self, inputs, plains) -> list[bool]:
        return [got == self.expected(j, k) for (j, k, _), got in zip(inputs, plains)]

    def setup_once(self) -> tuple[float, bool]:
        j, k = self.probe
        x, y = self.pool[j]
        valid, kq, _ = self.expected(j, k)
        r = ref.format_point(kq, P192)
        return setup_probe(["varbase", f"{x:x}", f"{y:x}", f"{k:x}"], f"{valid}\n{r}\n{r}\n")


class Case:
    """One CLI call and the reference's expectation for it.

    ``expect`` runs only when outputs are checked, after the timing; it
    returns the exit code and either the exact stdout or a predicate on it.
    """

    def __init__(self, kind: str, argv: list[str], expect):
        self.kind, self.argv, self.expect = kind, argv, expect

    def __repr__(self) -> str:
        return f"{self.kind}: {' '.join(self.argv)}"

    def verdict(self, result) -> bool:
        code, out, err = result
        exp_code, exp_out = self.expect()
        if code != exp_code or b"Traceback" in err:
            return False
        if exp_code:
            return out == b"" and ERROR_LINE.fullmatch(err) is not None
        if callable(exp_out):
            return err == b"" and exp_out(out)
        return err == b"" and out == exp_out.encode()


class CliMixed(Workload):
    """One ``python -m ecpf`` process at a time over a seeded argv mix.

    Each round runs every kind in KINDS once, in a seeded order, so all
    seeds see the same mix; runs end on a whole round.
    """

    trace_ops = 30  # two rounds

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = Path(workdir)
        rng = random.Random(seed)
        g = ref.Multiples(P192.g, P192)
        self.p192_points = [g.mul(rng.randrange(2, P192.n - 1)) for _ in range(16)]
        self.smoke_points = [None] + [
            (x, y) for x in range(SMOKE17.p) for y in range(SMOKE17.p)
            if ref.on_curve((x, y), SMOKE17)]
        self.tables = {}
        self.files = {}
        files = {"p192-copy": ref.curve_file_text(P192),
                 "defect-order": ref.curve_file_text(SMOKE17, n=0x1A)}
        for key in ("name", "p", "a", "b", "gx", "gy", "n", "h"):
            files[f"missing-{key}"] = ref.curve_file_text(SMOKE17, drop=key)
        for name, text in files.items():
            path = self.workdir / f"{name}.curve"
            path.write_text(text, encoding="ascii")
            self.files[name] = str(path)

    def start(self) -> None:
        self.rng = random.Random(f"cli-ops-{self.seed}")
        self.order = []

    def prepare(self, i: int) -> Case:
        if not self.order:
            self.order = self.rng.sample(KINDS, len(KINDS))
        return self.order.pop()(self)

    def call(self, case: Case):
        out = python("-m", "ecpf", *case.argv)
        return out.returncode, out.stdout, out.stderr

    def call_inprocess(self, case: Case):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = ecpf.cli.run(case.argv)
            except Exception as exc:  # an uncaught error, as the interpreter reports it
                code = 1
                print(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}",
                      file=sys.stderr)
        return code, out.getvalue().encode(), err.getvalue().encode()

    def inprocess(self):
        """Seeded OS entropy for in-process keygen, so traced counts repeat."""
        rng = random.Random(f"cli-entropy-{self.seed}")

        def randbits(bits: int) -> int:
            self.draws += 1
            return rng.getrandbits(bits)

        self.draws = 0
        return _replaced(ecpf.keygen, "secrets", SimpleNamespace(randbits=randbits))

    def check(self, inputs, plains) -> list[bool]:
        return [not isinstance(got, Exception) and case.verdict(got)
                for case, got in zip(inputs, plains)]

    def setup_once(self) -> tuple[float, bool]:
        """One excluded warm-up call: the headline `keygen --curve p192`."""
        seed = f"{random.Random(self.seed).getrandbits(64):x}"
        case = self.keygen(P192, seed)
        t0 = perf_counter()
        result = self.call(case)
        return perf_counter() - t0, case.verdict(result)

    def peak_rss_mb(self) -> tuple[float, bool]:
        """The largest peak RSS of one CLI call over a round of every op kind."""
        out = self.workdir / "vmhwm"
        peak, ok = 0, True
        self.start()
        for i in range(self.cycle):
            case = self.prepare(i)
            out.unlink(missing_ok=True)
            r = python(str(HERE / "peak_rss.py"), str(out), *case.argv)
            ok = ok and out.exists() and case.verdict((r.returncode, r.stdout, r.stderr))
            peak = max(peak, int(out.read_text()) if out.exists() else 0)
        return peak / 1024, ok

    def defect_probe(self) -> tuple[bool, str]:
        """ROADMAP item 4: a curve file whose n is not the order of G."""
        case = Case("defect-order", ["keygen", "--curve-file", self.files["defect-order"],
                                     "--seed", "12"], lambda: (2, None))
        code, out, err = self.call(case)
        last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return case.verdict((code, out, err)), f"exit {code}, stderr ends {last[0]!r}"

    # Reference helpers, used only while checking.
    def times(self, c: ref.Curve, k: int, P):
        key = (c.name, P)
        if key not in self.tables:
            self.tables[key] = ref.Multiples(P, c)
        return self.tables[key].mul(k)

    def keypair_ok(self, c: ref.Curve):
        w = c.width
        shape = re.compile(
            rf"private=([0-9a-f]{{{w}}})\npublic=([0-9a-f]{{{w}}}),([0-9a-f]{{{w}}})\n")

        def ok(stdout: bytes) -> bool:
            m = shape.fullmatch(stdout.decode(errors="replace"))
            if m is None:
                return False
            d, x, y = (int(v, 16) for v in m.groups())
            return 1 <= d < c.n and (x, y) == self.times(c, d, c.g)

        return ok

    # The op kinds.  Each returns a Case built from this workload's rng.
    def keygen(self, c: ref.Curve, seed: str | None, curve_args=None) -> Case:
        argv = ["keygen", *(curve_args or ["--curve", c.name])]
        if seed is None:
            return Case(f"keygen-{c.name}-random", argv, lambda: (0, self.keypair_ok(c)))

        def expect():
            d = ref.seeded_private(seed, c)
            return 0, ref.keypair_lines(d, self.times(c, d, c.g), c)

        return Case(f"keygen-{c.name}-seed", argv + ["--seed", seed], expect)

    def seed_hex(self) -> str:
        return f"{self.rng.getrandbits(64):x}"

    def p192_point(self):
        return self.rng.choice(self.p192_points)

    def kind_keygen_p192_seed(self):
        return self.keygen(P192, self.seed_hex())

    def kind_keygen_p192_random(self):
        return self.keygen(P192, None)

    def kind_keygen_smoke17_seed(self):
        return self.keygen(SMOKE17, self.seed_hex())

    def kind_keygen_smoke17_random(self):
        return self.keygen(SMOKE17, None)

    def kind_curve_file_keygen(self):
        return self.keygen(P192, self.seed_hex(), ["--curve-file", self.files["p192-copy"]])

    def kind_mul(self):
        P, k = self.p192_point(), self.rng.getrandbits(192)
        argv = ["mul", "--curve", "p192", "--scalar", f"{k:x}",
                "--point", ref.format_point(P, P192)]
        return Case("mul", argv, lambda: (0, ref.format_point(self.times(P192, k, P), P192) + "\n"))

    def kind_add(self):
        P = self.p192_point()
        Q = self.rng.choice([self.p192_point(), P, ref.neg(P, P192), None])
        argv = ["add", "--curve", "p192", "--p1", ref.format_point(P, P192),
                "--p2", ref.format_point(Q, P192)]
        return Case("add", argv, lambda: (0, ref.format_point(ref.add(P, Q, P192), P192) + "\n"))

    def kind_double(self):
        P = self.p192_point()
        argv = ["double", "--curve", "p192", "--point", ref.format_point(P, P192)]
        return Case("double", argv, lambda: (0, ref.format_point(ref.add(P, P, P192), P192) + "\n"))

    def kind_negate(self):
        P = self.rng.choice(self.smoke_points)
        argv = ["negate", "--curve", "smoke17", "--point", ref.format_point(P, SMOKE17)]
        return Case("negate", argv,
                    lambda: (0, ref.format_point(ref.neg(P, SMOKE17), SMOKE17) + "\n"))

    def kind_check_curve(self):
        return Case("check-curve", ["check", "--curve", "p192"], lambda: (0, "ok\n"))

    def kind_check_point(self):
        P = self.p192_point()
        return Case("check-point", ["check", "--curve", "p192", "--point",
                                    ref.format_point(P, P192)], lambda: (0, "ok\n"))

    def kind_curve_info(self):
        return Case("curve-info", ["curve-info", "--curve", "p192"],
                    lambda: (0, ref.curve_info(P192)))

    def kind_bad_hex(self):
        digits = list(f"{self.rng.getrandbits(192):048x}")
        digits[self.rng.randrange(len(digits))] = self.rng.choice("ghijklmnopqrstuvwxyz")
        argv = ["mul", "--curve", "p192", "--scalar", "".join(digits), "--point", "gen"]
        return Case("bad-hex", argv, lambda: (2, None))

    def kind_off_curve(self):
        x, y = self.p192_point()
        bad = (x, (y + 1) % P192.p)
        command = self.rng.choice([["check"], ["negate"], ["double"], ["mul", "--scalar", "5"]])
        argv = [*command, "--curve", "p192", "--point", ref.format_point(bad, P192)]
        return Case("off-curve", argv, lambda: (2, None))

    def kind_missing_key(self):
        key = self.rng.choice(["name", "p", "a", "b", "gx", "gy", "n", "h"])
        argv = ["curve-info", "--curve-file", self.files[f"missing-{key}"]]
        return Case("missing-key", argv, lambda: (2, None))


KINDS = [getattr(CliMixed, name) for name in sorted(vars(CliMixed)) if name.startswith("kind_")]
CliMixed.cycle = len(KINDS)

WORKLOADS = {"keygen-p192": KeygenP192, "varbase-p192": VarbaseP192, "cli-mixed": CliMixed}


class Speed:
    """Machine speed, from a fixed calibration kernel timed between ops.

    The machines this runs on change speed by a third for seconds to
    minutes at a time, as other tenants come and go.  The kernel is pure
    Python big-int work from reference.py, like the program's, and slows
    with it; it is part of the benchmark, so no program change touches it.
    ``factor()`` is CALIBRATION_S over the median of the last five kernel
    times: a time multiplied by it reads as on a machine where the kernel
    takes CALIBRATION_S.
    """

    def __init__(self):
        self.recent = deque(maxlen=5)
        self.samples = []

    def sample(self) -> None:
        t0 = perf_counter()
        ref.Multiples(P192.g, P192, bits=48)
        dt = perf_counter() - t0
        self.recent.append(dt)
        self.samples.append(dt)

    def factor(self) -> float:
        return CALIBRATION_S / statistics.median(self.recent)


def timed_run(w, seconds: float, speed: Speed):
    """The closed loop of an end-to-end run.

    Timed work is the ops' own time.  The run ends once it reaches
    ``seconds``, at least MIN_OPS ops are done and the last round of op
    kinds is whole.  Each op's time is scaled by ``speed`` (sampled every
    KERNEL_EVERY_S of timed work) as it completes.  The timed work falls
    into WINDOWS equal windows, the last running on to the end; after each
    one the pending outputs are checked and one set-up is measured, so the
    set-up samples span the run.  Outputs are also checked every
    CHECK_BATCH ops, so the benchmark's own memory stays flat however many
    ops a faster program completes.  Returns unscaled and scaled per-op
    seconds, scaled ops per second of each window, failed ops, and set-up
    samples as (unscaled seconds, ok, scale factor).
    """
    w.start()
    raw, scaled = array("d"), array("d")
    inputs, outputs, rates, setups = [], [], [], []
    failed, spent, next_kernel = 0, 0.0, 0.0
    window = seconds / WINDOWS
    window_end, window_ops, window_time = window, 0, 0.0
    for _ in range(speed.recent.maxlen):
        speed.sample()
    while True:
        if spent >= next_kernel:
            speed.sample()
            next_kernel = spent + KERNEL_EVERY_S
        x = w.prepare(len(raw))
        t0 = perf_counter()
        try:
            y = w.call(x)
        except Exception as exc:  # a failed op; the check counts it
            y = exc
        dt = perf_counter() - t0
        spent += dt
        raw.append(dt)
        scaled.append(dt * speed.factor())
        inputs.append(x)
        outputs.append(y)
        window_ops += 1
        window_time += scaled[-1]
        done = spent >= seconds and len(raw) >= MIN_OPS and len(raw) % w.cycle == 0
        end_window = done or (spent >= window_end and len(rates) < WINDOWS - 1)
        if end_window or len(inputs) == CHECK_BATCH:
            failed += check(w, inputs, outputs)
            inputs, outputs = [], []
        if end_window:
            rates.append(window_ops / window_time)
            window_end, window_ops, window_time = spent + window, 0, 0.0
            speed.sample()
            factor = speed.factor()
            setups.append((*w.setup_once(), factor))
        if done:
            return raw, scaled, rates, failed, setups


def fixed_pass(w, inputs):
    """One in-process pass over a fixed op list; returns outputs and seconds."""
    w.start()
    outputs, times = [], []
    for x in inputs:
        t0 = perf_counter()
        try:
            y = w.call_inprocess(x)
        except Exception as exc:  # a failed op; the check counts it
            y = exc
        times.append(perf_counter() - t0)
        outputs.append(y)
    return outputs, sum(times)


def plains(w, outputs):
    return [out if isinstance(out, Exception) else w.plain(out) for out in outputs]


def check(w, inputs, outputs) -> int:
    """Number of ops whose output the reference rejects; each goes to stderr."""
    failed = 0
    for x, y, ok in zip(inputs, outputs, w.check(inputs, plains(w, outputs))):
        if not ok:
            failed += 1
            print(f"reference mismatch: input {x!r:.200} output {y!r:.200}", file=sys.stderr)
    return failed


def median_wall(*args: str, reps: int) -> float:
    """Median wall time of a child interpreter run with ``args``."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        python(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def end_to_end(w, args, context) -> dict:
    speed = Speed()
    raw, scaled, rates, failed, setups = timed_run(w, args.seconds, speed)
    rss_mb, rss_ok = w.peak_rss_mb()
    n = len(raw)

    def p90(times):
        return statistics.quantiles(times, n=10, method="inclusive")[8]

    context["samples"] = {"op": n, "window": len(rates), "setup": len(setups),
                          "calibration": len(speed.samples)}
    context["calibration_ms"] = statistics.median(speed.samples) * 1e3
    context["unscaled"] = {
        "setup_s": statistics.median(s for s, _, _ in setups),
        "ops_per_s": n / sum(raw),
        "op_ms_p50": statistics.median(raw) * 1e3,
        "op_ms_p90": p90(raw) * 1e3,
    }
    if isinstance(w, CliMixed):
        ok, detail = w.defect_probe()
        context["known_defect_item4"] = ("pass" if ok else "FAIL") + f" ({detail})"
    metrics = {
        "setup_s": (statistics.median(s * f for s, _, f in setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "op_ms_p90": (p90(scaled) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {"correct": failed == 0 and rss_ok and all(ok for _, ok, _ in setups),
            "attempted": n, "failed": failed, "metrics": metrics}


def traced(w, args, context) -> dict:
    n = w.trace_ops
    w.start()
    inputs = [w.prepare(i) for i in range(n)]
    with w.inprocess():
        untraced_out, untraced_s = fixed_pass(w, inputs)
    failed = check(w, inputs, untraced_out)
    tracer = Tracer()
    with w.inprocess(), tracer:
        traced_out, traced_s = fixed_pass(w, inputs)
    draws = w.draws
    failed += check(w, inputs, traced_out)
    same = plains(w, untraced_out) == plains(w, traced_out)
    import_s = (median_wall("-c", "import ecpf.cli", reps=STARTUP_REPS)
                - median_wall("-c", "pass", reps=STARTUP_REPS))
    metrics = layer_metrics(tracer, n, draws)
    metrics["cli.import_ms"] = (import_s * 1e3, "ms")
    metrics["trace.untraced_ops_per_s"] = (n / untraced_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (n / traced_s, "1/s")
    metrics["trace.overhead_x"] = (traced_s / untraced_s, "x")
    context["samples"] = {"op": n, "traced_op": n}
    context["traced_outputs_equal_untraced"] = same
    return {"correct": failed == 0 and same, "attempted": 2 * n, "failed": failed,
            "metrics": metrics}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT,
                         text=True, timeout=CHILD_TIMEOUT_S)
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ecpf" / "__init__.py").is_file():
        print(f"error: no ecpf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global ecpf
    import ecpf
    import ecpf.cli

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "python_startup_ms": median_wall("-c", "pass", reps=STARTUP_REPS) * 1e3,
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        w = WORKLOADS[args.workload](args.seed, workdir)
        result = (traced if args.trace else end_to_end)(w, args, context)

    print("context: " + json.dumps(context))
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:>13} {name:<30} {value:>14.6g} {unit}")
    print(f"{args.workload:>13} {'fail_ratio':<30} {result['failed'] / result['attempted']:>14.6g}"
          f" ratio ({result['failed']}/{result['attempted']})")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
