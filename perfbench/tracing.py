"""Per-layer tracing by wrapping ecpf's public functions from outside.

The library is not edited.  ``Tracer.install`` replaces each traced function
at every place the name is bound -- its defining module and every ``ecpf``
module that imported it with ``from .x import f`` -- and wraps the
``MpInt``/``FieldElement`` methods on the class; ``restore`` puts the
originals back.  Spans are kept in memory: per name a call count and total
inclusive time, per layer the self time (span time minus the time of spans
nested inside it).  ``MpInt`` construction is counted but not timed, so its
cost shows in the self time of the layer that constructs.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, function) -> layer; every one gets a timed span.
FUNCTIONS = {
    ("ecpf.curve", "point_add"): "curve",
    ("ecpf.curve", "point_double"): "curve",
    ("ecpf.curve", "on_curve"): "curve",
    ("ecpf.curve", "negate"): "curve",
    ("ecpf.curve", "parse_point"): "curve",
    ("ecpf.curve", "format_point"): "curve",
    ("ecpf.scalar_mul", "ladder"): "scalar_mul",
    ("ecpf.scalar_mul", "double_and_add"): "scalar_mul",
    ("ecpf.keygen", "generate_keypair"): "keygen",
    ("ecpf.keygen", "validate_public_key"): "keygen",
    ("ecpf.keygen", "random_scalar"): "keygen",
    ("ecpf.cli", "run"): "cli",
    ("ecpf.cli", "bundled_curve"): "cli",
    ("ecpf.cli", "parse_curve_file"): "cli",
    ("ecpf.cli", "load_curve_file"): "cli",
}

# FieldElement method -> span name in the field layer.
FIELD_METHODS = {
    "__mul__": "field.mul",
    "__add__": "field.addsub",
    "__sub__": "field.addsub",
    "__neg__": "field.addsub",
    "inverse": "field.inv",
}

LAYERS = ("field", "curve", "scalar_mul", "keygen", "cli")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.sampled_keys = 0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, layer: str, name: str, fn):
        calls, seconds, self_seconds, stack = (
            self.calls, self.seconds, self.self_seconds, self._stack
        )

        def traced(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                seconds[name] += dt
                self_seconds[layer] += dt - nested
                if stack:
                    stack[-1] += dt

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from ecpf.field import FieldElement
        from ecpf.mpint import MpInt

        for module_name, _ in FUNCTIONS:
            importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items()
                   if name == "ecpf" or name.startswith("ecpf.")]
        for (module_name, attr), layer in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:  # gone from the library: its metrics read 0
                continue
            name = f"{layer}.{attr}"
            wrapper = self._span(layer, name, original)
            if attr == "random_scalar":
                wrapper = self._count_sampling(wrapper)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._set(module, attr, wrapper)

        for attr, name in FIELD_METHODS.items():
            if attr in vars(FieldElement):
                self._set(FieldElement, attr, self._span("field", name, vars(FieldElement)[attr]))
        mul = FieldElement.__mul__
        calls = self.calls

        def mul_counting_squares(a, b):  # a square is a product of equal operands
            if a == b:
                calls["field.sqr"] += 1
            return mul(a, b)

        self._set(FieldElement, "__mul__", mul_counting_squares)

        init = vars(MpInt)["__init__"]

        def counted_init(self, *args, **kwargs):
            calls["mpint.new"] += 1
            init(self, *args, **kwargs)

        self._set(MpInt, "__init__", counted_init)

    def _count_sampling(self, random_scalar):
        def sampling(*args, **kwargs):
            if kwargs.get("seed") is None:
                self.sampled_keys += 1
            return random_scalar(*args, **kwargs)

        return sampling

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(tracer: Tracer, ops: int, draws: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass, normalised per op.

    ``*.calls`` are calls per op and ``*.self_s`` seconds of layer self
    time per op; ``*.us``/``*.ms`` are the mean inclusive time of one call
    (0 where the pass made no such call).
    """
    calls, seconds = tracer.calls, tracer.seconds

    def per_op(name):
        return (calls[name] / ops, "count")

    def mean(name, scale, unit):
        return (seconds[name] / calls[name] * scale if calls[name] else 0.0, unit)

    out = {
        "mpint.new.calls": per_op("mpint.new"),
        "field.mul.calls": per_op("field.mul"),
        "field.sqr.calls": per_op("field.sqr"),
        "field.addsub.calls": per_op("field.addsub"),
        "field.inv.calls": per_op("field.inv"),
        "field.mul.us": mean("field.mul", 1e6, "us"),
        "field.inv.us": mean("field.inv", 1e6, "us"),
        "curve.point_add.calls": per_op("curve.point_add"),
        "curve.point_double.calls": per_op("curve.point_double"),
        "curve.on_curve.calls": per_op("curve.on_curve"),
        "curve.point_add.us": mean("curve.point_add", 1e6, "us"),
        "curve.point_double.us": mean("curve.point_double", 1e6, "us"),
        "scalar_mul.ladder.calls": per_op("scalar_mul.ladder"),
        "scalar_mul.ladder.ms": mean("scalar_mul.ladder", 1e3, "ms"),
        "scalar_mul.double_and_add.ms": mean("scalar_mul.double_and_add", 1e3, "ms"),
        "keygen.generate_keypair.ms": mean("keygen.generate_keypair", 1e3, "ms"),
        "keygen.validate_public_key.ms": mean("keygen.validate_public_key", 1e3, "ms"),
        "keygen.draws_per_key": (
            draws / tracer.sampled_keys if tracer.sampled_keys else 0.0, "count"),
        "cli.bundled_curve.calls": per_op("cli.bundled_curve"),
        "cli.bundled_curve.ms": mean("cli.bundled_curve", 1e3, "ms"),
        "cli.parse_curve_file.ms": mean("cli.parse_curve_file", 1e3, "ms"),
        "cli.run.ms": mean("cli.run", 1e3, "ms"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_seconds[layer] / ops, "s")
    return out
