"""Outside-in layer tracing: wrap public functions of each module in spans.

The program is not modified. ``Tracer.install`` replaces each traced
function (or method) by a wrapper that records a span, and rebinds the
wrapper in every ``rayleighsums`` module that holds the original under
its own name (``from .series import series_divide`` and the like), so
calls through those names are seen too.

Spans are aggregated per name as they close; nothing is kept per call.
A span's self time is its duration minus the time its direct child
spans cover. A name's inclusive time counts only its outermost span, so
a function that re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path, span name). The attribute path is either a
# module-level function or Class.method.
SPANS = (
    ("poly", "PolyNu.__mul__", "poly.mul"),
    ("poly", "PolyNu.__rmul__", "poly.mul"),
    ("poly", "PolyNu.gcd", "poly.gcd"),
    ("ratfunc", "RatFuncNu.__init__", "ratfunc.canonical"),
    ("series", "series_divide", "series.divide"),
    ("series", "FormalSeries.poly_mul", "series.poly_mul"),
    ("oracle", "bessel_t_series", "oracle.series_build"),
    ("oracle", "mercer_t_series", "oracle.series_build"),
    ("oracle", "chf_series", "oracle.series_build"),
    ("oracle", "genus0_sums_from_series", "oracle.sums"),
    ("oracle", "chf_sums_from_series", "oracle.sums"),
    ("sigma", "sigma_table", "sigma.table"),
    ("mercer", "tau_table", "mercer.tau_table"),
    ("mercer", "verify_ode", "mercer.verify_ode"),
    ("chf", "s_table", "chf.s_table"),
    ("zeros", "find_zeros", "zeros.find_zeros"),
    ("bounds", "euler_rayleigh", "bounds.euler_rayleigh"),
    ("bounds", "nth_root_enclosure", "bounds.nth_root"),
    ("serialize", "encode_table", "serialize.encode"),
    ("serialize", "table_csv", "serialize.encode"),
    ("render", "ratfunc_plain", "render"),
    ("render", "ratfunc_latex", "render"),
    ("render", "value_plain", "render"),
    ("render", "value_latex", "render"),
    ("rational", "decimal_str", "rational.decimal"),
    ("cli", "run", "cli"),
)


def _poly_size(tracer, result):
    """Degree and largest coefficient bit length of a PolyNu product."""
    coeffs = result.coeffs
    if coeffs:
        tracer.max_degree = max(tracer.max_degree, len(coeffs) - 1)
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
        tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)


def _zero_count(tracer, result):
    tracer.certified += len(result)


_AFTER = {"poly.mul": _poly_size, "zeros.find_zeros": _zero_count}


class Tracer:
    """Per-name span aggregates: calls, inclusive seconds, self seconds."""

    def __init__(self):
        self.reset()
        self._stack: list = []  # per open span: seconds its child spans cover
        self._depth: dict = {}

    def reset(self) -> None:
        self.calls: dict = {}
        self.total: dict = {}
        self.self_s: dict = {}
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.certified = 0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "max_degree": self.max_degree,
            "max_coeff_bits": self.max_coeff_bits,
            "certified": self.certified,
        }

    def _wrap(self, name, fn):
        stack, depth = self._stack, self._depth
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] = depth.get(name, 0) + 1
            t1 = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if after is not None:
                    after(self, result)
                return result
            finally:
                if t1 is None:
                    t1 = perf_counter()
                children = stack.pop()
                depth[name] -= 1
                span = t1 - t0
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + span - children
                if not depth[name]:
                    self.total[name] = self.total.get(name, 0.0) + span
                if stack:
                    # The parent's children cover this span and the
                    # bookkeeping above, so tracing cost stays out of
                    # every self time.
                    stack[-1] += perf_counter() - t0

        return traced

    def install(self) -> None:
        """Wrap every function in SPANS, in its module and wherever it is
        imported by name."""
        package = "rayleighsums"
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod_name, path, name in SPANS:
            mod = sys.modules[f"{package}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))
                continue
            original = getattr(mod, path)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
