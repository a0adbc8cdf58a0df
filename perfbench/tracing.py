"""Per-layer tracing of qcluster, installed from outside the package.

``Tracer.install`` replaces selected public functions and methods of the
six modules with wrappers that count calls and measure self time: a
span's wall time minus the wall time of the traced spans it called.  A
wrapped function is rebound everywhere a qcluster module holds it (for
instance ``relations.q_binom`` as well as ``qarith.q_binom``), and methods
are replaced on their class.  The tracer's own bookkeeping for a call
(classifying operands, scanning the result) runs inside that call's span,
so it is charged to the op it describes.  Installing is permanent for the
process: the harness traces one request list per fresh interpreter.

Self times of all ops plus ``driver.self_s`` add up to the traced wall
time by construction: every nested span's time is either its own self
time or a traced child's.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (op, per-op counters beyond calls and self_s)
OPS = (
    ("qarith.mul_dense", ("coeff_mults",)),
    ("qarith.mul_mono", ("coeff_mults",)),
    ("qarith.add", ()),
    ("qarith.q_binom", ()),
    ("qtorus.mul", ("term_pairs",)),
    ("qtorus.scale", ()),
    ("qtorus.add", ()),
    ("qtorus.render", ()),
    ("qtorus.parse", ()),
    ("seeds.load", ()),
    ("seeds.validate", ()),
    ("seeds.mutate", ()),
    ("seeds.mutated_variable", ()),
    ("relations.serre", ()),
    ("relations.serre_opposite", ()),
    ("relations.higher", ()),
    ("relations.lemma", ()),
    ("relations.full_suite", ()),
    ("identities.check", ()),
    ("cli.main", ()),
)

# Layer-wide counters: (name, unit).
GAUGES = (
    ("qarith.max_span", "half-exp"),
    ("qarith.max_coeff_bits", "bits"),
    ("qtorus.peak_terms", "terms"),
    ("relations.fail", "count"),
    ("cli.rejected", "count"),
)

# Metrics the harness adds from its own measurements.
HARNESS = (("driver.self_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"))


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for op, extra in OPS:
        out.append((f"{op}.calls", "count"))
        out.append((f"{op}.self_s", "s"))
        out.extend((f"{op}.{name}", "count") for name in extra)
    out.extend(GAUGES)
    out.extend(HARNESS)
    return out


def counter_names() -> list[str]:
    """The metrics that must repeat exactly between two traced runs of one list."""
    return [name for name, unit in metric_units() if unit != "s" and name != "trace.overhead_ratio"]


class Tracer:
    def __init__(self):
        self.calls = {op: 0 for op, _ in OPS}
        self.self_s = {op: 0.0 for op, _ in OPS}
        self.counts = {f"{op}.{name}": 0 for op, extra in OPS for name in extra}
        self.counts.update({name: 0 for name, _ in GAUGES})
        # _stack[-1] accumulates the wall time of the running span's traced
        # children; _stack[0] collects the top-level spans.
        self._stack = [0.0]

    @property
    def top_level_s(self) -> float:
        return self._stack[0]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for op, extra in OPS:
            out[f"{op}.calls"] = self.calls[op]
            out[f"{op}.self_s"] = self.self_s[op]
            for name in extra:
                out[f"{op}.{name}"] = self.counts[f"{op}.{name}"]
        for name, _ in GAUGES:
            out[name] = self.counts[name]
        return out

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, op, after=None):
        """``op`` is an op name or a function of the call's arguments returning one."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        pick = op if callable(op) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            name = pick(*args) if pick else op
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children

        return traced

    def _function(self, fn, op, after=None) -> None:
        """Rebind ``fn`` in every loaded qcluster module that holds it."""
        wrapper = self._wrap(fn, op, after)
        for name, module in list(sys.modules.items()):
            if name == "qcluster" or name.startswith("qcluster."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _method(self, cls, attr: str, op, after=None) -> None:
        setattr(cls, attr, self._wrap(getattr(cls, attr), op, after))

    def install(self) -> None:
        from qcluster import cli, identities, qarith, qtorus, relations, seeds

        QLaurent, TorusElem = qarith.QLaurent, qtorus.TorusElem
        counts = self.counts

        def laurent_stats(args, result):
            if isinstance(result, QLaurent) and result:
                items = result.items()
                span = items[-1][0] - items[0][0]
                bits = max(abs(c) for _, c in items).bit_length()
                if span > counts["qarith.max_span"]:
                    counts["qarith.max_span"] = span
                if bits > counts["qarith.max_coeff_bits"]:
                    counts["qarith.max_coeff_bits"] = bits

        def mul_kind(a, b):
            if isinstance(b, QLaurent):
                tb = b.term_count()
            elif isinstance(b, int):
                tb = 1 if b else 0
            else:
                tb = 0
            ta = a.term_count()
            op = "qarith.mul_dense" if ta >= 2 and tb >= 2 else "qarith.mul_mono"
            counts[op + ".coeff_mults"] += ta * tb
            return op

        def torus_mul(a, b):
            if isinstance(b, TorusElem):
                counts["qtorus.mul.term_pairs"] += a.term_count() * b.term_count()
            return "qtorus.mul"

        def torus_stats(args, result):
            if isinstance(result, TorusElem) and result.term_count() > counts["qtorus.peak_terms"]:
                counts["qtorus.peak_terms"] = result.term_count()

        def certificate(args, result):
            if not result.ok:
                counts["relations.fail"] += 1

        def exit_status(args, result):
            if result == cli.EXIT_BAD_INPUT:
                counts["cli.rejected"] += 1

        self._method(QLaurent, "__mul__", mul_kind, laurent_stats)
        self._method(QLaurent, "__rmul__", mul_kind, laurent_stats)
        self._method(QLaurent, "__add__", "qarith.add", laurent_stats)
        self._method(QLaurent, "__radd__", "qarith.add", laurent_stats)
        self._function(qarith.q_binom, "qarith.q_binom", laurent_stats)
        self._method(TorusElem, "__mul__", torus_mul, torus_stats)
        self._method(TorusElem, "scale", "qtorus.scale", torus_stats)
        self._method(TorusElem, "__add__", "qtorus.add", torus_stats)
        self._function(qtorus.render_torus_elem, "qtorus.render")
        self._function(qtorus.parse_torus_elem, "qtorus.parse")
        self._function(seeds.load_seed, "seeds.load")
        self._function(seeds.validate_compatibility, "seeds.validate")
        self._function(seeds.mutate, "seeds.mutate")
        self._function(seeds.mutated_variable, "seeds.mutated_variable")
        self._function(relations.serre_verify, "relations.serre", certificate)
        self._function(relations.serre_verify_opposite, "relations.serre_opposite", certificate)
        self._function(relations.higher_verify, "relations.higher", certificate)
        self._function(relations.lemma_sum_check, "relations.lemma", certificate)
        self._function(relations.full_suite, "relations.full_suite")
        self._function(identities.check_identity, "identities.check")
        self._function(cli.main, "cli.main", exit_status)
