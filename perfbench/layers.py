"""Outside-in layer timing for the ffjac benchmark.

The library has no timers of its own, so the benchmark wraps the public
entry point of each layer on the module objects, in every ffjac module
that binds the function's name (``ideal_mul`` is imported into
``jacobian``, ``divisors`` and ``riemann_roch`` as well as defined in
``orders``).  Calls that go through a module global are then seen
wherever they come from.  Nothing under ``src/`` changes, and
``Tracer.uninstall`` puts every original back.

Spans are aggregated as they close rather than stored: per layer the
number of calls, the total time of its outermost spans and its self
time (span time minus the time of the wrapped spans directly inside
it).  Time outside every span is the untraced remainder.
"""

import importlib
import sys
import time

PACKAGE = "ffjac"

# (module, attribute, metric name).  A later refactor may rename or
# delete any of these; a missing one is reported as absent.
LAYERS = (
    ("orders", "ideal_mul", "orders.ideal_mul"),
    ("orders", "ideal_inv", "orders.ideal_inv"),
    ("orders", "principal_ideal", "orders.principal_ideal"),
    ("polymat", "hnf_square", "polymat.hnf_square"),
    ("polymat", "row_reduce", "polymat.row_reduce"),
    ("riemann_roch", "ssrr_reduce", "riemann_roch.ssrr_reduce"),
    ("riemann_roch", "_inf_profile", "riemann_roch.inf_profile"),
    ("divisors", "infinite_valuations", "divisors.infinite_valuations"),
)


def _rows_in(rows, *_args, **_kw):
    return len(rows)


def _max_row_degree(rows, *_args, **_kw):
    return max(e.deg for row in rows for e in row)


# Per-call input sizes: metric suffix, unit, and how to read the size
# off the arguments.
SIZES = {
    "polymat.hnf_square": ("rows_per_call", "row/call", _rows_in),
    "polymat.row_reduce": ("input_degree_per_call", "deg/call",
                           _max_row_degree),
}


class LayerStats:
    __slots__ = ("calls", "total_ns", "self_ns", "size_sum", "depth")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.size_sum = 0
        self.depth = 0


class Tracer:
    """Install wrappers with ``install``; read ``stats`` and ``root_ns``."""

    def __init__(self):
        self.stats = {name: LayerStats() for _, _, name in LAYERS}
        self.absent = []
        self.root_ns = 0
        self._open = []  # child time accumulated by each open span
        self._patches = []

    def _wrap(self, name, fn):
        st = self.stats[name]
        size = SIZES[name][2] if name in SIZES else None
        open_spans = self._open
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kw):
            if size is not None:
                st.size_sum += size(*args, **kw)
            open_spans.append(0)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dt = clock() - t0
                st.depth -= 1
                child = open_spans.pop()
                st.calls += 1
                st.self_ns += dt - child
                if not st.depth:
                    st.total_ns += dt
                if open_spans:
                    open_spans[-1] += dt
                else:
                    tracer.root_ns += dt

        return traced

    def install(self):
        prefix = PACKAGE + "."
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE
                                         or k.startswith(prefix))]
        for modname, attr, name in LAYERS:
            try:
                home = importlib.import_module(prefix + modname)
            except ImportError:
                home = None
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def per_op_metrics(self, ops, op_ns, scale=1.0):
        """Per-layer metrics normalised by ``ops`` operations that took
        ``op_ns`` nanoseconds in total, times multiplied by ``scale``;
        absent layers read 0."""
        out = {}
        ms = scale / ops / 1e6
        for _, _, name in LAYERS:
            st = self.stats[name]
            out[name + ".calls_per_op"] = (st.calls / ops, "call/op")
            out[name + ".self_ms_per_op"] = (st.self_ns * ms, "ms/op")
            out[name + ".total_ms_per_op"] = (st.total_ns * ms, "ms/op")
            if name in SIZES:
                suffix, unit, _ = SIZES[name]
                per_call = st.size_sum / st.calls if st.calls else 0.0
                out["%s.%s" % (name, suffix)] = (per_call, unit)
        out["trace.untraced_share"] = (1.0 - self.root_ns / op_ns, "ratio")
        return out
