"""The ffjac benchmark: one command, three correctness-checked workloads.

    python3 perfbench/run.py --workload add-chain-g28 --seed 1 \\
        --seconds 20 --trace 0

It runs against the ffjac sources next to this directory (``src/ffjac``
of the same checkout) in one process and one thread.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  README.md
lists the workloads, the metrics and what each layer should move.
"""

import time

T_START = time.perf_counter()  # setup_s counts from the process's start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402  (perfbench/, the script's own directory)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# At least ten timed operations lie beyond the 90th percentile.
MIN_OPS = 100

# A round is a fresh context followed by the same operations on the
# same inputs, so every round repeats the exact counters and cache sizes.
# Rounds take a few seconds each.  `calib_every` operations (about 50 ms)
# lie between two samples of the machine's speed.
WORKLOADS = {
    "add-chain-g28": dict(kind="chain", round_ops=32, checks=2,
                          family_genus=28, calib_every=1),
    "add-chain-n6": dict(kind="chain", round_ops=16, checks=2,
                         calib_every=1),
    "reduce-q7-g3": dict(kind="reduce", round_ops=224, checks=8,
                         calib_every=4),
}

clock = time.perf_counter


def build_context(name):
    """Cold set-up from the stored coefficients to a ready JacobianCtx.

    The first step runs from the process's start through importing
    ffjac and `from_dict`; the speed kernel runs between the steps, and
    its time is left out.  Returns the context, the set-up time in wall
    seconds and at reference speed (see Meter), and each step's time at
    reference speed.
    """
    from ffjac import FunctionField, JacobianCtx
    stored = json.loads((HERE / "fields" / (name + ".json")).read_text())
    field = FunctionField.from_dict(stored)
    wall = clock() - T_START
    calib.kernel()  # the first run pays for numpy's own warm-up
    before = calib.slowdown()
    ref = wall / before
    steps = (("field.finite_order.s", field.finite_order),
             ("field.infinite_order.s", field.infinite_order),
             ("field.genus.s", field.genus),
             ("jacobian.ctx_init.s", lambda: JacobianCtx(field)))
    spans = {}
    for label, step in steps:
        t0 = clock()
        ctx = step()
        dt = clock() - t0
        after = calib.slowdown()
        spans[label] = dt / ((before + after) / 2.0)
        wall += dt
        ref += spans[label]
        before = after
    return ctx, wall, ref, spans


# -- inputs, made from the seed before any timing ---------------------------

def linear_places(field, rng, count):
    """`count` random places above linear primes x - c."""
    from ffjac import Poly, finite_places_above
    p = field.p
    out = []
    while len(out) < count:
        q = Poly([-rng.randrange(p) % p, 1], p)
        above = finite_places_above(field, q)
        out.append(above[rng.randrange(len(above))])
    return out


def chain_start(ctx, rng):
    from ffjac import random_class
    return random_class(ctx, rng), random_class(ctx, rng)


def divisor_pool(ctx, rng, count):
    """Degree-zero divisors: 1..2g+1 finite places of multiplicity 1-2,
    infinite multiplicities in -2..2, balanced by A.  The number of
    places runs through 1..2g+1 in turn, so every seed gives a pool of
    the same make-up and only the places and multiplicities vary."""
    from ffjac import Divisor
    field = ctx.field
    pool = []
    for i in range(count):
        d = Divisor.zero(field)
        for pl in linear_places(field, rng, 1 + i % (2 * ctx.g + 1)):
            d = d + Divisor.from_place(pl, rng.randint(1, 2))
        d = d + Divisor(field, None, [rng.randint(-2, 2) for _ in ctx.places])
        pool.append(d - Divisor.from_place(ctx.A, d.degree()))
    return pool


# -- timing --------------------------------------------------------------------

class Meter:
    """Wall times of timed steps, and the same times at reference speed.

    The VM's speed moves by up to 2.5x within seconds, independently of
    the program.  After every `every` steps the meter runs the fixed
    kernel of calib.py; each step is divided by the kernel's slowdown
    against calib.REFERENCE_S, averaged over the samples just before and
    just after it.  The kernel runs outside every timed step.

    Operations are keyed by their place in the round: every round runs
    the same operations, so the times of one key are repeated
    measurements of one computation.
    """

    def __init__(self, every):
        self.every = every
        self.raw = []       # wall seconds of each operation
        self.norm = []      # reference seconds of each operation
        self.by_key = {}    # reference seconds of each operation, by key
        self.raw_busy = 0.0   # wall seconds of every timed step
        self.norm_busy = 0.0  # the same at reference speed
        self._pending = []
        self._last = calib.sample()

    def add(self, dt, key=None):
        """Time a step: an operation with its key, or other work of the
        round (key None) that counts only towards the busy time."""
        self._pending.append((dt, key))
        if len(self._pending) >= self.every:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        now = calib.sample()
        factor = (self._last + now) / (2.0 * calib.REFERENCE_S)
        self._last = now
        for dt, key in self._pending:
            self.raw_busy += dt
            self.norm_busy += dt / factor
            if key is not None:
                self.raw.append(dt)
                self.norm.append(dt / factor)
                self.by_key.setdefault(key, []).append(dt / factor)
        self._pending = []

    def slowdown(self):
        """Wall time over reference time of everything timed."""
        return self.raw_busy / self.norm_busy

    def typical(self):
        """Each operation's reference time replaced by the median over
        the rounds of the operation at its place: a burst that slows one
        round moves that median little, while the spread between the
        operations of a round stays."""
        out = []
        for times in self.by_key.values():
            out += [statistics.median(times)] * len(times)
        return out


# -- rounds of operations -----------------------------------------------------

# The JacobianCtx caches and the counters the per-layer metrics read.  A
# refactor may rename them; what is missing is reported and reads 0.
CACHES = ("inf_add_cache", "ssrr_profiles")
COUNTERS = ("ssrr_calls", "partial_additions", "ssrr_cache_hits",
            "ssrr_cache_misses", "infinite_cache_hits",
            "infinite_cache_misses")


def round_signature(ctx):
    """Exact counters and cache sizes at the end of a round."""
    sig = dict(ctx.counters.as_dict())
    sig["cache_entries"] = sum(len(getattr(ctx, name, ())) for name in CACHES)
    return sig


class Runner:
    """The inputs of one workload and seed, and the rounds that use them."""

    def __init__(self, name, seed, ctx):
        from ffjac import JacobianCtx
        self.spec = WORKLOADS[name]
        self.field = ctx.field
        self.ctx_class = JacobianCtx
        rng = random.Random("%s|%d" % (name, seed))
        if self.spec["kind"] == "chain":
            self.inputs = chain_start(ctx, rng)
            self._round = self._chain_round
        else:
            self.inputs = divisor_pool(ctx, rng, self.spec["round_ops"])
            self._round = self._reduce_round
        self.reported = False
        # The warm-up round extends the field's PrimeIdeal.power memos,
        # gives the outputs that are checked and the reference counters.
        self.outputs = []
        warm = self.new_ctx()
        self._round(warm, None, self.outputs)
        self.reference = round_signature(warm)
        self.deterministic = True

    def new_ctx(self, meter=None):
        t0 = clock()
        ctx = self.ctx_class(self.field)
        if meter is not None:
            meter.add(clock() - t0)
        return ctx

    def _report(self):
        # the same operations fail in every round: show the first traceback
        if not self.reported:
            traceback.print_exc(file=sys.stderr)
            self.reported = True

    def _chain_round(self, ctx, meter, outputs):
        """Fibonacci chain d[k+1] = d[k-1] + d[k]; returns the failed
        operations.  A failed addition ends the chain, so the rest of the
        round fails with it.  Successful additions are timed on `meter`
        unless it is None."""
        a, b = self.inputs
        count = self.spec["round_ops"]
        for i in range(count):
            t0 = clock()
            try:
                c = ctx.add(a, b)
            except Exception:
                self._report()
                return count - i
            if meter is not None:
                meter.add(clock() - t0, i)
            if outputs is not None:
                outputs.append(c)
            a, b = b, c
        return 0

    def _reduce_round(self, ctx, meter, outputs):
        failed = 0
        for i, div in enumerate(self.inputs):
            t0 = clock()
            try:
                x = ctx.reduce_divisor(div)
            except Exception:
                self._report()
                failed += 1
                x = None
            else:
                if meter is not None:
                    meter.add(clock() - t0, i)
            if outputs is not None:
                outputs.append(x)
        return failed

    def timed(self, seconds, min_ops):
        """Whole rounds until `seconds` have passed and at least `min_ops`
        operations were attempted; (meter, attempted, failed)."""
        meter = Meter(self.spec["calib_every"])
        attempted = failed = 0
        start = clock()
        while True:
            ctx = self.new_ctx(meter)
            failed += self._round(ctx, meter, None)
            meter.flush()
            attempted += self.spec["round_ops"]
            if round_signature(ctx) != self.reference:
                self.deterministic = False
            if clock() - start >= seconds and attempted >= min_ops:
                break
        return meter, attempted, failed


# -- independent checks on a seeded sample of the outputs --------------------

def run_checks(name, seed, runner):
    import checks
    from ffjac import Divisor, FFElem, JacobianCtx, Poly, jacobian_order
    spec, field = runner.spec, runner.field
    ctx = JacobianCtx(field)
    rng = random.Random("%s|%d|checks" % (name, seed))
    out = []
    if not runner.deterministic:
        out.append("counters or cache sizes differ between rounds")
    if spec["kind"] == "chain":
        seq = list(runner.inputs) + runner.outputs
        for k in rng.sample(range(1, len(seq) - 1), spec["checks"]):
            out += checks.check_chain_step(ctx, *seq[k - 1:k + 2])
            out += checks.check_reduced(ctx, seq[k + 1])
    else:
        sample = [i for i in rng.sample(range(len(runner.inputs)),
                                        spec["checks"])
                  if runner.outputs[i] is not None]
        p = field.p
        for i in sample:
            div, x = runner.inputs[i], runner.outputs[i]
            h = FFElem(field, [Poly([rng.randrange(p) for _ in range(3)], p)
                               for _ in range(field.n)],
                       Poly([rng.randrange(p), 1], p))
            out += checks.check_reduced(ctx, x)
            out += checks.check_brute(ctx, div, x)
            if not h.is_zero():
                out += checks.check_class_invariance(ctx, div, x, h)
        out += checks.check_class_number(
            ctx, jacobian_order(field),
            [runner.outputs[i] for i in sample[:2]])
    if ctx.g > 0:
        d = Divisor.zero(field)
        for pl in linear_places(field, rng, 2 * ctx.g - 1):
            d = d + Divisor.from_place(pl)
        out += checks.check_genus(field, ctx.g, d, spec.get("family_genus"))
    return out


# -- metrics -------------------------------------------------------------------

def op_figures(times, busy):
    return {
        "ops_per_s": (len(times) / busy, "op/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(setup_wall, setup_s, meter):
    """Times at reference speed (calib.py), the percentiles over the
    operations' medians across rounds; the wall-clock figures go to
    standard error."""
    wall = dict(op_figures(meter.raw, meter.raw_busy),
                setup_s=(setup_wall, "s"))
    print("wall clock: %s; machine slowdown %.3f in the loop, %.3f at "
          "set-up" % (", ".join("%s %.4g" % (k, v) for k, (v, _)
                                in sorted(wall.items())),
                      meter.slowdown(), setup_wall / setup_s),
          file=sys.stderr)
    out = {"setup_s": (setup_s, "s")}
    out.update(op_figures(meter.typical(), meter.norm_busy))
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0, "MiB")
    return out


def per_layer(runner, spans, seconds):
    """Counters from the rounds, then an untraced and a traced half of
    the run on the same rounds for the layer times and the overhead."""
    from layers import Tracer
    ops = runner.spec["round_ops"]
    ref = runner.reference
    missing = [k for k in COUNTERS if k not in ref]
    missing += [k for k in CACHES if not hasattr(runner.new_ctx(), k)]
    if missing:
        print("counters absent: %s" % ", ".join(missing), file=sys.stderr)
    ref = {k: ref.get(k, 0) for k in COUNTERS + ("cache_entries",)}
    g = runner.field.genus()
    done = [x for x in runner.outputs if x is not None]

    def ratio(hits, misses):
        total = ref[hits] + ref[misses]
        return ref[hits] / total if total else 0.0

    out = {
        "jacobian.ssrr_calls_per_op": (ref["ssrr_calls"] / ops, "call/op"),
        "jacobian.full_degree_share": (
            sum(x.r == g for x in done) / len(done) if done else 0.0,
            "ratio"),
        "jacobian.inf_cache_hit_ratio": (
            ratio("infinite_cache_hits", "infinite_cache_misses"), "ratio"),
        "jacobian.profile_cache_hit_ratio": (
            ratio("ssrr_cache_hits", "ssrr_cache_misses"), "ratio"),
        "jacobian.cache_entries": (ref["cache_entries"], "count"),
        "jacobian.partial_additions_per_op": (
            ref["partial_additions"] / ops, "mul/op"),
    }
    out.update((k, (v, "s")) for k, v in spans.items())
    base, attempted, failed = runner.timed(seconds / 2.0, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_attempted, traced_failed = runner.timed(
            seconds / 2.0, 1)
    finally:
        tracer.uninstall()
    if tracer.absent:
        print("layers absent: %s" % ", ".join(tracer.absent), file=sys.stderr)
    # layer times at reference speed, like the end-to-end times
    out.update(tracer.per_op_metrics(len(traced.raw), sum(traced.raw) * 1e9,
                                     1.0 / traced.slowdown()))
    out["trace.overhead"] = (statistics.fmean(traced.norm)
                             / statistics.fmean(base.norm), "ratio")
    out["machine.slowdown"] = (base.slowdown(), "ratio")
    return out, attempted + traced_attempted, failed + traced_failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ffjac" / "__init__.py").is_file():
        print("ffjac sources not found at %s" % SRC, file=sys.stderr)
        return 2
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(SRC), str(HERE)]

    ctx, setup_wall, setup_s, spans = build_context(args.workload)
    t_inputs = clock()
    runner = Runner(args.workload, args.seed, ctx)
    t_loop = clock()
    if args.trace:
        metrics, attempted, failed = per_layer(runner, spans, args.seconds)
    else:
        meter, attempted, failed = runner.timed(args.seconds, MIN_OPS)
        metrics = end_to_end(setup_wall, setup_s, meter)
    t_checks = clock()
    failures = run_checks(args.workload, args.seed, runner)
    print("phases (s): setup %.2f, inputs and warm-up %.2f, loop %.2f, "
          "checks %.2f" % (setup_wall, t_loop - t_inputs, t_checks - t_loop,
                           clock() - t_checks), file=sys.stderr)
    for msg in failures:
        print("CHECK FAILED: %s" % msg, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
