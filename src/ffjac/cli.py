"""Command-line front end: field generation, benchmark tables, self
checks, and one-off divisor reduction.

The bench tables are plain whitespace-separated text with a `#` comment
header, one header row naming every column, and one numeric row per
sweep point.  Counter columns are derived from exact integer counts, so
rerunning with the same seed reproduces them bit for bit; the time
columns move with the machine.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from .divisors import Divisor, principal_divisor
from .field import FFElem, make_field
from .fieldgen import (expected_structured_genus, field_metadata, gen_random,
                       gen_structured, read_field, write_field)
from .jacobian import JacobianCtx, random_class
from .oracles import brute_hr_min, jacobian_order
from .polys import Poly
from .riemann_roch import rr_dim

CONFIGS = (("linear", False), ("linear", True),
           ("binary", False), ("binary", True))


def _config_name(strategy: str, caching: bool) -> str:
    return "%s_%s" % (strategy, "caching" if caching else "no_caching")


# -- gen --------------------------------------------------------------------

def cmd_gen(args, parser):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = "%s:%d" % (args.seed, i)
        if args.method == "tang":
            F = gen_structured(args.p, args.n, args.cf, seed=seed)
            meta = field_metadata(F, seed=seed)
            meta["method"] = "tang"
            meta["genus_bound_attained"] = F.genus() == \
                expected_structured_genus(args.p, args.n, args.cf)
            name = "field_tang_p%d_n%d_cf%d_%d.json" % (
                args.p, args.n, args.cf, i)
        else:
            F = gen_random(args.p, args.n, args.cf_max, seed=seed,
                           genus=args.genus)
            meta = field_metadata(F, seed=seed)
            meta["method"] = "adhoc"
            name = "field_adhoc_p%d_n%d_%d.json" % (args.p, args.n, i)
        path = outdir / name
        write_field(path, F, meta)
        print(path)
    return 0


# -- bench ------------------------------------------------------------------

def _adhoc_cf_max(n: int, genus: int) -> int:
    # smallest coefficient bound whose generic genus reaches the target
    c = 1
    while (c * n - 2) * (n - 1) // 2 < genus:
        c += 1
    return max(c, 2)


def _sweep(args, parser):
    """Returns (x column name, sweep description, list of points).

    A point is (x value, field factory taking a chain index).
    """
    if args.fields and args.preset:
        parser.error("give either --preset or --fields, not both")
    if args.fields:
        points = []
        for path in args.fields:
            F, _ = read_field(path)
            points.append((F.genus(), lambda i, F=F: F))
        return "genus", "fields %s" % " ".join(args.fields), points

    p = 32771
    if args.preset in ("fig1", "fig1-small"):
        cfs = range(2, 20) if args.preset == "fig1" else (2, 3)
        points = []
        for cf in cfs:
            g = expected_structured_genus(p, 3, cf)
            def make(i, cf=cf):
                return gen_structured(p, 3, cf,
                                      seed="%s:cf%d:%d" % (args.seed, cf, i))
            points.append((g, make))
        return ("genus",
                "structured n=3 p=%d cf in %d..%d" % (p, cfs[0], cfs[-1]),
                points)
    if args.preset in ("fig2", "fig2-small"):
        genus = 15 if args.preset == "fig2" else 6
        degrees = range(3, 9) if args.preset == "fig2" else (3, 4)
        points = []
        for n in degrees:
            def make(i, n=n):
                return gen_random(p, n, _adhoc_cf_max(n, genus),
                                  seed="%s:n%d:%d" % (args.seed, n, i),
                                  genus=genus)
            points.append((n, make))
        return ("degree",
                "adhoc genus=%d p=%d n in %d..%d" % (
                    genus, p, degrees[0], degrees[-1]),
                points)
    parser.error("a sweep is required: --preset or --fields")


def _bench_point(make_field_for_chain, chains: int, length: int, tag: str):
    """Mean milliseconds per addition and ssrr calls per addition.

    Runs one Fibonacci chain per field and config; only the addition
    loop is timed.  An untimed chain on the setup context first extends
    the field's prime-power memos, so no configuration pays for them.
    """
    ms = {_config_name(s, c): 0.0 for s, c in CONFIGS}
    calls = {_config_name(s, c): 0 for s, c in CONFIGS}
    for ci in range(chains):
        field = make_field_for_chain(ci)
        setup = JacobianCtx(field)
        rng = random.Random("%s|chain%d" % (tag, ci))
        c0 = random_class(setup, rng)
        c1 = random_class(setup, rng)
        d0, d1 = c0, c1
        for _ in range(length):
            d0, d1 = d1, setup.add(d0, d1)
        for strategy, caching in CONFIGS:
            ctx = JacobianCtx(field, strategy=strategy, caching=caching)
            d0, d1 = c0, c1
            ctx.counters.reset()
            t0 = time.process_time()
            for _ in range(length):
                d0, d1 = d1, ctx.add(d0, d1)
            dt = time.process_time() - t0
            name = _config_name(strategy, caching)
            ms[name] += dt * 1000.0
            calls[name] += ctx.counters.ssrr_calls
    total = chains * length
    return ({k: v / total for k, v in ms.items()},
            {k: v / total for k, v in calls.items()})


def cmd_bench(args, parser):
    try:
        xcol, desc, points = _sweep(args, parser)
    except (OSError, ValueError) as exc:
        print("ffjac bench: %s" % exc, file=sys.stderr)
        return 1
    small = args.preset in ("fig1-small", "fig2-small")
    chains = args.chains if args.chains is not None else (2 if small else 5)
    length = args.chain_length if args.chain_length is not None else (
        30 if small else 1000)
    names = [_config_name(s, c) for s, c in CONFIGS]
    header = [xcol]
    header += ["%s_milliseconds_per_addition" % n for n in names]
    header += ["%s_ssrr_calls_mean" % n for n in names]
    lines = [
        "# ffjac bench artifact v1",
        "# seed: %s" % args.seed,
        "# sweep: %s" % desc,
        "# chains: %d, chain length: %d" % (chains, length),
        " ".join(header),
    ]
    for x, make in points:
        ms, calls = _bench_point(make, chains, length,
                                 "%s|%s%s" % (args.seed, xcol, x))
        row = [str(x)]
        row += ["%.3f" % ms[n] for n in names]
        row += ["%.6f" % calls[n] for n in names]
        lines.append(" ".join(row))
        print(lines[-1], file=sys.stderr)
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")
    print(out)
    return 0


# -- selftest ---------------------------------------------------------------

def _check(cond, what: str):
    """Raise when a self check fails; unlike assert, survives python -O."""
    if not cond:
        raise AssertionError(what)


def _small_fields():
    return [
        make_field(2, 2, [Poly([0, 0, 0, 1], 2), Poly([1], 2)]),
        make_field(5, 2, [Poly([0, -1, 0, -1], 5), Poly([], 5)]),
        make_field(5, 3, [Poly([1, 4, 3, 4, 1, 1], 5),
                          Poly([4, 4, 1], 5), Poly([3, 4, 4], 5)]),
    ]


def _random_elem(field, rng) -> FFElem:
    while True:
        num = [Poly([rng.randrange(field.p) for _ in range(3)], field.p)
               for _ in range(field.n)]
        e = FFElem(field, num, Poly([rng.randrange(field.p), 1], field.p))
        if not e.is_zero():
            return e


def _check_group_axioms():
    for field in _small_fields():
        ctx = JacobianCtx(field)
        rng = random.Random("axioms|%d" % field.p)
        xs = [random_class(ctx, rng) for _ in range(4)]
        z = ctx.zero()
        for x in xs:
            _check(ctx.add(x, z) == x, "x + 0 != x")
            _check(ctx.add(x, ctx.neg(x)) == z, "x - x != 0")
        a, b, c = xs[0], xs[1], xs[2]
        _check(ctx.add(a, b) == ctx.add(b, a), "a + b != b + a")
        _check(ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c)),
               "(a + b) + c != a + (b + c)")


def _check_class_invariance():
    for field in _small_fields():
        ctx = JacobianCtx(field)
        rng = random.Random("classes|%d" % field.p)
        for _ in range(3):
            x = random_class(ctx, rng)
            D = x.class_divisor(ctx.a_index)
            h = _random_elem(field, rng)
            _check(ctx.reduce_divisor(D + principal_divisor(field, h)) == x,
                   "reduction differs on D + div(h)")


def _check_reduction_invariants():
    for field in _small_fields():
        ctx = JacobianCtx(field)
        rng = random.Random("invariants|%d" % field.p)
        A = Divisor.from_place(ctx.A)
        for _ in range(3):
            x = random_class(ctx, rng)
            dt = x.reduced_divisor()
            _check(0 <= x.r <= ctx.g, "r outside 0..g")
            _check(dt.is_effective(), "D~ not effective")
            _check(x.vec[ctx.a_index] == 0, "A in the support of D~")
            _check(dt.degree() == x.r, "deg D~ != r")
            _check(rr_dim(field, dt - A) == 0, "l(D~ - A) != 0")
            _check(rr_dim(field, dt) <= 1, "l(D~) > 1")


def _check_strategy_cache_equivalence():
    for field in _small_fields():
        ctxs = [JacobianCtx(field, strategy=s, caching=c)
                for s, c in CONFIGS]
        rng = random.Random("equiv|%d" % field.p)
        x = random_class(ctxs[0], rng)
        y = random_class(ctxs[0], rng)
        sums = [ctx.add(x, y) for ctx in ctxs]
        _check(all(s == sums[0] for s in sums[1:]),
               "configurations disagree on x + y")


def _check_oracle_equivalence():
    for field in _small_fields():
        lin = JacobianCtx(field, strategy="linear")
        bino = JacobianCtx(field, strategy="binary")
        rng = random.Random("oracle|%d" % field.p)
        for _ in range(4):
            x = random_class(lin, rng)
            D = x.class_divisor(lin.a_index)
            r, _ = brute_hr_min(lin, D)
            _check(x.r == r, "r differs from the brute-force minimum")
            _check(bino.reduce_divisor(D) == x,
                   "binary search disagrees with linear")


def _check_order_annihilation():
    for field in _small_fields()[:2]:
        h = jacobian_order(field)
        ctx = JacobianCtx(field)
        rng = random.Random("orders|%d" % field.p)
        for _ in range(4):
            _check(ctx.scalar_mul(h, random_class(ctx, rng)) == ctx.zero(),
                   "h * x != 0")


def cmd_selftest(args, parser):
    checks = [
        ("group_axioms", _check_group_axioms),
        ("class_invariance", _check_class_invariance),
        ("reduction_invariants", _check_reduction_invariants),
        ("strategy_cache_equivalence", _check_strategy_cache_equivalence),
    ]
    if args.level == "full":
        checks += [
            ("oracle_equivalence", _check_oracle_equivalence),
            ("order_annihilation", _check_order_annihilation),
        ]
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:
            failed += 1
            print("FAIL %s (%s: %s)" % (name, type(exc).__name__, exc))
        else:
            print("PASS %s" % name)
    return 1 if failed else 0


# -- reduce -----------------------------------------------------------------

def cmd_reduce(args, parser):
    try:
        field, _ = read_field(args.field)
        ctx = JacobianCtx(field, strategy=args.strategy, caching=args.cache)
        if args.divisor == "-":
            d = json.load(sys.stdin)
        else:
            with open(args.divisor) as fh:
                d = json.load(fh)
        e = ctx.reduce_divisor(Divisor.from_dict(field, d))
    except (OSError, ValueError) as exc:
        print("ffjac reduce: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"r": e.r,
                      "reduced_divisor": e.reduced_divisor().to_dict()}))
    return 0


# -- argument tree ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffjac",
        description="Jacobian arithmetic in global function fields")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate field files")
    g.add_argument("--method", choices=("tang", "adhoc"), default="tang")
    g.add_argument("--p", type=int, default=32771)
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--cf", type=int, default=2,
                   help="twist degree for the tang family")
    g.add_argument("--cf-max", type=int, default=3,
                   help="coefficient degree bound for adhoc")
    g.add_argument("--genus", type=int, default=None,
                   help="exact genus target for adhoc")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", default="0")
    g.add_argument("--out", default=".")
    g.set_defaults(fn=cmd_gen)

    b = sub.add_parser("bench", help="run addition-chain benchmarks")
    b.add_argument("--preset",
                   choices=("fig1", "fig2", "fig1-small", "fig2-small"))
    b.add_argument("--fields", nargs="+",
                   help="field files to sweep instead of a preset")
    b.add_argument("--chains", type=int, default=None,
                   help="chains per sweep point (default 5, small presets 2)")
    b.add_argument("--chain-length", type=int, default=None,
                   help="additions per chain (default 1000, small 30)")
    b.add_argument("--seed", default="0")
    b.add_argument("--out", default="bench.dat")
    b.set_defaults(fn=cmd_bench)

    s = sub.add_parser("selftest", help="run built-in property checks")
    s.add_argument("--level", choices=("quick", "full"), default="quick")
    s.set_defaults(fn=cmd_selftest)

    r = sub.add_parser("reduce", help="reduce one degree-zero divisor")
    r.add_argument("--field", required=True)
    r.add_argument("--divisor", default="-",
                   help="divisor JSON file, - for stdin")
    r.add_argument("--strategy", choices=("linear", "binary"),
                   default="linear")
    r.add_argument("--cache", action=argparse.BooleanOptionalAction,
                   default=True)
    r.set_defaults(fn=cmd_reduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args, parser)


if __name__ == "__main__":
    sys.exit(main())
