"""End-to-end checks of the package's stated guarantees.

One test per guarantee, each printing a single checklist line so a
verbose run reads as a report.  The two timing-sensitive checks carry
the perf marker; everything else is exact and deterministic.
"""

import math
import random
import time

import pytest

from ffjac.divisors import Divisor, finite_places_above, principal_divisor
from ffjac.field import FFElem, make_field
from ffjac.fieldgen import expected_structured_genus, gen_random, gen_structured
from ffjac.jacobian import JacobianCtx, random_class
from ffjac.oracles import brute_hr_min, jacobian_order
from ffjac.polys import Poly
from ffjac.riemann_roch import rr_basis, rr_dim
from helpers import finite_support


@pytest.fixture(scope="session")
def corpus():
    """Five fields spanning (genus, degree) pairs, all over F_32771."""
    return [
        ("g2n2", gen_structured(32771, 2, 3, seed="acc:g2",
                                exact_genus=True)),
        ("g4n3", gen_structured(32771, 3, 2, seed="acc:g4",
                                exact_genus=True)),
        ("g7n3", gen_structured(32771, 3, 3, seed="acc:g7",
                                exact_genus=True)),
        ("g15n4", gen_random(32771, 4, 3, seed="acc:g15", genus=15)),
        ("g10n2", gen_structured(32771, 2, 11, seed="acc:g10",
                                 exact_genus=True)),
    ]


def _finish(capsys, num, name, failures, detail):
    tag = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print("[%2d/10] %s: %s (%s)" % (num, name, tag, detail))
    assert not failures, (name, failures[:5])


def _pool(ctx, rng, size):
    return [random_class(ctx, rng) for _ in range(size)]


def _random_elem(field, rng) -> FFElem:
    while True:
        num = [Poly([rng.randrange(field.p) for _ in range(3)], field.p)
               for _ in range(field.n)]
        e = FFElem(field, num, Poly([rng.randrange(field.p), 1], field.p))
        if not e.is_zero():
            return e


def _random_zero_divisor(ctx, rng) -> Divisor:
    field = ctx.field
    D = Divisor.zero(field)
    for _ in range(rng.randrange(1, 3)):
        q = Poly([rng.randrange(field.p), 1], field.p)
        pl = rng.choice(finite_places_above(field, q))
        D = D + Divisor.from_place(pl, 1) - Divisor.from_place(
            ctx.A, pl.degree())
    return D


def test_01_group_axioms(corpus, capsys):
    failures = []
    triples = 0
    for tag, field in corpus:
        ctx = JacobianCtx(field)
        rng = random.Random("axioms|" + tag)
        pool = _pool(ctx, rng, 12)
        z = ctx.zero()
        for x in pool:
            if ctx.add(x, z) != x:
                failures.append((tag, "identity"))
            if ctx.add(x, ctx.neg(x)) != z:
                failures.append((tag, "inverse"))
        for _ in range(100):
            a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
            if ctx.add(ctx.add(a, b), c) != ctx.add(a, ctx.add(b, c)):
                failures.append((tag, "associativity"))
            triples += 1
    _finish(capsys, 1, "group axioms on 5 fields", failures,
            "%d associativity triples, %d fields" % (triples, len(corpus)))


def test_02_unique_representatives(corpus, capsys):
    failures = []
    checked = 0
    for tag, field in corpus:
        ctx = JacobianCtx(field)
        rng = random.Random("unique|" + tag)
        for _ in range(50):
            x = random_class(ctx, rng)
            D = x.class_divisor(ctx.a_index)
            h = _random_elem(field, rng)
            if ctx.reduce_divisor(D + principal_divisor(field, h)) != x:
                failures.append((tag, "shifted reduction differs"))
            checked += 1
    _finish(capsys, 2, "representative unique per class", failures,
            "%d random (D, h) pairs" % checked)


def test_03_reduction_invariants(corpus, capsys):
    failures = []
    outputs = 0
    for tag, field in corpus:
        ctx = JacobianCtx(field)
        rng = random.Random("inv|" + tag)
        A = Divisor.from_place(ctx.A)
        pool = _pool(ctx, rng, 8)
        outs = list(pool)
        outs += [ctx.add(pool[i], pool[i + 1]) for i in range(6)]
        outs += [ctx.neg(pool[i]) for i in range(4)]
        for x in outs:
            outputs += 1
            dt = x.reduced_divisor()
            if not dt.is_effective():
                failures.append((tag, "not effective"))
            if x.vec[ctx.a_index] != 0:
                failures.append((tag, "A in support"))
            if not 0 <= x.r <= ctx.g or dt.degree() != x.r:
                failures.append((tag, "degree out of range"))
            if rr_dim(field, dt - A) != 0:
                failures.append((tag, "l(D - A) nonzero"))
            if rr_dim(field, dt) > 1:
                failures.append((tag, "l(D) above one"))
    _finish(capsys, 3, "reduction output invariants", failures,
            "%d outputs, 5 invariants each" % outputs)


def test_04_search_matches_brute_force(corpus, capsys):
    failures = []
    checked = div_checked = 0
    for tag, field in corpus:
        lin = JacobianCtx(field, strategy="linear")
        bino = JacobianCtx(field, strategy="binary")
        rng = random.Random("brute|" + tag)
        for _ in range(100):
            D = _random_zero_divisor(lin, rng)
            r, a = brute_hr_min(lin, D)
            el = lin.reduce_divisor(D)
            eb = bino.reduce_divisor(D)
            checked += 1
            if el.r != r or eb.r != r or el != eb:
                failures.append((tag, "r mismatch"))
                continue
            dim, _ = rr_basis(field, D + Divisor.from_place(lin.A, r))
            if dim == 1:
                div_checked += 1
                want = D + principal_divisor(field, a) + \
                    Divisor.from_place(lin.A, r)
                if el.reduced_divisor() != want:
                    failures.append((tag, "witness divisor mismatch"))
    _finish(capsys, 4, "both searches match brute force", failures,
            "%d divisors, %d witness checks" % (checked, div_checked))


def test_05_typical_case_frequency(corpus, capsys):
    failures = []
    n = 1000
    field_big = dict(corpus)["g4n3"]
    ctx = JacobianCtx(field_big)
    rng = random.Random(56)
    pool = _pool(ctx, rng, 40)
    big = sum(ctx.add(pool[rng.randrange(40)],
                      pool[rng.randrange(40)]).r == ctx.g
              for _ in range(n)) / n
    if big < 0.99:
        failures.append("q=32771 fraction %.4f below 0.99" % big)
    F5 = gen_structured(5, 3, 2, seed="acc:q5", exact_genus=True)
    ctx5 = JacobianCtx(F5)
    rng5 = random.Random(55)
    pool5 = _pool(ctx5, rng5, 40)
    small = sum(ctx5.add(pool5[rng5.randrange(40)],
                         pool5[rng5.randrange(40)]).r == ctx5.g
                for _ in range(n)) / n
    if abs(small - 0.8) > 0.10:
        failures.append("q=5 fraction %.3f outside 0.8 +- 0.10" % small)
    _finish(capsys, 5, "full-degree output frequency", failures,
            "q=32771: %.4f, q=5: %.3f over %d additions each" % (
                big, small, n))


def test_06_exact_operation_counts(corpus, capsys):
    failures = []
    verified = 0
    for tag, field in corpus:
        lin = JacobianCtx(field, strategy="linear")
        bino = JacobianCtx(field, strategy="binary")
        g = lin.g
        rng = random.Random("count|" + tag)
        pool = _pool(lin, rng, 8)
        done = 0
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                x, y = pool[i], pool[j]
                if x.r != g or y.r != g:
                    continue
                sup_x = {pl.key() for pl, _ in
                         finite_support(x.reduced_divisor())}
                sup_y = {pl.key() for pl, _ in
                         finite_support(y.reduced_divisor())}
                if sup_x & sup_y:
                    continue
                lin.counters.reset()
                s = lin.add(x, y)
                if s.r != g:
                    continue
                if lin.counters.ssrr_calls != 2:
                    failures.append((tag, "linear calls",
                                     lin.counters.ssrr_calls))
                if lin.counters.heights != [3 * g + 1, 3 * g]:
                    failures.append((tag, "heights", lin.counters.heights))
                bino.counters.reset()
                s2 = bino.add(x, y)
                want = math.ceil(math.log2(g + 1))
                if bino.counters.ssrr_calls != want:
                    failures.append((tag, "binary calls",
                                     bino.counters.ssrr_calls))
                if s2 != s:
                    failures.append((tag, "strategy results differ"))
                done += 1
                verified += 1
                if done >= 3:
                    break
            if done >= 3:
                break
        if done == 0:
            failures.append((tag, "no typical disjoint pair found"))
    _finish(capsys, 6, "typical additions hit exact call counts", failures,
            "%d disjoint-support additions across 5 fields" % verified)


def _strategy_ratio(field, seed, warm, n):
    """Binary over linear ms/add, each side the faster of two n-addition
    blocks after `warm` additions.  The two sides' blocks alternate, so a
    machine slowdown that spans a block cannot land on one side only."""
    setup = JacobianCtx(field)
    rng = random.Random(seed)
    c0 = random_class(setup, rng)
    c1 = random_class(setup, rng)
    chains = {}
    for strategy in ("linear", "binary"):
        ctx = JacobianCtx(field, strategy=strategy, caching=False)
        d0, d1 = c0, c1
        for _ in range(warm):
            d0, d1 = d1, ctx.add(d0, d1)
        chains[strategy] = (ctx, d0, d1)
    times = {}
    for _ in range(2):
        for strategy, (ctx, d0, d1) in chains.items():
            t0 = time.process_time()
            for _ in range(n):
                d0, d1 = d1, ctx.add(d0, d1)
            dt = (time.process_time() - t0) * 1000.0 / n
            chains[strategy] = (ctx, d0, d1)
            times[strategy] = min(times.get(strategy, dt), dt)
    return times["binary"] / times["linear"], times


def test_07_linear_beats_binary_midsize(capsys):
    # timing based, but with wide margin: uncached at g=55 the binary
    # search performs 5 full-size queries per addition against 1
    failures = []
    F7 = gen_structured(32771, 3, 3, seed="acc:g7", exact_genus=True)
    F55 = gen_structured(32771, 3, 19, seed="acc:g55", exact_genus=True)
    r7, _ = _strategy_ratio(F7, 77, 3, 10)
    r55, t55 = _strategy_ratio(F55, 75, 3, 10)
    if r55 < 1.8:
        failures.append("g=55 ratio %.2f below 1.8" % r55)
    if r55 <= r7:
        failures.append("ratio did not grow: g=7 %.2f vs g=55 %.2f" % (
            r7, r55))
    _finish(capsys, 7, "binary/linear time ratio grows with genus", failures,
            "g=7: %.2f, g=55: %.2f, linear %.0f ms/add" % (
                r7, r55, t55["linear"]))


@pytest.mark.perf
def test_07_linear_beats_binary_large(capsys):
    failures = []
    F7 = gen_structured(32771, 3, 3, seed="acc:g7", exact_genus=True)
    F100 = gen_structured(32771, 3, 34, seed="acc:g100", exact_genus=True)
    r7, _ = _strategy_ratio(F7, 77, 3, 10)
    r100, t100 = _strategy_ratio(F100, 70, 2, 8)
    if not 2.0 <= r100 <= 4.5:
        failures.append("g=100 ratio %.2f outside [2.0, 4.5]" % r100)
    if r100 <= r7 + 0.5:
        failures.append("no clear growth: g=7 %.2f vs g=100 %.2f" % (
            r7, r100))
    _finish(capsys, 7, "ratio lands in window at genus 100", failures,
            "g=7: %.2f, g=100: %.2f, linear %.0f ms/add" % (
                r7, r100, t100["linear"]))


def test_08_caching_transparent_and_bounded(corpus, capsys):
    failures = []
    for tag, field in corpus:
        ctxs = [JacobianCtx(field, strategy=s, caching=c)
                for s in ("linear", "binary") for c in (True, False)]
        rng = random.Random("cache|" + tag)
        pool = _pool(ctxs[0], rng, 5)
        for i in range(4):
            sums = [ctx.add(pool[i], pool[i + 1]) for ctx in ctxs]
            if any(s != sums[0] for s in sums[1:]):
                failures.append((tag, "cached result differs"))
    F25 = gen_structured(32771, 3, 9, seed="acc:g25", exact_genus=True)
    ctx = JacobianCtx(F25, strategy="linear", caching=True)
    rng = random.Random(25)
    d0 = random_class(ctx, rng)
    d1 = random_class(ctx, rng)
    for _ in range(5000):
        d0, d1 = d1, ctx.add(d0, d1)
    inf_size = len(ctx.inf_add_cache)
    ssrr_size = len(ctx.ssrr_profiles)
    if inf_size > 500:
        failures.append("infinite-part cache grew to %d" % inf_size)
    if ssrr_size > 500:
        failures.append("profile cache grew to %d" % ssrr_size)
    _finish(capsys, 8, "caching transparent, cache growth bounded", failures,
            "after 5000 additions at g=25: %d and %d entries" % (
                inf_size, ssrr_size))


def test_09_tiny_field_orders(capsys):
    failures = []
    curves = [
        ("F2 cubic", make_field(2, 2, [Poly([0, 0, 0, 1], 2),
                                       Poly([1], 2)]), 3),
        ("F2 quintic", make_field(2, 2, [Poly([0, 0, 0, 0, 0, 1], 2),
                                         Poly([1], 2)]), None),
        ("F3 quintic", make_field(3, 2, [Poly([2, 2, 0, 0, 0, 2], 3),
                                         Poly([], 3)]), None),
    ]
    detail = []
    for name, field, expect in curves:
        h = jacobian_order(field)
        if expect is not None and h != expect:
            failures.append((name, "order", h))
        ctx = JacobianCtx(field)
        rng = random.Random(name)
        z = ctx.zero()
        nonzero = 0
        for _ in range(20):
            c = random_class(ctx, rng)
            nonzero += c != z
            if ctx.scalar_mul(h, c) != z:
                failures.append((name, "not annihilated"))
        if nonzero == 0:
            failures.append((name, "all sampled classes were zero"))
        detail.append("%s order %d" % (name, h))
    _finish(capsys, 9, "class numbers annihilate tiny Jacobians", failures,
            "; ".join(detail) + "; 20 classes each")


def test_10_genus_values(capsys, tmp_path):
    failures = []
    F7 = make_field(7, 2, [Poly([-1, 0, 0, 0, 0, -1], 7), Poly([], 7)])
    if F7.genus() != 2:
        failures.append("quintic over F7: genus %d" % F7.genus())
    F5 = make_field(5, 2, [Poly([0, -1, 0, -1], 5), Poly([], 5)])
    if F5.genus() != 1:
        failures.append("cubic over F5: genus %d" % F5.genus())
    from ffjac.cli import main
    import json
    main(["gen", "--method", "tang", "--p", "32771", "--n", "3",
          "--cf", "2", "--seed", "acc", "--out", str(tmp_path)])
    capsys.readouterr()
    meta = json.load(open(tmp_path / "field_tang_p32771_n3_cf2_0.json"))["meta"]
    if meta["genus"] != 4:
        failures.append("structured n=3 cf=2: genus %s" % meta["genus"])
    if meta["genus_bound_attained"] is not True:
        failures.append("genus bound equality not flagged")
    _finish(capsys, 10, "known genus values and bound equality", failures,
            "F7 quintic g2, F5 cubic g1, structured cf=2 g4 flagged")
