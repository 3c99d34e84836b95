import hashlib
import itertools
import math
import random

import pytest

from ffjac.field import make_field, FFElem
from ffjac.fieldgen import read_field
from ffjac.polys import Poly, enumerate_monic_irreducibles
from ffjac.divisors import (Divisor, infinite_places, finite_places_above,
                            principal_divisor)
import ffjac.jacobian
from ffjac.jacobian import JacobianCtx, random_class as random_jac_class
from helpers import element_of_place
from test_divisors import small_fields
from test_orders import PERFBENCH_FIELDS


def elliptic5():
    return make_field(5, 2, [Poly([0, -1, 0, -1], 5), Poly([], 5)])


def hyper7():
    # y^2 = x^5 + 1, genus 2
    return make_field(7, 2, [Poly([-1, 0, 0, 0, 0, -1], 7), Poly([], 7)])


def genus4_field():
    return make_field(5, 3, [Poly([1, 4, 3, 4, 1, 1], 5),
                             Poly([4, 4, 1], 5), Poly([3, 4, 4], 5)])


def place_pool(field, max_deg=2):
    pool = []
    degs = range(1, max_deg + 1)
    for d in degs:
        for q in enumerate_monic_irreducibles(field.p, d):
            pool.extend(pl for pl in finite_places_above(field, q)
                        if pl.degree() <= max_deg)
    return pool


def random_class(ctx, pool, rng):
    field = ctx.field
    D = Divisor.zero(field)
    deg = 0
    for _ in range(rng.randrange(1, 4)):
        pl = rng.choice(pool)
        m = rng.randrange(1, 3)
        D = D + Divisor.from_place(pl, m)
        deg += m * pl.degree()
    return ctx.reduce_divisor(D - Divisor.from_place(ctx.A, deg))


def test_two_torsion_group_table():
    field = elliptic5()
    ctx = JacobianCtx(field)
    z = ctx.zero()
    pts = [finite_places_above(field, Poly([-c, 1], 5))[0] for c in (0, 2, 3)]
    x0, x2, x3 = (element_of_place(ctx, pl) for pl in pts)
    assert len({z.key(), x0.key(), x2.key(), x3.key()}) == 4
    assert ctx.add(x0, x0) == z
    assert ctx.add(x2, x2) == z
    assert ctx.add(x0, x2) == x3
    assert ctx.add(x2, x3) == x0
    assert ctx.neg(x0) == x0
    assert ctx.scalar_mul(2, x3) == z
    assert ctx.scalar_mul(5, x0) == x0
    assert ctx.add(ctx.add(x0, x2), x3) == z


def test_group_axioms_genus_four():
    field = genus4_field()
    ctx = JacobianCtx(field)
    pool = place_pool(field)
    rng = random.Random(42)
    xs = [random_class(ctx, pool, rng) for _ in range(6)]
    z = ctx.zero()
    for x in xs:
        assert 0 <= x.r <= ctx.g
        assert ctx.add(x, z) == x
        assert ctx.add(x, ctx.neg(x)) == z
        assert ctx.neg(ctx.neg(x)) == x
    for a, b in itertools.combinations(xs[:4], 2):
        assert ctx.add(a, b) == ctx.add(b, a)
    for a, b, c in [(xs[0], xs[1], xs[2]), (xs[3], xs[4], xs[5])]:
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))


def test_reduction_constant_on_divisor_classes():
    field = genus4_field()
    ctx = JacobianCtx(field)
    pool = place_pool(field)
    rng = random.Random(7)
    for _ in range(4):
        D = Divisor.zero(field)
        deg = 0
        for _ in range(2):
            pl = rng.choice(pool)
            D = D + Divisor.from_place(pl, 1)
            deg += pl.degree()
        D = D - Divisor.from_place(ctx.A, deg)
        num = [Poly([rng.randrange(5) for _ in range(3)], 5)
               for _ in range(field.n)]
        h = FFElem(field, num, Poly([rng.randrange(5), 1], 5))
        assert ctx.reduce_divisor(D) == ctx.reduce_divisor(
            D + principal_divisor(field, h))


def test_strategy_and_caching_equivalence():
    field = genus4_field()
    ctxs = [JacobianCtx(field, strategy=s, caching=c)
            for s in ("linear", "binary") for c in (True, False)]
    pool = place_pool(field)
    rng = random.Random(3)
    xs = [random_class(ctxs[0], pool, rng) for _ in range(4)]
    for a, b in itertools.combinations(xs, 2):
        results = [ctx.add(a, b) for ctx in ctxs]
        assert all(res == results[0] for res in results[1:])
    negs = [ctx.neg(xs[0]) for ctx in ctxs]
    assert all(ng == negs[0] for ng in negs[1:])


def record_ssrr_steps(monkeypatch):
    """List that receives the row_reduce steps of every shortcut search."""
    steps = []
    search = ffjac.jacobian.ssrr_reduce

    def recorded(*args):
        out = search(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(ffjac.jacobian, "ssrr_reduce", recorded)
    return steps


def test_typical_addition_counters(monkeypatch):
    field = genus4_field()
    g = 4
    lin = JacobianCtx(field, strategy="linear")
    bino = JacobianCtx(field, strategy="binary")
    pool = place_pool(field)
    rng = random.Random(42)
    xs = [random_class(lin, pool, rng) for _ in range(10)]
    full = [x for x in xs if x.r == g]
    steps = record_ssrr_steps(monkeypatch)
    lin_steps, bin_steps = [], []
    for a, b in itertools.combinations(full, 2):
        lin.counters.reset()
        del steps[:]
        s = lin.add(a, b)
        if s.r != g:
            continue
        assert lin.counters.ssrr_calls == 2
        assert lin.counters.heights == [3 * g + 1, 3 * g]
        assert lin.counters.row_reduce_steps == sum(steps)
        # the second query starts from the basis the first one reduced
        assert steps[1] < steps[0]
        lin_steps.append(list(steps))
        bino.counters.reset()
        del steps[:]
        s2 = bino.add(a, b)
        assert s2 == s
        assert bino.counters.ssrr_calls == math.ceil(math.log2(g + 1))
        assert bino.counters.row_reduce_steps == sum(steps)
        bin_steps.append(list(steps))
        if len(lin_steps) >= 3:
            break
    assert lin_steps == [[17, 0], [19, 0], [15, 0]]
    # binary queries all start cold
    assert bin_steps == [[22, 17, 16], [21, 19, 16], [19, 15, 14]]
    bino.counters.reset()
    assert bino.counters.as_dict()["row_reduce_steps"] == 0


# sha256 of (fin key, r, vec) along a 24-addition chain, recorded when
# row_reduce still reduced every coefficient mod p at every update (the
# degree-3 fields) and when hnf_square, in_lattice and _vm still did
# (add-chain-n6)
CHAIN_DIGESTS = {
    "reduce-q7-g3":
        "4e52395b4cb23a9796505d258568868e50c0d7eac56c25142d444d3382bd18ec",
    "add-chain-g28":
        "2e3c5dd4efa16d39826b280ae7fc95adc156a4677c33532a6ae022e8c059592d",
    "add-chain-n6":
        "964e80c870e82caabe27fc712de52e32b58ce4419f5a4d69760cbba8a723336b",
}

# ctx.counters.as_dict() at the end of the same chains, recorded before
# Poly and the matrix kernels shared one packed representation
CHAIN_COUNTERS = {
    "reduce-q7-g3": {
        "ssrr_calls": 53, "partial_additions": 66, "ssrr_cache_hits": 42,
        "ssrr_cache_misses": 11, "infinite_cache_hits": 60,
        "infinite_cache_misses": 16, "row_reduce_steps": 266},
    "add-chain-g28": {
        "ssrr_calls": 52, "partial_additions": 57, "ssrr_cache_hits": 46,
        "ssrr_cache_misses": 6, "infinite_cache_hits": 69,
        "infinite_cache_misses": 7, "row_reduce_steps": 4346},
    "add-chain-n6": {
        "ssrr_calls": 52, "partial_additions": 57, "ssrr_cache_hits": 46,
        "ssrr_cache_misses": 6, "infinite_cache_hits": 69,
        "infinite_cache_misses": 7, "row_reduce_steps": 6045},
}


@pytest.mark.parametrize("name", sorted(CHAIN_DIGESTS))
def test_addition_chain_representatives_pinned(name):
    # F_7 at genus 3, F_32771 at genus 28 and, of degree 6, at genus 11: a
    # Fibonacci chain d[k+1] = d[k-1] + d[k] from two random classes
    field = read_field(PERFBENCH_FIELDS / (name + ".json"))[0]
    ctx = JacobianCtx(field)
    rng = random.Random("pinned-chain")
    chain = [random_jac_class(ctx, rng), random_jac_class(ctx, rng)]
    for _ in range(24):
        chain.append(ctx.add(chain[-2], chain[-1]))
    digest = hashlib.sha256()
    for x in chain:
        digest.update(x.fin.key())
        digest.update(repr((x.r, x.vec)).encode())
    assert digest.hexdigest() == CHAIN_DIGESTS[name]
    assert ctx.counters.as_dict() == CHAIN_COUNTERS[name]


def test_warm_start_answers_as_a_cold_start(monkeypatch):
    """A query may start from the basis an earlier query of the same
    reduction left; its answer must be the one a cold start on the same
    finite module and profile gives: both None or the same normalized
    function."""
    search = ffjac.jacobian.ssrr_reduce
    start = ffjac.jacobian.finite_basis
    cold = []
    compared = {"cold": 0, "warm": 0}

    def cold_start(field, iinv):
        cold[:] = [start(field, iinv)]
        return cold[0]

    def checked(field, basis, profile):
        out = search(field, basis, profile)
        ref = search(field, cold[0], profile)[0]
        if ref is None:
            assert out[0] is None
        else:
            assert out[0] is not None
            assert out[0].num == ref.num and out[0].den == ref.den
        compared["cold" if basis is cold[0] else "warm"] += 1
        return out

    monkeypatch.setattr(ffjac.jacobian, "finite_basis", cold_start)
    monkeypatch.setattr(ffjac.jacobian, "ssrr_reduce", checked)
    for field in small_fields() + [genus4_field()]:
        pool = place_pool(field)
        for strategy in ("linear", "binary"):
            ctx = JacobianCtx(field, strategy=strategy)
            rng = random.Random(13)
            xs = [random_class(ctx, pool, rng) for _ in range(3)]
            for a, b in itertools.combinations(xs, 2):
                ctx.add(a, b)
            ctx.neg(xs[0])
    # cold first queries and warm later ones were both compared
    assert compared["cold"] > 0 and compared["warm"] > 0


def test_worst_case_call_bound():
    field = genus4_field()
    ctx = JacobianCtx(field)
    ctx.counters.reset()
    z = ctx.add(ctx.zero(), ctx.zero())
    assert z == ctx.zero()
    assert ctx.counters.ssrr_calls <= ctx.g + 1


def test_counters_stay_with_their_context():
    field = elliptic5()
    c1 = JacobianCtx(field)
    c2 = JacobianCtx(field)
    pl = finite_places_above(field, Poly([0, 1], 5))[0]
    x = element_of_place(c1, pl)
    c1.counters.reset()
    c2.counters.reset()
    c1.add(x, x)
    assert c2.counters.ssrr_calls == 0
    assert c2.counters.partial_additions == 0
    assert c1.counters.ssrr_calls > 0


def test_infinite_place_classes():
    field = genus4_field()
    ctx = JacobianCtx(field)
    other = infinite_places(field)[1]
    x = element_of_place(ctx, other)
    z = ctx.zero()
    assert x != z
    assert ctx.add(x, ctx.neg(x)) == z
    assert ctx.scalar_mul(0, x) == z


def test_scalar_multiplication_ladder():
    field = genus4_field()
    ctx = JacobianCtx(field)
    pool = place_pool(field)
    rng = random.Random(11)
    x = random_class(ctx, pool, rng)
    acc = ctx.zero()
    for k in range(1, 6):
        acc = ctx.add(acc, x)
        assert ctx.scalar_mul(k, x) == acc
    assert ctx.scalar_mul(-3, x) == ctx.neg(ctx.scalar_mul(3, x))


def test_elements_of_different_fields_differ():
    z5 = JacobianCtx(elliptic5()).zero()
    z7 = JacobianCtx(hyper7()).zero()
    # both are the unit ideal pair, so their canonical bytes agree
    assert z5.key() == z7.key()
    assert z5 != z7


def test_full_memo_stops_inserting_and_stays_correct(monkeypatch):
    monkeypatch.setattr(ffjac.jacobian, "MEMO_CAP", 2)
    field = genus4_field()
    capped = JacobianCtx(field)
    plain = JacobianCtx(field, caching=False)
    pool = place_pool(field)
    rng = random.Random(5)
    xs = [random_class(plain, pool, rng) for _ in range(4)]
    capped.counters.reset()
    for a, b in itertools.combinations(xs, 2):
        assert capped.add(a, b) == plain.add(a, b)
    assert len(capped.inf_add_cache) == 2
    assert len(capped.ssrr_profiles) == 2
    counts = capped.counters.as_dict()
    assert counts["infinite_cache_misses"] > 2
    assert counts["ssrr_cache_misses"] > 2


def test_heights_hold_only_the_latest_reduction():
    field = genus4_field()
    ctx = JacobianCtx(field)
    pool = place_pool(field)
    rng = random.Random(42)
    xs = [random_class(ctx, pool, rng) for _ in range(3)]
    for x in xs:
        ctx.add(x, x)
        assert 1 <= len(ctx.counters.heights) <= ctx.g + 1
    assert ctx.counters.ssrr_calls > len(ctx.counters.heights)


def test_broken_reduction_raises_arithmetic_error(monkeypatch):
    field = elliptic5()
    ctx = JacobianCtx(field)
    pl = finite_places_above(field, Poly([0, 1], 5))[0]
    valuations = ffjac.jacobian.infinite_valuations

    def shifted(fld, a):
        return tuple(v + 1 for v in valuations(fld, a))

    monkeypatch.setattr(ffjac.jacobian, "infinite_valuations", shifted)
    with pytest.raises(ArithmeticError):
        element_of_place(ctx, pl)
