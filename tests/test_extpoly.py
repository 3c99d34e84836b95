import random

import pytest

from ffjac.extpoly import (
    Fq,
    fqp_add,
    fqp_deg,
    fqp_divmod,
    fqp_factor,
    fqp_gcd,
    fqp_monic,
    fqp_mul,
    fqp_sub,
)
from ffjac.polys import Poly, enumerate_monic_irreducibles
from helpers import half_xgcd


def gf(p, d):
    """GF(p^d) on the first monic irreducible of degree d."""
    return Fq(next(enumerate_monic_irreducibles(p, d)))


def test_fq_field_ops():
    ctx = gf(5, 3)
    assert ctx.order == 125
    rng = random.Random(1)
    for _ in range(50):
        a = ctx.rand(rng)
        if a.is_zero():
            continue
        assert ctx.mul(a, ctx.inv(a)) == ctx.one()
    # Frobenius fixed field: a^q == a for every element
    for _ in range(10):
        a = ctx.rand(rng)
        assert ctx.pow(a, 125) == a


def test_fq_degree_one_matches_prime_field():
    ctx = gf(7, 1)
    a = Poly([3], 7)
    b = Poly([5], 7)
    assert ctx.mul(a, b) == Poly([1], 7)
    assert ctx.inv(a) == Poly([5], 7)


def rand_fqp(ctx, rng, dmax):
    out = [ctx.rand(rng) for _ in range(rng.randrange(1, dmax + 2))]
    while out and out[-1].is_zero():
        out.pop()
    return out


def test_fqp_divmod_roundtrip():
    ctx = gf(3, 2)
    rng = random.Random(2)
    for _ in range(60):
        f = rand_fqp(ctx, rng, 6)
        g = rand_fqp(ctx, rng, 3)
        if not g:
            continue
        q, r = fqp_divmod(ctx, f, g)
        assert fqp_deg(r) < fqp_deg(g)
        back = fqp_add(ctx, fqp_mul(ctx, q, g), r)
        assert back == f


def test_fqp_factor_roundtrip_and_irreducibility():
    for (p, d) in [(2, 2), (3, 2), (5, 2), (2, 4)]:
        ctx = gf(p, d)
        rng = random.Random(p * 10 + d)
        for _ in range(12):
            f = rand_fqp(ctx, rng, 5)
            if fqp_deg(f) < 1:
                continue
            lead, facs = fqp_factor(ctx, f, seed=7)
            prod = [lead]
            for irr, m in facs:
                assert fqp_factor(ctx, irr) == (ctx.one(), [(irr, 1)])
                assert irr[-1] == ctx.one()
                for _ in range(m):
                    prod = fqp_mul(ctx, prod, irr)
            assert prod == f


def test_fqp_factor_char_p_powers():
    # (t + z)^4 over GF(4), z a generator: derivative vanishes twice
    ctx = gf(2, 2)
    z = Poly.x(2)
    lin = [z, ctx.one()]
    f = [ctx.one()]
    for _ in range(4):
        f = fqp_mul(ctx, f, lin)
    lead, facs = fqp_factor(ctx, f)
    assert lead == ctx.one()
    assert facs == [(lin, 4)]


def test_fqp_factor_deterministic():
    ctx = gf(3, 3)
    rng = random.Random(9)
    f = rand_fqp(ctx, rng, 8)
    while fqp_deg(f) < 4:
        f = rand_fqp(ctx, rng, 8)
    assert fqp_factor(ctx, f, seed=5) == fqp_factor(ctx, f, seed=5)


def test_fqp_gcd_common_factor():
    ctx = gf(2, 3)
    rng = random.Random(4)
    common = rand_fqp(ctx, rng, 3)
    while fqp_deg(common) < 2:
        common = rand_fqp(ctx, rng, 3)
    common = fqp_monic(ctx, common)
    a = fqp_mul(ctx, common, rand_fqp(ctx, rng, 2) or [ctx.one()])
    b = fqp_mul(ctx, common, rand_fqp(ctx, rng, 2) or [ctx.one()])
    g = fqp_gcd(ctx, a, b)
    _, r = fqp_divmod(ctx, g, common)
    assert not r  # common divides gcd


def test_fqp_is_irreducible_counts():
    # number of monic irreducible quadratics over GF(q) is (q^2 - q) / 2
    ctx = gf(2, 2)
    q = 4
    elems = []
    for i in range(2):
        for j in range(2):
            elems.append(Poly([i, j], 2))
    count = 0
    for c0 in elems:
        for c1 in elems:
            f = [c0, c1, ctx.one()]
            if fqp_factor(ctx, f)[1] == [(f, 1)]:
                count += 1
    assert count == (q * q - q) // 2


def test_fqp_factor_zero_raises():
    ctx = gf(3, 2)
    with pytest.raises(ValueError):
        fqp_factor(ctx, [])


def test_half_xgcd_bezout_over_fq():
    rng = random.Random(11)
    ctx = gf(3, 2)
    for _ in range(20):
        f, g = rand_fqp(ctx, rng, 5), rand_fqp(ctx, rng, 4)
        if not g:
            continue
        r, s = half_xgcd(ctx, f, g)
        assert fqp_monic(ctx, r) == fqp_gcd(ctx, f, g)
        assert fqp_divmod(ctx, fqp_sub(ctx, fqp_mul(ctx, s, f), r), g)[1] == []
