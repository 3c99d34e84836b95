import random

import pytest

from ffjac.extpoly import (
    Fq,
    PolyRing,
    RatFuncField,
    fqp_add,
    fqp_deg,
    fqp_divmod,
    fqp_factor,
    fqp_gcd,
    fqp_is_irreducible,
    fqp_monic,
    fqp_mul,
    fqp_sub,
    make_field_ext,
)
from ffjac.polys import Poly, RatFunc
from helpers import half_xgcd


def test_fq_field_ops():
    ctx = make_field_ext(5, 3)
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
    ctx = make_field_ext(7, 1)
    a = Poly.const(3, 7)
    b = Poly.const(5, 7)
    assert ctx.mul(a, b) == Poly.const(1, 7)
    assert ctx.inv(a) == Poly.const(5, 7)


def rand_fqp(ctx, rng, dmax):
    out = [ctx.rand(rng) for _ in range(rng.randrange(1, dmax + 2))]
    while out and out[-1].is_zero():
        out.pop()
    return out


def test_fqp_divmod_roundtrip():
    ctx = make_field_ext(3, 2)
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
        ctx = make_field_ext(p, d)
        rng = random.Random(p * 10 + d)
        for _ in range(12):
            f = rand_fqp(ctx, rng, 5)
            if fqp_deg(f) < 1:
                continue
            lead, facs = fqp_factor(ctx, f, seed=7)
            prod = [lead]
            for irr, m in facs:
                assert fqp_is_irreducible(ctx, irr)
                assert irr[-1] == ctx.one()
                for _ in range(m):
                    prod = fqp_mul(ctx, prod, irr)
            assert prod == f


def test_fqp_factor_char_p_powers():
    # (t + z)^4 over GF(4), z a generator: derivative vanishes twice
    ctx = make_field_ext(2, 2)
    z = Poly.x(2)
    lin = [z, ctx.one()]
    f = [ctx.one()]
    for _ in range(4):
        f = fqp_mul(ctx, f, lin)
    lead, facs = fqp_factor(ctx, f)
    assert lead == ctx.one()
    assert facs == [(lin, 4)]


def test_fqp_factor_deterministic():
    ctx = make_field_ext(3, 3)
    rng = random.Random(9)
    f = rand_fqp(ctx, rng, 8)
    while fqp_deg(f) < 4:
        f = rand_fqp(ctx, rng, 8)
    assert fqp_factor(ctx, f, seed=5) == fqp_factor(ctx, f, seed=5)


def test_fqp_gcd_common_factor():
    ctx = make_field_ext(2, 3)
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
    ctx = make_field_ext(2, 2)
    q = 4
    elems = []
    for i in range(2):
        for j in range(2):
            elems.append(Poly([i, j], 2))
    count = 0
    for c0 in elems:
        for c1 in elems:
            f = [c0, c1, ctx.one()]
            if fqp_is_irreducible(ctx, f):
                count += 1
    assert count == (q * q - q) // 2


def test_fqp_factor_zero_raises():
    ctx = make_field_ext(3, 2)
    with pytest.raises(ValueError):
        fqp_factor(ctx, [])


def test_half_xgcd_bezout_over_fq():
    rng = random.Random(11)
    ctx = make_field_ext(3, 2)
    for _ in range(20):
        f, g = rand_fqp(ctx, rng, 5), rand_fqp(ctx, rng, 4)
        if not g:
            continue
        r, s = half_xgcd(ctx, f, g)
        assert fqp_monic(ctx, r) == fqp_gcd(ctx, f, g)
        assert fqp_divmod(ctx, fqp_sub(ctx, fqp_mul(ctx, s, f), r), g)[1] == []


def test_rational_function_coefficients():
    # over F_5(x): f = (t - x)(t + 1/x), g = (t - x)(t^2 + x); gcd t - x
    p = 5
    K = RatFuncField(p)
    x = RatFunc(Poly.x(p))
    lin = [-x, K.one()]
    f = fqp_mul(K, lin, [x.inverse(), K.one()])
    g = fqp_mul(K, lin, [x, K.zero(), K.one()])
    assert fqp_gcd(K, f, g) == lin
    r, s = half_xgcd(K, f, g)
    assert fqp_monic(K, r) == lin
    assert fqp_divmod(K, fqp_sub(K, fqp_mul(K, s, f), r), g)[1] == []


def test_truncated_polynomial_ring():
    p, cap = 7, 3
    R, exact = PolyRing(p, cap), PolyRing(p)
    rng = random.Random(4)
    for _ in range(10):
        f = [Poly([rng.randrange(p) for _ in range(5)], p) for _ in range(3)]
        g = [Poly([rng.randrange(p) for _ in range(5)], p) for _ in range(2)]
        want = [Poly(c.c[:cap], p) for c in fqp_mul(exact, f, g)]
        while want and want[-1].is_zero():
            want.pop()
        assert fqp_mul(R, f, g) == want
    assert R.inv(Poly.const(3, p)) == Poly.const(5, p)
    with pytest.raises(ArithmeticError):
        R.inv(Poly([1, 1], p))
