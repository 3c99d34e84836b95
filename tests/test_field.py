import json
import random

import pytest

from ffjac.field import (FFElem, FunctionField, _hensel_tree, _taylor_shift,
                         compute_cf, is_irreducible, make_field,
                         twist_coeffs)
from ffjac.polys import Poly, RatFunc, poly_factor, poly_gcd
from helpers import inverse, norm


def ff_tiny():
    # t^2 + t + x^3 over F_2
    return make_field(2, 2, [[0, 0, 0, 1], [1]])


def ff_cubic():
    # t^3 + x*t + x over F_5 (Eisenstein at x, so irreducible)
    return make_field(5, 3, [[0, 1], [0, 1], []])


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(4, 2, [[0, 1], []])  # p not prime
    with pytest.raises(ValueError):
        make_field(5, 2, [[0, 1]])  # coefficient count
    with pytest.raises(ValueError):
        make_field(5, 1, [[0, 1]])  # degree too small
    with pytest.raises(ValueError):
        make_field(5, 2, [[0, 0, 4], []])  # t^2 - x^2 reducible


def gen(f):
    """The generator t of f."""
    return FFElem(f, [[]] + [[1]] + [[]] * (f.n - 2))


def test_cf_values():
    f = ff_tiny()
    assert f.cf == 2
    assert compute_cf([Poly([0, 1], 5), Poly.zero(5), Poly.zero(5)], 3) == 1
    # deg a_0 = 7 with n = 3 forces ceil(7/3) = 3
    assert compute_cf([Poly([0] * 7 + [1], 5), Poly.zero(5), Poly.zero(5)], 3) == 3


def test_twist_coeffs_polynomial_and_exact():
    f = ff_tiny()
    tw = twist_coeffs(f.coeffs)
    # s^2 + u^2 s + u
    assert tw[0] == Poly([0, 1], 2)
    assert tw[1] == Poly([0, 0, 1], 2)
    g = f.infinite_model()
    assert g.p == 2 and g.n == 2


def test_elem_ring_ops():
    f = ff_cubic()
    rng = random.Random(1)

    def rand_elem():
        num = [
            Poly([rng.randrange(5) for _ in range(3)], 5) for _ in range(3)
        ]
        den = Poly([rng.randrange(5) for _ in range(2)] + [1], 5)
        return FFElem(f, num, den)

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == f.zero()
        assert a * f.one() == a


def test_elem_inverse_and_norm_multiplicative():
    f = ff_cubic()
    rng = random.Random(2)
    for _ in range(10):
        num = [
            Poly([rng.randrange(5) for _ in range(2)], 5) for _ in range(3)
        ]
        a = FFElem(f, num)
        if a.is_zero():
            continue
        ai = inverse(a)
        assert a * ai == f.one()
        b = FFElem(
            f, [Poly([rng.randrange(5) for _ in range(2)], 5) for _ in range(3)]
        )
        if b.is_zero():
            continue
        na, nb, nab = norm(a), norm(b), norm(a * b)
        assert na * nb == nab


def test_norm_of_generator():
    # N(t) = (-1)^n * a_0
    f = ff_cubic()
    t = gen(f)
    assert norm(t) == RatFunc(Poly([0, -1 % 5], 5))


def test_minimal_poly_identity():
    # f(t) = 0 in the field
    f = ff_cubic()
    t = gen(f)
    x = FFElem(f, [Poly([0, 1], 5), Poly.zero(5), Poly.zero(5)])
    acc = t * t * t + x * t + x
    assert acc.is_zero()


def test_irreducibility_fast_accept():
    # x-Eisenstein cubic accepts by specialization quickly
    assert is_irreducible([Poly([0, 1], 5), Poly([0, 1], 5), Poly.zero(5)], 5)


def test_irreducibility_hensel_reject():
    # (t^2 - x)(t^2 - x - 1) over F_5: every specialization is reducible,
    # so only the lifting path can decide
    p = 5
    a0 = Poly([0, 1], p) * Poly([1, 1], p)  # x(x+1)
    a2 = Poly([-1 % p, -2 % p], p)  # -(2x + 1)
    assert not is_irreducible([a0, Poly.zero(p), a2, Poly.zero(p)], p)


def test_irreducibility_hensel_accept_no_fast_path():
    # minimal polynomial of sqrt(x) + sqrt(x+1): group without an n-cycle,
    # so no specialization anywhere is irreducible, yet f is irreducible
    p = 5
    a2 = Poly([(-2) % p, (-4) % p], p)  # -2(2x+1)
    a0 = Poly([1], p)
    assert is_irreducible([a0, Poly.zero(p), a2, Poly.zero(p)], p)


def _squarefree_point(coeffs, p):
    for c in range(p):
        fc = Poly([a.evaluate(c) for a in coeffs] + [1], p)
        if poly_gcd(fc, fc.derivative()).deg == 0:
            return c


def _tpoly_mul(f, g, p):
    out = [Poly.zero(p)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def test_hensel_lift_factors_are_monic_and_multiply_to_f():
    # the polynomials of the two test_irreducibility_hensel_* tests
    p = 5
    a0 = Poly([0, 1], p) * Poly([1, 1], p)
    cases = [[a0, Poly.zero(p), Poly([-1 % p, -2 % p], p), Poly.zero(p)],
             [Poly([1], p), Poly.zero(p), Poly([-2 % p, -4 % p], p),
              Poly.zero(p)]]
    for coeffs in cases:
        n = len(coeffs)
        # the lift runs at a squarefree specialization, shifted to x = 0
        good = _squarefree_point(coeffs, p)
        fT = [_taylor_shift(a, good) for a in coeffs] + [Poly.one(p)]
        cap = n * compute_cf(coeffs, n) + 1
        mods = [g for g, _ in poly_factor(
            Poly([a.evaluate(0) for a in fT], p))[1]]
        assert len(mods) > 1
        lifted = _hensel_tree(fT, mods, p, cap)
        assert len(lifted) == len(mods)
        prod = [Poly.one(p)]
        for fac, mod in zip(lifted, mods):
            assert fac[-1] == Poly.one(p)
            assert Poly([c.evaluate(0) for c in fac], p) == mod
            prod = _tpoly_mul(prod, fac, p)
        assert len(prod) == len(fT)
        for c, want in zip(prod, fT):
            assert Poly(c.c[:cap], p) == Poly(want.c[:cap], p)


def test_inverse_with_zero_top_coordinate():
    f = ff_cubic()
    for num in ([[1, 1], [0, 1], []], [[2], [], []], [[0, 1], [], []]):
        a = FFElem(f, num)
        assert a * inverse(a) == f.one()


def test_irreducibility_char2_twist_reject():
    # (t + x)(t + x^2) over F_2: both rational specializations are squares,
    # but the model at infinity has a squarefree point over u = 0
    p = 2
    a1 = Poly([0, 1, 1], p)  # x^2 + x
    a0 = Poly([0, 0, 0, 1], p)  # x^3
    assert not is_irreducible([a0, a1], p)


def test_irreducibility_extension_accept():
    # t^2 + (x^2+x) t + x over F_2: no squarefree rational specialization,
    # accepted at a point of GF(4)
    p = 2
    a1 = Poly([0, 1, 1], p)
    a0 = Poly([0, 1], p)
    assert is_irreducible([a0, a1], p)


def test_irreducibility_inseparable_shapes():
    # t^2 - x over F_2 is irreducible (x is not a square in F_2(x))
    assert is_irreducible([Poly([0, -1 % 2], 2), Poly.zero(2)], 2)
    # t^2 - x^2 over F_2 is a square
    assert not is_irreducible([Poly([0, 0, 1], 2), Poly.zero(2)], 2)


def test_json_roundtrip():
    f = ff_cubic()
    s = json.dumps(f.to_dict())
    g = FunctionField.from_dict(json.loads(s))
    assert f == g
    assert g.coeffs == f.coeffs


def test_reduce_tpoly_vs_mul():
    # multiplying t^(n-1) by t uses the reduction table
    f = ff_cubic()
    t = gen(f)
    tsq = t * t
    cube = tsq * t
    # t^3 = -x*t - x
    want = FFElem(f, [Poly([0, -1 % 5], 5), Poly([0, -1 % 5], 5),
                      Poly.zero(5)])
    assert cube == want
