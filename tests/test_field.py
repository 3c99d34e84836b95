import json
import random

import pytest

from ffjac.field import (FFElem, FunctionField, compute_cf, make_field,
                         twist_coeffs)
from ffjac.polys import Poly, enumerate_monic_irreducibles
from helpers import inverse, norm, one, zero


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
        assert a - a == zero(f)
        assert a * one(f) == a


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
        assert a * ai == one(f)
        b = FFElem(
            f, [Poly([rng.randrange(5) for _ in range(2)], 5) for _ in range(3)]
        )
        if b.is_zero():
            continue
        (na, da), (nb, db), (nab, dab) = norm(a), norm(b), norm(a * b)
        assert na * nb * dab == nab * da * db


def test_norm_of_generator():
    # N(t) = (-1)^n * a_0
    f = ff_cubic()
    t = gen(f)
    assert norm(t) == (Poly([0, -1 % 5], 5), Poly.one(5))


def test_minimal_poly_identity():
    # f(t) = 0 in the field
    f = ff_cubic()
    t = gen(f)
    x = FFElem(f, [Poly([0, 1], 5), Poly.zero(5), Poly.zero(5)])
    acc = t * t * t + x * t + x
    assert acc.is_zero()


def test_irreducibility_fast_accept():
    # x-Eisenstein cubic
    make_field(5, 3, [[0, 1], [0, 1], []])


def test_irreducibility_hensel_reject():
    # (t^2 - x)(t^2 - x - 1) over F_5: every specialization is reducible
    p = 5
    a0 = Poly([0, 1], p) * Poly([1, 1], p)  # x(x+1)
    with pytest.raises(ValueError):
        make_field(p, 4, [a0, [], [-1 % p, -2 % p], []])


def test_irreducibility_hensel_accept_no_fast_path():
    # minimal polynomial of sqrt(x) + sqrt(x+1): group without an n-cycle,
    # so no specialization anywhere is irreducible, yet f is irreducible
    p = 5
    make_field(p, 4, [[1], [], [-2 % p, -4 % p], []])


def test_inverse_with_zero_top_coordinate():
    f = ff_cubic()
    for num in ([[1, 1], [0, 1], []], [[2], [], []], [[0, 1], [], []]):
        a = FFElem(f, num)
        assert a * inverse(a) == one(f)


def test_irreducibility_char2_twist_reject():
    # (t + x)(t + x^2) over F_2: both rational specializations are squares
    with pytest.raises(ValueError):
        make_field(2, 2, [[0, 0, 0, 1], [0, 1, 1]])


def test_irreducibility_extension_accept():
    # t^2 + (x^2+x) t + x over F_2: no squarefree rational
    # specialization, irreducible at a point of GF(4)
    make_field(2, 2, [[0, 1], [0, 1, 1]])


def test_irreducibility_inseparable_shapes():
    # t^2 - x over F_2 is irreducible but not separable
    with pytest.raises(ValueError, match="not separable"):
        make_field(2, 2, [[0, 1], []])
    # t^2 - x^2 over F_2 is a square
    with pytest.raises(ValueError, match="not separable"):
        make_field(2, 2, [[0, 0, 1], []])


def _rand_poly(rng, p, deg):
    return Poly([rng.randrange(p) for _ in range(deg + 1)], p)


def _monic(rng, p, n, deg):
    """Monic in t of degree n, coefficients of degree <= deg in x."""
    return [_rand_poly(rng, p, deg) for _ in range(n)] + [Poly.one(p)]


def _tmul(a, b):
    """Product of two polynomials in t given by K[x] coefficient lists."""
    out = [Poly.zero(a[0].p)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = out[i + j] + u * v
    return out


def test_acceptance_on_polynomials_of_known_shape():
    rng = random.Random(8)
    for _ in range(10):
        p = rng.choice((2, 3, 5, 7))
        n = rng.choice((2, 3, 4))
        x = Poly.x(p)
        # x-Eisenstein with a_1 != 0: irreducible and separable, and x is
        # totally ramified with residue field F_p
        units = [Poly([rng.randrange(1, p)], p) + x * _rand_poly(rng, p, 1)
                 for _ in range(2)]
        coeffs = [x * u for u in units]
        coeffs += [x * _rand_poly(rng, p, 1) for _ in range(2, n)]
        assert make_field(p, n, coeffs).n == n
        # a product of two monic factors
        k = rng.randrange(1, n)
        f = _tmul(_monic(rng, p, k, 2), _monic(rng, p, n - k, 2))
        with pytest.raises(ValueError):
            make_field(p, n, f[:-1])
        # an irreducible with constant coefficients: constant field F_(p^n)
        g = rng.choice(list(enumerate_monic_irreducibles(p, n)))
        with pytest.raises(ValueError, match="constant field"):
            make_field(p, n, [[c] for c in g.coeffs[:-1]])
        # h(t^p) has zero derivative
        m = rng.choice((1, 2))
        h = _monic(rng, p, m, 2)
        f = [Poly.zero(p)] * (p * m + 1)
        f[::p] = h
        with pytest.raises(ValueError, match="not separable"):
            make_field(p, p * m, f[:-1])


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
