import random
from types import SimpleNamespace

import pytest

from ffjac.field import make_field, FFElem
from ffjac.polys import Poly
from ffjac.divisors import (Divisor, infinite_coords, infinite_places,
                            finite_places_above, principal_divisor,
                            infinite_valuations)
from helpers import (find_finite_degree_one_place, finite_support,
                     infinite_coords_by_gcd, inverse, scale)

p5 = 5


def small_fields():
    return [
        make_field(p5, 2, [Poly([0, -1, 0, -1], p5), Poly([], p5)]),
        make_field(p5, 2, [Poly([0, 0, -1, -1], p5), Poly([], p5)]),
        make_field(p5, 3, [Poly([0, 1], p5), Poly([0, 1], p5), Poly([], p5)]),
        make_field(2, 2, [Poly([0, 0, 0, 1], 2), Poly([1], 2)]),
        make_field(7, 2, [Poly([-1, 0, 0, 0, 0, -1], 7), Poly([], 7)]),
    ]


def random_elem(field, rng):
    while True:
        num = [Poly([rng.randrange(field.p) for _ in range(3)], field.p)
               for _ in range(field.n)]
        den = Poly([rng.randrange(field.p) for _ in range(2)] + [1], field.p)
        a = FFElem(field, num, den)
        if any(not c.is_zero() for c in a.num):
            return a


def test_infinite_coords_valuations_match_the_full_gcd():
    # infinite_coords cancels only the common power of u; the valuations
    # at the places over u must not see the factors prime to u that the
    # full gcd would also cancel.  Elements given with a common factor h
    # of numerator and denominator (not cancelled, as FFElem would) keep
    # rev(h), which is prime to u, in both coordinates
    rng = random.Random(17)
    u_power = prime_to_u = 0
    for field in small_fields():
        p = field.p
        places = infinite_places(field)
        for case in range(20):
            a = random_elem(field, rng)
            if case % 4 == 3:
                h = Poly([rng.randrange(p) for _ in range(2)] + [1], p)
                a = SimpleNamespace(num=[c * h for c in a.num],
                                    den=a.den * h)
            got = infinite_coords(field, a)
            *want, g = infinite_coords_by_gcd(field, a)
            for pl in places:
                assert (pl.prime.val_fraction(*got)
                        == pl.prime.val_fraction(*want))
            prime_to_u += got[1].deg > want[1].deg
            if g == Poly.x(p) ** g.deg:
                # the gcd is a power of u: the same pair
                assert got == (want[0], want[1])
                u_power += g.deg > 0
    assert prime_to_u >= 10 and u_power >= 10


def test_infinite_place_shapes():
    fs = small_fields()
    shapes = [sorted((pl.prime.e, pl.prime.f) for pl in infinite_places(f))
              for f in fs]
    assert shapes[0] == [(2, 1)]
    assert shapes[2] == [(1, 1), (2, 1)]
    for f, sh in zip(fs, shapes):
        assert sum(e * fdeg for e, fdeg in sh) == f.n


def test_principal_divisors_have_degree_zero():
    rng = random.Random(7)
    for field in small_fields():
        for _ in range(8):
            a = random_elem(field, rng)
            div = principal_divisor(field, a)
            assert div.degree() == 0


def test_principal_divisor_is_multiplicative():
    rng = random.Random(8)
    for field in small_fields()[:3]:
        a = random_elem(field, rng)
        b = random_elem(field, rng)
        left = principal_divisor(field, a * b)
        right = principal_divisor(field, a) + principal_divisor(field, b)
        assert left == right
        assert principal_divisor(field, inverse(a)) == -principal_divisor(field, a)


def test_divisor_group_operations():
    field = small_fields()[0]
    P = infinite_places(field)[0]
    Q = find_finite_degree_one_place(field)
    D = Divisor.from_place(P, 3) - Divisor.from_place(Q, 2)
    assert D + (-D) == Divisor.zero(field)
    assert scale(D, 2) == D + D
    assert (D - D).degree() == 0
    assert D.degree() == 3 * P.degree() - 2 * Q.degree()


def test_effectivity():
    field = small_fields()[0]
    P = infinite_places(field)[0]
    Q = find_finite_degree_one_place(field)
    assert Divisor.from_place(P, 2).is_effective()
    assert Divisor.from_place(Q, 1).is_effective()
    assert Divisor.zero(field).is_effective()
    assert not (Divisor.from_place(P, 1) - Divisor.from_place(Q, 1)).is_effective()
    assert not (Divisor.from_place(Q, -1)).is_effective()


def test_json_roundtrip():
    field = small_fields()[2]
    P = infinite_places(field)[0]
    Q = find_finite_degree_one_place(field)
    D = Divisor.from_place(P, 2) - Divisor.from_place(Q, 3)
    back = Divisor.from_dict(field, D.to_dict())
    assert back == D
    assert back.key() == D.key()


def test_support_matches_valuations():
    rng = random.Random(9)
    field = small_fields()[0]
    a = random_elem(field, rng)
    div = principal_divisor(field, a)
    total = 0
    support = finite_support(div) + [
        (pl, v) for pl, v in zip(infinite_places(field), div.inf_vec) if v]
    for pl, v in support:
        assert v != 0
        total += v * pl.degree()
        if pl.finite:
            assert pl.prime.val_fraction(
                field.finite_order().from_power(a.num), a.den) == v
    assert total == 0
    vec = infinite_valuations(field, a)
    inf_by_place = {pl.key(): v for pl, v in support if not pl.finite}
    for pl, v in zip(infinite_places(field), vec):
        assert inf_by_place.get(pl.key(), 0) == v


def test_finite_height_matches_support():
    rng = random.Random(10)
    for field in small_fields():
        for _ in range(4):
            a = principal_divisor(field, random_elem(field, rng))
            b = principal_divisor(field, random_elem(field, rng))
            for div in (a, -a, a - scale(b, 2), Divisor.zero(field)):
                want = sum(abs(v) * pl.degree()
                           for pl, v in finite_support(div))
                assert div.finite_height() == want


def test_finite_degree_one_place_search():
    for field in small_fields():
        pl = find_finite_degree_one_place(field)
        assert pl.degree() == 1
        assert pl.finite
        assert Divisor.from_place(pl, 4).degree() == 4


def test_places_above_polynomial():
    field = small_fields()[0]
    pls = finite_places_above(field, Poly([-1, 1], p5))
    assert sum(pl.prime.e * pl.prime.f for pl in pls) == field.n


def cubic5():
    # the F_5 cubic of the CLI self test
    return make_field(p5, 3, [Poly([1, 4, 3, 4, 1, 1], p5),
                              Poly([4, 4, 1], p5), Poly([3, 4, 4], p5)])


def test_places_above_a_constant_rejected():
    # the radical split looped forever on the residue field of a constant
    with pytest.raises(ValueError, match="monic irreducible"):
        finite_places_above(cubic5(), Poly([3], p5))


def test_places_above_a_prime_power_rejected():
    # x^2 was split as if prime: one "place" with e = 1, f = 3
    with pytest.raises(ValueError, match="monic irreducible"):
        finite_places_above(cubic5(), Poly([0, 0, 1], p5))


def test_places_above_a_non_monic_prime_rejected():
    # 2x + 4 gave a place keyed apart from the place of x + 2
    field = cubic5()
    with pytest.raises(ValueError, match="monic irreducible"):
        finite_places_above(field, Poly([4, 2], p5))
    places = finite_places_above(field, Poly([2, 1], p5))
    assert [pl.degree() for pl in places] == [3]


def test_places_above_a_reducible_quadratic_rejected():
    # x^2 + 1 = (x - 2)(x + 2) over F_5
    with pytest.raises(ValueError, match="monic irreducible"):
        finite_places_above(cubic5(), Poly([1, 0, 1], p5))
