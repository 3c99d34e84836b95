"""Test-local oracles: small constructions that only the tests need.

Each is written out from public library pieces, so a test that uses one
checks the library against an independent computation.
"""

from ffjac.divisors import Divisor, Place, finite_places_above
from ffjac.extpoly import (RatFuncField, fqp_divmod, fqp_mul, fqp_sub,
                           fqp_trim)
from ffjac.field import FFElem
from ffjac.orders import (_q_multiplicity, decompose_prime, ideal_inv,
                          ideal_mul, ideal_one)
from ffjac.polymat import bareiss_det
from ffjac.polys import Poly, RatFunc, poly_factor, poly_gcd


def norm(a) -> RatFunc:
    """N(a) as the determinant of multiplication by a on the power basis."""
    f = a.field
    rows = [f.reduce_tpoly([Poly.zero(f.p)] * j + list(a.num))
            for j in range(f.n)]
    return RatFunc(bareiss_det(rows, f.p), a.den ** f.n)


def half_xgcd(ctx, f: list, g: list):
    """(r, s): r a gcd of f and g, not normalized, and s * f = r mod g."""
    r0, r1 = list(f), list(g)
    s0, s1 = [ctx.one()], []
    while r1:
        q, r = fqp_divmod(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, fqp_sub(ctx, s0, fqp_mul(ctx, q, s1))
    return r0, s0


def inverse(a) -> FFElem:
    """1 / a from a Bezout relation s * num(a) = r mod f over F_p(x)."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero")
    f = a.field
    K = RatFuncField(f.p)
    fc = [RatFunc(c) for c in f.coeffs] + [K.one()]
    r, s = half_xgcd(K, fqp_trim([RatFunc(c) for c in a.num]), fc)
    if len(r) != 1:
        raise ArithmeticError("element not invertible; f reducible?")
    vals = [c * r[0].inverse() for c in s]
    vals = (vals + [K.zero()] * f.n)[:f.n]
    den = Poly.one(f.p)
    for v in vals:
        den = den.exact_div(poly_gcd(den, v.den)) * v.den
    # a = num_row / a.den, so 1 / a = a.den * (num_row)^-1
    return FFElem(f, [v.num * den.exact_div(v.den) * a.den for v in vals],
                  den)


def ideal_pow(a, k: int):
    """a^k by square and multiply; a negative k inverts first."""
    if k < 0:
        return ideal_pow(ideal_inv(a), -k)
    out = ideal_one(a.order)
    while k:
        if k & 1:
            out = ideal_mul(out, a)
        k >>= 1
        if k:
            a = ideal_mul(a, a)
    return out


def scale(div, k: int):
    """k * div, through the k-th power of its finite ideal."""
    return Divisor(div.field, ideal_pow(div.fin, k),
                   tuple(k * v for v in div.inf_vec))


def find_finite_degree_one_place(field):
    """First place of degree one over a linear prime, or None."""
    p = field.p
    for c in range(p):
        for pl in finite_places_above(field, Poly([-c % p, 1], p)):
            if pl.degree() == 1:
                return pl
    return None


def element_of_place(ctx, place):
    """The class of P - deg(P) * A."""
    return ctx.reduce_divisor(Divisor.from_place(place) - Divisor.from_place(
        ctx.A, place.degree()))


def val_ideal(pr, ideal) -> int:
    """Valuation of a fractional ideal at the prime pr."""
    v = min(pr.val_coords(row) for row in ideal.h)
    return v - pr.e * _q_multiplicity(ideal.den, pr.q)


def finite_support(div):
    """Sorted list of (Place, valuation) over the finite places where the
    divisor has a nonzero valuation."""
    fin = div.fin
    support = fin.den
    for j, row in enumerate(fin.h):
        support = support * row[j]
    out = []
    if support.deg > 0:
        for q, _ in poly_factor(support.monic())[1]:
            for pr in decompose_prime(fin.order, q):
                v = val_ideal(pr, fin)
                if v:
                    out.append((Place(div.field, True, pr), v))
    out.sort(key=lambda pv: pv[0].key())
    return out
