"""Test-local oracles: small constructions that only the tests need.

Each is written out from public library pieces, so a test that uses one
checks the library against an independent computation.
"""

from ffjac.divisors import Divisor, Place, finite_places_above
from ffjac.orders import _q_multiplicity, decompose_prime
from ffjac.polymat import bareiss_det
from ffjac.polys import Poly, RatFunc, poly_factor


def norm(a) -> RatFunc:
    """N(a) as the determinant of multiplication by a on the power basis."""
    f = a.field
    rows = [f.reduce_tpoly([Poly.zero(f.p)] * j + list(a.num))
            for j in range(f.n)]
    return RatFunc(bareiss_det(rows, f.p), a.den ** f.n)


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
    support = fin.det() * fin.den
    out = []
    if support.deg > 0:
        for q, _ in poly_factor(support.monic())[1]:
            for pr in decompose_prime(fin.order, q):
                v = val_ideal(pr, fin)
                if v:
                    out.append((Place(div.field, True, pr), v))
    out.sort(key=lambda pv: pv[0].key())
    return out
