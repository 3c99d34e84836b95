"""Test-local oracles: small constructions that only the tests need.

Each is written out from public library pieces, so a test that uses one
checks the library against an independent computation.
"""

import numpy as np

from ffjac.divisors import Divisor, Place, finite_places_above, infinite_places
from ffjac.field import FFElem
from ffjac.fieldgen import expected_structured_genus
from ffjac.orders import (Ideal, _q_multiplicity, decompose_prime,
                          ideal_inv, ideal_mul, ideal_one)
from ffjac.polymat import (_arrays, _polys, _sub_scaled, bareiss_det,
                           fp_rref, hnf_square, lower_tri_inverse)
from ffjac.polys import Poly, _inv_mod, poly_factor
from ffjac.riemann_roch import rr_dim


def one(field) -> FFElem:
    p = field.p
    return FFElem(field, [Poly.one(p)] + [Poly.zero(p)] * (field.n - 1))


def zero(field) -> FFElem:
    return FFElem(field, [Poly.zero(field.p)] * field.n)


def genus_by_riemann_roch(field) -> int:
    """Genus from the dimension of one high-degree place multiple m * P,
    P the first infinite place.  The genus is at most the structured
    family's (cf*n - 2)(n - 1)/2, the interior lattice points of the
    triangle that holds the Newton polygon of f (Baker's bound), so
    m * deg P > 2g - 2 and Riemann-Roch gives l(m * P) = m * deg P + 1 - g."""
    gb = expected_structured_genus(field.p, field.n, field.cf)
    pl = infinite_places(field)[0]
    dp = pl.degree()
    m = max(1, -(-(2 * gb + 1) // dp))
    return m * dp + 1 - rr_dim(field, Divisor.from_place(pl, m))


def leading_matrix(rows):
    """F_p matrix of the leading row coefficients of a Poly matrix: row i
    holds the coefficients of x^d in row i, d the row's degree."""
    lead = np.zeros((len(rows), len(rows[0])), dtype=np.int64)
    for i, row in enumerate(rows):
        d = max(e.deg for e in row)
        for j, e in enumerate(row):
            if not e.is_zero() and e.deg == d:
                lead[i, j] = e.lc
    return lead


def fp_kernel(a: np.ndarray, p: int):
    """Basis rows of {v : v * a = 0} over F_p."""
    red, piv = fp_rref(a.T % p, p)
    m = a.shape[0]
    free = [c for c in range(m) if c not in piv]
    out = np.zeros((len(free), m), dtype=np.int64)
    for k, c0 in enumerate(free):
        out[k, c0] = 1
        for r, c in enumerate(piv):
            out[k, c] = (-red[r, c0]) % p
    return out


def _mul_matrix(a):
    """Rows t^j * num(a) in power-basis coordinates, j = 0 .. n-1."""
    f = a.field
    return [f.reduce_tpoly([Poly.zero(f.p)] * j + list(a.num))
            for j in range(f.n)]


def dual_by_second_hnf(order, rows, num):
    """The lattice {c : c * v in num * K[x] for every row v}, from the
    plain HNF hs of the rows: with G * hs = d * Id it is num * G^T / d,
    and the HNF of those rows triangularizes the upper-triangular G^T
    again, by a gcd chain on every column."""
    p, n = order.p, order.n
    g, d = lower_tri_inverse(hnf_square(rows, p), p)
    return Ideal(order, [[g[j][i] * num for j in range(n)] for i in range(n)],
                 d)


def norm(a):
    """N(a) as the pair (numerator, denominator): the determinant of
    multiplication by num(a) on the power basis, and den(a)^n."""
    f = a.field
    return bareiss_det(_mul_matrix(a), f.p), a.den ** f.n


def inverse(a) -> FFElem:
    """1 / a = sum c_j t^j from c * M = den(a) * e_0, M the matrix of
    multiplication by num(a), solved by Cramer's rule."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero")
    f = a.field
    rows = _mul_matrix(a)
    det = bareiss_det(rows, f.p)
    if det.is_zero():
        raise ArithmeticError("element not invertible; f reducible?")
    e0 = [Poly.one(f.p)] + [Poly.zero(f.p)] * (f.n - 1)
    num = [a.den * bareiss_det(rows[:j] + [e0] + rows[j + 1:], f.p)
           for j in range(f.n)]
    return FFElem(f, num, det)


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


def _raw_lead(row):
    """(degree, leading position) of a row of coefficient arrays; a zero
    row has degree -1."""
    d = lp = -1
    for j, e in enumerate(row):
        if e.size >= d:
            d, lp = e.size, j
    return d - 1, lp


def row_reduce_arrays(rows, companion, p: int, threshold=None):
    """polymat.row_reduce on coefficient arrays, every digit reduced mod p
    at every update (one _sub_scaled per row and companion row): the same
    simple transformations in the same order, so the same
    (degs, companion, hit, steps)."""
    work, comp = _arrays(rows), _arrays(companion)
    lead = [_raw_lead(row) for row in work]
    steps = 0

    def done(hit):
        return [d for d, _ in lead], _polys(comp, p), hit, steps

    for i, (d, _) in enumerate(lead):
        if d < 0:
            raise ArithmeticError("zero row in row_reduce input")
        if threshold is not None and d <= threshold:
            return done(i)

    owner = {}
    for i in range(len(work)):
        while True:
            d, lp = lead[i]
            k = owner.setdefault(lp, i)
            if k == i:
                break
            if lead[k][0] > d:
                owner[lp], i, k = i, k, i
            shift = lead[i][0] - lead[k][0]
            q = np.array([int(work[i][lp][-1])
                          * _inv_mod(int(work[k][lp][-1]), p) % p])
            _sub_scaled(work[i], work[k], q, p, shift)
            _sub_scaled(comp[i], comp[k], q, p, shift)
            new = _raw_lead(work[i])
            if new >= lead[i]:
                raise ArithmeticError("(degree, leading position) did not "
                                      "drop; input singular?")
            if new[0] < 0:
                raise ArithmeticError("row vanished in row_reduce; input "
                                      "singular")
            lead[i] = new
            steps += 1
            if threshold is not None and new[0] <= threshold:
                return done(i)
    return done(None)
