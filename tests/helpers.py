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
from ffjac.polymat import (bareiss_det, fp_rref, hnf_square,
                           lower_tri_inverse, mat_mul)
from ffjac.polys import Poly, _inv_mod, poly_factor, poly_gcd
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


def infinite_coords_by_gcd(field, elem):
    """(v, dtot, g): divisors.infinite_coords with g, the full gcd of the
    coordinates and the denominator, cancelled, not only its power of u."""
    p, e = field.p, field.cf
    oi = field.infinite_order()
    den = elem.den
    dden = den.deg
    m = max(c.deg + e * i - dden for i, c in enumerate(elem.num)
            if not c.is_zero())
    cnum = [c if c.is_zero() else c.reverse(m + dden - e * i)
            for i, c in enumerate(elem.num)]
    ginv, det = oi.tri_inverse()
    v = [t * oi.den for t in mat_mul([cnum], ginv, p)[0]]
    dtot = den.reverse(dden + m) * det
    g = dtot
    for t in v:
        g = poly_gcd(g, t)
    return [t.exact_div(g) for t in v], dtot.exact_div(g), g


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


# -- Poly on numpy coefficient arrays, as it was before it held a packed
# int, and the array kernels that polymat's packed ones replaced: oracles --

_ZERO = np.zeros(0, dtype=np.int64)

# Above this modulus a convolution sum of int64 products could overflow,
# products switch to Kronecker substitution on Python ints.
_CONV_LIMIT = 1 << 21


def _trim(c: np.ndarray) -> np.ndarray:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n] if n < len(c) else c


def _mul_arr(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of two trimmed coefficient arrays."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return _ZERO
    if la == 1:
        return (b * int(a[0])) % p
    if lb == 1:
        return (a * int(b[0])) % p
    if p < _CONV_LIMIT:
        return np.convolve(a, b) % p
    # Kronecker substitution: pack into one big integer, exact for p < 2^31
    bits = 2 * (p - 1).bit_length() + min(la, lb).bit_length() + 1
    pa = sum(int(v) << (bits * i) for i, v in enumerate(a))
    pb = sum(int(v) << (bits * i) for i, v in enumerate(b))
    prod = pa * pb
    mask = (1 << bits) - 1
    out = np.zeros(la + lb - 1, dtype=np.int64)
    for i in range(la + lb - 1):
        out[i] = (prod & mask) % p
        prod >>= bits
    return out


def _divmod_arr(a: np.ndarray, b: np.ndarray, p: int):
    """Trimmed quotient and remainder of coefficient arrays, b nonzero."""
    db, da = len(b) - 1, len(a) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if da < db:
        return _ZERO, a
    inv_lc = _inv_mod(int(b[-1]), p)
    if db == 0:
        return (a * inv_lc) % p, _ZERO
    rem = a.copy()
    q = np.zeros(da - db + 1, dtype=np.int64)
    for k in range(da - db, -1, -1):
        coef = int(rem[k + db])
        if coef:
            coef = coef * inv_lc % p
            q[k] = coef
            rem[k : k + db + 1] = (rem[k : k + db + 1] - coef * b) % p
    return _trim(q), _trim(rem[:db])


def _arr(f: Poly) -> np.ndarray:
    return np.array(f.coeffs, dtype=np.int64)


def _mk(c: np.ndarray, p: int) -> Poly:
    return Poly(c.tolist(), p)


class ArrayPoly:
    """Poly's arithmetic on a trimmed int64 coefficient array c."""

    __slots__ = ("p", "c")

    def __init__(self, coeffs, p: int):
        self.p = p
        self.c = _trim(np.array([int(v) % p for v in coeffs], dtype=np.int64))

    @property
    def deg(self) -> int:
        return len(self.c) - 1

    @property
    def coeffs(self) -> tuple:
        return tuple(int(v) for v in self.c)

    def key(self) -> bytes:
        return self.c.tobytes()

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[:len(b)] = (out[:len(b)] + b) % self.p
        return ArrayPoly(out, self.p)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ArrayPoly((-self.c) % self.p, self.p)

    def __mul__(self, other):
        return ArrayPoly(_mul_arr(self.c, other.c, self.p), self.p)

    def divmod(self, other):
        q, r = _divmod_arr(self.c, other.c, self.p)
        return ArrayPoly(q, self.p), ArrayPoly(r, self.p)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if len(r.c):
            raise ArithmeticError("exact_div with nonzero remainder")
        return q

    def monic(self):
        if not len(self.c):
            return self
        inv = _inv_mod(int(self.c[-1]), self.p)
        return ArrayPoly(self.c * inv % self.p, self.p)

    def shift(self, k: int):
        return ArrayPoly(np.concatenate((np.zeros(k, np.int64), self.c)),
                         self.p)

    def reverse(self, n: int):
        out = np.zeros(n + 1, dtype=np.int64)
        if len(self.c):
            out[n - self.deg:] = self.c[::-1]
        return ArrayPoly(out, self.p)

    def derivative(self):
        k = np.arange(len(self.c), dtype=np.int64)
        return ArrayPoly((self.c * k)[1:] % self.p, self.p)


def array_gcd(a: ArrayPoly, b: ArrayPoly) -> ArrayPoly:
    """Monic gcd by Euclid on arrays; gcd(0, 0) is zero."""
    while len(b.c):
        a, b = b, a.divmod(b)[1]
    return a.monic()


def _arrays(rows):
    return [[_arr(e) for e in row] for row in rows]


def _polys(rows, p: int):
    return [[_mk(e, p) for e in row] for row in rows]


def _sub_scaled(ra, rb, q, p: int, shift: int = 0):
    """Row update ra -= x^shift * q * rb on raw coefficient rows, in place
    on the list ra (its arrays are replaced, never written)."""
    for j, b in enumerate(rb):
        if not b.size:
            continue
        prod = _mul_arr(q, b, p)
        a = ra[j]
        end = prod.size + shift
        if a.size >= end:
            out = a.copy()
        else:
            out = np.zeros(end, dtype=np.int64)
            out[:a.size] = a
        out[shift:end] = (out[shift:end] - prod) % p
        ra[j] = _trim(out)


def _rev_inverse(dc, p: int):
    """The power series inverse, modulo x^d, of the reversal of the monic
    coefficient array dc of degree d (Newton iteration)."""
    d = dc.size - 1
    rev = dc[::-1]
    g = np.ones(1, dtype=np.int64)
    prec = 1
    while prec < d:
        prec = min(2 * prec, d)
        err = _mul_arr(rev[:prec], g, p)[:prec]
        err[0] -= 1
        corr = _mul_arr(g, err, p)[:prec]
        nxt = np.zeros(prec, dtype=np.int64)
        nxt[:g.size] = g
        nxt[:corr.size] -= corr
        g = nxt % p
    return g


def _rem_arr(a, dc, dinv, p: int):
    """a mod the monic dc of degree d, dinv = _rev_inverse(dc, p).  One
    excess coefficient, the common case after a row update, is one
    subtraction; more are reduced 2d coefficients at a time through one
    quotient from the precomputed inverse (two products)."""
    d = dc.size - 1
    if d == 0:
        return _ZERO
    while a.size > d:
        if a.size == d + 1:
            return _trim((a[:d] - a[d] * dc[:d]) % p)
        lo = max(a.size - 2 * d, 0)
        top = a[lo:]
        m = top.size - d
        # the quotient, reversed, is rev(top) * dinv mod x^m
        q = _mul_arr(top[:d - 1:-1], dinv[:m], p)[m - 1::-1]
        r = (top[:d] - _mul_arr(q, dc, p)[:d]) % p
        a = _trim(np.concatenate((a[:lo], r)))
    return a


def _fold_arrays(active, best, i, j, p: int, rem_row):
    """Euclid on the column-j entries of the rows active[best] and
    active[i] by row updates (each row reduced by rem_row after its
    update, if given); returns the index of the row left holding their
    gcd, the other entry being zero."""
    while active[i][j].size:
        q = _divmod_arr(active[i][j], active[best][j], p)[0]
        _sub_scaled(active[i], active[best], q, p)
        if rem_row is not None:
            active[i] = rem_row(active[i])
        if active[i][j].size:
            best, i = i, best
    return best


def hnf_square_arrays(rows, p: int, mod: Poly = None):
    """polymat.hnf_square on coefficient arrays, every digit reduced mod p
    at every update (one _sub_scaled per row update, _rem_arr after it):
    the nonsingular lower-triangular n x n basis with monic pivots and
    every entry below a pivot (same column) reduced mod the pivot.
    Raises ArithmeticError at the first column with no pivot.

    Columns are cleared right to left by a pairwise gcd chain: the
    nonzero entries of the column are taken in increasing degree, and
    each is folded into the smallest by Euclid on that pair alone, so a
    unit pivot clears the column in one update per row.

    mod, when given, is a nonzero polynomial D with D * K[x]^n inside the
    row span (Cohen, GTM 138, 2.4.3: HNF modulo D).  Entries are then
    kept reduced mod D, and once the entries of column j are folded into
    one row w, the row D * e_j, whose entry is the largest, is folded in
    last: its Euclid steps are the extended gcd g of w_j and D, and they
    leave the pivot row (entry g) and the cofactor row (D / g) * w mod D,
    up to a unit.  Those two rows span what w and D * e_j span, so H is
    the HNF of the rows for any such D, not only for a multiple of the
    determinant, and every column has a pivot.  A unit w_j needs no such
    step, as its cofactor is zero.
    """
    active = _arrays(rows)  # rows with no pivot yet
    n = len(active[0])
    rem_row = None
    if mod is not None:
        dc = _arr(mod.monic())
        d = dc.size - 1
        dinv = _rev_inverse(dc, p)

        def rem_row(row):
            return [e if e.size <= d else _rem_arr(e, dc, dinv, p)
                    for e in row]

        active = [rem_row(row) for row in active]

    # columns right to left; the pivot rows are collected bottom up
    done = []
    for j in range(n - 1, -1, -1):
        cand = sorted((i for i, row in enumerate(active) if row[j].size),
                      key=lambda i: (active[i][j].size, i))
        best = cand[0] if cand else None
        for i in cand[1:]:
            best = _fold_arrays(active, best, i, j, p, rem_row)
        if mod is not None and (best is None or active[best][j].size > 1):
            active.append([_ZERO] * j + [dc] + [_ZERO] * (n - 1 - j))
            last = len(active) - 1
            best = last if best is None else _fold_arrays(active, best, last,
                                                          j, p, rem_row)
        if best is None:
            raise ArithmeticError("lattice does not have full column rank")
        w = active[best]
        active[best] = active[-1]
        active.pop()
        lc = int(w[j][-1])
        if lc != 1:
            inv = _inv_mod(lc, p)
            w = [(e * inv) % p for e in w]
        done.append(w)

    # row t has its pivot in column t; any rows left over are zero.
    # Reduce the entries below each pivot mod the pivot, rows top down and
    # within a row right to left, so finished entries are never touched
    # again
    h = done[::-1]
    for t in range(n):
        for s in range(t - 1, -1, -1):
            e = h[t][s]
            if e.size >= h[s][s].size:
                q = _divmod_arr(e, h[s][s], p)[0]
                _sub_scaled(h[t], h[s], q, p)
    return _polys(h, p)




def in_lattice_arrays(v, h_rows, p: int):
    """polymat.in_lattice on coefficient arrays: the coefficient row c
    with c * H = v for lower-triangular h_rows, or None."""
    rem = [_arr(e) for e in v]
    coeffs = [Poly.zero(p)] * len(v)
    for j in range(len(v) - 1, -1, -1):
        if not rem[j].size:
            continue
        q, r = _divmod_arr(rem[j], _arr(h_rows[j][j]), p)
        if r.size:
            return None
        coeffs[j] = _mk(q, p)
        # rem[j] is now r = 0 and is not read again
        _sub_scaled(rem, [_arr(e) for e in h_rows[j][:j]], q, p)
    return coeffs


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
