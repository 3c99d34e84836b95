"""Maximal orders and fractional ideals of function fields.

An order of F = K(x)[t]/(f) is a full K[x]-lattice closed under
multiplication, stored as a basis matrix over the power basis
1, t, ..., t^(n-1) together with a common monic denominator.  Fractional
ideals keep their rows in the coordinates of the owning order.  Every
lattice is normalized to canonical Hermite form with a minimal monic
denominator, so equal modules have identical keys.

Every factorization here is over F_p (polys.poly_factor).  A linear
prime q = x - c is tested by the Dedekind criterion and split by Kummer's
theorem from the factors of f mod q; any other q, and a linear q dividing
the index, goes through round two and the radical split, which need no
arithmetic over the residue field F_p[x]/(q): the split reaches every
prime above q as an ideal sum a + g(z) * O, with g a factor over F_p of
the minimal polynomial of an element z of O / a.

Three memos are shared by every context on a field: Order._decomp (the
primes above each q decomposed so far), PrimeIdeal._pows and _inv_pows
(the powers of a prime and of its inverse).  They grow lazily, without a
bound or a lock: a long-lived field keeps every q and exponent it has
seen, and contexts on one field must not run in several threads at once.
"""

import random

import numpy as np

from .polymat import (
    bareiss_det,
    fp_solve,
    hnf_square,
    in_lattice,
    lower_tri_inverse,
    mat_key,
    mat_mul,
    scalar_rows,
)
from .polys import (Poly, cancel, poly_factor, poly_gcd,
                    poly_squarefree_decomposition)


def _hermite(rows, den: Poly, p: int, mod: Poly = None):
    """Canonical (h, den) for the lattice rowspan(rows) / den: the HNF,
    with the gcd of its entries and den cancelled.  mod, if given, is a
    polynomial D with D * K[x]^n inside rowspan(rows) (see hnf_square)."""
    h = hnf_square(rows, p, mod)
    n = len(h)
    flat, den = cancel([e for row in h for e in row], den)
    if den.lc != 1:
        raise ArithmeticError("lattice denominator must be monic")
    return [flat[i:i + n] for i in range(0, n * n, n)], den


def _vec_mod(v, q: Poly):
    return [e % q for e in v]


def _reduce_mod_lattice(v, h):
    """Canonical representative of v modulo the row span of the HNF h."""
    v = list(v)
    for j in range(len(h) - 1, -1, -1):
        qt = v[j] // h[j][j]
        if qt.is_zero():
            continue
        row = h[j]
        for k in range(j + 1):
            if not row[k].is_zero():
                v[k] = v[k] - qt * row[k]
    return v


def _q_multiplicity(g: Poly, q: Poly) -> int:
    cnt = 0
    while not g.is_zero():
        quo, rem = g.divmod(q)
        if not rem.is_zero():
            break
        g = quo
        cnt += 1
    return cnt


class Order:
    """K[x]-order given by a basis matrix over the power basis and a
    denominator: the i-th basis element is (1/den) * sum_j basis[i][j] t^j.
    """

    __slots__ = ("field", "basis", "den", "one_coords", "_table", "_decomp",
                 "_radicals", "_key", "_tri")

    def __init__(self, field, rows, den: Poly):
        p = field.p
        h, den = _hermite(rows, den, p)
        self.field = field
        self.basis = h
        self.den = den
        target = [den if j == 0 else Poly.zero(p) for j in range(field.n)]
        one = in_lattice(target, h, p)
        if one is None:
            raise ArithmeticError("lattice does not contain 1")
        self.one_coords = one
        self._table = None
        self._decomp = {}
        # q-radicals left by round two, until decomposition above q reads them
        self._radicals = {}
        self._key = None
        self._tri = None

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def n(self) -> int:
        return self.field.n

    def key(self) -> bytes:
        if self._key is None:
            self._key = mat_key(self.basis) + b"/" + self.den.key()
        return self._key

    def det(self) -> Poly:
        d = self.basis[0][0]
        for j in range(1, self.n):
            d = d * self.basis[j][j]
        return d

    def index_poly(self) -> Poly:
        """Index of the equation order K[x][t]/(f) in this order."""
        return (self.den ** self.n).exact_div(self.det())

    def tri_inverse(self):
        """(G, d) with G * basis = d * Id, d the basis determinant."""
        if self._tri is None:
            self._tri = lower_tri_inverse(self.basis, self.p)
        return self._tri

    # -- multiplication table ------------------------------------------

    def table(self):
        if self._table is None:
            fld = self.field
            p, n, d = self.p, self.n, self.den
            T = [[None] * n for _ in range(n)]
            for a in range(n):
                for b in range(a, n):
                    vec = fld.mul_tpoly(self.basis[a], self.basis[b])
                    scaled = [e.exact_div(d) for e in vec]
                    c = in_lattice(scaled, self.basis, p)
                    if c is None:
                        raise ArithmeticError("lattice not closed under "
                                              "multiplication")
                    T[a][b] = T[b][a] = c
            self._table = T
        return self._table

    def elem_mul_matrix(self, v):
        """Rows: coordinates of (basis element a) * (element with coords v)."""
        return [mat_mul([v], t, self.p)[0] for t in self.table()]

    # -- coordinate conversion -------------------------------------------

    def from_power(self, vec):
        """Coordinates of sum vec[j] t^j, or None when not in the order."""
        return in_lattice([e * self.den for e in vec], self.basis, self.p)


class Ideal:
    """Fractional ideal (1/den) * rowspan(h) in order coordinates.

    mod, if given, is a polynomial D with D * O inside rowspan(rows); the
    HNF is then computed modulo D (see polymat.hnf_square)."""

    __slots__ = ("order", "h", "den", "_key")

    def __init__(self, order: Order, rows, den: Poly = None,
                 mod: Poly = None):
        if den is None:
            den = Poly.one(order.p)
        self.order = order
        self.h, self.den = _hermite(rows, den, order.p, mod)
        self._key = None

    def key(self) -> bytes:
        if self._key is None:
            self._key = mat_key(self.h) + b"/" + self.den.key()
        return self._key

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.order is other.order \
            and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_integral(self) -> bool:
        return self.den.is_one()

    def norm_degree(self) -> int:
        s = sum(self.h[j][j].deg for j in range(self.order.n))
        return s - self.order.n * self.den.deg

    def scale(self, g: Poly) -> "Ideal":
        return Ideal(self.order, [[e * g for e in row] for row in self.h],
                     self.den)


def ideal_one(order: Order) -> Ideal:
    return Ideal(order, scalar_rows(Poly.one(order.p), order.n))


def ideal_mul_elem(a: Ideal, c, cden: Poly = None) -> Ideal:
    """a times the nonzero element with order coordinates c / cden: the n
    rows of a, each multiplied by the element."""
    if all(e.is_zero() for e in c):
        raise ZeroDivisionError("product by zero")
    order = a.order
    rows = mat_mul(a.h, order.elem_mul_matrix(c), order.p)
    return Ideal(order, rows, a.den if cden is None else a.den * cden)


def principal_ideal(order: Order, c, cden: Poly = None) -> Ideal:
    return ideal_mul_elem(ideal_one(order), c, cden)


def _beta(h, k: int, p: int):
    """k-th second generator, an F_p-combination of the HNF rows after the
    minimum: the sum of i * h[i] for k = 0, the sum of the h[i] for k = 1.
    Unequal weights come first: with equal ones, rows whose residues at
    another prime are 1 and -1 cancel, as at ramified infinite primes."""
    out = [Poly.zero(p)] * len(h)
    for i in range(1, len(h)):
        c = i % p if k == 0 else 1
        if c:
            out = [e + r.scale(c) for e, r in zip(out, h[i])]
    return out


def _generators(a: Ideal):
    """Generator lists of the module spanned by the rows a.h, in the order
    they are tried: the minimum a.h[0] (a polynomial, as the first basis
    element of the order is 1) with each of two second generators, then
    all n rows, which always generate."""
    h, p = a.h, a.order.p
    for k in range(2):
        yield [h[0], _beta(h, k, p)]
    yield h


def ideal_mul(a: Ideal, b: Ideal) -> Ideal:
    """Product of two fractional ideals of a maximal order.

    Stacks g * b.h over the generators g of a from _generators: 2n rows
    for a pair (alpha, beta), n^2 rows for the last list.  The pair lies
    in a, so its candidate lies in ab and equals it exactly when the
    norm degrees add up; that is cancellation in a Dedekind domain and
    needs both factors to be ideals of the maximal order.  The n^2-row
    product is returned unchecked.

    Every list starts with the minimum alpha_a = a.h[0][0] of the
    numerator of a, and alpha_b = b.h[0][0] lies in the numerator of b,
    so the span of every stack contains alpha_a * alpha_b * O, which is
    D * K[x]^n in order coordinates for D = alpha_a * alpha_b: its HNF is
    computed modulo D.
    """
    order = a.order
    p = order.p
    target = a.norm_degree() + b.norm_degree()
    mod = a.h[0][0] * b.h[0][0]
    for gens in _generators(a):
        rows = []
        for g in gens:
            rows += mat_mul(b.h, order.elem_mul_matrix(g), p)
        out = Ideal(order, rows, a.den * b.den, mod)
        if out.norm_degree() == target:
            break
    return out


def _dual(order: Order, hs, num: Poly) -> Ideal:
    """The lattice {c : c * v in num * K[x] for every condition row v},
    given hs, the square HNF of the condition rows with their columns
    reversed.

    With J the column reversal, J * hs * J is an upper-triangular basis
    of the condition lattice, so for G * hs = d * Id from
    lower_tri_inverse the dual is num * J * G^T * J / d: the rows
    num * G[n-1-j][n-1-i], lower triangular with a nonzero diagonal.
    Their HNF meets one entry per column and makes no Euclid step; what
    remains is monic pivots, the reduction below each pivot and the
    cancellation against d.  Every colon ideal is one of these: the
    inverse, the radical and the multiplier ring each collect their
    conditions c * v in num * K[x] as the rows v of one stack.
    """
    n = order.n
    g, d = lower_tri_inverse(hs, order.p)
    return Ideal(order, [[g[n - 1 - j][n - 1 - i] * num for j in range(n)]
                         for i in range(n)], d)


def ideal_inv(a: Ideal) -> Ideal:
    """Inverse of a fractional ideal of a maximal order.

    The colon lattice {x : x * a inside O} is the _dual, num = a.den,
    of the columns of the multiplication matrices of the generators of
    a, each column reversed before the HNF.  The generators come from
    _generators, as in ideal_mul: the dual for a pair contains a^-1 and
    equals it exactly when the HNF's diagonal degrees (deg det, which
    the reversal keeps) sum to those of a.h, again by cancellation in
    the maximal order.  The dual for all n rows is used unchecked.

    Every list starts with the minimum alpha = a.h[0][0], a polynomial,
    whose multiplication matrix is alpha * Id: its columns span
    alpha * K[x]^n.  They are left out of the stack, and its HNF is
    computed modulo D = alpha instead, which stands for them exactly.
    """
    order = a.order
    p, n = order.p, order.n
    target = sum(a.h[j][j].deg for j in range(n))
    mod = a.h[0][0]
    for gens in _generators(a):
        rows = []
        for g in gens[1:]:
            # the columns, reversed
            rows += zip(*order.elem_mul_matrix(g)[::-1])
        hs = hnf_square(rows, p, mod)
        if sum(hs[j][j].deg for j in range(n)) == target:
            break
    return _dual(order, hs, a.den)


class PrimeIdeal(Ideal):
    """Prime of an order above the monic irreducible q of K[x]."""

    __slots__ = ("q", "e", "f", "_pows", "_inv", "_inv_pows")

    def __init__(self, order: Order, rows, q: Poly, f: int, e: int = None):
        super().__init__(order, rows)
        if not self.den.is_one():
            raise ArithmeticError("prime ideal must be integral")
        self.q = q
        self.e = e
        self.f = f
        self._pows = None
        self._inv = None
        self._inv_pows = None

    def degree(self) -> int:
        """Residue degree over the constant field."""
        return self.q.deg * self.f

    def _in_power(self, c, k: int) -> bool:
        return in_lattice(c, self.power(k).h, self.order.p) is not None

    def val_coords(self, c) -> int:
        """Valuation of the integral element with order coordinates c.

        Gallops and bisects on membership in the powers of the prime that
        are already memoized, so the cost is logarithmic in the valuation,
        and steps one power at a time beyond them, so the memo grows to at
        most one power past the valuation.
        """
        if not any(c):
            raise ZeroDivisionError("valuation of zero")
        if not self._in_power(c, 1):
            return 0
        top = len(self._pows) - 1
        lo, hi = 1, 2
        while hi <= top and self._in_power(c, hi):
            lo, hi = hi, hi * 2
        hi = min(hi, top + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._in_power(c, mid):
                lo = mid
            else:
                hi = mid
        if lo == top:
            while self._in_power(c, lo + 1):
                lo += 1
        return lo

    def val_fraction(self, c, cden: Poly) -> int:
        return self.val_coords(c) - self.e * _q_multiplicity(cden, self.q)

    def power(self, k: int) -> Ideal:
        # memoized both ways
        if self._pows is None:
            self._pows = [ideal_one(self.order), Ideal(self.order, self.h)]
        if k >= 0:
            pows = self._pows
            while len(pows) <= k:
                # the prime first: its two generators are the short ones
                pows.append(ideal_mul(pows[1], pows[-1]))
            return pows[k]
        if self._inv is None:
            self._inv = ideal_inv(self)
            self._inv_pows = [ideal_one(self.order), self._inv]
        pows = self._inv_pows
        while len(pows) <= -k:
            pows.append(ideal_mul(pows[1], pows[-1]))
        return pows[-k]


# -- discriminant and the round-two construction -------------------------


def separant_coeffs(field):
    """Coefficients of df/dt, highest degree last, or None if zero."""
    p = field.p
    n = field.n
    fc = list(field.coeffs) + [Poly.one(p)]
    dcs = [fc[i].scale(i % p) for i in range(1, n + 1)]
    while dcs and dcs[-1].is_zero():
        dcs.pop()
    return dcs or None


def discriminant_support(field) -> Poly:
    """Resultant of f and df/dt with respect to t, as a monic polynomial."""
    p = field.p
    n = field.n
    fc = list(field.coeffs) + [Poly.one(p)]
    dcs = separant_coeffs(field)
    if dcs is None:
        raise ArithmeticError("defining polynomial is inseparable")
    dp = len(dcs) - 1
    size = n + dp
    zero = Poly.zero(p)
    frow = fc[::-1]
    grow = dcs[::-1]
    rows = []
    for i in range(dp):
        rows.append([zero] * i + frow + [zero] * (size - n - 1 - i))
    for i in range(n):
        rows.append([zero] * i + grow + [zero] * (size - dp - 1 - i))
    det = bareiss_det(rows, p)
    if det.is_zero():
        raise ArithmeticError("vanishing discriminant")
    return det.monic()


def _residues(field, q: Poly) -> Poly:
    """f modulo the linear prime q = x - c: the polynomial in t over F_p
    with coefficients a_i(c)."""
    return Poly([(a % q).coeff(0) for a in field.coeffs] + [1], field.p)


def _dedekind_q_maximal(field, q: Poly) -> bool:
    """Dedekind criterion: is the equation order maximal at the linear
    prime q?  With f = g * h mod q, g the product of the distinct
    irreducible factors and F = (g * h - f) / q, it is maximal exactly
    when gcd(g, h, F mod q) = 1."""
    p = field.p
    fbar = _residues(field, q)
    gbar = Poly.one(p)
    for g, _ in poly_factor(fbar)[1]:
        gbar = gbar * g
    hbar = fbar.exact_div(gbar)
    # g and h lift as constants in x, so g * h lifts to fbar itself
    flist = list(field.coeffs) + [Poly.one(p)]
    Fbar = Poly([((Poly([c], p) - a).exact_div(q) % q).coeff(0)
                 for c, a in zip(fbar.coeffs, flist)], p)
    return poly_gcd(poly_gcd(gbar, hbar), Fbar).deg <= 0


def _pow_coords_mod(order: Order, v, e: int, q: Poly, table):
    """v^e mod q in coordinates; table is order.table() reduced mod q."""
    p = order.p

    def mul(a, b):
        m = [mat_mul([b], t, p)[0] for t in table]
        return _vec_mod(mat_mul([a], m, p)[0], q)

    result = _vec_mod(order.one_coords, q)
    base = _vec_mod(v, q)
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _radical_ideal(order: Order, q: Poly) -> Ideal:
    """q-radical of the order, {c : c^Q = 0 mod q} for the first power
    Q of #K[x]/(q) at least n; it contains q * O.  c -> c^Q mod q is
    linear with rows e_i^Q, so this is the _dual, num = q, of the
    columns of that matrix and the rows q * e_i.  The columns are
    reversed before the HNF, which is taken modulo q: that stands for
    the rows q * e_i exactly, so they are left out of the stack."""
    p, n = order.p, order.n
    qp = p ** q.deg
    Q = qp
    while Q < n:
        Q *= qp
    table = [[_vec_mod(c, q) for c in row] for row in order.table()]
    frob = [_pow_coords_mod(order, ei, Q, q, table)
            for ei in scalar_rows(Poly.one(p), n)]
    return _dual(order, hnf_square(list(zip(*frob[::-1])), p, q), q)


def _maximalize_at(order: Order, q: Poly) -> Order:
    """Round two at q: replace the order by its multiplier ring
    {c : c * rad inside q * rad} until they agree.  With G_B * (q * rad)
    = d_B * Id that ring is the _dual, num = d_B, of the columns of
    M_w * G_B for the rows w of rad and the rows d_B * e_i.  As in
    _radical_ideal, the columns are reversed and the HNF is taken modulo
    d_B in place of those rows.  The returned order keeps its q-radical
    for _decompose_radical_split."""
    field = order.field
    p, n = order.p, order.n
    qid_key = mat_key(scalar_rows(q, n))
    for _ in range(500):
        rad = _radical_ideal(order, q)
        gb, db = lower_tri_inverse([[e * q for e in row] for row in rad.h],
                                   p)
        rows = []
        for w in rad.h:
            rows += zip(*mat_mul(order.elem_mul_matrix(w), gb, p)[::-1])
        L = _dual(order, hnf_square(rows, p, db), db).h
        if mat_key(L) == qid_key:
            order._radicals[q.key()] = rad
            return order
        order = Order(field, mat_mul(L, order.basis, p), q * order.den)
    raise ArithmeticError("order enlargement did not stabilize")


def maximal_order(field) -> Order:
    """Round two at every q whose square divides the discriminant, in
    (degree, key) order.  Only the repeated part of the discriminant is
    factored: a squarefree discriminant needs no factoring at all.  A
    linear q where the Dedekind criterion holds is skipped; any other q
    goes straight to round two, which certifies q-maximality itself."""
    p, n = field.p, field.n
    qs = []
    for part, mult in poly_squarefree_decomposition(field.discriminant()):
        if mult >= 2:
            qs += [q for q, _ in poly_factor(part)[1]]
    qs.sort(key=lambda q: (q.deg, q.key()))
    order = Order(field, scalar_rows(Poly.one(p), n), Poly.one(p))
    for q in qs:
        if q.deg == 1 and _dedekind_q_maximal(field, q):
            continue
        order = _maximalize_at(order, q)
    return order


# -- prime decomposition -------------------------------------------------


def _decompose_kummer(order: Order, q: Poly):
    """Primes above a linear q prime to the index: (q, g(t)) for each
    irreducible factor g of f mod q, lifted with constant coefficients."""
    field = order.field
    p = field.p
    primes = []
    for gbar, e in poly_factor(_residues(field, q))[1]:
        # an inert q has a factor of degree n: reduce_tpoly folds its t^n
        vec = field.reduce_tpoly([Poly([c], p) for c in gbar.coeffs])
        c = order.from_power(vec)
        if c is None:
            raise ArithmeticError("lift left the order")
        rows = order.elem_mul_matrix(c) + scalar_rows(q, order.n)
        primes.append(PrimeIdeal(order, rows, q, f=gbar.deg, e=e))
    return primes


def _decompose_radical_split(order: Order, q: Poly):
    """Primes above q, split off the semisimple quotient O / rad(qO) by
    ideal sums (Cohen, GTM 138, 6.2).  A work list holds integral ideals
    a containing the radical, so O / a is a product of fields.  A random
    z in O / a has minimal polynomial mu over F_p, found from its powers
    reduced mod a.  When mu is irreducible of degree dim O / a = deg
    det(a.h), z generates a field and a is prime; an irreducible mu of
    smaller degree leaves a to another z.  Otherwise each irreducible
    factor g of mu gives the ideal a + g(z) * O, whose quotient is the
    product of the fields where g(z) vanishes.  A q prime to the
    discriminant of f is unramified and prime to the index, so its
    radical is q * O itself and no Frobenius power is taken."""
    p, n, d = order.p, order.n, q.deg
    rad = order._radicals.pop(q.key(), None)
    if rad is None:
        if q.divides(order.field.discriminant()):
            rad = _radical_ideal(order, q)
        else:
            rad = Ideal(order, scalar_rows(q, n))
    seed = int.from_bytes(q.key(), "little") % (1 << 31)
    rng = random.Random(seed ^ p)
    work, primes = [rad], []
    while work:
        a = work.pop()
        h = a.h
        # every diagonal entry of h divides q: O / a has F_p-basis the
        # coefficients below deg q in the columns whose entry is q
        qpos = [j for j in range(n) if h[j][j].deg]

        def flat(v):
            out = np.zeros(d * len(qpos), dtype=np.int64)
            for i, j in enumerate(qpos):
                out[i * d:i * d + v[j].deg + 1] = v[j].coeffs
            return out

        z = [Poly([rng.randrange(p) for _ in range(h[j][j].deg)], p)
             for j in range(n)]
        m = [_reduce_mod_lattice(row, h) for row in order.elem_mul_matrix(z)]
        pows = [_reduce_mod_lattice(order.one_coords, h)]
        flats = [flat(pows[0])]
        while True:
            cur = _reduce_mod_lattice(mat_mul([pows[-1]], m, p)[0], h)
            dep = fp_solve(np.array(flats), flat(cur), p)
            if dep is not None:
                break
            pows.append(cur)
            flats.append(flat(cur))
        mu = Poly([-int(c) for c in dep] + [1], p)
        _, mfacs = poly_factor(mu)
        if any(k > 1 for _, k in mfacs):
            raise ArithmeticError("quotient is not semisimple")
        if len(mfacs) == 1:
            if mu.deg == d * len(qpos):
                primes.append(PrimeIdeal(order, h, q, f=mu.deg // d))
            else:
                work.append(a)
            continue
        for g, _ in mfacs:
            w = [Poly.zero(p)] * n
            for c, v in zip(g.coeffs, pows):
                if c:
                    w = [e + t.scale(c) for e, t in zip(w, v)]
            work.append(Ideal(order, h + order.elem_mul_matrix(w), mod=q))
    return primes


def decompose_prime(order: Order, q: Poly):
    """Primes of the maximal order above the monic irreducible q, sorted
    canonically, as PrimeIdeal objects with ramification data filled in.
    A linear q prime to the index is split by Kummer's theorem, from the
    factors of f mod q over F_p; every other q, and a linear q dividing
    the index, by the radical split into ideal sums, which costs more.
    Either way the ramification indices come from valuations of q."""
    ck = q.key()
    cached = order._decomp.get(ck)
    if cached is not None:
        return cached
    if q.deg == 1 and not q.divides(order.index_poly()):
        primes = _decompose_kummer(order, q)
    else:
        primes = _decompose_radical_split(order, q)
    qone = [e * q for e in order.one_coords]
    for pr in primes:
        ev = pr.val_coords(qone)
        if pr.e is not None and pr.e != ev:
            raise ArithmeticError("inconsistent ramification index")
        pr.e = ev
    if sum(pr.e * pr.f for pr in primes) != order.n:
        raise ArithmeticError("e*f does not sum to the degree")
    primes.sort(key=lambda pr: (pr.e, pr.f, pr.key()))
    order._decomp[ck] = primes
    return primes
