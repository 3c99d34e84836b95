"""Dense univariate polynomial arithmetic over prime fields F_p.

A Poly holds one Python int, v: coefficient k in bits [64k, 64k + 64)
(Kronecker substitution), every 64-bit digit reduced mod p.  The zero
polynomial is 0, the top digit is the leading coefficient and the bit
length gives the degree.  The matrix kernels of polymat compute on the
same ints: they read e.v and wrap their results as Poly.

Digit bounds.  Sums and products of packed ints work digit by digit as
long as no digit carries, and two digits below 2^63 add without one.  So
arithmetic adds first and reduces later, exact for every p < 2^31, with
the primitives of this module, which Poly and polymat share: _normalize
reduces every digit mod p, _strip drops top digits that are 0 mod p,
_neg negates the digits mod p with no borrow, _add_product adds q * rk
to a row and _euclid divides one entry by another.  The last two track
a bound on the digits and reduce mod p only when the next step could
reach 2^63.

poly_factor (Cantor-Zassenhaus) is the library's only factoring routine;
nothing factors over an extension of F_p.

Poly values are immutable (every operation returns a fresh Poly or one
of its operands), so they can be shared freely across threads; the memos
of orders cannot.
"""

from __future__ import annotations

import random

import numpy as np

# every 64-bit digit of a packed int stays below this: none carries
_DIGIT_LIMIT = 1 << 63
_MASK = (1 << 64) - 1


def _inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo p by extended Euclid. Raises on a == 0 mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of zero in F_%d" % p)
    return pow(a, -1, p)


def _normalize(ents, p: int):
    """The packed ints with every digit reduced mod p: up to ten digits in
    all digit by digit, more in one numpy pass."""
    sizes = [(e.bit_length() + 63) >> 6 for e in ents]
    if sum(sizes) <= 10:
        out = []
        for e in ents:
            r = k = 0
            while e:
                r |= (e & _MASK) % p << k
                e >>= 64
                k += 64
            out.append(r)
        return out
    buf = b"".join(e.to_bytes(s << 3, "little") for e, s in zip(ents, sizes))
    buf = (np.frombuffer(buf, "<u8") % p).tobytes()
    out, pos = [], 0
    for s in sizes:
        out.append(int.from_bytes(buf[pos:pos + (s << 3)], "little"))
        pos += s << 3
    return out


def _strip(e: int, p: int) -> int:
    """e without its top digits that are 0 mod p, so that its top digit
    gives its degree and, mod p, its leading coefficient."""
    t = (e.bit_length() - 1) >> 6
    while t >= 0 and (e >> (t << 6)) % p == 0:
        e &= (1 << (t << 6)) - 1
        t = (e.bit_length() - 1) >> 6
    return e


def _neg(e: int, p: int) -> int:
    """Digits congruent to minus those of e mod p, for digits below 2^63:
    each is m - d for the multiple m of p just above 2^63, so none
    borrows, and each stays below 2^64 - 2p."""
    m = -(-_DIGIT_LIMIT // p) * p
    return m * (((1 << (((e.bit_length() + 63) >> 6) << 6)) - 1) // _MASK) - e


def _add_product(ri, bi, q, qb, rk, bk, j, p: int):
    """ri[t] += q * rk[t] for every t but j (all packed); bi, qb and bk
    (below p) bound the digits of ri, q and rk, and each digit of q adds
    at most qb * bk.  Where that could reach 2^63, ri is reduced mod p,
    then q; a q with more digits than one product of reduced operands can
    take (fewer than about 2^30 only for p near 2^31) goes a piece at a
    time.  Returns the new bi."""
    lo = 0
    while q:
        k = (q.bit_length() + 63) >> 6
        piece = q
        if bi + k * qb * bk >= _DIGIT_LIMIT:
            ri[:], bi = _normalize(ri, p), p - 1
            if bi + k * qb * bk >= _DIGIT_LIMIT and qb >= p:
                q = piece = _normalize([q], p)[0]
                qb = p - 1
            span = (_DIGIT_LIMIT - 1 - bi) // (qb * bk)
            if k > span:
                k = span
                piece = q & ((1 << (k << 6)) - 1)
        for t, e in enumerate(rk):
            if e and t != j:
                ri[t] += (piece * e) << (lo << 6)
        bi += k * qb * bk
        q >>= k << 6
        lo += k
    return bi


def _euclid(a: int, ab: int, b: int, bk: int, p: int):
    """(q, qb, r, rb): a + q * b = r with r stripped and of lower degree
    than b, so q is minus the quotient (b stripped and nonzero; ab, bk,
    qb and rb bound the digits of a, b, q and r).  A constant b gives q =
    a times minus its inverse, else one simple transformation per digit
    m of q, which adds at most m * bk to a, reduced mod p first when that
    could reach 2^63."""
    db = (b.bit_length() - 1) >> 6
    inv = pow(b >> (db << 6), -1, p)
    if db == 0:
        if ab * (p - inv) >= _DIGIT_LIMIT:
            a, ab = _normalize([a], p)[0], p - 1
        return a * (p - inv), ab * (p - inv), 0, 0
    q = 0
    while True:
        da = (a.bit_length() - 1) >> 6
        if da < db:
            return q, p - 1, a, ab
        m = -(a >> (da << 6)) * inv % p
        if ab + m * bk >= _DIGIT_LIMIT:
            a, ab = _normalize([a], p)[0], p - 1
        s = (da - db) << 6
        a = _strip((a + ((m * b) << s)) & ((1 << (da << 6)) - 1), p)
        q += m << s
        ab += m * bk


def _poly(v: int, p: int) -> "Poly":
    """The Poly of the packed int v, every digit already reduced mod p."""
    f = object.__new__(Poly)
    f.p = p
    f.v = v
    return f


def _reduced(v: int, p: int) -> "Poly":
    """The Poly of the packed int v, its digits reduced mod p here."""
    return _poly(_normalize([v], p)[0], p)


class Poly:
    """Polynomial over F_p from its coefficients, lowest degree first."""

    __slots__ = ("p", "v")

    def __init__(self, coeffs, p: int):
        self.p = p
        self.v = int.from_bytes(b"".join((int(c) % p).to_bytes(8, "little")
                                         for c in coeffs), "little")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(p: int) -> "Poly":
        return _poly(0, p)

    @staticmethod
    def one(p: int) -> "Poly":
        return _poly(1, p)

    @staticmethod
    def x(p: int) -> "Poly":
        return _poly(1 << 64, p)

    # -- basic queries --------------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree; -1 for the zero polynomial (kept out of maxima by callers)."""
        return (self.v.bit_length() - 1) >> 6

    def is_zero(self) -> bool:
        return not self.v

    def is_one(self) -> bool:
        return self.v == 1

    @property
    def lc(self) -> int:
        """Leading coefficient as an int residue; 0 for the zero polynomial."""
        v = self.v
        return v >> (((v.bit_length() - 1) >> 6) << 6) if v else 0

    def coeff(self, k: int) -> int:
        return (self.v >> (k << 6)) & _MASK if k >= 0 else 0

    @property
    def coeffs(self) -> tuple:
        return tuple(np.frombuffer(self.key(), "<u8").tolist())

    def key(self) -> bytes:
        """Canonical bytes, usable as a dict key within one field: the
        coefficients as little-endian 64-bit words."""
        v = self.v
        return v.to_bytes(((v.bit_length() + 63) >> 6) << 3, "little")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not other.v:
            return self
        if not self.v:
            return other
        return _reduced(self.v + other.v, self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        if not other.v:
            return self
        return _reduced(self.v + _neg(other.v, self.p), self.p)

    def __neg__(self) -> "Poly":
        return _reduced(_neg(self.v, self.p), self.p)

    def __mul__(self, other: "Poly") -> "Poly":
        """Directly when no digit of the product can reach 2^63, else
        through _add_product, which applies the shorter factor in pieces."""
        a, b, p = self.v, other.v, self.p
        if a.bit_length() > b.bit_length():
            a, b = b, a
        if not a:
            return _poly(0, p)
        if ((a.bit_length() + 63) >> 6) * (p - 1) ** 2 < _DIGIT_LIMIT:
            return _reduced(a * b, p)
        out = [0]
        _add_product(out, 0, a, p - 1, [b], p - 1, None, p)
        return _reduced(out[0], p)

    def scale(self, v: int) -> "Poly":
        v %= self.p
        if v == 0:
            return _poly(0, self.p)
        if v == 1:
            return self
        return _reduced(self.v * v, self.p)

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k; a negative k drops the -k lowest coefficients."""
        if k >= 0:
            return _poly(self.v << (k << 6), self.p)
        return _poly(self.v >> (-k << 6), self.p)

    def monic(self) -> "Poly":
        if self.is_zero() or self.lc == 1:
            return self
        return self.scale(_inv_mod(self.lc, self.p))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        out = Poly.one(self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- Euclidean structure ----------------------------------------------------

    def divmod(self, other: "Poly"):
        """Quotient and remainder; other must be nonzero."""
        p, a, b = self.p, self.v, other.v
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if self.deg < other.deg:
            return _poly(0, p), self
        q, _, r, _ = _euclid(a, p - 1, b, p - 1, p)
        q, r = _normalize([_neg(q, p), r], p)
        return _poly(q, p), _poly(r, p)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("exact_div with nonzero remainder")
        return q

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def derivative(self) -> "Poly":
        c = self.coeffs
        return Poly([k * c[k] for k in range(1, len(c))], self.p)

    def reverse(self, n: int) -> "Poly":
        """x^n * f(1/x); n must be at least deg(f)."""
        if n < self.deg:
            raise ValueError("reverse length below degree")
        rev = np.frombuffer(self.key(), "<u8")[::-1].tobytes()
        return _poly(int.from_bytes(rev, "little") << ((n - self.deg) << 6),
                     self.p)

    # -- comparisons ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.p == other.p
                and self.v == other.v)

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "Poly(%s, p=%d)" % (poly_str(self), self.p)


def _int_list(c) -> bool:
    """Whether c is a list of ints (not bools), as JSON input must be."""
    return isinstance(c, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in c)


def cancel(entries, den: Poly):
    """(entries / g, den / g) for g the monic gcd of den and the entries,
    from den on and stopping once it reaches 1; den is nonzero."""
    g = den.monic()
    for e in entries:
        if g.is_one():
            break
        if e:
            g = poly_gcd(e, g)
    if g.is_one():
        return list(entries), den
    return [e.exact_div(g) for e in entries], den.exact_div(g)


def poly_str(f: Poly, var: str = "x") -> str:
    if f.is_zero():
        return "0"
    parts = []
    for k in range(f.deg, -1, -1):
        v = f.coeff(k)
        if v == 0:
            continue
        if k == 0:
            parts.append(str(v))
        elif k == 1:
            parts.append("%s%s" % ("" if v == 1 else "%d*" % v, var))
        else:
            parts.append("%s%s^%d" % ("" if v == 1 else "%d*" % v, var, k))
    return " + ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod mod, square and multiply."""
    out = Poly.one(base.p)
    base = base % mod
    while e:
        if e & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        e >>= 1
    return out


def _pth_root(f: Poly) -> Poly:
    """For f = g(x^p) over F_p returns the p-th root h with h^p = f."""
    return Poly(f.coeffs[::f.p], f.p)


def poly_squarefree_decomposition(f: Poly):
    """List of (factor, multiplicity) with factor squarefree, char p aware."""
    p = f.p
    out = []
    if f.deg < 1:
        return out

    def rec(g: Poly, mult: int):
        if g.deg < 1:
            return
        dg = g.derivative()
        if dg.is_zero():
            rec(_pth_root(g), mult * p)
            return
        w = poly_gcd(g, dg)
        v = g.exact_div(w)  # product of squarefree part's factors
        k = 1
        while v.deg >= 1:
            h = poly_gcd(v, w)
            piece = v.exact_div(h)
            if piece.deg >= 1:
                out.append((piece.monic(), mult * k))
            v = h
            w = w.exact_div(h)
            k += 1
        if w.deg >= 1:
            rec(w, mult)

    rec(f.monic(), 1)
    return out


def _ddf(f: Poly):
    """Distinct degree factorization of squarefree monic f over F_p."""
    p = f.p
    out = []
    h = Poly.x(p) % f
    rem = f
    d = 0
    x = Poly.x(p)
    while rem.deg > 0:
        d += 1
        if 2 * d > rem.deg:
            out.append((rem, rem.deg))
            break
        h = poly_powmod(h, p, rem)
        g = poly_gcd(h - x, rem)
        if g.deg > 0:
            out.append((g, d))
            rem = rem.exact_div(g)
            h = h % rem
    return out


def _edf(f: Poly, d: int, rng) -> list:
    """Equal degree factorization: f squarefree monic, all factors degree d."""
    p = f.p
    n = f.deg
    if n == d:
        return [f]
    work = [f]
    out = []
    while work:
        g = work.pop()
        if g.deg == d:
            out.append(g)
            continue
        r = Poly([rng.randrange(p) for _ in range(g.deg)], p)
        if r.deg < 1:
            work.append(g)
            continue
        if p == 2:
            # trace map splits products of degree-d factors in char 2
            t = r % g
            acc = t
            for _ in range(d - 1):
                t = (t * t) % g
                acc = (acc + t) % g
            cand = poly_gcd(acc, g)
        else:
            e = (p**d - 1) // 2
            cand = poly_gcd(poly_powmod(r, e, g) - Poly.one(p), g)
        if 0 < cand.deg < g.deg:
            work.append(cand)
            work.append(g.exact_div(cand))
        else:
            work.append(g)
    return out


def poly_factor(f: Poly):
    """Full factorization into monic irreducibles, by Cantor-Zassenhaus.

    Returns (lc, [(irreducible, multiplicity), ...]) sorted by (degree,
    key), so the result is deterministic.  Prime decomposition factors
    here as well: f mod a linear prime for Kummer's theorem, and minimal
    polynomials over F_p in the radical split.
    """
    rng = random.Random(1)
    if f.is_zero():
        raise ValueError("factor of zero polynomial")
    lead = f.lc
    out = []
    for sq, mult in poly_squarefree_decomposition(f):
        for part, d in _ddf(sq):
            for irr in _edf(part, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].deg, t[0].key()))
    return lead, out


def poly_is_irreducible(f: Poly) -> bool:
    """Rabin's test: x^{p^n} = x mod f and gcd conditions at maximal subdegrees."""
    if f.deg < 1:
        return False
    if f.deg == 1:
        return True
    p = f.p
    n = f.deg
    x = Poly.x(p)
    primes = set()
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            primes.add(d)
            m //= d
        d += 1
    if m > 1:
        primes.add(m)
    for q in primes:
        h = x
        for _ in range(n // q):
            h = poly_powmod(h, p, f)
        if poly_gcd(h - x, f).deg != 0:
            return False
    h = x
    for _ in range(n):
        h = poly_powmod(h, p, f)
    return (h - x) % f == Poly.zero(p)


def enumerate_monic_irreducibles(p: int, d: int):
    """Yield every monic irreducible of degree d over F_p (p^d candidates)."""
    top = 1 << (d << 6)
    for idx in range(p**d):
        v = top
        for k in range(d):
            v |= idx % p << (k << 6)
            idx //= p
        f = _poly(v, p)
        if d == 1 or poly_is_irreducible(f):
            yield f
