"""Dense univariate polynomial arithmetic over prime fields F_p.

Coefficients are stored as numpy int64 arrays of residues, lowest degree
first, with the zero polynomial represented by the empty array (so the zero
polynomial never contributes a degree to any maximum). Products go through
numpy convolution when p is small enough that convolution sums cannot
overflow int64, and through Kronecker substitution on Python big ints
otherwise, so every prime p < 2^31 is exact.

Poly wraps an array and delegates to three primitives on raw arrays:
_trim (drop leading zeros), _mul_arr and _divmod_arr.  The matrix
kernels of polymat work on packed integers instead (see polymat).

poly_factor (Cantor-Zassenhaus) is the library's only factoring routine;
nothing factors over an extension of F_p.

Poly values are immutable (every operation returns a fresh Poly), so they
can be shared freely across threads; the memos of orders cannot.
"""

from __future__ import annotations

import random

import numpy as np

# Above this modulus a convolution sum of int64 products could overflow,
# products switch to Kronecker substitution on Python ints.
_CONV_LIMIT = 1 << 21

_ZERO = np.zeros(0, dtype=np.int64)


def _inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo p by extended Euclid. Raises on a == 0 mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of zero in F_%d" % p)
    return pow(a, -1, p)


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


class Poly:
    """Polynomial over F_p, coefficients lowest degree first."""

    __slots__ = ("p", "c")

    def __init__(self, coeffs, p: int):
        if isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64:
            c = coeffs % p
        else:
            c = np.asarray([int(v) % p for v in coeffs], dtype=np.int64)
        c = _trim(c)
        self.p = p
        self.c = c
        c.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(p: int) -> "Poly":
        return _mk(_ZERO, p)

    @staticmethod
    def one(p: int) -> "Poly":
        return _mk(np.ones(1, dtype=np.int64), p)

    @staticmethod
    def x(p: int) -> "Poly":
        return Poly([0, 1], p)

    # -- basic queries --------------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree; -1 for the zero polynomial (kept out of maxima by callers)."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return len(self.c) == 0

    def is_one(self) -> bool:
        return len(self.c) == 1 and self.c[0] == 1

    @property
    def lc(self) -> int:
        """Leading coefficient as an int residue; 0 for the zero polynomial."""
        return int(self.c[-1]) if len(self.c) else 0

    def coeff(self, k: int) -> int:
        return int(self.c[k]) if 0 <= k < len(self.c) else 0

    @property
    def coeffs(self) -> tuple:
        return tuple(int(v) for v in self.c)

    def key(self) -> bytes:
        """Canonical bytes, usable as a dict key within one field."""
        return self.c.tobytes()

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        if len(b):
            out[: len(b)] = (out[: len(b)] + b) % self.p
        return _mk(_trim(out), self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=np.int64)
        out[: len(a)] = a
        if len(b):
            out[: len(b)] = (out[: len(b)] - b) % self.p
        return _mk(_trim(out), self.p)

    def __neg__(self) -> "Poly":
        return _mk((-self.c) % self.p, self.p)

    def __mul__(self, other: "Poly") -> "Poly":
        return _mk(_mul_arr(self.c, other.c, self.p), self.p)

    def scale(self, v: int) -> "Poly":
        v %= self.p
        if v == 0:
            return _mk(_ZERO, self.p)
        if v == 1:
            return self
        return _mk((self.c * v) % self.p, self.p)

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero() or k == 0:
            return self
        out = np.zeros(len(self.c) + k, dtype=np.int64)
        out[k:] = self.c
        return _mk(out, self.p)

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
        q, r = _divmod_arr(self.c, other.c, self.p)
        return _mk(q, self.p), _mk(r, self.p)

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
        if self.deg < 1:
            return _mk(_ZERO, self.p)
        k = np.arange(1, len(self.c), dtype=np.int64)
        return _mk(_trim((self.c[1:] * k) % self.p), self.p)

    def reverse(self, n: int) -> "Poly":
        """x^n * f(1/x); n must be at least deg(f)."""
        if n < self.deg:
            raise ValueError("reverse length below degree")
        out = np.zeros(n + 1, dtype=np.int64)
        if len(self.c):
            out[n - self.deg :] = self.c[::-1]
        return _mk(_trim(out), self.p)

    # -- comparisons ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and len(self.c) == len(other.c)
            and bool(np.all(self.c == other.c))
        )

    def __hash__(self):
        return hash((self.p, self.c.tobytes()))

    def __bool__(self):
        return len(self.c) != 0

    def __repr__(self):
        return "Poly(%s, p=%d)" % (poly_str(self), self.p)


def _int_list(c) -> bool:
    """Whether c is a list of ints (not bools), as JSON input must be."""
    return isinstance(c, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in c)


def _mk(c: np.ndarray, p: int) -> Poly:
    obj = Poly.__new__(Poly)
    obj.p = p
    obj.c = c
    c.setflags(write=False)
    return obj


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
    p = f.p
    return _mk(f.c[::p].copy(), p)


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
    base = np.zeros(d + 1, dtype=np.int64)
    base[d] = 1
    for idx in range(p**d):
        c = base.copy()
        v = idx
        for k in range(d):
            c[k] = v % p
            v //= p
        f = _mk(c, p)
        if d == 1 or poly_is_irreducible(f):
            yield f
