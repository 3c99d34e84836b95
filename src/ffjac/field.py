"""Function fields K(x)[t]/(f) for K = F_p.

f is monic in t with K[x] coefficients, f = t^n + a_{n-1} t^{n-1} + ... +
a_0. The field carries the twist exponent e = max over nonzero a_i of
ceil(deg a_i / (n - i)); substituting x = 1/u, t = s/u^e turns f into a
second monic model over K[u] whose integral closure describes the places
over the degree valuation. Elements are stored as coordinate rows in the
power basis 1, t, ..., t^{n-1} over K(x) with a cleared denominator.
"""

from __future__ import annotations

from .extpoly import (PolyRing, RatFuncField, fqp_add, fqp_deg,
                      fqp_derivative, fqp_divmod, fqp_gcd, fqp_is_irreducible,
                      fqp_mul, fqp_reduce, fqp_sub, make_field_ext)
from .polys import (Poly, RatFunc, _int_list, poly_gcd, poly_is_irreducible,
                    poly_xgcd)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def compute_cf(coeffs, n: int) -> int:
    """Twist exponent: max of ceil(deg a_i / (n - i)) over nonzero a_i."""
    e = 1
    for i, a in enumerate(coeffs):
        if a.is_zero():
            continue
        need = -((-a.deg) // (n - i))  # ceil division
        if need > e:
            e = need
    return e


def twist_coeffs(coeffs):
    """Coefficients of the model at infinity over K[u]: x = 1/u and
    t = s/u^e with e = compute_cf(coeffs, n)."""
    n = len(coeffs)
    e = compute_cf(coeffs, n)
    return [a if a.is_zero() else a.reverse(a.deg).shift(e * (n - i) - a.deg)
            for i, a in enumerate(coeffs)]


class FunctionField:
    """K(x)[t]/(f) with f = t^n + sum coeffs[i] * t^i."""

    __slots__ = (
        "p",
        "n",
        "coeffs",
        "cf",
        "_tpow",
        "_inf_model",
        "_fin_order",
        "_inf_order",
        "_genus",
        "_inf_places",
    )

    def __init__(self, coeffs, p: int, check: bool = True):
        if not _is_prime(p) or p >= 1 << 31:
            raise ValueError("p must be a prime below 2^31")
        coeffs = tuple(
            c if isinstance(c, Poly) else Poly(c, p) for c in coeffs
        )
        n = len(coeffs)
        if n < 2:
            raise ValueError("need degree at least 2 in t")
        for c in coeffs:
            if c.p != p:
                raise ValueError("coefficient field mismatch")
        if check and not is_irreducible(coeffs, p):
            raise ValueError("defining polynomial is reducible")
        self.p = p
        self.n = n
        self.coeffs = coeffs
        self.cf = compute_cf(coeffs, n)
        self._tpow = None
        self._inf_model = None
        self._fin_order = None
        self._inf_order = None
        self._genus = None
        self._inf_places = None

    # -- basic structure ------------------------------------------------

    def key(self) -> bytes:
        parts = [b"%d,%d:" % (self.p, self.n)]
        parts.extend(c.key() for c in self.coeffs)
        return b"|".join(parts)

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "FunctionField(p=%d, n=%d, cf=%d)" % (self.p, self.n, self.cf)

    def _tpow_table(self):
        # coordinate rows of t^k mod f for k = n .. 2n-2
        if self._tpow is None:
            n = self.n
            rows = []
            cur = [-a for a in self.coeffs]  # t^n
            rows.append(list(cur))
            for _ in range(n - 2):
                top = cur[n - 1]
                nxt = [Poly.zero(self.p)] + cur[: n - 1]
                if not top.is_zero():
                    for i in range(n):
                        nxt[i] = nxt[i] - top * self.coeffs[i]
                rows.append(nxt)
                cur = nxt
            self._tpow = rows
        return self._tpow

    def reduce_tpoly(self, clist):
        """Coordinates of sum clist[k] t^k, len(clist) <= 2n-1."""
        n = self.n
        out = list(clist[:n])
        while len(out) < n:
            out.append(Poly.zero(self.p))
        table = self._tpow_table()
        for k in range(n, len(clist)):
            c = clist[k]
            if c.is_zero():
                continue
            row = table[k - n]
            for i in range(n):
                if not row[i].is_zero():
                    out[i] = out[i] + c * row[i]
        return out

    # -- twist / infinite model ------------------------------------------

    def infinite_model(self) -> "FunctionField":
        if self._inf_model is None:
            self._inf_model = FunctionField(
                twist_coeffs(self.coeffs), self.p, check=False
            )
        return self._inf_model

    def one(self) -> "FFElem":
        num = [Poly.one(self.p)] + [Poly.zero(self.p)] * (self.n - 1)
        return FFElem(self, num)

    def zero(self) -> "FFElem":
        return FFElem(self, [Poly.zero(self.p)] * self.n)

    # -- lazy heavy structure ---------------------------------------------

    def finite_order(self):
        if self._fin_order is None:
            from .orders import maximal_order

            self._fin_order = maximal_order(self)
        return self._fin_order

    def infinite_order(self):
        if self._inf_order is None:
            from .orders import maximal_order

            self._inf_order = maximal_order(self.infinite_model())
        return self._inf_order

    def genus(self) -> int:
        if self._genus is None:
            from .riemann_roch import compute_genus

            self._genus = compute_genus(self)
        return self._genus

    def genus_bound(self) -> int:
        return ((self.cf * self.n - 2) * (self.n - 1)) // 2

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "coeffs": [[int(v) for v in a.c] for a in self.coeffs],
        }

    @staticmethod
    def from_dict(d: dict, check: bool = True) -> "FunctionField":
        """Inverse of to_dict; raises ValueError on malformed input."""
        try:
            p, n, coeffs = d["p"], d["n"], d["coeffs"]
        except (KeyError, TypeError):
            raise ValueError("field needs p, n and coeffs") from None
        if not (_int_list([p, n]) and isinstance(coeffs, list)
                and all(_int_list(c) for c in coeffs)):
            raise ValueError("p and n must be integers and coeffs a list "
                             "of integer lists")
        if len(coeffs) != n:
            raise ValueError("coefficient count does not match degree")
        return FunctionField(coeffs, p, check=check)

def make_field(p: int, n: int, coeffs, check: bool = True) -> FunctionField:
    """Validated construction from integer coefficient lists or Polys."""
    coeffs = [c if isinstance(c, Poly) else Poly(c, p) for c in coeffs]
    if len(coeffs) != n:
        raise ValueError("expected %d coefficients, got %d" % (n, len(coeffs)))
    return FunctionField(coeffs, p, check=check)


class FFElem:
    """Element in power-basis coordinates num/den, den in K[x]."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FunctionField, num, den=None):
        p = field.p
        num = [c if isinstance(c, Poly) else Poly(c, p) for c in num]
        if len(num) != field.n:
            raise ValueError("coordinate count mismatch")
        if den is None:
            den = Poly.one(p)
        elif not isinstance(den, Poly):
            den = Poly(den, p)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = den
        for c in num:
            g = poly_gcd(g, c)
            if g.deg == 0:
                break
        if g.deg > 0:
            num = [c.exact_div(g) for c in num]
            den = den.exact_div(g)
        lc = den.lc
        if lc != 1:
            from .polys import _inv_mod

            inv = _inv_mod(lc, p)
            num = [c.scale(inv) for c in num]
            den = den.scale(inv)
        self.field = field
        self.num = tuple(num)
        self.den = den

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.num)

    def key(self) -> bytes:
        parts = [self.den.key()]
        parts.extend(c.key() for c in self.num)
        return b"|".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, FFElem)
            and self.field == other.field
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        da, db = self.den, other.den
        num = [a * db + b * da for a, b in zip(self.num, other.num)]
        return FFElem(self.field, num, da * db)

    def __sub__(self, other):
        self._check(other)
        da, db = self.den, other.den
        num = [a * db - b * da for a, b in zip(self.num, other.num)]
        return FFElem(self.field, num, da * db)

    def __neg__(self):
        return FFElem(self.field, [-c for c in self.num], self.den)

    def __mul__(self, other):
        self._check(other)
        conv = fqp_mul(PolyRing(self.field.p), self.num, other.num)
        red = self.field.reduce_tpoly(conv)
        return FFElem(self.field, red, self.den * other.den)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.num):
            if c.is_zero():
                continue
            terms.append("(%s)t^%d" % (c, i))
        body = " + ".join(terms) if terms else "0"
        return "FFElem((%s) / (%s))" % (body, self.den)


# -- irreducibility ---------------------------------------------------------


def _const_tpoly(f: Poly, p: int):
    """f in F_p[t] as a polynomial in t with constant F_p[x] coefficients."""
    return [Poly.const(int(c), p) for c in f.c]


def _hensel_tree(fT, facs, p, cap):
    """Lift the pairwise-coprime monic factorization of fT mod x to x^cap."""
    if len(facs) == 1:
        return [fqp_reduce(PolyRing(p, cap), fT)]
    half = len(facs) // 2
    left, right = facs[:half], facs[half:]
    g0 = Poly.one(p)
    for q in left:
        g0 = g0 * q
    h0 = Poly.one(p)
    for q in right:
        h0 = h0 * q
    g, h = _hensel_pair(fT, g0, h0, p, cap)
    return _hensel_tree(g, left, p, cap) + _hensel_tree(h, right, p, cap)


def _hensel_pair(fT, g0, h0, p, cap):
    """One coprime pair lifted x-adically from mod x to mod x^cap."""
    gcdv, s0, t0 = poly_xgcd(g0, h0)
    if gcdv.deg != 0:
        raise ArithmeticError("modular factors not coprime")
    g, h, s, t = (_const_tpoly(f, p) for f in (g0, h0, s0, t0))
    m = 1
    while m < cap:
        m2 = min(2 * m, cap)
        R = PolyRing(p, m2)
        e = fqp_sub(R, fqp_reduce(R, fT), fqp_mul(R, g, h))
        if e:
            q, r = fqp_divmod(R, fqp_mul(R, s, e), h)
            g = fqp_add(R, fqp_add(R, g, fqp_mul(R, t, e)), fqp_mul(R, q, g))
            h = fqp_add(R, h, r)
        b = fqp_sub(R, fqp_add(R, fqp_mul(R, s, g), fqp_mul(R, t, h)),
                    [R.one()])
        if b:
            c, d = fqp_divmod(R, fqp_mul(R, s, b), h)
            s = fqp_sub(R, s, d)
            t = fqp_sub(R, fqp_sub(R, t, fqp_mul(R, t, b)), fqp_mul(R, c, g))
        m = m2
    if not g or g[-1] != Poly.one(p):
        raise ArithmeticError("lift lost monicity")
    return g, h


def _field_gcd_t(coeffs_full, p):
    """t-degree of gcd(f, df/dt) over K(x), for f with df/dt nonzero."""
    df = [RatFunc(c) for c in fqp_derivative(PolyRing(p), coeffs_full)]
    f = [RatFunc(c) for c in coeffs_full]
    return fqp_deg(fqp_gcd(RatFuncField(p), f, df))


def is_irreducible(coeffs, p: int, _twisted: bool = False) -> bool:
    """Whether t^n + sum coeffs[i] t^i is irreducible over F_p(x).

    Fast path: an irreducible specialization at some point of F_p or a
    small extension proves irreducibility. Decisive path: lift the
    factorization at a squarefree specialization point x-adically and
    test every recombination of the lifted factors by exact division.
    When no squarefree point exists in F_p the same test runs once on
    the model at infinity, which adds the point over u = 0; only if that
    model has no squarefree rational point either does this raise
    ArithmeticError (possible only for tiny p).
    """
    coeffs = tuple(c if isinstance(c, Poly) else Poly(c, p) for c in coeffs)
    n = len(coeffs)
    if n == 0:
        raise ValueError("constant polynomial")
    if n == 1:
        return True

    # derivative in t identically zero: f = h(t^p)
    if n % p == 0 and all(coeffs[i].is_zero() for i in range(n) if i % p):
        h = [coeffs[i] for i in range(0, n, p)]
        # f reducible iff h reducible or every coefficient of h is a p-th
        # power in K = F_p(x), i.e. only exponents divisible by p occur
        all_pth = True
        for c in h:
            if any(int(v) and (k % p) for k, v in enumerate(c.c)):
                all_pth = False
                break
        if all_pth:
            return False
        return is_irreducible(h, p)

    full = list(coeffs) + [Poly.one(p)]
    gdeg = _field_gcd_t(full, p)
    if gdeg >= 1:
        return False  # not squarefree over K(x), so a proper square factor

    def spec(c):
        return Poly([a.evaluate(c) for a in coeffs] + [1], p)

    # fast accept at rational points
    pts = list(range(min(p, 40)))
    if p > 40:
        step = p // 40
        pts.extend(range(40, p, max(step, 1)))
        pts = pts[:80]
    good = None
    for c in pts:
        fc = spec(c)
        if poly_is_irreducible(fc):
            return True
        if poly_gcd(fc, fc.derivative()).deg == 0:
            if good is None:
                good = c
    if good is None:
        for c in range(p):
            fc = spec(c)
            if poly_gcd(fc, fc.derivative()).deg == 0:
                good = c
                break
    if good is None and p <= 16:
        # fast accept at small extension points before giving up
        for d in (2, 3, 4):
            ctx = make_field_ext(p, d)
            for trial in range(ctx.order):
                v = trial
                cc = []
                for _ in range(d):
                    cc.append(v % p)
                    v //= p
                pt = Poly(cc, p)
                fc = [_horner_ext(ctx, a, pt) for a in coeffs] + [ctx.one()]
                if fqp_is_irreducible(ctx, fc):
                    return True
    if good is None and not _twisted:
        # same field presented over K[u]; a monic factorization transfers
        # both ways, and u = 0 is a fresh specialization point
        return is_irreducible(twist_coeffs(coeffs), p, _twisted=True)
    if good is None:
        raise ArithmeticError(
            "no squarefree specialization point in F_p; cannot decide"
        )

    # decisive: shift so the good point is x = 0, lift, recombine
    shifted = [_taylor_shift(a, good) for a in coeffs]
    cf = compute_cf(coeffs, n)
    cap = n * cf + 1
    f0 = Poly([a.evaluate(0) for a in shifted] + [1], p)
    from .polys import poly_factor

    lead, facs0 = poly_factor(f0, seed=2)
    if lead != 1 or any(m != 1 for _, m in facs0):
        raise ArithmeticError("specialization is not monic and squarefree")
    mods = [g for g, _ in facs0]
    if len(mods) == 1:
        # specialization irreducible would have been caught above
        return True

    fT = list(shifted) + [Poly.one(p)]
    lifted = _hensel_tree(fT, mods, p, cap)
    r = len(lifted)
    from itertools import combinations

    truncated, exact = PolyRing(p, cap), PolyRing(p)
    for size in range(1, r // 2 + 1):
        for picks in combinations(range(r), size):
            cand = [Poly.one(p)]
            for i in picks:
                cand = fqp_mul(truncated, cand, lifted[i])
            # exact bivariate trial division, no truncation
            if not fqp_divmod(exact, fT, cand)[1]:
                return False
    return True


def _taylor_shift(a: Poly, c: int) -> Poly:
    """a(x + c) by Horner over F_p."""
    if c == 0 or a.is_zero():
        return a
    p = a.p
    x_plus = Poly([c % p, 1], p)
    acc = Poly.zero(p)
    for v in a.c[::-1]:
        acc = acc * x_plus + Poly.const(int(v), p)
    return acc


def _horner_ext(ctx, a: Poly, pt: Poly) -> Poly:
    acc = ctx.zero()
    for v in a.c[::-1]:
        acc = ctx.reduce(acc * pt + Poly.const(int(v), ctx.p))
    return acc
