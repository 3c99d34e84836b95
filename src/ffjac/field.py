"""Function fields K(x)[t]/(f) for K = F_p.

f is monic in t with K[x] coefficients, f = t^n + a_{n-1} t^{n-1} + ... +
a_0. The field carries the twist exponent e = max over nonzero a_i of
ceil(deg a_i / (n - i)); substituting x = 1/u, t = s/u^e turns f into a
second monic model over K[u] whose integral closure describes the places
over the degree valuation. Elements are stored as coordinate rows in the
power basis 1, t, ..., t^{n-1} over K(x) with a cleared denominator.
FunctionField.mul_tpoly is the one product of polynomials in t: element
products and the multiplication tables of orders both reduce it mod f.
"""

from __future__ import annotations

from .polys import Poly, _int_list, _inv_mod, poly_gcd


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
    """K(x)[t]/(f) with f = t^n + sum coeffs[i] * t^i.

    With check (the default) f is accepted only when its discriminant is
    nonzero, so f is separable, and dim L(0) = 1. L(0) is the field of
    constants of K(x)[t]/(f): a factorization of f puts two idempotents
    into it and a constant field F_(p^k) has dimension k. So dim L(0) = 1
    says that f is irreducible with exact constant field F_p, which is
    what genus, places and reduction assume. Otherwise ValueError is
    raised. The check computes the discriminant and builds both maximal
    orders and the infinite places, which stay cached for every later
    step, and the reduction of L(0) it makes also yields the genus
    (riemann_roch.l0_dim_and_genus). infinite_model passes check=False:
    it presents the same field.
    """

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
        "_disc",
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
        self._disc = None
        if check:
            self._check_constant_field()

    def _check_constant_field(self):
        from .riemann_roch import l0_dim_and_genus

        try:
            self.discriminant()
        except ArithmeticError:
            raise ValueError("defining polynomial is not separable") from None
        dim, self._genus = l0_dim_and_genus(self)
        if dim != 1:
            raise ValueError("defining polynomial is reducible or its "
                             "constant field is larger than F_%d" % self.p)

    # -- basic structure ------------------------------------------------

    def discriminant(self) -> Poly:
        """orders.discriminant_support of f, computed once; ArithmeticError
        when f is inseparable."""
        if self._disc is None:
            from .orders import discriminant_support

            self._disc = discriminant_support(self)
        return self._disc

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

    def mul_tpoly(self, a, b):
        """Coordinates of (sum a[i] t^i) * (sum b[j] t^j), the K[x]
        coefficient lists a and b of length at most n: the product of
        the two polynomials in t, reduced by reduce_tpoly."""
        conv = [Poly.zero(self.p)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if not bj.is_zero():
                    conv[i + j] = conv[i + j] + ai * bj
        return self.reduce_tpoly(conv)

    # -- twist / infinite model ------------------------------------------

    def infinite_model(self) -> "FunctionField":
        if self._inf_model is None:
            self._inf_model = FunctionField(
                twist_coeffs(self.coeffs), self.p, check=False
            )
        return self._inf_model

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
            from .riemann_roch import l0_dim_and_genus

            self._genus = l0_dim_and_genus(self)[1]
        return self._genus

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "coeffs": [[int(v) for v in a.c] for a in self.coeffs],
        }

    @staticmethod
    def from_dict(d: dict) -> "FunctionField":
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
        return FunctionField(coeffs, p)


def make_field(p: int, n: int, coeffs) -> FunctionField:
    """Validated construction from integer coefficient lists or Polys."""
    coeffs = [c if isinstance(c, Poly) else Poly(c, p) for c in coeffs]
    if len(coeffs) != n:
        raise ValueError("expected %d coefficients, got %d" % (n, len(coeffs)))
    return FunctionField(coeffs, p)


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
        red = self.field.mul_tpoly(self.num, other.num)
        return FFElem(self.field, red, self.den * other.den)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.num):
            if c.is_zero():
                continue
            terms.append("(%s)t^%d" % (c, i))
        body = " + ".join(terms) if terms else "0"
        return "FFElem((%s) / (%s))" % (body, self.den)
