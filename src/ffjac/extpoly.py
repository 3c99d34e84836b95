"""Polynomials in t over a coefficient ring, and factoring over GF(p^d).

A polynomial in t is a list of coefficients, lowest degree first, with no
trailing zeros. Every fqp_* function takes the coefficient ring first,
and the ring's elements support +, - and *. Two rings are used:

- Fq: GF(p^d) = F_p[z]/(m), for residue fields (splitting primes,
  counting places, the Dedekind test); it provides zero(), one(),
  reduce(a), mul(a, b) and inv(a);
- PolyRing: F_p[x], for products and differences of power-basis
  coordinates; it provides only the zero() and reduce(a) that fqp_mul
  and fqp_sub call.

This is the one implementation of polynomial-in-t arithmetic. It runs only
at field set-up, never in the reduction loop, so plain Python loops are
fine here. Factoring (fqp_factor and its helpers) needs a finite field.
"""

from __future__ import annotations

import random

from .polys import Poly, poly_xgcd


class Fq:
    """GF(p^d) presented as F_p[z]/(modulus)."""

    __slots__ = ("modulus", "p", "d")

    def __init__(self, modulus: Poly):
        if modulus.deg < 1:
            raise ValueError("modulus must have positive degree")
        self.modulus = modulus.monic()
        self.p = modulus.p
        self.d = modulus.deg

    @property
    def order(self) -> int:
        return self.p ** self.d

    def zero(self) -> Poly:
        return Poly.zero(self.p)

    def one(self) -> Poly:
        return Poly.one(self.p)

    def reduce(self, a: Poly) -> Poly:
        return a % self.modulus

    def mul(self, a: Poly, b: Poly) -> Poly:
        return (a * b) % self.modulus

    def inv(self, a: Poly) -> Poly:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in GF(q)")
        g, s, _ = poly_xgcd(a % self.modulus, self.modulus)
        if g.deg != 0:
            raise ArithmeticError("modulus not irreducible")
        return s % self.modulus

    def pow(self, a: Poly, e: int) -> Poly:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = self.one()
        b = a % self.modulus
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def rand(self, rng: random.Random) -> Poly:
        c = [rng.randrange(self.p) for _ in range(self.d)]
        return Poly(c, self.p)


class PolyRing:
    """F_p[x], as the coefficient ring of fqp_mul and fqp_sub."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def zero(self) -> Poly:
        return Poly.zero(self.p)

    def reduce(self, a: Poly) -> Poly:
        return a


def fqp_trim(f: list) -> list:
    while f and f[-1].is_zero():
        f.pop()
    return f


def fqp_reduce(ctx, f) -> list:
    """f with every coefficient reduced into ctx."""
    return fqp_trim([ctx.reduce(e) for e in f])


def fqp_deg(f: list) -> int:
    return len(f) - 1


def fqp_is_zero(f: list) -> bool:
    return not f


def fqp_add(ctx, f: list, g: list) -> list:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ctx.zero()
        b = g[i] if i < len(g) else ctx.zero()
        out.append(a + b)
    return fqp_trim(out)


def fqp_sub(ctx, f: list, g: list) -> list:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ctx.zero()
        b = g[i] if i < len(g) else ctx.zero()
        out.append(a - b)
    return fqp_trim(out)


def fqp_mul(ctx, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [ctx.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return fqp_reduce(ctx, out)


def fqp_scale(ctx, f: list, a) -> list:
    if a.is_zero():
        return []
    return fqp_trim([ctx.mul(e, a) for e in f])


def fqp_monic(ctx, f: list) -> list:
    if not f:
        return f
    lead = f[-1]
    if lead == ctx.one():
        return list(f)
    return fqp_scale(ctx, f, ctx.inv(lead))


def fqp_divmod(ctx, f: list, g: list):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = fqp_deg(g)
    inv_lead = ctx.inv(g[-1])
    q = [ctx.zero()] * max(0, len(f) - dg)
    while fqp_deg(f) >= dg and f:
        k = fqp_deg(f) - dg
        c = ctx.mul(f[-1], inv_lead)
        q[k] = c
        for i in range(dg + 1):
            f[k + i] = ctx.reduce(f[k + i] - c * g[i])
        fqp_trim(f)
    return fqp_trim(q), f


def fqp_mod(ctx, f: list, g: list) -> list:
    return fqp_divmod(ctx, f, g)[1]


def fqp_gcd(ctx, f: list, g: list) -> list:
    a, b = list(f), list(g)
    while b:
        a, b = b, fqp_mod(ctx, a, b)
    return fqp_monic(ctx, a)


def fqp_powmod(ctx: Fq, f: list, e: int, g: list) -> list:
    r = [ctx.one()]
    b = fqp_mod(ctx, f, g)
    while e:
        if e & 1:
            r = fqp_mod(ctx, fqp_mul(ctx, r, b), g)
        b = fqp_mod(ctx, fqp_mul(ctx, b, b), g)
        e >>= 1
    return r


def fqp_derivative(ctx, f: list) -> list:
    out = []
    for i in range(1, len(f)):
        out.append(f[i].scale(i % ctx.p))
    return fqp_trim(out)


def _fqp_pth_root_coeff(ctx: Fq, a: Poly) -> Poly:
    # Frobenius is z -> z^p on GF(p^d); its inverse is raising to p^(d-1)
    return ctx.pow(a, ctx.p ** (ctx.d - 1))


def fqp_squarefree_decomposition(ctx: Fq, f: list) -> list:
    """[(g_i, m_i)] with f = lead * prod g_i^m_i, g_i squarefree monic."""
    f = fqp_monic(ctx, f)
    if fqp_deg(f) < 1:
        return []
    p = ctx.p
    out = []
    df = fqp_derivative(ctx, f)
    if fqp_is_zero(df):
        # f = h(t^p); take p-th roots of the surviving coefficients
        h = [_fqp_pth_root_coeff(ctx, f[i]) for i in range(0, len(f), p)]
        for g, m in fqp_squarefree_decomposition(ctx, fqp_trim(h)):
            out.append((g, m * p))
        return out
    c = fqp_gcd(ctx, f, df)
    w = fqp_divmod(ctx, f, c)[0]
    m = 1
    while fqp_deg(w) > 0:
        y = fqp_gcd(ctx, w, c)
        z = fqp_divmod(ctx, w, y)[0]
        if fqp_deg(z) > 0:
            out.append((z, m))
        c = fqp_divmod(ctx, c, y)[0]
        w = y
        m += 1
    if fqp_deg(c) > 0:
        # leftover carries exactly the factors with multiplicity divisible
        # by p; it is a p-th power, so the recursion hits the root branch
        out.extend(fqp_squarefree_decomposition(ctx, c))
    return out


def fqp_ddf(ctx: Fq, f: list) -> list:
    """Distinct-degree splitting of squarefree monic f: [(product, d)]."""
    out = []
    q = ctx.order
    h = [ctx.zero(), ctx.one()]  # t
    v = list(f)
    d = 0
    while fqp_deg(v) >= 2 * (d + 1):
        d += 1
        h = fqp_powmod(ctx, h, q, v)
        g = fqp_gcd(ctx, fqp_sub(ctx, h, [ctx.zero(), ctx.one()]), v)
        if fqp_deg(g) > 0:
            out.append((g, d))
            v = fqp_divmod(ctx, v, g)[0]
            h = fqp_mod(ctx, h, v)
    if fqp_deg(v) > 0:
        out.append((v, fqp_deg(v)))
    return out


def _fqp_rand_poly(ctx: Fq, rng: random.Random, dmax: int) -> list:
    out = [ctx.rand(rng) for _ in range(dmax + 1)]
    return fqp_trim(out)


def fqp_edf(ctx: Fq, f: list, d: int, rng: random.Random) -> list:
    """Split squarefree monic f, all of whose factors have degree d."""
    n = fqp_deg(f)
    if n == d:
        return [f]
    q = ctx.order
    work = [f]
    out = []
    while work:
        g = work.pop()
        if fqp_deg(g) == d:
            out.append(g)
            continue
        r = _fqp_rand_poly(ctx, rng, fqp_deg(g) - 1)
        if fqp_deg(r) < 1 and (not r or r[0].is_zero()):
            work.append(g)
            continue
        if ctx.p == 2:
            # trace map over GF(2) applied to r mod g
            k = d * ctx.d
            t = fqp_mod(ctx, r, g)
            acc = t
            for _ in range(k - 1):
                t = fqp_mod(ctx, fqp_mul(ctx, t, t), g)
                acc = fqp_add(ctx, acc, t)
            h = fqp_gcd(ctx, acc, g)
        else:
            e = (q ** d - 1) // 2
            t = fqp_powmod(ctx, r, e, g)
            h = fqp_gcd(ctx, fqp_sub(ctx, t, [ctx.one()]), g)
        if 0 < fqp_deg(h) < fqp_deg(g):
            work.append(h)
            work.append(fqp_divmod(ctx, g, h)[0])
        else:
            work.append(g)
    out.sort(key=lambda fac: (fqp_deg(fac), [e.coeffs for e in fac]))
    return out


def fqp_factor(ctx: Fq, f: list, seed: int = 1) -> list:
    """Full factorization over GF(q): (lead, [(monic irreducible, mult)]).

    Deterministic for a fixed seed; factors sorted by degree, then by
    coefficient tuples.
    """
    if fqp_deg(f) < 0:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    lead = f[-1]
    out = []
    for g, m in fqp_squarefree_decomposition(ctx, f):
        for prod, d in fqp_ddf(ctx, g):
            for irr in fqp_edf(ctx, prod, d, rng):
                out.append((irr, m))
    out.sort(key=lambda fm: (fqp_deg(fm[0]), [e.coeffs for e in fm[0]]))
    return lead, out
