"""Group law on degree-zero divisor classes via unique reduced
representatives.

A class is stored as (dtilde, r) with dtilde effective of degree r,
0 <= r <= g, reduction place A outside the support of dtilde; the class
is [dtilde - r*A].  Uniqueness makes equality a byte comparison of the
canonical ideal pair.  Reduction finds the minimal r with
l(D + r*A) = 1 through shortcut searches, then adds the principal
divisor of the found function.

All searches of one reduction share the finite module of D and differ
only in the infinite profile of the shift, so each query of the linear
search starts from the basis the previous query left partly reduced
(riemann_roch.ssrr_reduce).  In a typical addition the second query
then needs about one row-reduction step instead of a full reduction.
"""

from .divisors import (Divisor, finite_places_above, infinite_places,
                       infinite_valuations)
from .polys import Poly
from .orders import Ideal, ideal_inv, ideal_mul, ideal_mul_elem, ideal_one
from .riemann_roch import _inf_profile, finite_basis, ssrr_reduce


# Entries per memo; a full memo still answers lookups but stores no more.
MEMO_CAP = 4096


class Memo:
    """Memo of one cached primitive, with hit and miss tallies."""

    __slots__ = ("data", "hits", "misses")

    def __init__(self):
        self.data = {}
        self.hits = self.misses = 0

    def __len__(self):
        return len(self.data)

    def get(self, key, compute):
        """The value stored under key, else compute(), kept if there is room."""
        out = self.data.get(key)
        if out is not None:
            self.hits += 1
            return out
        self.misses += 1
        out = compute()
        if len(self.data) < MEMO_CAP:
            self.data[key] = out
        return out


class OpCounters:
    """Operation tallies of one context.

    heights holds the lattice heights of the most recent reduction only;
    the cache tallies are those of the context's two memos.
    """

    __slots__ = ("ssrr_calls", "partial_additions", "row_reduce_steps",
                 "heights", "_inf", "_profiles")

    def __init__(self, inf: Memo, profiles: Memo):
        self._inf = inf
        self._profiles = profiles
        self.reset()

    def reset(self):
        self.ssrr_calls = 0
        self.partial_additions = 0
        self.row_reduce_steps = 0
        self.heights = []
        for memo in (self._inf, self._profiles):
            memo.hits = memo.misses = 0

    def as_dict(self):
        return {
            "ssrr_calls": self.ssrr_calls,
            "partial_additions": self.partial_additions,
            "ssrr_cache_hits": self._profiles.hits,
            "ssrr_cache_misses": self._profiles.misses,
            "infinite_cache_hits": self._inf.hits,
            "infinite_cache_misses": self._inf.misses,
            "row_reduce_steps": self.row_reduce_steps,
        }


class JacElem:
    """Reduced representative: effective dtilde = (fin, inf ideal, vec)
    of degree r, class [dtilde - r*A]."""

    __slots__ = ("fin", "inf", "vec", "r")

    def __init__(self, fin: Ideal, inf: Ideal, vec, r: int):
        self.fin = fin
        self.inf = inf
        self.vec = tuple(vec)
        self.r = r

    def key(self):
        return (self.fin.key(), self.inf.key())

    def __eq__(self, other):
        return (isinstance(other, JacElem)
                and self.fin.order is other.fin.order
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def reduced_divisor(self) -> Divisor:
        field = self.fin.order.field
        return Divisor(field, self.fin, self.vec)

    def class_divisor(self, a_index: int) -> Divisor:
        field = self.fin.order.field
        vec = list(self.vec)
        vec[a_index] -= self.r
        return Divisor(field, self.fin, vec)

    def __repr__(self):
        return "JacElem(r=%d)" % self.r


class JacobianCtx:
    """Arithmetic context: reduction place, strategy, caches, counters."""

    def __init__(self, field, strategy: str = "linear",
                 caching: bool = True):
        if strategy not in ("linear", "binary"):
            raise ValueError("strategy must be linear or binary")
        self.field = field
        self.g = field.genus()
        self.strategy = strategy
        self.caching = bool(caching)
        places = infinite_places(field)
        deg1 = [i for i, pl in enumerate(places) if pl.degree() == 1]
        if not deg1:
            raise ValueError("no degree-one infinite place to reduce along")
        self.a_index = deg1[0]
        self.A = places[self.a_index]
        self.pa = self.A.prime
        self.places = places
        self.t = len(places)
        self.inf_add_cache = Memo()
        self.ssrr_profiles = Memo()
        self.counters = OpCounters(self.inf_add_cache, self.ssrr_profiles)
        # reduction shifts reach these exponents; memoized uncounted
        self.pa.power(-1)
        self.pa.power(max(0, self.g - 1))
        if strategy == "binary":
            self.pa.power(self.g)

    # -- cached infinite-side primitives ----------------------------------

    def _mul(self, a: Ideal, b: Ideal) -> Ideal:
        self.counters.partial_additions += 1
        return ideal_mul(a, b)

    def _inf_mul(self, a: Ideal, b: Ideal) -> Ideal:
        if not self.caching:
            return self._mul(a, b)
        ka, kb = a.key(), b.key()
        return self.inf_add_cache.get((ka, kb) if ka <= kb else (kb, ka),
                                      lambda: self._mul(a, b))

    def _materialize(self, vec) -> Ideal:
        out = None
        for pl, v in zip(self.places, vec):
            if not v:
                continue
            part = pl.prime.power(v)
            out = part if out is None else self._inf_mul(out, part)
        return out if out is not None else ideal_one(self.field.infinite_order())

    def _profile(self, jq: Ideal):
        def compute():
            return _inf_profile(self.field, ideal_inv(jq))
        if not self.caching:
            return compute()
        return self.ssrr_profiles.get(jq.key(), compute)

    # -- HR-Min search -----------------------------------------------------

    def _hr_min_linear(self, query, basis):
        """Minimal shift, walking down from g - 1; each query continues
        from the basis the previous one reduced."""
        g = self.g
        if g == 0:
            return 0, query(0, basis)[0]
        a, basis = query(g - 1, basis)
        if a is None:
            # zero at g-1 forces the answer g by monotonicity
            return g, query(g, basis)[0]
        for m in range(g - 2, -1, -1):
            nxt, basis = query(m, basis)
            if nxt is None:
                return m + 1, a
            a = nxt
        return 0, a

    def _hr_min_binary(self, query, basis):
        """Minimal shift by bisection.  Every query starts from the cold
        basis: the binary search stays the baseline of independent
        Riemann-Roch queries that the linear search is measured against."""
        g = self.g
        lo, hi = 0, g
        lo_checked = False
        witness = None
        while not (lo_checked and hi == lo + 1):
            if hi == lo:
                break
            m = hi - (hi - lo) // 2 if hi - lo >= 2 else lo
            a = query(m, basis)[0]
            if a is None:
                lo = m
                lo_checked = True
            elif m == lo:
                return m, a
            else:
                hi = m
                witness = a
        if witness is None:
            witness = query(hi, basis)[0]
        return hi, witness

    def _reduce_raw(self, fin, fin_inv, jbase, vec_base, off, fin_h):
        """Reduce the class of (fin, vec_base + off*A); fin_inv inverts fin."""
        ctr = self.counters
        ctr.heights = []

        def query(m, basis):
            """Search L at shift m, vec_base + (m + off)*A over fin_inv,
            from basis; returns (function or None, reduced basis)."""
            shift = m + off
            jq = self._inf_mul(jbase, self.pa.power(shift)) if shift else jbase
            h = fin_h
            for i, (pl, v) in enumerate(zip(self.places, vec_base)):
                if i == self.a_index:
                    v += shift
                h += abs(v) * pl.degree()
            ctr.ssrr_calls += 1
            ctr.heights.append(h)
            a, basis, steps = ssrr_reduce(self.field, basis, self._profile(jq))
            ctr.row_reduce_steps += steps
            return a, basis

        search = (self._hr_min_linear if self.strategy == "linear"
                  else self._hr_min_binary)
        r, a = search(query, finite_basis(self.field, fin_inv))
        o0 = self.field.finite_order()
        ctr.partial_additions += 1
        fin3 = ideal_mul_elem(fin, o0.from_power(a.num), a.den)
        veca = infinite_valuations(self.field, a)
        vec3 = list(vec_base)
        vec3[self.a_index] += r + off
        vec3 = tuple(v + w for v, w in zip(vec3, veca))
        inf3 = self._materialize(vec3)
        if not 0 <= r <= self.g:
            raise ArithmeticError("reduction: r = %d outside 0..g" % r)
        if not fin3.is_integral() or min(vec3) < 0:
            raise ArithmeticError("reduction: divisor is not effective")
        if vec3[self.a_index]:
            raise ArithmeticError("reduction: A in the support")
        if fin3.norm_degree() + sum(
                v * pl.degree() for v, pl in zip(vec3, self.places)) != r:
            raise ArithmeticError("reduction: degree differs from r")
        return JacElem(fin3, inf3, vec3, r)

    # -- public group operations -------------------------------------------

    def zero(self) -> JacElem:
        return JacElem(ideal_one(self.field.finite_order()),
                       ideal_one(self.field.infinite_order()),
                       (0,) * self.t, 0)

    def add(self, x: JacElem, y: JacElem) -> JacElem:
        fin = self._mul(x.fin, y.fin)
        jbase = self._inf_mul(x.inf, y.inf)
        vec = tuple(a + b for a, b in zip(x.vec, y.vec))
        return self._reduce_raw(fin, ideal_inv(fin), jbase, vec,
                                -(x.r + y.r), fin.norm_degree())

    def neg(self, x: JacElem) -> JacElem:
        if x.r == 0:
            return x
        fin = ideal_inv(x.fin)
        vec = list(-v for v in x.vec)
        vec[self.a_index] += x.r
        jbase = self._materialize(vec)
        return self._reduce_raw(fin, x.fin, jbase, tuple(vec), 0,
                                x.fin.norm_degree())

    def scalar_mul(self, k: int, x: JacElem) -> JacElem:
        if k < 0:
            return self.scalar_mul(-k, self.neg(x))
        acc = self.zero()
        sq = x
        while k:
            if k & 1:
                acc = self.add(acc, sq)
            k >>= 1
            if k:
                sq = self.add(sq, sq)
        return acc

    def reduce_divisor(self, div: Divisor) -> JacElem:
        """Reduced representative of the class of a degree-zero divisor."""
        if div.degree() != 0:
            raise ValueError("divisor must have degree zero")
        fin_h = div.finite_height()
        return self._reduce_raw(div.fin, ideal_inv(div.fin),
                                self._materialize(div.inf_vec),
                                div.inf_vec, 0, fin_h)


def random_class(ctx: JacobianCtx, rng) -> JacElem:
    """Reduce a sum of max(g, 1) random finite places, each balanced by A.

    rng is a random.Random; the draw is deterministic for a fixed seed.
    """
    field = ctx.field
    D = Divisor.zero(field)
    for _ in range(max(ctx.g, 1)):
        q = Poly([-rng.randrange(field.p) % field.p, 1], field.p)
        above = finite_places_above(field, q)
        pl = above[rng.randrange(len(above))]
        D = D + Divisor.from_place(pl, 1) - Divisor.from_place(
            ctx.A, pl.degree())
    return ctx.reduce_divisor(D)
