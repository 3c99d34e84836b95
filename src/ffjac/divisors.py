"""Places and divisors.

A divisor is split into a finite part, stored as a fractional ideal of the
finite maximal order with v_P(ideal) = v_P(D), and a vector of integer
valuations at the infinite places (the places over u = 1/x of the twisted
model).  The pair determines D completely and composes by ideal
multiplication plus vector addition.
"""

from .orders import (
    Ideal,
    decompose_prime,
    ideal_inv,
    ideal_mul,
    ideal_one,
    principal_ideal,
)
from .polymat import in_lattice, mat_mul, scalar_rows
from .polys import Poly, _int_list, poly_is_irreducible


class Place:
    __slots__ = ("field", "finite", "prime", "_key")

    def __init__(self, field, finite: bool, prime):
        self.field = field
        self.finite = finite
        self.prime = prime
        self._key = None

    def degree(self) -> int:
        return self.prime.degree()

    def key(self) -> bytes:
        if self._key is None:
            side = b"F" if self.finite else b"I"
            self._key = side + self.prime.q.key() + b":" + self.prime.key()
        return self._key

    def __eq__(self, other):
        return isinstance(other, Place) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        side = "finite" if self.finite else "infinite"
        return ("Place(%s, deg %d, e=%d, f=%d over %r)"
                % (side, self.degree(), self.prime.e, self.prime.f,
                   self.prime.q))


def infinite_places(field):
    """Places over u of the twisted model, in canonical order."""
    if field._inf_places is None:
        oi = field.infinite_order()
        u = Poly([0, 1], field.p)
        primes = decompose_prime(oi, u)
        field._inf_places = tuple(Place(field, False, pr) for pr in primes)
    return field._inf_places


def finite_places_above(field, q: Poly):
    """Places above q, a monic irreducible polynomial of K[x]; any other
    q raises ValueError.  Places above a nonlinear q cost more: they
    come from the radical split (see orders.decompose_prime)."""
    if not (isinstance(q, Poly) and q.p == field.p and q.lc == 1
            and poly_is_irreducible(q)):
        raise ValueError("q must be a monic irreducible polynomial "
                         "over F_%d" % field.p)
    o = field.finite_order()
    return [Place(field, True, pr) for pr in decompose_prime(o, q)]


# -- coordinates at infinity ---------------------------------------------


def infinite_coords(field, elem):
    """Coordinates of elem over the infinite maximal order, as a pair
    (numerator coordinate row, denominator in K[u]), with the common
    power of u cancelled.  A common factor prime to u may remain: the
    valuations at the places over u, which read these, ignore it."""
    p = field.p
    e = field.cf
    oi = field.infinite_order()
    den = elem.den
    dden = den.deg
    m = 0
    for i, c in enumerate(elem.num):
        if not c.is_zero():
            m = max(m, c.deg + e * i - dden)
    cnum = []
    for i, c in enumerate(elem.num):
        if c.is_zero():
            cnum.append(Poly.zero(p))
        else:
            cnum.append(c.reverse(m + dden - e * i))
    cden = den.reverse(dden + m)
    ginv, det = oi.tri_inverse()
    v = [t * oi.den for t in mat_mul([cnum], ginv, p)[0]]
    dtot = cden * det
    # the lowest nonzero digit of each packed entry gives its power of u
    k = min(((t.v & -t.v).bit_length() - 1) >> 6 for t in (dtot, *v) if t)
    return [t.shift(-k) for t in v], dtot.shift(-k)


def infinite_valuations(field, elem):
    """Valuations of elem at the infinite places, in canonical order."""
    if elem.is_zero():
        raise ZeroDivisionError("valuations of zero")
    coords, den = infinite_coords(field, elem)
    return tuple(pl.prime.val_fraction(coords, den)
                 for pl in infinite_places(field))


class Divisor:
    __slots__ = ("field", "fin", "inf_vec", "_key")

    def __init__(self, field, fin: Ideal = None, inf_vec=None):
        if fin is None:
            fin = ideal_one(field.finite_order())
        t = len(infinite_places(field))
        if inf_vec is None:
            inf_vec = (0,) * t
        elif len(inf_vec) != t:
            raise ValueError("%d infinite valuations for %d infinite places"
                             % (len(inf_vec), t))
        self.field = field
        self.fin = fin
        self.inf_vec = tuple(int(v) for v in inf_vec)
        self._key = None

    @staticmethod
    def zero(field) -> "Divisor":
        return Divisor(field)

    @staticmethod
    def from_place(place: Place, mult: int = 1) -> "Divisor":
        field = place.field
        if place.finite:
            return Divisor(field, place.prime.power(mult))
        places = infinite_places(field)
        vec = [mult if pl == place else 0 for pl in places]
        return Divisor(field, None, vec)

    def key(self) -> bytes:
        if self._key is None:
            tail = ",".join(str(v) for v in self.inf_vec)
            self._key = self.fin.key() + b"#" + tail.encode()
        return self._key

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def degree(self) -> int:
        places = infinite_places(self.field)
        inf = sum(v * pl.degree() for v, pl in zip(self.inf_vec, places))
        return self.fin.norm_degree() + inf

    def is_effective(self) -> bool:
        return self.fin.is_integral() and all(v >= 0 for v in self.inf_vec)

    def __add__(self, other: "Divisor") -> "Divisor":
        vec = tuple(a + b for a, b in zip(self.inf_vec, other.inf_vec))
        return Divisor(self.field, ideal_mul(self.fin, other.fin), vec)

    def __neg__(self) -> "Divisor":
        vec = tuple(-a for a in self.inf_vec)
        return Divisor(self.field, ideal_inv(self.fin), vec)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def finite_height(self) -> int:
        """Sum of |v_P(D)| * deg(P) over the finite places, without factoring.

        fin + O has valuations min(v_P, 0), so the sum is
        deg(fin) - 2 * deg(fin + O).
        """
        fin = self.fin
        if fin.is_integral():
            return fin.norm_degree()
        plus_o = Ideal(fin.order, fin.h + scalar_rows(fin.den, fin.order.n),
                       fin.den)
        return fin.norm_degree() - 2 * plus_o.norm_degree()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "finite": {
                "rows": [[list(e.coeffs) for e in row] for row in self.fin.h],
                "den": list(self.fin.den.coeffs),
            },
            "infinite": list(self.inf_vec),
        }

    @staticmethod
    def from_dict(field, d: dict) -> "Divisor":
        """Inverse of to_dict; raises ValueError on malformed input."""
        p, n = field.p, field.n
        try:
            rows, den = d["finite"]["rows"], d["finite"]["den"]
            vec = d["infinite"]
        except (KeyError, TypeError):
            raise ValueError("divisor needs finite.rows, finite.den and "
                             "infinite") from None
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise ValueError("finite.rows must be a %d x %d matrix" % (n, n))
        if not (_int_list(den) and _int_list(vec)
                and all(_int_list(c) for row in rows for c in row)):
            raise ValueError("coefficients and infinite valuations must be "
                             "lists of integers")
        den = Poly(den, p)
        if den.is_zero() or den.lc != 1:
            raise ValueError("finite.den must be a nonzero monic polynomial")
        o = field.finite_order()
        try:
            fin = Ideal(o, [[Poly(c, p) for c in row] for row in rows], den)
        except ArithmeticError as exc:
            raise ValueError("finite part is not a fractional ideal: %s"
                             % exc) from None
        # I * O inside I, row by row: ideal_mul assumes ideals of O
        if any(in_lattice(row, fin.h, p) is None
               for w in fin.h for row in o.elem_mul_matrix(w)):
            raise ValueError("finite part is not closed under the order")
        return Divisor(field, fin, vec)


def principal_divisor(field, elem) -> Divisor:
    """Divisor of a nonzero function."""
    if elem.is_zero():
        raise ZeroDivisionError("divisor of zero")
    o = field.finite_order()
    c = o.from_power(list(elem.num))
    if c is None:
        raise ArithmeticError("numerator not integral")
    fin = principal_ideal(o, c, elem.den)
    return Divisor(field, fin, infinite_valuations(field, elem))
