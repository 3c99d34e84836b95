"""Matrices over K[x] (K = F_p): HNF, row reduction, determinants.

A lattice is the K[x]-row-span of its matrix, stored as rows.  The
kernels (_vm, the one vector-times-matrix product, hnf_square, in_lattice
and row_reduce) take Poly or packed entries and compute on packed ones:
one Python int per polynomial, coefficient k in bits [64k, 64k + 64)
(Kronecker substitution).  They hand each other Packed entries, every
digit reduced mod p, so the products of the cached multiplication
tables reach hnf_square with no Poly in between.  Inside a kernel an
update only adds (c * e, c = p - c', for a subtraction of c' * e), each
row keeps a bound on its digits, and a row is reduced mod p (_normalize)
only when the next update could take a digit to 2^63, so none carries.

hnf_square gives the canonical basis of a row span by a pairwise gcd
chain per column, modulo D when the caller knows D * K[x]^n inside the
span; a dual lattice (orders._dual) needs no gcd chain.  row_reduce
brings a square matrix to weak Popov form, exposing the row degrees the
Riemann-Roch searches compare against.  fp_solve (on fp_rref) works over
F_p, for the minimal polynomials of prime decomposition.
"""

from __future__ import annotations

import numpy as np

from .polys import Poly, _inv_mod, _mk, _trim


def mat_key(rows) -> bytes:
    """Canonical bytes for a matrix of Poly entries."""
    parts = [np.int64(len(rows)).tobytes(), np.int64(len(rows[0])).tobytes()]
    for row in rows:
        for e in row:
            parts.append(np.int64(len(e.c)).tobytes())
            parts.append(e.c.tobytes())
    return b"".join(parts)


# -- packed entries ---------------------------------------------------------

# every 64-bit digit of a packed entry stays below this: none carries
_DIGIT_LIMIT = 1 << 63


class Packed(int):
    """A packed polynomial with every digit reduced mod p: its top digit is
    its leading coefficient, and its length gives its degree."""

    __slots__ = ()

    @property
    def deg(self) -> int:
        return (self.bit_length() - 1) >> 6


def _pack(e) -> int:
    """A Poly as one packed int; a packed entry as it is."""
    if isinstance(e, Poly):
        return int.from_bytes(e.c.astype("<i8", copy=False).tobytes(),
                              "little")
    return e


def _digits_mod(ents, p: int):
    """(digits, sizes): the digits of the packed entries, reduced mod p,
    end to end in one array, and each entry's number of digits."""
    sizes = [(e.bit_length() + 63) >> 6 for e in ents]
    buf = b"".join(e.to_bytes(s << 3, "little") for e, s in zip(ents, sizes))
    return np.frombuffer(buf, "<u8") % p, sizes


def _normalize(ents, p: int):
    """The packed entries with every digit reduced mod p, as Packed."""
    digits, sizes = _digits_mod(ents, p)
    buf = digits.astype("<u8", copy=False).tobytes()
    out, pos = [], 0
    for s in sizes:
        out.append(Packed.from_bytes(buf[pos:pos + (s << 3)], "little"))
        pos += s << 3
    return out


def _unpack(ents, p: int, sign: int = 1):
    """sign times each packed entry, as a Poly."""
    digits, sizes = _digits_mod(ents, p)
    digits = digits.astype(np.int64)
    if sign < 0:
        digits = -digits % p
    out, pos = [], 0
    for s in sizes:
        out.append(_mk(_trim(digits[pos:pos + s]), p))
        pos += s
    return out


def _strip(e: int, p: int) -> int:
    """e without its top digits that are 0 mod p, so that its top digit
    gives its degree and, mod p, its leading coefficient."""
    t = (e.bit_length() - 1) >> 6
    while t >= 0 and (e >> (t << 6)) % p == 0:
        e &= (1 << (t << 6)) - 1
        t = (e.bit_length() - 1) >> 6
    return e


def _vm(v, rows, p: int):
    """v times the rows over K[x], as Packed entries (v Poly or packed,
    rows packed; see _add_product for the digit bounds)."""
    out = [0] * len(rows[0])
    bound = 0
    for c, row in zip(v, rows):
        bound = _add_product(out, bound, _pack(c), p - 1, row, p - 1,
                             None, p)
    return _normalize(out, p)


def scalar_rows(c: Poly, n: int):
    """The n x n matrix c * Id."""
    zero = Poly.zero(c.p)
    return [[c if j == i else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, p: int):
    """Row-list product, as Poly rows."""
    b = [[_pack(e) for e in row] for row in b]
    flat = _unpack([e for row in a for e in _vm(row, b, p)], p)
    w = len(b[0])
    return [flat[i:i + w] for i in range(0, len(flat), w)]


# -- HNF ----------------------------------------------------------------------


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


def _divide(ri, bi, rk, bk, j, p: int):
    """ri += q * rk, q minus the quotient of ri[j] by rk[j] (both nonzero,
    rk[j] stripped), leaving the remainder in ri[j], stripped; bi and bk
    bound the digits of ri and rk, and rk is reduced mod p first if bk
    has reached p.  q comes from ri[j] alone: ri[j] times minus the
    inverse of a constant rk[j], else one simple transformation per digit
    m, which adds at most m * bk to ri[j], reduced mod p first when that
    could reach 2^63.  The rest of ri takes q at once (_add_product).
    Returns (q, bi, bk), the bounds updated."""
    if bk >= p:
        rk[:], bk = _normalize(rk, p), p - 1
    b = rk[j]
    db = (b.bit_length() - 1) >> 6
    inv = pow(b >> (db << 6), -1, p)
    a, ab = ri[j], bi
    if db == 0:
        if ab * (p - inv) >= _DIGIT_LIMIT:
            a, ab = _normalize([a], p)[0], p - 1
        q, qb, a = a * (p - inv), ab * (p - inv), 0
    else:
        q, qb = 0, p - 1
        while True:
            da = (a.bit_length() - 1) >> 6
            if da < db:
                break
            m = -(a >> (da << 6)) * inv % p
            if ab + m * bk >= _DIGIT_LIMIT:
                a, ab = _normalize([a], p)[0], p - 1
            s = (da - db) << 6
            a = _strip((a + ((m * b) << s)) & ((1 << (da << 6)) - 1), p)
            q += m << s
            ab += m * bk
    ri[j] = a
    return q, _add_product(ri, max(bi, ab), q, qb, rk, bk, j, p), bk


def _rem_row(row, bound, dmod, d: int, p: int):
    """Reduce the entries of row of degree d or more mod the monic packed
    D of degree d, each by a _divide of its own; returns the new bound."""
    out = bound
    for t, e in enumerate(row):
        if e.bit_length() > d << 6:
            ent = [e]
            out = max(out, _divide(ent, bound, [dmod], p - 1, 0, p)[1])
            row[t] = ent[0]
    return out


def _fold(active, best, i, j, p: int, bound, dmod, d):
    """Euclid on the column-j entries of active[best] and active[i] (each
    updated row then reduced mod D if dmod is given, bound holding the
    rows' digit bounds); returns the index of the row left holding their
    gcd, the other entry being zero."""
    while active[i][j]:
        _, bound[i], bound[best] = _divide(active[i], bound[i], active[best],
                                           bound[best], j, p)
        if dmod is not None:
            bound[i] = _rem_row(active[i], bound[i], dmod, d, p)
        if active[i][j]:
            best, i = i, best
    return best


def hnf_square(rows, p: int, mod: Poly = None):
    """HNF of a lattice spanned by rows (Poly or packed) with full column
    rank n: the lower-triangular n x n basis with monic pivots and every
    entry below a pivot reduced mod the pivot, as Poly.  Raises
    ArithmeticError at the first column with no pivot.  Columns are
    cleared right to left by a pairwise gcd chain: the column's nonzero
    entries in increasing degree, each folded into the smallest by
    Euclid on that pair alone.

    Digit bounds: each row has one, p - 1 for the input.  A Euclid step
    ri += q * rk (_divide) first reduces rk mod p if its bound has
    reached p; each digit m of q then adds at most m * (p - 1), as does a
    step mod D, and a row is reduced mod p only when a step could take
    its bound to 2^63: exact for every p < 2^31.  Column entries drop
    their top digits that are 0 mod p.

    mod, when given, is a nonzero D with D * K[x]^n inside the row span
    (Cohen, GTM 138, 2.4.3: HNF modulo D).  Entries are kept reduced mod
    D, and once column j is folded into one row w, the row D * e_j is
    folded in last, leaving the pivot row (entry gcd(w_j, D)) and the
    cofactor row, which span what w and D * e_j span: H is the HNF for
    any such D, and every column has a pivot (a unit w_j needs no fold).
    """
    active = [[_pack(e) for e in row] for row in rows]  # no pivot yet
    n = len(active[0])
    bound = [p - 1] * len(active)
    dmod = d = None
    if mod is not None:
        dmod, d = _pack(mod.monic()), mod.deg
        for i, row in enumerate(active):
            bound[i] = _rem_row(row, bound[i], dmod, d, p)

    # columns right to left; the pivot rows are collected bottom up
    done = []
    for j in range(n - 1, -1, -1):
        for row in active:
            row[j] = _strip(row[j], p)
        cand = sorted((i for i, row in enumerate(active) if row[j]),
                      key=lambda i: (active[i][j].bit_length(), i))
        best = cand[0] if cand else None
        for i in cand[1:]:
            best = _fold(active, best, i, j, p, bound, dmod, d)
        if mod is not None and (best is None
                                or active[best][j].bit_length() > 64):
            active.append([0] * j + [dmod] + [0] * (n - 1 - j))
            bound.append(p - 1)
            last = len(active) - 1
            best = last if best is None else _fold(active, best, last, j, p,
                                                   bound, dmod, d)
        if best is None:
            raise ArithmeticError("lattice does not have full column rank")
        w, wb = active[best], bound[best]
        active[best], bound[best] = active[-1], bound[-1]
        active.pop()
        bound.pop()
        e = w[j]
        inv = pow(e >> (((e.bit_length() - 1) >> 6) << 6), -1, p)
        if inv != 1:
            if wb * inv >= _DIGIT_LIMIT:
                w, wb = _normalize(w, p), p - 1
            w, wb = [e * inv for e in w], wb * inv
        done.append((w, wb))

    # row t has its pivot in column t (rows left over are zero); reduce
    # below the pivots, rows top down and each right to left
    h, hb = map(list, zip(*done[::-1]))
    for t in range(n):
        for s in range(t - 1, -1, -1):
            h[t][s] = _strip(h[t][s], p)
            if h[t][s].bit_length() > ((h[s][s].bit_length() - 1) >> 6) << 6:
                _, hb[t], hb[s] = _divide(h[t], hb[t], h[s], hb[s], s, p)
    flat = _unpack([e for row in h for e in row], p)
    return [flat[i:i + n] for i in range(0, n * n, n)]


def fp_rref(mat: np.ndarray, p: int):
    """Row-reduced echelon form over F_p; returns (rref, pivot_cols)."""
    a = mat.copy() % p
    m, n = a.shape
    piv = []
    r = 0
    for c in range(n):
        if r == m:
            break
        sel = -1
        for i in range(r, m):
            if a[i, c]:
                sel = i
                break
        if sel < 0:
            continue
        a[[r, sel]] = a[[sel, r]]
        a[r] = (a[r] * _inv_mod(int(a[r, c]), p)) % p
        for i in range(m):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        piv.append(c)
        r += 1
    return a, piv


def fp_solve(a: np.ndarray, rhs: np.ndarray, p: int):
    """One solution x of x * a = rhs over F_p, or None."""
    aug = np.concatenate([a.T % p, (rhs.reshape(-1, 1)) % p], axis=1)
    red, piv = fp_rref(aug, p)
    n_unk = a.shape[0]
    if n_unk in piv:
        return None  # inconsistent
    x = np.zeros(n_unk, dtype=np.int64)
    for r, c in enumerate(piv):
        x[c] = red[r, n_unk]
    return x


# -- row reduction -----------------------------------------------------------


def _row_lead(degs):
    """(degree, leading position) of a row from its entry degrees: the
    rightmost column whose entry reaches the row degree."""
    d = max(degs)
    return d, len(degs) - 1 - degs[::-1].index(d)


def row_reduce(rows, companion, p: int, threshold=None):
    """Row reduction to weak Popov form by simple transformations
    (Mulders and Storjohann, JSC 35, 2003): while two rows share a leading
    position (the rightmost column reaching the row degree), the row of
    higher degree, and its companion row, lose c * x^(d_i - d_k) times
    the other, cancelling its leading entry.  Distinct leading positions
    leave the basis row-reduced, with the row degrees of its span.

    An update is ra += m * x^s * rb on packed entries, m = p - c.  A pivot
    row whose bound (one per row and companion) has reached p is reduced
    mod p first; so is the target when the update could take its bound
    to 2^63.  Updated entries drop their top digits that are 0 mod p.

    rows hold Poly or Packed entries, companion Poly or packed ones.
    Returns (degs, companion, hit, steps): the row degrees, the companion
    rows (Poly for a Poly companion, else Packed), the index of a row
    whose degree reached threshold (reduction left unfinished) or None,
    and the number of simple transformations.  A singular input raises.
    """
    n = len(rows)
    # row i and its companion row as one list: entries 0 .. n-1 are the
    # row's, the rest the companion's, all with digits at most bound[i]
    packed = [[_pack(e) for e in [*row, *crow]]
              for row, crow in zip(rows, companion)]
    bound = [p - 1] * n
    ent = [[e.deg for e in row] for row in rows]  # entry degrees
    lead = [_row_lead(row) for row in ent]
    steps = 0

    def done(hit):
        comp = [e for row in packed for e in row[n:]]
        comp = (_unpack(comp, p) if isinstance(companion[0][0], Poly)
                else _normalize(comp, p))
        width = len(companion[0])
        return ([d for d, _ in lead],
                [comp[r:r + width] for r in range(0, len(comp), width)], hit,
                steps)

    for i, (d, _) in enumerate(lead):
        if d < 0:
            raise ArithmeticError("zero row in row_reduce input")
        if threshold is not None and d <= threshold:
            return done(i)

    owner = {}  # leading position -> the row that holds it
    for i in range(n):
        while True:
            d, lp = lead[i]
            k = owner.setdefault(lp, i)
            if k == i:
                break
            if lead[k][0] > d:
                owner[lp], i, k = i, k, i
            if bound[k] >= p:
                packed[k], bound[k] = _normalize(packed[k], p), p - 1
            ri, rk = packed[i], packed[k]
            di, dk = lead[i][0], lead[k][0]
            m = -(ri[lp] >> (di << 6)) * pow(rk[lp] >> (dk << 6), -1, p) % p
            if bound[i] + m * bound[k] >= _DIGIT_LIMIT:
                ri = packed[i] = _normalize(ri, p)
                bound[i] = p - 1
            bound[i] += m * bound[k]
            shift = (di - dk) << 6
            ei = ent[i]
            for j in range(n):
                if rk[j]:
                    ri[j] = _strip(ri[j] + ((m * rk[j]) << shift), p)
                    ei[j] = (ri[j].bit_length() - 1) >> 6
            for j in range(n, len(rk)):
                if rk[j]:
                    ri[j] += (m * rk[j]) << shift
            new = _row_lead(ei)
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


def bareiss_det(rows, p: int) -> Poly:
    """Fraction-free determinant of a square Poly matrix."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = Poly.one(p)
    for k in range(n - 1):
        if a[k][k].is_zero():
            sel = -1
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    sel = i
                    break
            if sel < 0:
                return Poly.zero(p)
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = Poly.zero(p)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det.scale(-1) if sign < 0 else det


def lower_tri_inverse(rows, p: int):
    """For lower-triangular H with nonzero diagonal returns (G, d) with
    G * H = d * Id and d = prod of diagonal entries; G is polynomial."""
    n = len(rows)
    d = Poly.one(p)
    for i in range(n):
        d = d * rows[i][i]
    h = [[_pack(e) for e in row] for row in rows]
    return [in_lattice(v, h, p) for v in scalar_rows(d, n)], d


def in_lattice(v, h_rows, p: int):
    """The coefficient row c (Poly) with c * H = v for lower-triangular
    h_rows, or None when v is outside its span; entries Poly or packed.
    Row j of H is taken by one _divide, whose remainder must vanish and
    whose q is minus c_j."""
    rem, bound, coeffs = [_pack(e) for e in v], p - 1, [0] * len(v)
    for j in range(len(rem) - 1, -1, -1):
        rem[j] = _strip(rem[j], p)
        if rem[j]:
            coeffs[j], bound, _ = _divide(rem, bound,
                                          [_pack(e) for e in h_rows[j]],
                                          p - 1, j, p)
            if rem[j]:
                return None
    return _unpack(coeffs, p, -1)
