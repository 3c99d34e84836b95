"""Matrices over K[x] (K = F_p): HNF, row reduction, determinants.

A lattice is the K[x]-row-span of its matrix, stored as rows of Poly.
The kernels (mat_mul, hnf_square, in_lattice and row_reduce) read the
packed int e.v of every entry and compute on lists of them with the
digit-bound primitives of polys: an update only adds (c * e, c = p - c',
for a subtraction of c' * e), each row keeps a bound on its digits, and
a row is reduced mod p (_normalize) only when the next update could take
a digit to 2^63, so none carries.  Their results are wrapped as Poly
once every digit is reduced.

hnf_square gives the canonical basis of a row span by a pairwise gcd
chain per column, modulo D when the caller knows D * K[x]^n inside the
span; a dual lattice (orders._dual) needs no gcd chain.  row_reduce
brings a square matrix to weak Popov form, exposing the row degrees the
Riemann-Roch searches compare against.  fp_solve (on fp_rref) works over
F_p, for the minimal polynomials of prime decomposition.
"""

from __future__ import annotations

import numpy as np

from .polys import (_DIGIT_LIMIT, Poly, _add_product, _euclid, _inv_mod,
                    _neg, _normalize, _poly, _strip)


def mat_key(rows) -> bytes:
    """Canonical bytes for a matrix of Poly entries."""
    parts = [len(rows).to_bytes(8, "little"),
             len(rows[0]).to_bytes(8, "little")]
    for row in rows:
        for e in row:
            k = e.key()
            parts.append((len(k) >> 3).to_bytes(8, "little"))
            parts.append(k)
    return b"".join(parts)


def scalar_rows(c: Poly, n: int):
    """The n x n matrix c * Id."""
    zero = Poly.zero(c.p)
    return [[c if j == i else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, p: int):
    """Row-list product of Poly matrices: each row of the product sums
    the rows of b times the entries of a row of a, on packed ints (see
    _add_product for the digit bounds)."""
    b = [[e.v for e in row] for row in b]
    w = len(b[0])
    out = []
    for row in a:
        acc, bound = [0] * w, 0
        for c, brow in zip(row, b):
            bound = _add_product(acc, bound, c.v, p - 1, brow, p - 1, None, p)
        out += acc
    return _polys(out, w, p)


def _polys(ents, n: int, p: int):
    """The packed ints, every digit reduced mod p here, as rows of n Poly."""
    flat = [_poly(e, p) for e in _normalize(ents, p)]
    return [flat[i:i + n] for i in range(0, len(flat), n)]


# -- HNF ----------------------------------------------------------------------


def _divide(ri, bi, rk, bk, j, p: int):
    """ri += q * rk, q minus the quotient of ri[j] by rk[j] (both nonzero,
    rk[j] stripped), leaving the remainder in ri[j], stripped (_euclid);
    bi and bk bound the digits of ri and rk, and rk is reduced mod p
    first if bk has reached p.  The rest of ri takes q at once
    (_add_product).  Returns (q, bi, bk), the bounds updated."""
    if bk >= p:
        rk[:], bk = _normalize(rk, p), p - 1
    q, qb, ri[j], ab = _euclid(ri[j], bi, rk[j], bk, p)
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
    """HNF of a lattice spanned by rows with full column
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
    active = [[e.v for e in row] for row in rows]  # no pivot yet
    n = len(active[0])
    bound = [p - 1] * len(active)
    dmod = d = None
    if mod is not None:
        dmod, d = mod.monic().v, mod.deg
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
    return _polys([e for row in h for e in row], n, p)


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

    Returns (degs, companion, hit, steps): the row degrees, the companion
    rows, the index of a row
    whose degree reached threshold (reduction left unfinished) or None,
    and the number of simple transformations.  A singular input raises.
    """
    n = len(rows)
    # row i and its companion row as one list: entries 0 .. n-1 are the
    # row's, the rest the companion's, all with digits at most bound[i]
    packed = [[e.v for e in [*row, *crow]]
              for row, crow in zip(rows, companion)]
    bound = [p - 1] * n
    ent = [[e.deg for e in row] for row in rows]  # entry degrees
    lead = [_row_lead(row) for row in ent]
    steps = 0

    def done(hit):
        comp = _polys([e for row in packed for e in row[n:]],
                      len(companion[0]), p)
        return [d for d, _ in lead], comp, hit, steps

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
    return [in_lattice(v, rows, p) for v in scalar_rows(d, n)], d


def in_lattice(v, h_rows, p: int):
    """The coefficient row c with c * H = v for lower-triangular h_rows,
    or None when v is outside its span.  Row j of H is taken by one
    _divide, whose remainder must vanish and whose q is minus c_j."""
    rem, bound, coeffs = [e.v for e in v], p - 1, [0] * len(v)
    for j in range(len(rem) - 1, -1, -1):
        rem[j] = _strip(rem[j], p)
        if rem[j]:
            coeffs[j], bound, _ = _divide(rem, bound,
                                          [e.v for e in h_rows[j]],
                                          p - 1, j, p)
            if rem[j]:
                return None
    return _polys([_neg(c, p) for c in coeffs], len(v), p)[0]
