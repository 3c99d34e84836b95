"""Matrices over K[x] (K = F_p): HNF, row reduction, determinants.

Module bases are stored as rows throughout (lists of rows of Poly): a
lattice is the K[x]-row-span of its matrix, and _vm is the one
vector-times-matrix product. The row-operation loops take and return
Poly rows but work in between on raw rows: hnf_square and in_lattice on
lists of int64 coefficient arrays (see polys), with the one update
_sub_scaled, ra -= x^s * q * rb; row_reduce on packed rows, each entry
one Python int holding a coefficient in every 64 bits, with its digits
reduced mod p only when they could overflow.

hnf_square brings a stack of rows of full column rank by unimodular row
operations to H lower triangular, with monic pivots and every entry
below a pivot (same column) of degree strictly less than that pivot,
which makes H a canonical representative of the row span.  Every colon
ideal is a dual lattice (see orders._dual): hnf_square of its conditions
with the columns reversed, inverted by lower_tri_inverse and read back to
front, gives the dual a lower-triangular basis, whose HNF needs no gcd
chain.  Each column is cleared by a pairwise gcd chain (Euclid on two
entries at a time, smallest first).  A caller that knows a polynomial D
with D * K[x]^n inside the row span passes it as mod: the entries are
then kept reduced mod D, which stops them growing, and the HNF is the
same. row_reduce brings a square matrix to weak Popov form by simple
transformations, one row update each, which exposes the row degrees that
the Riemann-Roch searches compare against.  Over F_p itself there is one
solver, fp_solve (on fp_rref): prime decomposition finds the minimal
polynomial of an element with it.
"""

from __future__ import annotations

import numpy as np

from .polys import _ZERO, Poly, _divmod_arr, _inv_mod, _mk, _mul_arr, _trim


def mat_key(rows) -> bytes:
    """Canonical bytes for a matrix of Poly entries."""
    parts = [np.int64(len(rows)).tobytes(), np.int64(len(rows[0])).tobytes()]
    for row in rows:
        for e in row:
            parts.append(np.int64(len(e.c)).tobytes())
            parts.append(e.c.tobytes())
    return b"".join(parts)


def _vm(v, rows, p: int):
    """Vector times matrix over K[x]."""
    width = len(rows[0])
    out = [Poly.zero(p)] * width
    for i, c in enumerate(v):
        if c.is_zero():
            continue
        row = rows[i]
        for j in range(width):
            if not row[j].is_zero():
                out[j] = out[j] + c * row[j]
    return out


def scalar_rows(c: Poly, n: int):
    """The n x n matrix c * Id."""
    zero = Poly.zero(c.p)
    return [[c if j == i else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, p: int):
    """Raw row-list product."""
    return [_vm(row, b, p) for row in a]


def _arrays(rows):
    return [[e.c for e in row] for row in rows]


def _polys(rows, p: int):
    return [[_mk(e, p) for e in row] for row in rows]


def _sub_scaled(ra, rb, q, p: int, shift: int = 0):
    """Row update ra -= x^shift * q * rb on raw coefficient rows, in place
    on the list ra (its arrays are replaced, never written)."""
    for j, b in enumerate(rb):
        if not b.size:
            continue
        prod = _mul_arr(q, b, p)
        a = ra[j]
        end = prod.size + shift
        if a.size >= end:
            out = a.copy()
        else:
            out = np.zeros(end, dtype=np.int64)
            out[:a.size] = a
        out[shift:end] = (out[shift:end] - prod) % p
        ra[j] = _trim(out)


def _rev_inverse(dc, p: int):
    """The power series inverse, modulo x^d, of the reversal of the monic
    coefficient array dc of degree d (Newton iteration)."""
    d = dc.size - 1
    rev = dc[::-1]
    g = np.ones(1, dtype=np.int64)
    prec = 1
    while prec < d:
        prec = min(2 * prec, d)
        err = _mul_arr(rev[:prec], g, p)[:prec]
        err[0] -= 1
        corr = _mul_arr(g, err, p)[:prec]
        nxt = np.zeros(prec, dtype=np.int64)
        nxt[:g.size] = g
        nxt[:corr.size] -= corr
        g = nxt % p
    return g


def _rem_arr(a, dc, dinv, p: int):
    """a mod the monic dc of degree d, dinv = _rev_inverse(dc, p).  One
    excess coefficient, the common case after a row update, is one
    subtraction; more are reduced 2d coefficients at a time through one
    quotient from the precomputed inverse (two products)."""
    d = dc.size - 1
    if d == 0:
        return _ZERO
    while a.size > d:
        if a.size == d + 1:
            return _trim((a[:d] - a[d] * dc[:d]) % p)
        lo = max(a.size - 2 * d, 0)
        top = a[lo:]
        m = top.size - d
        # the quotient, reversed, is rev(top) * dinv mod x^m
        q = _mul_arr(top[:d - 1:-1], dinv[:m], p)[m - 1::-1]
        r = (top[:d] - _mul_arr(q, dc, p)[:d]) % p
        a = _trim(np.concatenate((a[:lo], r)))
    return a


def _fold(active, best, i, j, p: int, rem_row):
    """Euclid on the column-j entries of the rows active[best] and
    active[i] by row updates (each row reduced by rem_row after its
    update, if given); returns the index of the row left holding their
    gcd, the other entry being zero."""
    while active[i][j].size:
        q = _divmod_arr(active[i][j], active[best][j], p)[0]
        _sub_scaled(active[i], active[best], q, p)
        if rem_row is not None:
            active[i] = rem_row(active[i])
        if active[i][j].size:
            best, i = i, best
    return best


def hnf_square(rows, p: int, mod: Poly = None):
    """HNF of a lattice spanned by rows with full column rank n: the
    nonsingular lower-triangular n x n basis with monic pivots and every
    entry below a pivot (same column) reduced mod the pivot.  Raises
    ArithmeticError at the first column with no pivot.  Inner loops run
    on raw coefficient arrays; Poly wrappers are restored at the end.

    Columns are cleared right to left by a pairwise gcd chain: the
    nonzero entries of the column are taken in increasing degree, and
    each is folded into the smallest by Euclid on that pair alone, so a
    unit pivot clears the column in one update per row.

    mod, when given, is a nonzero polynomial D with D * K[x]^n inside the
    row span (Cohen, GTM 138, 2.4.3: HNF modulo D).  Entries are then
    kept reduced mod D, and once the entries of column j are folded into
    one row w, the row D * e_j, whose entry is the largest, is folded in
    last: its Euclid steps are the extended gcd g of w_j and D, and they
    leave the pivot row (entry g) and the cofactor row (D / g) * w mod D,
    up to a unit.  Those two rows span what w and D * e_j span, so H is
    the HNF of the rows for any such D, not only for a multiple of the
    determinant, and every column has a pivot.  A unit w_j needs no such
    step, as its cofactor is zero.
    """
    active = _arrays(rows)  # rows with no pivot yet
    n = len(active[0])
    rem_row = None
    if mod is not None:
        dc = mod.monic().c
        d = dc.size - 1
        dinv = _rev_inverse(dc, p)

        def rem_row(row):
            return [e if e.size <= d else _rem_arr(e, dc, dinv, p)
                    for e in row]

        active = [rem_row(row) for row in active]

    # columns right to left; the pivot rows are collected bottom up
    done = []
    for j in range(n - 1, -1, -1):
        cand = sorted((i for i, row in enumerate(active) if row[j].size),
                      key=lambda i: (active[i][j].size, i))
        best = cand[0] if cand else None
        for i in cand[1:]:
            best = _fold(active, best, i, j, p, rem_row)
        if mod is not None and (best is None or active[best][j].size > 1):
            active.append([_ZERO] * j + [dc] + [_ZERO] * (n - 1 - j))
            last = len(active) - 1
            best = last if best is None else _fold(active, best, last, j, p,
                                                   rem_row)
        if best is None:
            raise ArithmeticError("lattice does not have full column rank")
        w = active[best]
        active[best] = active[-1]
        active.pop()
        lc = int(w[j][-1])
        if lc != 1:
            inv = _inv_mod(lc, p)
            w = [(e * inv) % p for e in w]
        done.append(w)

    # row t has its pivot in column t; any rows left over are zero.
    # Reduce the entries below each pivot mod the pivot, rows top down and
    # within a row right to left, so finished entries are never touched
    # again
    h = done[::-1]
    for t in range(n):
        for s in range(t - 1, -1, -1):
            e = h[t][s]
            if e.size >= h[s][s].size:
                q = _divmod_arr(e, h[s][s], p)[0]
                _sub_scaled(h[t], h[s], q, p)
    return _polys(h, p)


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


# row_reduce keeps every 64-bit digit of its packed entries below this,
# so that no digit carries into the next
_DIGIT_LIMIT = 1 << 63


def _pack(e: Poly) -> int:
    return int.from_bytes(e.c.astype("<i8", copy=False).tobytes(), "little")


def _digits_mod(ents, p: int):
    """(digits, sizes): the digits of the packed entries, reduced mod p,
    end to end in one array, and each entry's number of digits."""
    sizes = [(e.bit_length() + 63) >> 6 for e in ents]
    buf = b"".join(e.to_bytes(s << 3, "little") for e, s in zip(ents, sizes))
    return np.frombuffer(buf, "<u8") % p, sizes


def _normalize(ents, p: int):
    """The packed entries with every digit reduced mod p."""
    digits, sizes = _digits_mod(ents, p)
    buf = digits.astype("<u8", copy=False).tobytes()
    out, pos = [], 0
    for s in sizes:
        out.append(int.from_bytes(buf[pos:pos + (s << 3)], "little"))
        pos += s << 3
    return out


def _row_lead(degs):
    """(degree, leading position) of a row from its entry degrees: the
    rightmost column whose entry reaches the row degree."""
    d = max(degs)
    return d, len(degs) - 1 - degs[::-1].index(d)


def row_reduce(rows, companion, p: int, threshold=None):
    """Row reduction to weak Popov form by simple transformations
    (Mulders and Storjohann, JSC 35, 2003).

    A row's leading position is the rightmost column whose entry reaches
    the row degree.  While two rows share one, the row of higher degree
    loses c * x^(d_i - d_k) times the other, which cancels its leading
    entry, and its companion row the same multiple of the other's.
    Distinct leading positions make the leading-row-coefficient matrix
    nonsingular: the basis is then row-reduced, with the row degrees of
    every row-reduced basis of its span.

    In between, every entry is one Python int, coefficient k in bits
    [64k, 64k + 64) (Kronecker substitution), whose digits are reduced
    mod p lazily (delayed reduction): the update is ra += m * x^s * rb
    with m = p - c, one multiply, shift and add per nonzero entry of rb,
    so digits only grow, and no digit carries into the next while all
    stay below 2^63.  Each row has one bound on the digits of the row and
    its companion row.  A pivot row whose bound has reached p is reduced
    mod p (with its companion) before it is used, so its digits are the
    residues themselves; the target row is reduced first when the update
    could take its bound, plus m times the pivot's, to 2^63, which keeps
    every p < 2^31 exact.  Each updated entry then drops its top digits
    that are 0 mod p, so its top digit gives its degree and, mod p, its
    leading coefficient.  The companion rows are reduced mod p on return.

    Returns (degs, companion, hit, steps): the row degrees, the updated
    companion rows, the index of a row whose degree reached threshold
    (short circuit, reduction left unfinished) or None, and the number
    of simple transformations.  Requires a nonsingular square input; a
    vanishing row raises.
    """
    n = len(rows)
    # row i and its companion row as one list: entries 0 .. n-1 are the
    # row's, the rest the companion's, all with digits at most bound[i]
    packed = [[_pack(e) for e in row + crow]
              for row, crow in zip(rows, companion)]
    bound = [p - 1] * n
    ent = [[e.deg for e in row] for row in rows]  # entry degrees
    lead = [_row_lead(row) for row in ent]
    steps = 0

    def done(hit):
        digits, sizes = _digits_mod([e for row in packed for e in row[n:]],
                                    p)
        digits = digits.astype(np.int64)
        out, pos = [], 0
        for s in sizes:
            out.append(_mk(_trim(digits[pos:pos + s]), p))
            pos += s
        width = len(companion[0])
        return ([d for d, _ in lead],
                [out[r:r + width] for r in range(0, len(out), width)], hit,
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
                packed[k] = _normalize(packed[k], p)
                bound[k] = p - 1
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
                    e = ri[j] + ((m * rk[j]) << shift)
                    t = (e.bit_length() - 1) >> 6
                    while t >= 0 and (e >> (t << 6)) % p == 0:
                        e &= (1 << (t << 6)) - 1
                        t = (e.bit_length() - 1) >> 6
                    ri[j], ei[j] = e, t
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
    """Whether row vector v lies in the row span of lower-triangular h_rows.

    Returns the coefficient row c with c * H = v, or None.
    """
    rem = [e.c for e in v]
    coeffs = [Poly.zero(p)] * len(v)
    for j in range(len(v) - 1, -1, -1):
        if not rem[j].size:
            continue
        q, r = _divmod_arr(rem[j], h_rows[j][j].c, p)
        if r.size:
            return None
        coeffs[j] = _mk(q, p)
        # rem[j] is now r = 0 and is not read again
        _sub_scaled(rem, [e.c for e in h_rows[j][:j]], q, p)
    return coeffs
