"""Matrices over K[x] (K = F_p): HNF, reduction, kernels, determinants.

Module bases are stored as rows throughout (lists of rows of Poly): a
lattice is the K[x]-row-span of its matrix. _hnf_rows computes H = U*M
with U unimodular and H lower echelon, monic pivots, and every entry
below a pivot (same column) of degree strictly less than that pivot,
which makes H a canonical representative of the row span; hnf_square and
left_kernel are built on it. row_reduce makes the leading-row-coefficient
matrix nonsingular (row reduction), which exposes the row degrees that
the Riemann-Roch searches compare against.
"""

from __future__ import annotations

import numpy as np

from .polys import _CONV_LIMIT, Poly, _inv_mod, _mk


def mat_key(rows) -> bytes:
    """Canonical bytes for a matrix of Poly entries."""
    parts = [np.int64(len(rows)).tobytes(), np.int64(len(rows[0])).tobytes()]
    for row in rows:
        for e in row:
            parts.append(np.int64(len(e.c)).tobytes())
            parts.append(e.c.tobytes())
    return b"".join(parts)


def mat_mul(a, b, p: int):
    """Raw row-list product."""
    n_mid = len(b)
    n_out = len(b[0])
    zero = Poly.zero(p)
    out = []
    for row in a:
        acc = [zero] * n_out
        for k in range(n_mid):
            e = row[k]
            if e.is_zero():
                continue
            brow = b[k]
            for j in range(n_out):
                if not brow[j].is_zero():
                    acc[j] = acc[j] + e * brow[j]
        out.append(acc)
    return out


def _arr_trim(a: np.ndarray) -> np.ndarray:
    n = a.size
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n] if n != a.size else a


def _arr_quo(a: np.ndarray, b: np.ndarray, inv_lc: int, p: int):
    """Quotient a // b for raw coefficient arrays, deg a >= deg b >= 0."""
    db = b.size - 1
    steps = a.size - b.size
    q = np.zeros(steps + 1, dtype=np.int64)
    rem = a.copy()
    bl = b[:db]
    for k in range(steps, -1, -1):
        c = rem[k + db] % p
        if c:
            c = (c * inv_lc) % p
            q[k] = c
            if db:
                rem[k:k + db] = (rem[k:k + db] - c * bl) % p
    return _arr_trim(q)


def _hnf_rows(rows, p: int, transform: bool = False):
    """Row HNF core. Returns (H_rows, U_rows or None, pivot_cols).

    H = U * M, H lower echelon: pivot of row k in column pivot_cols[k],
    zero rows (if any) at the bottom, monic pivots, entries below a pivot
    in its column reduced mod the pivot.  Inner loops run on raw
    coefficient arrays; Poly wrappers are restored at the end.
    """
    conv_ok = p < _CONV_LIMIT

    def mul_q(q, b):
        if conv_ok:
            return np.convolve(q, b) % p
        return (_mk(q, p) * _mk(b, p)).c

    def sub_scaled(ra, rb, q):
        # ra -= q * rb entrywise
        for j in range(len(ra)):
            b = rb[j]
            if not b.size:
                continue
            prod = mul_q(q, b)
            a = ra[j]
            if a.size >= prod.size:
                out = a.copy()
                out[:prod.size] = (out[:prod.size] - prod) % p
            else:
                out = (-prod) % p
                out[:a.size] = (out[:a.size] + a) % p
            ra[j] = _arr_trim(out)

    work = [[e.c for e in r] for r in rows]
    m = len(work)
    n = len(work[0])
    u = None
    if transform:
        one = np.ones(1, dtype=np.int64)
        zero = np.zeros(0, dtype=np.int64)
        u = [[one if i == j else zero for j in range(m)] for i in range(m)]

    # columns right to left, pivot rows assigned bottom up: zero rows end
    # at the top, the echelon block at the bottom is lower triangular
    pivots = []
    k = m - 1
    for j in range(n - 1, -1, -1):
        if k < 0:
            break
        # gcd-chain on entries of column j in rows 0..k
        while True:
            cand = [i for i in range(k + 1) if work[i][j].size]
            if len(cand) <= 1:
                break
            best = min(cand, key=lambda i: (work[i][j].size, i))
            piv = work[best][j]
            inv_lc = _inv_mod(int(piv[-1]), p)
            for i in cand:
                if i == best:
                    continue
                q = _arr_quo(work[i][j], piv, inv_lc, p)
                sub_scaled(work[i], work[best], q)
                if u is not None:
                    sub_scaled(u[i], u[best], q)
        if not cand:
            continue
        i = cand[0]
        if i != k:
            work[i], work[k] = work[k], work[i]
            if u is not None:
                u[i], u[k] = u[k], u[i]
        lc = int(work[k][j][-1])
        if lc != 1:
            inv = _inv_mod(lc, p)
            work[k] = [(e * inv) % p for e in work[k]]
            if u is not None:
                u[k] = [(e * inv) % p for e in u[k]]
        pivots.append((k, j))
        k -= 1

    # entries below a pivot (same column, larger row index) reduced mod the
    # pivot; finalize rows top down, and within a row reduce its pivot
    # columns right to left so finished entries are never touched again
    pivots.reverse()
    for t in range(len(pivots)):
        r = pivots[t][0]
        for s in range(t - 1, -1, -1):
            rs, js = pivots[s]
            piv = work[rs][js]
            e = work[r][js]
            if not e.size or e.size < piv.size:
                continue
            q = _arr_quo(e, piv, _inv_mod(int(piv[-1]), p), p)
            sub_scaled(work[r], work[rs], q)
            if u is not None:
                sub_scaled(u[r], u[rs], q)

    h_out = [[_mk(e, p) for e in row] for row in work]
    u_out = None
    if u is not None:
        u_out = [[_mk(e, p) for e in row] for row in u]
    return h_out, u_out, pivots


def hnf_square(rows, p: int):
    """HNF of a lattice spanned by rows with full column rank n; returns the
    nonsingular n x n top block."""
    h, _, pivots = _hnf_rows(rows, p, transform=False)
    n = len(rows[0])
    if [j for _, j in pivots] != list(range(n)):
        raise ArithmeticError("lattice does not have full column rank")
    return h[len(h) - n:]


def left_kernel(rows, p: int):
    """Basis rows of {v : v * M = 0}, a saturated K[x]-module."""
    h, u, _ = _hnf_rows(rows, p, transform=True)
    out = []
    for i, row in enumerate(h):
        if all(e.is_zero() for e in row):
            out.append(u[i])
    return out


def _leading_matrix(work, degs, p: int):
    m = len(work)
    n = len(work[0])
    lead = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        d = degs[i]
        for j in range(n):
            e = work[i][j]
            if e.deg == d:
                lead[i, j] = e.lc
    return lead


def _nullvector_mod(mat: np.ndarray, p: int):
    """A nonzero left-nullspace vector of mat over F_p, or None."""
    m, n = mat.shape
    a = mat.T % p  # column space of a = row space of mat; find right null of a
    a = a.copy()
    # Gaussian elimination on a (n x m), unknowns = m row-coefficients
    piv_col_of_row = [-1] * n
    used = np.zeros(m, dtype=bool)
    r = 0
    for c in range(m):
        sel = -1
        for i in range(r, n):
            if a[i, c] % p:
                sel = i
                break
        if sel < 0:
            continue
        a[[r, sel]] = a[[sel, r]]
        inv = _inv_mod(int(a[r, c]), p)
        a[r] = (a[r] * inv) % p
        for i in range(n):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        piv_col_of_row[r] = c
        used[c] = True
        r += 1
        if r == n:
            break
    free = [c for c in range(m) if not used[c]]
    if not free:
        return None
    c0 = free[0]
    v = np.zeros(m, dtype=np.int64)
    v[c0] = 1
    for i in range(r):
        c = piv_col_of_row[i]
        if c >= 0:
            v[c] = (-a[i, c0]) % p
    return v


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


def fp_kernel(a: np.ndarray, p: int):
    """Basis rows of {v : v * a = 0} over F_p."""
    red, piv = fp_rref(a.T % p, p)
    m = a.shape[0]
    free = [c for c in range(m) if c not in piv]
    out = np.zeros((len(free), m), dtype=np.int64)
    for k, c0 in enumerate(free):
        out[k, c0] = 1
        for r, c in enumerate(piv):
            out[k, c] = (-red[r, c0]) % p
    return out


def row_reduce(rows, p: int, companion=None, threshold=None):
    """Row reduction: make the leading-row-coefficient matrix nonsingular.

    Operates in place on copies; returns (work, degs, companion, hit) where
    hit is the index of a row whose degree reached threshold (short circuit,
    reduction left unfinished), or None. Row degree is the max entry degree.
    Requires a nonsingular square input; a vanishing row raises.
    """
    work = [list(r) for r in rows]
    comp = [list(r) for r in companion] if companion is not None else None
    m = len(work)
    degs = [max(e.deg for e in row) for row in work]

    def check(i):
        return threshold is not None and degs[i] <= threshold

    for i in range(m):
        if degs[i] < 0:
            raise ArithmeticError("zero row in row_reduce input")
        if check(i):
            return work, degs, comp, i

    while True:
        lead = _leading_matrix(work, degs, p)
        v = _nullvector_mod(lead, p)
        if v is None:
            return work, degs, comp, None
        cand = [i for i in range(m) if v[i]]
        tgt = max(cand, key=lambda i: (degs[i], i))
        d_t = degs[tgt]
        inv = _inv_mod(int(v[tgt]), p)
        new_row = list(work[tgt])
        new_comp = list(comp[tgt]) if comp is not None else None
        for i in cand:
            if i == tgt:
                continue
            coef = (int(v[i]) * inv) % p
            shift = d_t - degs[i]
            for j in range(len(new_row)):
                e = work[i][j]
                if not e.is_zero():
                    new_row[j] = new_row[j] + e.scale(coef).shift(shift)
            if comp is not None:
                for j in range(len(new_comp)):
                    e = comp[i][j]
                    if not e.is_zero():
                        new_comp[j] = new_comp[j] + e.scale(coef).shift(shift)
        work[tgt] = new_row
        if comp is not None:
            comp[tgt] = new_comp
        nd = max(e.deg for e in new_row)
        if nd >= d_t:
            raise ArithmeticError("row degree did not drop; input singular?")
        if nd < 0:
            raise ArithmeticError("row vanished in row_reduce; input singular")
        degs[tgt] = nd
        if check(tgt):
            return work, degs, comp, tgt


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
    zero = Poly.zero(p)
    g = [[zero] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = d.exact_div(rows[i][i])
        for j in range(i - 1, -1, -1):
            acc = zero
            for k in range(j + 1, i + 1):
                if not g[i][k].is_zero() and not rows[k][j].is_zero():
                    acc = acc + g[i][k] * rows[k][j]
            if acc.is_zero():
                continue
            g[i][j] = (-acc).exact_div(rows[j][j])
    return g, d


def in_lattice(v, h_rows, p: int):
    """Whether row vector v lies in the row span of lower-triangular h_rows.

    Returns the coefficient row c with c * H = v, or None.
    """
    n = len(v)
    rem = list(v)
    coeffs = [Poly.zero(p)] * n
    for j in range(n - 1, -1, -1):
        e = rem[j]
        if e.is_zero():
            continue
        piv = h_rows[j][j]
        q, r = e.divmod(piv)
        if not r.is_zero():
            return None
        coeffs[j] = q
        for t in range(j + 1):
            if not h_rows[j][t].is_zero():
                rem[t] = rem[t] - q * h_rows[j][t]
    if any(not e.is_zero() for e in rem):
        return None
    return coeffs
