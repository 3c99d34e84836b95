import random

import pytest

from ffjac.polys import Poly
from ffjac.polymat import (
    bareiss_det,
    hnf_square,
    in_lattice,
    lower_tri_inverse,
    mat_key,
    mat_mul,
    row_reduce,
    scalar_rows,
)

from helpers import fp_kernel, leading_matrix

P = 32771
# above polys._CONV_LIMIT: every product takes the Kronecker path
BIG = 2**31 - 1


def rand_poly(rng, p, dmax):
    d = rng.randrange(-1, dmax + 1)
    if d < 0:
        return Poly.zero(p)
    c = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
    return Poly(c, p)


def rand_matrix(rng, p, m, n, dmax=4):
    return [[rand_poly(rng, p, dmax) for _ in range(n)] for _ in range(m)]


def identity(n, p):
    return [[Poly.one(p) if i == j else Poly.zero(p) for j in range(n)]
            for i in range(n)]


def rand_unimodular(rng, p, n, steps=12):
    rows = identity(n, p)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rand_poly(rng, p, 2)
        for t in range(n):
            rows[i][t] = rows[i][t] + q * rows[j][t]
    return rows


def is_lower_reduced(h):
    n = len(h)
    for i in range(n):
        for j in range(n):
            e = h[i][j]
            if j > i:
                if not e.is_zero():
                    return False
            elif j == i:
                if e.is_zero() or e.lc != 1:
                    return False
            else:
                if not e.is_zero() and e.deg >= h[j][j].deg:
                    return False
    return True


def test_hnf_identity_fixed():
    m = identity(3, 7)
    assert hnf_square(m, 7) == m


def test_hnf_transform_and_canonical():
    for p in (P, BIG):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(2, 5)
            m = rand_matrix(rng, p, n, n)
            if bareiss_det(m, p).is_zero():
                continue
            h = hnf_square(m, p)
            assert is_lower_reduced(h)
            # same row span: the rows of m lie in that of h, and the
            # determinants agree up to a unit
            assert all(in_lattice(row, h, p) is not None for row in m)
            assert bareiss_det(h, p) == bareiss_det(m, p).monic()
            assert hnf_square(m, p) == h


def test_hnf_idempotent_and_span_invariant():
    for p in (P, BIG):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randrange(2, 4)
            m = rand_matrix(rng, p, n, n)
            if bareiss_det(m, p).is_zero():
                continue
            h = hnf_square(m, p)
            v = rand_unimodular(rng, p, n)
            assert hnf_square(mat_mul(v, m, p), p) == h
            assert hnf_square(h, p) == h


def test_hnf_rectangular_stack():
    # row span of a stacked matrix: duplicated generators change nothing
    rng = random.Random(3)
    m = rand_matrix(rng, 101, 3, 3)
    while bareiss_det(m, 101).is_zero():
        m = rand_matrix(rng, 101, 3, 3)
    h = hnf_square(m + m + m, 101)
    assert h == hnf_square(m, 101)


def test_hnf_square_rank_deficient_raises():
    p = 13
    z = Poly.zero(p)
    one = Poly.one(p)
    with pytest.raises(ArithmeticError):
        hnf_square([[one, z], [one, z]], p)


def scaled(rows, c):
    return [[e * c for e in row] for row in rows]


def modulus_cases(rng, p, n):
    """(rows, D) pairs with D * K[x]^n inside the row span of rows."""
    q = Poly([rng.randrange(p), 1], p)
    while True:
        m = rand_matrix(rng, p, n, n, dmax=3)
        det = bareiss_det(m, p)
        if not det.is_zero():
            break
    extra = rand_matrix(rng, p, rng.randrange(n + 1), n, dmax=5)
    bigger = rand_poly(rng, p, 3)
    while bigger.deg < 1:
        bigger = rand_poly(rng, p, 3)
    # the determinant, and a D strictly larger than it
    yield m + extra, det
    yield extra + m, det * bigger
    # span q * K[x]^n: D = q^k is not squarefree, and D = q is, for n > 1,
    # a proper divisor of the determinant q^n
    qm = scaled(rand_unimodular(rng, p, n), q)
    for k in (1, 2, 3):
        yield qm + scaled(extra, q), q ** k
    # rows that are multiples of D reduce to zero rows
    yield scaled(extra, det) + m + scaled(m, det), det
    # column c holds nothing but D * e_c, which reduces to zero: the
    # column is empty once the stack is reduced mod D
    c = rng.randrange(n)
    sub = [row[:c] + [Poly.zero(p)] + row[c + 1:] for row in m]
    sub[c] = [Poly.zero(p)] * c + [Poly.one(p)] + [Poly.zero(p)] * (n - 1 - c)
    sdet = bareiss_det(sub, p)
    if not sdet.is_zero():
        mod = sdet * q * q
        yield sub[:c] + sub[c + 1:] + [scalar_rows(mod, n)[c]], mod


def test_hnf_modulo_d_matches_plain_hnf():
    # a modulus D with D * K[x]^n in the span changes no byte of the HNF
    count = 0
    for p in (2, 7, BIG):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randrange(1, 5)
            for rows, mod in modulus_cases(rng, p, n):
                want = mat_key(hnf_square(rows, p))
                assert mat_key(hnf_square(rows, p, mod)) == want
                count += 1
    assert count >= 200


def test_det_vs_diagonal_product():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 5)
        m = rand_matrix(rng, P, n, n)
        d = bareiss_det(m, P)
        if d.is_zero():
            continue
        h = hnf_square(m, P)
        prod = Poly.one(P)
        for i in range(n):
            prod = prod * h[i][i]
        # h = u*m with u unimodular so det h = const * det m
        assert prod == d.monic()


def nonsingular(rng, p, n, dmax=4):
    m = rand_matrix(rng, p, n, n, dmax)
    while bareiss_det(m, p).is_zero():
        m = rand_matrix(rng, p, n, n, dmax)
    return m


def row_degrees(rows):
    return [max(e.deg for e in row) for row in rows]


def leading_positions(rows):
    """Per row, the rightmost column whose entry reaches the row degree."""
    lead = leading_matrix(rows)
    return [max(j for j in range(lead.shape[1]) if lead[i, j])
            for i in range(lead.shape[0])]


def test_row_reduce_degrees_sum_to_det_degree():
    for p in (P, BIG):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randrange(2, 5)
            m = rand_matrix(rng, p, n, n)
            d = bareiss_det(m, p)
            if d.is_zero():
                continue
            start = sum(row_degrees(m))
            degs, comp, hit, steps = row_reduce(m, identity(n, p), p)
            assert hit is None
            red = mat_mul(comp, m, p)
            assert row_degrees(red) == degs
            assert sum(degs) == d.deg
            # every step lowers sum(n * deg + leading position) by at
            # least one; at the end the leading positions are 0 .. n-1
            assert steps <= n * (start - d.deg) + n * (n - 1) // 2
            # leading matrix nonsingular means no further drop possible
            assert len(fp_kernel(leading_matrix(red), p)) == 0


def test_row_reduce_weak_popov_leading_positions_distinct():
    count = 0
    for p in (P, BIG):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randrange(2, 6)
            m = nonsingular(rng, p, n)
            _, comp, hit, _ = row_reduce(m, identity(n, p), p)
            assert hit is None
            lps = leading_positions(mat_mul(comp, m, p))
            assert sorted(lps) == list(range(n))
            count += 1
    assert count == 30


def test_row_reduce_preserves_row_span():
    rng = random.Random(29)
    p = 101
    m = nonsingular(rng, p, 3)
    comp = row_reduce(m, identity(3, p), p)[1]
    assert hnf_square(m, p) == hnf_square(mat_mul(comp, m, p), p)


def test_row_reduce_companion_tracks_ops():
    # the input is c * v and the companion c, as in riemann_roch: the
    # returned companion times v must be the reduced matrix
    for p in (101, BIG):
        rng = random.Random(31)
        c = nonsingular(rng, p, 3, dmax=3)
        v = nonsingular(rng, p, 3, dmax=3)
        degs, comp, _, steps = row_reduce(mat_mul(c, v, p), c, p)
        assert steps > 0
        red = mat_mul(comp, v, p)
        assert row_degrees(red) == degs
        assert len(fp_kernel(leading_matrix(red), p)) == 0
        # comp = U * c with U unimodular
        assert hnf_square(comp, p) == hnf_square(c, p)


def test_row_reduce_threshold_short_circuit():
    p = 101
    x = Poly.x(p)
    one = Poly.one(p)
    rows = [[x ** 6, one], [one, x ** 5]]
    degs, _, hit, steps = row_reduce(rows, identity(2, p), p, threshold=5)
    assert hit is not None
    assert degs[hit] <= 5
    assert steps == 0


def test_row_reduce_rejects_singular_input():
    p = 101
    x = Poly.x(p)
    one = Poly.one(p)
    z = Poly.zero(p)
    with pytest.raises(ArithmeticError, match="zero row"):
        row_reduce([[x, one], [z, z]], identity(2, p), p)
    # the second row is x times the first, and vanishes
    with pytest.raises(ArithmeticError, match="vanished"):
        row_reduce([[x, one], [x * x, x]], identity(2, p), p)


def test_lower_tri_inverse():
    rng = random.Random(41)
    p = 32771
    for _ in range(10):
        n = rng.randrange(2, 5)
        rows = [
            [
                rand_poly(rng, p, 3) if j < i else Poly.zero(p)
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            d = rng.randrange(0, 4)
            rows[i][i] = Poly([rng.randrange(p) for _ in range(d)] + [1], p)
        g, det = lower_tri_inverse(rows, p)
        prod = mat_mul(g, rows, p)
        for i in range(n):
            for j in range(n):
                want = det if i == j else Poly.zero(p)
                assert prod[i][j] == want


def test_in_lattice():
    rng = random.Random(43)
    p = 101
    m = rand_matrix(rng, p, 3, 3)
    while bareiss_det(m, p).is_zero():
        m = rand_matrix(rng, p, 3, 3)
    h = hnf_square(m, p)
    for _ in range(20):
        c = [rand_poly(rng, p, 3) for _ in range(3)]
        v = mat_mul([c], h, p)[0]
        got = in_lattice(v, h, p)
        assert got is not None
        assert mat_mul([got], h, p)[0] == v


def test_in_lattice_rejects_outsider():
    p = 101
    x = Poly.x(p)
    z = Poly.zero(p)
    rows = [[x * x, z], [x + Poly.one(p), x ** 3]]
    assert in_lattice([x, z], rows, p) is None
    assert in_lattice([z, x], rows, p) is None
    got = in_lattice([x * x, z], rows, p)
    assert got == [Poly.one(p), z]
