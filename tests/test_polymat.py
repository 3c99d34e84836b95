import random
import re
import sys

import pytest

from ffjac import polymat
from ffjac.polys import Poly
from ffjac.polymat import (
    _pack,
    _unpack,
    _vm,
    bareiss_det,
    hnf_square,
    in_lattice,
    lower_tri_inverse,
    mat_key,
    mat_mul,
    row_reduce,
    scalar_rows,
)

from helpers import (fp_kernel, hnf_square_arrays, in_lattice_arrays,
                     leading_matrix, row_reduce_arrays)

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


def long_reduction(rng, p, n, dmax):
    """U * B with U unimodular of entry degree about dmax and B of low
    degree: the row degrees start near dmax and end near those of B, so
    the reduction makes many steps (hundreds at n = 5 and 7)."""
    u = identity(n, p)
    while max(row_degrees(u)) < dmax:
        i, j = rng.sample(range(n), 2)
        q = rand_poly(rng, p, 3)
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    return mat_mul(u, rand_matrix(rng, p, n, n, 2), p)


def assert_same_reduction(rows, companion, p, threshold=None):
    """row_reduce and the array-based oracle agree, raising included;
    returns the result, or None on a singular input."""
    try:
        want = row_reduce_arrays(rows, companion, p, threshold)
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
            row_reduce(rows, companion, p, threshold)
        return None
    got = row_reduce(rows, companion, p, threshold)
    assert got == want
    return got


@pytest.mark.parametrize("p", [2, 3, 7, 101, 32771, BIG])
def test_row_reduce_matches_array_oracle(p):
    rng = random.Random("row_reduce oracle %d" % p)
    done = most = 0
    for case in range(12):
        n = 2 + case % 6
        if case % 2:
            rows = long_reduction(rng, p, n, rng.randrange(10, 41))
        else:
            rows = rand_matrix(rng, p, n, n, rng.randrange(1, 41))
        comp = rand_matrix(rng, p, n, n, 3)
        full = assert_same_reduction(rows, comp, p)
        if full is None:
            continue
        done += 1
        most = max(most, full[3])
        # a threshold between the final and the starting row degrees stops
        # the reduction part way
        mid = (min(full[0]) + max(row_degrees(rows))) // 2
        assert_same_reduction(rows, comp, p, mid)
    assert done >= 10
    assert most >= 100


def test_row_reduce_strips_top_digits_zero_mod_p():
    # (a) p = 3: the update x^2 + 2 * x * x leaves the top digit 3, which
    # is 0 mod p but not 0, and the degree must drop past it; the second
    # entry's top digit 3 goes the same way, leaving the constant 1
    p = 3
    x, one, z = Poly.x(p), Poly.one(p), Poly.zero(p)
    rows = [[x * x, x + one], [x, one]]
    degs, comp, hit, steps = assert_same_reduction(rows, identity(2, p), p)
    assert (degs, hit, steps) == ([0, 1], None, 1)
    assert comp == [[one, x.scale(-1)], [z, one]]
    # p = 2: x^2 + x + x * (x + 1) has the digits 0, 2, 2, all 0 mod p, so
    # the entry vanishes
    p = 2
    x, one, z = Poly.x(p), Poly.one(p), Poly.zero(p)
    rows = [[x * x + x, one], [x + one, z]]
    degs, comp, _, steps = assert_same_reduction(rows, identity(2, p), p)
    assert (degs, steps) == ([0, 1], 1)
    assert comp == [[one, x], [z, one]]


def test_row_reduce_normalizes_target_rows_near_2_63(monkeypatch):
    # (b) p = 2^31 - 1: m * digit is up to about 2^62, so a row that keeps
    # losing multiples of the same pivot reaches 2^63 within a few updates
    # and is reduced mod p in between.  Each of the 30 updates adds to up
    # to 31 digits of the target's first entry, so without those
    # reductions its middle digits would carry past 2^64
    rng = random.Random(53)
    x = Poly.x(BIG)
    calls = []
    real = polymat._normalize

    def normalize(ents, p):
        calls.append(len(ents))
        return real(ents, p)

    monkeypatch.setattr(polymat, "_normalize", normalize)
    pivot = Poly([rng.randrange(1, BIG) for _ in range(30)] + [1], BIG)
    target = x ** 80 + Poly([rng.randrange(BIG) for _ in range(80)], BIG)
    rows = [[target, Poly.one(BIG)], [pivot, Poly.one(BIG)]]
    degs, _, _, steps = assert_same_reduction(rows, identity(2, BIG), BIG)
    assert degs == [50, 30] and steps == 30
    # the pivot row is never updated, so every call is for the target row
    # (with its companion): at least once every four updates
    assert len(calls) >= steps // 4


def test_row_reduce_normalizes_pivots_past_p():
    # (c) row 1 loses (p - a) times row 0, so its constant entry holds the
    # digit d + (p - a) * c, about 2^58; then row 1 is the pivot of row 2,
    # whose update would multiply that digit by about p again, past 2^64,
    # unless row 1 is reduced first
    p = BIG
    x, one, z = Poly.x(p), Poly.one(p), Poly.zero(p)
    c, d, a, e = 123456789, 987654321, 5, 7
    rows = [[Poly([c], p), z, x],
            [x + Poly([d], p), z, x.scale(a)],
            [x.scale(e) * x, one, one]]
    degs, _, _, steps = assert_same_reduction(rows, identity(3, p), p)
    assert sorted(degs) == [0, 1, 1] and steps >= 2


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


def packed(rows):
    return [[_pack(e) for e in row] for row in rows]


def assert_same_hnf(rows, p, mod=None):
    """hnf_square and the array-based oracle agree on the key, raising
    included; the rows are also given packed.  Returns whether the rows
    had full column rank."""
    try:
        want = mat_key(hnf_square_arrays(rows, p, mod))
    except ArithmeticError as exc:
        for given in (rows, packed(rows)):
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                hnf_square(given, p, mod)
        return False
    assert mat_key(hnf_square(rows, p, mod)) == want
    assert mat_key(hnf_square(packed(rows), p, mod)) == want
    return True


@pytest.mark.parametrize("p", [2, 3, 7, 101, 32771, BIG])
def test_hnf_square_matches_array_oracle(p):
    # stacks of 1 .. 3n rows without a modulus, every fourth with a zero
    # column, and the modulus cases of the test above
    rng = random.Random("hnf oracle %d" % p)
    full = deficient = with_mod = 0
    for case in range(24):
        n = 1 + case % 4
        rows = rand_matrix(rng, p, rng.randrange(1, 3 * n + 1), n,
                           rng.randrange(12))
        if case % 4 == 1:
            c = rng.randrange(n)
            rows = [row[:c] + [Poly.zero(p)] + row[c + 1:] for row in rows]
        if assert_same_hnf(rows, p):
            full += 1
        else:
            deficient += 1
        if case % 3 == 0:
            for rows, mod in modulus_cases(rng, p, n):
                assert assert_same_hnf(rows, p, mod)
                with_mod += 1
    assert full >= 10 and deficient >= 6 and with_mod >= 40


@pytest.mark.parametrize("p", [2, 3, 7, 101, 32771, BIG])
def test_in_lattice_matches_array_oracle(p):
    # members c * H and random rows, which mostly lie outside
    rng = random.Random("in_lattice oracle %d" % p)
    hits = misses = 0
    for case in range(16):
        n = 1 + case % 4
        h = hnf_square(nonsingular(rng, p, n, 5), p)
        c = [rand_poly(rng, p, 6) for _ in range(n)]
        for v in (mat_mul([c], h, p)[0], rand_matrix(rng, p, 1, n, 8)[0]):
            want = in_lattice_arrays(v, h, p)
            assert in_lattice(v, h, p) == want
            assert in_lattice(packed([v])[0], packed(h), p) == want
            hits += want is not None
            misses += want is None
    assert hits >= 16 and misses >= 4


def test_hnf_square_strips_top_digits_zero_mod_p():
    # p = 3: x^2 + 2x + 1 loses 2x and then 2 times x + 1, which leaves the
    # digit 3 in the column: 0 mod p but not 0, so the remainder is zero
    # and the column is done (and (x + 1)^2 lies in the span of x + 1)
    p = 3
    x, one, z = Poly.x(p), Poly.one(p), Poly.zero(p)
    rows = [[x, x + one], [one, x * x + x.scale(2) + one]]
    assert assert_same_hnf(rows, p)
    h = [[one, z], [x, x + one]]
    v = [z, x * x + x.scale(2) + one]
    assert in_lattice(v, h, p) == in_lattice_arrays(v, h, p) == [
        x * x.scale(2) + x.scale(2), x + one]


def count_normalize(monkeypatch):
    """List that receives the caller of every _normalize call."""
    calls = []
    real = polymat._normalize

    def normalize(ents, p):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(ents, p)

    monkeypatch.setattr(polymat, "_normalize", normalize)
    return calls


def test_hnf_square_splits_a_long_quotient_at_p_near_2_31(monkeypatch):
    # a quotient of 36 digits at p = 2^31 - 1: each digit adds up to about
    # 2^62 to the column entry, which is reduced mod p part way through
    # the quotient (_divide); the other entry then takes the quotient two
    # digits at a time, reduced mod p in between (_add_product)
    rng = random.Random(71)
    calls = count_normalize(monkeypatch)
    long = Poly([rng.randrange(BIG) for _ in range(40)] + [1], BIG)
    short = Poly([rng.randrange(1, BIG) for _ in range(5)] + [1], BIG)
    other = Poly([rng.randrange(BIG) for _ in range(8)], BIG)
    rows = [[other, long], [Poly.one(BIG), short]]
    assert_same_hnf(rows, BIG)
    assert calls.count("_divide") >= 2 * 36 // 4
    assert calls.count("_add_product") >= 2 * 36 // 2


def test_hnf_square_normalizes_pivots_past_2_32(monkeypatch):
    # p = 2^31 - 1: the Euclid chain of two degree-12 entries swaps its
    # rows, so the pivot is a row just updated, with digits near 2^62,
    # which is reduced mod p before it is used
    rng = random.Random(73)
    calls = count_normalize(monkeypatch)
    a, b = (Poly([rng.randrange(BIG) for _ in range(12)] + [1], BIG)
            for _ in range(2))
    c, d = (Poly([rng.randrange(BIG) for _ in range(4)], BIG)
            for _ in range(2))
    assert_same_hnf([[c, a], [d, b]], BIG)
    assert len(calls) > 2 * 12


def test_hnf_square_reduces_long_entries_mod_d_near_2_31():
    # entries of degree 60 reduced mod a D of degree 5 at p = 2^31 - 1: 56
    # steps of up to about 2^62 each on one entry, which is reduced mod p
    # in between
    rng = random.Random(79)
    q = Poly([rng.randrange(BIG) for _ in range(5)] + [1], BIG)
    rows = [[Poly([rng.randrange(BIG) for _ in range(61)], BIG),
             Poly([rng.randrange(BIG) for _ in range(61)], BIG)]
            for _ in range(2)]
    rows += [[q, Poly.zero(BIG)], [Poly.zero(BIG), q]]
    assert assert_same_hnf(rows, BIG, q)


def test_hnf_square_scales_pivot_rows_past_2_63():
    # p = 2^31 - 1: the pivot row of the last column was updated, with
    # digits near 2^62, and its leading coefficient is not 1, so its
    # digits are reduced before they are scaled by the inverse
    rng = random.Random(83)
    x = Poly.x(BIG)
    a = Poly([rng.randrange(BIG) for _ in range(6)], BIG)
    rows = [[a, x.scale(5) + Poly.one(BIG)], [Poly.one(BIG), x.scale(3)]]
    assert_same_hnf(rows, BIG)


def poly_vm(v, rows, p):
    out = [Poly.zero(p)] * len(rows[0])
    for c, row in zip(v, rows):
        out = [o + c * e for o, e in zip(out, row)]
    return out


def test_vm_applies_long_entries_in_pieces_near_2_31():
    # p = 2^31 - 1 allows two digits of c per product (span): entries of 40
    # digits near p - 1, whose digit sums would reach about 40 * 2^62, are
    # applied twenty pieces at a time
    rng = random.Random(89)

    def near_p():
        return Poly([BIG - 1 - rng.randrange(1000) for _ in range(40)], BIG)

    v = [near_p()]
    rows = [[near_p() for _ in range(2)]]
    assert _unpack(_vm(v, packed(rows), BIG), BIG) == poly_vm(v, rows, BIG)


def test_vm_normalizes_between_rows_near_2_31(monkeypatch):
    # p = 2^31 - 1: every row adds up to 2 * (p - 1)^2, about 2^63, to the
    # output's digits, so they are reduced mod p before each further row
    rng = random.Random(97)
    calls = count_normalize(monkeypatch)
    v = [Poly([rng.randrange(BIG) for _ in range(2)], BIG)
         for _ in range(6)]
    rows = [[Poly([rng.randrange(BIG) for _ in range(3)], BIG)
             for _ in range(2)] for _ in range(6)]
    assert _unpack(_vm(v, packed(rows), BIG), BIG) == poly_vm(v, rows, BIG)
    assert calls == ["_add_product"] * 5 + ["_vm"]


def test_in_lattice_constant_pivots_near_2_31(monkeypatch):
    # p = 2^31 - 1 and unit pivots: the quotient of an entry by a constant
    # is the entry times minus its inverse, with digits up to about 2^62,
    # so it is reduced mod p before the row takes it, and the next entry,
    # whose digits then reach about 2^63, before it is scaled
    rng = random.Random(101)
    calls = count_normalize(monkeypatch)
    x, one = Poly.x(BIG), Poly.one(BIG)
    big = [Poly([rng.randrange(BIG) for _ in range(2)], BIG)
           for _ in range(3)]
    h = [[x * x + one, Poly.zero(BIG), Poly.zero(BIG)],
         [big[0], one, Poly.zero(BIG)],
         [big[1], big[2], one]]
    for _ in range(4):
        c = [Poly([rng.randrange(BIG) for _ in range(9)], BIG)
             for _ in range(3)]
        v = mat_mul([c], h, BIG)[0]
        assert in_lattice(v, h, BIG) == c
        assert in_lattice_arrays(v, h, BIG) == c
    assert "_divide" in calls and "_add_product" in calls
