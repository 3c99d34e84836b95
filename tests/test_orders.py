import hashlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from ffjac.divisors import Divisor, finite_places_above
from ffjac.field import FFElem, FunctionField, make_field
from ffjac.fieldgen import read_field
from ffjac.jacobian import JacobianCtx
from ffjac import orders, polymat
from ffjac.orders import (
    Ideal,
    decompose_prime,
    ideal_inv,
    ideal_mul,
    ideal_mul_elem,
    ideal_one,
    maximal_order,
    principal_ideal,
    _decompose_kummer,
    _decompose_radical_split,
    _dedekind_q_maximal,
    _maximalize_at,
    _pow_coords_mod,
    _radical_ideal,
    discriminant_support,
)
from ffjac.polymat import (hnf_square, in_lattice, lower_tri_inverse,
                           mat_mul, scalar_rows)
from ffjac.polys import Poly, enumerate_monic_irreducibles, poly_factor
from helpers import (dual_by_second_hnf, element_of_place, norm, scale,
                     val_ideal)


def small_fields():
    p5 = 5
    return [
        # t^2 - (x^3 + x), squarefree discriminant
        make_field(p5, 2, [Poly([0, -1, 0, -1], p5), Poly([], p5)]),
        # t^2 - x^2 (x + 1), non-maximal equation order at x
        make_field(p5, 2, [Poly([0, 0, -1, -1], p5), Poly([], p5)]),
        # t^3 + x t + x
        make_field(p5, 3, [Poly([0, 1], p5), Poly([0, 1], p5), Poly([], p5)]),
        # t^2 + t + x^3 in characteristic two
        make_field(2, 2, [Poly([0, 0, 0, 1], 2), Poly([1], 2)]),
    ]


def x_poly(p):
    return Poly([0, 1], p)


def contains(ideal, c):
    """Whether the element with order coordinates c lies in the ideal."""
    num = [e * ideal.den for e in c]
    return in_lattice(num, ideal.h, ideal.order.p) is not None


def test_equation_order_kept_when_possible():
    f = small_fields()[0]
    o = maximal_order(f)
    assert o.den.is_one()
    assert o.index_poly().is_one()


def test_singular_model_enlarged_at_x():
    f = small_fields()[1]
    o = maximal_order(f)
    p = f.p
    assert o.den == x_poly(p)
    assert o.index_poly() == x_poly(p)
    # second basis element is t/x
    assert o.basis[1] == [Poly([], p), Poly([1], p)]


def test_order_multiplication_matches_field():
    rng = random.Random(7)
    for f in small_fields():
        o = maximal_order(f)
        p, n = f.p, f.n
        for _ in range(10):
            u = [Poly([rng.randrange(p) for _ in range(3)], p)
                 for _ in range(n)]
            v = [Poly([rng.randrange(p) for _ in range(3)], p)
                 for _ in range(n)]
            w = mat_mul([u], o.elem_mul_matrix(v), p)[0]
            eu = FFElem(f, mat_mul([u], o.basis, p)[0], o.den)
            ev = FFElem(f, mat_mul([v], o.basis, p)[0], o.den)
            ew = FFElem(f, mat_mul([w], o.basis, p)[0], o.den)
            assert eu * ev == ew


def test_decomposition_degree_sum():
    for f in small_fields():
        o = maximal_order(f)
        for q in [x_poly(f.p), Poly([1, 1], f.p), Poly([2 % f.p, 1, 1], f.p)]:
            if poly_factor(q)[1][0][1] != 1 or len(poly_factor(q)[1]) != 1:
                continue  # skip reducible probe
            primes = decompose_prime(o, q)
            assert sum(pr.e * pr.f for pr in primes) == f.n
            for pr in primes:
                assert pr.is_integral()
                qone = [e * q for e in o.one_coords]
                assert contains(pr, qone)
                assert pr.norm_degree() == pr.f * q.deg
                assert val_ideal(pr, pr) == 1


def test_known_splitting_shapes():
    p = 5
    f1, f2, f3, fc2 = small_fields()
    o1 = maximal_order(f1)
    assert [(pr.e, pr.f) for pr in decompose_prime(o1, x_poly(p))] == [(2, 1)]
    o2 = maximal_order(f2)
    assert [(pr.e, pr.f) for pr in decompose_prime(o2, x_poly(p))] \
        == [(1, 1), (1, 1)]
    o3 = maximal_order(f3)
    assert [(pr.e, pr.f) for pr in decompose_prime(o3, x_poly(p))] == [(3, 1)]
    # t^3 + t + 1 is irreducible mod 5, so x - 1 stays inert
    assert [(pr.e, pr.f) for pr in decompose_prime(o3, Poly([-1, 1], p))] \
        == [(1, 3)]
    oc = maximal_order(fc2)
    assert [(pr.e, pr.f) for pr in decompose_prime(oc, x_poly(2))] \
        == [(1, 1), (1, 1)]


def test_inert_prime_through_radical_path():
    # t^2 - x^2 (x + 2): after enlargement, t/x squares to x + 2, which is
    # a non-residue mod x, so x is inert with f = 2
    p = 5
    f = make_field(p, 2, [Poly([0, 0, -2, -1], p), Poly([], p)])
    o = maximal_order(f)
    assert o.index_poly() == x_poly(p)
    primes = decompose_prime(o, x_poly(p))
    assert [(pr.e, pr.f) for pr in primes] == [(1, 2)]


def test_kummer_and_radical_split_agree():
    for f in small_fields():
        o = maximal_order(f)
        idx = o.index_poly()
        for q in enumerate_monic_irreducibles(f.p, 1):
            if q.divides(idx):
                continue
            a = sorted(pr.key() for pr in _decompose_kummer(o, q))
            b = sorted(pr.key() for pr in _decompose_radical_split(o, q))
            assert a == b


def test_dedekind_agrees_with_enlargement():
    # the criterion is only taken at linear primes
    for f in small_fields():
        p = f.p
        disc = discriminant_support(f)
        rows = [[Poly([1] if i == j else [], p) for j in range(f.n)]
                for i in range(f.n)]
        from ffjac.orders import Order

        eq = Order(f, rows, Poly.one(p))
        for q, m in poly_factor(disc)[1]:
            if m < 2 or q.deg != 1:
                continue
            enlarged = _maximalize_at(eq, q)
            assert _dedekind_q_maximal(f, q) == enlarged.index_poly().is_one()


def test_element_valuations_multiplicative():
    rng = random.Random(11)
    for f in small_fields()[:3]:
        o = maximal_order(f)
        p, n = f.p, f.n
        primes = decompose_prime(o, x_poly(p))
        for _ in range(8):
            u = [Poly([rng.randrange(p) for _ in range(2)], p)
                 for _ in range(n)]
            v = [Poly([rng.randrange(p) for _ in range(2)], p)
                 for _ in range(n)]
            if all(e.is_zero() for e in u) or all(e.is_zero() for e in v):
                continue
            w = mat_mul([u], o.elem_mul_matrix(v), p)[0]
            for pr in primes:
                assert pr.val_coords(w) == pr.val_coords(u) + pr.val_coords(v)


def test_ideal_arithmetic_roundtrip():
    p = 5
    f = small_fields()[2]
    o = maximal_order(f)
    px = decompose_prime(o, x_poly(p))[0]
    p1 = decompose_prime(o, Poly([-1, 1], p))[0]
    ideal = ideal_mul(ideal_mul(px.power(2), p1), ideal_one(o))
    assert val_ideal(px, ideal) == 2
    assert val_ideal(p1, ideal) == 1
    inv = ideal_inv(ideal)
    assert ideal_mul(ideal, inv) == ideal_one(o)
    assert inv.norm_degree() == -ideal.norm_degree()
    # canonical keys: the same module reached two ways compares equal
    assert ideal_mul(px.power(2), p1) == ideal_mul(ideal_mul(px, p1), px)
    assert px.power(3) == ideal_mul(px.power(2), px)


def test_ideal_norm_additive_on_products():
    p = 5
    f = small_fields()[0]
    o = maximal_order(f)
    pa = decompose_prime(o, x_poly(p))[0]
    pb = decompose_prime(o, Poly([1, 1], p))[0]
    ia, ib = pa.power(2), pb.power(1)
    prod = ideal_mul(ia, ib)
    assert prod.norm_degree() == ia.norm_degree() + ib.norm_degree()


def test_principal_ideal_norm_matches_element_norm():
    rng = random.Random(3)
    for f in small_fields():
        o = maximal_order(f)
        p, n = f.p, f.n
        for _ in range(6):
            vec = [Poly([rng.randrange(p) for _ in range(2)], p)
                   for _ in range(n)]
            if all(e.is_zero() for e in vec):
                continue
            c = o.from_power(vec)
            assert c is not None
            ideal = principal_ideal(o, c)
            num, den = norm(FFElem(f, vec))
            assert den.is_one()
            assert ideal.norm_degree() == num.deg


def test_prime_power_membership_strict():
    p = 5
    f = small_fields()[2]
    o = maximal_order(f)
    pr = decompose_prime(o, x_poly(p))[0]
    qone = [e * x_poly(p) for e in o.one_coords]
    assert contains(pr.power(pr.e), qone)
    assert not contains(pr.power(pr.e + 1), qone)
    assert pr.power(-1) == ideal_inv(pr)


def test_infinite_model_orders():
    f1 = small_fields()[0]
    fi = f1.infinite_model()
    oi = maximal_order(fi)
    u = x_poly(f1.p)
    primes = decompose_prime(oi, u)
    # one ramified place above u: the curve has a single point at infinity
    assert [(pr.e, pr.f) for pr in primes] == [(2, 1)]


def test_divisor_arithmetic_leaves_context_counters():
    # counters belong to a context and count only its own operations
    f = small_fields()[0]
    c1, c2 = JacobianCtx(f), JacobianCtx(f)
    pl = finite_places_above(f, x_poly(f.p))[0]
    x = element_of_place(c1, pl)
    c2.add(x, x)
    before = [c.counters.as_dict() for c in (c1, c2)]
    assert before[1]["partial_additions"] > 0
    d = Divisor.from_place(pl, 2) + Divisor.from_place(pl)
    assert (d - scale(Divisor.from_place(pl), 3)).degree() == 0
    assert [c.counters.as_dict() for c in (c1, c2)] == before


def test_inseparable_definition_rejected():
    coeffs = [Poly([0, 1], 2), Poly([], 2)]  # t^2 - x
    with pytest.raises(ValueError):
        make_field(2, 2, coeffs)
    with pytest.raises(ArithmeticError):
        maximal_order(FunctionField(coeffs, 2, check=False))


def test_valuation_memo_ends_one_past_the_valuation():
    v = 5
    for f in small_fields():
        o = maximal_order(f)
        q = x_poly(f.p)
        qv = q ** v
        for pr in decompose_prime(o, q):
            # decomposition values q itself: the memo holds P^0 .. P^(e+1)
            assert len(pr._pows) <= pr.e + 2
            got = pr.val_coords([e * qv for e in o.one_coords])
            assert got == v * pr.e
            assert len(pr._pows) <= got + 2


# -- two-generator products and inverses against the n^2-row reference ----


def ref_mul(a, b):
    """Product from all n^2 products of HNF rows."""
    order, p = a.order, a.order.p
    rows = []
    for v in b.h:
        m = order.elem_mul_matrix(v)
        rows += mat_mul(a.h, m, p)
    return Ideal(order, rows, a.den * b.den)


def ref_inv(a):
    """Inverse as the dual of the columns of every row's multiplication
    matrix (n^2 rows)."""
    order = a.order
    p, n = order.p, order.n
    rows = []
    for w in a.h:
        m = order.elem_mul_matrix(w)
        rows += [[m[j][i] for j in range(n)] for i in range(n)]
    g, d = lower_tri_inverse(hnf_square(rows, p), p)
    return Ideal(order, [[g[j][i] * a.den for j in range(n)]
                         for i in range(n)], d)


def fields_with_p7():
    # t^3 + x^3 + x^2: singular at x, so the maximal order is not the
    # equation order
    return small_fields() + [
        make_field(7, 3, [Poly([0, 0, 1, 1], 7), Poly([], 7), Poly([], 7)])]


def random_ideals(o, rng, count):
    """ideal_one and products of prime powers over linear primes, every
    third one divided by a prime over a quadratic (so fractional), all
    built with the reference product."""
    p = o.p
    q2 = next(enumerate_monic_irreducibles(p, 2))
    out = [ideal_one(o)]
    for i in range(count):
        a = ideal_one(o)
        for _ in range(rng.randint(1, 3)):
            q = Poly([rng.randrange(p), 1], p)
            pr = rng.choice(decompose_prime(o, q))
            for _ in range(rng.randint(1, 2)):
                a = ref_mul(a, pr)
        if i % 3 == 2:
            a = ref_mul(a, ref_inv(rng.choice(decompose_prime(o, q2))))
        out.append(a)
    return out


def test_two_generator_product_and_inverse_match_reference():
    rng = random.Random(5)
    for f in fields_with_p7():
        o = maximal_order(f)
        ideals = random_ideals(o, rng, 6)
        assert any(not a.is_integral() for a in ideals)
        for a in ideals:
            assert ideal_inv(a).key() == ref_inv(a).key()
            for b in rng.sample(ideals, 3) + [ideal_one(o)]:
                assert ideal_mul(a, b).key() == ref_mul(a, b).key()
                assert ideal_mul(b, a).key() == ref_mul(a, b).key()


def test_products_and_inverses_modulo_d_match_plain_hnf(monkeypatch):
    # ideal_mul and ideal_inv reduce their stacks modulo a.h[0][0] *
    # b.h[0][0] and a.h[0][0]; ref_mul and ref_inv take the plain HNF of
    # all n^2 rows.  Finite and infinite maximal orders of the small
    # fields: fractional ideals, pairs sharing a prime, and the ramified
    # primes at infinity, where the pair can fall short
    lists = []
    generators = orders._generators

    def spy(a):
        for k, gens in enumerate(generators(a)):
            lists.append(k)
            yield gens

    monkeypatch.setattr(orders, "_generators", spy)
    for f in small_fields():
        p = f.p
        for o in (maximal_order(f), maximal_order(f.infinite_model())):
            primes = decompose_prime(o, x_poly(p)) \
                + decompose_prime(o, Poly([1, 1], p))
            ideals = [ideal_one(o)]
            for pr in primes:
                inv = ref_inv(pr)
                ideals += [pr, ref_mul(pr, pr), inv, ref_mul(inv, primes[0])]
            assert any(not a.is_integral() for a in ideals)
            for a in ideals:
                assert ideal_inv(a).key() == ref_inv(a).key()
                for b in ideals:
                    assert ideal_mul(a, b).key() == ref_mul(a, b).key()
    # some first pair fell short, so the second one was stacked as well
    assert 1 in lists


def test_prime_powers_match_reference():
    for f in fields_with_p7():
        o = maximal_order(f)
        for q in [x_poly(f.p), Poly([1, 1], f.p)]:
            for pr in decompose_prime(o, q):
                pos = neg = ideal_one(o)
                inv = ref_inv(pr)
                for k in range(1, 5):
                    pos, neg = ref_mul(pos, pr), ref_mul(neg, inv)
                    assert pr.power(k).key() == pos.key()
                    assert pr.power(-k).key() == neg.key()


def test_fallback_to_all_rows_when_the_pair_falls_short(monkeypatch):
    # beta = alpha: the pair generates (alpha), a proper subideal of any
    # ideal that is not a polynomial multiple of O
    monkeypatch.setattr(orders, "_beta", lambda h, k, p: h[0])
    sizes = []
    generators = orders._generators

    def spy(a):
        for gens in generators(a):
            sizes.append(len(gens))
            yield gens

    monkeypatch.setattr(orders, "_generators", spy)
    rng = random.Random(9)
    for f in fields_with_p7():
        o = maximal_order(f)
        n = f.n
        pr = next(pr for pr in decompose_prime(o, x_poly(f.p))
                  if pr.f < n)
        for a, b in [(pr, ideal_one(o)),
                     (pr, random_ideals(o, rng, 1)[1])]:
            sizes.clear()
            assert ideal_mul(a, b).key() == ref_mul(a, b).key()
            assert sizes == [2, 2, n]
            sizes.clear()
            assert ideal_inv(a).key() == ref_inv(a).key()
            assert sizes == [2, 2, n]
        # a polynomial multiple of O is generated by its minimum alone
        sizes.clear()
        xo = ideal_mul_elem(ideal_one(o), [e * x_poly(f.p)
                                          for e in o.one_coords])
        assert ideal_mul(xo, pr).key() == ref_mul(xo, pr).key()
        assert sizes == [2]


def test_product_by_element_matches_principal_product():
    rng = random.Random(13)
    for f in fields_with_p7():
        o = maximal_order(f)
        p, n = f.p, f.n
        for b in random_ideals(o, rng, 4):
            c = [Poly([rng.randrange(p) for _ in range(3)], p)
                 for _ in range(n)]
            if all(e.is_zero() for e in c):
                continue
            den = Poly([rng.randrange(p), 1], p)
            got = ideal_mul_elem(b, c, den)
            assert got.key() == ideal_mul(b, principal_ideal(o, c, den)).key()
            assert got.key() == ref_mul(b, principal_ideal(o, c, den)).key()
    with pytest.raises(ZeroDivisionError):
        ideal_mul_elem(ideal_one(o), [Poly.zero(p)] * n)


PERFBENCH_FIELDS = Path(__file__).resolve().parents[1] / "perfbench" / "fields"

# first 32 hex digits of the sha256 of Order.key() for the finite and the
# infinite maximal order, recorded when the radical and the multiplier ring
# were still computed as left kernels
ORDER_DIGESTS = {
    "add-chain-g28": ("55e5144c23914dabb0b61eb05db47acd",
                      "55e5144c23914dabb0b61eb05db47acd"),
    "add-chain-n6": ("28201219de80f3d03c49769cfef73ebf",
                     "21d61e3c8e4074360209230a9c504f51"),
    "reduce-q7-g3": ("55e5144c23914dabb0b61eb05db47acd",
                     "e8c6714bd2f09d9b5cdeb1e0585e31c8"),
    "small0": ("2ce67c62b394cb61083e1838eec26035",
               "2ce67c62b394cb61083e1838eec26035"),
    "small1": ("0169d2ef28ed2971231ea472381efbf7",
               "2ce67c62b394cb61083e1838eec26035"),
    "small2": ("55e5144c23914dabb0b61eb05db47acd",
               "e8c6714bd2f09d9b5cdeb1e0585e31c8"),
    "small3": ("2ce67c62b394cb61083e1838eec26035",
               "2ce67c62b394cb61083e1838eec26035"),
}


def pinned_fields():
    out = [(path.stem, read_field(path)[0])
           for path in sorted(PERFBENCH_FIELDS.glob("*.json"))]
    return out + [("small%d" % i, f) for i, f in enumerate(small_fields())]


def test_maximal_order_keys_pinned():
    fields = pinned_fields()
    assert sorted(name for name, _ in fields) == sorted(ORDER_DIGESTS)
    for name, f in fields:
        got = tuple(hashlib.sha256(o.key()).hexdigest()[:32]
                    for o in (f.finite_order(), f.infinite_order()))
        assert got == ORDER_DIGESTS[name], name


def equation_order(field):
    """K[x][t]/(f), the order that maximal_order starts from."""
    return orders.Order(field, scalar_rows(Poly.one(field.p), field.n),
                        Poly.one(field.p))


def test_round_two_radicals_and_enlargements():
    """maximal_order's loop, checked at every prime where it enlarges: the
    radical contains q * O and its rows are nilpotent mod q, and each
    enlarged order contains the one before and has a multiplication
    table."""
    seen = []
    for name, f in pinned_fields():
        for model in (f, f.infinite_model()):
            p, n = model.p, model.n
            order = equation_order(model)
            for q, mult in poly_factor(discriminant_support(model))[1]:
                if mult < 2 or (q.deg == 1
                                and _dedekind_q_maximal(model, q)):
                    continue
                seen.append(name)
                rad = _radical_ideal(order, q)
                assert any(rad.h[j][j].deg > 0 for j in range(n))
                for row in scalar_rows(q, n):
                    assert contains(rad, row)
                Q = p ** q.deg
                while Q < n:
                    Q *= p ** q.deg
                table = [[orders._vec_mod(c, q) for c in row]
                         for row in order.table()]
                for row in rad.h:
                    power = _pow_coords_mod(order, row, Q, q, table)
                    assert all(e.is_zero() for e in power), (name, q)
                bigger = _maximalize_at(order, q)
                # row / order.den in bigger: row * bigger.den lies in the
                # span of bigger.basis * order.den
                span = [[e * order.den for e in row] for row in bigger.basis]
                for row in order.basis:
                    num = [e * bigger.den for e in row]
                    assert in_lattice(num, span, p) is not None, (name, q)
                bigger.table()
                order = bigger
            assert order.key() == maximal_order(model).key()
    assert "add-chain-n6" in seen and "small1" in seen


def test_dedekind_shortcut_keeps_the_maximal_order(monkeypatch):
    # without the shortcut, round two runs at every q whose square
    # divides the discriminant and must reach the same order
    fields = pinned_fields()
    want = [(maximal_order(f).key(), maximal_order(f.infinite_model()).key())
            for _, f in fields]
    criterion = orders._dedekind_q_maximal
    verdicts = []

    def never(f, q):
        verdicts.append(criterion(f, q))
        return False

    monkeypatch.setattr(orders, "_dedekind_q_maximal", never)
    got = [(maximal_order(f).key(), maximal_order(f.infinite_model()).key())
           for _, f in fields]
    assert got == want
    # some prime passed the criterion and went through round two instead
    assert True in verdicts


def nonlinear_primes(p):
    """The first three monic irreducible quadratics over F_p (the only
    one for p = 2), and for p < 10 the first two cubics."""
    qs = list(itertools.islice(enumerate_monic_irreducibles(p, 2), 3))
    if p < 10:
        qs += list(itertools.islice(enumerate_monic_irreducibles(p, 3), 2))
    return qs


# first 32 hex digits of the sha256 of (key, e, f) of every prime above
# nonlinear_primes(p) in the finite, then the infinite maximal order,
# recorded when these primes were split by Kummer's theorem over F_p[x]/(q)
DECOMPOSITION_DIGESTS = {
    "add-chain-g28": "2830ede3cdea99ad16ef4ee0dd15de61",
    "add-chain-n6": "4f80218f57051b4b157a27766c41ae96",
    "reduce-q7-g3": "0b8c3d0eea5e5cbe68cdb06827d87702",
    "p7_0": "a3f790890c82a4ef657d3a014b8a0efb",
    "p7_1": "184378608849ebf1d82d52349a4c96e9",
    "p7_2": "58bb7b69251f565b1a336c88e1d86a99",
    "p7_3": "df74099dcd7e496405e387bcbd9c194e",
    "p7_4": "343067f1e30a261e83adf1d579e3379c",
}


def test_nonlinear_decompositions_pinned():
    fields = [(path.stem, read_field(path)[0])
              for path in sorted(PERFBENCH_FIELDS.glob("*.json"))]
    fields += [("p7_%d" % i, f) for i, f in enumerate(fields_with_p7())]
    assert sorted(name for name, _ in fields) == sorted(DECOMPOSITION_DIGESTS)
    for name, f in fields:
        digest = hashlib.sha256()
        for o in (f.finite_order(), f.infinite_order()):
            for q in nonlinear_primes(f.p):
                primes = decompose_prime(o, q)
                prod = ideal_one(o)
                for pr in primes:
                    digest.update(pr.key() + b"|%d,%d;" % (pr.e, pr.f))
                    prod = ideal_mul(prod, pr.power(pr.e))
                assert prod == Ideal(o, scalar_rows(q, o.n)), (name, q)
        assert digest.hexdigest()[:32] == DECOMPOSITION_DIGESTS[name], name


def repeated_quadratic_prime_fields():
    """q = x^2 + 2 over F_5, and t^2 - x q^2 and t^3 - q."""
    p = 5
    q = Poly([2, 0, 1], p)
    return q, [make_field(p, 2, [-(x_poly(p) * q * q), Poly([], p)]),
               make_field(p, 3, [-q, Poly([], p), Poly([], p)])]


def test_repeated_quadratic_prime_goes_through_round_two():
    # q = x^2 + 2 is irreducible over F_5 and q^2 divides both
    # discriminants: t^2 - x q^2 is not maximal at q (t / q is integral),
    # t^3 - q is Eisenstein at q.  The Dedekind criterion is not taken at
    # q, so round two alone decides.  Digests: first 32 hex digits of the
    # sha256 of Order.key() followed by (key, e, f) of the primes above q,
    # recorded when the criterion and Kummer's theorem ran over
    # F_5[x]/(q)
    q, fields = repeated_quadratic_prime_fields()
    cases = zip(fields, [q, Poly.one(q.p)], [[(1, 2)], [(3, 1)]],
                ["93b2ab5bdea34c17f00f8727e6c1caf5",
                 "eddd4d58e59f8127f78c9ec7de87d225"])
    for f, index, shape, want in cases:
        o = maximal_order(f)
        assert o.index_poly() == index
        primes = decompose_prime(o, q)
        assert [(pr.e, pr.f) for pr in primes] == shape
        digest = hashlib.sha256(o.key())
        for pr in primes:
            digest.update(pr.key() + b"|%d,%d;" % (pr.e, pr.f))
        assert digest.hexdigest()[:32] == want


def test_split_of_four_primes_that_share_minimal_polynomials():
    # t^4 + t + x^3 + x^2 + x over F_2 at q = x^2 + x + 1: x^3 + x^2 + x
    # is x * q, and t^4 + t = t (t + 1) (t^2 + t + 1) has the four
    # elements of F_4 = F_2[x] / (q) as roots, so O / qO is F_4^4.  The
    # components of an element of O / qO have at most three minimal
    # polynomials over F_2 (w and w^2 share one), so no single z
    # separates the four primes and the split must go on from a sum
    # a + g(z) * O.  Digest as in test_nonlinear_decompositions_pinned,
    # over the finite order, then the infinite order
    p = 2
    f = make_field(p, 4, [Poly([0, 1, 1, 1], p), Poly([1], p),
                          Poly([], p), Poly([], p)])
    q = Poly([1, 1, 1], p)
    digest = hashlib.sha256()
    for o in (f.finite_order(), f.infinite_order()):
        primes = decompose_prime(o, q)
        assert [(pr.e, pr.f) for pr in primes] == [(1, 1)] * 4
        prod = ideal_one(o)
        for pr in primes:
            digest.update(pr.key() + b"|%d,%d;" % (pr.e, pr.f))
            prod = ideal_mul(prod, pr.power(pr.e))
        assert prod == Ideal(o, scalar_rows(q, o.n))
    assert digest.hexdigest()[:32] == "60fa8361d8d6365aef8d3ff072f991b6"


def test_unramified_nonlinear_primes_skip_the_radical(monkeypatch):
    # no prime of nonlinear_primes divides the discriminant of its field
    # or of the infinite model, so every decomposition of the pinned test
    # goes through the radical split with rad(qO) = qO, and the pinned
    # digests hold with the radical barred during decomposition
    radical = orders._radical_ideal
    split = orders._decompose_radical_split
    decompose = orders.decompose_prime
    splits = []

    def refuse(order, q):
        raise AssertionError("radical taken at an unramified prime")

    def counted_split(order, q):
        splits.append(q)
        return split(order, q)

    def decompose_without_radical(order, q):
        assert not q.divides(order.field.discriminant())
        monkeypatch.setattr(orders, "_radical_ideal", refuse)
        try:
            return decompose(order, q)
        finally:
            monkeypatch.setattr(orders, "_radical_ideal", radical)

    monkeypatch.setattr(orders, "_decompose_radical_split", counted_split)
    monkeypatch.setitem(globals(), "decompose_prime",
                        decompose_without_radical)
    test_nonlinear_decompositions_pinned()
    assert splits


def test_dual_makes_no_euclid_step(monkeypatch):
    # _dual's lower-triangular rows meet one entry per column of the HNF,
    # so no gcd chain runs inside it: inverses, radicals and multiplier
    # rings of the finite and infinite maximal orders
    fold, dual = polymat._fold, orders._dual
    inside = []
    folds = []
    callers = set()

    def counted_fold(*args):
        if inside:
            folds.append(args[3])
        return fold(*args)

    def watched_dual(order, hs, num):
        callers.add(sys._getframe(1).f_code.co_name)
        inside.append(True)
        try:
            return dual(order, hs, num)
        finally:
            inside.pop()

    monkeypatch.setattr(polymat, "_fold", counted_fold)
    monkeypatch.setattr(orders, "_dual", watched_dual)
    rng = random.Random(17)
    for f in fields_with_p7():
        for model in (f, f.infinite_model()):
            o = maximal_order(model)
            for q, _ in poly_factor(discriminant_support(model))[1]:
                _maximalize_at(o, q)
            for a in random_ideals(o, rng, 3):
                ideal_inv(a)
            for pr in decompose_prime(o, x_poly(f.p)):
                ideal_inv(pr)
    assert callers == {"ideal_inv", "_radical_ideal", "_maximalize_at"}
    assert folds == []


def test_setup_colon_ideals_match_second_hnf_dual(monkeypatch):
    # every radical and multiplier ring that round two builds at a prime
    # of degree at most 3 of the discriminant (higher ones cost seconds
    # of Frobenius powers), on the pinned fields and the repeated
    # quadratic ones, against the dual of the plain HNF of the same
    # conditions: the reversed HNF's rows with their columns put back
    fields = [f for _, f in pinned_fields()]
    fields += repeated_quadratic_prime_fields()[1]
    dual = orders._dual
    checked = []

    def compared_dual(order, hs, num):
        out = dual(order, hs, num)
        want = dual_by_second_hnf(order, [row[::-1] for row in hs], num)
        assert out.key() == want.key()
        checked.append(sys._getframe(1).f_code.co_name)
        return out

    monkeypatch.setattr(orders, "_dual", compared_dual)
    for f in fields:
        for model in (f, f.infinite_model()):
            for q, _ in poly_factor(discriminant_support(model))[1]:
                if q.deg <= 3:
                    _maximalize_at(equation_order(model), q)
    assert set(checked) == {"_radical_ideal", "_maximalize_at"}
