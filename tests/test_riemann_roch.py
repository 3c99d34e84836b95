import json
import random
from pathlib import Path

import pytest

from ffjac import riemann_roch
from ffjac.field import FunctionField, make_field
from ffjac.fieldgen import gen_random, gen_structured
from ffjac.polys import Poly
from ffjac.divisors import (Divisor, infinite_places, finite_places_above,
                            principal_divisor)
from ffjac.orders import ideal_inv
from helpers import find_finite_degree_one_place, genus_by_riemann_roch
from ffjac.riemann_roch import (_inf_profile, finite_basis, rr_basis, rr_dim,
                                ssrr_reduce, inf_inverse_ideal)

BENCH_FIELDS = Path(__file__).resolve().parents[1] / "perfbench" / "fields"


def elliptic5():
    # y^2 = x^3 + x, genus 1, single infinite place of degree 1
    return make_field(5, 2, [Poly([0, -1, 0, -1], 5), Poly([], 5)])


def hyper7():
    # y^2 = x^5 + 1, genus 2
    return make_field(7, 2, [Poly([-1, 0, 0, 0, 0, -1], 7), Poly([], 7)])


def test_pole_order_dims_elliptic():
    field = elliptic5()
    P = infinite_places(field)[0]
    dims = [rr_dim(field, Divisor.from_place(P, k)) for k in range(7)]
    assert dims == [1, 1, 2, 3, 4, 5, 6]


def test_pole_order_dims_genus_two():
    field = hyper7()
    P = infinite_places(field)[0]
    dims = [rr_dim(field, Divisor.from_place(P, k)) for k in range(8)]
    # gap sequence 1, 3 at the ramified place over x = infinity
    assert dims == [1, 1, 2, 2, 3, 4, 5, 6]


def nodal5():
    # y^2 = x^3 + x^2, a rational curve
    return make_field(5, 2, [Poly([0, 0, -1, -1], 5), Poly([], 5)])


def char2():
    # y^2 + y = x^3 over F_2
    return make_field(2, 2, [Poly([0, 0, 0, 1], 2), Poly([1], 2)])


def cubic5():
    # degree pattern (5, <=3, 2) in t^3 + a2 t^2 + a1 t + a0 forces genus 4
    return make_field(5, 3, [Poly([1, 4, 3, 4, 1, 1], 5),
                             Poly([4, 4, 1], 5), Poly([3, 4, 4], 5)])


def test_genus_values():
    assert elliptic5().genus() == 1
    assert hyper7().genus() == 2
    assert nodal5().genus() == 0
    assert char2().genus() == 1


def test_genus_cubic_model():
    field = cubic5()
    assert len(infinite_places(field)) == 2
    assert field.genus() == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_genus_matches_riemann_roch_on_random_grid(p):
    for n in (2, 3, 4):
        for s in range(3):
            field = gen_random(p, n, 2, seed=s)
            assert field.genus() == genus_by_riemann_roch(field), (n, s)


def test_genus_matches_riemann_roch_on_named_fields():
    fields = [FunctionField.from_dict(json.loads(path.read_text()))
              for path in sorted(BENCH_FIELDS.glob("*.json"))]
    assert len(fields) == 3
    fields += [elliptic5(), hyper7(), nodal5(), char2(), cubic5()]
    fields += [gen_structured(32771, 2, 3, seed="acc:g2", exact_genus=True),
               gen_structured(32771, 3, 2, seed="acc:g4", exact_genus=True),
               gen_structured(32771, 3, 3, seed="acc:g7", exact_genus=True),
               gen_structured(32771, 2, 11, seed="acc:g10",
                              exact_genus=True),
               gen_random(32771, 4, 3, seed="acc:g15", genus=15)]
    with pytest.warns(UserWarning, match="genus 3"):
        # below its family's genus 4
        fields.append(gen_structured(5, 3, 2, seed="acc:q5"))
    for field in fields:
        assert field.genus() == genus_by_riemann_roch(field), field


def test_field_check_and_genus_share_one_reduction(monkeypatch):
    stored = cubic5().to_dict()
    calls = []
    reduce = riemann_roch.row_reduce

    def counting(*args, **kwargs):
        calls.append(1)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(riemann_roch, "row_reduce", counting)
    field = FunctionField.from_dict(stored)
    assert field.genus() == 4
    assert len(calls) == 1


def test_riemann_equality_on_mixed_grid():
    field = elliptic5()
    g = 1
    P = infinite_places(field)[0]
    Q = find_finite_degree_one_place(field)
    R = finite_places_above(field, Poly([-1, 1], 5))[0]
    assert R.degree() == 2
    for a in range(-1, 4):
        for b in range(-1, 3):
            for c in range(-1, 2):
                D = (Divisor.from_place(P, a) + Divisor.from_place(Q, b)
                     + Divisor.from_place(R, c))
                d = D.degree()
                l = rr_dim(field, D)
                if d < 0:
                    assert l == 0
                elif d >= 2 * g - 1:
                    assert l == d + 1 - g


def test_basis_elements_lie_in_the_space():
    field = elliptic5()
    P = infinite_places(field)[0]
    Q = find_finite_degree_one_place(field)
    for D in (Divisor.from_place(P, 4), Divisor.from_place(Q, 5),
              Divisor.from_place(P, 2) + Divisor.from_place(Q, 2)):
        dim, basis = rr_basis(field, D)
        assert dim == len(basis) == D.degree()
        for a in basis:
            assert (principal_divisor(field, a) + D).is_effective()


def test_shortcut_search_agrees_with_dimension():
    field = elliptic5()
    P = infinite_places(field)[0]
    Q = find_finite_degree_one_place(field)
    # one profile per infinite part, reused across finite parts as the
    # context's profile memo does
    profiles = {}
    warm_starts = 0
    for b in range(-2, 2):
        # the search over a starts from the basis the previous one left
        basis = None
        for a in range(-2, 4):
            D = Divisor.from_place(P, a) + Divisor.from_place(Q, b)
            iinv = ideal_inv(D.fin)
            jinv = inf_inverse_ideal(field, D.inf_vec)
            prof = profiles.setdefault(jinv.key(), _inf_profile(field, jinv))
            cold = finite_basis(field, iinv)
            el, reduced, _ = ssrr_reduce(field, cold, prof)
            again, _, _ = ssrr_reduce(field, cold, _inf_profile(field, jinv))
            dim = rr_dim(field, D)
            if dim == 0:
                assert el is None and again is None
            else:
                assert el is not None
                assert el.num == again.num and el.den == again.den
                assert (principal_divisor(field, el) + D).is_effective()
            assert reduced[1] == cold[1]
            if basis is not None:
                # reduced against a different divisor's profile, same iinv
                warm, _, _ = ssrr_reduce(field, basis, prof)
                assert (warm is None) == (dim == 0)
                if warm is not None:
                    assert (principal_divisor(field, warm) + D).is_effective()
                if dim == 1:
                    assert warm.num == el.num and warm.den == el.den
                    warm_starts += 1
            basis = reduced
    assert len(profiles) == 6
    assert warm_starts > 0


def test_dimension_monotone_under_growth():
    rng = random.Random(3)
    field = hyper7()
    P = infinite_places(field)[0]
    Q = find_finite_degree_one_place(field)
    prev = 0
    D = Divisor.zero(field)
    for _ in range(6):
        D = D + Divisor.from_place(P if rng.random() < 0.5 else Q, 1)
        cur = rr_dim(field, D)
        assert cur >= prev
        prev = cur
