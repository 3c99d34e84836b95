"""Function spaces L(D) via reduction of mixed lattice bases.

A function a lies in L(D) when it belongs to the inverse of the finite
part of D as a module over K[x] and satisfies the degree conditions at
the infinite places.  Writing a = c * R for the rows R of the finite
module, the infinite conditions become pure degree bounds on c * T for a
polynomial matrix T assembled from the two integral bases: no pole at
u = 0 of the infinite coordinates is a numerator-versus-denominator
degree comparison, and common polynomial factors cannot disturb it.  Row
reduction of T with a companion matrix then yields dimension and basis.

The finite rows R enter only through c * R, so any basis of the same
K[x]-module serves.  The companion U * R of a reduction, U unimodular, is
such a basis, and it is already close to reduced against a neighbouring
infinite profile: ssrr_reduce returns it so that a search over the
shifts D + m*A of one reduction can start each query where the last one
stopped (Hess, JSC 33, 2002: one reduced finite basis describes
L(D + m*A) for every m).  Whether the space is zero does not depend on
the start, and where it has dimension one neither does the normalized
function found; the reduction in jacobian reads a function only there.
The reduced pair of D = 0 from FunctionField's constant-field check so
describes every L(m * (x)_oo), and the genus is read off its row degrees.
"""

from .divisors import Divisor, infinite_places
from .field import FFElem
from .orders import Ideal, ideal_inv, ideal_mul, ideal_one
from .polymat import (_pack, _unpack, _vm, lower_tri_inverse, mat_mul,
                      row_reduce)
from .polys import _inv_mod


def inf_inverse_ideal(field, vec) -> Ideal:
    """Ideal of the infinite order with valuation -vec[i] at place i."""
    oi = field.infinite_order()
    out = ideal_one(oi)
    for v, pl in zip(vec, infinite_places(field)):
        if v:
            out = ideal_mul(out, pl.prime.power(-v))
    return out


def _inf_profile(field, jinv: Ideal):
    """Degree data of the infinite module with inverse lattice jinv.

    Returns (vmat, tau_inf): a polynomial matrix, with packed entries
    (see polymat), and the part of the degree bound that does not depend
    on the finite module.
    """
    p = field.p
    e = field.cf
    oi = field.infinite_order()
    binv, bdet = oi.tri_inverse()
    hjinv, hjdet = lower_tri_inverse(jinv.h, p)
    g = mat_mul(binv, hjinv, p)
    rho = bdet * hjdet
    den_w = jinv.den * oi.den
    dg = max(x.deg for row in g for x in row if not x.is_zero())
    dw = den_w.deg
    rhat = den_w.reverse(dw)
    vmat = [[0 if x.is_zero() else _pack((x.reverse(dg) * rhat).shift(e * mi))
             for x in row] for mi, row in enumerate(g)]
    s0 = rho.deg - dg - dw
    tau_inf = rho.reverse(rho.deg).deg - s0
    return vmat, tau_inf


def finite_basis(field, iinv: Ideal):
    """(rows, den): the finite module of iinv as rows over the power basis
    with their common denominator, the cold start of every search on it."""
    o = field.finite_order()
    return mat_mul(iinv.h, o.basis, field.p), iinv.den * o.den


def _reduced_pair(field, divisor: Divisor):
    """(degs, comp, tau, den): the fully reduced lattice pair of L(D),
    whose row j gives x^k * comp[j] / den for 0 <= k <= tau - degs[j]."""
    rows, den_u = finite_basis(field, ideal_inv(divisor.fin))
    vmat, tau_inf = _inf_profile(field,
                                 inf_inverse_ideal(field, divisor.inf_vec))
    degs, comp, _, _ = row_reduce(mat_mul(rows, vmat, field.p), rows,
                                  field.p)
    return degs, comp, tau_inf + den_u.deg, den_u


def rr_basis(field, divisor: Divisor):
    """(dim L(D), basis as field elements)."""
    degs, comp, tau, den_u = _reduced_pair(field, divisor)
    basis = [FFElem(field, [c.shift(k) for c in comp[j]], den_u)
             for j, d in enumerate(degs) for k in range(tau - d + 1)]
    return len(basis), basis


def rr_dim(field, divisor: Divisor) -> int:
    return rr_basis(field, divisor)[0]


def ssrr_reduce(field, basis, profile):
    """Shortcut search for one nonzero function of the lattice pair.

    basis is (rows, den), any basis of the finite module (finite_basis or
    a basis this function returned for the same module); profile is the
    _inf_profile of the infinite module. Stops the reduction at the first
    row meeting the degree bound. Returns (element, reduced basis, steps):
    the matching element with a deterministic normalization, or None when
    the space is zero; the basis as reduced so far, which spans the same
    finite module and is the warm start of the next search on it, kept
    packed (see polymat); and the number of steps row_reduce made, each
    one simple transformation.
    """
    rows, den_u = basis
    vmat, tau_inf = profile
    p = field.p
    rows = [[_pack(e) for e in row] for row in rows]
    _, comp, hit, steps = row_reduce([_vm(row, vmat, p) for row in rows],
                                     rows, p, tau_inf + den_u.deg)
    basis = (comp, den_u)
    if hit is None:
        return None, basis, steps
    num = _unpack(comp[hit], p)
    for c in num:
        if not c.is_zero():
            sc = _inv_mod(c.lc, p)
            if sc != 1:
                num = [e.scale(sc) for e in num]
            break
    return FFElem(field, num, den_u), basis, steps


def l0_dim_and_genus(field):
    """(dim L(0), g) from the reduced pair of D = 0, with row degrees d_j
    and bound tau: g = 1 + sum_j (d_j - tau - 1).  For D = m * (x)_oo the
    infinite ideal is u^(-m) * O_oo, so _inf_profile gives the same matrix
    and tau + m, and the finite rows, hence the d_j, stay those of D = 0.
    For large m every term of l(D) = sum_j max(0, tau + m - d_j + 1) is
    positive, and Riemann-Roch with deg (x)_oo = n makes it n*m + 1 - g.
    """
    degs, _, tau, _ = _reduced_pair(field, Divisor.zero(field))
    dim = sum(max(0, tau - d + 1) for d in degs)
    return dim, 1 + sum(d - tau - 1 for d in degs)
