"""Independent checks of the benchmark's outputs.

Each check returns a list of failure messages, empty when the output
passes.  They use the slow reference paths (full ``rr_basis`` spaces,
``brute_hr_min``, ``jacobian_order``) or a group identity, never the
shortcut search that produced the output, and they run outside the
timed loop.
"""

import math

from ffjac import Divisor, brute_hr_min, principal_divisor, rr_basis


def _dim(field, div):
    return rr_basis(field, div)[0]


def check_reduced(ctx, x):
    """x is the unique reduced representative of its class: 0 <= r <= g,
    the divisor D~ is effective of degree r with A outside its support,
    l(D~ - A) = 0 and l(D~) = 1."""
    out = []
    if not 0 <= x.r <= ctx.g:
        out.append("reduced: r=%d outside 0..g=%d" % (x.r, ctx.g))
    d = x.reduced_divisor()
    if not d.is_effective():
        out.append("reduced: D~ not effective")
    if d.degree() != x.r:
        out.append("reduced: deg D~=%d but r=%d" % (d.degree(), x.r))
    if x.vec[ctx.a_index] != 0:
        out.append("reduced: A in the support of D~")
    if _dim(ctx.field, d - Divisor.from_place(ctx.A)) != 0:
        out.append("reduced: l(D~ - A) != 0")
    if _dim(ctx.field, d) != 1:
        out.append("reduced: l(D~) != 1")
    return out


def check_chain_step(ctx, prev, cur, nxt):
    """In a chain d[k+1] = d[k-1] + d[k], d[k+1] - d[k] is d[k-1].
    Representatives are unique, so this is structural equality."""
    if ctx.add(nxt, ctx.neg(cur)) != prev:
        return ["chain: d[k+1] - d[k] != d[k-1]"]
    return []


def check_genus(field, g, div, family_genus=None):
    """Riemann-Roch, l(D) = deg D + 1 - g, on a divisor of degree at
    least 2g - 1; for a structured field also the family genus."""
    out = []
    deg = div.degree()
    if deg < 2 * g - 1:
        out.append("genus: divisor degree %d below 2g-1" % deg)
    else:
        dim = _dim(field, div)
        if dim != deg + 1 - g:
            out.append("genus: l(D)=%d, deg D + 1 - g=%d"
                       % (dim, deg + 1 - g))
    if family_genus is not None and g != family_genus:
        out.append("genus: g=%d, family formula gives %d" % (g, family_genus))
    return out


def check_brute(ctx, div, x):
    """The shift r of reduce(div) equals the exhaustive scan's."""
    r, _ = brute_hr_min(ctx, div)
    if r != x.r:
        return ["brute: r=%d, brute_hr_min gives %d" % (x.r, r)]
    return []


def check_class_invariance(ctx, div, x, h):
    """Adding the divisor of a function h leaves the reduction unchanged."""
    if ctx.reduce_divisor(div + principal_divisor(ctx.field, h)) != x:
        return ["class: reduce(D + div(h)) != reduce(D)"]
    return []


def check_class_number(ctx, h, xs):
    """Hasse-Weil bounds (sqrt(q) - 1)^2g <= h <= (sqrt(q) + 1)^2g and
    h * x = 0 for every x in xs."""
    out = []
    root = math.sqrt(ctx.field.p)
    lo, hi = (root - 1) ** (2 * ctx.g), (root + 1) ** (2 * ctx.g)
    if not lo <= h <= hi:
        out.append("class number: h=%d outside Hasse-Weil [%.1f, %.1f]"
                   % (h, lo, hi))
    zero = ctx.zero()
    for x in xs:
        if ctx.scalar_mul(h, x) != zero:
            out.append("class number: h * x != 0")
            break
    return out
