"""Random generation of function fields for tests and benchmarks.

Two flavors: a structured family with fixed degree pattern whose genus
is predictable, and fully random coefficients under a twist-degree cap
with rejection until a target genus comes out.
"""

import json
import random
import warnings

from .divisors import infinite_places
from .field import FunctionField, make_field
from .polys import Poly


class GenerationError(RuntimeError):
    pass


def _rng(tag, seed):
    return random.Random("%s|%s" % (tag, seed))


def _poly_exact(rng, p, deg):
    # monic of exactly the given degree
    return Poly([rng.randrange(p) for _ in range(deg)] + [1], p)


def _poly_below(rng, p, bound):
    # every coefficient random, degree < bound
    return Poly([rng.randrange(p) for _ in range(max(bound, 0))], p)


def expected_structured_genus(p: int, n: int, cf: int) -> int:
    return (cf * n - 2) * (n - 1) // 2


def gen_structured(p: int, n: int, cf: int, seed=0, tries: int = 400,
                   exact_genus: bool = False) -> FunctionField:
    """Field with deg a_{n-1} = cf, deg a_i < (n-i)cf, deg a_0 = n*cf - 1.

    That degree pattern forces twist degree cf, two degree-one infinite
    places, and generically genus (cf*n - 2)(n - 1)/2.  Retries with
    fresh coefficients until FunctionField accepts the polynomial
    (separable, irreducible, constant field F_p) and the infinite places
    come out right.  A genus below the prediction (possible over tiny
    constant fields) is warned about, or rejected when exact_genus is
    set.
    """
    if n < 2 or cf < 1:
        raise ValueError("need n >= 2 and cf >= 1")
    rng = _rng("structured-%d-%d-%d" % (p, n, cf), seed)
    want = expected_structured_genus(p, n, cf)
    for _ in range(tries):
        coeffs = [_poly_exact(rng, p, n * cf - 1)]
        coeffs += [_poly_below(rng, p, (n - i) * cf) for i in range(1, n - 1)]
        coeffs.append(_poly_exact(rng, p, cf))
        try:
            F = make_field(p, n, coeffs)
            ips = infinite_places(F)
        except (ValueError, ArithmeticError):
            continue
        if len(ips) != 2 or any(pl.degree() != 1 for pl in ips):
            continue
        if F.cf != cf:
            continue
        g = F.genus()
        if g != want:
            if exact_genus:
                continue
            warnings.warn(
                "structured field has genus %d, degree pattern predicts %d"
                % (g, want))
        return F
    raise GenerationError(
        "no structured field after %d tries (p=%d n=%d cf=%d seed=%r)"
        % (tries, p, n, cf, seed))


def gen_random(p: int, n: int, cf_max: int, seed=0, genus=None,
               tries: int = 4000) -> FunctionField:
    """Random monic model with twist degree at most cf_max.

    Rejects candidates that FunctionField rejects (inseparable,
    reducible, or with constant field larger than F_p), that lack a
    degree-one infinite place, or (when genus is given) that do not hit
    that exact genus.
    """
    if n < 2 or cf_max < 1:
        raise ValueError("need n >= 2 and cf_max >= 1")
    rng = _rng("random-%d-%d-%d-%s" % (p, n, cf_max, genus), seed)
    for _ in range(tries):
        coeffs = []
        for i in range(n):
            bound = (n - i) * cf_max + 1
            coeffs.append(_poly_below(rng, p, rng.randrange(1, bound + 1)))
        try:
            F = make_field(p, n, coeffs)
            ips = infinite_places(F)
        except (ValueError, ArithmeticError):
            continue
        if not any(pl.degree() == 1 for pl in ips):
            continue
        if genus is not None and F.genus() != genus:
            continue
        return F
    raise GenerationError(
        "no random field after %d tries (p=%d n=%d cf_max=%d genus=%r "
        "seed=%r)" % (tries, p, n, cf_max, genus, seed))


def field_metadata(field: FunctionField, seed=None) -> dict:
    meta = {
        "p": field.p,
        "n": field.n,
        "cf": field.cf,
        "t": len(infinite_places(field)),
        "genus": field.genus(),
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def write_field(path, field: FunctionField, meta=None):
    d = field.to_dict()
    d["meta"] = dict(meta) if meta else field_metadata(field)
    with open(path, "w") as fh:
        json.dump(d, fh)
        fh.write("\n")


def read_field(path):
    """Load a field file; returns (field, metadata dict)."""
    with open(path) as fh:
        d = json.load(fh)
    return FunctionField.from_dict(d), d.get("meta", {})
