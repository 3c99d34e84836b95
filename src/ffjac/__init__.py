"""Unique-representative Jacobian arithmetic in global function fields."""

from .divisors import (Divisor, Place, finite_places_above, infinite_places,
                       principal_divisor)
from .field import FFElem, FunctionField, make_field
from .fieldgen import (GenerationError, expected_structured_genus,
                       field_metadata, gen_random, gen_structured, read_field,
                       write_field)
from .jacobian import JacElem, JacobianCtx, random_class
from .oracles import brute_hr_min, count_degree_one_places, jacobian_order
from .polys import Poly
from .riemann_roch import rr_basis, rr_dim

__version__ = "0.1.0"

__all__ = [
    "Divisor", "FFElem", "FunctionField", "GenerationError", "JacElem",
    "JacobianCtx", "Place", "Poly", "brute_hr_min",
    "count_degree_one_places", "expected_structured_genus", "field_metadata",
    "finite_places_above", "gen_random", "gen_structured", "infinite_places",
    "jacobian_order", "make_field", "principal_divisor", "random_class",
    "read_field", "rr_basis", "rr_dim", "write_field", "__version__",
]
