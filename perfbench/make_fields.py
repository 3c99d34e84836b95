"""Regenerate the benchmark's stored fields in perfbench/fields/.

    python3 perfbench/make_fields.py

Each file holds the defining coefficients (the ``FunctionField.to_dict``
shape) and a ``meta`` block with the generator call that made it.  The
benchmark reads these files instead of generating fields per run: the
degree-6 field takes about a minute of genus-targeted rejection
sampling, and a field fixed per workload keeps the seed to what it
should vary, the chain start and the divisors.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ffjac import field_metadata, gen_random, gen_structured, write_field  # noqa: E402

FIELDS = {
    "add-chain-g28": (gen_structured,
                      dict(p=32771, n=3, cf=10, seed=0, exact_genus=True)),
    "add-chain-n6": (gen_random,
                     dict(p=32771, n=6, cf_max=2, seed=0, genus=11)),
    "reduce-q7-g3": (gen_random, dict(p=7, n=3, cf_max=2, seed=0, genus=3)),
}


def main():
    for name, (gen, kwargs) in FIELDS.items():
        field = gen(**kwargs)
        meta = field_metadata(field)
        meta["generator"] = gen.__name__
        meta["args"] = kwargs
        path = HERE / "fields" / (name + ".json")
        write_field(path, field, meta)
        print(path, meta)


if __name__ == "__main__":
    main()
