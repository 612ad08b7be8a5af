"""Golden fixtures shipped with the package.

``crabb_davie.json`` holds the dim-8 commuting contraction triple and
the cubic polynomial p = z1 z2 z3 - z1^3 - z2^3 - z3^3, whose operator
norm on the triple is 4, beating the torus supremum (about 3.61).

Basis: e; f1, f2, f3; g1, g2, g3; h.  Operator i maps e -> f_i,
f_i -> -g_i, f_j -> g_k ({i,j,k} = {1,2,3}), g_i -> h, everything else
to 0.  Each operator is a contraction (a signed partial shift between
orthogonal layers) and the triple commutes exactly.  The file is
regenerated and independently re-derived by
``scripts/crabb_davie_oracle.py``.
"""

from __future__ import annotations

import json
from importlib import resources

from ..dilation import MultiPolynomial
from ..interpolation import ContractionTuple

__all__ = ["load_crabb_davie"]


def load_crabb_davie() -> tuple[ContractionTuple, MultiPolynomial]:
    with resources.files(__package__).joinpath("crabb_davie.json").open() as handle:
        obj = json.load(handle)
    tup = ContractionTuple.from_json(obj["tuple"], tol=1e-12)
    poly = MultiPolynomial.from_json(obj["polynomial"])
    return tup, poly
