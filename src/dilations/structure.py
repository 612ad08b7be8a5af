"""Operator class predicates and preservation suites.

Positivity here is entrywise in the canonical coordinate basis, the
finite stand-in for almost-everywhere positivity of functions; the
"unity" vector is the all-ones vector.  A bi-Markov operator is
entrywise nonnegative and fixes unity under both itself and its
adjoint (a doubly stochastic matrix, complex-entry variant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    _check_time,
    eval_discretized,
)
from .linalg import (
    DEFAULT_TOL,
    InputError,
    _unitarity_deviations,
    as_matrix,
    dagger,
    op_norm,
)
from .torus import GridTime

__all__ = ["StructureReport", "structure_report", "preservation_suite"]

# The operator classes a preservation suite tracks, each with the flags
# an operator needs to be in it.
_CLASSES = {
    "isometry": ("is_isometry",),
    "unitary": ("is_unitary",),
    "entrywise_nonneg": ("is_entrywise_nonneg",),
    "bimarkov": ("is_entrywise_nonneg", "preserves_unity", "adjoint_preserves_unity"),
}


@dataclass(frozen=True)
class StructureReport:
    flags: dict
    deviations: dict

    def holds(self, cls: str) -> bool:
        """Whether the operator is in class ``cls`` of ``_CLASSES``."""
        return all(self.flags[flag] for flag in _CLASSES[cls])

    def to_json(self) -> dict:
        return {"flags": dict(self.flags), "deviations": dict(self.deviations)}


def structure_report(a, tol: float = DEFAULT_TOL) -> StructureReport:
    """Measure operator class membership of a square matrix at tolerance tol.

    Each flag is its deviation <= tol, except ``is_contraction``, which is
    ||A|| <= 1 + tol as in ``ContractionTuple``: ``max(0, ||A|| - 1) <= tol``
    rounds differently near the boundary.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("structure report requires a square matrix")
    ones = np.ones(a.shape[0], dtype=np.complex128)

    norm = op_norm(a)
    isometry_dev, counitary_dev = _unitarity_deviations(a)
    deviations = {
        "is_contraction": max(0.0, norm - 1.0),
        "is_isometry": isometry_dev,
        "is_unitary": max(isometry_dev, counitary_dev),
        "is_projection": max(op_norm(a @ a - a), op_norm(a - dagger(a))),
        "is_entrywise_nonneg": max(
            0.0, -float(a.real.min()), float(np.abs(a.imag).max())
        ),
        "preserves_unity": float(np.linalg.norm(a @ ones - ones)),
        "adjoint_preserves_unity": float(np.linalg.norm(dagger(a) @ ones - ones)),
    }
    flags = {name: bool(dev <= tol) for name, dev in deviations.items()}
    flags["is_contraction"] = bool(norm <= 1 + tol)
    return StructureReport(flags=flags, deviations=deviations)


def preservation_suite(
    tup: ContractionTuple,
    N: int,
    times=None,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Check that operator classes of the base tuple carry over to the grid
    semigroup, and that unit-time evaluations recover the base classes.

    For each class held by every base operator, every evaluation must be
    in the class; the converse spot-check inspects t = e_i, whose
    evaluation is the identity tensor S_i.
    """
    semi = DiscretizedSemigroup(tup, N)
    d = tup.d
    if times is None:
        times = [GridTime(N, nums) for nums in itertools.product(range(2 * N), repeat=d)]
    base_reports = [structure_report(m, tol=tol) for m in tup.mats]
    base_holds = {cls: all(r.holds(cls) for r in base_reports) for cls in _CLASSES}

    held = [cls for cls, holds in base_holds.items() if holds]
    results = {
        cls: {"base_holds": holds, "preserved": True if holds else None, "max_deviation": 0.0}
        for cls, holds in base_holds.items()
    }
    # One evaluation and one report at a time, folded into every held class.
    for t in times:
        _check_time(semi, t)  # the report lists every time, held class or not
        if held:
            report = structure_report(eval_discretized(semi, t), tol=tol)
            for cls in held:
                entry = results[cls]
                entry["preserved"] = entry["preserved"] and report.holds(cls)
                entry["max_deviation"] = max(
                    entry["max_deviation"], *(report.deviations[flag] for flag in _CLASSES[cls])
                )

    # Converse spot-check: evaluation at the i-th unit time is I tensor S_i,
    # which must carry exactly the isometry, unitary and nonnegativity
    # classes of S_i.
    converse = []
    for i in range(d):
        nums = tuple(N if j == i else 0 for j in range(d))
        lifted = structure_report(eval_discretized(semi, GridTime(N, nums)), tol=tol)
        converse.append(
            {
                "axis": i + 1,
                "matches": all(
                    lifted.holds(cls) == base_reports[i].holds(cls)
                    for cls in ("isometry", "unitary", "entrywise_nonneg")
                ),
            }
        )

    passed = all(
        entry["preserved"] is not False for entry in results.values()
    ) and all(item["matches"] for item in converse)
    return {
        "N": N,
        "times": [str(t) for t in times],
        "classes": results,
        "converse_unit_times": converse,
        "passed": passed,
    }
