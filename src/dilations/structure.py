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

from .interpolation import ContractionTuple, DiscretizedSemigroup, eval_discretized
from .linalg import (
    DEFAULT_TOL,
    InputError,
    _unitarity_deviations,
    as_matrix,
    dagger,
    op_norm,
)
from .torus import GridTime

__all__ = [
    "StructureReport",
    "structure_report",
    "bimarkov_check",
    "preservation_suite",
]

_FLAGS = (
    "is_contraction",
    "is_isometry",
    "is_unitary",
    "is_projection",
    "is_entrywise_nonneg",
    "preserves_unity",
    "adjoint_preserves_unity",
)


@dataclass(frozen=True)
class StructureReport:
    is_contraction: bool
    is_isometry: bool
    is_unitary: bool
    is_projection: bool
    is_entrywise_nonneg: bool
    preserves_unity: bool
    adjoint_preserves_unity: bool
    deviations: dict

    @property
    def is_bimarkov(self) -> bool:
        return (
            self.is_entrywise_nonneg
            and self.preserves_unity
            and self.adjoint_preserves_unity
        )

    def to_json(self) -> dict:
        return {
            "flags": {name: bool(getattr(self, name)) for name in _FLAGS},
            "deviations": dict(self.deviations),
        }


def structure_report(a, tol: float = DEFAULT_TOL) -> StructureReport:
    """Measure operator class membership of a square matrix at tolerance tol."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("structure report requires a square matrix")
    ones = np.ones(a.shape[0], dtype=np.complex128)

    norm = op_norm(a)
    isometry_dev, counitary_dev = _unitarity_deviations(a)
    idempotent_dev = op_norm(a @ a - a)
    hermitian_dev = op_norm(a - dagger(a))
    min_real = float(a.real.min())
    max_imag = float(np.abs(a.imag).max())
    unity_dev = float(np.linalg.norm(a @ ones - ones))
    co_unity_dev = float(np.linalg.norm(dagger(a) @ ones - ones))

    deviations = {
        "is_contraction": max(0.0, norm - 1.0),
        "is_isometry": isometry_dev,
        "is_unitary": max(isometry_dev, counitary_dev),
        "is_projection": max(idempotent_dev, hermitian_dev),
        "is_entrywise_nonneg": max(0.0, -min_real, max_imag),
        "preserves_unity": unity_dev,
        "adjoint_preserves_unity": co_unity_dev,
    }
    is_isometry = isometry_dev <= tol
    return StructureReport(
        is_contraction=norm <= 1 + tol,
        is_isometry=is_isometry,
        is_unitary=is_isometry and counitary_dev <= tol,
        is_projection=idempotent_dev <= tol and hermitian_dev <= tol,
        is_entrywise_nonneg=min_real >= -tol and max_imag <= tol,
        preserves_unity=unity_dev <= tol,
        adjoint_preserves_unity=co_unity_dev <= tol,
        deviations=deviations,
    )


def bimarkov_check(a, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise nonnegative and unity-preserving in both directions."""
    report = structure_report(a, tol=tol)
    return report.is_bimarkov


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
    classes = {
        "isometry": all(r.is_isometry for r in base_reports),
        "unitary": all(r.is_unitary for r in base_reports),
        "entrywise_nonneg": all(r.is_entrywise_nonneg for r in base_reports),
        "bimarkov": all(r.is_bimarkov for r in base_reports),
    }
    flag_of = {
        "isometry": "is_isometry",
        "unitary": "is_unitary",
        "entrywise_nonneg": "is_entrywise_nonneg",
    }

    results = {}
    evals = [eval_discretized(semi, t) for t in times]
    # One report per evaluation, shared by every held class.
    reports = (
        [structure_report(mat, tol=tol) for mat in evals]
        if any(classes.values())
        else []
    )
    for name, held in classes.items():
        entry = {"base_holds": held, "preserved": None, "max_deviation": 0.0}
        if held:
            preserved = True
            max_dev = 0.0
            for report in reports:
                if name == "bimarkov":
                    ok = report.is_bimarkov
                    dev = max(
                        report.deviations["is_entrywise_nonneg"],
                        report.deviations["preserves_unity"],
                        report.deviations["adjoint_preserves_unity"],
                    )
                else:
                    flag = flag_of[name]
                    ok = getattr(report, flag)
                    dev = report.deviations[flag]
                preserved = preserved and ok
                max_dev = max(max_dev, dev)
            entry["preserved"] = preserved
            entry["max_deviation"] = max_dev
        results[name] = entry

    # Converse spot-check: evaluation at the i-th unit time is I tensor S_i,
    # which must carry exactly the classes of S_i.
    converse = []
    for i in range(d):
        nums = tuple(N if j == i else 0 for j in range(d))
        mat = eval_discretized(semi, GridTime(N, nums))
        lifted = structure_report(mat, tol=tol)
        base = base_reports[i]
        converse.append(
            {
                "axis": i + 1,
                "matches": all(
                    getattr(lifted, flag) == getattr(base, flag)
                    for flag in ("is_isometry", "is_unitary", "is_entrywise_nonneg")
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

