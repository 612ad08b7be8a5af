"""Operator class predicates and preservation suites.

Positivity here is entrywise in the canonical coordinate basis, the
finite stand-in for almost-everywhere positivity of functions; the
"unity" vector is the all-ones vector.  A bi-Markov operator is
entrywise nonnegative and fixes unity under both itself and its
adjoint (a doubly stochastic matrix, complex-entry variant).

The grid semigroup T(t) is a permutation P of the grid points (tensored
with the identity of the base space) times the block diagonal D =
diag(B_m), one base-space block per source point m.  Every tracked class
is therefore a property of the blocks alone:

- T*T = diag(B_m* B_m), as P*P = 1;
- TT* = P diag(B_m B_m*) P*;
- T 1 = P (B_m 1)_m;
- T* 1 = (B_m* 1)_m, as P* 1 = 1.

So ||T*T - 1|| and ||TT* - 1|| are the largest block deviations (unitary
conjugation by P keeps norms and block diagonals have the largest block
norm); the entries of T are those of the blocks plus zeros, which change
neither the most negative real part (clamped at 0) nor the largest
imaginary part; and ||T 1 - 1|| and ||T* 1 - 1|| are the 2-norms of the
stacked block residuals, P being an isometry.  ``preservation_suite``
measures every class this way on the at most 2^d carry pattern blocks of
the grid form and their multiplicities, without assembling T(t).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    _check_time,
    _grid_form,
)
from .linalg import (
    DEFAULT_TOL,
    InputError,
    _check_cap,
    as_matrix,
    dagger,
    identity,
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


def _class_deviations(blocks: np.ndarray, counts: np.ndarray) -> dict:
    """Deviations of the class flags of T = P diag(B), the diagonal holding
    blocks[k] counts[k] times and P a permutation of the block positions.

    The flags are those of ``_CLASSES``: isometry max ||B*B - 1||, unitary
    that or max ||BB* - 1|| if larger, entrywise nonnegativity
    max(0, -min Re B, max |Im B|), and the unity deviations
    ||(sqrt(counts_k) (B_k 1 - 1))_k||_2 and the same with B*.  These are
    exact, by the identities of the module docstring, because P is a
    permutation: for the grid semigroup m -> m + t (mod 1) is a bijection
    of the grid, so the targets of every grid form are a permutation of
    the grid points.
    """
    eye = identity(blocks.shape[-1])
    ones = np.ones(blocks.shape[-1], dtype=np.complex128)
    adjoints = blocks.conj().swapaxes(-1, -2)
    isometry = float(np.linalg.norm(adjoints @ blocks - eye, 2, axis=(-2, -1)).max())
    counitary = float(np.linalg.norm(blocks @ adjoints - eye, 2, axis=(-2, -1)).max())
    weights = np.sqrt(counts)[:, None]
    return {
        "is_isometry": isometry,
        "is_unitary": max(isometry, counitary),
        "is_entrywise_nonneg": max(
            0.0, -float(blocks.real.min()), float(np.abs(blocks.imag).max())
        ),
        "preserves_unity": float(np.linalg.norm(weights * (blocks @ ones - ones))),
        "adjoint_preserves_unity": float(np.linalg.norm(weights * (adjoints @ ones - ones))),
    }


def structure_report(a, tol: float = DEFAULT_TOL) -> StructureReport:
    """Measure operator class membership of a square matrix at tolerance tol.

    The class deviations are ``_class_deviations`` of the one block a, with
    count 1; this adds ``is_contraction`` and ``is_projection``.  Each flag
    is its deviation <= tol, except ``is_contraction``, which is
    ||A|| <= 1 + tol as in ``ContractionTuple``: ``max(0, ||A|| - 1) <= tol``
    rounds differently near the boundary.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("structure report requires a square matrix")

    norm = op_norm(a)
    classes = _class_deviations(a[None], np.ones(1))
    deviations = {
        "is_contraction": max(0.0, norm - 1.0),
        "is_isometry": classes["is_isometry"],
        "is_unitary": classes["is_unitary"],
        "is_projection": max(op_norm(a @ a - a), op_norm(a - dagger(a))),
        "is_entrywise_nonneg": classes["is_entrywise_nonneg"],
        "preserves_unity": classes["preserves_unity"],
        "adjoint_preserves_unity": classes["adjoint_preserves_unity"],
    }
    flags = {name: bool(dev <= tol) for name, dev in deviations.items()}
    flags["is_contraction"] = bool(norm <= 1 + tol)
    return StructureReport(flags=flags, deviations=deviations)


def _grid_report(semi: DiscretizedSemigroup, t: GridTime, tol: float) -> StructureReport:
    """The class flags of the evaluation at t, from its grid form."""
    _, codes, patterns = _grid_form(semi, t)
    deviations = _class_deviations(patterns, np.bincount(codes, minlength=len(patterns)))
    flags = {name: bool(dev <= tol) for name, dev in deviations.items()}
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

    No evaluation is assembled: each report comes from the grid form's at
    most 2^d carry pattern blocks and their multiplicities, by
    T*T = diag(B_m* B_m), TT* = P diag(B_m B_m*) P*, T 1 = P (B_m 1)_m and
    T* 1 = (B_m* 1)_m (see the module docstring), so a time holds at most
    2^d dim x dim blocks and N^d indices.  The time list, and the grid forms
    it stands for, are capped at len(times) N^d dim^2 block entries.
    """
    semi = DiscretizedSemigroup(tup, N)
    d, dim = tup.d, tup.dim
    count = (2 * N) ** d if times is None else len(times)
    _check_cap(count * N**d * dim, dim)
    if times is None:
        times = [GridTime(N, nums) for nums in itertools.product(range(2 * N), repeat=d)]
    base_reports = [structure_report(m, tol=tol) for m in tup.mats]
    base_holds = {cls: all(r.holds(cls) for r in base_reports) for cls in _CLASSES}

    held = [cls for cls, holds in base_holds.items() if holds]
    results = {
        cls: {"base_holds": holds, "preserved": True if holds else None, "max_deviation": 0.0}
        for cls, holds in base_holds.items()
    }
    # One report per time, folded into every held class.
    for t in times:
        _check_time(semi, t)  # the report lists every time, held class or not
        if held:
            report = _grid_report(semi, t, tol)
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
        lifted = _grid_report(semi, GridTime(N, nums), tol)
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
