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
measures the flags of the classes the base holds this way, once per
distinct block of the grid forms (at most 2^d per time), and folds the
measures of all times in one ``_class_deviations`` call over their
(times, grid points) block picks, without assembling T(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    _distinct_rows,
    _grid_forms,
)
from .linalg import (
    DEFAULT_TOL,
    InputError,
    _check_cap,
    _deviation_norms,
    _isometric,
    _isometry_deviations,
    _power_products,
    as_matrix,
    dagger,
    op_norm,
)

__all__ = ["StructureReport", "structure_report", "preservation_suite"]

# The operator classes a preservation suite tracks, each with the flags
# an operator needs to be in it.
_CLASSES = {
    "isometry": ("is_isometry",),
    "unitary": ("is_unitary",),
    "entrywise_nonneg": ("is_entrywise_nonneg",),
    "bimarkov": ("is_entrywise_nonneg", "preserves_unity", "adjoint_preserves_unity"),
}
_FLAGS = frozenset(flag for flags in _CLASSES.values() for flag in flags)


@dataclass(frozen=True)
class StructureReport:
    flags: dict
    deviations: dict

    def holds(self, cls: str) -> bool:
        """Whether the operator is in class ``cls`` of ``_CLASSES``."""
        return all(self.flags[flag] for flag in _CLASSES[cls])

    def to_json(self) -> dict:
        return {"flags": dict(self.flags), "deviations": dict(self.deviations)}


def _block_measures(blocks: np.ndarray, flags=_FLAGS) -> dict:
    """Per block of a stack, what ``_class_deviations`` folds for the flags
    in ``flags`` (by default every flag of ``_CLASSES``), keyed by flag:
    ||B*B - 1||, the larger of that and ||BB* - 1||, max(0, -min Re B,
    max |Im B|), and the unity residual norms ||B 1 - 1|| and ||B* 1 - 1||.
    A flag not asked for is not measured; the unitary flag also keeps
    ||B*B - 1||.
    """
    ones = np.ones(blocks.shape[-1], dtype=np.complex128)
    adjoints = blocks.conj().swapaxes(-1, -2)
    out = {}
    if "is_isometry" in flags or "is_unitary" in flags:
        out["is_isometry"] = _isometry_deviations(blocks)
    if "is_entrywise_nonneg" in flags:
        worst = np.maximum(
            -blocks.real.min(axis=(-2, -1)), np.abs(blocks.imag).max(axis=(-2, -1))
        )
        # +0.0, never -0.0, where nothing is negative: reports print the sign.
        out["is_entrywise_nonneg"] = np.where(worst > 0.0, worst, 0.0)
    if "preserves_unity" in flags:
        out["preserves_unity"] = np.linalg.norm(blocks @ ones - ones, axis=-1)
    if "is_unitary" in flags:
        out["is_unitary"] = np.maximum(out["is_isometry"], _isometry_deviations(adjoints))
    if "adjoint_preserves_unity" in flags:
        out["adjoint_preserves_unity"] = np.linalg.norm(adjoints @ ones - ones, axis=-1)
    return out


def _class_deviations(measures: dict, picks: np.ndarray) -> dict:
    """Deviations of the class flags of K operators T_k = P_k diag(B), the
    diagonal holding block picks[k, m] of ``measures`` (``_block_measures``)
    at position m and P_k a permutation of the block positions: per flag
    of ``measures``, an array of length K for picks of shape (K, M).

    The isometry, unitary and entrywise flags take the largest measure of
    a row's blocks; the unity flags take the root of the summed squared
    residual norms, ||(B_m 1 - 1)_m||_2 and the same with B*.  These are
    exact, by the identities of the module docstring, as the grid motion
    m -> m + t (mod 1) is a bijection.
    """
    out = {}
    for flag, values in measures.items():
        if flag in ("preserves_unity", "adjoint_preserves_unity"):
            out[flag] = np.linalg.norm(values[picks], axis=-1)
        else:
            out[flag] = values[picks].max(axis=-1)
    return out


def structure_report(a, tol: float = DEFAULT_TOL) -> StructureReport:
    """Measure operator class membership of a square matrix at tolerance tol.

    The class deviations are ``_class_deviations`` of the one block a,
    picked once; this adds ``is_contraction`` and ``is_projection``.  Each
    flag is its deviation <= tol, except ``is_contraction``, which is
    ||A|| <= 1 + tol as in ``ContractionTuple``: ``max(0, ||A|| - 1) <= tol``
    rounds differently near the boundary.  Entries so large that a
    deviation overflows (A*A, A A or a unity residual past the float
    range) are an ``InputError`` naming those deviations, with no warning.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("structure report requires a square matrix")

    norm = op_norm(a)
    with np.errstate(over="ignore", invalid="ignore"):
        picked = _class_deviations(_block_measures(a[None]), np.zeros((1, 1), dtype=int))
        projection = _deviation_norms(np.stack([a @ a - a, a - dagger(a)]))
    classes = {flag: float(values[0]) for flag, values in picked.items()}
    deviations = {
        "is_contraction": max(0.0, norm - 1.0),
        "is_isometry": classes["is_isometry"],
        "is_unitary": classes["is_unitary"],
        "is_projection": float(projection.max()),
        "is_entrywise_nonneg": classes["is_entrywise_nonneg"],
        "preserves_unity": classes["preserves_unity"],
        "adjoint_preserves_unity": classes["adjoint_preserves_unity"],
    }
    overflowed = [name for name, dev in deviations.items() if not np.isfinite(dev)]
    if overflowed:
        raise InputError(f"matrix entries too large: the deviations of {', '.join(overflowed)} "
                         "overflow the float range")
    flags = {name: bool(dev <= tol) for name, dev in deviations.items()}
    flags["is_contraction"] = bool(norm <= 1 + tol)
    return StructureReport(flags=flags, deviations=deviations)


def preservation_suite(tup: ContractionTuple, N: int, tol: float = DEFAULT_TOL) -> dict:
    """Check that operator classes of the base tuple carry over to the grid
    semigroup at every time of {0, ..., 2N-1}^d / N, and that unit-time
    evaluations recover the base classes.

    For each class held by every base operator, every evaluation must be
    in the class; the converse spot-check inspects t = e_i, whose
    evaluation must be the identity tensor S_i, and so carry its classes.

    The base is classified by one ``_block_measures`` of the stacked S_i,
    folded one axis per row, for the entrywise and unity flags.  Its
    isometry flag is ``_isometric`` of the stack, which takes SVDs of the
    gaps S_i* S_i - 1 only where their Frobenius and column bounds cannot
    decide; the unitary flag adds ``_isometric`` of the adjoints only where
    the isometry flag holds.  No evaluation is assembled: the grid forms
    of every time and unit time come from one ``_grid_forms`` call.  When
    a class is held, the exponent rows of all times are deduplicated once,
    each distinct block is built (``_power_products``) and measured once
    for the held classes' flags, and one ``_class_deviations`` call folds
    them into every time's deviations, as the module docstring shows.
    The converse is checked in integers.  The (2N)^d times' blocks and
    exponent rows are capped at (2N)^d N^d max(dim^2, d) entries.
    """
    semi = DiscretizedSemigroup(tup, N)
    d, dim = tup.d, tup.dim
    _check_cap((2 * N) ** d * N**d, max(dim * dim, d))

    mats = np.stack(tup.mats)
    measures = _block_measures(mats, _FLAGS - {"is_isometry", "is_unitary"})
    base = {flag: bool((values <= tol).all())
            for flag, values in _class_deviations(measures, np.arange(d)[:, None]).items()}
    base["is_isometry"] = _isometric(mats, tol)
    base["is_unitary"] = base["is_isometry"] and _isometric(mats.conj().swapaxes(-1, -2), tol)
    held = [cls for cls in _CLASSES if all(base[flag] for flag in _CLASSES[cls])]
    results = {
        cls: {"base_holds": False, "preserved": None, "max_deviation": 0.0} for cls in _CLASSES
    }

    times = np.indices((2 * N,) * d).reshape(d, -1).T if held else np.empty((0, d), int)
    targets, exponents = _grid_forms(semi, np.vstack([times, N * np.eye(d, dtype=int)]))
    if held:
        rows, picks = _distinct_rows(exponents[:-d].reshape(-1, d))
        flags = {flag for cls in held for flag in _CLASSES[cls]}
        measures = _block_measures(_power_products(tup.mats, rows), flags)
        deviations = _class_deviations(measures, picks.reshape(len(times), N**d))
        for cls in held:
            values = np.stack([deviations[flag] for flag in _CLASSES[cls]])
            results[cls] = {"base_holds": True, "preserved": bool((values <= tol).all()),
                            "max_deviation": float(values.max())}

    # T(e_i) is 1 tensor S_i exactly when its grid motion is the identity
    # and every exponent row is e_i.
    exact = (targets[-d:] == np.arange(N**d)).all(axis=1) & (
        exponents[-d:] == np.eye(d, dtype=np.int64)[:, None, :]
    ).all(axis=(1, 2))
    converse = [{"axis": i + 1, "matches": bool(ok)} for i, ok in enumerate(exact)]

    passed = all(
        entry["preserved"] is not False for entry in results.values()
    ) and all(item["matches"] for item in converse)
    return {
        "N": N,
        "classes": results,
        "converse_unit_times": converse,
        "passed": passed,
    }
