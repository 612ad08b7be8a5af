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
stacked block residuals, P being an isometry.  So a class's deviation
over every time at once is read off the distinct blocks of the grid
forms (at most 2^d per time), without assembling T(t).
``_class_deviations`` takes each flag's largest deviation over all times
in one call: the isometry, unitary and entrywise flags from the blocks
alone, the isometry and unitary ones by ``_max_deviation`` of the gaps,
which takes SVDs only where its bounds cannot decide, and the unity
flags from each time's block picks.  No per-block or per-time array
leaves it.
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
    _isometry_gaps,
    _max_deviation,
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


def _class_deviations(blocks: np.ndarray, picks: np.ndarray, flags=_FLAGS) -> dict:
    """The largest deviation, one float per flag of ``flags`` (by default
    every flag of ``_CLASSES``), over K operators T_k = P_k diag(B): the
    diagonal holds block picks[k, m] of the stack ``blocks`` at position
    m, P_k permutes the block positions, and the picks (K, M) take every
    block at least once.

    The isometry, unitary and entrywise flags take the largest measure of
    any block, so they read the blocks, not the picks: ``_max_deviation``
    of the gaps B*B - 1; the larger of that and ``_max_deviation`` of the
    co-isometry gaps BB* - 1; max(0, -min Re B, max |Im B|).  The unity
    flags take, per row k, the root of the summed squared residual norms,
    ||(B_m 1 - 1)_m||_2 and the same with B*, and the largest over the
    rows.  These are exact, by the identities of the module docstring, as
    the grid motion m -> m + t (mod 1) is a bijection.  A deviation that
    overflowed is NaN, and NaN wins every maximum here, as in ``np.max``.
    """
    adjoints = blocks.conj().swapaxes(-1, -2)
    out = {}
    if "is_isometry" in flags or "is_unitary" in flags:
        out["is_isometry"] = float(_max_deviation(_isometry_gaps(blocks)))
    if "is_unitary" in flags:
        out["is_unitary"] = float(
            np.maximum(out["is_isometry"], _max_deviation(_isometry_gaps(adjoints))))
    if "is_entrywise_nonneg" in flags:
        worst = float(np.maximum(-blocks.real.min(), np.abs(blocks.imag).max()))
        # +0.0, never -0.0, where nothing is negative: reports print the sign.
        out["is_entrywise_nonneg"] = worst if worst > 0.0 else 0.0
    ones = np.ones(blocks.shape[-1], dtype=np.complex128)
    for flag, side in (("preserves_unity", blocks), ("adjoint_preserves_unity", adjoints)):
        if flag in flags:
            residuals = np.linalg.norm(side @ ones - ones, axis=-1)
            out[flag] = float(np.linalg.norm(residuals[picks], axis=-1).max())
    return out


def structure_report(a, tol: float = DEFAULT_TOL) -> StructureReport:
    """Measure operator class membership of a square matrix at tolerance tol.

    The class deviations are ``_class_deviations`` of the one block a,
    picked once; this adds ``is_contraction`` and ``is_projection``, the
    ``_max_deviation`` of A A - A and A - A*.  Each flag is its deviation
    <= tol, except ``is_contraction``, which is ||A|| <= 1 + tol as in
    ``ContractionTuple``: ``max(0, ||A|| - 1) <= tol`` rounds differently
    near the boundary.  Entries so large that a deviation overflows (A*A,
    A A or a unity residual past the float range) are an ``InputError``
    naming those deviations, with no warning.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("structure report requires a square matrix")

    norm = op_norm(a)
    with np.errstate(over="ignore", invalid="ignore"):
        classes = _class_deviations(a[None], np.zeros((1, 1), dtype=int))
        projection = _max_deviation(np.stack([a @ a - a, a - dagger(a)]))
    deviations = {
        "is_contraction": max(0.0, norm - 1.0),
        "is_isometry": classes["is_isometry"],
        "is_unitary": classes["is_unitary"],
        "is_projection": float(projection),
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

    The base's entrywise and unity flags are one ``_class_deviations``
    call on the stacked S_i, one axis per row.  Its isometry flag is
    ``_max_deviation`` of the gaps S_i* S_i - 1 against tol, which takes
    SVDs only where their Frobenius and column bounds cannot decide; the
    unitary flag adds that of the adjoints only where the isometry flag
    holds.  So a circulant base, whose gaps fail a column bound, takes no
    SVD.  No evaluation is assembled: the grid forms of every time and
    unit time come from one ``_grid_forms`` call.  When a class is held,
    the exponent rows of all times are deduplicated once, each distinct
    block is built once (``_power_products``), and one
    ``_class_deviations`` call gives the held classes' largest deviations
    over every time, as the module docstring shows.  A class's
    ``max_deviation`` is the ``np.max`` of its flags' deviations, which
    keeps a NaN.  The converse is checked in integers.  The (2N)^d times'
    blocks and exponent rows are capped at (2N)^d N^d max(dim^2, d) entries.
    """
    semi = DiscretizedSemigroup(tup, N)
    d, dim = tup.d, tup.dim
    _check_cap((2 * N) ** d * N**d, max(dim * dim, d))

    mats = np.stack(tup.mats)
    measured = _FLAGS - {"is_isometry", "is_unitary"}
    base = {flag: bool(dev <= tol) for flag, dev in
            _class_deviations(mats, np.arange(d)[:, None], measured).items()}
    base["is_isometry"] = _max_deviation(_isometry_gaps(mats), tol)
    base["is_unitary"] = base["is_isometry"] and _max_deviation(
        _isometry_gaps(mats.conj().swapaxes(-1, -2)), tol)
    held = [cls for cls in _CLASSES if all(base[flag] for flag in _CLASSES[cls])]
    results = {
        cls: {"base_holds": False, "preserved": None, "max_deviation": 0.0} for cls in _CLASSES
    }

    times = np.indices((2 * N,) * d).reshape(d, -1).T if held else np.empty((0, d), int)
    targets, exponents = _grid_forms(semi, np.vstack([times, N * np.eye(d, dtype=int)]))
    if held:
        rows, picks = _distinct_rows(exponents[:-d].reshape(-1, d))
        flags = {flag for cls in held for flag in _CLASSES[cls]}
        deviations = _class_deviations(
            _power_products(tup.mats, rows), picks.reshape(len(times), N**d), flags)
        for cls in held:
            worst = float(np.max([deviations[flag] for flag in _CLASSES[cls]]))
            results[cls] = {"base_holds": True, "preserved": worst <= tol,
                            "max_deviation": worst}

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
