"""Dense complex matrix arithmetic and spectral utilities.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  The
rules on whether an operator stack is acceptable, and the size cap, live
here, one routine each, raising :class:`InputError` on bad data: shapes
and finiteness (``as_matrix``, ``_square_stack``), the size cap
(``_check_cap``), and contractions, commutation and isometries
(``_require_*``, decided by ``_max_op_norm``).

Wire format for a single matrix::

    {"rows": r, "cols": c, "data": [[re, im], ...]}   # row-major

Round-trips preserve binary64 values exactly.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Iterator

import numpy as np

__all__ = [
    "InputError",
    "NumericalError",
    "DEFAULT_TOL",
    "max_entries",
    "as_matrix",
    "identity",
    "dagger",
    "kron",
    "op_norm",
    "psd_sqrt",
    "matrix_exp",
    "matrix_to_json",
    "matrix_from_json",
]


class InputError(ValueError):
    """Raised for malformed, out-of-contract, or oversized inputs."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot meet its accuracy contract."""


DEFAULT_TOL = 1e-10

# Total entries allowed in any constructed matrix.  Overridable through the
# environment so CLI pipelines can raise the cap deliberately.
_DEFAULT_MAX_ENTRIES = 1 << 20


def max_entries() -> int:
    raw = os.environ.get("DILATIONS_MAX_ENTRIES")
    if raw is None:
        return _DEFAULT_MAX_ENTRIES
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"DILATIONS_MAX_ENTRIES is not an integer: {raw!r}") from exc
    if value <= 0:
        raise InputError("DILATIONS_MAX_ENTRIES must be positive")
    return value


def default_tol() -> float:
    raw = os.environ.get("DILATIONS_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise InputError(f"DILATIONS_TOL is not a number: {raw!r}") from exc
    return _check_tol(value, "DILATIONS_TOL")


def _check_tol(value: float, source: str) -> float:
    """Return ``value`` if it is a usable tolerance: finite and nonnegative."""
    if not (math.isfinite(value) and value >= 0):
        raise InputError(f"{source} must be a finite nonnegative number, got {value!r}")
    return value


def _check_cap(entries: int, what: str) -> None:
    """Refuse a step that holds ``entries`` entries at once past the size
    cap; the refusal names them as ``what``."""
    cap = max_entries()
    if entries > cap:
        raise InputError(
            f"{what} needs {entries} entries, beyond the size cap of {cap} "
            "(set DILATIONS_MAX_ENTRIES to override)"
        )


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix contains non-finite entries")
    return m


def _square_stack(mats, noun: str) -> np.ndarray:
    """The (K, n, n) stack of the matrices ``mats``, refused when there is
    none ("need at least one <noun>"), as ``as_matrix`` refuses a member,
    or when a member's shape is not the first one's (n, n), naming it."""
    stack = [as_matrix(m) for m in mats]
    if not stack:
        raise InputError(f"need at least one {noun}")
    n = stack[0].shape[0]
    for i, m in enumerate(stack):
        if m.shape != (n, n):
            raise InputError(f"{noun} {i + 1} has shape {m.shape}, expected ({n}, {n})")
    return np.stack(stack)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product with entry ((i*rows_b+k),(j*cols_b+l)) = a[i,j]*b[k,l]."""
    a = as_matrix(a)
    b = as_matrix(b)
    _check_cap(a.size * b.size, f"the Kronecker product of shapes {a.shape} and {b.shape}")
    return np.kron(a, b)


def op_norm(a) -> float:
    """Largest singular value."""
    return float(_op_norms(as_matrix(a)))


def _op_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of every member of a stack (..., r, c), in
    one stacked SVD call that runs the one-matrix LAPACK routine on each
    member, so each value equals ``op_norm`` of that member."""
    if not np.isfinite(a).all():
        raise InputError("matrix contains non-finite entries")
    try:
        return np.linalg.norm(a, 2, axis=(-2, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value computation failed: {exc}") from exc


def _max_op_norm(a: np.ndarray, limit: float | None = None):
    """``_op_norms(a).max()`` for a nonempty stack (..., r, c), or with a
    ``limit`` the answer ``bool((_op_norms(a) <= limit).all())``, taking
    the SVD only of the members that cheap bounds leave undecided.

    Every member A has ||A||_col <= ||A|| <= ||A||_F, ||A||_col its
    largest column 2-norm.  Let F and C be these bounds computed from the
    entry moduli divided by the largest modulus of the stack, widened to
    F (1 + delta) and C (1 - delta), and L the largest widened C.  The
    max takes the SVD of the members with widened F at least L: a member
    below it cannot hold the max, so the max of the candidates'
    ``_op_norms`` is the same per-member LAPACK value, bit for bit.  The
    answer against a limit, b = limit over the largest modulus: False if
    L exceeds b, as the member holding it fails; else True if every
    widened F is at most b; else the SVD of the members whose widened F
    is not at most b decides, a NaN limit leaving them all to it.

    The margin delta = 1e-10 + 8 (r + c)^2 u, u the unit roundoff, covers
    the rounding of the computed quantities.  F and C are square roots of
    sums of at most r c squared, divided moduli: each is within (r c + 4) u
    of its exact value, in relative terms, the widening and b adding 3 u.
    A computed singular value is within p u ||A|| of the exact one, p a
    modest function of r and c (backward-stable bidiagonalisation), taken
    here at most 6 (r + c)^2.  Moduli below 2^-500 of the largest, whose
    squares may underflow, move F and C by under 2^-500 r c; that is far
    below delta relative to the quantity compared with, which is at least
    1/2: for the max, the largest C is at least 1 after the division; for
    a limit, the member holding the largest modulus has C >= 1, so where
    b < 1 - 2 delta it fails at once, rightly, as its computed norm is
    at least that modulus less p u of it.  So the max's excluded members
    stay strictly below the member attaining the largest C, and each
    member decided by a bound is decided as its computed norm would be,
    since delta exceeds the relative errors summed by at least 1e-10.
    A non-finite entry, as where a gap A*A - 1 or a commutator overflowed,
    gives NaN, or False against a limit, with no SVD, which LAPACK may
    fail on: such a deviation passes no check, and a refusal reads nan.
    """
    a = a.reshape(-1, *a.shape[-2:])
    if not np.isfinite(a).all():
        return np.nan if limit is None else False
    squares = np.abs(a)
    peak = squares.max(initial=0.0)
    if peak > 0:
        squares /= peak
    squares *= squares
    delta = _norm_margin(*a.shape[-2:])
    upper = np.sqrt(squares.sum(axis=(-2, -1))) * (1 + delta)
    lower = np.sqrt(squares.sum(axis=-2)).max(initial=0.0) * (1 - delta)
    if limit is None:
        return _op_norms(a[upper >= lower]).max()
    bound = limit / float(peak) if peak > 0 else limit  # a float: inf on overflow, no warning
    if lower > bound:
        return False
    undecided = ~(upper <= bound)
    return not undecided.any() or bool((_op_norms(a[undecided]) <= limit).all())


def _norm_margin(rows: int, cols: int) -> float:
    """The margin delta = 1e-10 + 8 (r + c)^2 u of ``_max_op_norm`` for
    members (r, c), u the unit roundoff: it exceeds by at least 1e-10 the
    relative rounding of a computed singular value, at most 6 (r + c)^2 u,
    plus that of the screen's bounds."""
    return 1e-10 + 8 * (rows + cols) ** 2 * np.finfo(float).eps / 2


def _batches(count: int, entries_each: int) -> Iterator[slice]:
    """Consecutive slices covering range(count), made as they are reached,
    each of as many items of ``entries_each`` entries as fit in the cap (>= 1)."""
    step = max(1, max_entries() // max(1, entries_each))
    return (slice(start, start + step) for start in range(0, count, step))


def _require_commuting(mats: np.ndarray, noun: str, tol: float) -> None:
    """Raise unless, in every tuple of the stack ``mats`` (..., d, n, n),
    each pair of members commutes to within tol in operator norm.

    The commutators of all pairs, or of batches of pairs within the size
    cap when they would not fit, are checked against tol by one
    ``_max_op_norm`` call, which takes SVDs only where its bounds cannot
    decide.  Only a batch that fails is examined further, for the message:
    it names the first pair of the first tuple whose commutator overflows
    the float range, with no warning, or else the first failing pair of
    the first failing tuple, normed whole.  A non-finite member is refused
    first, as in ``as_matrix``, so a commutator that is not finite has
    overflowed.
    """
    if not np.isfinite(mats).all():
        raise InputError("matrix contains non-finite entries")
    tuples = mats.reshape(-1, *mats.shape[-3:])
    order = np.arange(tuples.shape[1])
    first, second = np.nonzero(order[:, None] < order)  # pairs i < j, i slowest
    for part in _batches(len(first), tuples.shape[0] * mats.shape[-1] ** 2):
        a, b = tuples[:, first[part]], tuples[:, second[part]]
        with np.errstate(over="ignore", invalid="ignore"):
            commutators = a @ b - b @ a
        if _max_op_norm(commutators, tol):
            continue
        finite = np.isfinite(commutators).all(axis=(-2, -1))
        devs = _op_norms(commutators) if finite.all() else None
        k, pair = np.argwhere(~finite if devs is None else devs > tol)[0]
        i, j = first[part][pair] + 1, second[part][pair] + 1
        if devs is None:
            raise InputError(f"the commutator of {noun} {i} and {j} overflows the float range")
        raise InputError(f"{noun} {i} and {j} do not commute (deviation {devs[k, pair]:.3e})")


def _require_contractions(stack: np.ndarray, tol: float, known=None) -> None:
    """Raise unless every tuple of the stack (K, d, n, n) is a commuting
    tuple of contractions to within tol: each member's norm at most
    1 + tol, by one ``_max_op_norm`` call, then ``_require_commuting``.
    Only a failing stack is normed whole, for the message, which names the
    first member over.  This is the check ``ContractionTuple`` runs on
    itself (K = 1); ``vn_search`` runs it on its random tuples without
    building one per trial.

    ``known`` (K, d), when given, bounds from above every computed norm of
    each member, as ``_commuting_stack`` returns: a member whose bound is
    at most 1 + tol passes as its computed norm would, and only the others
    go to ``_max_op_norm``.  A NaN bound leaves its member to it."""
    unknown = stack if known is None else stack[~(known <= 1 + tol)]
    if unknown.size and not _max_op_norm(unknown, 1 + tol):
        norms = _op_norms(stack)
        k, i = np.argwhere(norms > 1 + tol)[0]
        raise InputError(f"operator {i + 1} has norm {norms[k, i]:.12g} > 1 + tol")
    _require_commuting(stack, "operators", tol)


def _isometry_gaps(a: np.ndarray) -> np.ndarray:
    """A*A - 1 of every member of a stack (K, r, c), the identity of size
    c; where A*A overflows, the entries are NaN or inf, with no warning.
    The co-isometry gaps AA* - 1 are those of the adjoints; A is unitary
    when both vanish."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a.conj().swapaxes(-1, -2) @ a - identity(a.shape[-1])


def _require_isometries(a: np.ndarray, what: str, tol: float) -> None:
    """Raise unless every member of the stack (K, r, c) is an isometry to
    within tol, as ``_max_op_norm`` of its gaps decides: the refusal is
    "<what> (deviation <largest gap norm>)", nan where a gap overflowed.
    A stack [M, M*] checks that M is unitary."""
    gaps = _isometry_gaps(a)
    if not _max_op_norm(gaps, tol):
        raise InputError(f"{what} (deviation {_max_op_norm(gaps):.3e})")


def _powers(a: np.ndarray, exponents) -> np.ndarray:
    """Stack of A^k for the nondecreasing exponents k, by repeated
    multiplication from the identity, holding only the powers asked for.
    For a stack of matrices (K, n, n) the result is (len(exponents), K, n, n),
    each member's powers formed by the same products as its own."""
    out = np.empty((len(exponents), *a.shape), dtype=np.complex128)
    power, reached = identity(a.shape[-1]), 0
    for j, k in enumerate(exponents):
        for _ in range(k - reached):
            power = power @ a
        reached = k
        out[j] = power
    return out


def _power_products(axes, rows) -> np.ndarray:
    """(..., n, n): prod_i A_i^rows[..., i] for the d matrices (n, n) of
    ``axes``, in axis order from the identity; with d stacks (K, n, n),
    rows[k] takes member k.  Each axis walks its distinct exponents once
    (by ``set``: ``np.unique``'s inverse costs more than a short product)."""
    out = identity(axes[0].shape[-1])
    for i, a in enumerate(axes):
        column = rows[..., i]
        ks = sorted(set(column.ravel().tolist()))
        which = np.searchsorted(ks, column)
        if a.ndim == 3:
            which = (which, np.indices(column.shape)[0])
        out = out @ _powers(a, ks)[which]
    return out


def psd_sqrt(a, eps: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root, clamping eigenvalues in [-eps, 0) to zero."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("psd_sqrt requires a square matrix")
    scale = max(1.0, float(np.abs(a).max()))
    herm_dev = float(np.abs(a - dagger(a)).max())
    if herm_dev > eps * scale:
        raise InputError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
    h = (a + dagger(a)) / 2
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if evals.min() < -eps * scale:
        raise InputError(
            f"matrix is not positive semidefinite (min eigenvalue {evals.min():.3e})"
        )
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ dagger(evecs)
    return (root + dagger(root)) / 2


# Norm cap on t*A; beyond this scaling-and-squaring accuracy degrades and the
# caller almost certainly passed a wrong time scale.
_EXP_NORM_CAP = 50.0


def matrix_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t*A) by scaling-and-squaring with a truncated Taylor series.

    ``a`` is one square matrix or a stack of shape (K, n, n).  Each member
    of a stack gets its own squaring count and its own series stop, so it
    comes out bit-identical to a call on that member alone.
    """
    a = np.asarray(a, dtype=np.complex128)
    single = a.ndim == 2
    stack = as_matrix(a)[None] if single else a
    if stack.ndim != 3 or 0 in stack.shape:
        raise InputError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if stack.shape[1] != stack.shape[2]:
        raise InputError("matrix_exp requires a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        ta = t * stack
    if not np.isfinite(ta).all():
        raise InputError(f"t*A overflows the float range, beyond the norm cap {_EXP_NORM_CAP}")
    norms = _op_norms(ta).tolist()
    for norm in norms:
        if not norm <= _EXP_NORM_CAP:  # a NaN norm is refused too
            raise InputError(
                f"norm of t*A is {norm:.3g}, beyond the cap {_EXP_NORM_CAP}"
            )
    # Scale so the series argument has norm <= 0.5, then square back up.
    squarings = np.array(
        [max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0 for norm in norms]
    )
    x = ta / (2.0**squarings)[:, None, None]
    out = np.empty_like(ta)
    # The series runs on the members not yet converged: ``live`` indexes
    # them in ``out``, and x, term and result hold only their rows.
    live = np.arange(len(ta))
    result = np.broadcast_to(identity(ta.shape[1]), ta.shape).copy()
    term = result.copy()
    for k in range(1, 30):
        term = term @ x
        term /= k
        result += term
        done = np.abs(term).max(axis=(1, 2)) < 1e-18 * np.maximum(
            1.0, np.abs(result).max(axis=(1, 2))
        )
        if done.all():
            break
        if done.any():
            out[live[done]] = result[done]
            keep = ~done
            live, x, term, result = live[keep], x[keep], term[keep], result[keep]
    out[live] = result
    for s in range(int(squarings.max())):
        grow = np.flatnonzero(squarings > s)
        part = out[grow]
        out[grow] = part @ part
    return out[0] if single else out


def _matrix_payload(a) -> dict:
    """The wire format of ``a`` with ``data`` held as a float64 array of
    shape (rows*cols, 2): the interleaved (re, im) view of its entries in
    row-major order, sharing memory with ``a`` when ``a`` is a C-ordered
    complex128 array.  The CLI writer renders such arrays without listing
    them; ``_listed`` turns a payload into stdlib-JSON values."""
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": np.ascontiguousarray(a).view(np.float64).reshape(-1, 2),
    }


def _listed(payload):
    """``payload`` with every array in it replaced by its ``tolist()``."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: _listed(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [_listed(value) for value in payload]
    return payload


def matrix_to_json(a) -> dict:
    return _listed(_matrix_payload(a))


def _integer(value, what: str) -> int:
    """``value`` as an int, refused unless it equals one: 2 and 2.0 pass,
    2.5, "2", true and null do not."""
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return number


def _complex_pairs(pairs, what: str) -> list:
    """Each [re, im] of ``pairs`` as a complex, refused unless both are
    numbers: an int or a float, not a bool, a string or null."""
    try:
        if set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
            return [complex(re, im) for re, im in pairs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc
    raise InputError(f"every {what} must be a pair of numbers")


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = _integer(obj["rows"], "rows")
        cols = _integer(obj["cols"], "cols")
        data = obj["data"]
        count = len(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InputError("matrix dimensions must be positive")
    if count != rows * cols:
        raise InputError(f"matrix JSON has {count} entries, expected {rows * cols}")
    _check_cap(rows * cols, f"a {rows}x{cols} matrix")
    flat = _complex_pairs(data, "matrix entry")
    return as_matrix(np.array(flat, dtype=np.complex128).reshape(rows, cols))
