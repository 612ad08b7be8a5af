"""Dense complex matrix arithmetic and spectral utilities.

Matrices are plain ``numpy.ndarray`` values of dtype complex128.  Every
public routine validates its inputs (shape, finiteness, size caps) and
raises :class:`InputError` on bad data, so callers can rely on the
arrays being well formed downstream.

Wire format for a single matrix::

    {"rows": r, "cols": c, "data": [[re, im], ...]}   # row-major

Round-trips preserve binary64 values exactly.
"""

from __future__ import annotations

import math
import os

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


def _check_cap(rows: int, cols: int) -> None:
    if rows * cols > max_entries():
        raise InputError(
            f"matrix of shape {rows}x{cols} exceeds the size cap of "
            f"{max_entries()} entries (set DILATIONS_MAX_ENTRIES to override)"
        )


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix contains non-finite entries")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product with entry ((i*rows_b+k),(j*cols_b+l)) = a[i,j]*b[k,l]."""
    a = as_matrix(a)
    b = as_matrix(b)
    _check_cap(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return np.kron(a, b)


def op_norm(a) -> float:
    """Largest singular value."""
    a = as_matrix(a)
    try:
        return float(np.linalg.norm(a, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value computation failed: {exc}") from exc


def _require_commuting(mats, noun: str, tol: float) -> None:
    """Raise unless every pair of ``mats`` commutes to within tol in operator norm."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = op_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            if dev > tol:
                raise InputError(
                    f"{noun} {i + 1} and {j + 1} do not commute (deviation {dev:.3e})"
                )


def _unitarity_deviations(a: np.ndarray) -> tuple[float, float]:
    """(||A*A - 1||, ||AA* - 1||): the isometry and co-isometry deviations."""
    eye = identity(a.shape[0])
    return op_norm(dagger(a) @ a - eye), op_norm(a @ dagger(a) - eye)


def _powers(a: np.ndarray, up_to: int) -> list[np.ndarray]:
    """[A^0, ..., A^up_to] by repeated multiplication."""
    out = [identity(a.shape[0])]
    for _ in range(up_to):
        out.append(out[-1] @ a)
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
    ta = t * stack
    if not np.isfinite(ta).all():
        raise InputError("matrix contains non-finite entries")
    norms = np.linalg.norm(ta, 2, axis=(-2, -1)).tolist()
    for norm in norms:
        if norm > _EXP_NORM_CAP:
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
        term = term @ x / k
        result = result + term
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


def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InputError("matrix dimensions must be positive")
    if len(data) != rows * cols:
        raise InputError(
            f"matrix JSON has {len(data)} entries, expected {rows * cols}"
        )
    _check_cap(rows, cols)
    try:
        flat = [complex(float(re), float(im)) for re, im in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix entry: {exc}") from exc
    return as_matrix(np.array(flat, dtype=np.complex128).reshape(rows, cols))
