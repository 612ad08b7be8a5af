"""Exact operators on the discretised torus.

The grid with denominator ``N`` in ``d`` coordinates carries the
Koopman rotation unitaries (axis-wise cyclic shifts), the indicator
projections, and the commutation relation between them.  Every matrix
built here has entries in {0, 1} and all identities are exact, so
checks in this module use tolerance zero.

Basis enumeration of the grid is lexicographic with axis 1 slowest;
this fixes the Kronecker factor order everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import InputError, _check_cap, identity

__all__ = [
    "GridTime",
    "koopman_u",
    "projector_p",
    "bscr_check",
    "bscr_trace",
]


@dataclass(frozen=True)
class GridTime:
    """A vector of exact rational times k_i/N with one shared denominator.

    Floor and fractional parts are integer arithmetic on the numerators:
    floor(t_i) = k_i // N and frac(t_i) = (k_i % N)/N, so t = floor + frac
    holds exactly.
    """

    N: int
    nums: tuple[int, ...]

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"grid denominator must be >= 1, got {self.N}")
        object.__setattr__(self, "nums", tuple(int(k) for k in self.nums))
        if len(self.nums) < 1:
            raise InputError("grid time needs at least one coordinate")
        if any(k < 0 for k in self.nums):
            raise InputError(f"grid time numerators must be nonnegative: {self.nums}")

    @property
    def d(self) -> int:
        return len(self.nums)

    @property
    def floors(self) -> tuple[int, ...]:
        return tuple(k // self.N for k in self.nums)

    @property
    def frac_nums(self) -> tuple[int, ...]:
        return tuple(k % self.N for k in self.nums)

    def values(self) -> tuple[float, ...]:
        return tuple(k / self.N for k in self.nums)

    def __add__(self, other: "GridTime") -> "GridTime":
        if not isinstance(other, GridTime):
            return NotImplemented
        if other.N != self.N or other.d != self.d:
            raise InputError("grid times must share denominator and arity")
        return GridTime(self.N, tuple(a + b for a, b in zip(self.nums, other.nums)))

    @classmethod
    def parse(cls, text: str, N: int) -> "GridTime":
        """Parse "k1/N,k2/N,..." (plain integers allowed) onto denominator N."""
        nums = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise InputError(f"empty coordinate in grid time {text!r}")
            try:
                frac = Fraction(part)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad grid time coordinate {part!r}") from exc
            scaled = frac * N
            if scaled.denominator != 1:
                raise InputError(
                    f"coordinate {part} is not representable on the 1/{N} grid"
                )
            nums.append(int(scaled))
        return cls(N, tuple(nums))

    def __str__(self) -> str:
        return ",".join(f"{k}/{self.N}" for k in self.nums)


def _check_grid_size(N: int, d: int) -> None:
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    if d < 1:
        raise InputError(f"d must be >= 1, got {d}")
    _check_cap(N**d, N**d)


def _axis_operator(N: int, d: int, axis: int, local: np.ndarray) -> np.ndarray:
    if not 1 <= axis <= d:
        raise InputError(f"axis must be in [1, {d}], got {axis}")
    # Lexicographic basis, axis 1 slowest: operator = I ⊗ ... ⊗ local ⊗ ... ⊗ I.
    # A 1x1 identity factor is skipped: np.kron's overhead dominates at d=1.
    left = N ** (axis - 1)
    right = N ** (d - axis)
    op = local if left == 1 else np.kron(identity(left), local)
    return op if right == 1 else np.kron(op, identity(right))


def koopman_u(N: int, d: int, axis: int, k: int) -> np.ndarray:
    """Permutation unitary shifting coordinate `axis` by k grid steps.

    Sends basis vector with axis-coordinate m to coordinate (m+k) mod N.
    """
    _check_grid_size(N, d)
    shift = np.zeros((N, N), dtype=np.complex128)
    for m in range(N):
        shift[(m + k) % N, m] = 1.0
    return _axis_operator(N, d, axis, shift)


def projector_p(N: int, d: int, axis: int, k: int) -> np.ndarray:
    """Diagonal 0/1 projection keeping axis-coordinates m < N - (k mod N).

    For k a multiple of N this is the identity.
    """
    _check_grid_size(N, d)
    keep = N - (k % N)
    diag = np.zeros((N, N), dtype=np.complex128)
    for m in range(N):
        if m < keep:
            diag[m, m] = 1.0
    return _axis_operator(N, d, axis, diag)


def _bscr_q(N: int, s_num: int, t_num: int) -> np.ndarray:
    """Right-hand branch operator of the commutation relation (d=1)."""
    p_t = projector_p(N, 1, 1, t_num)
    p_st = projector_p(N, 1, 1, s_num + t_num)
    if (s_num % N) + (t_num % N) < N:
        return identity(N) - (p_t - p_st)
    return p_st - p_t


def bscr_check(N: int, s_num: int, t_num: int) -> float:
    """Max-entry deviation of P(s)U(t) from U(t)Q(s,t); exactly 0 on the grid."""
    if s_num < 0 or t_num < 0:
        raise InputError("grid numerators must be nonnegative")
    u_t = koopman_u(N, 1, 1, t_num)
    p_s = projector_p(N, 1, 1, s_num)
    lhs = p_s @ u_t
    rhs = u_t @ _bscr_q(N, s_num, t_num)
    return float(np.abs(lhs - rhs).max())


def bscr_trace(N: int, s_num: int, t_num: int, f) -> list[tuple[float, complex]]:
    """Rows (theta_m, value_m) of U(t)* P(s) U(t) f on the grid theta_m = 2*pi*m/N.

    The result is f with the rotated indicator window zeroed out; the window
    boundaries sit at 2*pi*(1 - frac(t)) and 2*pi*(1 - frac(s+t)).
    """
    vec = np.asarray(f, dtype=np.complex128).ravel()
    if vec.shape[0] != N:
        raise InputError(f"trace vector has length {vec.shape[0]}, expected {N}")
    u_t = koopman_u(N, 1, 1, t_num)
    p_s = projector_p(N, 1, 1, s_num)
    out = u_t.conj().T @ (p_s @ (u_t @ vec))
    return [(2 * math.pi * m / N, complex(out[m])) for m in range(N)]


def trace_to_csv_rows(rows: list[tuple[float, complex]]) -> list[str]:
    lines = ["theta,re,im"]
    for theta, value in rows:
        lines.append(f"{theta!r},{value.real!r},{value.imag!r}")
    return lines
