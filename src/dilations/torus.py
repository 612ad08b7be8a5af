"""Exact grid motion on the discretised torus.

On the grid with denominator ``N`` in ``d`` coordinates, the Koopman
rotation U(t) is the point map m -> m + t (mod 1) and the indicator
projection P(t) keeps the points that do not carry, those with
m_i/N + frac(t_i) < 1.  ``_grid_motion`` gives both as index arithmetic,
one target index and one carry bit per axis for each grid point, for a
stack of times at once; the grid semigroup of ``interpolation`` and the
commutation relation P(s)U(t) = U(t)Q(s,t) checked here both read it.
No matrix is built: every operator here is a permutation or a 0/1
diagonal, so the relation is compared entry for entry at tolerance zero.

Basis enumeration of the grid is lexicographic with axis 1 slowest;
this fixes the Kronecker factor order everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import InputError, _batches, _check_cap

__all__ = [
    "GridTime",
    "bscr_check",
    "bscr_trace",
]


@dataclass(frozen=True)
class GridTime:
    """A vector of exact rational times k_i/N with one shared denominator."""

    N: int
    nums: tuple[int, ...]

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"grid denominator must be >= 1, got {self.N}")
        object.__setattr__(self, "nums", tuple(map(int, self.nums)))
        if not self.nums:
            raise InputError("grid time needs at least one coordinate")
        if min(self.nums) < 0:
            raise InputError(f"grid time numerators must be nonnegative: {self.nums}")

    @property
    def d(self) -> int:
        return len(self.nums)

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


def _grid_motion(N: int, frac_nums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(targets, carries) of the rotations m -> m + t (mod 1) of the grid
    for K times at once, given by their fractional numerators
    ``frac_nums`` (K, d): arrays (K, N^d) and (K, N^d, d).

    Grid points are indexed lexicographically, axis 1 slowest.  Under
    time k, point m goes to targets[k, m], the index of m + t (mod 1), and
    carries[k, m, i] is m_i + frac_nums[k, i] >= N: whether axis i wraps
    around.  ``~carries[k, :, i]`` is the diagonal of the indicator
    projection P(t_i) on axis i.
    """
    d = frac_nums.shape[-1]
    strides = N ** np.arange(d - 1, -1, -1)
    # (K, N^d, d) coordinates of every point, each moved by its frac(t).
    moved = np.arange(N**d)[:, None] // strides % N + frac_nums[:, None, :]
    return moved % N @ strides, moved >= N


def _q_diagonal(keep: np.ndarray, s_frac: np.ndarray, t_frac: np.ndarray) -> np.ndarray:
    """Diagonals of Q(s,t), the right-hand branch operator of the relation
    (d=1), for pairs of fractional numerators, keep[k] the diagonal of
    P(k/N): 1 - (P(t) - P(s+t)) where frac(s) + frac(t) < 1, else P(s+t) - P(t)."""
    N = len(keep)
    branch = (s_frac + t_frac < N).astype(np.int8)[:, None]
    return branch - keep[t_frac] + keep[(s_frac + t_frac) % N]


def bscr_check(N: int, s_num, t_num) -> float:
    """Max-entry deviation of P(s)U(t) from U(t)Q(s,t); exactly 0 on the grid.

    U(t) sends basis vector m to targets[m] and P(s), Q(s,t) are
    diagonal, so both sides hold one entry per column, at row targets[m]:
    keep_s[targets[m]] on the left and Q(s,t)[m, m] on the right.

    ``s_num`` and ``t_num`` broadcast as integer arrays; the result is the
    largest deviation over their pairs.  The relation reads s and t only
    mod N, so each distinct pair (s mod N, t mod N) is compared once, from
    one grid motion of the N fractional times, in chunks within the cap.
    """
    s_num, t_num = np.asarray(s_num), np.asarray(t_num)
    if (s_num < 0).any() or (t_num < 0).any():
        raise InputError("grid numerators must be nonnegative")
    _check_cap(N * N, f"the {N}x{N} grid motion table")
    pairs = np.zeros((N, N), dtype=bool)
    pairs[s_num % N, t_num % N] = True
    s_frac, t_frac = np.nonzero(pairs)
    targets, carries = _grid_motion(N, np.arange(N)[:, None])
    keep = ~carries[..., 0]
    worst = 0
    for part in _batches(len(s_frac), N):
        s, t = s_frac[part], t_frac[part]
        deviation = keep[s[:, None], targets[t]] - _q_diagonal(keep, s, t)
        worst = max(worst, np.abs(deviation).max())
    return float(worst)


def bscr_trace(N: int, s_num: int, t_num: int, f) -> list[tuple[float, complex]]:
    """Rows (theta_m, value_m) of U(t)* P(s) U(t) f on the grid theta_m = 2*pi*m/N.

    The result is f with the rotated indicator window zeroed out; the window
    boundaries sit at 2*pi*(1 - frac(t)) and 2*pi*(1 - frac(s+t)).
    """
    vec = np.asarray(f, dtype=np.complex128).ravel()
    if vec.shape[0] != N:
        raise InputError(f"trace vector has length {vec.shape[0]}, expected {N}")
    # Row 0 moves by t; row 1's non-carrying points are the diagonal of P(s).
    targets, carries = _grid_motion(N, np.array([[t_num % N], [s_num % N]]))
    out = np.where(~carries[1, targets[0], 0], vec, 0.0)
    return [(2 * math.pi * m / N, complex(out[m])) for m in range(N)]


def trace_to_csv_rows(rows: list[tuple[float, complex]]) -> list[str]:
    lines = ["theta,re,im"]
    for theta, value in rows:
        lines.append(f"{theta!r},{value.real!r},{value.imag!r}")
    return lines
