"""Semigroup interpolation of commuting contraction tuples.

A validated commuting tuple {S_i} of contractions on a dim-n space,
together with a grid denominator N, defines an exact discrete semigroup
on the N^d-point torus grid tensored with the base space.  Evaluation at
a grid time t sends the basis vector at grid point t' to the basis
vector at t+t' (mod 1), applying the product of S_i raised to the power
selector kappa(t_i, t'_i) on the base factor.

Also here: the averaged compression of that evaluation, its closed
multilinear form, the lattice-sample blending operator, and the
quantitative error sweep that compares blends against a true matrix
semigroup exp(sum t_i A_i).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    InputError,
    _check_cap,
    _powers,
    _require_commuting,
    as_matrix,
    identity,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)
from .torus import GridTime

__all__ = [
    "ContractionTuple",
    "DiscretizedSemigroup",
    "BlendWeights",
    "kappa",
    "eval_discretized",
    "compress_discretized",
    "multilinear_compress",
    "semigroup_suite",
    "scaled_blend",
    "approx_error_sweep",
]


@dataclass(frozen=True)
class ContractionTuple:
    """A commuting d-tuple of contractions on a common dim-n space."""

    mats: tuple[np.ndarray, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if len(self.mats) < 1:
            raise InputError("a contraction tuple needs at least one operator")
        mats = tuple(as_matrix(m) for m in self.mats)
        object.__setattr__(self, "mats", mats)
        dim = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise InputError(
                    f"operator {i + 1} has shape {m.shape}, expected ({dim}, {dim})"
                )
            norm = op_norm(m)
            if norm > 1 + self.tol:
                raise InputError(
                    f"operator {i + 1} has norm {norm:.12g} > 1 + tol"
                )
        _require_commuting(mats, "operators", self.tol)

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def powers(self, axis: int, up_to: int) -> list[np.ndarray]:
        """[S_axis^0, ..., S_axis^up_to] by repeated multiplication."""
        return _powers(self.mats[axis], up_to)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "dim": self.dim,
            "matrices": [matrix_to_json(m) for m in self.mats],
        }

    @classmethod
    def from_json(cls, obj, tol: float = DEFAULT_TOL) -> "ContractionTuple":
        try:
            mats = tuple(matrix_from_json(m) for m in obj["matrices"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed tuple JSON: {exc}") from exc
        tup = cls(mats, tol=tol)
        if "d" in obj and int(obj["d"]) != tup.d:
            raise InputError(f"tuple JSON declares d={obj['d']} but has {tup.d} matrices")
        if "dim" in obj and int(obj["dim"]) != tup.dim:
            raise InputError(
                f"tuple JSON declares dim={obj['dim']} but matrices are {tup.dim}x{tup.dim}"
            )
        return tup


def kappa(num: int, num_prime: int, N: int) -> int:
    """Power selector floor(t) + [frac(t) + frac(t') >= 1] for t=num/N, t'=num_prime/N.

    Pure integer arithmetic; the tie frac(t)+frac(t') == 1 takes the +1 branch.
    """
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    if num < 0 or num_prime < 0:
        raise InputError("kappa requires nonnegative numerators")
    return num // N + (1 if (num % N) + (num_prime % N) >= N else 0)


@dataclass(frozen=True)
class DiscretizedSemigroup:
    """The exact discrete semigroup of a contraction tuple on the 1/N grid."""

    base: ContractionTuple
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"N must be >= 1, got {self.N}")
        _check_cap(self.total_dim, self.total_dim)

    @property
    def total_dim(self) -> int:
        return self.N**self.base.d * self.base.dim


def _check_time(semi: DiscretizedSemigroup, t: GridTime) -> None:
    if t.N != semi.N:
        raise InputError(
            f"grid time has denominator {t.N}, semigroup uses {semi.N}"
        )
    if t.d != semi.base.d:
        raise InputError(f"grid time has arity {t.d}, tuple has d={semi.base.d}")


def eval_discretized(semi: DiscretizedSemigroup, t: GridTime) -> np.ndarray:
    """Matrix of the semigroup at grid time t.

    Built structurally: a torus permutation of grid points with one
    dim x dim operator block per source point.  The block for source
    point m is the product over axes of S_i^kappa(t_i, m_i/N).
    """
    _check_time(semi, t)
    N, d, dim = semi.N, semi.base.d, semi.base.dim

    # Per axis only two powers occur: floor(t_i) and floor(t_i)+1.
    axis_powers = [semi.base.powers(i, fl + 1) for i, fl in enumerate(t.floors)]
    block_cache: dict[tuple[int, ...], np.ndarray] = {}

    def block(exps: tuple[int, ...]) -> np.ndarray:
        cached = block_cache.get(exps)
        if cached is None:
            cached = identity(dim)
            for i, k in enumerate(exps):
                cached = cached @ axis_powers[i][k]
            block_cache[exps] = cached
        return cached

    out = np.zeros((semi.total_dim, semi.total_dim), dtype=np.complex128)
    for source in itertools.product(range(N), repeat=d):
        exps = tuple(kappa(t.nums[i], source[i], N) for i in range(d))
        target = tuple((source[i] + t.nums[i]) % N for i in range(d))
        src_idx = 0
        tgt_idx = 0
        for i in range(d):
            src_idx = src_idx * N + source[i]
            tgt_idx = tgt_idx * N + target[i]
        out[
            tgt_idx * dim : (tgt_idx + 1) * dim,
            src_idx * dim : (src_idx + 1) * dim,
        ] = block(exps)
    return out


def compress_discretized(semi: DiscretizedSemigroup, t: GridTime) -> np.ndarray:
    """Compression of the evaluation by the normalised all-ones embedding.

    Computed as the average of all dim x dim blocks of the assembled
    evaluation matrix; the closed multilinear form is deliberately not
    used here so the two routes stay independent.
    """
    _check_time(semi, t)
    N, d, dim = semi.N, semi.base.d, semi.base.dim
    grid = N**d
    full = eval_discretized(semi, t)
    blocks = full.reshape(grid, dim, grid, dim)
    return blocks.sum(axis=(0, 2)) / grid


def multilinear_compress(tup: ContractionTuple, t) -> np.ndarray:
    """Product over axes of (1-frac(t_i)) S_i^floor(t_i) + frac(t_i) S_i^(floor(t_i)+1).

    Accepts arbitrary finite nonnegative real times.
    """
    times = [float(x) for x in t]
    if len(times) != tup.d:
        raise InputError(f"time vector has arity {len(times)}, tuple has d={tup.d}")
    if any(not math.isfinite(x) or x < 0 for x in times):
        raise InputError(f"times must be finite and nonnegative: {times}")
    out = identity(tup.dim)
    for i, x in enumerate(times):
        fl = math.floor(x)
        fr = x - fl
        pows = tup.powers(i, fl + 1)
        out = out @ ((1 - fr) * pows[fl] + fr * pows[fl + 1])
    return out


def semigroup_suite(tup: ContractionTuple, N: int, max_num: int) -> dict:
    """Property suite of the grid semigroup of ``tup`` on the times
    {0, ..., max_num - 1}^d / N.

    Checks the homomorphism T(s)T(t) = T(s+t), contractivity, the
    interpolation T(n e_i) = 1 (x) S_i^n for n = 0..2N, commutation of the
    axis evaluations, and the compression identity against the closed
    multilinear form.  Returns the worst deviation of each check, its
    pass flag, and whether all passed.
    """
    semi = DiscretizedSemigroup(tup, N)
    if max_num < 1:
        raise InputError(f"max_num must be >= 1, got {max_num}")
    d = tup.d
    times = list(itertools.product(range(max_num), repeat=d))
    evals = {nums: eval_discretized(semi, GridTime(N, nums)) for nums in times}

    # The interpolation times n N e_i, each with the (axis, n) pairs it
    # checks (the origin checks every axis).
    eye_grid = identity(N**d)
    interp_times: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i in range(d):
        for n in range(2 * N + 1):
            nums = tuple(n * N if j == i else 0 for j in range(d))
            interp_times.setdefault(nums, []).append((i, n))

    def interp_deviation(nums, value) -> float:
        """Worst ||T(nums) - 1 (x) S_i^n|| over the checks at nums; marks them done."""
        return max(
            (
                op_norm(value - np.kron(eye_grid, np.linalg.matrix_power(tup.mats[i], n)))
                for i, n in interp_times.pop(nums, ())
            ),
            default=0.0,
        )

    # The homomorphism check streams over the sums u = s + t: T(u) is
    # evaluated once (or read from the suite times), compared with every
    # pair of suite times summing to u, and dropped, so only the suite
    # times stay alive.  Interpolation times met on the way are checked
    # against T(u) there.
    hom_dev = 0.0
    interp_dev = 0.0
    for u in itertools.product(range(2 * max_num - 1), repeat=d):
        t_u = evals.get(u)
        if t_u is None:
            t_u = eval_discretized(semi, GridTime(N, u))
        summands = (range(max(0, x - max_num + 1), min(x, max_num - 1) + 1) for x in u)
        for s in itertools.product(*summands):
            t = tuple(x - y for x, y in zip(u, s))
            hom_dev = max(hom_dev, float(np.abs(evals[s] @ evals[t] - t_u).max()))
        interp_dev = max(interp_dev, interp_deviation(u, t_u))
    for nums in list(interp_times):
        lhs = eval_discretized(semi, GridTime(N, nums))
        interp_dev = max(interp_dev, interp_deviation(nums, lhs))

    contraction_dev = max(max(0.0, op_norm(evals[t]) - 1.0) for t in times)

    comm_dev = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            for a in range(1, max_num):
                for b in range(1, max_num):
                    e_i = evals[tuple(a if k == i else 0 for k in range(d))]
                    e_j = evals[tuple(b if k == j else 0 for k in range(d))]
                    comm_dev = max(comm_dev, float(np.abs(e_i @ e_j - e_j @ e_i).max()))

    compress_dev = 0.0
    for nums in times:
        t = GridTime(N, nums)
        lhs = compress_discretized(semi, t)
        rhs = multilinear_compress(tup, t.values())
        compress_dev = max(compress_dev, op_norm(lhs - rhs))

    checks = {
        "homomorphism": hom_dev <= 1e-10,
        "contractivity": contraction_dev <= 1e-10,
        "interpolation": interp_dev <= 1e-12,
        "commutation": comm_dev <= 1e-10,
        "compression_identity": compress_dev <= 1e-12,
    }
    return {
        "deviations": {
            "homomorphism": hom_dev,
            "contractivity": contraction_dev,
            "interpolation": interp_dev,
            "commutation": comm_dev,
            "compression_identity": compress_dev,
        },
        "checks": checks,
        "passed": all(checks.values()),
    }


@dataclass(frozen=True)
class BlendWeights:
    """One corner of the blending lattice cell and its weight."""

    e: tuple[int, ...]
    weight: float


def scaled_blend(samples, eps: float, t):
    """Blend lattice samples of a semigroup at the corners around t.

    ``samples`` maps integer lattice vectors n to the operator at time
    n*eps; the sample at the origin must be the identity.  Returns
    ``(matrix, weights)`` where the weights are the per-corner convex
    coefficients prod_i w_i(e_i) with w_i(0) = 1 - frac(t_i/eps) and
    w_i(1) = frac(t_i/eps); they sum to 1.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be finite and positive, got {eps}")
    times = [float(x) for x in t]
    d = len(times)
    if d < 1:
        raise InputError("blend needs at least one time coordinate")
    if any(not math.isfinite(x) or x < 0 for x in times):
        raise InputError(f"times must be finite and nonnegative: {times}")
    if not math.isfinite(max(times) / eps):
        raise InputError(f"t / eps overflows for eps={eps}")

    origin = _lookup_sample(samples, (0,) * d)
    dim = origin.shape[0]
    if float(np.abs(origin - identity(dim)).max()) > 1e-12:
        raise InputError("sample at the origin must be the identity")

    cells = [math.floor(x / eps) for x in times]
    fracs = np.array([[x / eps - c for x, c in zip(times, cells)]])
    out = np.zeros((dim, dim), dtype=np.complex128)
    weights = []
    corner_weights = _corner_weights(fracs)[0].tolist()
    for e, weight in zip(itertools.product((0, 1), repeat=d), corner_weights):
        corner = tuple(cells[i] + e[i] for i in range(d))
        weights.append(BlendWeights(e=e, weight=weight))
        if weight == 0.0:
            continue
        sample = _lookup_sample(samples, corner)
        if sample.shape != (dim, dim):
            raise InputError(
                f"sample at {corner} has shape {sample.shape}, expected ({dim}, {dim})"
            )
        out += weight * sample
    return out, weights


def _corners(d: int) -> np.ndarray:
    """The 2^d corner offsets e of a lattice cell, in itertools.product order."""
    return np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int64)


def _corner_weights(fracs: np.ndarray) -> np.ndarray:
    """Blend weights prod_i (e_i ? frac_i : 1 - frac_i), shape (P, 2^d).

    Row p holds the weights of the corners ``_corners(d)`` of the cell
    whose fractional offsets are ``fracs[p]``; the product runs over the
    axes in order.
    """
    corners = _corners(fracs.shape[1])
    weights = np.ones((fracs.shape[0], len(corners)))
    for i in range(fracs.shape[1]):
        frac = fracs[:, i, None]
        weights = weights * np.where(corners[:, i], frac, 1 - frac)
    return weights


def _lookup_sample(samples, key: tuple[int, ...]) -> np.ndarray:
    try:
        value = samples[key]
    except KeyError as exc:
        raise InputError(f"missing lattice sample at {key}") from exc
    return as_matrix(value)


# Grid points per stacked step of the sweep: its temporaries hold at most
# 128 * 2^d matrices whatever the grid size.
_SWEEP_CHUNK = 128


def approx_error_sweep(generators, eps_list, time_grid, tol: float = DEFAULT_TOL):
    """Sup-error of lattice blends against the true semigroup exp(sum t_i A_i).

    ``generators`` are commuting matrices whose semigroup stays contractive
    on the swept time range; ``time_grid`` is an iterable of d-vectors.
    Returns [{"eps": e, "sup_error": err}, ...] in the order of eps_list.

    Batched: the true values are computed once per grid point, and each
    chunk of points is blended from its distinct corner samples with
    stacked arithmetic.  Every operation is the one ``scaled_blend`` and a
    per-matrix ``matrix_exp`` would do, in the same order, so the errors
    are bit-identical to the per-point loop.
    """
    gens = [as_matrix(g) for g in generators]
    d = len(gens)
    if d < 1:
        raise InputError("need at least one generator")
    dim = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (dim, dim):
            raise InputError(f"generator {i + 1} has shape {g.shape}")
    _require_commuting(gens, "generators", tol)

    grid = [tuple(float(x) for x in point) for point in time_grid]
    if not grid:
        raise InputError("time grid is empty")
    if any(len(p) != d for p in grid):
        raise InputError("time grid arity does not match the generators")
    times = np.array(grid)
    bad = np.flatnonzero(~(np.isfinite(times) & (times >= 0)).all(axis=1))
    if len(bad):
        raise InputError(f"times must be finite and nonnegative: {list(grid[bad[0]])}")
    t_max = float(times.max())
    eps_values = [float(eps) for eps in eps_list]
    for eps in eps_values:
        if not (math.isfinite(eps) and eps > 0):
            raise InputError(f"eps values must be finite and positive, got {eps}")
        if not math.isfinite(t_max / eps):
            raise InputError(f"t_max / eps overflows for eps={eps}")
    for i, g in enumerate(gens):
        norm = op_norm(matrix_exp(g, t_max))
        if norm > 1 + tol:
            raise InputError(
                f"generator {i + 1} is not contractive on the grid "
                f"(norm of exp(t_max*A) is {norm:.6g})"
            )

    def true_values(points: np.ndarray) -> np.ndarray:
        """exp(sum_i t_i A_i) for each row t of ``points``."""
        return matrix_exp(sum(points[:, i, None, None] * gens[i] for i in range(d)))

    chunks = [slice(j, j + _SWEEP_CHUNK) for j in range(0, len(times), _SWEEP_CHUNK)]
    exact = np.concatenate([true_values(times[c]) for c in chunks])
    corners = _corners(d)
    report = []
    for eps in eps_values:
        sup_error = 0.0
        for c in chunks:
            scaled = times[c] / eps
            cells = np.floor(scaled)  # exact integers as floats: no overflow
            weights = _corner_weights(scaled - cells)
            corner_cells = (cells[:, None, :] + corners).reshape(-1, d)
            distinct, which = np.unique(corner_cells, axis=0, return_inverse=True)
            which = which.reshape(len(cells), len(corners))
            samples = true_values(distinct * eps)
            blend = np.zeros((len(cells), dim, dim), dtype=np.complex128)
            for j in range(len(corners)):
                blend += weights[:, j, None, None] * samples[which[:, j]]
            errors = np.linalg.norm(blend - exact[c], 2, axis=(-2, -1))
            sup_error = max(sup_error, float(errors.max()))
        report.append({"eps": eps, "sup_error": sup_error})
    return report
