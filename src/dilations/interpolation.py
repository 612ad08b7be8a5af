"""Semigroup interpolation of commuting contraction tuples.

A validated commuting tuple {S_i} of contractions on a dim-n space,
together with a grid denominator N, defines an exact discrete semigroup
on the N^d-point torus grid tensored with the base space.  Evaluation at
a grid time t moves grid point m to m + t (mod 1) and acts there on the
base factor by the block prod_i S_i^(floor(t_i) + carry_i), carry_i = 1
when frac(t_i) + m_i/N >= 1.  So T(t) is one target index and one
exponent row floor(t) + carry(m) per grid point, at most 2^d distinct
rows, one per carry pattern; every routine here works on that form, and
``linalg._power_products`` alone turns exponent rows into blocks.

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
    _batches,
    _check_cap,
    _integer,
    _listed,
    _matrix_payload,
    _max_op_norm,
    _op_norms,
    _power_products,
    _require_commuting,
    as_matrix,
    identity,
    matrix_exp,
    matrix_from_json,
    max_entries,
)
from .torus import GridTime, _grid_motion

__all__ = [
    "ContractionTuple",
    "DiscretizedSemigroup",
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
        _require_contractions(np.stack(mats)[None], self.tol)

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def _payload(self) -> dict:
        """The JSON form with each matrix's data as an array (see ``_matrix_payload``)."""
        return {
            "d": self.d,
            "dim": self.dim,
            "matrices": [_matrix_payload(m) for m in self.mats],
        }

    def to_json(self) -> dict:
        return _listed(self._payload())

    @classmethod
    def from_json(cls, obj, tol: float = DEFAULT_TOL) -> "ContractionTuple":
        try:
            mats = tuple(matrix_from_json(m) for m in obj["matrices"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed tuple JSON: {exc}") from exc
        tup = cls(mats, tol=tol)
        if "d" in obj and _integer(obj["d"], "tuple d") != tup.d:
            raise InputError(f"tuple JSON declares d={obj['d']} but has {tup.d} matrices")
        if "dim" in obj and _integer(obj["dim"], "tuple dim") != tup.dim:
            raise InputError(
                f"tuple JSON declares dim={obj['dim']} but matrices are {tup.dim}x{tup.dim}"
            )
        return tup


def _require_contractions(stack: np.ndarray, tol: float) -> None:
    """Raise unless every tuple of the stack (K, d, n, n) is a commuting
    tuple of contractions to within tol: each member's norm at most
    1 + tol, by one ``_max_op_norm`` call, then ``_require_commuting``.
    Only a failing stack is normed whole, for the message, which names the
    first member over.  This is the check ``ContractionTuple`` runs on
    itself (K = 1); ``vn_search`` runs it on its random tuples without
    building one per trial."""
    if not _max_op_norm(stack, 1 + tol):
        norms = _op_norms(stack)
        k, i = np.argwhere(norms > 1 + tol)[0]
        raise InputError(f"operator {i + 1} has norm {norms[k, i]:.12g} > 1 + tol")
    _require_commuting(stack, "operators", tol)


@dataclass(frozen=True)
class DiscretizedSemigroup:
    """The exact discrete semigroup of a contraction tuple on the 1/N grid."""

    base: ContractionTuple
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"N must be >= 1, got {self.N}")

    @property
    def total_dim(self) -> int:
        return self.N**self.base.d * self.base.dim


def _check_floor(floor: int, dim: int) -> None:
    """Refuse walking to S^(floor + 1) of a dim x dim S when (floor + 1) dim^2
    exceeds the size cap; checked on the Python int, before it meets numpy."""
    if (floor + 1) * dim * dim > max_entries():
        raise InputError(
            f"time with floor {floor} needs powers up to {floor + 1} of a {dim}x{dim} "
            f"matrix, beyond the size cap of {max_entries()} entries"
        )


def _grid_forms(semi: DiscretizedSemigroup, nums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(targets, exponents) of the semigroup at K grid times, given as a
    (K, d) int64 array of numerators: arrays (K, N^d) and (K, N^d, d).

    Grid points are indexed lexicographically, axis 1 slowest.  At time t,
    point m goes to targets[m], the index of m + t (mod 1), and carries
    the block prod_i S_i^exponents[m, i], exponents[m] = floor(t) +
    carry(m); targets and carries are the grid motion of
    ``torus._grid_motion``.  With a the number of axes where
    frac(t_i) > 0, a time's rows take 2^a distinct values, each at some
    grid point.  ``_check_floor`` bounds the largest floor first.
    """
    _check_floor(int(nums.max()) // semi.N, semi.base.dim)
    targets, carries = _grid_motion(semi.N, nums % semi.N)
    return targets, carries + (nums // semi.N)[:, None, :]


def _grid_form(semi: DiscretizedSemigroup, t: GridTime) -> tuple[np.ndarray, np.ndarray]:
    """(targets, exponents) of the semigroup at grid time t: the one-time
    case of ``_grid_forms``, its floor bounded on the Python ints before
    they meet numpy."""
    if t.N != semi.N:
        raise InputError(f"grid time has denominator {t.N}, semigroup uses {semi.N}")
    if t.d != semi.base.d:
        raise InputError(f"grid time has arity {t.d}, tuple has d={semi.base.d}")
    _check_floor(max(t.nums) // semi.N, semi.base.dim)
    targets, exponents = _grid_forms(semi, np.array([t.nums], dtype=np.int64))
    return targets[0], exponents[0]


def _distinct_rows(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, picks): the distinct rows of a 2-d integer array in
    lexicographic order, and the index in ``rows`` of each input row, as
    ``np.unique(exponents, axis=0, return_inverse=True)`` gives them.

    One ``lexsort`` over the columns and a comparison of neighbouring
    sorted rows, without ``np.unique``'s structured-dtype sort.  Rows are
    compared one sorted column at a time and runs numbered by ``np.repeat``,
    a fraction of the time of a row-wise ``any`` and a ``cumsum``.
    """
    order = np.lexsort(exponents.T[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in exponents.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    firsts = np.flatnonzero(starts)
    picks = np.empty(len(order), dtype=np.intp)
    picks[order] = np.repeat(np.arange(len(firsts)), np.diff(firsts, append=len(order)))
    return exponents[order[firsts]], picks


def eval_discretized(semi: DiscretizedSemigroup, t: GridTime) -> np.ndarray:
    """Dense matrix of the semigroup at grid time t: the blocks of its
    grid form scattered to (target, source) block positions, capped at its
    total_dim^2 entries."""
    _check_cap(semi.total_dim, semi.total_dim)
    targets, exponents = _grid_form(semi, t)
    rows, picks = _distinct_rows(exponents)
    grid, dim = len(targets), semi.base.dim
    out = np.zeros((grid, dim, grid, dim), dtype=np.complex128)
    out[targets, :, np.arange(grid), :] = _power_products(semi.base.mats, rows)[picks]
    return out.reshape(semi.total_dim, semi.total_dim)


def compress_discretized(semi: DiscretizedSemigroup, t: GridTime) -> np.ndarray:
    """Compression of the evaluation by the normalised all-ones embedding.

    Computed as the mean of the N^d blocks of the grid form; the closed
    multilinear form is deliberately not used here so the two routes stay
    independent.  The blocks are capped at N^d dim^2 entries.
    """
    _check_cap(semi.N**semi.base.d * semi.base.dim, semi.base.dim)
    rows, picks = _distinct_rows(_grid_form(semi, t)[1])
    return _power_products(semi.base.mats, rows)[picks].mean(axis=0)


def multilinear_compress(tup: ContractionTuple, t) -> np.ndarray:
    """Product over axes of (1-frac(t_i)) S_i^floor(t_i) + frac(t_i) S_i^(floor(t_i)+1).

    ``t`` is one time vector of arity d, or a (K, d) stack of them, for
    which the result is the (K, dim, dim) stack of their values.  Each
    axis takes its floor and ceiling powers from one ``_power_products``
    call; each member is multiplied across the axes from the identity in
    axis order, so it is bit-identical to its one-time call.
    Accepts finite nonnegative real times, floors bounded as in ``_grid_form``.
    """
    times = np.array(t, dtype=float)
    single = times.ndim == 1
    stack = times[None] if single else times
    if stack.ndim != 2 or stack.shape[1] != tup.d:
        raise InputError(f"times of shape {times.shape} are not d={tup.d} vectors")
    if not (np.isfinite(times).all() and (times >= 0).all()):
        raise InputError(f"times must be finite and nonnegative: {times.tolist()}")
    if times.size:
        _check_floor(math.floor(times.max()), tup.dim)
    floors = np.floor(stack).astype(np.int64)
    out = identity(tup.dim)
    for s_i, x, fl in zip(tup.mats, stack.T, floors.T):
        low, high = _power_products([s_i], np.stack([fl, fl + 1])[..., None])
        fr = (x - fl)[:, None, None]
        out = out @ ((1 - fr) * low + fr * high)
    return out[0] if single else out


def _misfit(left: np.ndarray, right: np.ndarray, apart: np.ndarray) -> float:
    """Largest entry modulus of the dense difference of two grid operators
    whose k-th compared columns hold the blocks left[k] and right[k]: at
    one point where apart[k] is false, so the difference holds their
    difference, and at two points where it is true, so it holds both."""
    gaps = np.where(
        apart[:, None, None], np.maximum(np.abs(left), np.abs(right)), np.abs(left - right)
    )
    return float(gaps.max(initial=0.0))


def semigroup_suite(tup: ContractionTuple, N: int, max_num: int) -> dict:
    """Property suite of the grid semigroup of ``tup`` on the times
    {0, ..., max_num - 1}^d / N.

    Checks the homomorphism T(s)T(t) = T(s+t), contractivity, the
    interpolation T(n e_i) = 1 (x) S_i^n for n = 0..2N, commutation of the
    axis evaluations, and the compression identity against the closed
    multilinear form.  Returns the worst deviation of each check, its
    pass flag, and whether all passed; the limits are 1e-12 for
    interpolation and compression and 1e-10 for the others.

    The grid forms of all sum times s + t come from one ``_grid_forms``
    call; ``_power_products`` builds the table B of their distinct rows.
    T(s)T(t) moves point m to targets_s[targets_t[m]] with the block
    B[a] B[b] (a the row of s at targets_t[m], b that of t at m), and
    T(s+t) moves it to targets_{s+t}[m] with B[c].  Per ``_batches`` slice
    of s, within the size cap, the targets are compared exactly, in
    integers, and the distinct rows (a, b, c, apart) of the slice's index
    columns (``_distinct_rows``) give each B[a] B[b] - B[c] once.  Where the
    targets differ, the dense difference holds both blocks, and the
    deviation there is the larger entry modulus of the two (``_misfit``).
    Commutation reads the row quadruples and targets of its axis pairs the
    same way.  As T(t) is a permutation times a block diagonal, ||T(t)|| =
    max_m ||B_m||: contractivity takes the largest norm of the distinct
    blocks of the suite times by ``_max_op_norm``, which takes SVDs only of
    the blocks that can hold it, as do the interpolation and compression
    maxima.  Interpolation reads the grid forms of the times n N e_i,
    per ``_batches`` slice of them: each must move no grid point, checked
    in integers, and each of its distinct blocks is compared with S_i^n by
    ``np.linalg.matrix_power``, a route independent of ``_power_products``.
    """
    semi = DiscretizedSemigroup(tup, N)
    if max_num < 1:
        raise InputError(f"max_num must be >= 1, got {max_num}")
    d, dim = tup.d, tup.dim
    span = 2 * max_num - 1
    # The grid forms of every sum time, span^d stacks of N^d dim x dim blocks.
    _check_cap(span**d * N**d * dim, dim)
    targets, exponents = _grid_forms(semi, np.indices((span,) * d).reshape(d, -1).T)
    axes, powers = np.divmod(np.arange(d * (2 * N + 1)), 2 * N + 1)
    lifts = np.eye(d, dtype=np.int64)[axes] * (powers * N)[:, None]
    interp_dev, fixed = 0.0, True
    for part in _batches(len(lifts), N**d * dim * dim):
        lift_targets, lift_rows = _grid_forms(semi, lifts[part])
        fixed = fixed and bool((lift_targets == np.arange(N**d)).all())
        which = np.repeat(np.arange(len(lift_rows)), N**d)[:, None]
        pairs = _distinct_rows(np.hstack([which, lift_rows.reshape(-1, d)]))[0]
        exact = [np.linalg.matrix_power(tup.mats[i], n) for i, n in zip(axes[part], powers[part])]
        diffs = _power_products(tup.mats, pairs[:, 1:]) - np.stack(exact)[pairs[:, 0]]
        interp_dev = max(interp_dev, float(_max_op_norm(diffs)))

    table, picks = _distinct_rows(exponents.reshape(-1, d))
    blocks = _power_products(tup.mats, table)
    # In the smallest type that holds them: lexsort sorts 8- and 16-bit keys by radix.
    picks = picks.reshape(targets.shape).astype(np.min_scalar_type(len(table)))
    # The index of a suite time t among the sum times; the index of s + t
    # is that of s plus that of t, as no coordinate of s + t reaches span.
    strides = span ** np.arange(d - 1, -1, -1)
    times = np.indices((max_num,) * d).reshape(d, -1).T
    rows = times @ strides

    # Per slice of s, every (s, t, m): t's targets and rows, and s + t's,
    # four index columns and a dim x dim product per key.
    sources, hom_dev = targets[rows], 0.0
    for part in _batches(len(rows), sources.size * (dim * dim + 4)):
        s, sums = rows[part, None, None], rows[part, None] + rows
        sides = [picks[s, sources], picks[rows], picks[sums], targets[s, sources] != targets[sums]]
        keys = np.stack(np.broadcast_arrays(*sides), axis=-1).reshape(-1, 4)
        a, b, c, apart = _distinct_rows(keys)[0].T
        hom_dev = max(hom_dev, _misfit(blocks[a] @ blocks[b], blocks[c], apart.astype(bool)))

    held = np.unique(picks[rows])
    contraction_dev = max(0.0, float(_max_op_norm(blocks[held])) - 1.0)

    axis_rows = [[a * stride for a in range(1, max_num)] for stride in strides]
    pairs = [(x, y) for xs, ys in itertools.combinations(axis_rows, 2) for x in xs for y in ys]
    comm_dev = 0.0
    if pairs:
        xs, ys = np.array(pairs).T
        tx, ty = targets[xs], targets[ys]
        sides = [
            picks[xs[:, None], ty], picks[ys],  # T(x)T(y): B_x at T(y)'s target, then B_y
            picks[ys[:, None], tx], picks[xs],  # T(y)T(x)
            np.take_along_axis(tx, ty, 1) != np.take_along_axis(ty, tx, 1),
        ]
        p, q, r, u, apart = _distinct_rows(np.stack(sides, axis=-1).reshape(-1, 5))[0].T
        comm_dev = _misfit(blocks[p] @ blocks[q], blocks[r] @ blocks[u], apart.astype(bool))

    closed = multilinear_compress(tup, times / N)
    compress_dev = float(_max_op_norm(blocks[picks[rows]].mean(axis=1) - closed))

    deviations = {
        "homomorphism": hom_dev,
        "contractivity": contraction_dev,
        "interpolation": interp_dev,
        "commutation": comm_dev,
        "compression_identity": compress_dev,
    }
    limits = {"interpolation": 1e-12, "compression_identity": 1e-12}  # the others 1e-10
    checks = {name: dev <= limits.get(name, 1e-10) for name, dev in deviations.items()}
    checks["interpolation"] = checks["interpolation"] and fixed
    return {
        "deviations": deviations,
        "checks": checks,
        "passed": all(checks.values()),
    }


def scaled_blend(samples, eps: float, t):
    """Blend lattice samples of a semigroup at the corners around t.

    ``samples`` maps integer lattice vectors n to the operator at time
    n*eps; the sample at the origin must be the identity.  With cell
    c_i = floor(t_i / eps) and offset f_i = t_i / eps - c_i, returns the sum
    over e in {0, 1}^d of w(e) * sample(c + e), w(e) = prod_i (e_i ? f_i :
    1 - f_i) in axis order; corners of weight 0 need no sample.

    Public as the one-point definition that ``approx_error_sweep`` computes
    in product form: the per-point reference route of the tests is built on
    it, and the benchmark's tracer times it by name.
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
    fracs = [x / eps - c for x, c in zip(times, cells)]
    out = np.zeros((dim, dim), dtype=np.complex128)
    for e in itertools.product((0, 1), repeat=d):
        weight = 1.0
        for f, e_i in zip(fracs, e):
            weight *= f if e_i else 1 - f
        if weight == 0.0:
            continue
        corner = tuple(c + e_i for c, e_i in zip(cells, e))
        sample = _lookup_sample(samples, corner)
        if sample.shape != (dim, dim):
            raise InputError(
                f"sample at {corner} has shape {sample.shape}, expected ({dim}, {dim})"
            )
        out += weight * sample
    return out


def _lookup_sample(samples, key: tuple[int, ...]) -> np.ndarray:
    try:
        value = samples[key]
    except KeyError as exc:
        raise InputError(f"missing lattice sample at {key}") from exc
    return as_matrix(value)


def approx_error_sweep(generators, eps_list, axes, tol: float = DEFAULT_TOL):
    """Sup-error of lattice blends against the true semigroup exp(sum t_i A_i).

    ``generators`` are commuting dissipative matrices A_i, and ``axes``
    holds one sequence of times per generator; the sweep runs over the
    product grid axes[0] x ... x axes[d-1].  Returns
    [{"eps": e, "sup_error": err}, ...] in the order of eps_list, err being
    the largest 2-norm of blend(t) - exp(sum t_i A_i) over the grid, with
    blend(t) as in ``scaled_blend``.

    Contract: every exp(s A_i), s >= 0, is a contraction.  By the
    Lumer-Phillips theorem that holds exactly when the Hermitian part
    (A_i + A_i*) / 2 has no eigenvalue above 0, so one stacked ``eigvalsh``
    checks it, and a generator whose largest eigenvalue exceeds tol is
    refused, whatever the axes.  The grid's prod_i len(axes[i]) dim x dim
    values, which the sweep holds at once, are capped by ``max_entries()``.

    Product form: with c_i, f_i the cell and offset of t_i / eps, blend(t)
    = prod_i [(1 - f_i) exp(c_i eps A_i) + f_i exp((c_i + 1) eps A_i)] and
    exp(sum t_i A_i) = prod_i exp(t_i A_i) for commuting A_i.  Each axis's
    factors are exponentiated per time s, so ``matrix_exp``'s norm cap
    applies to each s A_i, not to the sum, and the factors are multiplied
    across the axes by broadcasting.  The exact values of all axes are one
    stacked ``matrix_exp`` call.  An eps's distinct cell ends that are the
    same floats as a time of the step before (the coordinates, for the
    first eps) reuse that exponential; the rest of all axes are one more
    call, or none, split into calls within the size cap where they exceed
    it.  So each distinct time is exponentiated once per sweep while it
    recurs from step to step, as the cell ends of a halving eps list do,
    and at most two eps's samples are held, as many as two per coordinate
    of each axis for each.  A stack member comes out as a call on it alone,
    and a reused one is the same member, so the report does not depend on
    the stacking or the reuse.  sup_error is ``_max_op_norm`` of
    the error matrices, which takes the SVD only of those whose Frobenius
    norm, within a rounding margin, reaches the largest column norm among
    them; the others cannot hold the sup.

    Against the 2^d-corner route that exponentiates sums, each sup_error
    agrees within rho + sum_{i<j} T_i T_j ||[A_i, A_j]||, T_i = max t_i + eps:
    half the commutator term for each of blend and true value, by
    ||exp(X + Y) - exp(X) exp(Y)|| <= ||[X, Y]|| / 2 when every exp(s A),
    s >= 0, A a nonnegative combination of the A_i, is a contraction (so
    for dissipative A_i); commutation is only checked to ``tol``.  Rounding:
    rho = 32 (d + 1) n u (1 + sum_i T_i ||A_i||), n the dimension and u the
    unit roundoff, for scaling and squaring (error ~ n u ||t A||) and a few
    n u per product and blend.
    """
    gens = [as_matrix(g) for g in generators]
    d = len(gens)
    if d < 1:
        raise InputError("need at least one generator")
    dim = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (dim, dim):
            raise InputError(f"generator {i + 1} has shape {g.shape}")
    coords = [np.asarray(axis, dtype=float) for axis in axes]
    if len(coords) != d:
        raise InputError(f"{len(coords)} time axes for {d} generators")
    for i, tau in enumerate(coords):
        if tau.ndim != 1 or len(tau) == 0:
            raise InputError(f"time axis {i + 1} must be a nonempty sequence of times")
        bad = tau[~(np.isfinite(tau) & (tau >= 0))]
        if len(bad):
            raise InputError(f"times must be finite and nonnegative: axis {i + 1} has {bad[0]}")
    _check_cap(math.prod(len(tau) for tau in coords) * dim, dim)
    stack = np.stack(gens)
    _require_commuting(stack, "generators", tol)
    t_max = max(float(tau.max()) for tau in coords)
    eps_values = [float(eps) for eps in eps_list]
    for eps in eps_values:
        if not (math.isfinite(eps) and eps > 0):
            raise InputError(f"eps values must be finite and positive, got {eps}")
        if not math.isfinite(t_max / eps):
            raise InputError(f"t_max / eps overflows for eps={eps}")
    # Where A + A* overflows its eigenvalues are NaN: they fail the check, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        tops = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2)[:, -1]
    failing = np.flatnonzero(~(tops <= tol))
    if len(failing):
        i = failing[0]
        raise InputError(
            f"generator {i + 1} is not dissipative "
            f"(largest eigenvalue of (A + A*)/2 is {tops[i]:.6g})"
        )

    def across_axes(tables) -> np.ndarray:
        """tables[0][k_0] @ ... @ tables[d-1][k_{d-1}] at every grid index k."""
        out = tables[0]
        for table in tables[1:]:
            out = out[..., None, :, :] @ table
        return out

    def exponentials(times, held) -> list[np.ndarray]:
        """exp(s A_i) for s in times[i]: from axis i's ``held`` sorted times
        and values where s is one of those floats, the rest of every axis in
        one stacked ``matrix_exp`` call per size-cap batch of members."""
        looked = []
        for s, (known, _) in zip(times, held):
            at = np.searchsorted(known, s)
            hit = at < len(known)
            hit[hit] = known[at[hit]] == s[hit]
            looked.append((at, hit))
        sizes = [int((~hit).sum()) for _, hit in looked]
        fresh = np.concatenate([s[~hit] for s, (_, hit) in zip(times, looked)])
        members = fresh[:, None, None] * np.repeat(stack, sizes, axis=0)
        for part in _batches(len(members), dim * dim):
            members[part] = matrix_exp(members[part])
        out = [np.empty((len(s), dim, dim), dtype=members.dtype) for s in times]
        news = np.split(members, np.cumsum(sizes)[:-1])
        for samples, (at, hit), (_, values), new in zip(out, looked, held, news):
            samples[hit], samples[~hit] = values[at[hit]], new
        return out

    values = exponentials(coords, [(np.empty(0), np.empty((0, dim, dim)))] * d)
    exact = across_axes(values)
    orders = [np.argsort(tau) for tau in coords]
    held = [(tau[order], v[order]) for tau, v, order in zip(coords, values, orders)]
    report = []
    for eps in eps_values:
        times, halves, fracs = [], [], []
        for tau in coords:
            scaled = tau / eps
            cells = np.floor(scaled)  # exact integers as floats: no overflow
            ends, which = np.unique(np.concatenate([cells, cells + 1]), return_inverse=True)
            times.append(ends * eps)
            halves.append(which.reshape(2, -1))  # each coordinate's cell start, end
            fracs.append((scaled - cells)[:, None, None])
        held = list(zip(times, exponentials(times, held)))
        blends = [
            (1 - frac) * samples[low] + frac * samples[high]
            for (_, samples), (low, high), frac in zip(held, halves, fracs)
        ]
        errors = across_axes(blends) - exact
        report.append({"eps": eps, "sup_error": float(_max_op_norm(errors))})
    return report
