"""Power dilations and von Neumann inequality certification.

The checker compares the operator norm of a polynomial in a commuting
contraction tuple against a certified upper bound for the supremum of
the polynomial's modulus on the d-torus.  The bound is a lattice
maximum plus an angular Lipschitz pad, or the exact supremum sum
|c_alpha| where the exponent differences are independent, so a VIOLATED
verdict is sound: the left side genuinely exceeds the true supremum.

Also here: the Parrott tuple generator (commuting contractions built
from a pair of unitaries and a nilpotent 2x2 factor), a block-companion
unitary dilation for a single contraction, the brute-force power
dilation verifier, and a seeded randomized search over commuting tuples.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .interpolation import ContractionTuple, _require_contractions
from .linalg import (
    DEFAULT_TOL,
    InputError,
    _batches,
    _check_cap,
    _complex_pairs,
    _integer,
    _matrix_payload,
    _max_deviation,
    _max_op_norm,
    _op_norms,
    _power_products,
    _powers,
    _require_commuting,
    _require_isometries,
    as_matrix,
    dagger,
    identity,
    kron,
    max_entries,
    op_norm,
    psd_sqrt,
)

__all__ = [
    "MultiPolynomial",
    "DilationCandidate",
    "VnReport",
    "parrott_tuple",
    "eval_poly",
    "torus_sup",
    "vn_check",
    "vn_search",
    "power_dilation_verify",
    "egervary_dilation",
]

DEGREE_CAP = 16


@dataclass(frozen=True)
class MultiPolynomial:
    """Finitely supported map from exponent vectors to complex coefficients."""

    d: int
    terms: dict

    def __post_init__(self):
        if self.d < 1:
            raise InputError(f"polynomial arity must be >= 1, got {self.d}")
        cleaned, bound = {}, 0.0
        for alpha, coeff in self.terms.items():
            alpha = tuple(_integer(a, "exponent") for a in alpha)
            if len(alpha) != self.d:
                raise InputError(
                    f"exponent vector {alpha} has length {len(alpha)}, expected {self.d}"
                )
            if any(a < 0 for a in alpha):
                raise InputError(f"negative exponent in {alpha}")
            if sum(alpha) > DEGREE_CAP:
                raise InputError(
                    f"total degree of {alpha} exceeds the cap {DEGREE_CAP}"
                )
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise InputError(f"coefficient of {alpha} must be finite, got {coeff}")
            bound += math.hypot(coeff.real, coeff.imag) * (1 + sum(alpha))
            if coeff != 0:
                cleaned[alpha] = coeff
        # Every reported number stays below 2 bound: the pad is at most pi/2 its part.
        if not math.isfinite(2 * bound):
            raise InputError("coefficients too large: 2 sum |c_alpha| (1 + |alpha|) overflows")
        object.__setattr__(self, "terms", cleaned)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "terms": [
                {"alpha": list(alpha), "coeff": [coeff.real, coeff.imag]}
                for alpha, coeff in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "MultiPolynomial":
        try:
            d = _integer(obj["d"], "polynomial d")
            items = obj["terms"]
            coeffs = _complex_pairs([item["coeff"] for item in items], "coefficient")
            terms = {tuple(item["alpha"]): coeff for item, coeff in zip(items, coeffs)}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed polynomial JSON: {exc}") from exc
        return cls(d=d, terms=terms)


def parrott_tuple(
    r1,
    r2,
    tol: float = DEFAULT_TOL,
    allow_contraction_r2: bool = False,
) -> ContractionTuple:
    """Commuting 3-tuple (R1 x E21, R2 x E21, I x E21) on a doubled space.

    The nilpotent elementary factor forces every pairwise product to
    vanish exactly, so the tuple commutes regardless of R1, R2.  When
    the unitaries commute, the classical non-dilatability hypothesis
    fails; a warning is emitted and the tuple is still returned, since
    its algebraic properties hold either way.  (Non-dilatability itself
    is never verified here; only the stated algebra is.)

    With ``allow_contraction_r2`` the second factor may be any
    contraction instead of a unitary.  R is unitary when the stack [R, R*]
    passes ``_require_isometries``: its gaps R*R - 1 and RR* - 1 are decided
    by ``_max_deviation``, which refuses a gap that overflowed.  The
    contraction bound 1 + tol is decided by ``_max_op_norm``, and the
    commutation of the pair, to within tol, by ``_max_deviation``.
    """
    r1 = as_matrix(r1)
    r2 = as_matrix(r2)
    if r1.shape != r2.shape or r1.shape[0] != r1.shape[1]:
        raise InputError("R1 and R2 must be square and of equal size")
    n = r1.shape[0]
    _require_isometries(np.stack([r1, dagger(r1)]), "R1 is not unitary", tol)
    if allow_contraction_r2:
        if not _max_op_norm(r2[None], 1 + tol):
            raise InputError("R2 must be a contraction")
    else:
        _require_isometries(np.stack([r2, dagger(r2)]), "R2 is not unitary", tol)
    if _max_deviation((r1 @ r2 - r2 @ r1)[None], tol):
        warnings.warn(
            "R1 and R2 commute; the resulting tuple has no non-dilatability "
            "guarantee",
            stacklevel=2,
        )
    e21 = np.zeros((2, 2), dtype=np.complex128)
    e21[1, 0] = 1.0
    mats = (kron(r1, e21), kron(r2, e21), kron(identity(n), e21))
    return ContractionTuple(mats, tol=tol)


def eval_poly(tup: ContractionTuple, poly: MultiPolynomial) -> np.ndarray:
    """Functional calculus sum_alpha c_alpha prod_i S_i^alpha_i: the
    ``_poly_matrix`` of its terms, unpadded."""
    if poly.d != tup.d:
        raise InputError(
            f"polynomial arity {poly.d} does not match tuple d={tup.d}"
        )
    alphas = np.array(list(poly.terms), dtype=np.intp).reshape(-1, tup.d)
    coeffs = np.array(list(poly.terms.values()), dtype=np.complex128)
    return _poly_matrix(tup.mats, alphas, coeffs)


def _poly_matrix(axes, alphas: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """p(S) = sum_j coeffs[..., j] prod_i A_i^alphas[..., j, i], arity
    unchecked, for the axes of ``_power_products`` and T terms (..., T, d):
    the products added to zeros in term order.  In a stack of K tuples,
    shorter polynomials come padded with zero coefficients on exponent 0;
    such a slot adds a signed zero, which leaves every entry as it was, as
    a sum begun at +0.0 is never -0.0.  So member k is bit-identical to
    its own polynomial's call.
    """
    products = _power_products(axes, alphas)
    out = np.zeros((*products.shape[:-3], *products.shape[-2:]), dtype=np.complex128)
    for slot in range(coeffs.shape[-1]):
        out += coeffs[..., slot, None, None] * products[..., slot, :, :]
    return out


def _check_lattice(M: int) -> None:
    """Refuse a lattice size M below 2 or a table of M roots beyond the
    size cap."""
    if M < 2:
        raise InputError(f"lattice size M must be >= 2, got {M}")
    # The table of M roots is held whole; at d = 1 the point cap allows
    # 128 times more points than any matrix may have entries.
    if M > max_entries():
        raise InputError(
            f"lattice size M = {M} exceeds the size cap of {max_entries()} "
            "entries (set DILATIONS_MAX_ENTRIES to override)"
        )


def _check_points(name: str, points: int) -> None:
    """Refuse a lattice of more points than 128 times the size cap."""
    # Only block-sized temporaries are held, so the cap on total points
    # can sit well above the dense-matrix entry cap.
    if points > 128 * max_entries():
        raise InputError(
            f"lattice of {name} = {points} points exceeds the size cap; "
            "reduce M or the polynomial arity"
        )


def torus_sup(poly: MultiPolynomial, M: int, *, image=None) -> tuple[float, float, float]:
    """Certified upper bound for sup |p| on the d-torus.

    Returns (grid_sup, lipschitz_pad, sup_upper) where grid_sup is the
    maximum of |p| over the M^d lattice of M-th roots of unity and the
    pad bounds the modulus change over half a grid step per axis via
    the angular gradient bound sum_j sum_alpha |c_alpha| alpha_j.
    ``image``, when given, is ``_image(poly.terms, M)`` already computed.

    |p(w^k)|, w = exp(2 pi i / M), depends on k only through D k mod M,
    where D holds the rows alpha - alpha_0: ``_image`` lists that image
    exactly, as prod_i M/g_i points on r <= rank(D) axes, and
    ``_lattice_max`` evaluates it separably from one table of M-th roots
    at exact integer indices.  The point cap applies to those prod_i M/g_i
    points, not to M^d.  Every lattice the program evaluates is reached
    here: ``vn_check`` and ``vn_search`` call it through ``_decide``.

    Rounding: each table entry is within 28u of its root (u = 2^-53;
    its angle 2 pi j / M carries up to four roundings and exp one
    more), and each image value is a sum over the merged terms of a
    coefficient times r table entries, with one rounding per product
    and per addition.  A rounding errs by at most u times its result,
    plus 2^-1075 where it underflows.  So every computed value is within
    32 (r + n) (u S + 2^-1074) <= rho = 32 (d + n) (u S + 2^-1074) of
    the exact one, with S = sum_alpha |c_alpha| and n terms of p; the
    exact image values are those of the M^d lattice, so grid_sup is
    within rho of the exact M^d lattice maximum.
    """
    _check_lattice(M)
    sizes, reduced, _ = _capped_image(poly, M) if image is None else image
    grid_sup = _lattice_max(sizes, reduced, M)
    pad = _lipschitz_pad(poly, M)
    return grid_sup, pad, grid_sup + pad


def _capped_image(poly: MultiPolynomial, M: int) -> tuple:
    """``_image`` of ``poly``, refused past the point cap on its prod M/g_i points."""
    image = _image(poly.terms, M)
    _check_points("prod M/g_i", math.prod(image[0]))
    return image


def _lipschitz_pad(poly: MultiPolynomial, M: int) -> float:
    return math.pi / M * sum(abs(coeff) * sum(alpha) for alpha, coeff in poly.terms.items())


def _decide(lhs: float, poly: MultiPolynomial, M: int, tol: float) -> VnReport:
    """The ``VnReport`` of lhs against poly, M unchecked: the rule
    ``vn_check`` and ``vn_search`` share, on the image computed and capped
    once.  Where D has full row rank, (alpha - alpha_0) . theta = arg
    c_alpha_0 - arg c_alpha has a real solution theta*, at which every
    term has the argument of c_alpha_0: so sup |p| = S = sum_alpha
    |c_alpha| exactly, at any M, and grid_sup = sup_upper = S with no
    lattice.  Any other polynomial takes its bounds from ``torus_sup`` on
    that image, looked up when called.
    """
    image = _capped_image(poly, M)
    if image[2]:
        grid = upper = math.fsum(abs(coeff) for coeff in poly.terms.values())
        pad = _lipschitz_pad(poly, M)
    else:
        grid, pad, upper = torus_sup(poly, M, image=image)
    return VnReport(lhs, grid, pad, upper, image[2], _verdict(lhs, grid, upper, tol))


def _image(terms: dict, M: int) -> tuple:
    """(sizes, reduced, full): the values of p on the M^d lattice, up to
    a common unimodular factor, as a polynomial on prod sizes points,
    and whether D, the rows alpha - alpha_0, has full row rank.

    Unimodular row and column operations on Python ints bring D to its
    Smith form R D C = diag(s_i), s_i | s_(i+1); column i of D C is s_i
    times column i of R^-1.  With k = C j, D k = sum_i (D C)[:, i] j_i;
    s_i j_i mod M runs over the multiples g_i l_i of g_i = gcd(s_i, M),
    l_i < M/g_i, each l a distinct point as R^-1 is invertible mod M.  So
    axis i has size M/g_i (dropped at 1), term a gets exponent (D C)[a, i]
    g_i / s_i mod M on it, and terms equal mod M merge in term order.
    The elimination ends with p = rank(D) pivots, so D has full row rank
    exactly when p = n - 1 for n terms (row alpha_0 of D is zero).
    """
    first = next(iter(terms), ())
    dc = [[a - b for a, b in zip(alpha, first)] for alpha in terms]
    diag = [row[:] for row in dc]
    n, d, p = len(dc), len(first), 0
    while p < min(n, d):
        nonzero = [(abs(x), i, j) for i in range(p, n) for j in range(p, d) if (x := diag[i][j])]
        if not nonzero:
            break
        # Move the smallest entry to (p, p), then reduce its row and column by it.
        _, i, j = min(nonzero)
        diag[p], diag[i] = diag[i], diag[p]
        for row in diag + dc:
            row[p], row[j] = row[j], row[p]
        pivot = diag[p][p]
        for row in diag[p + 1 :]:
            quotient = row[p] // pivot
            row[p:] = [x - quotient * y for x, y in zip(row[p:], diag[p][p:])]
        for j in range(p + 1, d):
            quotient = diag[p][j] // pivot
            for row in diag + dc:
                row[j] -= quotient * row[p]
        # A nonzero remainder, or one of a row the pivot does not divide added
        # to its row, is smaller and the next pivot: so s_i | s_(i+1), fewest axes.
        if not any(diag[p][p + 1 :]) and not any(row[p] for row in diag[p + 1 :]):
            rest = [row for row in diag[p + 1 :] if abs(pivot) > 1 and any(x % pivot for x in row)]
            for row in rest[:1]:
                diag[p] = [x + y for x, y in zip(diag[p], row)]
            p += not rest
    axes = [(i, g) for i in range(p) if (g := math.gcd(diag[i][i], M)) < M]
    reduced = {}
    for row, coeff in zip(dc, terms.values()):
        key = tuple(row[i] // diag[i][i] * g % M for i, g in axes)
        reduced[key] = reduced.get(key, 0) + coeff
    return tuple(M // g for _, g in axes), reduced, p == n - 1


# Most lattice points one ``_lattice_max`` product evaluates, 1 MiB of complex
# values: a larger block raises the peak, a smaller one adds per-product overhead.
_LATTICE_BLOCK = 2**16


def _lattice_max(sizes: tuple, terms: dict, M: int) -> float:
    """max |p| over the lattice of one (sizes, terms) as ``_image`` gives
    it: the value at l, l_i < sizes_i, is sum_a c_a prod_i w^(a_i l_i)
    with w = exp(2 pi i / M); an empty lattice is its one value (0.0 with
    no terms).

    The trailing t axes form a block.  Each group of terms that share
    their leading s = r - t exponents beta_g is summed on the block once,
    as one row q_g of Q: term by term, in term order, each term adds its
    coefficient times the outer product of its factors w^(a_i l_i) on the
    trailing axes, taken in axis order.  The leading axes are streamed in
    chunks of rows, each valued as W[rows, groups] @ Q[groups, block],
    where W holds the leading factors w^(l . beta_g) of each group
    (``_chunk_max``); the chunk maxima fold by a Python max from 0.0.
    Memory, whatever the arity: chunks hold _LATTICE_BLOCK // max(G, B)
    rows for G groups and B block points, so each product and W stay
    within max(_LATTICE_BLOCK, M, G) values, and Q holds one row of at
    most max(M, sqrt(_LATTICE_BLOCK)) values per group.
    """
    if not sizes:
        return abs(terms.get((), 0.0))
    # The block takes the last axis (none when r = 1), then more trailing
    # axes while it stays within sqrt(_LATTICE_BLOCK) points: W and Q then
    # stay small next to the product, which runs fastest that way.
    r = len(sizes)
    t = min(r - 1, 1)
    while t < r - 1 and math.prod(sizes[r - t - 1 :]) <= math.isqrt(_LATTICE_BLOCK):
        t += 1
    s = r - t
    groups = {}
    for alpha in terms:
        groups.setdefault(alpha[:s], len(groups))
    roots = np.exp(2j * np.pi * np.arange(M) / M)
    q = np.zeros((len(groups), math.prod(sizes[s:])), dtype=np.complex128)
    for alpha, coeff in terms.items():
        row = np.array([coeff], dtype=np.complex128)
        for a, size in zip(alpha[s:], sizes[s:]):
            row = np.multiply.outer(row, roots[np.arange(size) * a % M]).ravel()
        q[groups[alpha[:s]]] += row
    beta = np.array(list(groups), dtype=np.int64)
    streamed, rows = math.prod(sizes[:s]), max(1, _LATTICE_BLOCK // max(q.shape))
    chunks = [(start, min(start + rows, streamed)) for start in range(0, streamed, rows)]
    return max(0.0, *(_chunk_max(roots, sizes[:s], beta, q, *chunk) for chunk in chunks))


def _chunk_max(roots: np.ndarray, shape: tuple, beta, q, start: int, stop: int) -> float:
    """max |p| for beta (G, s) and q (G, block) over the streamed rows
    start..stop - 1 of ``_lattice_max``, rows indexing the leading axes
    of sizes ``shape``."""
    M = len(roots)
    ks = np.unravel_index(np.arange(start, stop), shape)
    w = roots[ks[0][:, None] * beta[:, 0] % M]
    for i in range(1, beta.shape[1]):
        w = w * roots[ks[i][:, None] * beta[:, i] % M]
    return float(np.abs(w @ q).max())


@dataclass(frozen=True)
class VnReport:
    """Outcome of one inequality check.  ``exact_sup`` says that
    grid_sup = sup_upper is sum |c_alpha|, the exact supremum, and that
    no lattice was evaluated."""

    lhs: float
    grid_sup: float
    lipschitz_pad: float
    sup_upper: float
    exact_sup: bool
    verdict: str

    def to_json(self) -> dict:
        # The fields in their order; a twentieth of the cost of asdict's deep copy.
        return dict(vars(self))


def vn_check(
    tup: ContractionTuple,
    poly: MultiPolynomial,
    M: int,
    tol: float = DEFAULT_TOL,
) -> VnReport:
    """Compare ||p(S)|| against the certified torus supremum bound.

    VIOLATED only when the left side beats grid maximum plus pad, so the
    verdict is sound; HOLDS when it is below the grid maximum itself;
    INCONCLUSIVE in between (a larger lattice will separate the two).
    ``_decide`` builds the report, from the exact supremum where the rows
    alpha - alpha_0 have full row rank and from ``torus_sup`` elsewhere;
    the caps on M and image points apply to both.
    """
    lhs = op_norm(eval_poly(tup, poly))
    _check_lattice(M)
    return _decide(lhs, poly, M, tol)


def _verdict(lhs: float, grid_sup: float, sup_upper: float, tol: float) -> str:
    """VIOLATED when lhs beats the certified bound sup_upper, HOLDS when it
    is at most grid_sup, a value |p| attains (the lattice maximum, or the
    exact supremum, then equal to sup_upper), INCONCLUSIVE in between."""
    # The relative slack and tol absorb rounding.  grid_sup is within
    # 32 (d + n) (u sum|c_alpha| + 2^-1074) of the exact lattice maximum
    # (u = 2^-53, n terms; see torus_sup), which is covered while that
    # bound stays below 1e-12 * sup_upper + tol: with the default tol,
    # whenever (d + n) sum|c_alpha| < 2.8e4 (the 2^-1074 part is far
    # below tol).  The exact supremum S = fsum(|c_alpha|) of ``_decide``
    # takes each |c_alpha| within 1 ulp and rounds once more in fsum, so
    # it is within (n + 1) u S of sum|c_alpha|, with n <= d + 1 terms on
    # that path: inside the relative slack while n < 9000.  The slack
    # also absorbs the last-ulp rounding of lhs (for a constant
    # polynomial, lhs and grid_sup are the same number computed two
    # ways).  It only makes VIOLATED harder to reach, so the verdict
    # stays sound.
    if lhs > sup_upper * (1 + 1e-12) + tol:
        return "VIOLATED"
    if lhs <= grid_sup * (1 + 1e-12) + tol:
        return "HOLDS"
    return "INCONCLUSIVE"


def _commuting_stack(normals: np.ndarray, d: int, dim: int) -> np.ndarray:
    """Stack (K, d, dim, dim) of commuting contraction tuples from the
    standard normals (K, 2 dim^2 + 8 d), row k one tuple's draws: each
    member is a cubic polynomial in one random contraction z, rescaled
    into the unit ball when its norm exceeds 1.

    A row holds the real and then the imaginary parts of z, then for each
    member the real and then the imaginary parts of its 4 coefficients:
    the order in which one generator's calls would draw them.  Norms,
    powers and members are formed for the whole stack, by the same
    per-member operations in the same order as for a stack of one: each
    norm by the stacked SVD, powers from the identity, the sum
    0 + c_0 z^0 + ... + c_3 z^3, and one division per rescaled matrix.
    So tuple k is bit-identical to the one row k alone would give.
    """
    square = dim * dim
    parts = normals[:, : 2 * square].reshape(-1, 2, dim, dim)
    z = parts[:, 0] + 1j * parts[:, 1]
    parts = normals[:, 2 * square :].reshape(-1, d, 2, 4)
    coeffs = parts[:, :, 0] + 1j * parts[:, :, 1]
    z = z / np.maximum(1.0, _op_norms(z) * (1 + 1e-12))[:, None, None]
    z_pows = _powers(z, range(4))
    mats = sum(coeffs[:, :, j, None, None] * z_pows[j][:, None] for j in range(4))
    norms = _op_norms(mats)
    over = norms > 1
    mats[over] = mats[over] / (norms[over] * (1 + 1e-12))[:, None, None]
    return mats


def _random_commuting_tuple(rng: np.random.Generator, d: int, dim: int) -> ContractionTuple:
    """Commuting by construction: each member is a polynomial in one
    contraction (``_commuting_stack`` of one row of 2 dim^2 + 8 d normals
    drawn from ``rng``)."""
    normals = rng.standard_normal((1, 2 * dim * dim + 8 * d))
    return ContractionTuple(tuple(_commuting_stack(normals, d, dim)[0]), tol=1e-9)


def _random_polynomial(rng: np.random.Generator, d: int) -> MultiPolynomial:
    """One to four terms, each d exponents below 4 and a complex
    coefficient of standard normal parts; terms drawn twice add up."""
    terms = {}
    for _ in range(rng.integers(1, 5)):
        # Scalar draws give the values of one size-d draw, without its overhead.
        alpha = tuple([int(rng.integers(0, 4)) for _ in range(d)])
        re, im = rng.standard_normal(2).tolist()
        terms[alpha] = terms.get(alpha, 0) + complex(re, im)
    return MultiPolynomial(d=d, terms=terms)


def vn_search(
    d: int,
    dim: int,
    trials: int,
    seed: int,
    M: int,
    extra_cases=(),
    tol: float = DEFAULT_TOL,
) -> dict:
    """Randomized search for inequality violations over commuting tuples.

    Each trial draws a commuting tuple (polynomials of one random
    contraction, rescaled to the unit ball) and a random polynomial,
    then runs the checker.  ``extra_cases`` are (tuple, polynomial)
    pairs appended to the pool, e.g. known literature counterexamples.
    Deterministic for a fixed seed; trial i draws from the generator of
    seed + i, ``Generator(PCG64(seed + i))``: ``default_rng``'s own
    construction, in the same state, without its argument dispatch.

    Trials run in chunks within the size cap.  A chunk draws its trials
    in one loop: trial i's generator draws the 2 dim^2 + 8 d normals of
    its tuple in one call, then its polynomial, and is dropped before the
    next trial's.  The chunk then forms its tuples from the normals
    (``_commuting_stack``), checks them as ``ContractionTuple`` would,
    forms every p(S) by one ``_poly_matrix`` call on the padded
    polynomials and takes every ||p(S)|| in one stacked SVD; ``_decide``
    then gives each case ``vn_check``'s report, which ``verdicts`` counts
    (``exact`` where ``exact_sup``, ``lattice`` elsewhere) and drops, so
    memory does not grow with the trials.  The result equals the
    one-trial-at-a-time route's (``vn_check`` per case) bit for bit.  An
    arity past DEGREE_CAP // 3, a lattice size past the root-table cap
    and M^d past the point cap are refused before any trial is drawn, and
    so is an extra case whose image is past the point cap: the extra
    cases are decided first, by ``vn_check``, and reported after the trials.
    """
    if d < 1:
        raise InputError(f"d must be >= 1, got {d}")
    # A random polynomial has exponents up to 3 per axis.
    if d > DEGREE_CAP // 3:
        raise InputError(
            f"d = {d} exceeds DEGREE_CAP // 3 = {DEGREE_CAP // 3}: a random "
            f"polynomial's total degree could pass the cap {DEGREE_CAP}"
        )
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    _check_cap(dim, dim)
    if trials < 0:
        raise InputError("trials must be nonnegative")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    _check_lattice(M)
    _check_points("M^d", M**d)
    extra_cases = list(extra_cases)
    extras = [
        ("fixture", k, poly, vn_check(tup, poly, M, tol))
        for k, (tup, poly) in enumerate(extra_cases)
    ]

    def drawn(indices):
        """(index, lhs, poly) of the trials ``indices``, their stacks freed."""
        normals = np.empty((len(indices), 2 * dim * dim + 8 * d))
        polys = []
        for k, index in enumerate(indices):
            rng = np.random.Generator(np.random.PCG64(seed + index))
            rng.standard_normal(out=normals[k])
            polys.append(_random_polynomial(rng, d))
        stack = _commuting_stack(normals, d, dim)
        _require_contractions(stack, 1e-9)
        counts = [len(poly.terms) for poly in polys]
        held = np.arange(max(counts)) < np.array(counts)[:, None]
        alphas = np.zeros((*held.shape, d), dtype=np.intp)
        alphas[held] = np.array([a for poly in polys for a in poly.terms]).reshape(-1, d)
        coeffs = np.zeros(held.shape, dtype=np.complex128)
        coeffs[held] = [coeff for poly in polys for coeff in poly.terms.values()]
        values = _op_norms(_poly_matrix(stack.swapaxes(0, 1), alphas, coeffs))
        return zip(indices, values.tolist(), polys)

    # A trial's share: its d members' four powers, the running product and
    # its next factor (two stacks of its up to four term products), and 64
    # entries (1 KiB), which hold its polynomial's four terms of arity 5.
    trial_cases = (
        ("random", index, poly, _decide(lhs, poly, M, tol))
        for part in _batches(trials, 4 * (d + 2) * dim * dim + 64)
        for index, lhs, poly in drawn(range(trials)[part])
    )
    max_ratio = 0.0
    verdicts = {v: {"exact": 0, "lattice": 0} for v in ("HOLDS", "INCONCLUSIVE", "VIOLATED")}
    violations = []
    for kind, index, poly, report in itertools.chain(trial_cases, extras):
        if report.grid_sup > 0:
            max_ratio = max(max_ratio, report.lhs / report.grid_sup)
        verdicts[report.verdict]["exact" if report.exact_sup else "lattice"] += 1
        if report.verdict == "VIOLATED":
            if kind == "fixture":
                tup = extra_cases[index][0]
            else:
                # Drawn again from its seed: bit-identical to its stack member.
                rng = np.random.Generator(np.random.PCG64(seed + index))
                tup = _random_commuting_tuple(rng, d, dim)
            violations.append(
                {
                    "kind": kind,
                    "index": index,
                    "tuple": tup.to_json(),
                    "polynomial": poly.to_json(),
                    "report": report.to_json(),
                }
            )
    return {
        "d": d,
        "dim": dim,
        "trials": trials,
        "seed": seed,
        "M": M,
        "cases": trials + len(extras),
        "verdicts": verdicts,
        "max_ratio": max_ratio,
        "violations": violations,
    }


@dataclass(frozen=True)
class DilationCandidate:
    """Commuting unitaries V_i on a larger space with an isometric embedding r.

    Each V_i, as the stack [V_i, V_i*], and r are checked by
    ``_require_isometries``, and the tuple by ``_require_commuting``, all to
    within tol.  Both decide by ``_max_deviation``: the SVD of a gap or
    commutator runs only where ``_max_op_norm``'s bounds cannot decide, so
    a 100 x 100 V whose gaps are rounding-sized takes none, and a gap that
    overflowed is refused with deviation nan.
    """

    vs: tuple[np.ndarray, ...]
    r: np.ndarray
    n_max: int
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.n_max < 1:
            raise InputError(f"n_max must be >= 1, got {self.n_max}")
        vs = tuple(as_matrix(v) for v in self.vs)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "r", as_matrix(self.r))
        if len(vs) < 1:
            raise InputError("a dilation candidate needs at least one unitary")
        big = vs[0].shape[0]
        for i, v in enumerate(vs):
            if v.shape != (big, big):
                raise InputError(f"unitary {i + 1} has shape {v.shape}")
            _require_isometries(np.stack([v, dagger(v)]), f"V_{i + 1} is not unitary", self.tol)
        _require_commuting(np.stack(vs), "unitaries", self.tol)
        if self.r.shape[0] != big:
            raise InputError(
                f"embedding maps into dimension {self.r.shape[0]}, unitaries act on {big}"
            )
        _require_isometries(self.r[None], "r is not an isometry", self.tol)

    @property
    def d(self) -> int:
        return len(self.vs)

    def _payload(self) -> dict:
        """The JSON form with each matrix's data as an array (see ``_matrix_payload``)."""
        return {
            "unitaries": [_matrix_payload(v) for v in self.vs],
            "embedding": _matrix_payload(self.r),
            "n_max": self.n_max,
        }


def power_dilation_verify(
    tup: ContractionTuple,
    cand: DilationCandidate,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Check prod S_i^{n_i} = r* (prod V_i^{n_i}) r over {0..n_max}^d.

    Both sides walk the index grid in lexicographic order by repeated
    right multiplication, the small side from the identity through each
    S_i, the big side from the dim rows of r* through each V_i; one
    stacked SVD norms every difference.  ``worst_index`` is the first
    argmax, null when the maximum is 0.0.  The (n_max + 1)^d dim x big
    entries of the big side are capped before any product is formed.
    """
    if cand.d != tup.d:
        raise InputError(f"candidate has {cand.d} unitaries, tuple has d={tup.d}")
    if cand.r.shape[1] != tup.dim:
        raise InputError(
            f"embedding domain has dimension {cand.r.shape[1]}, tuple dim is {tup.dim}"
        )
    n = cand.n_max + 1
    _check_cap(n**tup.d * tup.dim, cand.r.shape[0])
    small, big = identity(tup.dim)[None], dagger(cand.r)[None]
    for s_i, v_i in zip(tup.mats, cand.vs):
        small, big = _walk(small, s_i, n), _walk(big, v_i, n)
    devs = _op_norms(small - big @ cand.r)
    worst = int(devs.argmax())
    max_dev = float(devs[worst])
    return {
        "max_deviation": max_dev,
        "worst_index": [int(i) for i in np.unravel_index(worst, (n,) * tup.d)] if max_dev else None,
        "n_max": cand.n_max,
        "passed": max_dev <= tol,
        "tol": tol,
    }


def _walk(stack: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """(K n, p, q): X A^k for each X of ``stack`` (K, p, q) and k < n, k fastest;
    not ``_power_products``, which would hold all n powers of each big V_i."""
    out = np.empty((len(stack), n, *stack.shape[1:]), dtype=np.complex128)
    out[:, 0] = stack
    for k in range(1, n):
        out[:, k] = out[:, k - 1] @ a
    return out.reshape(-1, *stack.shape[1:])


def egervary_dilation(s, m: int, tol: float = DEFAULT_TOL) -> DilationCandidate:
    """Block-companion unitary m-dilation of a single contraction.

    The unitary acts on m+1 copies of the base space: the first row
    applies S and feeds the defect of S* back from the last block, the
    second row collects the defect of S, and the remaining rows shift.
    Correctness is defined by the power dilation verification up to
    n_max = m; construction does not run it, ``dilate --verify`` does.
    The (n(m+1))^2 entries of the unitary are capped.  S must have norm
    at most 1 + tol, as ``_max_op_norm`` decides.
    """
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise InputError("dilation requires a square matrix")
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    n = s.shape[0]
    big = n * (m + 1)
    _check_cap(big, big)
    if not _max_op_norm(s[None], 1 + tol):
        raise InputError("dilation input must be a contraction")
    defect = psd_sqrt(identity(n) - dagger(s) @ s, eps=max(tol, 1e-9))
    defect_adj = psd_sqrt(identity(n) - s @ dagger(s), eps=max(tol, 1e-9))
    v = np.zeros((big, big), dtype=np.complex128)

    def put(bi, bj, block):
        v[bi * n : (bi + 1) * n, bj * n : (bj + 1) * n] = block

    put(0, 0, s)
    put(0, m, defect_adj)
    put(1, 0, defect)
    put(1, m, -dagger(s))
    for row in range(2, m + 1):
        put(row, row - 1, identity(n))
    r = np.zeros((big, n), dtype=np.complex128)
    r[:n, :] = identity(n)
    return DilationCandidate(vs=(v,), r=r, n_max=m, tol=max(tol, 1e-8))
