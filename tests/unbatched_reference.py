"""Independent routes that the library's fast paths are checked against.

``reference_matrix_exp`` is the one-matrix scaling-and-squaring routine;
the tests require the library's stacked ``matrix_exp`` to agree with it
bit for bit.

``reference_sweep`` is the per-point, per-eps blend loop: for every grid
point it blends the 2^d lattice-corner samples with ``scaled_blend``,
each sample and the true value being the exponential of a sum
exp(sum_i t_i A_i).  The library's ``approx_error_sweep`` multiplies
per-axis factors instead, so the tests require agreement within the
rounding and commutator bound its docstring states.

``reference_product_sweep`` is the product-form sweep with one stacked
``matrix_exp`` call per axis for the exact values and one per axis and
eps for the samples, the dissipativity of each generator checked by its
own ``eigvalsh``, each grid point's factors gathered from its axes'
distinct coordinates, and every error matrix normed by one stacked SVD.
The library's ``approx_error_sweep`` stacks the axes, one call for the
exact values and one per eps (split within the size cap), multiplies the
axes' factors by broadcasting, and takes the SVD only of the error
matrices whose norm can be the largest; ``matrix_exp``
gives each member of a stack the value of a call on it alone, and the
SVD of a member does not depend on the others, so the tests require
both routes' ``sup_error`` to be equal bit for bit, and their refusals
to carry the same message.

``reference_torus_sup`` is the per-term lattice loop that complex
powers every term on each slice of the first axis.  The separable
``torus_sup`` sums in another order, so the tests require its lattice
maximum to agree within the rounding bound its docstring states.

``reference_lattice_max`` is the plain stream of the separable lattice
that ``_image`` reduces p to: Q built one term at a time by outer
products, then every chunk of leading rows of its prod sizes points
evaluated as W @ Q and its modulus maximum taken.  The library's
``_lattice_max`` now builds Q by the same per-term loop and makes the
same BLAS call on the same chunks; this one stays the frozen bit-level
reference, so the tests require both to return the same float.

``reference_vn_search`` is the one-trial-at-a-time search.  It makes
the two generators of ``SeedSequence(seed).spawn(2)`` and, for each
trial, ``reference_commuting_tuple`` draws the tuple from the first with
one generator call per matrix and coefficient vector and one-matrix
norms, a ``ContractionTuple`` validates it, and
``reference_row_polynomial`` draws the polynomial term by term: its
term count from the second generator, then each of the four exponent
vectors from the second and its two coefficient parts from the first,
one call each, the unused terms drawn and dropped.  ``vn_check`` decides
the case, by the exact supremum where the rows alpha - alpha_0 are
independent and by ``torus_sup`` elsewhere.  The library draws each
chunk's rows as one block per generator, which gives the same values in
the same order; it validates and norms a chunk's tuples as stacks, by
the same per-member LAPACK and BLAS calls in the same order, its
contraction check reading the norms the draw already knows, forms their
p(S) by stacked products, then decides each case by the rule
``vn_check`` uses, extra cases before any trial, and forms a violating
trial's tuple again from its row.  The reference keeps every case's
report in a list and counts the ``verdicts`` histogram from it at the
end; the library counts each case as it is decided and keeps no report.
So the tests require both routes' results to be equal byte for byte as
JSON.

``reference_random_polynomial`` draws a polynomial from one generator
with one size-d exponent draw and two scalar normal draws per term; the
tests' ``random_polynomial`` draws each exponent by a scalar draw, which
gives the same values and leaves the generator at the same point.

``reference_powers`` walks the powers of one matrix from the identity,
each the last times A, and ``reference_power_product`` multiplies one
exponent row's powers, each walked on its own, into the identity in axis
order; ``reference_blocks`` does so one row at a time.  None of them
uses the library's ``_powers`` or ``_power_products``, which walk each
axis's distinct exponents once and gather them for every row.

``reference_eval_poly`` is the functional calculus one term at a time:
each term's product of one-matrix powers, multiplied in axis order, added
to a zero matrix in term order.  The library's ``_poly_matrix`` takes
every term's product from ``_power_products``, for one polynomial or
for a stack of tuples and polynomials at once, the missing terms of
shorter polynomials padded with zero coefficients, and starts each
product from the identity, which changes no nonzero entry; so the tests
require every member to equal the reference bit for bit.

``reference_multilinear_compress`` is the closed multilinear form at one
time: each axis's two powers from ``reference_power_product``, blended
and multiplied in axis order.  The library's ``multilinear_compress``
takes a stack of times and each axis's floor and ceiling powers from one
``_power_products`` call, by the same products, so the tests require
every member to equal the reference bit for bit.

``reference_norms_within`` is the all-SVD decision
``(_op_norms(a) <= limit).all()``, and ``reference_require_commuting``,
``reference_require_contractions``, ``reference_require_unitary`` and
``reference_require_isometry`` are the norm checks as they were before
they were screened: every commutator, member or gap A*A - 1 normed by
its own stacked SVD, the isometry gaps by ``reference_isometry_deviations``,
and the refusal read off those norms.  The library decides each of them
by ``_max_op_norm(a, limit)``, or ``_max_deviation(a, limit)`` for
deviations that may overflow, which takes SVDs only of the members its
Frobenius and column bounds leave undecided, and norms the whole stack
only to word a refusal; the tests require the same decision and the
same refusal message, non-finite members included.

``reference_deviation_norms`` and ``reference_isometry_deviations`` norm
each member of a stack of deviations, or of isometry gaps A*A - 1, by
its own SVD, NaN for a member that is not finite.  On them,
``reference_structure_deviations`` is ``structure_report``'s deviations
one block at a time, and ``reference_held_deviations`` the isometry and
unitary ``max_deviation`` of ``preservation_suite``, every block of
every time and point built by ``reference_power_product`` and normed on
its own.  The library takes ``_max_deviation`` of each stack of gaps,
whose maximum is the same per-member LAPACK value, so the tests require
the values bit for bit.

``reference_power_dilation_verify`` is the per-index dilation check:
every power of each S_i and of each big x big V_i held at once, and for
each index of {0..n_max}^d in lexicographic order the products of
powers formed, r* (prod V_i^n_i) r taken and the difference normed by
its own SVD.  The library's ``power_dilation_verify`` walks the index
grid by repeated right multiplication, the big side from the dim rows
of r*, and norms every difference in one stacked SVD.  An Egervary
dilation has r* = [I 0], so at d = 1 the library's rows r* V^k are the
first dim rows of the reference's V^k, formed by the same sums, and the
tests require equal results; at d = 2 the products associate
differently, so they require the deviations to agree within rounding.

``reference_eval_discretized`` assembles the grid semigroup one source
point at a time, with the power selector
kappa(t, t') = floor(t) + [frac(t) + frac(t') >= 1] per axis and its own
list of powers of each S_i by repeated multiplication, and
``reference_semigroup_suite`` runs the property suite on those dense
matrices.  The library builds the same evaluation from its grid form of
targets and exponent rows, so the tests require the dense matrix to agree
bit for bit and the suite's deviations within 1e-14.

``reference_blockwise_suite`` is the property suite block by block: the
grid form of each sum time from its own ``_grid_form`` call, each
point's block from ``reference_blocks``, and for every pair (s, t) the
N^d block products compared with the blocks of s + t, targets never
composed.  The library's ``semigroup_suite`` takes
the grid forms in one call, forms each distinct product of a row triple
once per slice and compares targets in integers; where the targets compose, as
they do in every unmutated grid form, it computes the same per-member
LAPACK and BLAS values and takes the same maxima, so the tests require
both routes' deviations to be equal.

``reference_preservation_suite`` is the preservation suite on dense
evaluations: one ``structure_report(eval_discretized(...))`` per time and
per converse unit time.  The library measures the same class deviations
on the distinct blocks of the grid forms and folds them over each time's
block picks, never assembling T(t), so the tests require the same report
keys, every verdict to be equal and
each ``max_deviation`` to agree within 1e-13: both routes compute the
same quantities by the identities of the ``structure`` docstring, and the
deviations of a held class are rounding-sized, so only rounding of a few
total_dim units in the last place separates them.

``reference_koopman_u`` and ``reference_projector_p`` build the dense
N x N rotation unitary U(k/N) and indicator projection P(k/N) on the 1-D
grid with Python loops, and ``reference_bscr_check`` and
``reference_bscr_trace`` evaluate the commutation relation
P(s)U(t) = U(t)Q(s,t) and the trace U(t)* P(s) U(t) f by dense matrix
products.  The library reads the same operators from the grid motion of
``torus._grid_motion``, one target index and one carry bit per point, so the
tests require both routes to agree exactly: every operator is a
permutation or a 0/1 diagonal, and every entry either route computes is
an exact small integer or an entry of f.
"""

import itertools
import math
from collections import Counter

import numpy as np

from dilations.dilation import MultiPolynomial, vn_check
from dilations.interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    _distinct_rows,
    _grid_form,
    eval_discretized,
    multilinear_compress,
    scaled_blend,
)
from dilations.linalg import (
    InputError,
    _check_cap,
    _op_norms,
    dagger,
    identity,
    matrix_exp,
    op_norm,
)
from dilations.structure import _CLASSES, structure_report
from dilations.torus import GridTime


def reference_matrix_exp(a, t=1.0):
    """exp(t*A) for one matrix: scaling and squaring, Taylor series, cap 50."""
    a = np.asarray(a, dtype=np.complex128)
    ta = t * a
    norm = float(np.linalg.norm(ta, 2))
    if norm > 50.0:
        raise ValueError(f"norm of t*A is {norm:.3g}, beyond the cap")
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    x = ta / (2**squarings)
    n = a.shape[0]
    result = identity(n)
    term = identity(n)
    for k in range(1, 30):
        term = term @ x / k
        result = result + term
        if np.abs(term).max() < 1e-18 * max(1.0, np.abs(result).max()):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def reference_sweep(gens, eps_list, grid):
    """Sup-error of each eps's blends, one grid point and one corner at a time."""
    d = len(gens)
    dim = gens[0].shape[0]

    def true_value(point):
        return reference_matrix_exp(sum(point[i] * gens[i] for i in range(d)))

    report = []
    for eps in eps_list:
        samples = {(0,) * d: identity(dim)}
        sup_error = 0.0
        for point in grid:
            cells = [math.floor(x / eps) for x in point]
            for e in itertools.product((0, 1), repeat=d):
                corner = tuple(c + ei for c, ei in zip(cells, e))
                if corner not in samples:
                    samples[corner] = true_value(tuple(c * eps for c in corner))
            blend = scaled_blend(samples, eps, point)
            sup_error = max(
                sup_error, float(np.linalg.norm(blend - true_value(point), 2))
            )
        report.append({"eps": eps, "sup_error": sup_error})
    return report


def reference_product_sweep(gens, eps_list, grid, tol=1e-10):
    """Sup-error of each eps's blends in product form, a stacked
    ``matrix_exp`` call per axis (and per eps), all norms taken."""
    d = len(gens)
    times = np.array(grid, dtype=float)
    for i, g in enumerate(gens):
        top = np.linalg.eigvalsh((g + g.conj().T) / 2)[-1]
        if top > tol:
            raise InputError(
                f"generator {i + 1} is not dissipative "
                f"(largest eigenvalue of (A + A*)/2 is {top:.6g})"
            )
    coords, picks = zip(*(np.unique(times[:, i], return_inverse=True) for i in range(d)))

    def across_axes(tables):
        out = tables[0][picks[0]]
        for table, pick in zip(tables[1:], picks[1:]):
            out = out @ table[pick]
        return out

    exact = across_axes([matrix_exp(tau[:, None, None] * g) for tau, g in zip(coords, gens)])
    report = []
    for eps in eps_list:
        blends = []
        for tau, g in zip(coords, gens):
            scaled = tau / eps
            cells = np.floor(scaled)
            fracs = (scaled - cells)[:, None, None]
            ends, which = np.unique(np.concatenate([cells, cells + 1]), return_inverse=True)
            samples = matrix_exp((ends * eps)[:, None, None] * g)
            low, high = samples[which[: len(tau)]], samples[which[len(tau) :]]
            blends.append((1 - fracs) * low + fracs * high)
        errors = np.linalg.norm(across_axes(blends) - exact, 2, axis=(-2, -1))
        report.append({"eps": eps, "sup_error": float(errors.max())})
    return report


def reference_torus_sup(poly, M):
    """(grid_sup, lipschitz_pad, sup_upper), the first axis swept one slice
    at a time and every term raised to its powers on the whole slice."""
    z = np.exp(2j * np.pi * np.arange(M) / M)
    if poly.d == 1:
        values = np.zeros(M, dtype=np.complex128)
        for alpha, coeff in poly.terms.items():
            values += coeff * z ** alpha[0]
        grid_sup = float(np.abs(values).max()) if poly.terms else 0.0
    else:
        rest = np.meshgrid(*([z] * (poly.d - 1)), indexing="ij")
        grid_sup = 0.0
        for z0 in z:
            values = np.zeros(rest[0].shape, dtype=np.complex128)
            for alpha, coeff in poly.terms.items():
                term = coeff * z0 ** alpha[0]
                for i in range(1, poly.d):
                    term = term * rest[i - 1] ** alpha[i]
                values += term
            if poly.terms:
                grid_sup = max(grid_sup, float(np.abs(values).max()))
    gradient_bound = sum(
        abs(coeff) * sum(alpha) for alpha, coeff in poly.terms.items()
    )
    pad = math.pi / M * gradient_bound
    return grid_sup, pad, grid_sup + pad


def reference_lattice_max(sizes, terms, M, block):
    """max |p| over the lattice of prod ``sizes`` points that ``_image``
    gives, exponents taken mod M: every chunk of at most ``block``
    points evaluated, an empty lattice its one value."""
    if not sizes:
        return abs(terms.get((), 0.0))
    roots = np.exp(2j * np.pi * np.arange(M) / M)
    r = len(sizes)
    t = min(r - 1, 1)
    while t < r - 1 and math.prod(sizes[r - t - 1 :]) <= math.isqrt(block):
        t += 1
    s = r - t
    groups = {}
    for alpha in terms:
        groups.setdefault(alpha[:s], len(groups))
    q = np.zeros((len(groups), math.prod(sizes[s:])), dtype=np.complex128)
    for alpha, coeff in terms.items():
        row = np.array([coeff])
        for a, size in zip(alpha[s:], sizes[s:]):
            row = np.multiply.outer(row, roots[np.arange(size) * a % M]).ravel()
        q[groups[alpha[:s]]] += row
    beta = np.array(list(groups), dtype=np.int64)
    streamed = math.prod(sizes[:s])
    rows = max(1, block // max(q.shape))
    best = 0.0
    for start in range(0, streamed, rows):
        ks = np.unravel_index(np.arange(start, min(start + rows, streamed)), sizes[:s])
        w = roots[np.outer(ks[0], beta[:, 0]) % M]
        for i in range(1, s):
            w = w * roots[np.outer(ks[i], beta[:, i]) % M]
        best = max(best, float(np.abs(w @ q).max()))
    return best


def reference_commuting_tuple(rng, d, dim):
    """Commuting contractions: d cubic polynomials in one random contraction z,
    each drawn, formed, normed and rescaled one matrix at a time."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z = z / max(1.0, op_norm(z) * (1 + 1e-12))
    z_pows = [identity(dim)]
    for _ in range(3):
        z_pows.append(z_pows[-1] @ z)
    mats = []
    for _ in range(d):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = sum(c * p for c, p in zip(coeffs, z_pows))
        norm = op_norm(m)
        if norm > 1:
            m = m / (norm * (1 + 1e-12))
        mats.append(m)
    return ContractionTuple(tuple(mats), tol=1e-9)


def reference_random_polynomial(rng, d):
    """One to four terms, each exponent vector drawn in one call and each
    coefficient's parts in two; terms drawn twice add up."""
    terms = {}
    n_terms = int(rng.integers(1, 5))
    for _ in range(n_terms):
        alpha = tuple(int(a) for a in rng.integers(0, 4, size=d))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms[alpha] = terms.get(alpha, 0) + coeff
    return MultiPolynomial(d=d, terms=terms)


def reference_powers(a, top):
    """The list A^0, ..., A^top, each the last times A, from the identity."""
    powers = [identity(a.shape[0])]
    for _ in range(top):
        powers.append(powers[-1] @ a)
    return powers


def reference_power_product(mats, row):
    """prod_i mats[i]^row[i]: each power walked from the identity on its
    own, multiplied into the identity in axis order."""
    out = identity(mats[0].shape[0])
    for s_i, k in zip(mats, row):
        out = out @ reference_powers(s_i, int(k))[-1]
    return out


def reference_blocks(mats, rows):
    """The stack of ``reference_power_product`` of every row, one row at a time."""
    return np.stack([reference_power_product(mats, row) for row in rows])


def reference_eval_poly(tup, poly):
    """p(S), each term's product of one-matrix powers added in term order."""
    powers = [
        reference_powers(s_i, max((alpha[i] for alpha in poly.terms), default=0))
        for i, s_i in enumerate(tup.mats)
    ]
    out = np.zeros((tup.dim, tup.dim), dtype=np.complex128)
    for alpha, coeff in poly.terms.items():
        term = powers[0][alpha[0]]
        for i in range(1, tup.d):
            term = term @ powers[i][alpha[i]]
        out += coeff * term
    return out


def reference_row_polynomial(normals, integers, d):
    """One trial's polynomial, drawn term by term after its tuple: the
    term count less one, then for each of four terms its exponent vector
    from ``integers`` and its coefficient's parts from ``normals``, kept
    for the first terms of the count; terms drawn twice add up."""
    terms = {}
    n_terms = int(integers.integers(0, 4)) + 1
    for k in range(4):
        alpha = tuple(int(a) for a in integers.integers(0, 4, size=d))
        re, im = normals.standard_normal(), normals.standard_normal()
        if k < n_terms:
            terms[alpha] = terms.get(alpha, 0) + complex(re, im)
    return MultiPolynomial(d=d, terms=terms)


def reference_vn_search(d, dim, trials, seed, M, extra_cases=(), tol=1e-10):
    """The search with one tuple, one polynomial and one ``vn_check`` per
    trial, each trial's draws taken one call at a time from the seed's two
    spawned generators."""
    normals, integers = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    cases = []
    for index in range(trials):
        tup = reference_commuting_tuple(normals, d, dim)
        cases.append(("random", index, tup, reference_row_polynomial(normals, integers, d)))
    for index, (tup, poly) in enumerate(extra_cases):
        cases.append(("fixture", index, tup, poly))

    max_ratio = 0.0
    violations = []
    reports = []
    for kind, index, tup, poly in cases:
        report = vn_check(tup, poly, M, tol=tol)
        if report.grid_sup > 0:
            max_ratio = max(max_ratio, report.lhs / report.grid_sup)
        reports.append(report)
        if report.verdict == "VIOLATED":
            violations.append(
                {
                    "kind": kind,
                    "index": index,
                    "tuple": tup.to_json(),
                    "polynomial": poly.to_json(),
                    "report": report.to_json(),
                }
            )
    counts = Counter((report.verdict, report.exact_sup) for report in reports)
    return {
        "d": d,
        "dim": dim,
        "trials": trials,
        "seed": seed,
        "M": M,
        "cases": len(reports),
        "verdicts": {
            verdict: {"exact": counts[verdict, True], "lattice": counts[verdict, False]}
            for verdict in ("HOLDS", "INCONCLUSIVE", "VIOLATED")
        },
        "max_ratio": max_ratio,
        "violations": violations,
    }


def reference_norms_within(a, limit):
    return bool((_op_norms(a) <= limit).all())


def reference_require_commuting(mats, noun, tol):
    """Every pair's commutator in each tuple of (..., d, n, n), normed in one
    stacked SVD; a non-finite member is refused, then the first pair of the
    first tuple whose commutator overflows is named, or else the first
    failing pair of the first failing tuple."""
    if not np.isfinite(mats).all():
        raise InputError("matrix contains non-finite entries")
    tuples = mats.reshape(-1, *mats.shape[-3:])
    order = np.arange(tuples.shape[1])
    first, second = np.nonzero(order[:, None] < order)
    a, b = tuples[:, first], tuples[:, second]
    commutators = a @ b - b @ a
    overflowed = np.argwhere(~np.isfinite(commutators).all(axis=(-2, -1)))
    if len(overflowed):
        pair = overflowed[0][1]
        raise InputError(f"the commutator of {noun} {first[pair] + 1} and {second[pair] + 1} "
                         "overflows the float range")
    devs = _op_norms(commutators)
    failing = np.argwhere(devs > tol)
    if len(failing):
        k, pair = failing[0]
        raise InputError(f"{noun} {first[pair] + 1} and {second[pair] + 1} do not commute "
                         f"(deviation {devs[k, pair]:.3e})")


def reference_require_contractions(stack, tol):
    norms = _op_norms(stack)
    failing = np.argwhere(norms > 1 + tol)
    if len(failing):
        k, i = failing[0]
        raise InputError(f"operator {i + 1} has norm {norms[k, i]:.12g} > 1 + tol")
    reference_require_commuting(stack, "operators", tol)


def reference_deviation_norms(x):
    """The operator norm of each member of a stack of deviations (K, r, c),
    one SVD per member, NaN for a member with a non-finite entry."""
    return np.array([float(_op_norms(m)) if np.isfinite(m).all() else np.nan for m in x])


def reference_isometry_deviations(a):
    """||A*A - 1|| of each member of a stack (K, r, c), one product and one
    SVD per member, NaN where A*A overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = [dagger(m) @ m - identity(m.shape[1]) for m in a]
    return reference_deviation_norms(gaps)


def reference_structure_deviations(a):
    """The deviations of ``structure_report`` one block at a time: each
    isometry, co-isometry and projection deviation normed by its own SVD
    and the largest taken, NaN where a product overflowed."""
    ones = np.ones(a.shape[0])
    isometry = reference_isometry_deviations([a])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        projection = reference_deviation_norms([a @ a - a, a - dagger(a)])
        return {
            "is_contraction": max(0.0, op_norm(a) - 1.0),
            "is_isometry": isometry,
            "is_unitary": np.max([isometry, reference_isometry_deviations([dagger(a)])[0]]),
            "is_projection": np.max(projection),
            "is_entrywise_nonneg": max(0.0, -a.real.min(), np.abs(a.imag).max()),
            # The residuals' 2-norms summed as the library sums them, along an axis.
            "preserves_unity": np.linalg.norm(a @ ones - ones, axis=-1),
            "adjoint_preserves_unity": np.linalg.norm(dagger(a) @ ones - ones, axis=-1),
        }


def reference_held_deviations(tup, N):
    """The isometry and unitary ``max_deviation`` of ``preservation_suite``
    block by block: every time's grid form from its own ``_grid_form``
    call, each point's block from ``reference_power_product``, and each
    block's gaps B*B - 1 and BB* - 1 normed by their own SVDs."""
    semi = DiscretizedSemigroup(tup, N)
    blocks = [
        reference_power_product(tup.mats, row)
        for nums in itertools.product(range(2 * N), repeat=tup.d)
        for row in _grid_form(semi, GridTime(N, nums))[1]
    ]
    isometry = reference_isometry_deviations(blocks)
    coisometry = reference_isometry_deviations([dagger(b) for b in blocks])
    return {"isometry": np.max(isometry), "unitary": np.max([isometry, coisometry])}


def reference_require_unitary(m, name, tol):
    dev = float(np.max(reference_isometry_deviations([m, dagger(m)])))
    if not dev <= tol:
        raise InputError(f"{name} is not unitary (deviation {dev:.3e})")


def reference_require_isometry(r, tol):
    dev = float(reference_isometry_deviations([r])[0])
    if not dev <= tol:
        raise InputError(f"r is not an isometry (deviation {dev:.3e})")


def reference_power_dilation_verify(tup, cand, tol=1e-10):
    """The dilation check one index of {0..n_max}^d at a time, from the
    held powers of every S_i and V_i."""
    s_pows = [reference_powers(s_i, cand.n_max) for s_i in tup.mats]
    v_pows = [reference_powers(v, cand.n_max) for v in cand.vs]
    r_dag = dagger(cand.r)
    max_dev = 0.0
    worst = None
    for ns in itertools.product(range(cand.n_max + 1), repeat=tup.d):
        lhs = s_pows[0][ns[0]]
        big_op = v_pows[0][ns[0]]
        for i in range(1, tup.d):
            lhs = lhs @ s_pows[i][ns[i]]
            big_op = big_op @ v_pows[i][ns[i]]
        dev = op_norm(lhs - r_dag @ big_op @ cand.r)
        if dev > max_dev:
            max_dev = dev
            worst = ns
    return {
        "max_deviation": max_dev,
        "worst_index": list(worst) if worst is not None else None,
        "n_max": cand.n_max,
        "passed": max_dev <= tol,
        "tol": tol,
    }


def reference_multilinear_compress(tup, t):
    """The closed multilinear form at one time vector t: per axis the
    blend of S_i^floor(t_i) and S_i^(floor(t_i)+1), in axis order."""
    out = identity(tup.dim)
    for s_i, x in zip(tup.mats, map(float, t)):
        fl = math.floor(x)
        fr = x - fl
        low, high = (reference_power_product([s_i], [k]) for k in (fl, fl + 1))
        out = out @ ((1 - fr) * low + fr * high)
    return out


def reference_eval_discretized(semi, t):
    """Dense T(t): the block prod_i S_i^kappa(t_i, m_i/N) of each source
    point m, placed at the target m + t (mod 1)."""
    N, d, dim = semi.N, semi.base.d, semi.base.dim
    axis_powers = []
    for s_i, fl in zip(semi.base.mats, (k // N for k in t.nums)):
        powers = [identity(dim)]
        for _ in range(fl + 1):
            powers.append(powers[-1] @ s_i)
        axis_powers.append(powers)
    block_cache = {}

    def block(exps):
        cached = block_cache.get(exps)
        if cached is None:
            cached = identity(dim)
            for i, k in enumerate(exps):
                cached = cached @ axis_powers[i][k]
            block_cache[exps] = cached
        return cached

    out = np.zeros((semi.total_dim, semi.total_dim), dtype=np.complex128)
    for source in itertools.product(range(N), repeat=d):
        exps = tuple(
            t.nums[i] // N + (1 if t.nums[i] % N + source[i] >= N else 0) for i in range(d)
        )
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


def reference_semigroup_suite(tup, N, max_num):
    """The property suite on dense evaluations: every pair product T(s)T(t)
    is compared with T(s+t), norms and interpolation deviations are SVDs of
    the full matrices, and the compression averages all blocks of T(t)."""
    semi = DiscretizedSemigroup(tup, N)
    d = tup.d
    grid = N**d

    def evaluate(nums):
        return reference_eval_discretized(semi, GridTime(N, nums))

    times = list(itertools.product(range(max_num), repeat=d))
    evals = {nums: evaluate(nums) for nums in times}

    hom_dev = 0.0
    for s in times:
        for t in times:
            u = tuple(x + y for x, y in zip(s, t))
            hom_dev = max(hom_dev, float(np.abs(evals[s] @ evals[t] - evaluate(u)).max()))

    contraction_dev = max(max(0.0, op_norm(evals[t]) - 1.0) for t in times)

    interp_dev = 0.0
    for i in range(d):
        for n in range(2 * N + 1):
            lhs = evaluate(tuple(n * N if j == i else 0 for j in range(d)))
            rhs = np.kron(identity(grid), np.linalg.matrix_power(tup.mats[i], n))
            interp_dev = max(interp_dev, op_norm(lhs - rhs))

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
        blocks = evals[nums].reshape(grid, tup.dim, grid, tup.dim)
        lhs = blocks.sum(axis=(0, 2)) / grid
        rhs = multilinear_compress(tup, [k / N for k in nums])
        compress_dev = max(compress_dev, op_norm(lhs - rhs))

    deviations = {
        "homomorphism": hom_dev,
        "contractivity": contraction_dev,
        "interpolation": interp_dev,
        "commutation": comm_dev,
        "compression_identity": compress_dev,
    }
    limits = {"homomorphism": 1e-10, "contractivity": 1e-10, "interpolation": 1e-12,
              "commutation": 1e-10, "compression_identity": 1e-12}
    checks = {name: dev <= limits[name] for name, dev in deviations.items()}
    return {"deviations": deviations, "checks": checks, "passed": all(checks.values())}


def reference_blockwise_suite(tup, N, max_num):
    """The property suite block by block: the grid form of every sum time
    from its own ``_grid_form`` call, the blocks of all of them gathered,
    and for every pair (s, t) the N^d products B_s[targets_t[m]] B_t[m]
    compared with B_{s+t}[m]; the interpolation times from their own grid
    forms, and every suite block normed.  Targets are not composed."""
    semi = DiscretizedSemigroup(tup, N)
    if max_num < 1:
        raise InputError(f"max_num must be >= 1, got {max_num}")
    d, dim = tup.d, tup.dim
    span = 2 * max_num - 1
    _check_cap(span**d * N**d * dim, dim)
    sums = list(itertools.product(range(span), repeat=d))
    targets, exponents = map(np.stack, zip(*(_grid_form(semi, GridTime(N, u)) for u in sums)))
    blocks = reference_blocks(tup.mats, exponents.reshape(-1, d))
    blocks = blocks.reshape(len(sums), N**d, dim, dim)
    row = {u: k for k, u in enumerate(sums)}
    times = list(itertools.product(range(max_num), repeat=d))
    rows = np.array([row[t] for t in times])

    hom_dev = 0.0
    for s in rows:
        products = blocks[s, targets[rows]] @ blocks[rows]
        hom_dev = max(hom_dev, float(np.abs(products - blocks[s + rows]).max()))

    norms = np.linalg.norm(blocks[rows], 2, axis=(-2, -1))
    contraction_dev = max(0.0, float(norms.max()) - 1.0)

    interp_dev = 0.0
    for i, s_i in enumerate(tup.mats):
        for n in range(2 * N + 1):
            nums = tuple(n * N if j == i else 0 for j in range(d))
            distinct = _distinct_rows(_grid_form(semi, GridTime(N, nums))[1])[0]
            diff = reference_blocks(tup.mats, distinct) - np.linalg.matrix_power(s_i, n)
            interp_dev = max(interp_dev, float(np.linalg.norm(diff, 2, axis=(-2, -1)).max()))

    axis_rows = [
        [row[tuple(a if k == i else 0 for k in range(d))] for a in range(1, max_num)]
        for i in range(d)
    ]
    pairs = [(x, y) for xs, ys in itertools.combinations(axis_rows, 2) for x in xs for y in ys]
    comm_dev = 0.0
    if pairs:
        xs, ys = np.array(pairs).T
        xy = blocks[xs[:, None], targets[ys]] @ blocks[ys]
        yx = blocks[ys[:, None], targets[xs]] @ blocks[xs]
        comm_dev = float(np.abs(xy - yx).max())

    closed = np.stack([multilinear_compress(tup, [k / N for k in t]) for t in times])
    compress_dev = float(
        np.linalg.norm(blocks[rows].mean(axis=1) - closed, 2, axis=(-2, -1)).max()
    )

    deviations = {
        "homomorphism": hom_dev,
        "contractivity": contraction_dev,
        "interpolation": interp_dev,
        "commutation": comm_dev,
        "compression_identity": compress_dev,
    }
    limits = {"interpolation": 1e-12, "compression_identity": 1e-12}
    checks = {name: dev <= limits.get(name, 1e-10) for name, dev in deviations.items()}
    return {"deviations": deviations, "checks": checks, "passed": all(checks.values())}


def reference_preservation_suite(tup, N, tol=1e-10):
    """The preservation suite with one dense evaluation and one
    ``structure_report`` per time of {0, ..., 2N-1}^d / N, then per
    converse unit time e_i."""
    semi = DiscretizedSemigroup(tup, N)
    d = tup.d
    times = [GridTime(N, nums) for nums in itertools.product(range(2 * N), repeat=d)]
    base_reports = [structure_report(m, tol=tol) for m in tup.mats]
    base_holds = {cls: all(r.holds(cls) for r in base_reports) for cls in _CLASSES}
    held = [cls for cls, holds in base_holds.items() if holds]
    results = {
        cls: {"base_holds": holds, "preserved": True if holds else None, "max_deviation": 0.0}
        for cls, holds in base_holds.items()
    }
    for t in times:
        if held:
            report = structure_report(eval_discretized(semi, t), tol=tol)
            for cls in held:
                entry = results[cls]
                entry["preserved"] = entry["preserved"] and report.holds(cls)
                entry["max_deviation"] = max(
                    entry["max_deviation"], *(report.deviations[flag] for flag in _CLASSES[cls])
                )

    converse = []
    for i in range(d):
        nums = tuple(N if j == i else 0 for j in range(d))
        lifted = structure_report(eval_discretized(semi, GridTime(N, nums)), tol=tol)
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
        "classes": results,
        "converse_unit_times": converse,
        "passed": passed,
    }


def reference_koopman_u(N, k):
    """Dense permutation unitary U(k/N): basis vector m goes to (m + k) mod N."""
    u = np.zeros((N, N), dtype=np.complex128)
    for m in range(N):
        u[(m + k) % N, m] = 1.0
    return u


def reference_projector_p(N, k):
    """Dense 0/1 diagonal P(k/N), keeping the points m < N - (k mod N)."""
    p = np.zeros((N, N), dtype=np.complex128)
    for m in range(N - k % N):
        p[m, m] = 1.0
    return p


def reference_bscr_q(N, s_num, t_num):
    """Dense Q(s,t), the right-hand branch operator of the relation."""
    p_t = reference_projector_p(N, t_num)
    p_st = reference_projector_p(N, s_num + t_num)
    if (s_num % N) + (t_num % N) < N:
        return identity(N) - (p_t - p_st)
    return p_st - p_t


def reference_bscr_check(N, s_num, t_num):
    """Max-entry deviation of the dense P(s)U(t) from U(t)Q(s,t)."""
    u_t = reference_koopman_u(N, t_num)
    lhs = reference_projector_p(N, s_num) @ u_t
    return float(np.abs(lhs - u_t @ reference_bscr_q(N, s_num, t_num)).max())


def reference_bscr_trace(N, s_num, t_num, f):
    """The values U(t)* P(s) U(t) f as dense matrix-vector products."""
    u_t = reference_koopman_u(N, t_num)
    p_s = reference_projector_p(N, s_num)
    return u_t.conj().T @ (p_s @ (u_t @ np.asarray(f, dtype=np.complex128)))
