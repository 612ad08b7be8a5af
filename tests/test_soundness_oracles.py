"""Checks that hold whatever route the lattice takes.

``_image`` is checked by brute force: over every k of the M^d lattice,
the vectors (k . (alpha - alpha_0) mod M)_alpha are exactly the vectors
its reduced exponents take on its prod sizes points.  The verdict tests
rest on facts of the mathematics, not on a reference route: a VIOLATED
at one lattice size never meets a HOLDS at another, the lattice maximum
does not depend on the order of the axes or on a rotation by M-th
roots, and a doubly commuting tuple (Sz.-Nagy-Foias, *Harmonic Analysis
of Operators on Hilbert Space*, ch. I 9) satisfies the inequality at any
d.  Each of these changes the exponent differences, and so the reduced
coordinates the lattice is evaluated in.

A common unitary conjugation A -> U A U* changes no exact quantity the
semigroup checks read: exp(s U A U*) = U exp(s A) U*, products and sums
conjugate termwise, and the 2-norm is unitarily invariant.  So the
``approx`` errors move only by rounding, and the pass flags of the
``interp check`` suite and of ``preserve``'s isometry and unitary classes
stay put.  Entrywise classes depend on the basis and are left out.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dilations.dilation
import dilations.interpolation
import dilations.linalg
from conftest import (
    random_commuting_tuple,
    random_commuting_unitaries,
    random_contraction,
    random_polynomial,
    random_unitary,
)
from dilations.dilation import (
    DEGREE_CAP,
    DilationCandidate,
    MultiPolynomial,
    _commuting_stack,
    _decide,
    _image,
    _verdict,
    torus_sup,
    vn_check,
)
from dilations.fixtures import load_crabb_davie
from dilations.interpolation import (
    ContractionTuple,
    _require_contractions,
    approx_error_sweep,
    semigroup_suite,
)
from dilations.linalg import DEFAULT_TOL, InputError, identity, kron, op_norm
from dilations.structure import preservation_suite
from test_dilation import BENCH_ALPHAS, rounding_bound
from test_interpolation import dissipative_generators, uniform_axes
from test_linalg import ONE_ULP_COLUMN
from unbatched_reference import reference_require_contractions, reference_torus_sup


def lattice_codes(exponents, shape, M):
    """The set of vectors (e . l mod M)_e over the rows e of ``exponents``
    and the points l of a lattice of ``shape``, each vector as one int."""
    points = np.indices(shape).reshape(len(shape), math.prod(shape)).T
    rows = np.asarray(exponents, dtype=np.int64).reshape(len(exponents), len(shape))
    values = points @ rows.T % M
    return set((values @ M ** np.arange(values.shape[1], dtype=np.int64)).tolist())


@st.composite
def image_cases(draw):
    """(terms, M): 0-6 terms of arity 1-3, exponents up to DEGREE_CAP."""
    d = draw(st.integers(1, 3))
    M = draw(st.sampled_from([2, 3, 4, 6, 8, 12, 16, 32]))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        alpha, budget = [], DEGREE_CAP
        for _ in range(d):
            alpha.append(draw(st.integers(0, budget)))
            budget -= alpha[-1]
        terms[tuple(draw(st.permutations(alpha)))] = complex(draw(st.integers(-3, 3)), 1)
    return terms, M


@settings(max_examples=300, deadline=None)
@given(image_cases())
@example(({}, 4))
# Arity 0: the differences vanish mod M.
@example(({(1,): 1, (3,): 2}, 2))
# Invariant factors 1 and 2: 16 x 8 = 128 points.
@example(({(0, 0): 1, (2, 0): 1, (1, 1): 1}, 16))
# Rank 1, and rank 2 with invariant factors 1 and 6 (12 x 2 points).
@example(({(0, 0, 0): 1, (1, 2, 3): -0.5j, (2, 4, 6): 0.25}, 12))
@example(({(0, 0, 0): 1, (2, 2, 0): 0.5j, (3, 0, 3): -0.75}, 12))
# Full rank, determinant 275, prime to 32: all of the 32^3 lattice.
@example(({(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1, (16, 0, 0): 1}, 32))
# A cyclic image of 6 points on one axis: without each s_i dividing the
# next, the elimination ended at axes of 3 and 2, one more than the rank.
@example(({(7, 0): 1j, (3, 6): 1j, (0, 0): 1j}, 6))
def test_image_is_the_lattice_image(case):
    terms, M = case
    sizes, reduced, full = _image(terms, M)
    if not terms:
        assert (sizes, reduced, full) == ((), {}, False)
        return
    # Full row rank of the rows alpha - alpha_0 themselves, not mod M.
    rows = np.array(list(terms)) - np.array(next(iter(terms)))
    assert full == (np.linalg.matrix_rank(rows) == len(terms) - 1)
    classes = {}
    for alpha, coeff in terms.items():
        classes.setdefault(tuple(a % M for a in alpha), []).append(coeff)
    differences = np.array(list(classes)) - np.array(next(iter(classes)))
    full = lattice_codes(differences, (M,) * differences.shape[1], M)
    assert math.prod(sizes) == len(full)
    assert lattice_codes(list(reduced), sizes, M) == full
    assert all(m > 1 and M % m == 0 for m in sizes)
    assert len(sizes) <= np.linalg.matrix_rank(differences)
    # Merged per class of alpha mod M, in term order.
    assert list(reduced.values()) == [sum(coeffs) for coeffs in classes.values()]


def diagonal_maximiser_case(rng, poly, M0):
    """(tuple, poly): diagonal unitaries whose joint eigenvalues are three
    M0-lattice points, one of them the M0-lattice argmax of |p|, so
    ||p(S)|| is a lattice value at M0 and close to sup |p| elsewhere."""
    d = poly.d
    ks = np.indices((M0,) * d).reshape(d, -1).T
    values = sum(c * np.exp(2j * np.pi * (ks @ np.array(a)) / M0) for a, c in poly.terms.items())
    points = [ks[np.argmax(np.abs(values))], *rng.integers(0, M0, size=(2, d))]
    mats = tuple(np.diag(np.exp(2j * np.pi * np.array(axis) / M0)) for axis in zip(*points))
    return ContractionTuple(mats, tol=1e-9), poly


def rank_deficient_polynomial(rng, d):
    """d + 2 terms of distinct exponents up to 3 per axis: more rows
    alpha - alpha_0 than axes, so they are dependent and the lattice
    decides."""
    alphas = set()
    while len(alphas) < d + 2:
        alphas.add(tuple(int(a) for a in rng.integers(0, 4, size=d)))
    terms = {alpha: complex(*rng.standard_normal(2)) for alpha in sorted(alphas)}
    return MultiPolynomial(d=d, terms=terms)


def test_violated_never_meets_holds_at_another_lattice():
    rng = np.random.default_rng(80)
    cases = [load_crabb_davie()]
    for d in (1, 2, 3):
        for _ in range(4):
            cases.append((random_commuting_tuple(rng, d, 3), random_polynomial(rng, d)))
            poly = random_polynomial(rng, d)
            cases.append(diagonal_maximiser_case(rng, poly, 24 if d < 3 else 12))
    # Most of the random polynomials above have independent rows, so their
    # bound is exact and their verdict cannot move; these can.
    for d in (1, 2, 3):
        for _ in range(3):
            poly = rank_deficient_polynomial(rng, d)
            cases.append(diagonal_maximiser_case(rng, poly, 24 if d < 3 else 12))
    moving = 0
    for tup, poly in cases:
        lattices = (2, 3, 4, 5, 6, 8, 12, 16, 24) + ((256,) if poly.d == 3 else (64,))
        verdicts = {vn_check(tup, poly, M).verdict for M in lattices}
        assert not {"VIOLATED", "HOLDS"} <= verdicts, (poly, verdicts)
        moving += len(verdicts) > 1
    # 12 of the 34 change verdict as M grows, so the check bites.
    assert moving >= len(cases) // 3


def exact_sup(poly, M):
    """(grid_sup, lipschitz_pad, sup_upper, exact_sup) of ``vn_check``'s rule,
    read from the report ``_decide`` builds (lhs 0)."""
    report = _decide(0.0, poly, M, DEFAULT_TOL)
    return report.grid_sup, report.lipschitz_pad, report.sup_upper, report.exact_sup


def test_exact_sup_is_attained_where_the_terms_align():
    # Independent rows alpha - alpha_0 let (alpha - alpha_0) . theta =
    # arg c_0 - arg c_alpha be solved; at that theta every term points the
    # same way, so |p| = sum |c_alpha|, and no point of the torus does
    # better.  Brute force: theta by least squares, then |p| directly.
    rng = np.random.default_rng(86)
    checked = 0
    while checked < 200:
        d = int(rng.integers(1, 4))
        alphas = rng.integers(0, 5, size=(int(rng.integers(1, d + 2)), d))
        rows = alphas - alphas[0]
        if len(set(map(tuple, alphas.tolist()))) < len(alphas):
            continue
        if np.linalg.matrix_rank(rows) < len(rows) - 1:
            continue
        coeffs = rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(len(alphas))
        poly = MultiPolynomial(d=d, terms=dict(zip(map(tuple, alphas.tolist()), coeffs)))
        grid_sup, _, sup_upper, exact = exact_sup(poly, 8)
        assert exact and grid_sup == sup_upper
        phases = np.angle(coeffs[0]) - np.angle(coeffs[1:])
        theta = np.linalg.lstsq(rows[1:], phases, rcond=None)[0]
        value = abs(sum(c * np.exp(1j * (a @ theta)) for a, c in zip(alphas, coeffs)))
        assert abs(value - sup_upper) <= rounding_bound(poly)
        lattice = reference_torus_sup(poly, 8)[0]
        assert lattice <= sup_upper + rounding_bound(poly, powers=int(alphas.sum(axis=1).max()))
        checked += 1


@st.composite
def independent_cases(draw):
    """(poly, M): 1 to d + 1 terms of arity 1-3 whose rows alpha - alpha_0
    are independent, and a lattice size."""
    d = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=1, max_size=d + 1,
                           unique=True))
    assume(np.linalg.matrix_rank(np.array(alphas) - np.array(alphas[0])) == len(alphas) - 1)
    coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False)
    poly = MultiPolynomial(d=d, terms={alpha: draw(coeff) for alpha in alphas})
    return poly, draw(st.sampled_from([2, 3, 4, 8, 16]))


@settings(max_examples=100, deadline=None)
@given(independent_cases(), st.floats(0, 2))
def test_lattice_verdict_never_contradicts_the_exact_sup(case, ratio):
    # The lattice maximum is a value |p| attains, so at most S, and the
    # lattice bound is at least sup |p| = S: where the lattice decides,
    # it decides as S does, and S always decides.
    poly, M = case
    grid_sup, _, sup_upper, exact = exact_sup(poly, M)
    assert exact
    lhs = ratio * sup_upper
    decided = _verdict(lhs, grid_sup, sup_upper, DEFAULT_TOL)
    ref_grid_sup, _, ref_sup_upper = reference_torus_sup(poly, M)
    assert decided in ("HOLDS", "VIOLATED")
    assert _verdict(lhs, ref_grid_sup, ref_sup_upper, DEFAULT_TOL) in ("INCONCLUSIVE", decided)


def test_exact_sup_for_dependent_rows_is_caught(monkeypatch):
    """Mutant check: the exact sup taken for every polynomial turns the
    fixture, whose rows are dependent and whose sum |c_alpha| = 4 is its
    lhs, from VIOLATED into HOLDS."""
    image = dilations.dilation._image
    def mutant(terms, M):
        return (*image(terms, M)[:2], True)

    monkeypatch.setattr(dilations.dilation, "_image", mutant)
    report = vn_check(*load_crabb_davie(), 256)
    assert report.exact_sup and report.sup_upper == 4.0
    assert report.verdict == "HOLDS"


def test_nan_deviation_is_refused(monkeypatch):
    """Mutant check: an isometry gap A*A - 1 of NaN, as an overflowing A*A
    gives, passes no check: ``_max_op_norm``, which decides both of
    ``DilationCandidate``'s checks through ``_require_isometries``, refuses
    it, and the refusal reads the NaN deviation off the same gaps."""
    gaps = dilations.linalg._isometry_gaps
    def mutant(a):
        # NaN gaps for the members with a column count in nan_cols: V is 2x2, r 2x1.
        return np.full_like(gaps(a), np.nan) if a.shape[-1] in nan_cols else gaps(a)

    e1 = identity(2)[:, :1]
    for nan_cols, message in (({1, 2}, r"^V_1 is not unitary \(deviation nan\)$"),
                              ({1}, r"^r is not an isometry \(deviation nan\)$")):
        monkeypatch.setattr(dilations.linalg, "_isometry_gaps", mutant)
        with pytest.raises(InputError, match=message):
            DilationCandidate(vs=(identity(2),), r=e1, n_max=1)


def test_a_screen_without_its_margin_is_caught(monkeypatch):
    """Mutant check: a screen that passes a stack once every member has
    F <= limit, with no margin for rounding, accepts as a contraction an
    operator whose computed norm is over 1 + tol; the screen with its
    margin leaves the operator to the SVD, which refuses it."""
    s, tol = ONE_ULP_COLUMN
    with pytest.raises(InputError, match=r"^operator 1 has norm 1.0000000001 > 1 \+ tol$"):
        ContractionTuple((s,), tol=tol)
    screen = dilations.linalg._max_op_norm
    def mutant(a, limit=None):
        if limit is not None and (np.linalg.norm(a, axis=(-2, -1)) <= limit).all():
            return True
        return screen(a, limit)

    monkeypatch.setattr(dilations.linalg, "_max_op_norm", mutant)
    assert op_norm(ContractionTuple((s,), tol=tol).mats[0]) > 1 + tol


def test_a_known_norm_without_its_margin_is_caught(monkeypatch):
    """Mutant check: the norm ``_commuting_stack`` knows for a rescaled
    member, taken as 1 / (1 + 1e-12) with no margin for rounding, is below
    the computed norm of some members.  At 1 + tol = 1 / (1 + 1e-12) the
    SVD refuses such a member, and the check with the margin leaves it to
    the SVD; the mutant's bound passes it on to the commutation check,
    which this negative tol fails."""
    normals = np.random.default_rng(37).standard_normal((200, 2 * 4 * 4 + 8 * 2))
    tol = 1 / (1 + 1e-12) - 1
    stack, known = _commuting_stack(normals, 2, 4)
    with pytest.raises(InputError, match=r"^operator \d has norm 0.999999999999 > 1 \+ tol$"):
        reference_require_contractions(stack, tol)
    with pytest.raises(InputError, match=r"^operator \d has norm 0.999999999999 > 1 \+ tol$"):
        _require_contractions(stack, tol, known)
    monkeypatch.setattr(dilations.dilation, "_norm_margin", lambda rows, cols: 0.0)
    stack, known = _commuting_stack(normals, 2, 4)
    with pytest.raises(InputError, match=r"^operators \d and \d do not commute"):
        _require_contractions(stack, tol, known)


def test_independent_rows_evaluate_no_lattice(monkeypatch):
    # The certify benchmark's d = 3 shape: its image at M = 256 is all
    # 256^3 points, and none of them is evaluated.
    calls = []
    monkeypatch.setattr(dilations.dilation, "_lattice_max", lambda *args: calls.append(args))
    rng = np.random.default_rng(87)
    poly = MultiPolynomial(d=3, terms={a: complex(*rng.standard_normal(2)) for a in BENCH_ALPHAS})
    report = vn_check(random_commuting_tuple(rng, 3, 4), poly, 256)
    assert calls == []
    assert report.exact_sup and report.verdict == "HOLDS"


# Dependent rows (1) and (3), so the lattice and its pad decide; lhs is
# |p| at its maximiser theta*, the argmax of |p| over 10^6 equally
# spaced angles: lhs = 3.5598, and sup_upper = 4.4556 at M = 3.
PAD_CASE = MultiPolynomial(d=1, terms={(0,): -0.06 - 2.67j, (1,): -0.25 - 0.17j,
                                       (3,): -0.09 + 0.58j})
PAD_THETA = 0.9873146064289715


def pad_case_verdicts():
    """The verdict at M = 2, 3, 4, 8 of PAD_CASE at S = [e^(i theta*)]."""
    tup = ContractionTuple((np.array([[np.exp(1j * PAD_THETA)]]),))
    return {M: vn_check(tup, PAD_CASE, M).verdict for M in (2, 3, 4, 8)}


def test_pad_keeps_a_near_maximiser_from_violating():
    # A 1 x 1 unitary satisfies the inequality, and lhs is within 1e-11
    # of sup |p|: every coarse lattice misses the maximiser by enough
    # that only the full pad keeps the verdict sound.
    assert pad_case_verdicts() == dict.fromkeys((2, 3, 4, 8), "INCONCLUSIVE")


def test_a_smaller_pad_is_caught(monkeypatch):
    """Mutant check: a pad of half its size makes M = 3 VIOLATED (bound
    3.3754 < lhs), and a quarter makes M = 3 and 4 VIOLATED."""
    pad = dilations.dilation._lipschitz_pad
    for factor, violated in ((2, {3}), (4, {3, 4})):
        monkeypatch.setattr(dilations.dilation, "_lipschitz_pad",
                            lambda poly, M, factor=factor: pad(poly, M) / factor)
        verdicts = pad_case_verdicts()
        assert {M for M, verdict in verdicts.items() if verdict == "VIOLATED"} == violated


def rotated_and_permuted(poly, M, shift, perm):
    """p(w^shift_0 z_0, ...) with w = exp(2 pi i / M), then its axes
    permuted: exponent alpha moves to alpha[perm]."""
    roots = np.exp(2j * np.pi * np.arange(M) / M)
    terms = {
        tuple(alpha[i] for i in perm): coeff * complex(roots[np.dot(shift, alpha) % M])
        for alpha, coeff in poly.terms.items()
    }
    return MultiPolynomial(d=poly.d, terms=terms)


@settings(max_examples=100, deadline=None)
@given(image_cases(), st.data())
def test_grid_sup_moves_within_rounding_under_symmetries(case, data):
    # A permutation of the axes maps the lattice onto itself, and so does a
    # rotation by M-th roots; either leaves the exact lattice maximum
    # unchanged.  The rotated coefficients carry one more table entry and
    # product each (under 30u |c_alpha|), inside what rho leaves above the
    # stream's own error on each side.
    terms, M = case
    d = len(next(iter(terms), (0,)))
    poly = MultiPolynomial(d=d, terms=terms)
    perm = data.draw(st.permutations(range(d)))
    shift = data.draw(st.tuples(*[st.integers(0, M - 1)] * d))
    grid_sup, pad, _ = torus_sup(poly, M)
    permuted = torus_sup(rotated_and_permuted(poly, M, (0,) * d, perm), M)
    rotated = torus_sup(rotated_and_permuted(poly, M, shift, range(d)), M)
    assert abs(permuted[0] - grid_sup) <= 2 * rounding_bound(poly)
    assert abs(rotated[0] - grid_sup) <= 2 * rounding_bound(poly)
    assert permuted[1] == pad


def test_permuting_tuple_and_polynomial_together_keeps_the_verdict():
    tup, poly = load_crabb_davie()
    for perm in [(1, 0, 2), (2, 0, 1), (2, 1, 0)]:
        moved_tup = ContractionTuple(tuple(tup.mats[i] for i in perm), tol=1e-9)
        moved_poly = rotated_and_permuted(poly, 256, (0, 0, 0), perm)
        report, moved = vn_check(tup, poly, 256), vn_check(moved_tup, moved_poly, 256)
        assert moved.verdict == report.verdict == "VIOLATED"
        assert abs(moved.grid_sup - report.grid_sup) <= 2 * rounding_bound(poly)


def test_doubly_commuting_tensor_tuples_are_never_violated():
    # S_1 x 1 x 1, 1 x S_2 x 1, 1 x 1 x S_3 has a regular unitary dilation,
    # so von Neumann's inequality holds for it whatever d.
    rng = np.random.default_rng(81)
    one = identity(2)
    verdicts = []
    for case in range(12):
        factors = [
            random_unitary(rng, 2) if (case + i) % 3 == 0 else random_contraction(rng, 2)
            for i in range(3)
        ]
        mats = (
            kron(kron(factors[0], one), one),
            kron(kron(one, factors[1]), one),
            kron(kron(one, one), factors[2]),
        )
        tup = ContractionTuple(mats, tol=1e-9)
        poly = random_polynomial(rng, 3)
        for M in (4, 8, 16):
            verdicts.append(vn_check(tup, poly, M).verdict)
    assert "VIOLATED" not in verdicts
    assert "HOLDS" in verdicts


def conjugated(mats, u):
    """U S U* of each matrix of ``mats``."""
    return [u @ m @ u.conj().T for m in mats]


def test_approx_errors_move_within_rounding_under_unitary_conjugation():
    # Each sup_error moves by at most the rounding term rho that
    # ``approx_error_sweep``'s docstring states, 32 (d + 1) n u (1 +
    # sum_i T_i ||A_i||) with T_i = max t_i + eps.
    rng = np.random.default_rng(83)
    u_round = np.finfo(float).eps / 2
    eps_list = [0.5, 0.3, 0.125, 1 / 64]
    moved_any = False
    for d, dim, steps in [(1, 4, 40), (2, 3, 12), (3, 2, 5)]:
        gens = dissipative_generators(rng, d, dim)
        axes = uniform_axes(d, 2.0, steps)
        report = approx_error_sweep(gens, eps_list, axes)
        moved = approx_error_sweep(conjugated(gens, random_unitary(rng, dim)), eps_list, axes)
        for row, other, eps in zip(report, moved, eps_list):
            reach = 2.0 + eps
            rho = 32 * (d + 1) * dim * u_round * (1 + sum(reach * op_norm(g) for g in gens))
            assert other["eps"] == row["eps"] == eps
            assert abs(other["sup_error"] - row["sup_error"]) <= rho, (d, dim, eps)
            moved_any = moved_any or other["sup_error"] != row["sup_error"]
    # The conjugated sweeps round differently, so the bound is what holds.
    assert moved_any


def test_interp_check_passes_under_unitary_conjugation():
    rng = np.random.default_rng(84)
    for d, dim, N, max_num in [(1, 3, 3, 3), (2, 3, 2, 2), (3, 2, 2, 2)]:
        tup = random_commuting_tuple(rng, d, dim)
        moved = ContractionTuple(conjugated(tup.mats, random_unitary(rng, dim)), tol=1e-9)
        suite, other = semigroup_suite(tup, N, max_num), semigroup_suite(moved, N, max_num)
        assert suite["passed"] and other["passed"], (d, other["deviations"])
        assert other["checks"] == suite["checks"]


def test_preserve_keeps_the_unitary_classes_under_unitary_conjugation():
    rng = np.random.default_rng(85)
    for d, dim, N in [(1, 4, 3), (2, 3, 2), (3, 2, 2)]:
        tup = random_commuting_unitaries(rng, d, dim)
        moved = ContractionTuple(conjugated(tup.mats, random_unitary(rng, dim)), tol=1e-9)
        report, other = preservation_suite(tup, N), preservation_suite(moved, N)
        assert report["passed"] and other["passed"]
        assert other["converse_unit_times"] == report["converse_unit_times"]
        for cls in ("isometry", "unitary"):
            entry, moved_entry = report["classes"][cls], other["classes"][cls]
            assert entry["base_holds"] and moved_entry["base_holds"], cls
            assert entry["preserved"] and moved_entry["preserved"], cls
            # Both deviations are rounding, far inside the tolerance.
            assert max(entry["max_deviation"], moved_entry["max_deviation"]) <= DEFAULT_TOL / 100
