import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilations import linalg
from dilations.linalg import (
    InputError,
    NumericalError,
    _listed,
    _matrix_payload,
    _max_deviation,
    _max_op_norm,
    _op_norms,
    _power_products,
    _powers,
    _require_isometries,
    as_matrix,
    dagger,
    identity,
    kron,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    psd_sqrt,
)
from dilations.dilation import DilationCandidate, _random_commuting_tuple
from dilations.interpolation import _require_contractions
from unbatched_reference import (
    reference_matrix_exp,
    reference_norms_within,
    reference_power_product,
    reference_require_commuting,
    reference_require_contractions,
    reference_isometry_deviations,
    reference_require_isometry,
    reference_require_unitary,
)


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_matrix_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(identity(2), identity(2)), identity(4))

    def test_elementary_index_arithmetic(self):
        e21 = np.zeros((2, 2), dtype=complex)
        e21[1, 0] = 1.0
        out = kron(e21, e21)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_mixed_product_against_direct_multiplication(self):
        rng = np.random.default_rng(7)
        a, b, c, d = (rand_matrix(rng, 2) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_associativity(self):
        rng = np.random.default_rng(8)
        a, b, c = rand_matrix(rng, 2), rand_matrix(rng, 3), rand_matrix(rng, 2)
        # entry products are reassociated, so only close to rounding
        np.testing.assert_allclose(
            kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12
        )

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rand_matrix(rng, int(rng.integers(1, 5)))
            b = rand_matrix(rng, int(rng.integers(1, 5)))
            assert op_norm(kron(a, b)) == pytest.approx(
                op_norm(a) * op_norm(b), abs=1e-9
            )

    def test_size_cap(self):
        big = np.ones((1100, 1100))
        with pytest.raises(InputError):
            kron(big, np.ones((2, 2)))


class TestOpNorm:
    def test_identity(self):
        assert op_norm(identity(5)) == pytest.approx(1.0, abs=1e-12)

    def test_single_unit_entry(self):
        e21 = np.zeros((2, 2), dtype=complex)
        e21[1, 0] = 1.0
        assert op_norm(e21) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_nilpotent(self):
        assert op_norm([[0, 2], [0, 0]]) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_a_vector(self):
        with pytest.raises(InputError, match=r"^expected a 2-d matrix, got shape \(2,\)$"):
            as_matrix([1.0, 2.0])


def svd_counts(monkeypatch):
    """Record the number of members of every ``_op_norms`` call."""
    counts = []

    def spy(a):
        counts.append(len(a))
        return _op_norms(a)

    monkeypatch.setattr(linalg, "_op_norms", spy)
    return counts


def svd_shapes(monkeypatch):
    """Record the shape of every stack whose matrix 2-norms
    ``np.linalg.norm`` takes, by SVD, whichever routine asks for them."""
    shapes, norm = [], np.linalg.norm

    def spy(x, ord=None, axis=None, keepdims=False):
        if ord == 2 and isinstance(axis, tuple):
            shapes.append(np.shape(x))
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return shapes


def margin(shape):
    """The delta of ``_max_op_norm`` for members of ``shape`` (..., r, c)."""
    return 1e-10 + 8 * (shape[-2] + shape[-1]) ** 2 * np.finfo(float).eps / 2


def limit_near(stack, rng, k):
    """A limit k deltas from one random member's computed 2-norm, or from
    its Frobenius or largest column norm, the screen's two bounds."""
    member = stack.reshape(-1, *stack.shape[-2:])[rng.integers(stack.size // np.prod(
        stack.shape[-2:]))]
    peak = np.abs(member).max()
    scaled = member / peak if peak > 0 else member  # Frobenius norms with no overflow
    anchor = [op_norm(member), peak * np.linalg.norm(scaled),
              peak * np.linalg.norm(scaled, axis=0).max()][rng.integers(3)]
    return float(anchor * (1 + k * margin(stack.shape)))


def outcome(check, *args):
    """The refusal message of ``check(*args)``, or None when it passes;
    products of non-finite members warn on either route, so no warning
    is raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            check(*args)
    except InputError as exc:
        return str(exc)
    return None


# A one-column operator, so its norm equals its Frobenius norm.  Computed,
# the Frobenius norm is 1.0000000001 = 1 + tol, both by numpy and by the
# screen's scaled sum, an ulp below the LAPACK norm 1.0000000001000002.
# Only the margin keeps the screen from passing it at the limit 1 + tol.
ONE_ULP_COLUMN = (
    np.array([[0.578713690154567 - 0.7908242877495123j, 0],
              [-0.012663319259399716 - 0.1988141123725755j, 0]]),
    1.000000082740371e-10,
)
# And one whose largest column norm, computed by the screen's scaled sum,
# is an ulp above its LAPACK norm 1.0000000001000002 = 1 + tol: only the
# margin keeps the screen from failing it.
ONE_ULP_OVER_COLUMN = (
    np.array([[0.8322625813547108 + 0.32756113487325716j, 0],
              [0.18604680772257504 + 0.40672998922328907j, 0]]),
    1.0000023031864202e-10,
)

# Where the screen decides: k deltas off a norm or one of its bounds,
# exactly on it (k = 0) and one rounding either side of it.
STEPS = st.sampled_from([-3, -2, -1.5, -1, -0.5, -1e-6, 0, 1e-6, 0.5, 1, 1.5, 2, 3])


class TestMaxOpNorm:
    """``_max_op_norm`` equals ``_op_norms(stack).max()`` bit for bit."""

    @staticmethod
    def assert_same_max(stack):
        expected = _op_norms(stack).max()
        got = _max_op_norm(stack)
        assert got.tobytes() == expected.tobytes(), (got, expected)

    @pytest.mark.parametrize("shape", [(1, 3, 3), (7, 4, 4), (50, 2, 2), (9, 3, 5), (9, 6, 2),
                                       (12, 1, 1), (3, 2, 4, 4)])
    def test_random_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            scales = 10.0 ** rng.uniform(-3, 3, shape[:-2])[..., None, None]
            self.assert_same_max(scales * rand_matrix(rng, 1, 1) * rand_matrix_stack(rng, shape))

    def test_tied_stacks(self):
        rng = np.random.default_rng(3)
        a = rand_matrix(rng, 4)
        self.assert_same_max(np.array([a] * 6))
        # Every member a unit-modulus multiple of the identity: all tie.
        phases = np.exp(2j * np.pi * rng.random(8))
        self.assert_same_max(phases[:, None, None] * identity(3))
        # Unitaries: every norm 1 up to rounding.
        q = np.linalg.qr(rand_matrix_stack(rng, (10, 4, 4)))[0]
        self.assert_same_max(q)

    def test_all_zero_and_tiny_stacks(self):
        self.assert_same_max(np.zeros((5, 3, 3), dtype=complex))
        rng = np.random.default_rng(4)
        self.assert_same_max(1e-300 * rand_matrix_stack(rng, (6, 3, 3)))
        self.assert_same_max(1e300 * rand_matrix_stack(rng, (6, 3, 3)))
        stack = rand_matrix_stack(rng, (6, 3, 3))
        stack[2] *= 1e-200
        self.assert_same_max(stack)

    def test_one_column_maximiser(self):
        # The largest member is one nonzero column, so its Frobenius norm
        # equals the largest column norm; computed, it is sometimes an
        # ulp below it, and only the margin keeps the member a candidate.
        rng = np.random.default_rng(5)
        for _ in range(300):
            stack = rand_matrix_stack(rng, (3, 4, 4))
            column = stack[0, :, 0].copy()
            stack[0] = 0
            stack[0, :, rng.integers(4)] = column
            stack[1:] *= 0.5 * np.linalg.norm(column) / _op_norms(stack[1:])[:, None, None]
            self.assert_same_max(stack)

    def test_column_bound_not_frobenius(self):
        # diag(1.2, 0) has the largest norm but the smaller Frobenius norm.
        stack = np.array([identity(2), np.diag([1.2, 0.0]).astype(complex)])
        assert _max_op_norm(stack) == 1.2

    def test_svd_only_on_candidates(self, monkeypatch):
        rng = np.random.default_rng(6)
        stack = rand_matrix_stack(rng, (100, 4, 4))
        stack[1:] *= 1e-2
        counts = svd_counts(monkeypatch)
        assert _max_op_norm(stack) == _op_norms(stack).max()
        assert counts == [1]

    def test_candidate_rule_at_its_margin(self, monkeypatch):
        # Member 0 sets L = 1; member 1 = x I has Frobenius norm x sqrt(2),
        # a candidate iff x sqrt(2) (1 + delta) >= 1 - delta, roughly
        # x sqrt(2) >= 1 - 2 delta.
        delta = 1e-10 + 8 * 4**2 * np.finfo(float).eps / 2
        counts = svd_counts(monkeypatch)
        for frobenius, expected in ((1 - 1.5 * delta, 2), (1 - 2.5 * delta, 1)):
            stack = np.array([np.diag([1.0, 0.0]), frobenius / np.sqrt(2) * np.eye(2)])
            assert _max_op_norm(stack.astype(complex)) == 1.0
            assert counts.pop() == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_is_input_error(self, bad):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            _max_op_norm(stack)

    def test_svd_failure_is_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "norm", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            _max_op_norm(np.ones((2, 2, 2), dtype=complex))


class TestMaxOpNormLimit:
    """``_max_op_norm(a, limit)`` is the all-SVD decision
    ``reference_norms_within(a, limit)``, with SVDs only where undecided."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(1, 1, 1), (5, 1, 1), (1, 100, 4), (6, 3, 5), (4, 2, 2, 2),
                            (3, 6, 1)]),
           st.sampled_from([0.0, 1e-300, 1e-12, 1.0, 1e150, 1e300]), STEPS)
    def test_matches_the_all_svd_decision(self, seed, shape, scale, k):
        rng = np.random.default_rng(seed)
        stack = rand_matrix_stack(rng, shape) * 10.0 ** rng.uniform(-1, 1, (*shape[:-2], 1, 1))
        stack *= scale
        flat = stack.reshape(-1, *shape[-2:])
        column, peak = flat[0, :, 0], np.abs(flat[0, :, 0]).max()
        if rng.random() < 0.3 and peak > 0:
            # A rank-one member: its norm meets both of its bounds.
            flat[0] = np.outer(column / peak, flat[0, 0].conj())
        limit = limit_near(stack, rng, k)
        assert _max_op_norm(stack, limit) is reference_norms_within(stack, limit)

    @pytest.mark.parametrize("limit", [0.0, -0.0, 1e-300, 1.0, -1e-300, np.inf, -np.inf])
    def test_zero_stacks(self, limit):
        for shape in ((1, 1, 1), (3, 2, 2), (2, 100, 4)):
            zeros = np.zeros(shape, dtype=complex)
            assert _max_op_norm(zeros, limit) is reference_norms_within(zeros, limit)

    def test_nan_limit_is_decided_by_the_svd(self, monkeypatch):
        # A NaN limit passes no member, as x <= nan is false.
        counts = svd_counts(monkeypatch)
        assert _max_op_norm(np.eye(2, dtype=complex)[None], np.nan) is False
        assert counts == [1]

    def test_extreme_limits(self):
        # limit / peak overflows to inf, or is subnormal: no warning, and
        # the decision of the SVD.
        tiny = np.full((2, 3, 3), 1e-320, dtype=complex)
        huge = np.full((2, 3, 3), 1e300, dtype=complex)
        for stack, limit in ((tiny, 1e-10), (tiny, 1e-330), (huge, 1e-10), (huge, 1e-320),
                             (huge, 3e300), (huge, np.inf)):
            assert _max_op_norm(stack, limit) is reference_norms_within(stack, limit)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_is_input_error(self, bad):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = bad
        for check in (_max_op_norm, reference_norms_within):
            with pytest.raises(InputError, match="^matrix contains non-finite entries$"):
                check(stack, 1.0)

    def test_one_ulp_columns_are_left_to_the_svd(self, monkeypatch):
        s, tol = ONE_ULP_COLUMN
        assert np.linalg.norm(s) == 1 + tol < op_norm(s)
        over, over_tol = ONE_ULP_OVER_COLUMN
        assert op_norm(over) == 1 + over_tol
        counts = svd_counts(monkeypatch)
        assert _max_op_norm(s[None], 1 + tol) is False
        assert _max_op_norm(over[None], 1 + over_tol) is True
        assert counts == [1, 1]

    def test_svd_only_on_undecided_members(self, monkeypatch):
        # Members 0 and 1 sit at the limit, the rest far below it: only
        # the two are SVD'd.  A member far above it fails the stack at
        # once, and a stack far below it passes, with no SVD.
        rng = np.random.default_rng(21)
        stack = rand_matrix_stack(rng, (10, 4, 4))
        stack /= _op_norms(stack)[:, None, None]
        stack[2:] *= 1e-3
        counts = svd_counts(monkeypatch)
        assert _max_op_norm(stack, 1.0) is True
        assert counts == [2]
        stack[5] *= 1e4
        assert _max_op_norm(stack, 1.0) is False
        assert _max_op_norm(stack[6:], 1.0) is True
        assert counts == [2]


def stack_near(rng, exact, bad=(1e200, np.inf, np.nan)):
    """``exact`` (a stack of commuting tuples, a unitary or an isometry)
    moved off by noise of a random size; one time in ten, one entry is
    set to a value of ``bad``, past the float range when squared or not
    finite."""
    stack = exact + 10.0 ** rng.uniform(-15, -1) * rand_matrix_stack(rng, exact.shape)
    if rng.random() < 0.1:
        stack[tuple(rng.integers(n) for n in exact.shape)] = bad[rng.integers(len(bad))]
    return stack


class TestScreenedChecks:
    """Each check that ``_max_op_norm(a, limit)`` now decides gives the
    decision and refusal message of its all-SVD route in
    ``unbatched_reference``, at tolerances a few deltas off its norms."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2, 1), (3, 3, 2), (2, 4, 3)]),
           STEPS)
    def test_commuting_and_contraction_checks(self, seed, shape, k):
        rng = np.random.default_rng(seed)
        tuples = np.stack([_random_commuting_tuple(rng, shape[1], shape[2]).mats
                           for _ in range(shape[0])])
        stack = stack_near(rng, tuples)
        a, b = stack[:, :, None], stack[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            commutators = (a @ b - b @ a).reshape(-1, shape[2], shape[2])
        finite = np.isfinite(commutators).all()
        tol = limit_near(commutators, rng, k) if finite else 1e-10
        assert outcome(linalg._require_commuting, stack, "operators", tol) == outcome(
            reference_require_commuting, stack, "operators", tol)
        tol = limit_near(stack, rng, k) - 1 if finite else 1e-10
        assert outcome(_require_contractions, stack, tol) == outcome(
            reference_require_contractions, stack, tol)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5]), STEPS)
    def test_unitary_and_isometry_checks(self, seed, n, k):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rand_matrix(rng, n))[0]
        m = stack_near(rng, q)
        pair = np.stack([m, dagger(m)])
        gaps = linalg._isometry_gaps(pair)
        tol = limit_near(gaps, rng, k) if np.isfinite(gaps).all() else 1e-10
        devs = reference_isometry_deviations(pair)
        assert _max_deviation(gaps, tol) is bool((devs <= tol).all())
        np.testing.assert_array_equal(_max_deviation(gaps), np.max(devs))  # NaN matches NaN
        assert outcome(_require_isometries, pair, "V_1 is not unitary", tol) == outcome(
            reference_require_unitary, m, "V_1", tol)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), STEPS)
    def test_embedding_check(self, seed, k):
        # The 100 x 4 embedding of an m = 24 dilation of a 4 x 4 contraction.
        rng = np.random.default_rng(seed)
        r = stack_near(rng, np.linalg.qr(rand_matrix(rng, 100, 4))[0], bad=(1e200,))
        gaps = linalg._isometry_gaps(r[None])
        tol = limit_near(gaps, rng, k) if np.isfinite(gaps).all() else 1e-10
        assert outcome(DilationCandidate, (identity(100),), r, 1, tol) == outcome(
            reference_require_isometry, r, tol)


class TestPowers:
    def test_powers(self):
        s = np.roll(identity(3), 1, axis=0)  # the cyclic shift
        pows = _powers(s, range(4))
        np.testing.assert_array_equal(pows[0], identity(3))
        np.testing.assert_array_equal(pows[2], s @ s)
        np.testing.assert_array_equal(pows[3], identity(3))

    def test_asked_exponents_by_repeated_multiplication(self):
        # Repeated and skipped exponents give the bits of the full walk.
        a = rand_matrix(np.random.default_rng(17), 4) / 4
        walk = [identity(4)]
        for _ in range(9):
            walk.append(walk[-1] @ a)
        ks = [0, 0, 3, 4, 4, 9]
        got = _powers(a, ks)
        assert got.shape == (len(ks), 4, 4)
        for k, power in zip(ks, got):
            assert power.tobytes() == walk[k].tobytes(), k
        assert _powers(a, []).shape == (0, 4, 4)


class TestPowerProducts:
    @pytest.mark.parametrize("d, dim, seed", [(1, 3, 1), (2, 2, 2), (3, 4, 3), (4, 1, 4)])
    def test_matches_per_row_multiplication(self, d, dim, seed):
        # Bit for bit the product of each row multiplied from the identity
        # in axis order, each power by its own repeated multiplication;
        # rows repeat and exponents skip.
        rng = np.random.default_rng(seed)
        tup = _random_commuting_tuple(rng, d, dim)
        exponents = rng.integers(0, 6, (20, d))
        exponents = np.concatenate([exponents, exponents[:5], np.zeros((1, d), int)])
        got = _power_products(tup.mats, exponents)
        assert got.shape == (len(exponents), dim, dim)
        for row, block in zip(exponents, got):
            expected = identity(dim)
            for s_i, k in zip(tup.mats, row):
                power = identity(dim)
                for _ in range(k):
                    power = power @ s_i
                expected = expected @ power
            assert block.tobytes() == expected.tobytes(), row

    def test_walks_each_axis_once_over_unsorted_repeated_exponents(self, monkeypatch):
        # Each axis walks its distinct exponents once, in increasing order,
        # whatever the order and repetition of the rows.
        walks, powers = [], linalg._powers

        def tracked(a, ks):
            walks.append(list(ks))
            return powers(a, ks)

        monkeypatch.setattr(linalg, "_powers", tracked)
        tup = _random_commuting_tuple(np.random.default_rng(5), 2, 3)
        rows = np.array([[5, 0], [0, 3], [5, 0], [2, 3], [0, 0], [5, 3], [2, 1]])
        got = _power_products(tup.mats, rows.reshape(7, 1, 2))
        assert got.shape == (7, 1, 3, 3)
        assert walks == [[0, 2, 5], [0, 1, 3]]
        for row, block in zip(rows, got[:, 0]):
            assert block.tobytes() == reference_power_product(tup.mats, row).tobytes(), row

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_rows(self, d):
        mats = _random_commuting_tuple(np.random.default_rng(d), d, 2).mats
        assert _power_products(mats, np.zeros((0, d), dtype=int)).shape == (0, 2, 2)
        stacks = np.stack([mats, mats], axis=1)
        assert _power_products(stacks, np.zeros((2, 0, d), dtype=int)).shape == (2, 0, 2, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacked_members_match_their_own_calls(self, d):
        # Member k of d stacks takes the rows rows[k]: bit for bit the call
        # on its own tuple, though the stack walks the exponents of all.
        rng = np.random.default_rng(20 + d)
        tuples = [_random_commuting_tuple(rng, d, 3).mats for _ in range(5)]
        rows = rng.integers(0, 5, (5, 6, d))
        rows[0] = 0
        got = _power_products(np.stack(tuples, axis=1), rows)
        assert got.shape == (5, 6, 3, 3)
        for member, mats, own in zip(got, tuples, rows):
            assert member.tobytes() == _power_products(mats, own).tobytes()


class TestIsometryDeviations:
    def test_stack_matches_per_matrix_norms(self):
        # The largest of the per-matrix norms of the gaps A*A - 1, bit for bit.
        rng = np.random.default_rng(18)
        stack = np.array([rand_matrix(rng, 3) for _ in range(4)])
        got = _max_deviation(linalg._isometry_gaps(stack))
        assert got == max(op_norm(dagger(a) @ a - identity(3)) for a in stack)

    def test_rectangular_sides(self):
        # An isometry r: r*r = 1 on the small side, while rr* is a
        # projection of rank 3 on the large side, at distance 1 from 1.
        q, _ = np.linalg.qr(rand_matrix(np.random.default_rng(19), 5, 3))
        assert _max_deviation(linalg._isometry_gaps(q[None])) < 1e-14
        assert abs(_max_deviation(linalg._isometry_gaps(dagger(q)[None])) - 1) < 1e-14


class TestMaxDeviation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_non_finite_entry_is_nan_or_false_with_no_svd(self, monkeypatch, bad):
        # One bad entry in one member: the max is NaN and every limit,
        # even inf, is failed, with no SVD and no error.
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = bad
        shapes = svd_shapes(monkeypatch)
        assert np.isnan(_max_deviation(stack))
        for limit in (0.0, 1.0, np.inf):
            assert _max_deviation(stack, limit) is False
        assert shapes == []


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(identity(3)), identity(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0]).astype(complex)),
            np.diag([2.0, 3.0]),
            atol=1e-12,
        )

    def test_squaring_oracle(self):
        rng = np.random.default_rng(11)
        m = rand_matrix(rng, 2)
        a = dagger(m) @ m
        b = psd_sqrt(a)
        assert op_norm(b @ b - a) < 1e-10

    def test_output_hermitian_and_commutes(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = rand_matrix(rng, 3)
            a = dagger(m) @ m
            b = psd_sqrt(a)
            assert op_norm(b - dagger(b)) < 1e-12
            assert op_norm(b @ a - a @ b) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            psd_sqrt([[0, 1], [0, 0]])
        with pytest.raises(InputError, match="^psd_sqrt requires a square matrix$"):
            psd_sqrt(np.zeros((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestMatrixExp:
    def test_time_zero(self):
        rng = np.random.default_rng(13)
        a = rand_matrix(rng, 3)
        np.testing.assert_array_equal(matrix_exp(a, 0.0), identity(3))

    def test_diagonal(self):
        a = np.diag([1.5 + 0j, -0.25 + 1j])
        t = 0.8
        np.testing.assert_allclose(
            matrix_exp(a, t), np.diag(np.exp(t * np.diag(a))), atol=1e-12
        )

    def test_semigroup_law_against_series_oracle(self):
        rng = np.random.default_rng(14)
        a = rand_matrix(rng, 3)
        a = a / op_norm(a)

        def series(x):
            # independent oracle: plain term-by-term summation
            out = identity(3)
            term = identity(3)
            for k in range(1, 60):
                term = term @ x / k
                out = out + term
            return out

        lhs = matrix_exp(a, 1.0)
        assert op_norm(lhs - series(a)) < 1e-10
        assert op_norm(matrix_exp(a, 0.3) @ matrix_exp(a, 0.7) - lhs) < 1e-9

    def test_norm_cap(self):
        with pytest.raises(InputError):
            matrix_exp(100 * identity(2), 1.0)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_stack_matches_per_matrix_route(self, dim):
        # Norms straddle the 0.5 scaling threshold and reach the cap, so
        # the members of one stack need different squaring counts and
        # stop their series at different terms.
        rng = np.random.default_rng(100 + dim)
        norms = [0.0, 1e-3, 0.3, 0.5, 0.5 + 1e-9, 0.7, 2.0, 9.0, 33.0, 49.9]
        stack = []
        for norm in norms:
            a = rand_matrix(rng, dim)
            stack.append(a * (norm / op_norm(a)))
        stack = np.array(stack)
        for t in (1.0, 0.0, 0.37):
            batched = matrix_exp(stack, t)
            assert batched.shape == stack.shape
            for k, a in enumerate(stack):
                single = matrix_exp(a, t)
                np.testing.assert_array_equal(batched[k], single)
                np.testing.assert_array_equal(single, reference_matrix_exp(a, t))

    def test_zero_matrix_and_time_zero_give_identity(self):
        rng = np.random.default_rng(16)
        stack = np.array([np.zeros((3, 3)), rand_matrix(rng, 3)])
        np.testing.assert_array_equal(matrix_exp(stack)[0], identity(3))
        np.testing.assert_array_equal(matrix_exp(stack, 0.0), [identity(3)] * 2)

    def test_over_cap_stack_member_raises(self):
        stack = np.array([-identity(2), 60 * identity(2), identity(2)])
        with pytest.raises(InputError, match="beyond the cap"):
            matrix_exp(stack)

    @pytest.mark.parametrize(
        "a", [np.full((2, 2, 2), np.nan), np.zeros((2, 2, 3)), np.zeros((0, 2, 2)),
              np.zeros((1, 2, 2, 2))],
    )
    def test_rejects_bad_stacks(self, a):
        with pytest.raises(InputError):
            matrix_exp(a)


class TestJson:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(15)
        a = rand_matrix(rng, 3, 4)
        blob = json.dumps(matrix_to_json(a))
        back = matrix_from_json(json.loads(blob))
        np.testing.assert_array_equal(back, a)

    def test_data_matches_per_entry_form(self):
        # The stacked (re, im) list dumps to the same bytes as the per-entry
        # comprehension it replaced, signed zeros, subnormals and transposes included.
        a = np.array([[complex(-0.0, -0.0), complex(5e-324, 1.0)],
                      [complex(0.0, 1e308), complex(-1e308, -5e-324)]])
        for m in (a, a.T, rand_matrix(np.random.default_rng(16), 3, 5).T):
            per_entry = [[float(z.real), float(z.imag)] for z in m.ravel()]
            assert json.dumps(matrix_to_json(m)["data"]) == json.dumps(per_entry)

    def test_list_form_is_the_array_payload_listed(self):
        # matrix_to_json is _matrix_payload with data.tolist(), bit for bit:
        # signed zeros (a -0.0 imaginary part too), subnormals, transposes.
        a = np.array([[complex(1.0, -0.0), complex(-0.0, 5e-324)],
                      [complex(1e308, 0.0), complex(-1e-7, -1e16)]])
        for m in (a, a.T, rand_matrix(np.random.default_rng(17), 3, 5).T):
            payload = _matrix_payload(m)
            listed = matrix_to_json(m)
            assert payload["data"].dtype == np.float64
            assert payload["data"].shape == (m.size, 2)
            assert listed == {**payload, "data": payload["data"].tolist()}
            assert _listed(payload) == listed
            bits = np.array(listed["data"]).view(np.uint64)
            np.testing.assert_array_equal(bits, payload["data"].view(np.uint64))
        assert np.signbit(matrix_to_json(a)["data"][0][1])

    def test_rejects_bad_length(self):
        with pytest.raises(InputError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            matrix_from_json(
                {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
            )
