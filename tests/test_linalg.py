import json

import numpy as np
import pytest

from dilations import linalg
from dilations.linalg import (
    InputError,
    NumericalError,
    _isometry_deviations,
    _listed,
    _matrix_payload,
    _max_op_norm,
    _op_norms,
    _power_products,
    _powers,
    dagger,
    identity,
    kron,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    psd_sqrt,
)
from dilations.dilation import _random_commuting_tuple
from unbatched_reference import reference_matrix_exp, reference_power_product


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


def svd_counts(monkeypatch):
    """Record the number of members of every ``_op_norms`` call."""
    counts = []

    def spy(a):
        counts.append(len(a))
        return _op_norms(a)

    monkeypatch.setattr(linalg, "_op_norms", spy)
    return counts


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
        rng = np.random.default_rng(18)
        stack = np.array([rand_matrix(rng, 3) for _ in range(4)])
        got = _isometry_deviations(stack)
        for a, dev in zip(stack, got):
            assert dev == op_norm(dagger(a) @ a - identity(3))

    def test_rectangular_sides(self):
        # An isometry r: r*r = 1 on the small side, while rr* is a
        # projection of rank 3 on the large side, at distance 1 from 1.
        q, _ = np.linalg.qr(rand_matrix(np.random.default_rng(19), 5, 3))
        assert _isometry_deviations(q[None])[0] < 1e-14
        assert abs(_isometry_deviations(dagger(q)[None])[0] - 1) < 1e-14


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
