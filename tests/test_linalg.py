import json

import numpy as np
import pytest

from dilations.linalg import (
    InputError,
    dagger,
    identity,
    kron,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    psd_sqrt,
)
from unbatched_reference import reference_matrix_exp


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


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

    def test_rejects_bad_length(self):
        with pytest.raises(InputError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            matrix_from_json(
                {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
            )
