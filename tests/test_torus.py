import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilations.linalg import InputError, identity
from dilations.torus import (
    GridTime,
    bscr_check,
    bscr_trace,
    koopman_u,
    projector_p,
    trace_to_csv_rows,
)


class TestGridTime:
    @given(st.integers(1, 20), st.lists(st.integers(0, 100), min_size=1, max_size=4))
    def test_floor_plus_frac_identity(self, N, nums):
        t = GridTime(N, tuple(nums))
        for k, fl, fr in zip(t.nums, t.floors, t.frac_nums):
            assert fl * N + fr == k
            assert 0 <= fr < N

    def test_parse_roundtrip(self):
        t = GridTime.parse("3/4,7/4,0", 4)
        assert t.nums == (3, 7, 0)
        assert str(t) == "3/4,7/4,0/4"
        assert GridTime.parse(str(t), 4) == t

    def test_parse_integers_and_halves(self):
        assert GridTime.parse("2", 4).nums == (8,)
        assert GridTime.parse("1/2", 4).nums == (2,)

    def test_parse_off_grid(self):
        with pytest.raises(InputError):
            GridTime.parse("1/3", 4)

    def test_parse_garbage(self):
        with pytest.raises(InputError):
            GridTime.parse("a,b", 4)
        with pytest.raises(InputError):
            GridTime.parse("1/0", 4)
        with pytest.raises(InputError):
            GridTime.parse("1,,2", 4)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            GridTime(4, (-1,))

    def test_add(self):
        a = GridTime(4, (1, 2))
        b = GridTime(4, (3, 5))
        assert (a + b).nums == (4, 7)
        with pytest.raises(InputError):
            a + GridTime(3, (1, 1))

    def test_values(self):
        assert GridTime(4, (1, 6)).values() == (0.25, 1.5)


class TestKoopman:
    def test_basis_action(self):
        N = 5
        u = koopman_u(N, 1, 1, 2)
        for m in range(N):
            e = np.zeros(N)
            e[m] = 1.0
            out = u @ e
            assert out[(m + 2) % N] == 1.0
            assert np.count_nonzero(out) == 1

    def test_unitary_exact(self):
        u = koopman_u(4, 1, 1, 3)
        np.testing.assert_array_equal(u.conj().T @ u, identity(4))

    def test_composition(self):
        N = 6
        np.testing.assert_array_equal(
            koopman_u(N, 1, 1, 2) @ koopman_u(N, 1, 1, 5),
            koopman_u(N, 1, 1, 7),
        )

    def test_full_turn_is_identity(self):
        np.testing.assert_array_equal(koopman_u(3, 1, 1, 3), identity(3))

    def test_axis_embedding_oracle(self):
        # Independent index-arithmetic oracle for the d=2 embedding.
        N = 3
        for axis in (1, 2):
            u = koopman_u(N, 2, axis, 1)
            expected = np.zeros((N * N, N * N), dtype=complex)
            for m1 in range(N):
                for m2 in range(N):
                    t1 = (m1 + 1) % N if axis == 1 else m1
                    t2 = (m2 + 1) % N if axis == 2 else m2
                    expected[t1 * N + t2, m1 * N + m2] = 1.0
            np.testing.assert_array_equal(u, expected)

    @pytest.mark.parametrize("op", [koopman_u, projector_p])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_two_kron_route(self, op, N):
        # Skipping 1x1 Kronecker factors leaves every byte as I ⊗ local ⊗ I gives it.
        for d in (1, 2, 3):
            for axis in range(1, d + 1):
                for k in range(6):
                    local = op(N, 1, 1, k)
                    left, right = identity(N ** (axis - 1)), identity(N ** (d - axis))
                    expected = np.kron(np.kron(left, local), right)
                    got = op(N, d, axis, k)
                    assert got.dtype == expected.dtype and got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes(), (d, axis, k)

    def test_bad_axis(self):
        with pytest.raises(InputError):
            koopman_u(3, 2, 3, 1)
        with pytest.raises(InputError):
            koopman_u(3, 2, 0, 1)


class TestProjector:
    def test_diagonal_pattern(self):
        p = projector_p(4, 1, 1, 1)
        np.testing.assert_array_equal(p, np.diag([1.0, 1.0, 1.0, 0.0]))

    def test_idempotent_exact(self):
        p = projector_p(5, 1, 1, 3)
        np.testing.assert_array_equal(p @ p, p)

    def test_multiple_of_n_is_identity(self):
        np.testing.assert_array_equal(projector_p(4, 1, 1, 8), identity(4))

    def test_rank(self):
        for k in range(1, 4):
            p = projector_p(4, 1, 1, k)
            assert int(p.real.trace()) == 4 - k


class TestBscr:
    def test_hand_case(self):
        # N=2, s=t=1/2: both sides equal the single off-diagonal matrix unit.
        u = koopman_u(2, 1, 1, 1)
        p = projector_p(2, 1, 1, 1)
        np.testing.assert_array_equal(p @ u, [[0, 1], [0, 0]])
        assert bscr_check(2, 1, 1) == 0.0

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_exhaustive_grid(self, N):
        for s_num in range(2 * N):
            for t_num in range(2 * N):
                assert bscr_check(N, s_num, t_num) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            bscr_check(4, -1, 0)


class TestTrace:
    def test_window_oracle(self):
        # U(t)* P(s) U(t) zeroes f at m whenever (m + t) mod N lands in
        # the cut window; checked against direct index arithmetic.
        rng = np.random.default_rng(21)
        for _ in range(20):
            N = int(rng.integers(2, 9))
            s_num = int(rng.integers(0, 2 * N))
            t_num = int(rng.integers(0, 2 * N))
            f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            rows = bscr_trace(N, s_num, t_num, f)
            assert len(rows) == N
            keep = N - (s_num % N)
            for m, (theta, value) in enumerate(rows):
                assert theta == pytest.approx(2 * np.pi * m / N)
                expected = f[m] if (m + t_num) % N < keep else 0.0
                assert value == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            bscr_trace(4, 1, 1, np.ones(3))

    def test_csv_rows(self):
        lines = trace_to_csv_rows([(0.0, 1 + 2j), (1.5, 0j)])
        assert lines[0] == "theta,re,im"
        assert len(lines) == 3
        theta, re, im = lines[1].split(",")
        assert float(theta) == 0.0
        assert float(re) == 1.0
        assert float(im) == 2.0
