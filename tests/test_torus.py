import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from dilations import torus
from dilations.cli import main
from dilations.linalg import InputError, identity
from dilations.torus import GridTime, bscr_check, bscr_trace, trace_to_csv_rows
from unbatched_reference import (
    reference_bscr_check,
    reference_bscr_trace,
    reference_koopman_u,
    reference_projector_p,
)


def motion(N, nums):
    """(targets, carries) of the grid rotation by the time nums / N."""
    targets, carries = torus._grid_motion(N, np.array([nums]) % N)
    return targets[0], carries[0]


class TestGridTime:
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


class TestKoopman:
    """U(t) as the grid motion's targets: basis vector m goes to targets[m]."""

    def test_basis_action(self):
        N = 5
        targets, _ = motion(N, (2,))
        u = reference_koopman_u(N, 2)
        for m in range(N):
            e = np.zeros(N)
            e[m] = 1.0
            out = u @ e
            assert targets[m] == (m + 2) % N
            assert out[targets[m]] == 1.0
            assert np.count_nonzero(out) == 1

    def test_unitary_exact(self):
        # A permutation of the grid: U(t)* U(t) = 1 exactly.
        targets, _ = motion(4, (3,))
        np.testing.assert_array_equal(np.sort(targets), np.arange(4))

    def test_composition(self):
        N = 6
        two, five, seven = (motion(N, (k,))[0] for k in (2, 5, 7))
        np.testing.assert_array_equal(two[five], seven)

    def test_full_turn_is_identity(self):
        targets, carries = motion(3, (3,))
        np.testing.assert_array_equal(targets, np.arange(3))
        assert not carries.any()

    def test_axis_embedding_oracle(self):
        # Independent index-arithmetic oracle for a unit shift of one axis, d=2.
        N = 3
        for axis in (1, 2):
            targets, carries = motion(N, (1, 0) if axis == 1 else (0, 1))
            for m1 in range(N):
                for m2 in range(N):
                    t1 = (m1 + 1) % N if axis == 1 else m1
                    t2 = (m2 + 1) % N if axis == 2 else m2
                    assert targets[m1 * N + m2] == t1 * N + t2
                    moved = m1 if axis == 1 else m2
                    assert carries[m1 * N + m2].tolist() == [
                        axis == 1 and moved == N - 1, axis == 2 and moved == N - 1
                    ]

    @pytest.mark.parametrize("op", ["koopman_u", "projector_p"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_two_kron_route(self, op, N):
        # The motion of k steps on one axis is I ⊗ local ⊗ I of the dense
        # 1-D operator, axis 1 slowest.
        local_of = {"koopman_u": reference_koopman_u, "projector_p": reference_projector_p}[op]
        for d in (1, 2, 3):
            for axis in range(1, d + 1):
                for k in range(6):
                    nums = tuple(k if i == axis else 0 for i in range(1, d + 1))
                    targets, carries = motion(N, nums)
                    if op == "koopman_u":
                        got = np.zeros((N**d, N**d), dtype=np.complex128)
                        got[targets, np.arange(N**d)] = 1.0
                    else:
                        got = np.diag((~carries[:, axis - 1]).astype(np.complex128))
                    left, right = identity(N ** (axis - 1)), identity(N ** (d - axis))
                    expected = np.kron(np.kron(left, local_of(N, k)), right)
                    np.testing.assert_array_equal(got, expected, err_msg=str((d, axis, k)))

    def test_motion_oracle(self):
        # Per-point index arithmetic for general times, d up to 3.
        rng = np.random.default_rng(22)
        for _ in range(20):
            N, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            nums = tuple(int(k) for k in rng.integers(0, 3 * N, size=d))
            targets, carries = motion(N, nums)
            for index, point in enumerate(itertools.product(range(N), repeat=d)):
                moved = [(m + k) % N for m, k in zip(point, nums)]
                assert targets[index] == sum(c * N ** (d - 1 - i) for i, c in enumerate(moved))
                assert carries[index].tolist() == [m + k % N >= N for m, k in zip(point, nums)]


class TestProjector:
    """P(t) as the grid motion's non-carrying points."""

    @staticmethod
    def keep(N, k):
        return ~motion(N, (k,))[1][:, 0]

    def test_diagonal_pattern(self):
        np.testing.assert_array_equal(self.keep(4, 1), [True, True, True, False])

    def test_idempotent_exact(self):
        p = np.diag(self.keep(5, 3)).astype(np.complex128)
        np.testing.assert_array_equal(p @ p, p)
        np.testing.assert_array_equal(p, reference_projector_p(5, 3))

    def test_multiple_of_n_is_identity(self):
        assert self.keep(4, 8).all()

    def test_rank(self):
        for k in range(1, 4):
            assert int(self.keep(4, k).sum()) == 4 - k

    def test_keep_is_the_projector_diagonal(self):
        for N in (1, 2, 5):
            for k in range(3 * N):
                keep = self.keep(N, k)
                np.testing.assert_array_equal(keep, np.arange(N) < N - k % N)
                np.testing.assert_array_equal(np.diag(keep), reference_projector_p(N, k).real)


class TestBscr:
    def test_hand_case(self):
        # N=2, s=t=1/2: both sides equal the single off-diagonal matrix unit.
        u = reference_koopman_u(2, 1)
        p = reference_projector_p(2, 1)
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

    def test_matches_dense_reference(self):
        for N in range(1, 9):
            for s_num in range(2 * N):
                for t_num in range(2 * N):
                    got = bscr_check(N, s_num, t_num)
                    assert got == reference_bscr_check(N, s_num, t_num), (N, s_num, t_num)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_array_call_matches_dense_reference(self, N):
        nums = np.arange(2 * N)
        expected = max(reference_bscr_check(N, s, t) for s in nums for t in nums)
        assert bscr_check(N, nums[:, None], nums) == expected == 0.0

    def test_reads_times_mod_n(self):
        # Numerators past 2N, and repeated pairs, reduce to the same
        # fractional pairs.
        s_num = np.array([0, 3, 7, 40, 41, 1000])
        t_num = np.array([[5], [13], [99]])
        assert bscr_check(4, s_num, t_num) == 0.0
        with pytest.raises(InputError):
            bscr_check(4, s_num, -t_num)

    def test_chunks_within_the_cap(self, monkeypatch):
        # At a cap of N^2 entries each chunk holds N pairs of N entries, so
        # all N^2 fractional pairs take N chunks and give the same 0.0.
        chunks = []
        q_diagonal = torus._q_diagonal

        def tracked(keep, s_frac, t_frac):
            chunks.append(len(s_frac))
            return q_diagonal(keep, s_frac, t_frac)

        monkeypatch.setattr(torus, "_q_diagonal", tracked)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "64")
        nums = np.arange(16)
        assert bscr_check(8, nums[:, None], nums) == 0.0
        assert chunks == [8] * 8

    def test_wrong_branch_is_caught(self, monkeypatch):
        """Mutant check: Q(s,t) with the branch taken at frac(s)+frac(t) <= 1
        instead of < 1 gives a nonzero deviation on some pair, through the
        one-pair call, the array call, chunked or not, and ``bscr``."""

        def mutant(keep, s_frac, t_frac):
            N = len(keep)
            branch = (s_frac + t_frac <= N).astype(np.int8)[:, None]
            return branch - keep[t_frac] + keep[(s_frac + t_frac) % N]

        monkeypatch.setattr(torus, "_q_diagonal", mutant)
        worst = max(
            bscr_check(N, s_num, t_num)
            for N in range(1, 9)
            for s_num in range(2 * N)
            for t_num in range(2 * N)
        )
        assert worst == 1.0
        nums = np.arange(8)
        assert bscr_check(4, nums[:, None], nums) == 1.0
        # At a cap of 16 the pairs run 4 to a chunk, and the one wrong
        # pair (1, 3) sits in the first of two.
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "16")
        assert bscr_check(4, np.array([[1], [2], [3]]), np.array([0, 3])) == 1.0
        monkeypatch.delenv("DILATIONS_MAX_ENTRIES")
        result = CliRunner().invoke(main, ["bscr", "--N", "4"])
        assert result.exit_code == 1
        assert json.loads(result.output)["max_deviation"] == 1.0

    def test_cap_admits_the_dense_relation_size(self, monkeypatch):
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "64")
        assert bscr_check(8, 3, 5) == 0.0
        with pytest.raises(InputError, match="size cap"):
            bscr_check(9, 3, 5)


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

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(23)
        for N in range(1, 9):
            for s_num in range(2 * N):
                for t_num in range(2 * N):
                    f = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                    values = [value for _, value in bscr_trace(N, s_num, t_num, f)]
                    expected = reference_bscr_trace(N, s_num, t_num, f)
                    assert values == expected.tolist(), (N, s_num, t_num)
                    # Zeroed points are +0.0 in both parts, as the CSV prints them.
                    for value in values:
                        if value == 0:
                            assert math.copysign(1, value.real) == math.copysign(1, value.imag) == 1

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
