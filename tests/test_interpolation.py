import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from dilations.dilation import _random_commuting_tuple
from dilations import interpolation, torus
from dilations.interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    _require_contractions,
    approx_error_sweep,
    compress_discretized,
    eval_discretized,
    multilinear_compress,
    scaled_blend,
    semigroup_suite,
)
from dilations.linalg import (
    InputError,
    _listed,
    _require_commuting,
    identity,
    matrix_exp,
    matrix_to_json,
    max_entries,
    op_norm,
)
from dilations.torus import GridTime
import unbatched_reference
from unbatched_reference import (
    reference_blockwise_suite,
    reference_eval_discretized,
    reference_multilinear_compress,
    reference_product_sweep,
    reference_semigroup_suite,
    reference_sweep,
)


def shift_matrix(n):
    s = np.zeros((n, n), dtype=complex)
    for m in range(n):
        s[(m + 1) % n, m] = 1.0
    return s


def halving_semigroup(N):
    """d=1, dim 1, S = (1/2): the block of source point m at time t is
    exactly 2^-kappa, kappa = floor(t) + [frac(t) + m/N >= 1]."""
    return DiscretizedSemigroup(ContractionTuple((np.array([[0.5]]),)), N)


class TestKappa:
    """The power selector kappa, read off the evaluation of ``halving_semigroup``."""

    @given(st.integers(0, 200), st.integers(0, 200), st.integers(1, 12))
    def test_fraction_oracle(self, num, num_prime, N):
        t = Fraction(num, N)
        t_prime = Fraction(num_prime, N)
        frac_sum = (t - math.floor(t)) + (t_prime - math.floor(t_prime))
        expected = math.floor(t) + (1 if frac_sum >= 1 else 0)
        source = num_prime % N
        mat = eval_discretized(halving_semigroup(N), GridTime(N, (num,)))
        assert mat[(source + num) % N, source] == 2.0**-expected

    def test_tie_goes_up(self):
        # t = 1/4 at source point 3/4: frac(t) + frac(t') == 1 carries.
        mat = eval_discretized(halving_semigroup(4), GridTime(4, (1,)))
        assert mat[0, 3] == 0.5

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            GridTime(4, (-1,))
        with pytest.raises(InputError):
            halving_semigroup(0)


class TestContractionTuple:
    def test_accepts_commuting_contractions(self):
        tup = ContractionTuple((shift_matrix(3), shift_matrix(3) @ shift_matrix(3)))
        assert tup.d == 2
        assert tup.dim == 3

    def test_rejects_expansion(self):
        with pytest.raises(InputError):
            ContractionTuple((2 * identity(2),))

    def test_rejects_non_commuting(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InputError):
            ContractionTuple((a, a.conj().T))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InputError):
            ContractionTuple((identity(2), identity(3)))

    def test_names_the_pair_that_fails_to_commute(self):
        e12 = np.array([[0, 0.5], [0, 0]], dtype=complex)
        message = r"^operators 2 and 3 do not commute \(deviation 2\.500e-01\)$"
        with pytest.raises(InputError, match=message):
            ContractionTuple((0.5 * identity(2), e12, e12.conj().T))

    def test_names_the_operator_with_norm_above_one(self):
        with pytest.raises(InputError, match=r"^operator 2 has norm 2 > 1 \+ tol$"):
            ContractionTuple((0.5 * identity(2), 2 * identity(2), identity(2)))

    def test_stack_names_the_failing_pair_of_the_failing_tuple(self):
        e12 = np.array([[0, 0.5], [0, 0]], dtype=complex)
        stack = np.stack([[e12, e12, e12], [e12, identity(2), e12.conj().T]])
        with pytest.raises(InputError, match=r"^operators 1 and 3 do not commute"):
            _require_contractions(stack, 1e-9)

    def test_non_finite_stack_is_an_input_error(self):
        stack = np.zeros((3, 2, 2, 2), dtype=complex)
        stack[1, 0, 0, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            _require_contractions(stack, 1e-9)
        with pytest.raises(InputError, match="non-finite"):
            _require_commuting(stack, "operators", 1e-9)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(31)
        tup = _random_commuting_tuple(rng, 2, 3)
        back = ContractionTuple.from_json(tup.to_json(), tol=1e-9)
        for a, b in zip(tup.mats, back.mats):
            np.testing.assert_array_equal(a, b)

    def test_json_is_the_array_form_listed(self):
        # to_json keeps stdlib-JSON lists; the CLI writes the array form.
        tup = _random_commuting_tuple(np.random.default_rng(32), 2, 3)
        obj = tup.to_json()
        assert list(obj) == ["d", "dim", "matrices"]
        assert obj == _listed(tup._payload())
        assert obj["matrices"] == [matrix_to_json(m) for m in tup.mats]
        assert json.loads(json.dumps(obj)) == obj

    def test_json_declared_mismatch(self):
        tup = ContractionTuple((shift_matrix(2),))
        obj = tup.to_json()
        obj["d"] = 5
        with pytest.raises(InputError):
            ContractionTuple.from_json(obj)


class TestGridForm:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_targets_permute_the_grid(self, d, N):
        # The premise of every block-form result: m -> m + t (mod 1) is a
        # bijection of the grid, so T(t) is a permutation times a block
        # diagonal.  Each row is floor(t) + carry(m), and each of the 2^a
        # carry patterns occurs at some point.
        semi = DiscretizedSemigroup(ContractionTuple((np.array([[0.5]]),) * d), N)
        for nums in itertools.product(range(2 * N + 1), repeat=d):
            t = GridTime(N, nums)
            targets, exponents = interpolation._grid_form(semi, t)
            assert sorted(targets.tolist()) == list(range(N**d)), nums
            carries = torus._grid_motion(N, np.array([nums]) % N)[1][0]
            np.testing.assert_array_equal(exponents, np.add(np.array(nums) // N, carries))
            distinct = np.unique(exponents, axis=0)
            assert len(distinct) == 2 ** sum(num % N > 0 for num in nums), nums


class TestDistinctRows:
    @pytest.mark.parametrize(
        "exponents",
        [
            np.random.default_rng(7).integers(0, 3, (200, 3)),
            np.random.default_rng(8).integers(0, 40, (50, 2)),
            np.random.default_rng(9).integers(0, 5, (30, 1)),
            np.array([[4, 1, 7]]),
            np.full((9, 2), 3),
            np.array([[2**62, 0], [0, 2**62], [2**62, 0]]),
            np.random.default_rng(10).integers(0, 3, (500, 4)).astype(np.uint8),
        ],
        ids=["random d=3", "random d=2", "d=1", "single row", "all equal", "large", "uint8"],
    )
    def test_matches_np_unique(self, exponents):
        rows, picks = interpolation._distinct_rows(exponents)
        want_rows, want_picks = np.unique(exponents, axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(picks, want_picks.reshape(-1))
        np.testing.assert_array_equal(rows[picks], exponents)


class TestEvalDiscretized:
    def test_scalar_hand_case(self):
        # dim 1, S = (1/2): blocks are plain numbers, target indices shift.
        semi = DiscretizedSemigroup(ContractionTuple((np.array([[0.5]]),)), 4)
        mat = eval_discretized(semi, GridTime(4, (1,)))
        expected = np.zeros((4, 4), dtype=complex)
        for m in range(4):
            expected[(m + 1) % 4, m] = 0.5 if m + 1 >= 4 else 1.0
        np.testing.assert_array_equal(mat, expected)

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(32)
        tup = _random_commuting_tuple(rng, 2, 2)
        semi = DiscretizedSemigroup(tup, 3)
        np.testing.assert_array_equal(
            eval_discretized(semi, GridTime(3, (0, 0))), identity(semi.total_dim)
        )

    def test_integer_time_is_tensor_power(self):
        rng = np.random.default_rng(33)
        tup = _random_commuting_tuple(rng, 1, 3)
        semi = DiscretizedSemigroup(tup, 3)
        for n in range(4):
            mat = eval_discretized(semi, GridTime(3, (3 * n,)))
            expected = np.kron(
                identity(3), np.linalg.matrix_power(tup.mats[0], n)
            )
            assert np.abs(mat - expected).max() < 1e-13

    def test_homomorphism(self):
        rng = np.random.default_rng(34)
        tup = _random_commuting_tuple(rng, 2, 2)
        semi = DiscretizedSemigroup(tup, 2)
        times = [GridTime(2, nums) for nums in itertools.product(range(4), repeat=2)]
        evals = {t.nums: eval_discretized(semi, t) for t in times}
        for s in times:
            for t in times:
                lhs = evals[s.nums] @ evals[t.nums]
                rhs = eval_discretized(semi, GridTime(2, tuple(np.add(s.nums, t.nums))))
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_product_form_oracle(self):
        # d=1 product-form assembly from torus-grid factors, built here
        # from scratch rather than via the torus module.
        rng = np.random.default_rng(35)
        N = 3
        tup = _random_commuting_tuple(rng, 1, 2)
        s = tup.mats[0]
        semi = DiscretizedSemigroup(tup, N)
        for t_num in range(2 * N):
            u = np.zeros((N, N), dtype=complex)
            for m in range(N):
                u[(m + t_num) % N, m] = 1.0
            p = np.diag([1.0 if m < N - (t_num % N) else 0.0 for m in range(N)])
            fl = t_num // N
            oracle = np.kron(u @ p, np.linalg.matrix_power(s, fl)) + np.kron(
                u @ (identity(N) - p), np.linalg.matrix_power(s, fl + 1)
            )
            mat = eval_discretized(semi, GridTime(N, (t_num,)))
            assert np.abs(mat - oracle).max() < 1e-13

    def test_contractive(self):
        rng = np.random.default_rng(36)
        tup = _random_commuting_tuple(rng, 2, 2)
        semi = DiscretizedSemigroup(tup, 2)
        for nums in itertools.product(range(4), repeat=2):
            assert op_norm(eval_discretized(semi, GridTime(2, nums))) <= 1 + 1e-10

    def test_rejects_mismatched_time(self):
        semi = DiscretizedSemigroup(ContractionTuple((shift_matrix(2),)), 2)
        with pytest.raises(InputError):
            eval_discretized(semi, GridTime(3, (1,)))
        with pytest.raises(InputError):
            eval_discretized(semi, GridTime(2, (1, 1)))

    def test_size_cap(self, monkeypatch):
        # The dense 2048x2048 evaluation is refused; the semigroup itself and
        # the N^d dim^2 = 4096-entry gather of its compression are not.
        semi = DiscretizedSemigroup(ContractionTuple((shift_matrix(2),)), 1024)
        t = GridTime(1024, (1,))
        with pytest.raises(InputError, match="matrix of shape 2048x2048"):
            eval_discretized(semi, t)
        compress_discretized(semi, t)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "4095")
        with pytest.raises(InputError, match="matrix of shape 2048x2"):
            compress_discretized(semi, t)

    def test_holds_two_powers_per_axis(self):
        # S^floor(t) and S^(floor(t)+1) are formed without the list of all
        # lower powers, so the peak does not grow with floor(t).
        rng = np.random.default_rng(43)
        tup = ContractionTuple((random_unitary(rng, 16),))
        semi = DiscretizedSemigroup(tup, 2)
        peaks = []
        for num in (3, 4001):
            tracemalloc.start()
            try:
                eval_discretized(semi, GridTime(2, (num,)))
                multilinear_compress(tup, (num / 2,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The list S^0..S^2001 alone would hold 2001 x 4 KiB.
        assert peaks[1] <= peaks[0] + 64 * 1024, peaks

    def test_floor_bound(self, monkeypatch):
        # (floor(t) + 1) dim^2 within the cap, for the grid form and the
        # closed form alike: at a cap of 40, floor 9 of a 2x2 tuple passes
        # and floor 10 is refused.
        tup = ContractionTuple((shift_matrix(2),))
        semi = DiscretizedSemigroup(tup, 2)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "40")
        eval_discretized(semi, GridTime(2, (19,)))
        multilinear_compress(tup, (9.5,))
        with pytest.raises(InputError, match="floor 10 needs powers up to 11"):
            eval_discretized(semi, GridTime(2, (20,)))
        with pytest.raises(InputError, match="floor 10 needs powers up to 11"):
            multilinear_compress(tup, (10.0,))
        with pytest.raises(InputError, match="floor 10"):
            compress_discretized(semi, GridTime(2, (21,)))

    def test_closed_form_checks_the_largest_floor_once(self, monkeypatch):
        # One cap check per call, on the largest floor, whichever axis holds it.
        tup = ContractionTuple((shift_matrix(2),) * 3)
        floors = []
        check = interpolation._check_floor
        monkeypatch.setattr(
            interpolation, "_check_floor", lambda fl, dim: floors.append(fl) or check(fl, dim)
        )
        multilinear_compress(tup, (0.5, 9.25, 3.0))
        assert floors == [9]
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "40")
        with pytest.raises(InputError, match="floor 10 needs powers up to 11"):
            multilinear_compress(tup, (0.5, 10.0, 3.0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_unbatched_reference(self, d, N):
        rng = np.random.default_rng(100 + 10 * d + N)
        semi = DiscretizedSemigroup(_random_commuting_tuple(rng, d, 2), N)
        for nums in itertools.product(range(2 * N + 1), repeat=d):
            t = GridTime(N, nums)
            mat = eval_discretized(semi, t)
            assert mat.tobytes() == reference_eval_discretized(semi, t).tobytes(), nums

    def test_large_d(self):
        # d = 70 exceeds numpy's limit on array dimensions; N = 1 keeps one point.
        rng = np.random.default_rng(41)
        tup = ContractionTuple(tuple(rng.uniform(0.5, 1.0, (70, 1, 1))))
        semi = DiscretizedSemigroup(tup, 1)
        for nums in [(0,) * 70, (1,) * 70, tuple(rng.integers(0, 3, 70))]:
            t = GridTime(1, nums)
            mat = eval_discretized(semi, t)
            assert mat.shape == (1, 1)
            assert mat.tobytes() == reference_eval_discretized(semi, t).tobytes()


class TestCompression:
    def test_hand_case(self):
        s = shift_matrix(2)
        semi = DiscretizedSemigroup(ContractionTuple((s,)), 4)
        out = compress_discretized(semi, GridTime(4, (1,)))
        np.testing.assert_allclose(out, 0.75 * identity(2) + 0.25 * s, atol=1e-14)

    def test_matches_multilinear_on_grid(self):
        rng = np.random.default_rng(37)
        for d, N in ((1, 4), (2, 3), (3, 2)):
            tup = _random_commuting_tuple(rng, d, 2)
            semi = DiscretizedSemigroup(tup, N)
            for nums in itertools.product(range(2 * N), repeat=d):
                t = GridTime(N, nums)
                lhs = compress_discretized(semi, t)
                rhs = multilinear_compress(tup, [k / N for k in nums])
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_multilinear_off_grid(self):
        s = shift_matrix(3)
        tup = ContractionTuple((s,))
        out = multilinear_compress(tup, (1.5,))
        np.testing.assert_allclose(out, 0.5 * s + 0.5 * s @ s, atol=1e-14)

    def test_multilinear_integer_times(self):
        rng = np.random.default_rng(38)
        tup = _random_commuting_tuple(rng, 2, 2)
        out = multilinear_compress(tup, (2.0, 1.0))
        expected = np.linalg.matrix_power(tup.mats[0], 2) @ tup.mats[1]
        assert np.abs(out - expected).max() < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_multilinear_stack_matches_one_time_calls(self, d):
        # Floors 0 to 5, shared and distinct across members and axes, on
        # and off the grid; each axis forms its distinct powers once.
        rng = np.random.default_rng(39 + d)
        tup = _random_commuting_tuple(rng, d, 3)
        times = np.vstack(
            [rng.integers(0, 6, (8, d)) + rng.uniform(0, 1, (8, d)), rng.integers(2, 6, (4, d)) / 2]
        )
        assert math.floor(times.max()) > 1
        stacked = multilinear_compress(tup, times)
        assert stacked.shape == (12, 3, 3)
        for member, t in zip(stacked, times.tolist()):
            want = reference_multilinear_compress(tup, t).tobytes()
            assert member.tobytes() == multilinear_compress(tup, t).tobytes() == want

    def test_multilinear_rejects_bad_times(self):
        tup = ContractionTuple((shift_matrix(2),))
        with pytest.raises(InputError):
            multilinear_compress(tup, (-0.5,))
        with pytest.raises(InputError):
            multilinear_compress(tup, (0.5, 0.5))


def assert_suite_matches_reference(tup, N, max_num):
    """Same checks as the dense reference suite, each deviation within 1e-14."""
    out = semigroup_suite(tup, N, max_num)
    ref = reference_semigroup_suite(tup, N, max_num)
    assert out["checks"] == ref["checks"]
    assert out["passed"] == ref["passed"]
    for name, dev in out["deviations"].items():
        assert abs(dev - ref["deviations"][name]) <= 1e-14, name


class TestSemigroupSuite:
    def test_flags_an_expansion(self):
        # validated tuples are contractions; bypass the tolerance to see
        # the contractivity check fail on its own
        tup = ContractionTuple((np.array([[1.1]]),), tol=0.2)
        out = semigroup_suite(tup, 2, 2)
        assert not out["checks"]["contractivity"]
        assert not out["passed"]

    @pytest.mark.parametrize(
        "d, N, max_num, dim, seed",
        [(1, 3, 6, 2, 80), (1, 1, 3, 3, 81), (2, 2, 4, 2, 82), (2, 3, 2, 1, 83), (3, 2, 2, 2, 84)],
    )
    def test_matches_dense_reference(self, d, N, max_num, dim, seed):
        tup = _random_commuting_tuple(np.random.default_rng(seed), d, dim)
        assert_suite_matches_reference(tup, N, max_num)

    def test_expansion_matches_dense_reference(self):
        tup = ContractionTuple((np.array([[1.1]]), np.array([[0.9]])), tol=0.2)
        assert_suite_matches_reference(tup, 2, 3)

    def test_perturbed_sum_block_breaks_homomorphism(self, monkeypatch):
        # (2, 1) is a sum of suite times but neither a suite time nor an
        # interpolation time, so only the homomorphism check reads it.
        grid_forms = interpolation._grid_forms

        def perturbed(semi, nums):
            targets, exponents = grid_forms(semi, nums)
            if [2, 1] in nums.tolist():
                # grid point 1 alone gets one more power of S_1
                exponents = exponents.copy()
                exponents[nums.tolist().index([2, 1]), 1, 0] += 1
            return targets, exponents

        monkeypatch.setattr(interpolation, "_grid_forms", perturbed)
        tup = _random_commuting_tuple(np.random.default_rng(85), 2, 2)
        out = semigroup_suite(tup, 2, 2)
        assert not out["checks"]["homomorphism"]
        assert out["deviations"]["homomorphism"] > 1e-7
        assert all(ok for name, ok in out["checks"].items() if name != "homomorphism")

    def test_permuted_sum_targets_break_homomorphism(self, monkeypatch):
        # The targets of grid points 0 and 1 at the sum time (2, 1) trade
        # places and every exponent row stays: only the composition of
        # targets can see it.  The dense reference gets the same operator,
        # its block rows at those two targets swapped.
        N, u = 2, (2, 1)
        grid_forms = interpolation._grid_forms

        def permuted(semi, nums):
            targets, exponents = grid_forms(semi, nums)
            if list(u) in nums.tolist():
                k = nums.tolist().index(list(u))
                targets = targets.copy()
                targets[k, [0, 1]] = targets[k, [1, 0]]
            return targets, exponents

        dense = unbatched_reference.reference_eval_discretized

        def swapped(semi, t):
            out = dense(semi, t)
            if t.nums == u:
                first, second = torus._grid_motion(N, np.array([u]) % N)[0][0, :2]
                grid, dim = N**t.d, semi.base.dim
                blocks = out.reshape(grid, dim, grid, dim).copy()
                blocks[[first, second]] = blocks[[second, first]]
                out = blocks.reshape(out.shape)
            return out

        monkeypatch.setattr(interpolation, "_grid_forms", permuted)
        monkeypatch.setattr(unbatched_reference, "reference_eval_discretized", swapped)
        tup = _random_commuting_tuple(np.random.default_rng(86), 2, 2)
        out = semigroup_suite(tup, N, 2)
        assert not out["checks"]["homomorphism"]
        assert all(ok for name, ok in out["checks"].items() if name != "homomorphism")
        assert_suite_matches_reference(tup, N, 2)

    # The semigroup workload's interp check shapes (d, N, dim), max_num 2N.
    @pytest.mark.parametrize(
        "d, N, dim",
        [(1, 8, 2), (2, 2, 4), (3, 2, 2), (1, 16, 4), (2, 4, 4), (3, 2, 8), (1, 16, 8)],
    )
    def test_equals_blockwise_route_on_benchmark_shapes(self, d, N, dim):
        tup = _random_commuting_tuple(np.random.default_rng([d, N, dim]), d, dim)
        assert semigroup_suite(tup, N, 2 * N) == reference_blockwise_suite(tup, N, 2 * N)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_blockwise_route(self, d, N, max_num, dim, seed):
        tup = _random_commuting_tuple(np.random.default_rng(seed), d, dim)
        assert semigroup_suite(tup, N, max_num) == reference_blockwise_suite(tup, N, max_num)

    def test_equals_blockwise_route_on_an_expansion(self):
        tup = ContractionTuple((np.array([[1.1]]), np.array([[0.9]])), tol=0.2)
        assert semigroup_suite(tup, 2, 3) == reference_blockwise_suite(tup, 2, 3)

    def test_size_cap_slices_match_default_cap(self, monkeypatch):
        # At a cap of 1000 entries each of the 16 suite times s of d=2, N=2,
        # dim 2, max_num 4 takes 64 keys (t, m) of four index columns and a
        # 2x2 product, 512 entries: 16 slices of one, against one at the
        # default cap.  The 10 interpolation times, of 16 entries each, are
        # read first, in one.
        tup = _random_commuting_tuple(np.random.default_rng(88), 2, 2)
        expected = semigroup_suite(tup, 2, 4)
        batches, slices = interpolation._batches, []

        def counting(count, entries_each):
            slices.append(list(batches(count, entries_each)))
            return slices[-1]

        monkeypatch.setattr(interpolation, "_batches", counting)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "1000")
        got = semigroup_suite(tup, 2, 4)
        assert [len(parts) for parts in slices] == [1, 16]
        assert got == expected

    def test_interpolation_slices_match_default_cap(self, monkeypatch):
        # d=1, N=4, dim 1, max_num 1: at a cap of 9 entries, the largest
        # floor 2N = 8 still passes, and the 9 interpolation times of 4
        # grid points each are read in 5 slices of at most 2.
        tup = _random_commuting_tuple(np.random.default_rng(89), 1, 1)
        expected = semigroup_suite(tup, 4, 1)
        calls, grid_forms = [], interpolation._grid_forms

        def counting(semi, nums):
            calls.append(len(nums))
            return grid_forms(semi, nums)

        monkeypatch.setattr(interpolation, "_grid_forms", counting)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "9")
        assert semigroup_suite(tup, 4, 1) == expected
        assert calls == [1, 2, 2, 2, 2, 1]

    # Every integer time of at least 4 sent to the identity block: the sum
    # times stop below 4, so only the interpolation times n N e_i, n <= 2N,
    # meet the mutant.
    @pytest.mark.parametrize("d, N", [(1, 2), (2, 2), (1, 4)])
    def test_identity_blocks_past_time_4_fail_interpolation(self, monkeypatch, d, N):
        grid_forms = interpolation._grid_forms

        def mutant(semi, nums):
            targets, exponents = grid_forms(semi, nums)
            late = [k for k, t in enumerate(nums) if not any(x % N for x in t) and max(t) >= 4 * N]
            exponents = exponents.copy()
            exponents[late] = 0
            return targets, exponents

        tup = _random_commuting_tuple(np.random.default_rng([90, d, N]), d, 2)
        assert semigroup_suite(tup, N, 2 * N)["passed"]
        monkeypatch.setattr(interpolation, "_grid_forms", mutant)
        out = semigroup_suite(tup, N, 2 * N)
        assert not out["checks"]["interpolation"]
        assert out["deviations"]["interpolation"] > 1e-3
        assert all(ok for name, ok in out["checks"].items() if name != "interpolation")

    def test_moved_point_at_an_interpolation_time_fails(self, monkeypatch):
        # Time 2N e_1, past the sum times, swaps grid points 0 and 1 and
        # keeps every block: the deviation stays at rounding, and only the
        # integer check sees it.
        N, u = 2, (8, 0)
        grid_forms = interpolation._grid_forms

        def swapped(semi, nums):
            targets, exponents = grid_forms(semi, nums)
            if list(u) in nums.tolist():
                targets = targets.copy()
                targets[nums.tolist().index(list(u)), [0, 1]] = [1, 0]
            return targets, exponents

        monkeypatch.setattr(interpolation, "_grid_forms", swapped)
        tup = _random_commuting_tuple(np.random.default_rng(91), 2, 2)
        out = semigroup_suite(tup, N, 2 * N)
        assert out["deviations"]["interpolation"] <= 1e-12
        assert not out["checks"]["interpolation"]
        assert all(ok for name, ok in out["checks"].items() if name != "interpolation")

    def test_holds_less_than_all_pairs(self):
        # d=2, N=4, dim 8, max_num 8: the suite's sum times fit the size
        # cap, but all 64 x 64 pairs of N^d blocks would not.  The loop
        # over s holds a quarter of a cap-sized array at most.
        d, N, max_num, dim = 2, 4, 8, 8
        assert max_num ** (2 * d) * N**d * dim * dim > max_entries()
        tup = _random_commuting_tuple(np.random.default_rng(87), d, dim)
        tracemalloc.start()
        try:
            semigroup_suite(tup, N, max_num)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * max_entries() / 4

    def test_wide_tuple_keys_fit_their_slices(self):
        # d=10, N=1, dim 1, max_num 2: 3^10 sum times and 2^10 x 2^10 pairs
        # (s, t).  Each slice of s is sized by its keys' four index columns
        # as well as their products, and the suite peaks near 29 MiB.
        tup = ContractionTuple((np.array([[0.5]]),) * 10)
        tracemalloc.start()
        try:
            out = semigroup_suite(tup, 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["passed"]
        assert peak <= 64 << 20, peak


def corner_weights(eps, times):
    """The weight ``scaled_blend`` gives each corner of the cell around
    ``times``, read off by blending 1x1 samples that are 1 at that corner
    and 0 at the others.  The cell must not have the origin as a corner."""
    cells = [math.floor(x / eps) for x in times]
    assert min(cells) >= 1
    corners = [
        tuple(c + e_i for c, e_i in zip(cells, e))
        for e in itertools.product((0, 1), repeat=len(times))
    ]
    weights = {}
    for corner in corners:
        samples = {c: np.array([[float(c == corner)]]) for c in corners}
        samples[(0,) * len(times)] = np.array([[1.0]])
        weights[corner] = float(scaled_blend(samples, eps, times)[0, 0].real)
    return weights


class TestScaledBlend:
    def test_recovers_lattice_points(self):
        gen = np.diag([-1.0, -2.0]).astype(complex)
        eps = 0.25
        samples = {
            (k,): matrix_exp(gen, k * eps) for k in range(5)
        }
        out = scaled_blend(samples, eps, (2 * eps,))
        np.testing.assert_allclose(out, samples[(2,)], atol=1e-13)

    def test_midpoint_average(self):
        samples = {(0,): identity(2), (1,): 0.5 * identity(2)}
        out = scaled_blend(samples, 1.0, (0.5,))
        np.testing.assert_allclose(out, 0.75 * identity(2), atol=1e-14)
        assert list(corner_weights(1.0, (1.5,)).values()) == [0.5, 0.5]

    @given(
        st.floats(0.01, 10.0),
        st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
    )
    def test_weights_sum_to_one(self, eps, times):
        weights = list(corner_weights(eps, [x + eps for x in times]).values())
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert min(weights) >= 0

    def test_missing_sample(self):
        with pytest.raises(InputError):
            scaled_blend({(0,): identity(2)}, 1.0, (0.5,))

    def test_origin_must_be_identity(self):
        samples = {(0,): 0.5 * identity(2), (1,): identity(2)}
        with pytest.raises(InputError):
            scaled_blend(samples, 1.0, (0.5,))

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            scaled_blend({(0,): identity(2)}, 0.0, (0.0,))

    @pytest.mark.parametrize("eps, times", [(float("inf"), (0.5,)), (1e-300, (1e10,))])
    def test_rejects_infinite_eps_and_overflowing_cells(self, eps, times):
        with pytest.raises(InputError):
            scaled_blend({(0,): identity(2)}, eps, times)

    @given(
        st.floats(1e-3, 10.0),
        st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
    )
    def test_weights_are_the_per_corner_products(self, eps, times):
        times = [x + eps for x in times]  # cells >= 1, as corner_weights needs
        d = len(times)
        cells = [math.floor(x / eps) for x in times]
        fracs = [x / eps - c for x, c in zip(times, cells)]
        expected = {}
        for e in itertools.product((0, 1), repeat=d):
            weight = 1.0
            for i in range(d):
                weight *= fracs[i] if e[i] else 1 - fracs[i]
            expected[tuple(c + e_i for c, e_i in zip(cells, e))] = weight
        weights = corner_weights(eps, times)
        assert list(weights.items()) == list(expected.items())


def dissipative_generators(rng, d, dim):
    """d commuting generators q diag(-2 r) q* with one seeded unitary q."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return [q @ np.diag(-2 * rng.random(dim)) @ q.conj().T for _ in range(d)]


def uniform_axes(d, t_max, steps):
    """d copies of the axis {0, t_max/steps, ..., t_max}, as ``approx`` sweeps."""
    return [[t_max * k / steps for k in range(steps + 1)]] * d


def points(axes):
    """The product grid of ``axes`` as the list of points the reference routes take."""
    return list(itertools.product(*axes))


def assert_within_stated_bound(gens, eps_list, axes):
    """``approx_error_sweep`` agrees with the exp-of-the-sum reference route
    to within the bound its docstring states, eps by eps."""
    d, n = len(gens), gens[0].shape[0]
    u = np.finfo(float).eps / 2
    report = approx_error_sweep(gens, eps_list, axes)
    reference = reference_sweep(gens, eps_list, points(axes))
    for row, ref, eps in zip(report, reference, eps_list):
        reach = [max(axis) + eps for axis in axes]  # T_i
        rho = 32 * (d + 1) * n * u * (1 + sum(r * op_norm(g) for r, g in zip(reach, gens)))
        commutator = sum(
            reach[i] * reach[j] * op_norm(gens[i] @ gens[j] - gens[j] @ gens[i])
            for i in range(d)
            for j in range(i + 1, d)
        )
        assert row["eps"] == ref["eps"] == eps
        assert abs(row["sup_error"] - ref["sup_error"]) <= rho + commutator, (eps, row, ref)


def assert_same_as_product_route(gens, eps_list, axes):
    """``approx_error_sweep`` gives the product-form route's report byte for byte."""
    report = approx_error_sweep(gens, eps_list, axes)
    expected = reference_product_sweep(gens, eps_list, points(axes))
    assert json.dumps(report) == json.dumps(expected)
    return report


class TestApproxSweep:
    def test_error_shrinks_with_eps(self):
        gens = [np.diag([-1.0, -3.0]).astype(complex), np.diag([-2.0, -1.0]).astype(complex)]
        axis = [a / 5 for a in range(11)]
        report = approx_error_sweep(gens, [0.5, 0.25, 0.125], [axis, axis])
        errors = [row["sup_error"] for row in report]
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < errors[0]

    def test_exact_on_lattice_only_grid(self):
        gens = [np.diag([-1.0]).astype(complex)]
        report = approx_error_sweep(gens, [0.5], [[0.5, 1.0, 1.5]])
        assert report[0]["sup_error"] < 1e-12

    def test_rejects_non_commuting_generators(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InputError):
            approx_error_sweep([a, a.T], [0.5], [[0.1], [0.1]])

    def test_rejects_expanding_semigroup(self):
        with pytest.raises(InputError):
            approx_error_sweep([identity(2)], [0.5], [[1.0]])

    def test_rejects_empty_grid(self):
        with pytest.raises(InputError, match="time axis 1 must be a nonempty"):
            approx_error_sweep([-identity(2)], [0.5], [[]])

    @pytest.mark.parametrize("axes", [[], [[0.5], [0.5]], [[[0.5]]]])
    def test_rejects_axes_not_one_per_generator(self, axes):
        with pytest.raises(InputError, match="time ax"):
            approx_error_sweep([-identity(2)], [0.5], axes)

    @pytest.mark.parametrize("t_max", [0.0, 0.5, 5.0])
    def test_refuses_a_humped_generator_at_any_time(self, monkeypatch, t_max):
        # ||exp(s A)|| = e^-s (1 + 4 s) is 1.46 at s = 0.5: A is not
        # dissipative, its Hermitian part having eigenvalues 1 and -3.
        humped = np.array([[-1.0, 4.0], [0.0, -1.0]], dtype=complex)
        assert op_norm(matrix_exp(humped, 0.5)) > 1.4
        monkeypatch.setattr(interpolation, "matrix_exp", None)  # refused before any call
        with pytest.raises(InputError, match=r"generator 1 is not dissipative \(.* is 1\)"):
            approx_error_sweep([humped], [0.5], [[0.0, t_max]])
        with pytest.raises(InputError, match="generator 2 is not dissipative"):
            approx_error_sweep([-identity(2), humped], [0.5], uniform_axes(2, t_max, 2))

    def test_sweeps_a_dissipative_non_normal_generator(self):
        # Hermitian part eigenvalues -1/2 and -3/2: every exp(s A) contracts,
        # although A is not normal.
        shear = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
        assert op_norm(shear @ shear.conj().T - shear.conj().T @ shear) > 0.5
        eps_list = [0.5, 0.3, 0.07]
        report = assert_same_as_product_route([shear], eps_list, uniform_axes(1, 5.0, 40))
        assert all(row["sup_error"] > 0 for row in report)
        assert_within_stated_bound([shear], eps_list, uniform_axes(1, 5.0, 40))

    def test_unequal_axes_match_product_route(self):
        # Axes of different lengths, unsorted, with a repeated time.
        gens = dissipative_generators(np.random.default_rng(42), 3, 2)
        axes = [[1.7, 0.0, 0.3, 0.3], [2.0, 0.2], [0.9, 0.05, 1.3]]
        assert_same_as_product_route(gens, [0.5, 0.3, 1 / 64], axes)

    def test_grid_cap_is_checked_before_any_exponential(self, monkeypatch):
        gens = dissipative_generators(np.random.default_rng(43), 2, 2)
        axes = uniform_axes(2, 1.0, 4)  # 5 x 5 grid points of 2x2: 100 entries
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "100")
        approx_error_sweep(gens, [0.5], axes)
        monkeypatch.setattr(interpolation, "matrix_exp", None)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "99")
        with pytest.raises(InputError, match="matrix of shape 50x2 exceeds the size cap of 99"):
            approx_error_sweep(gens, [0.5], axes)

    @pytest.mark.parametrize(
        "d, dim, steps, eps_list",
        [
            (1, 4, 40, [0.5, 0.25, 0.1, 1 / 64]),
            (2, 2, 12, [0.5, 0.3, 0.125]),
            (3, 2, 5, [0.4, 0.15]),
            # eps above t_max, and eps so small that t/eps is near 1e300.
            (2, 3, 6, [3.0, 1e-300]),
            (1, 1, 7, [5.0, 0.3, 1e-300]),
        ],
    )
    def test_matches_unbatched_reference(self, d, dim, steps, eps_list):
        gens = dissipative_generators(np.random.default_rng(40 + 10 * d + dim), d, dim)
        assert_within_stated_bound(gens, eps_list, uniform_axes(d, 2.0, steps))

    def test_near_commuting_generators_match_within_the_commutator_term(self):
        rng = np.random.default_rng(7)
        dim = 3
        a, b = dissipative_generators(rng, 2, dim)
        # A skew-Hermitian nudge keeps b dissipative and breaks commutation.
        k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        k = k - k.conj().T
        k = k / op_norm(a @ k - k @ a)
        gens = [a, b + 1e-11 * k]
        assert 5e-12 < op_norm(gens[0] @ gens[1] - gens[1] @ gens[0]) < 2e-11
        assert_within_stated_bound(gens, [0.5, 0.3, 0.125], uniform_axes(2, 2.0, 12))

    def test_norm_cap_applies_to_each_axis(self):
        # ||t_max A_i|| = 30 on each axis, but ||t_max (A_1 + A_2)|| = 60 > 50.
        gens = [np.diag([-30.0, -1.0]).astype(complex), np.diag([-30.0, -2.0]).astype(complex)]
        axes = uniform_axes(2, 1.0, 4)
        eps_list = [0.5, 0.3]
        with pytest.raises(ValueError, match="beyond the cap"):
            reference_sweep(gens, eps_list, points(axes))
        report = approx_error_sweep(gens, eps_list, axes)
        diags = np.array([np.diag(g).real for g in gens])  # (axis, entry)
        for row, eps in zip(report, eps_list):
            expected = 0.0
            for t in points(axes):
                exact = np.exp(np.array(t) @ diags)
                blend = np.ones(2)
                for t_i, a_i in zip(t, diags):
                    c = math.floor(t_i / eps)
                    f = t_i / eps - c
                    blend *= (1 - f) * np.exp(c * eps * a_i) + f * np.exp((c + 1) * eps * a_i)
                expected = max(expected, float(np.abs(blend - exact).max()))
            assert row["eps"] == eps
            assert row["sup_error"] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_matches_product_route_bit_for_bit(self, d, dim):
        gens = dissipative_generators(np.random.default_rng(70 + 10 * d + dim), d, dim)
        axes = uniform_axes(d, 2.0, {1: 40, 2: 12, 3: 5}[d])
        assert_same_as_product_route(gens, [0.5, 0.3, 0.125, 1 / 64, 3.0], axes)

    @pytest.mark.parametrize("d", [1, 2])
    def test_eps_on_every_grid_point(self, d):
        # The grid k/4: eps 1/4, 1/8, 1/16 put every coordinate on a lattice
        # point, where blend and true value are the same exponentials.
        gens = dissipative_generators(np.random.default_rng(80 + d), d, 3)
        eps_list = [0.25, 0.125, 1 / 16, 0.3]
        report = assert_same_as_product_route(gens, eps_list, uniform_axes(d, 2.0, 8))
        assert [row["sup_error"] for row in report[:3]] == [0.0] * 3
        assert report[3]["sup_error"] > 0

    def test_identity_multiple_generators_tie(self):
        # Every error matrix is a multiple of the identity: all its columns,
        # and its norm, are equal.
        gens = [-0.7 * identity(3), -1.9 * identity(3)]
        assert_same_as_product_route(gens, [0.5, 0.3, 0.125], uniform_axes(2, 2.0, 12))

    @pytest.mark.parametrize("d", [1, 2])
    def test_rank_one_errors(self, d):
        # Generators diag(-a, 0, 0): every error matrix is diag(c, 0, 0), its
        # Frobenius norm equal to its norm and to its one column's.
        gens = [np.diag([-a, 0.0, 0.0]).astype(complex) for a in (1.3, 0.4)[:d]]
        assert_same_as_product_route(gens, [0.5, 0.3, 1 / 64], uniform_axes(d, 2.0, 16))

    @pytest.mark.parametrize(
        "gens",
        [
            [0.1 * identity(2), -identity(2)],  # generator 1 expands
            [-identity(2), 0.1 * identity(2)],  # generator 2 expands
            [0.1 * identity(2), -30 * identity(2)],  # 1 expands, 2 beyond the norm cap
            [-identity(2), -30 * identity(2)],  # 2 beyond the norm cap
            [-24 * identity(2)],  # the sample at t = 2.5 beyond the norm cap
        ],
    )
    def test_refuses_as_the_product_route(self, gens):
        axes, eps_list = uniform_axes(len(gens), 2.0, 4), [0.5, 1.25]
        with pytest.raises(InputError) as expected:
            reference_product_sweep(gens, eps_list, points(axes))
        with pytest.raises(InputError) as got:
            approx_error_sweep(gens, eps_list, axes)
        assert str(got.value) == str(expected.value)

    def test_batches_within_the_size_cap(self, monkeypatch):
        gens = dissipative_generators(np.random.default_rng(90), 2, 2)
        eps_list, axes = [0.5, 0.3, 0.125, 0.1, 1 / 64], uniform_axes(2, 2.0, 6)
        sizes = []

        def spy(a, *args):
            sizes.append(np.size(a))
            return matrix_exp(a, *args)

        monkeypatch.setattr(interpolation, "matrix_exp", spy)
        whole = approx_error_sweep(gens, eps_list, axes)
        # The exact values, then each eps.
        assert len(sizes) == 1 + len(eps_list)
        expected = reference_product_sweep(gens, eps_list, points(axes))
        assert json.dumps(whole) == json.dumps(expected)
        # A 2 x 9 grid of 2x2, 72 entries, within a cap of 72: the exact
        # values, 11 members, fit in one call, and an eps's samples, up to
        # 22 members, are split into calls of at most 18.
        axes = [[0.0, 1.3], uniform_axes(1, 2.0, 8)[0]]
        expected = reference_product_sweep(gens, eps_list, points(axes))
        sizes.clear()
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "72")
        batched = approx_error_sweep(gens, eps_list, axes)
        assert json.dumps(batched) == json.dumps(expected)
        assert len(sizes) > 1 + len(eps_list)
        assert max(sizes) <= max_entries() == 72

    def test_long_eps_list_holds_one_eps(self):
        # Each eps's samples are dropped before the next eps's are made, so
        # an eps adds its report row to what the sweep holds, not its
        # samples: 2 x 41 exponentials of 4x4, 21 KiB.
        gens = dissipative_generators(np.random.default_rng(91), 1, 4)
        axes = uniform_axes(1, 2.0, 40)
        peaks = []
        for count in (2, 200):
            eps_list = [0.01 / (1 + k / count) for k in range(count)]
            tracemalloc.start()
            try:
                approx_error_sweep(gens, eps_list, axes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 198 * 1024, peaks

    @staticmethod
    def member_counts(monkeypatch, gens, eps_list, axes):
        """The sweep's report and the number of members of each ``matrix_exp``
        call it makes, checked byte for byte against the product route."""
        counts = []

        def spy(a, *args):
            counts.append(len(a))
            return matrix_exp(a, *args)

        monkeypatch.setattr(interpolation, "matrix_exp", spy)
        report = approx_error_sweep(gens, eps_list, axes)
        monkeypatch.undo()
        expected = reference_product_sweep(gens, eps_list, points(axes))
        assert json.dumps(report) == json.dumps(expected)
        return counts

    def test_reuses_the_times_of_the_step_before(self, monkeypatch):
        # Criterion 7's sweep.  Each eps's cell ends that are cell ends of
        # the eps before (coordinates, for eps = 1/2) are not exponentiated
        # again: of the 2 x 6 ends at eps = 1/2 only t = 2.5 is new, and
        # halving eps keeps every second end.  The sweep without reuse
        # exponentiated 82, 12, 20, 36, 68, 132 and 164 members.
        gens = [np.diag([-1.0, -3.0]).astype(complex), np.diag([-2.0, -1.0]).astype(complex)]
        axis = [2.0 * k / 40 for k in range(41)]
        eps_list = [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64]
        counts = self.member_counts(monkeypatch, gens, eps_list, [axis, axis])
        assert counts == [82, 2, 10, 18, 34, 66, 82]
        assert sum(counts) == 294

    def test_unsorted_axis_with_repeated_coordinates(self, monkeypatch):
        gens = dissipative_generators(np.random.default_rng(92), 2, 3)
        axes = [[1.5, 0.25, 1.5, 0.0, 0.7, 0.25, 2.0], [0.5, 0.5, 0.1]]
        counts = self.member_counts(monkeypatch, gens, [0.5, 0.25, 0.125, 0.3], axes)
        # At eps = 1/2 axis 1's ends 0, 1.5 and 2 and axis 2's end 0.5 are
        # coordinates: 3 + 2 of the 6 + 3 ends are new.
        assert counts[:2] == [10, 3 + 2]

    @pytest.mark.parametrize(
        "eps_list, counts",
        [
            # The second 1/64 finds only its ends 0, 1/2 and 1 held, by 1/2.
            ([1 / 64, 1 / 2, 1 / 64], [5, 6, 3, 7]),
            # The second of two 1/64 in a row finds every end held, so it
            # makes no call and raises no empty-stack error.
            ([1 / 2, 1 / 64, 1 / 64, 1 / 2], [5, 3, 7, 3]),
        ],
    )
    def test_repeated_eps(self, monkeypatch, eps_list, counts):
        gens = dissipative_generators(np.random.default_rng(93), 2, 2)
        axes = [[0.0, 0.3, 1.0], [0.75, 0.5]]
        assert self.member_counts(monkeypatch, gens, eps_list, axes) == counts

    @pytest.mark.parametrize(
        "eps_list, axis, message",
        [
            ([float("inf")], [0.5], "eps values must be finite and positive"),
            ([float("nan")], [0.5], "eps values must be finite and positive"),
            ([0.5, -1.0], [0.5], "eps values must be finite and positive"),
            ([0.5], [0.5, float("nan")], "times must be finite and nonnegative: axis 1 has nan"),
            ([0.5], [float("inf")], "times must be finite and nonnegative: axis 1 has inf"),
            ([0.5], [-0.5], "times must be finite and nonnegative: axis 1 has -0.5"),
            ([1e-300], [1e10], "overflows"),
        ],
    )
    def test_rejects_bad_eps_and_times_before_any_exponential(
        self, monkeypatch, eps_list, axis, message
    ):
        def no_exp(*args, **kwargs):
            raise AssertionError("matrix_exp called before validation")

        monkeypatch.setattr(interpolation, "matrix_exp", no_exp)
        with pytest.raises(InputError, match=message):
            approx_error_sweep([-identity(2)], eps_list, [axis])
