import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilations.dilation import _random_commuting_tuple
from dilations import interpolation
from dilations.interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    approx_error_sweep,
    compress_discretized,
    eval_discretized,
    kappa,
    multilinear_compress,
    scaled_blend,
    semigroup_suite,
)
from dilations.linalg import InputError, identity, matrix_exp, op_norm
from dilations.torus import GridTime
from unbatched_reference import reference_sweep


def shift_matrix(n):
    s = np.zeros((n, n), dtype=complex)
    for m in range(n):
        s[(m + 1) % n, m] = 1.0
    return s


class TestKappa:
    @given(st.integers(0, 200), st.integers(0, 200), st.integers(1, 12))
    def test_fraction_oracle(self, num, num_prime, N):
        t = Fraction(num, N)
        t_prime = Fraction(num_prime, N)
        frac_sum = (t - math.floor(t)) + (t_prime - math.floor(t_prime))
        expected = math.floor(t) + (1 if frac_sum >= 1 else 0)
        assert kappa(num, num_prime, N) == expected

    def test_tie_goes_up(self):
        assert kappa(1, 3, 4) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            kappa(-1, 0, 4)
        with pytest.raises(InputError):
            kappa(0, 0, 0)


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

    def test_powers(self):
        s = shift_matrix(3)
        pows = ContractionTuple((s,)).powers(0, 3)
        np.testing.assert_array_equal(pows[0], identity(3))
        np.testing.assert_array_equal(pows[2], s @ s)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(31)
        tup = _random_commuting_tuple(rng, 2, 3)
        back = ContractionTuple.from_json(tup.to_json(), tol=1e-9)
        for a, b in zip(tup.mats, back.mats):
            np.testing.assert_array_equal(a, b)

    def test_json_declared_mismatch(self):
        tup = ContractionTuple((shift_matrix(2),))
        obj = tup.to_json()
        obj["d"] = 5
        with pytest.raises(InputError):
            ContractionTuple.from_json(obj)


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
                rhs = eval_discretized(semi, s + t)
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

    def test_size_cap(self):
        with pytest.raises(InputError):
            DiscretizedSemigroup(ContractionTuple((shift_matrix(2),)), 1024)


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
                rhs = multilinear_compress(tup, t.values())
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

    def test_multilinear_rejects_bad_times(self):
        tup = ContractionTuple((shift_matrix(2),))
        with pytest.raises(InputError):
            multilinear_compress(tup, (-0.5,))
        with pytest.raises(InputError):
            multilinear_compress(tup, (0.5, 0.5))


class TestSemigroupSuite:
    def test_flags_an_expansion(self):
        # validated tuples are contractions; bypass the tolerance to see
        # the contractivity check fail on its own
        tup = ContractionTuple((np.array([[1.1]]),), tol=0.2)
        out = semigroup_suite(tup, 2, 2)
        assert not out["checks"]["contractivity"]
        assert not out["passed"]

    @pytest.mark.parametrize("d, N, max_num", [(1, 2, 6), (2, 2, 3)])
    def test_streams_the_homomorphism_sums(self, monkeypatch, d, N, max_num):
        # Each sum time and interpolation time is evaluated once, plus one
        # evaluation per compression.  Besides the suite times, at most
        # three evaluations are alive at once (the last sum time, the last
        # interpolation time and the one being built), against every sum
        # time when nothing is streamed.
        live = []
        most_alive = [0]
        evaluate = interpolation.eval_discretized

        def tracked(semi, t):
            value = evaluate(semi, t)
            live.append(weakref.ref(value))
            most_alive[0] = max(most_alive[0], sum(r() is not None for r in live))
            return value

        monkeypatch.setattr(interpolation, "eval_discretized", tracked)
        rng = np.random.default_rng(75)
        out = semigroup_suite(_random_commuting_tuple(rng, d, 2), N, max_num)
        assert out["passed"]
        sums = (2 * max_num - 1) ** d
        interp_beyond = d * sum(1 for n in range(2 * N + 1) if n * N > 2 * max_num - 2)
        assert len(live) == sums + interp_beyond + max_num**d
        assert most_alive[0] <= max_num**d + 3 < sums


class TestScaledBlend:
    def test_recovers_lattice_points(self):
        gen = np.diag([-1.0, -2.0]).astype(complex)
        eps = 0.25
        samples = {
            (k,): matrix_exp(gen, k * eps) for k in range(5)
        }
        out, weights = scaled_blend(samples, eps, (2 * eps,))
        np.testing.assert_allclose(out, samples[(2,)], atol=1e-13)
        assert sum(w.weight for w in weights) == pytest.approx(1.0)

    def test_midpoint_average(self):
        samples = {(0,): identity(2), (1,): 0.5 * identity(2)}
        out, weights = scaled_blend(samples, 1.0, (0.5,))
        np.testing.assert_allclose(out, 0.75 * identity(2), atol=1e-14)
        assert {w.e: w.weight for w in weights} == {(0,): 0.5, (1,): 0.5}

    @given(
        st.floats(0.01, 10.0),
        st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
    )
    def test_weights_sum_to_one(self, eps, times):
        d = len(times)
        # Provide every corner that could be touched.
        cells = [math.floor(x / eps) for x in times]
        samples = {(0,) * d: identity(1)}
        for e in itertools.product((0, 1), repeat=d):
            samples[tuple(c + ei for c, ei in zip(cells, e))] = identity(1)
        _, weights = scaled_blend(samples, eps, times)
        total = sum(w.weight for w in weights)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(w.weight >= 0 for w in weights)

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
        d = len(times)
        cells = [math.floor(x / eps) for x in times]
        fracs = [x / eps - c for x, c in zip(times, cells)]
        samples = {(0,) * d: identity(1)}
        for e in itertools.product((0, 1), repeat=d):
            samples[tuple(c + ei for c, ei in zip(cells, e))] = identity(1)
        _, weights = scaled_blend(samples, eps, times)
        expected = []
        for e in itertools.product((0, 1), repeat=d):
            weight = 1.0
            for i in range(d):
                weight *= fracs[i] if e[i] else 1 - fracs[i]
            expected.append((e, weight))
        assert [(w.e, w.weight) for w in weights] == expected


class TestApproxSweep:
    def test_error_shrinks_with_eps(self):
        gens = [np.diag([-1.0, -3.0]).astype(complex), np.diag([-2.0, -1.0]).astype(complex)]
        grid = [(a / 5, b / 5) for a in range(11) for b in range(11)]
        report = approx_error_sweep(gens, [0.5, 0.25, 0.125], grid)
        errors = [row["sup_error"] for row in report]
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < errors[0]

    def test_exact_on_lattice_only_grid(self):
        gens = [np.diag([-1.0]).astype(complex)]
        grid = [(0.5,), (1.0,), (1.5,)]
        report = approx_error_sweep(gens, [0.5], grid)
        assert report[0]["sup_error"] < 1e-12

    def test_rejects_non_commuting_generators(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InputError):
            approx_error_sweep([a, a.T], [0.5], [(0.1, 0.1)])

    def test_rejects_expanding_semigroup(self):
        with pytest.raises(InputError):
            approx_error_sweep([identity(2)], [0.5], [(1.0,)])

    def test_rejects_empty_grid(self):
        with pytest.raises(InputError):
            approx_error_sweep([-identity(2)], [0.5], [])

    @pytest.mark.parametrize(
        "d, dim, steps, eps_list",
        [
            (1, 4, 40, [0.5, 0.25, 0.1, 1 / 64]),
            # 169 points: more than one stacked chunk.
            (2, 2, 12, [0.5, 0.3, 0.125]),
            (3, 2, 5, [0.4, 0.15]),
            # eps above t_max, and eps so small that t/eps is near 1e300.
            (2, 3, 6, [3.0, 1e-300]),
            (1, 1, 7, [5.0, 0.3, 1e-300]),
        ],
    )
    def test_matches_unbatched_reference(self, d, dim, steps, eps_list):
        rng = np.random.default_rng(40 + 10 * d + dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        gens = [q @ np.diag(-2 * rng.random(dim)) @ q.conj().T for _ in range(d)]
        axis = [2.0 * k / steps for k in range(steps + 1)]
        grid = list(itertools.product(axis, repeat=d))
        assert approx_error_sweep(gens, eps_list, grid) == reference_sweep(gens, eps_list, grid)

    @pytest.mark.parametrize(
        "eps_list, grid, message",
        [
            ([float("inf")], [(0.5,)], "eps values must be finite and positive"),
            ([float("nan")], [(0.5,)], "eps values must be finite and positive"),
            ([0.5, -1.0], [(0.5,)], "eps values must be finite and positive"),
            ([0.5], [(0.5,), (float("nan"),)], "times must be finite and nonnegative"),
            ([0.5], [(float("inf"),)], "times must be finite and nonnegative"),
            ([0.5], [(-0.5,)], "times must be finite and nonnegative"),
            ([1e-300], [(1e10,)], "overflows"),
        ],
    )
    def test_rejects_bad_eps_and_times_before_any_exponential(
        self, monkeypatch, eps_list, grid, message
    ):
        def no_exp(*args, **kwargs):
            raise AssertionError("matrix_exp called before validation")

        monkeypatch.setattr(interpolation, "matrix_exp", no_exp)
        with pytest.raises(InputError, match=message):
            approx_error_sweep([-identity(2)], eps_list, grid)
