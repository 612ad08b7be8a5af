import ast
import gc
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dilations.dilation
import dilations.interpolation
from conftest import random_commuting_unitaries, random_contraction, random_unitary
from dilations.dilation import (
    _LATTICE_BLOCK,
    DEGREE_CAP,
    DilationCandidate,
    MultiPolynomial,
    _image,
    _lattice_max,
    _poly_matrix,
    _random_commuting_tuple,
    _random_polynomial,
    egervary_dilation,
    eval_poly,
    parrott_tuple,
    power_dilation_verify,
    torus_sup,
    vn_check,
    vn_search,
)
from dilations.fixtures import load_crabb_davie
from dilations.interpolation import ContractionTuple
from dilations.linalg import (
    InputError,
    _batches,
    identity,
    op_norm,
)
from test_linalg import svd_shapes
from unbatched_reference import (
    reference_commuting_tuple,
    reference_eval_poly,
    reference_lattice_max,
    reference_power_dilation_verify,
    reference_random_polynomial,
    reference_torus_sup,
    reference_vn_search,
)

U = 2.0**-53


def rounding_bound(poly, powers=0):
    """The bound torus_sup's docstring states for its lattice values.

    ``powers`` adds that many table-entry errors per term: the reference
    route raises entries to powers of up to the total degree.
    """
    l1 = sum(abs(c) for c in poly.terms.values())
    return 32 * (poly.d + len(poly.terms) + powers) * (U * l1 + 2.0**-1074)


def traced_peak(fn, *args):
    """(result, peak bytes numpy and Python allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def decided_cases(monkeypatch):
    """The (poly, report) of every ``_decide`` call from now on, in call
    order: ``vn_search`` decides its extra cases before its trials."""
    cases, decide = [], dilations.dilation._decide

    def spy(lhs, poly, M, tol):
        cases.append((poly, decide(lhs, poly, M, tol)))
        return cases[-1][1]

    monkeypatch.setattr(dilations.dilation, "_decide", spy)
    return cases


def aligned_poly(M, target, exponents):
    """sum_alpha w^(-target . alpha) z^alpha with w = exp(2 pi i / M): |p|
    reaches its number of terms exactly at the lattice points k where
    every w^((k - target) . alpha) is the same."""
    terms = {
        alpha: np.exp(-2j * np.pi * (sum(int(t) * a for t, a in zip(target, alpha)) % M) / M)
        for alpha in exponents
    }
    return MultiPolynomial(d=len(target), terms=terms)


def orbit_exponents(d, M, shape):
    """(exponents for ``aligned_poly``, h = gcd(M, |alpha| - |alpha_0|)).

    "affine": 0 and every e_i.  h = 1; the one maximiser is the target.
    "homogeneous": every e_i.  h = M; the maximisers are the target's
    diagonal orbit target + c (1, ..., 1).
    2 or 4, for 8 | M: 8 e_0, (8 + h) e_0, 7 e_0 + e_i for 0 < i < d - 1
    and 8 e_(d-1).  The degrees differ by 0 and h, and the maximisers are
    target + (M/h) c (1, ..., 1), plus (M/8) m e_(d-1) when d >= 2.  They
    meet k_0 < M/h only at k_0 = target_0 mod M/h, so a lattice cut to
    k_0 < M/8 or to k_0 = 0 misses them unless target_0 mod M/h is there.
    """
    eye = np.eye(d, dtype=int)
    if shape == "affine":
        rows, h = [np.zeros(d, dtype=int), *eye], 1
    elif shape == "homogeneous":
        rows, h = eye, M
    else:
        h = shape
        rows = [8 * eye[0], (8 + h) * eye[0], *(7 * eye[0] + eye[i] for i in range(1, d - 1))]
        rows.append(8 * eye[d - 1])
    return sorted({tuple(int(a) for a in row) for row in rows}), h


@st.composite
def lattice_cases(draw):
    """A polynomial of arity 1-4, exponents up to DEGREE_CAP (so often
    beyond M), and a lattice size small enough for the reference route."""
    d = draw(st.integers(1, 4))
    M = draw(st.sampled_from([m for m in (2, 3, 5, 7, 16, 64) if m**d <= 2**18]))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        budget = DEGREE_CAP
        alpha = []
        for _ in range(d):
            alpha.append(draw(st.integers(0, budget)))
            budget -= alpha[-1]
        terms[tuple(draw(st.permutations(alpha)))] = draw(
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
        )
    return MultiPolynomial(d=d, terms=terms), M


class TestMultiPolynomial:
    def test_drops_zero_coefficients(self):
        p = MultiPolynomial(d=1, terms={(1,): 0.0, (2,): 1.0})
        assert set(p.terms) == {(2,)}

    def test_degree_cap(self):
        with pytest.raises(InputError):
            MultiPolynomial(d=1, terms={(17,): 1.0})

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            MultiPolynomial(d=2, terms={(1,): 1.0})

    @pytest.mark.parametrize(
        "coeff", [float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan"))]
    )
    def test_refuses_non_finite_coefficients(self, coeff):
        # The lattice max of a NaN polynomial would read 0.0, a wrong number.
        with pytest.raises(InputError, match=r"coefficient of \(0, 1\) must be finite"):
            MultiPolynomial(d=2, terms={(1, 0): 1.0, (0, 1): coeff})

    def test_json_roundtrip(self):
        p = MultiPolynomial(d=3, terms={(1, 1, 1): 1 + 2j, (3, 0, 0): -1.0})
        back = MultiPolynomial.from_json(json.loads(json.dumps(p.to_json())))
        assert back.terms == p.terms


class TestEvalPoly:
    def test_matrix_power_oracle(self):
        rng = np.random.default_rng(50)
        a = random_contraction(rng, 3)
        tup = ContractionTuple((a, a @ a), tol=1e-9)
        p = MultiPolynomial(d=2, terms={(2, 1): 1.5, (0, 0): -2j})
        out = eval_poly(tup, p)
        expected = 1.5 * np.linalg.matrix_power(a, 2) @ (a @ a) - 2j * identity(3)
        assert np.abs(out - expected).max() < 1e-12

    def test_arity_mismatch(self):
        tup = ContractionTuple((identity(2),))
        with pytest.raises(InputError):
            eval_poly(tup, MultiPolynomial(d=2, terms={(1, 1): 1.0}))

    @pytest.mark.parametrize("d, dim", [(1, 1), (1, 3), (2, 4), (3, 2), (5, 1)])
    def test_stacked_members_match_their_own_calls(self, d, dim):
        # K polynomials of 0 to 4 terms, each with its own tuple; the
        # shorter ones are padded to 4 slots in the stacked call.
        rng = np.random.default_rng(60 + 10 * d + dim)
        tuples = [_random_commuting_tuple(rng, d, dim) for _ in range(12)]
        polys = [MultiPolynomial(d=d, terms={})] + [
            MultiPolynomial(
                d=d,
                terms={
                    tuple(np.unravel_index(k, (4,) * d)): complex(*rng.standard_normal(2))
                    for k in rng.choice(4**d, n, replace=False).tolist()
                },
            )
            for n in [1, 2, 3, 4] * 2 + [4, 1, 4]
        ]
        alphas = np.zeros((len(polys), 4, d), dtype=np.intp)
        coeffs = np.zeros((len(polys), 4), dtype=np.complex128)
        for k, poly in enumerate(polys):
            alphas[k, : len(poly.terms)] = np.reshape(list(poly.terms), (-1, d))
            coeffs[k, : len(poly.terms)] = list(poly.terms.values())
        got = _poly_matrix(np.stack([t.mats for t in tuples], axis=1), alphas, coeffs)
        for member, tup, poly in zip(got, tuples, polys):
            want = reference_eval_poly(tup, poly).tobytes()
            assert member.tobytes() == eval_poly(tup, poly).tobytes() == want


class TestTorusSup:
    def test_monomial(self):
        grid_sup, pad, upper = torus_sup(
            MultiPolynomial(d=1, terms={(3,): 2.0}), 64
        )
        assert grid_sup == pytest.approx(2.0, abs=1e-12)
        assert pad == pytest.approx(np.pi / 64 * 6)
        assert upper == grid_sup + pad

    def test_two_variable_known_sup(self):
        # sup |z1 + z2| = 2, attained on the lattice.
        grid_sup, _, upper = torus_sup(
            MultiPolynomial(d=2, terms={(1, 0): 1.0, (0, 1): 1.0}), 32
        )
        assert grid_sup == pytest.approx(2.0, abs=1e-12)
        assert upper >= 2.0

    def test_certified_bound_dominates_samples(self):
        rng = np.random.default_rng(51)
        p = MultiPolynomial(
            d=2,
            terms={
                tuple(rng.integers(0, 4, size=2)): complex(
                    rng.standard_normal(), rng.standard_normal()
                )
                for _ in range(4)
            },
        )
        _, _, upper = torus_sup(p, 16)
        for _ in range(200):
            z = np.exp(2j * np.pi * rng.random(2))
            value = sum(c * np.prod(z ** np.array(a)) for a, c in p.terms.items())
            assert abs(value) <= upper + 1e-12

    def test_rejects_tiny_lattice(self):
        with pytest.raises(InputError):
            torus_sup(MultiPolynomial(d=1, terms={(1,): 1.0}), 1)

    def test_lattice_cap(self):
        # The cap applies to the image's prod M/g_i points, not to M^d: one
        # term has an image of one point, while a full-rank d = 3
        # polynomial at M = 4096 has 2^36 > 128 * 2^20.
        assert torus_sup(MultiPolynomial(d=3, terms={(1, 1, 1): 1.0}), 4096)[0] == 1.0
        alphas = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        p = MultiPolynomial(d=3, terms={alpha: 1.0 for alpha in alphas})
        with pytest.raises(InputError, match=r"lattice of prod M/g_i = 68719476736 points"):
            torus_sup(p, 4096)

    def test_root_table_cap(self, monkeypatch):
        # At d = 1 the lattice cap allows 128 * max_entries() points, but
        # the table of M roots may hold no more than max_entries().
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "1024")
        p = MultiPolynomial(d=1, terms={(1,): 1.0})
        assert torus_sup(p, 1024)[0] == pytest.approx(1.0)
        with pytest.raises(InputError, match="lattice size M = 1025 exceeds"):
            torus_sup(p, 1025)

    @given(lattice_cases())
    # Empty: ``_image`` has no term to take differences from.
    @example((MultiPolynomial(d=2, terms={}), 7))
    # One term: no differences, so the image is one point.
    @example((MultiPolynomial(d=3, terms={(0, 0, 0): -0.5 + 2j}), 5))
    @example((MultiPolynomial(d=3, terms={(2, 5, 1): 0.3 - 1j}), 7))
    # Differences that all vanish mod M: arity 0, the terms merged into
    # one coefficient (0 in the first case).
    @example((MultiPolynomial(d=1, terms={(0,): 1.0, (16,): -1.0}), 2))
    @example((MultiPolynomial(d=1, terms={(1,): 1, (3,): 2}), 2))
    # Homogeneous, so the differences have rank 2: M^2 image points.
    @example((load_crabb_davie()[1], 8))
    @example((load_crabb_davie()[1], 16))
    @example((load_crabb_davie()[1], 32))
    # Exponents 8 apart at M = 16: one axis of size 2, and |p| = 1.5
    # only at odd k.
    @example((MultiPolynomial(d=1, terms={(1,): 1.0, (9,): -0.5}), 16))
    # Full rank with a non-coprime invariant factor: s = (1, 2), so the
    # 16^2 lattice takes its values on 16 x 8 = 128 image points.
    @example((MultiPolynomial(d=2, terms={(0, 0): 1, (2, 0): 1, (1, 1): 1}), 16))
    # Invariant factors 2 and 8: an 8 x 2 image, whose maximum sits only
    # off k_0 < 2 (see orbit_exponents).
    @example((aligned_poly(16, [15, 15], orbit_exponents(2, 16, 2)[0]), 16))
    # d = 3 at M = 12: rank 1 (one axis of 12), and rank 2 with
    # invariant factors 1 and 6 (axes of 12 and 2).
    @example((MultiPolynomial(d=3, terms={(0, 0, 0): 1, (1, 2, 3): -0.5j, (2, 4, 6): 0.25}), 12))
    @example((MultiPolynomial(d=3, terms={(0, 0, 0): 1, (2, 2, 0): 0.5j, (3, 0, 3): -0.75}), 12))
    # Subnormal: the roundings underflow, so only the 2^-1074 part of the
    # bound covers them (|p| = sqrt(2) 2^-1074 reads 5e-324 and 1e-323).
    @example((MultiPolynomial(d=1, terms={(1,): 5e-324 + 5e-324j}), 3))
    def test_matches_reference(self, case):
        poly, M = case
        grid_sup, pad, upper = torus_sup(poly, M)
        ref_grid_sup, ref_pad, _ = reference_torus_sup(poly, M)
        assert abs(grid_sup - ref_grid_sup) <= rounding_bound(poly) + rounding_bound(
            poly, powers=max((sum(a) for a in poly.terms), default=0)
        )
        assert pad == ref_pad
        assert upper == grid_sup + pad

    @pytest.mark.parametrize(
        "d, M, monomial",
        [(20, 2, False), (8, 8, False), (16, 2, True), (8, 8, True)],
    )
    def test_memory_does_not_grow_with_arity(self, d, M, monomial):
        # sum_i z_i peaks at d and z_1...z_d at 1, both at (1, ..., 1),
        # where every table entry is exactly 1.  (The monomial stops at
        # d = 16, the degree cap.)  The reference route is not run here:
        # it would hold (d - 1) M^(d - 1) values.
        if monomial:
            poly, exact = MultiPolynomial(d=d, terms={(1,) * d: 1.0}), 1.0
        else:
            unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
            poly, exact = MultiPolynomial(d=d, terms=dict.fromkeys(unit, 1.0)), d
        (grid_sup, _, _), peak = traced_peak(torus_sup, poly, M)
        assert exact <= grid_sup <= exact + rounding_bound(poly)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("d, M", [(1, 2**17), (2, 1024), (3, 64), (3, 256), (20, 2)])
    def test_finds_the_maximiser_in_any_chunk(self, d, M):
        # Each polynomial reaches its sup, its number of terms, only on the
        # lattice points orbit_exponents lists; elsewhere it stays below
        # |n - 1 + w|.  Past the affine case, h > 1 and the targets have
        # k_0 >= M/h: a lattice cut to k_0 < M/h meets only their orbits.
        rng = np.random.default_rng(60)
        for shape in ["affine", "homogeneous"] + ([2, 4] if d <= 3 else []):
            exponents, h = orbit_exponents(d, M, shape)
            for target in ([M - 1] * d, rng.integers(0, M, size=d)):
                if h > 1:
                    target[0] = rng.integers(M // h, M)
                poly = aligned_poly(M, target, exponents)
                grid_sup, _, _ = torus_sup(poly, M)
                assert abs(grid_sup - len(exponents)) <= rounding_bound(poly)

    def test_certify_memory(self):
        # The per-term route peaked at 5.0 MiB on the fixture at M=256;
        # the separable one may add at most one block of complex values.
        _, peak = traced_peak(torus_sup, load_crabb_davie()[1], 256)
        assert peak <= 5 * 2**20 + 16 * _LATTICE_BLOCK


# The certify benchmark's d=3 exponents: differences of full rank with
# invariant factors 1, 1, 3, so their image at M = 256 is all 256^3 points.
BENCH_ALPHAS = [(1, 1, 1), (2, 0, 1), (0, 3, 0), (1, 2, 3)]


def bench_image(seed):
    """(sizes, terms) of ``_image`` at M = 256 for BENCH_ALPHAS with
    coefficients drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    sizes, terms, _ = _image({a: complex(*rng.standard_normal(2)) for a in BENCH_ALPHAS}, 256)
    assert sizes == (256, 256, 256)
    return sizes, terms


def chunk_calls(monkeypatch):
    """The list of (start, stop) of each ``_chunk_max`` call of
    ``_lattice_max``: its streamed rows."""
    calls = []
    chunk_max = dilations.dilation._chunk_max

    def counting(roots, shape, beta, q, start, stop):
        calls.append((start, stop))
        return chunk_max(roots, shape, beta, q, start, stop)

    monkeypatch.setattr(dilations.dilation, "_chunk_max", counting)
    return calls


@st.composite
def merged_cases(draw):
    """(sizes, terms, M, block): a reduced polynomial in the form
    ``_image`` gives, 1-3 axes whose sizes divide M, unequal ones
    included, and 1-5 terms whose exponent on an axis of size m is a
    multiple of M/m below M; and a lattice block small enough that an
    M <= 32 lattice spans many chunks."""
    M = draw(st.sampled_from([2, 3, 4, 6, 8, 16, 32]))
    divisors = [m for m in range(2, M + 1) if M % m == 0]
    sizes = tuple(draw(st.sampled_from(divisors)) for _ in range(draw(st.integers(1, 3))))
    exponent = st.tuples(*[st.integers(0, m - 1).map(lambda x, m=m: x * (M // m)) for m in sizes])
    coeff = st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(exponent, coeff, min_size=1, max_size=5))
    return sizes, terms, M, 2 ** draw(st.integers(6, 8))


class TestLatticeScreen:
    """The lattice of one polynomial, streamed in chunks."""

    @given(merged_cases())
    # A tie: every exponent on axis 0 even on a full 32 x 32 lattice, so
    # chunks l_0 and l_0 + 16 hold equal exact values (``_image`` would
    # halve that axis), whose computed maxima differ by an ulp.
    @example(((32, 32), {(0, 1): -1 - 1j, (4, 1): -2 + 2j, (6, 2): -1}, 32, 2**8))
    # Unequal sizes, the leading one streamed in chunks.
    @example(((16, 4, 8), {(0, 0, 0): 1.5, (1, 4, 0): -1j, (2, 0, 2): 0.5 + 0.5j}, 16, 2**6))
    # Coefficients near 1e300, where |p|^2 overflows.
    @example(((32, 32), {(0, 1): 1e300, (2, 0): -3e300j, (1, 3): 2e300 + 1e300j}, 32, 2**8))
    # Subnormal coefficients, where |p|^2 underflows.
    @example(((32, 32), {(0, 1): 5e-324, (2, 0): -1.5e-323j, (1, 3): 1e-322 + 5e-324j}, 32, 2**8))
    @example(
        ((16, 16, 16), dict(zip(BENCH_ALPHAS, [1 - 0.5j, 0.3 + 1j, -0.8, 0.6 - 0.2j])), 16, 2**8)
    )
    # Arity 0: the lattice is one point, and the empty polynomial reads 0.0.
    @example(((), {(): -0.5 + 2j}, 16, 2**6))
    @example(((), {}, 16, 2**6))
    # Three terms in one group, whose sum at l = 0 is 1 in term order and
    # 1 + 2u in reverse order.
    @example(((16, 16), {(0, 0): 1.0, (0, 1): 1e-16, (0, 2): 1e-16}, 16, 2**12))
    # Two trailing axes in the block, whose factors multiply in axis order.
    @example(((8, 8, 8), {(1, 1, 1): 1 - 0.5j, (0, 1, 2): 0.3 + 1j}, 8, 2**12))
    # d = 1, and d = 3 in many chunks.
    @example(((2,), {(0,): 1.0, (8,): -0.5}, 16, 2**6))
    @example(((16, 16, 16), {(1, 1, 1): 1 - 0.5j, (2, 0, 1): 0.3 + 1j, (0, 3, 0): -0.8}, 16, 2**6))
    def test_matches_the_plain_stream(self, case):
        sizes, terms, M, block = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dilations.dilation, "_LATTICE_BLOCK", block)
            got = _lattice_max(sizes, terms, M)
        assert got == reference_lattice_max(sizes, terms, M, block)

    @pytest.mark.parametrize(
        "sizes, terms, M, block",
        [
            # 32 leading rows in 4 chunks of 8.
            ((32, 32), {(0, 0): 1 - 1j, (0, 5): 0.5j, (3, 7): -0.75}, 32, 2**8),
            # |1 + w^(l_0 + 1) + w^(3 l_1) / 2| is 2.5 at l = (31, 0) alone,
            # a point of the last chunk.
            ((32, 32), {(0, 0): 1.0, (1, 0): np.exp(2j * np.pi / 32), (0, 3): 0.5}, 32, 2**8),
            # The image of the certify benchmark's exponents at M = 256, seed
            # 1: 256^3 points, 256 chunks of 256 rows.
            (*bench_image(1), 256, _LATTICE_BLOCK),
        ],
        ids=["block-2^8", "last-chunk", "bench-256^3"],
    )
    def test_every_chunk_is_evaluated_once(self, monkeypatch, sizes, terms, M, block):
        monkeypatch.setattr(dilations.dilation, "_LATTICE_BLOCK", block)
        calls = chunk_calls(monkeypatch)
        grid_sup = _lattice_max(sizes, terms, M)
        streamed = math.prod(sizes[:-1])  # the block is the last axis in each case
        assert len(calls) > 1
        assert [start for start, _ in calls] == [0] + [stop for _, stop in calls[:-1]]
        assert all(start < stop for start, stop in calls) and calls[-1][1] == streamed
        assert grid_sup == reference_lattice_max(sizes, terms, M, block)

    def test_rank_deficient_lattice_is_its_image(self, monkeypatch):
        # Differences (1, 1, 0) and (2, 0, 1) have rank 2 and invariant
        # factors 1 and 1: the 128^3 lattice takes its values on 128^2
        # image points, which one product evaluates.
        poly = MultiPolynomial(d=3, terms={(0, 0, 0): 1.0, (1, 1, 0): 0.5j, (2, 0, 1): -0.75})
        assert _image(poly.terms, 128)[0] == (128, 128)
        calls = chunk_calls(monkeypatch)
        grid_sup = torus_sup(poly, 128)[0]
        assert calls == [(0, 128)]
        assert abs(grid_sup - reference_torus_sup(poly, 128)[0]) <= 2 * rounding_bound(poly)


class TestVnCheck:
    def test_holds_for_single_contraction(self):
        # d=1 always satisfies the inequality.
        rng = np.random.default_rng(52)
        tup = ContractionTuple((random_contraction(rng, 3),), tol=1e-9)
        p = MultiPolynomial(d=1, terms={(0,): 1.0, (1,): 2.0, (3,): -1j})
        report = vn_check(tup, p, 128)
        assert report.verdict == "HOLDS"
        assert report.lhs <= report.sup_upper

    def test_inconclusive_band(self):
        # Coarse lattice misses the maximiser z = -i; the pad keeps the
        # verdict sound instead of declaring a false violation.  The rows
        # (1) and (2) are dependent, so the lattice decides.
        tup = ContractionTuple((np.array([[-1j]]),))
        p = MultiPolynomial(d=1, terms={(0,): 1.0, (1,): 1j, (2,): -0.1})
        report = vn_check(tup, p, 2)
        assert report.lhs == pytest.approx(2.1)
        assert report.grid_sup == pytest.approx(abs(0.9 + 1j))
        assert report.sup_upper == pytest.approx(abs(0.9 + 1j) + np.pi / 2 * 1.2)
        assert not report.exact_sup
        assert report.verdict == "INCONCLUSIVE"
        assert vn_check(tup, p, 64).verdict == "HOLDS"

    def test_independent_rows_take_the_exact_sup(self):
        # 1 + iz has one row, (1): sup |p| = 2 at z = -i, off the M = 2
        # lattice, whose maximum is sqrt(2).  The bound is exact at any M.
        tup = ContractionTuple((np.array([[-1j]]),))
        p = MultiPolynomial(d=1, terms={(0,): 1.0, (1,): 1j})
        for M in (2, 64):
            report = vn_check(tup, p, M)
            assert report.grid_sup == report.sup_upper == 2.0
            assert report.lipschitz_pad == np.pi / M
            assert report.exact_sup
            assert report.verdict == "HOLDS"

    def test_constant_polynomial_is_not_a_violation(self):
        # lhs and grid_sup are the same number computed two ways; a
        # one-ulp difference must not flip the verdict.
        tup = ContractionTuple((identity(4),))
        p = MultiPolynomial(d=1, terms={(0,): -0.7927587958771675 + 2.0026177371338365j})
        report = vn_check(tup, p, 64)
        assert report.verdict == "HOLDS"

    def test_violated_for_fixture(self):
        report = vn_check(*load_crabb_davie(), 256)
        assert report.verdict == "VIOLATED"
        assert report.lhs == pytest.approx(4.0, abs=1e-12)
        assert report.lhs - report.sup_upper > 1e-3


class TestVnSearch:
    def test_deterministic_for_fixed_seed(self):
        a = vn_search(d=2, dim=3, trials=5, seed=123, M=16)
        b = vn_search(d=2, dim=3, trials=5, seed=123, M=16)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_no_violations_small_run(self):
        out = vn_search(d=1, dim=3, trials=10, seed=7, M=32)
        assert out["violations"] == []
        assert out["cases"] == 10

    def test_fixture_case_flagged(self):
        out = vn_search(
            d=3,
            dim=8,
            trials=0,
            seed=0,
            M=256,
            extra_cases=[load_crabb_davie()],
        )
        assert len(out["violations"]) == 1
        assert out["violations"][0]["kind"] == "fixture"

    def test_verdicts_match_reference_route(self, monkeypatch):
        # Criterion 9's configuration on 200 trials.  The reference search
        # checks each case with vn_check, whose torus_sup is replaced here
        # by the per-term lattice loop; it is reached by the trials whose
        # rows alpha - alpha_0 are dependent, and only by them.
        configs = [dict(d=d, dim=4, trials=200, seed=20_260_000 + d, M=64) for d in (1, 2)]
        decided = decided_cases(monkeypatch)
        library = []
        for args in configs:
            decided.clear()
            out = vn_search(**args)
            library.append([(report.verdict, report.lhs) for _, report in decided])
            assert len(decided) == out["cases"] == 200
        calls = []

        def per_case(poly, M, image):
            calls.append(poly)
            return reference_torus_sup(poly, M)

        def dependent(poly):
            rows = np.array(list(poly.terms)) - np.array(next(iter(poly.terms)))
            return np.linalg.matrix_rank(rows) < len(rows) - 1

        monkeypatch.setattr(dilations.dilation, "torus_sup", per_case)
        reference = []
        for args in configs:
            calls.clear()
            decided.clear()
            reference_vn_search(**args)
            reference.append([(report.verdict, report.lhs) for _, report in decided])
            exact = [report.exact_sup for _, report in decided]
            assert 0 < len(calls) == exact.count(False)
            assert all(dependent(poly) for poly in calls)
        assert library == reference

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1001, 10**20])
    def test_trial_generators_are_default_rngs(self, monkeypatch, seed):
        # Each trial's generator, built from PCG64 directly, starts in the
        # state default_rng(seed + i) starts in.
        states, generator = [], np.random.Generator

        def spy(bit_generator):
            states.append(bit_generator.state)
            return generator(bit_generator)

        monkeypatch.setattr(np.random, "Generator", spy)
        vn_search(d=1, dim=2, trials=3, seed=seed, M=8)
        monkeypatch.undo()
        assert states == [np.random.default_rng(seed + i).bit_generator.state for i in range(3)]

    def test_commutation_check_takes_no_svd(self, monkeypatch):
        # The drawn tuples commute up to rounding: the Frobenius bound of
        # every commutator is far below tol, so none is SVD'd.
        shapes, inside = svd_shapes(monkeypatch), []
        check = dilations.interpolation._require_commuting

        def tracked(*args):
            before = len(shapes)
            check(*args)
            inside.append(len(shapes) - before)

        monkeypatch.setattr(dilations.interpolation, "_require_commuting", tracked)
        vn_search(d=3, dim=4, trials=100, seed=35, M=8)
        assert inside == [0]

    @pytest.mark.parametrize("trials", [0, 1, 37])
    @pytest.mark.parametrize("d, dim", [(1, 1), (1, 4), (2, 4), (3, 2)])
    def test_matches_reference_route(self, d, dim, trials):
        args = dict(d=d, dim=dim, trials=trials, seed=1000 * d + dim, M=16)
        assert json.dumps(vn_search(**args)) == json.dumps(reference_vn_search(**args))

    def test_matches_reference_route_with_fixture(self):
        args = dict(d=3, dim=2, trials=1, seed=5, M=256, extra_cases=[load_crabb_davie()])
        out = vn_search(**args)
        assert [v["kind"] for v in out["violations"]] == ["fixture"]
        assert json.dumps(out) == json.dumps(reference_vn_search(**args))

    def test_extra_case_of_another_arity_matches_reference_route(self, monkeypatch):
        # The fixture has arity 3 in a d = 2 search, and joins the last
        # chunk's lattice call.  At M = 32 its lattice streams 32 rows of 4
        # groups in one chunk, as do those of trials 2 and 18, but over
        # two leading axes instead of one: a stack keyed without the
        # arity would mix them.
        fixture = load_crabb_davie()
        args = dict(d=2, dim=4, trials=20, seed=70, M=32, extra_cases=[fixture])
        decided = decided_cases(monkeypatch)
        out = vn_search(**args)
        assert [poly.d for poly, _ in decided] == [3] + [2] * 20
        assert decided[0][0] is fixture[1]
        assert json.dumps(out) == json.dumps(reference_vn_search(**args))

    def test_extra_case_is_capped_on_its_image(self, monkeypatch):
        # At 128 * 1024 points the fixture's M^3 = 2^18 lattice at M = 64
        # is past the point cap, its 64^2 image is not, so ``vn_check``
        # decides the case and the search must too.
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "1024")
        args = dict(d=1, dim=2, trials=0, seed=1, M=64, extra_cases=[load_crabb_davie()])
        decided = decided_cases(monkeypatch)
        out = vn_search(**args)
        assert [report.verdict for _, report in decided] == ["INCONCLUSIVE"]
        assert out["verdicts"]["INCONCLUSIVE"] == {"exact": 0, "lattice": 1}
        assert json.dumps(out) == json.dumps(reference_vn_search(**args))

    def test_extra_case_is_refused_before_drawing_a_trial(self, monkeypatch):
        # The fixture's 512^2 image is past a point cap of 128 * 1024; the
        # search refuses it before the first of 20000 trials is drawn.
        def draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(dilations.dilation, "_commuting_stack", draw)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "1024")
        args = dict(d=1, dim=2, trials=20000, seed=1, M=512, extra_cases=[load_crabb_davie()])
        with pytest.raises(InputError, match=r"lattice of prod M/g_i = 262144 points"):
            vn_search(**args)

    def test_every_lattice_is_one_torus_sup_call(self, monkeypatch):
        # Each case without the exact supremum, the fixture included, makes
        # one torus_sup call, and each lattice is evaluated inside one.
        inside, calls, lattices = [], [], []
        sup, lattice_max = dilations.dilation.torus_sup, dilations.dilation._lattice_max

        def traced_sup(poly, M, *, image=None):
            calls.append(poly)
            inside.append(True)
            try:
                return sup(poly, M, image=image)
            finally:
                inside.pop()

        def traced_lattice(*args):
            lattices.append(bool(inside))
            return lattice_max(*args)

        monkeypatch.setattr(dilations.dilation, "torus_sup", traced_sup)
        monkeypatch.setattr(dilations.dilation, "_lattice_max", traced_lattice)
        fixture = load_crabb_davie()
        decided = decided_cases(monkeypatch)
        out = vn_search(d=2, dim=4, trials=200, seed=1, M=32, extra_cases=[fixture])
        lattice_cases = [poly for poly, report in decided if not report.exact_sup]
        assert 1 < len(calls) == len(lattices)
        assert len(calls) == sum(split["lattice"] for split in out["verdicts"].values())
        assert all(lattices)
        # The extra case is decided first.
        assert calls == lattice_cases
        assert calls[0] == fixture[1] and all(poly.d == 2 for poly in calls[1:])

    def test_search_memory(self):
        # The per-case route (one torus_sup per case) peaked at 2 373 424
        # bytes on a second run of this search, after one untraced run;
        # batching the lattices may add one block of complex values at most.
        def search():
            return vn_search(d=2, dim=4, trials=500, seed=1, M=64)

        search()
        _, peak = traced_peak(search)
        assert peak <= 2_373_424 + 16 * _LATTICE_BLOCK

    @pytest.mark.parametrize("d, dim", [(1, 1), (2, 4), (3, 2)])
    def test_violating_trials_match_reference_route(self, d, dim):
        # A negative tol makes every case VIOLATED, so each random trial's
        # tuple is written out and compared too.
        args = dict(d=d, dim=dim, trials=37, seed=77, M=16, tol=-100.0)
        out = vn_search(**args)
        assert len(out["violations"]) == 37
        assert json.dumps(out) == json.dumps(reference_vn_search(**args))

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 20_260_002])
    @pytest.mark.parametrize("d, dim", [(1, 1), (2, 4), (3, 3)])
    def test_generator_matches_reference(self, seed, d, dim):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _random_commuting_tuple(rng, d, dim).mats
        want = reference_commuting_tuple(ref_rng, d, dim).mats
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        # Both leave their generator at the same point of its stream.
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 20_260_002])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_polynomial_generator_matches_reference(self, seed, d):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _random_polynomial(rng, d)
        want = reference_random_polynomial(ref_rng, d)
        assert list(got.terms.items()) == list(want.terms.items())
        # Both leave their generator at the same point of its stream.
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_chunks_give_the_unchunked_result(self, monkeypatch):
        # tol=-1 makes cases VIOLATED, so violating tuples are drawn again too.
        args = dict(d=2, dim=4, trials=37, seed=11, M=16, tol=-1.0)
        whole = json.dumps(vn_search(**args))
        assert json.loads(whole)["violations"]
        # Each trial's chunk share is 4 (d + 2) dim^2 + 64 = 320 entries:
        # chunks of 4.
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "1280")
        assert len(list(_batches(37, 4 * (2 + 2) * 4 * 4 + 64))) == 10
        assert json.dumps(vn_search(**args)) == whole

    def test_search_memory_per_trial(self, monkeypatch):
        # At d = dim = 1 and a cap of 2^16 entries a chunk is 862 trials.
        # A chunk holds its trials' normals, stacks and polynomials (about
        # 480 B each), within the cap, and no generator (939 B each).  One
        # chunk of all 6000 trials' polynomials, or of their generators,
        # would go past the first bound.  No report outlives its case, so
        # the peak does not grow with the trials once a chunk is full: a
        # report per case (about 570 B) would add 2.5 MiB from 1500 to 6000.
        # CPython's free lists keep freed tuples, which tracemalloc counts
        # as held, and a full collection empties them: the collector is off
        # while measuring, after a warm-up call fills them, so both peaks
        # start from the same lists.
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", str(2**16))

        def peak(trials):
            out, peak = traced_peak(lambda: vn_search(d=1, dim=1, trials=trials, seed=1, M=2))
            assert out["cases"] == trials
            return peak

        gc.disable()
        try:
            vn_search(d=1, dim=1, trials=1500, seed=1, M=2)
            few, many = peak(1500), peak(6000)
        finally:
            gc.enable()
        assert many <= 700 * 6000 + 2 * 16 * 2**16
        assert many <= few + 64 * 1024

    def test_huge_trial_count_draws_its_first_chunk(self, monkeypatch):
        # 10^20 trials are about 7e15 chunks at the default cap; each is made
        # when it is reached, so the first chunk is drawn at once.
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn

        monkeypatch.setattr(dilations.dilation, "_commuting_stack", draw)
        with pytest.raises(Drawn):
            vn_search(d=1, dim=1, trials=10**20, seed=0, M=4)

    def test_rejects_bad_args(self):
        with pytest.raises(InputError):
            vn_search(d=0, dim=2, trials=1, seed=0, M=16)
        with pytest.raises(InputError):
            vn_search(d=1, dim=2, trials=-1, seed=0, M=16)
        with pytest.raises(InputError, match="dim must be >= 1"):
            vn_search(d=1, dim=0, trials=0, seed=0, M=16)
        with pytest.raises(InputError, match="lattice size M must be >= 2"):
            vn_search(d=1, dim=2, trials=0, seed=0, M=1)

    @pytest.mark.parametrize(
        "d, M, entries, message",
        [
            (6, 4, None, r"d = 6 exceeds DEGREE_CAP // 3 = 5: .* the cap 16"),
            (2, 100_000, None, r"lattice of M\^d = 10000000000 points exceeds the size cap"),
            (1, 101, "100", "lattice size M = 101 exceeds the size cap of 100"),
        ],
        ids=["degree", "points", "roots"],
    )
    def test_refuses_before_drawing_a_trial(self, monkeypatch, d, M, entries, message):
        # A random polynomial's exponents go up to 3 per axis, so at d = 6
        # a refusal used to depend on whether some trial drew a degree past
        # the cap; the lattice caps were met only after a chunk was drawn.
        def draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(dilations.dilation, "_commuting_stack", draw)
        if entries is not None:
            monkeypatch.setenv("DILATIONS_MAX_ENTRIES", entries)
        with pytest.raises(InputError, match=message):
            vn_search(d=d, dim=2, trials=500, seed=1, M=M)

    def test_largest_arity_stays_within_the_degree_cap(self):
        assert vn_search(d=DEGREE_CAP // 3, dim=1, trials=300, seed=1, M=2)["cases"] == 300


class TestParrott:
    def test_names_the_factor_that_is_not_unitary(self):
        u = random_unitary(np.random.default_rng(52), 2)
        with pytest.raises(InputError, match=r"^R1 is not unitary \(deviation 7\.500e-01\)$"):
            parrott_tuple(np.diag([1.0, 0.5]), u)
        with pytest.raises(InputError, match=r"^R2 is not unitary"):
            parrott_tuple(u, np.diag([1.0, 0.5]))

    def test_pairwise_products_exactly_zero(self):
        rng = np.random.default_rng(53)
        tup = parrott_tuple(random_unitary(rng, 3), random_unitary(rng, 3))
        for a in tup.mats:
            for b in tup.mats:
                assert np.abs(a @ b).max() == 0.0

    def test_members_are_contractions(self):
        rng = np.random.default_rng(54)
        tup = parrott_tuple(random_unitary(rng, 2), random_unitary(rng, 2))
        for m in tup.mats:
            assert op_norm(m) <= 1 + 1e-12

    def test_warns_when_factors_commute(self):
        with pytest.warns(UserWarning):
            parrott_tuple(identity(2), identity(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(InputError):
            parrott_tuple(0.5 * identity(2), identity(2))
        with pytest.raises(InputError):
            parrott_tuple(identity(2), 0.5 * identity(2))

    def test_contraction_opt_in(self):
        rng = np.random.default_rng(55)
        with warnings.catch_warnings():
            # scalar R2 commutes with R1, which is fine for this check
            warnings.simplefilter("ignore")
            tup = parrott_tuple(
                random_unitary(rng, 2),
                0.5 * identity(2),
                allow_contraction_r2=True,
            )
        assert tup.d == 3


class TestDilation:
    def test_egervary_verifies(self):
        rng = np.random.default_rng(56)
        s = random_contraction(rng, 3)
        cand = egervary_dilation(s, 4)
        check = power_dilation_verify(ContractionTuple((s,)), cand, tol=1e-10)
        assert check["passed"]
        assert check["max_deviation"] <= 1e-10

    def test_unitary_input_dilates_trivially(self):
        rng = np.random.default_rng(57)
        u = random_unitary(rng, 2)
        cand = egervary_dilation(u, 3)
        check = power_dilation_verify(ContractionTuple((u,)), cand)
        assert check["passed"]

    def test_rejects_expansion(self):
        with pytest.raises(InputError):
            egervary_dilation(2 * identity(2), 3)

    def test_rejects_bad_m(self):
        with pytest.raises(InputError):
            egervary_dilation(identity(2), 0)

    def test_candidate_validation(self):
        with pytest.raises(InputError):
            DilationCandidate(vs=(0.5 * identity(2),), r=identity(2), n_max=1)
        with pytest.raises(InputError):
            DilationCandidate(
                vs=(identity(4),), r=np.ones((4, 2), dtype=complex), n_max=1
            )
        e1 = identity(2)[:, :1]
        for vs, r, n_max, message in [
            ((identity(2),), e1, 0, r"^n_max must be >= 1, got 0$"),
            ((), e1, 1, "^a dilation candidate needs at least one unitary$"),
            ((identity(2), identity(3)), e1, 1, r"^unitary 2 has shape \(3, 3\)$"),
            ((identity(2),), identity(3)[:, :1], 1,
             "^embedding maps into dimension 3, unitaries act on 2$"),
        ]:
            with pytest.raises(InputError, match=message):
                DilationCandidate(vs=vs, r=r, n_max=n_max)
        cand = DilationCandidate(vs=(identity(2), identity(2)), r=e1, n_max=1)
        with pytest.raises(InputError, match="^candidate has 2 unitaries, tuple has d=1$"):
            power_dilation_verify(ContractionTuple((identity(1),)), cand)
        with pytest.raises(InputError, match="^embedding domain has dimension 1, tuple dim is 2$"):
            power_dilation_verify(ContractionTuple((identity(2), identity(2))), cand)

    def test_overflowing_unitary_check_refuses(self):
        # V* V overflows to a NaN deviation, which must not pass as <= tol;
        # the check warns of nothing, whatever the warning filter.
        vs, r = (np.diag([1e200, 1.0]),), identity(2)[:, 1:]
        with pytest.raises(InputError, match=r"^V_1 is not unitary \(deviation nan\)$"):
            DilationCandidate(vs=vs, r=r, n_max=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InputError, match="^V_1 is not unitary"):
                DilationCandidate(vs=vs, r=r, n_max=3)

    def test_verify_flags_wrong_candidate(self):
        # A dilation of S misreports powers of a different contraction.
        rng = np.random.default_rng(58)
        s = random_contraction(rng, 2)
        other = random_contraction(rng, 2)
        cand = egervary_dilation(s, 3)
        check = power_dilation_verify(ContractionTuple((other,)), cand, tol=1e-8)
        assert not check["passed"]
        assert check["worst_index"] is not None

    def test_matches_reference_route_at_d1(self):
        # Egervary dilations of 1x1 to 4x4 contractions at m up to 40, and
        # the same candidates checked against another contraction, so that
        # most deviations and worst indices are not 0 and None.
        rng = np.random.default_rng(59)
        for case in range(24):
            dim, m = 1 + case % 4, int(rng.integers(1, 41))
            s, other = random_contraction(rng, dim), random_contraction(rng, dim)
            cand = egervary_dilation(s, m)
            for tup in ContractionTuple((s,)), ContractionTuple((other,)):
                got = power_dilation_verify(tup, cand, tol=1e-8)
                assert got == reference_power_dilation_verify(tup, cand, tol=1e-8)

    def test_matches_reference_route_at_d2(self):
        # Commuting unitaries on C^6 and an isometry from C^2, checked
        # against commuting contractions on C^2: both routes take products
        # of at most 2 n_max + 2 factors of norm at most 1, associated
        # differently, so their deviations differ by rounding alone.
        rng = np.random.default_rng(60)
        for n_max in (1, 3, 6):
            vs = random_commuting_unitaries(rng, 2, 6).mats
            cand = DilationCandidate(vs=vs, r=random_unitary(rng, 6)[:, :2], n_max=n_max)
            tup = _random_commuting_tuple(rng, 2, 2)
            got = power_dilation_verify(tup, cand)
            want = reference_power_dilation_verify(tup, cand)
            assert abs(got["max_deviation"] - want["max_deviation"]) <= 64 * (n_max + 1) * 6 * U
            assert got["worst_index"] == want["worst_index"]

    def test_unitaries_dilate_themselves_exactly(self):
        # With r = I both sides form the same products from the identity.
        vs = random_commuting_unitaries(np.random.default_rng(61), 2, 3).mats
        cand = DilationCandidate(vs=vs, r=identity(3), n_max=5)
        check = power_dilation_verify(ContractionTuple(vs), cand)
        assert check["max_deviation"] == 0.0 and check["worst_index"] is None

    def test_verify_memory(self):
        # m = 80 on C^4: every power of the 324 x 324 unitary would be
        # 81 * 324^2 complex values, 136 MB; the walk holds the 81 x 4 rows
        # of r* V^n, 1.7 MB, and may hold them twice.
        s = random_contraction(np.random.default_rng(62), 4)
        cand = egervary_dilation(s, 80)
        check, peak = traced_peak(power_dilation_verify, ContractionTuple((s,)), cand)
        assert check["passed"]
        assert peak <= 2 * 16 * 81 * 4 * 324

    def test_verify_is_capped_before_any_product(self, monkeypatch):
        # 21^2 indices of 2 x 8 rows of r* V^n: 7056 entries past a cap of 1024.
        rng = np.random.default_rng(63)
        vs = random_commuting_unitaries(rng, 2, 8).mats
        cand = DilationCandidate(vs=vs, r=random_unitary(rng, 8)[:, :2], n_max=20)
        tup = _random_commuting_tuple(rng, 2, 2)
        monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "1024")
        monkeypatch.setattr(dilations.dilation, "_walk", None)
        with pytest.raises(InputError, match="matrix of shape 882x8 exceeds the size cap"):
            power_dilation_verify(tup, cand)



class TestCrabbDavieFixture:
    def test_exact_commutation(self):
        tup, _ = load_crabb_davie()
        for a in tup.mats:
            for b in tup.mats:
                assert np.abs(a @ b - b @ a).max() == 0.0

    def test_oracle_is_independent_of_the_library(self):
        # Criterion 9 cross-checks torus_sup against the oracle's own
        # per-term loop; importing the library would make that circular.
        path = Path(__file__).resolve().parents[1] / "scripts" / "crabb_davie_oracle.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert imported and not any(
            name == "dilations" or name.startswith("dilations.") for name in imported
        )

    def test_lhs_is_four(self):
        lhs = op_norm(eval_poly(*load_crabb_davie()))
        assert lhs == pytest.approx(4.0, abs=1e-12)
