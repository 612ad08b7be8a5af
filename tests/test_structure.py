import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    random_circulant_bistochastic,
    random_commuting_tuple,
    random_commuting_unitaries,
)
from dilations.interpolation import DiscretizedSemigroup, _grid_form, eval_discretized
from dilations.linalg import InputError, _isometry_gaps, _power_products, identity
from dilations.structure import (
    _CLASSES,
    _FLAGS,
    _class_deviations,
    preservation_suite,
    structure_report,
)
from dilations.torus import GridTime
from test_linalg import svd_shapes
from unbatched_reference import (
    reference_held_deviations,
    reference_preservation_suite,
    reference_structure_deviations,
)


def shift_matrix(n):
    s = np.zeros((n, n), dtype=complex)
    for m in range(n):
        s[(m + 1) % n, m] = 1.0
    return s


class TestStructureReport:
    def test_identity_is_everything(self):
        report = structure_report(identity(3))
        assert all(report.flags.values())
        assert report.holds("bimarkov")

    def test_permutation(self):
        report = structure_report(shift_matrix(4))
        assert report.flags["is_unitary"]
        assert report.holds("bimarkov")
        assert not report.flags["is_projection"]

    def test_nilpotent(self):
        e21 = np.zeros((2, 2), dtype=complex)
        e21[1, 0] = 1.0
        report = structure_report(e21)
        assert report.flags["is_contraction"]
        assert not report.flags["is_isometry"]
        assert not report.flags["preserves_unity"]

    def test_projection_flags(self):
        report = structure_report(np.diag([1.0, 0.0]))
        assert report.flags["is_projection"]
        assert report.flags["is_contraction"]
        assert not report.flags["is_isometry"]

    def test_isometry_vs_unitary_square(self):
        # A square isometry is unitary; report flags agree.
        report = structure_report(shift_matrix(3))
        assert report.flags["is_isometry"] == report.flags["is_unitary"]

    def test_deviation_values(self):
        report = structure_report(1.5 * identity(2))
        assert report.deviations["is_contraction"] == pytest.approx(0.5)
        assert not report.flags["is_contraction"]

    def test_contraction_flag_is_the_norm_test(self):
        # ||A|| <= 1 + tol, as in ContractionTuple: the deviation (1 + 1e-10) - 1
        # rounds to just above 1e-10, so this flag is not "deviation <= tol".
        report = structure_report((1 + 1e-10) * identity(2), tol=1e-10)
        assert report.flags["is_contraction"]

    def test_flags_are_deviation_within_tol(self):
        rng = np.random.default_rng(66)
        for a in (identity(3), shift_matrix(4), 1.5 * identity(2),
                  rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))):
            report = structure_report(a)
            assert list(report.flags) == list(report.deviations)
            for name, dev in report.deviations.items():
                if name != "is_contraction":
                    assert report.flags[name] == (dev <= 1e-10), name

    def test_complex_entries_break_nonnegativity(self):
        report = structure_report(np.array([[1j, 0], [0, 1]]))
        assert not report.flags["is_entrywise_nonneg"]

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            structure_report(np.ones((2, 3)))

    def test_json_shape(self):
        payload = structure_report(identity(2)).to_json()
        assert set(payload) == {"flags", "deviations"}
        assert payload["flags"]["is_unitary"] is True


class TestBimarkov:
    def test_doubly_stochastic(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert structure_report(a).holds("bimarkov")

    def test_row_stochastic_only(self):
        a = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert not structure_report(a).holds("bimarkov")

    def test_negative_entry(self):
        a = np.array([[1.5, -0.5], [-0.5, 1.5]])
        assert not structure_report(a).holds("bimarkov")

    def test_random_circulant_family(self):
        rng = np.random.default_rng(60)
        tup = random_circulant_bistochastic(rng, 2, 4)
        for m in tup.mats:
            assert structure_report(m, tol=1e-12).holds("bimarkov")


class TestPreservationSuite:
    def test_unitary_base(self):
        rng = np.random.default_rng(61)
        tup = random_commuting_unitaries(rng, 2, 2)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert out["passed"]
        assert out["classes"]["unitary"]["base_holds"]
        assert out["classes"]["unitary"]["preserved"]
        assert out["classes"]["isometry"]["preserved"]

    def test_bimarkov_base(self):
        rng = np.random.default_rng(62)
        tup = random_circulant_bistochastic(rng, 1, 3)
        out = preservation_suite(tup, 3, tol=1e-9)
        assert out["passed"]
        assert out["classes"]["bimarkov"]["preserved"]
        assert out["classes"]["entrywise_nonneg"]["preserved"]

    def test_generic_base_skips_classes(self):
        rng = np.random.default_rng(63)
        tup = random_commuting_tuple(rng, 1, 2)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert out["passed"]
        assert out["classes"]["unitary"]["base_holds"] is False
        assert out["classes"]["unitary"]["preserved"] is None

    def test_makes_no_dense_evaluation(self, monkeypatch):
        import dilations.structure as structure
        from dilations import interpolation

        calls = []
        original = interpolation.eval_discretized

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(interpolation, "eval_discretized", counting)
        monkeypatch.setattr(structure, "eval_discretized", counting, raising=False)
        rng = np.random.default_rng(65)
        for tup in (random_commuting_unitaries(rng, 2, 2),
                    random_circulant_bistochastic(rng, 1, 2)):
            assert preservation_suite(tup, 2, tol=1e-9)["passed"]
        assert calls == []

    def test_measures_each_distinct_block_once(self, monkeypatch):
        # One _power_products call per run, on the distinct exponent rows of every
        # time, measured in one stack next to the one stack of the base.
        # The converse unit times are checked in integers and build no block.
        import dilations.structure as structure

        built, measured = [], []
        blocks, class_deviations = structure._power_products, structure._class_deviations

        def tracked_blocks(mats, exponents):
            built.append(exponents.copy())
            return blocks(mats, exponents)

        def tracked_measures(stack, *args):
            measured.append(len(stack))
            return class_deviations(stack, *args)

        monkeypatch.setattr(structure, "_power_products", tracked_blocks)
        monkeypatch.setattr(structure, "_class_deviations", tracked_measures)
        rng = np.random.default_rng(66)
        for tup in (random_commuting_unitaries(rng, 2, 2),
                    random_circulant_bistochastic(rng, 1, 2)):
            built.clear()
            measured.clear()
            assert preservation_suite(tup, 2, tol=1e-9)["passed"]
            semi = DiscretizedSemigroup(tup, 2)
            times = [GridTime(2, nums) for nums in itertools.product(range(4), repeat=tup.d)]
            rows = np.concatenate([_grid_form(semi, t)[1] for t in times])
            distinct = np.unique(rows, axis=0)
            assert len(built) == 1
            np.testing.assert_array_equal(built[0], distinct)
            assert len(distinct) < len(rows)
            assert measured == [tup.d, len(distinct)]

    def test_no_held_class_builds_no_block(self, monkeypatch):
        import dilations.structure as structure

        measured = []
        class_deviations = structure._class_deviations

        def tracked_measures(stack, *args):
            measured.append(len(stack))
            return class_deviations(stack, *args)

        monkeypatch.setattr(structure, "_power_products", None)
        monkeypatch.setattr(structure, "_class_deviations", tracked_measures)
        tup = random_commuting_tuple(np.random.default_rng(63), 2, 3)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert not any(entry["base_holds"] for entry in out["classes"].values())
        assert out["passed"]
        assert measured == [2]

    def test_bimarkov_runs_no_unitarity_svd_on_blocks(self, monkeypatch):
        # Circulant tuples hold bi-Markov but not isometry.  The base's
        # isometry flag fails on a column bound of its gaps S*S - 1, so no
        # SVD runs at all: none on the base, whose co-isometry check is
        # skipped, and none on the blocks, whose gaps are never formed.
        import dilations.structure as structure

        seen = []
        max_op_norm = structure._max_op_norm

        def tracked(stack, *limit):
            seen.append((stack.copy(), limit))
            return max_op_norm(stack, *limit)

        monkeypatch.setattr(structure, "_max_op_norm", tracked)
        shapes = svd_shapes(monkeypatch)
        rng = np.random.default_rng(68)
        for d, N, dim in ((1, 3, 4), (2, 2, 3), (1, 2, 128)):
            tup = random_circulant_bistochastic(rng, d, dim)
            seen.clear()
            shapes.clear()
            out = preservation_suite(tup, N, tol=1e-9)
            assert out["passed"]
            assert out["classes"]["bimarkov"]["base_holds"]
            assert not out["classes"]["isometry"]["base_holds"]
            assert shapes == []
            assert len(seen) == 1
            np.testing.assert_array_equal(seen[0][0], _isometry_gaps(np.stack(tup.mats)))
            assert seen[0][1] == (1e-9,)

    def test_block_measures_takes_only_the_asked_flags(self, monkeypatch):
        # _class_deviations measures the blocks for the flags asked for,
        # and only those (the unitary flag also keeps the isometry one),
        # each a float equal to its value when every flag is asked for.
        # No flag asked for forms no gap and takes no SVD.
        rng = np.random.default_rng(69)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        picks = np.array([[0, 1, 2], [2, 2, 0]])
        every = _class_deviations(stack, picks)
        assert set(every) == _FLAGS
        shapes = svd_shapes(monkeypatch)
        assert _class_deviations(stack, picks, ()) == {}
        assert shapes == []
        for cls, flags in _CLASSES.items():
            some = _class_deviations(stack, picks, set(flags))
            assert set(flags) <= set(some) <= set(flags) | {"is_isometry"}, cls
            for flag, value in some.items():
                assert type(value) is float and value == every[flag], (cls, flag)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_corrupted_unit_time_row_fails_its_converse(self, monkeypatch, axis):
        # A mutant grid form at the unit time e_i, one row off by one on
        # axis i: S_i^2 at one point, which a unitary base would still
        # classify as unitary.  The integer converse catches it on axis i only.
        import dilations.structure as structure

        grid_forms = structure._grid_forms

        def mutant(semi, nums):
            targets, exponents = grid_forms(semi, nums)
            unit = tuple(semi.N * (j == axis) for j in range(semi.base.d))
            for k, row in enumerate(nums):
                if tuple(row) == unit:
                    exponents[k, 0, axis] += 1
            return targets, exponents

        monkeypatch.setattr(structure, "_grid_forms", mutant)
        tup = random_commuting_unitaries(np.random.default_rng(70), 2, 2)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert [item["matches"] for item in out["converse_unit_times"]] == [
            i != axis for i in range(2)
        ]
        assert not out["passed"]

    def test_shuffled_unit_time_targets_fail_their_converse(self, monkeypatch):
        import dilations.structure as structure

        grid_forms = structure._grid_forms

        def mutant(semi, nums):
            targets, exponents = grid_forms(semi, nums)
            targets[-1] = np.roll(targets[-1], 1)
            return targets, exponents

        monkeypatch.setattr(structure, "_grid_forms", mutant)
        tup = random_commuting_unitaries(np.random.default_rng(71), 2, 2)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert [item["matches"] for item in out["converse_unit_times"]] == [True, False]

    def test_holds_blocks_not_dense_evaluations(self):
        # total_dim 512: one dense evaluation is 4 MiB, while the 256 grid
        # forms are 128 exponent rows each over 2 distinct 4x4 blocks.
        tup = random_circulant_bistochastic(np.random.default_rng(67), 1, 4)
        tracemalloc.start()
        try:
            out = preservation_suite(tup, 128, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["passed"]
        assert peak < 4 << 20, peak

    def test_converse_unit_times(self):
        rng = np.random.default_rng(64)
        tup = random_commuting_unitaries(rng, 2, 2)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert all(item["matches"] for item in out["converse_unit_times"])

    def test_report_holds_no_time_labels(self):
        # The times are {0, ..., 2N-1}^d / N, which N and d give.
        from dilations.interpolation import ContractionTuple

        out = preservation_suite(ContractionTuple((shift_matrix(3),)), 2, tol=1e-10)
        assert list(out) == ["N", "classes", "converse_unit_times", "passed"]
        assert out["passed"]
        tup = random_commuting_unitaries(np.random.default_rng(72), 3, 1)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert list(out) == ["N", "classes", "converse_unit_times", "passed"]
        assert out["passed"]

    @pytest.mark.parametrize("d, N", [(1, 1), (1, 4), (2, 2), (4, 1), (3, 3)])
    def test_one_fold_for_the_base_and_one_for_every_time(self, monkeypatch, d, N):
        # One _class_deviations call on the base, one axis per row, and one
        # on the distinct blocks for the (times, grid points) picks of all times.
        import dilations.structure as structure

        calls = []
        class_deviations = structure._class_deviations

        def tracked(blocks, picks, flags):
            calls.append(picks.shape)
            return class_deviations(blocks, picks, flags)

        monkeypatch.setattr(structure, "_class_deviations", tracked)
        tup = random_commuting_unitaries(np.random.default_rng(73), d, 2)
        assert preservation_suite(tup, N, tol=1e-9)["passed"]
        assert calls == [(d, 1), ((2 * N) ** d, N**d)]


FAMILIES = {
    "unitary": random_commuting_unitaries,
    "circulant": random_circulant_bistochastic,
    "generic": random_commuting_tuple,
}
# (d, N, dim): d 1-3, N 1-3, dim 1-4
SHAPES = [(1, 1, 1), (1, 3, 4), (2, 1, 3), (2, 2, 2), (2, 3, 1), (3, 1, 4), (3, 2, 3), (3, 3, 1)]


class TestBlockRouteMatchesDense:
    """The suite on distinct blocks against the dense loop of
    ``reference_preservation_suite``, within the bound its docstring states."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("d, N, dim", SHAPES)
    def test_suite(self, family, d, N, dim):
        tup = FAMILIES[family](np.random.default_rng(1000 * d + 100 * N + dim), d, dim)
        out = preservation_suite(tup, N, tol=1e-9)
        ref = reference_preservation_suite(tup, N, tol=1e-9)
        assert out["passed"] == ref["passed"]
        assert list(out) == list(ref)
        assert out["converse_unit_times"] == ref["converse_unit_times"]
        assert list(out["classes"]) == list(ref["classes"])
        for cls, entry in out["classes"].items():
            expected = ref["classes"][cls]
            assert entry["base_holds"] == expected["base_holds"], cls
            assert entry["preserved"] == expected["preserved"], cls
            assert abs(entry["max_deviation"] - expected["max_deviation"]) <= 1e-13, cls
        if family != "generic":
            assert out["passed"]

    @pytest.mark.parametrize("d, N, dim", SHAPES)
    def test_class_deviations_per_time(self, d, N, dim):
        # Generic tuples: the unity deviations are O(1), so the weight of each
        # pattern's multiplicity shows in them.
        # Each time is folded on its own, then all times in one (T, N^d)
        # call, which gives each flag's largest deviation over the times.
        tup = random_commuting_tuple(np.random.default_rng(2000 + 100 * d + 10 * N + dim), d, dim)
        semi = DiscretizedSemigroup(tup, N)
        times = list(itertools.product(range(2 * N + 1), repeat=d))
        dense = [structure_report(eval_discretized(semi, GridTime(N, nums))).deviations
                 for nums in times]

        def close(got, expected, where):
            assert set(got) == _FLAGS, where
            for flag, value in got.items():
                assert type(value) is float, (where, flag)
                assert abs(value - expected[flag]) <= 1e-13 * max(1.0, expected[flag]), (
                    where, flag)

        for nums, expected in zip(times, dense):
            _, exponents = _grid_form(semi, GridTime(N, nums))
            rows, picks = np.unique(exponents, axis=0, return_inverse=True)
            blocks = _power_products(tup.mats, rows)
            close(_class_deviations(blocks, picks.reshape(1, -1)), expected, nums)
        exponents = np.stack([_grid_form(semi, GridTime(N, nums))[1] for nums in times])
        rows, picks = np.unique(exponents.reshape(-1, d), axis=0, return_inverse=True)
        folded = _class_deviations(
            _power_products(tup.mats, rows), picks.reshape(len(times), N**d)
        )
        close(folded, {flag: max(devs[flag] for devs in dense) for flag in _FLAGS}, "all")


def same_bits(got, expected):
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestDeviationsMatchPerBlockReference:
    """``_max_deviation`` of a stack of gaps takes the SVD only of the
    members that can hold the maximum, which is the same per-member LAPACK
    value, so the reports equal the block-by-block references bit for bit."""

    @pytest.mark.parametrize("d, N, dim", SHAPES)
    def test_held_isometry_and_unitary(self, d, N, dim):
        tup = random_commuting_unitaries(np.random.default_rng(3000 + 100 * d + 10 * N + dim),
                                         d, dim)
        out = preservation_suite(tup, N, tol=1e-9)
        ref = reference_held_deviations(tup, N)
        for cls in ("isometry", "unitary"):
            entry = out["classes"][cls]
            assert entry["base_holds"] and entry["preserved"], cls
            assert same_bits(entry["max_deviation"], ref[cls]), (cls, entry, ref[cls])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["generic", "unitary", "projection", "bistochastic",
                                      "scaled", "zero"])
    def test_structure_report(self, kind, seed):
        rng = np.random.default_rng(4000 + seed)
        dim = 1 + seed % 5
        generic = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q = np.linalg.qr(generic)[0]
        a = {
            "generic": generic,
            "unitary": q,
            "projection": q[:, : dim // 2 + 1] @ q[:, : dim // 2 + 1].conj().T,
            "bistochastic": random_circulant_bistochastic(rng, 1, dim).mats[0],
            "scaled": 1e150 * generic,
            "zero": np.zeros((dim, dim), dtype=complex),
        }[kind]
        got = structure_report(a, tol=1e-9).deviations
        expected = reference_structure_deviations(a)
        assert list(got) == list(expected)
        for flag, value in got.items():
            assert same_bits(value, expected[flag]), (flag, value, expected[flag])
