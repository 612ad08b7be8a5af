import weakref

import numpy as np
import pytest

from conftest import (
    random_circulant_bistochastic,
    random_commuting_unitaries,
)
from dilations.dilation import _random_commuting_tuple
from dilations.linalg import InputError, identity
from dilations.structure import preservation_suite, structure_report


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
        tup = _random_commuting_tuple(rng, 1, 2)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert out["passed"]
        assert out["classes"]["unitary"]["base_holds"] is False
        assert out["classes"]["unitary"]["preserved"] is None

    def test_bad_time_raises_when_no_class_holds(self):
        from dilations.torus import GridTime

        rng = np.random.default_rng(63)
        tup = _random_commuting_tuple(rng, 1, 2)
        with pytest.raises(InputError):
            preservation_suite(tup, 2, times=[GridTime(3, (1,))], tol=1e-9)

    def test_one_report_per_evaluation(self, monkeypatch):
        # base reports + one per evaluation (shared by every held class)
        # + the converse unit times
        import dilations.structure as structure

        calls = []
        original = structure.structure_report

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(structure, "structure_report", counting)
        rng = np.random.default_rng(65)
        cases = [
            (random_commuting_unitaries(rng, 2, 2), 2 + 16 + 2),
            (random_circulant_bistochastic(rng, 1, 2), 1 + 4 + 1),
        ]
        for tup, expected in cases:
            calls.clear()
            assert preservation_suite(tup, 2, tol=1e-9)["passed"]
            assert len(calls) == expected

    def test_holds_one_evaluation_at_a_time(self, monkeypatch):
        import dilations.structure as structure

        live = []
        most_alive = 0
        evaluate = structure.eval_discretized

        def tracked(semi, t):
            nonlocal most_alive
            value = evaluate(semi, t)
            live.append(weakref.ref(value))
            most_alive = max(most_alive, sum(r() is not None for r in live))
            return value

        monkeypatch.setattr(structure, "eval_discretized", tracked)
        tup = random_commuting_unitaries(np.random.default_rng(66), 2, 2)
        assert preservation_suite(tup, 2, tol=1e-9)["passed"]
        assert len(live) == 16 + 2  # every time, then the converse unit times
        assert most_alive == 1

    def test_converse_unit_times(self):
        rng = np.random.default_rng(64)
        tup = random_commuting_unitaries(rng, 2, 2)
        out = preservation_suite(tup, 2, tol=1e-9)
        assert all(item["matches"] for item in out["converse_unit_times"])

    def test_explicit_times(self):
        from dilations.interpolation import ContractionTuple
        from dilations.torus import GridTime

        tup = ContractionTuple((shift_matrix(3),))
        out = preservation_suite(
            tup, 2, times=[GridTime(2, (1,)), GridTime(2, (3,))], tol=1e-10
        )
        assert out["times"] == ["1/2", "3/2"]
        assert out["passed"]
