import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_commuting_tuple, random_unitary
from dilations import cli
from dilations.cli import main
from dilations.linalg import (
    DEFAULT_TOL,
    InputError,
    NumericalError,
    _listed,
    _matrix_payload,
    matrix_to_json,
    psd_sqrt,
)
from dilations.torus import bscr_trace, trace_to_csv_rows
from test_linalg import svd_shapes


@pytest.fixture
def runner():
    return CliRunner()


def shift_matrix(n):
    s = np.zeros((n, n), dtype=complex)
    for m in range(n):
        s[(m + 1) % n, m] = 1.0
    return s


def write_tuple(path, mats):
    payload = {
        "d": len(mats),
        "dim": mats[0].shape[0],
        "matrices": [matrix_to_json(m) for m in mats],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def write_matrix(path, mat):
    path.write_text(json.dumps(matrix_to_json(mat)))
    return str(path)


class TestInterp:
    def test_eval(self, runner, tmp_path):
        tup = write_tuple(tmp_path / "tup.json", [shift_matrix(2)])
        result = runner.invoke(
            main, ["interp", "eval", "--tuple", tup, "--N", "2", "--t", "1/2"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["result"]["rows"] == 4
        assert payload["config"]["t"] == "1/2"

    def test_eval_off_grid_time(self, runner, tmp_path):
        tup = write_tuple(tmp_path / "tup.json", [shift_matrix(2)])
        result = runner.invoke(
            main, ["interp", "eval", "--tuple", tup, "--N", "2", "--t", "1/3"]
        )
        assert result.exit_code == 2

    def test_check_passes(self, runner, tmp_path):
        rng = np.random.default_rng(70)
        mats = random_commuting_tuple(rng, 2, 2).mats
        tup = write_tuple(tmp_path / "tup.json", mats)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["interp", "check", "--tuple", tup, "--N", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert set(payload["checks"]) == {
            "homomorphism",
            "contractivity",
            "interpolation",
            "commutation",
            "compression_identity",
        }

    def test_check_rejects_non_commuting(self, runner, tmp_path):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        tup = write_tuple(tmp_path / "tup.json", [a, a.conj().T])
        result = runner.invoke(
            main, ["interp", "check", "--tuple", tup, "--N", "2"]
        )
        assert result.exit_code == 2
        assert "input error" in result.output


class TestBscr:
    def test_check_passes(self, runner, tmp_path):
        out = tmp_path / "bscr.json"
        result = runner.invoke(main, ["bscr", "--N", "4", "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["max_deviation"] == 0.0
        assert payload["passed"] is True

    def test_large_grid_is_one_batched_check(self, runner, tmp_path):
        # N=256 is 262 144 pairs of 256 points, compared as its 65 536
        # fractional pairs in chunks within the default cap.
        out = tmp_path / "bscr.json"
        start = time.perf_counter()
        result = runner.invoke(main, ["bscr", "--N", "256", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert json.loads(out.read_text())["max_deviation"] == 0.0
        assert elapsed < 5.0, elapsed

    def test_trace_csv(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        result = runner.invoke(
            main, ["bscr", "--N", "4", "--trace", "1/4,1/2", "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 5

    def test_trace_needs_pair(self, runner):
        result = runner.invoke(main, ["bscr", "--N", "4", "--trace", "1/4"])
        assert result.exit_code == 2


class TestParrott:
    def test_builds_tuple(self, runner, tmp_path):
        rng = np.random.default_rng(71)
        r1 = write_matrix(tmp_path / "r1.json", random_unitary(rng, 2))
        r2 = write_matrix(tmp_path / "r2.json", random_unitary(rng, 2))
        result = runner.invoke(main, ["parrott", "--r1", r1, "--r2", r2])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["d"] == 3
        assert payload["dim"] == 4

    def test_rejects_contraction_without_flag(self, runner, tmp_path):
        rng = np.random.default_rng(72)
        r1 = write_matrix(tmp_path / "r1.json", random_unitary(rng, 2))
        r2 = write_matrix(tmp_path / "r2.json", 0.5 * np.eye(2))
        result = runner.invoke(main, ["parrott", "--r1", r1, "--r2", r2])
        assert result.exit_code == 2
        result = runner.invoke(
            main,
            ["parrott", "--r1", r1, "--r2", r2, "--allow-contraction-r2"],
        )
        assert result.exit_code == 0

    def test_commuting_factors_warn_on_one_stderr_line(self, runner, tmp_path):
        r = write_matrix(tmp_path / "r.json", shift_matrix(2))
        result = runner.invoke(main, ["parrott", "--r1", r, "--r2", r])
        assert result.exit_code == 0
        assert result.stderr == (
            "warning: R1 and R2 commute; the resulting tuple has no "
            "non-dilatability guarantee\n"
        )
        assert json.loads(result.stdout)["d"] == 3


class TestVn:
    def test_holds(self, runner, tmp_path):
        rng = np.random.default_rng(73)
        tup = write_tuple(
            tmp_path / "tup.json", random_commuting_tuple(rng, 1, 3).mats
        )
        poly = tmp_path / "p.json"
        poly.write_text(
            json.dumps({"d": 1, "terms": [{"alpha": [2], "coeff": [1.0, 0.0]}]})
        )
        result = runner.invoke(
            main, ["vn", "--tuple", tup, "--poly", str(poly), "--grid", "64"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "HOLDS"

    def test_fixture_violated(self, runner, tmp_path):
        from dilations.fixtures import load_crabb_davie

        tup_obj, poly_obj = load_crabb_davie()
        tup = tmp_path / "tup.json"
        tup.write_text(json.dumps(tup_obj.to_json()))
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps(poly_obj.to_json()))
        result = runner.invoke(
            main,
            ["vn", "--tuple", str(tup), "--poly", str(poly), "--grid", "256"],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["verdict"] == "VIOLATED"
        assert payload["lhs"] > payload["sup_upper"]

    def test_bad_json(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main, ["vn", "--tuple", str(bad), "--poly", str(bad)]
        )
        assert result.exit_code == 2

    def test_non_finite_coefficient_exits_2(self, runner, tmp_path):
        tup = write_tuple(tmp_path / "tup.json", [shift_matrix(2)])
        poly = tmp_path / "p.json"
        poly.write_text(
            json.dumps({"d": 1, "terms": [{"alpha": [1], "coeff": [float("nan"), 0.0]}]})
        )
        result = runner.invoke(main, ["vn", "--tuple", tup, "--poly", str(poly)])
        assert result.exit_code == 2
        assert "input error: coefficient of (1,) must be finite" in result.output
        assert "Warning" not in result.output

    @pytest.mark.parametrize(
        "d, terms",
        [
            # sum |c_alpha| overflows the exact supremum's fsum
            (2, [{"alpha": [1, 0], "coeff": [1e308, 0]}, {"alpha": [0, 1], "coeff": [1e308, 0]}]),
            # dependent rows: the lattice values and the pad overflow
            (1, [{"alpha": [k], "coeff": [1e308, 0]} for k in range(3)]),
        ],
        ids=["exact", "lattice"],
    )
    def test_coefficients_whose_sums_overflow_exit_2(self, runner, tmp_path, d, terms):
        tup = write_tuple(tmp_path / "tup.json", [np.diag([0.5])] * d)
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps({"d": d, "terms": terms}))
        result = runner.invoke(main, ["vn", "--tuple", tup, "--poly", str(poly)])
        assert result.exit_code == 2
        assert "input error: coefficients too large" in result.output
        assert "Traceback" not in result.output
        assert "Infinity" not in result.output

    def test_coefficients_inside_the_bound_give_finite_numbers(self, runner, tmp_path):
        # 2 sum |c_alpha| (1 + |alpha|) = 1.68e308 is finite.  At grid 2 the
        # pad is pi/2 sum |c_alpha| |alpha|, its largest, and sup_upper =
        # 4.2e307 + 6.6e307 stays finite.
        tup = write_tuple(tmp_path / "tup.json", [np.diag([0.5])])
        poly = tmp_path / "p.json"
        terms = [{"alpha": [k], "coeff": [1.4e307, 0]} for k in range(3)]
        poly.write_text(json.dumps({"d": 1, "terms": terms}))
        result = runner.invoke(main, ["vn", "--tuple", tup, "--poly", str(poly), "--grid", "2"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert not report["exact_sup"]
        for field in ("lhs", "grid_sup", "lipschitz_pad", "sup_upper"):
            assert math.isfinite(report[field]), field
        assert report["sup_upper"] > 1e308


class TestVnSearch:
    def test_deterministic_output(self, runner):
        args = [
            "vn-search",
            "--d", "2",
            "--dim", "2",
            "--trials", "4",
            "--seed", "99",
            "--grid", "16",
        ]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        assert payload["violations"] == []
        assert payload["cases"] == 4

    def test_include_fixture_finds_violation(self, runner):
        result = runner.invoke(
            main,
            [
                "vn-search",
                "--d", "3",
                "--dim", "8",
                "--trials", "0",
                "--seed", "0",
                "--grid", "256",
                "--include-fixture",
            ],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert len(payload["violations"]) == 1

    def test_verdict_counts_add_up_to_the_cases(self, runner):
        # At seed 1 all 500 cases hold: 397 by the exact supremum and 103 on
        # a lattice.
        args = ["vn-search", "--d", "2", "--dim", "4", "--trials", "500", "--seed", "1",
                "--grid", "64"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        payload = json.loads(result.output)
        verdicts = payload["verdicts"]
        assert list(verdicts) == ["HOLDS", "INCONCLUSIVE", "VIOLATED"]
        assert sum(n for split in verdicts.values() for n in split.values()) == payload["cases"]
        assert verdicts["HOLDS"] == {"exact": 397, "lattice": 103}

    def test_fixture_is_capped_on_its_image(self, runner):
        # The fixture's M^3 = 2^30 lattice at M = 1024 is past the point
        # cap, its M^2 image is not: ``vn --grid 1024`` decides it, and so
        # does the search.
        args = ["vn-search", "--d", "1", "--dim", "2", "--trials", "0", "--seed", "1",
                "--grid", "1024", "--include-fixture"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        [violation] = json.loads(result.output)["violations"]
        assert violation["kind"] == "fixture"
        assert violation["report"]["verdict"] == "VIOLATED"


class TestDilate:
    def test_verified_dilation(self, runner, tmp_path):
        mat = write_matrix(tmp_path / "s.json", 0.5 * shift_matrix(2))
        result = runner.invoke(
            main, ["dilate", "--matrix", mat, "--m", "3", "--verify"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verification"]["passed"] is True
        assert payload["n_max"] == 3

    def test_rejects_expansion(self, runner, tmp_path):
        mat = write_matrix(tmp_path / "s.json", 2.0 * np.eye(2))
        result = runner.invoke(main, ["dilate", "--matrix", mat, "--m", "3"])
        assert result.exit_code == 2

    def test_verify_at_m24_takes_no_svd_of_the_unitary(self, runner, tmp_path, monkeypatch):
        # The benchmark's dilate job: V is 100 x 100, and its unitarity,
        # like the 100 x 4 embedding's isometry, is settled by the bounds
        # of the gaps V*V - 1 and VV* - 1, whose entries are rounding-sized.
        rng = np.random.default_rng(24)
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = write_matrix(tmp_path / "s.json", s / (np.linalg.norm(s, 2) * (1 + 1e-12)))
        shapes = svd_shapes(monkeypatch)
        result = runner.invoke(main, ["dilate", "--matrix", mat, "--m", "24", "--verify"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verification"]["passed"] is True
        assert shapes and all(shape[-2:] == (4, 4) for shape in shapes)

    def test_failed_verification_exits_1(self, runner, tmp_path, monkeypatch):
        # A valid dilation, but of another contraction: only --verify sees it.
        construct = cli.egervary_dilation
        monkeypatch.setattr(
            cli, "egervary_dilation", lambda s, m, tol: construct(0.5 * np.eye(2), m, tol=tol)
        )
        mat = write_matrix(tmp_path / "s.json", 0.5 * shift_matrix(2))
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["dilate", "--matrix", mat, "--m", "3", "--verify", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert json.loads(out.read_text())["verification"]["passed"] is False


class TestApprox:
    def test_sweep(self, runner, tmp_path):
        gens = tmp_path / "gens.json"
        gens.write_text(
            json.dumps(
                {
                    "matrices": [
                        matrix_to_json(np.diag([-1.0, -3.0])),
                        matrix_to_json(np.diag([-2.0, -1.0])),
                    ]
                }
            )
        )
        result = runner.invoke(
            main,
            [
                "approx",
                "--generators", str(gens),
                "--eps-list", "0.5,0.25",
                "--tmax", "1.0",
                "--steps", "8",
            ],
        )
        assert result.exit_code == 0
        sweep = json.loads(result.output)["sweep"]
        assert len(sweep) == 2
        assert sweep[1]["sup_error"] <= sweep[0]["sup_error"] + 1e-12

    def test_bad_eps_list(self, runner, tmp_path):
        gens = tmp_path / "gens.json"
        gens.write_text(
            json.dumps({"matrices": [matrix_to_json(np.diag([-1.0]))]})
        )
        result = runner.invoke(
            main,
            ["approx", "--generators", str(gens), "--eps-list", "abc"],
        )
        assert result.exit_code == 2

    def _sweep(self, runner, tmp_path, generator, tmax):
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps({"matrices": [matrix_to_json(np.array(generator))]}))
        return runner.invoke(
            main,
            ["approx", "--generators", str(gens), "--eps-list", "0.5,0.1", "--tmax", tmax],
        )

    def test_refuses_a_humped_generator(self, runner, tmp_path):
        # ||exp(0.5 A)|| = 1.46 although ||exp(5 A)|| < 1.
        result = self._sweep(runner, tmp_path, [[-1.0, 4.0], [0.0, -1.0]], "5")
        assert result.exit_code == 2
        assert "input error: generator 1 is not dissipative" in result.output

    def test_sweeps_a_dissipative_non_normal_generator(self, runner, tmp_path):
        result = self._sweep(runner, tmp_path, [[-1.0, 1.0], [0.0, -1.0]], "5")
        assert result.exit_code == 0
        assert all(row["sup_error"] > 0 for row in json.loads(result.output)["sweep"])

    def test_zero_tmax_has_no_error(self, runner, tmp_path):
        result = self._sweep(runner, tmp_path, [[-1.0, 1.0], [0.0, -1.0]], "0")
        assert result.exit_code == 0
        assert [row["sup_error"] for row in json.loads(result.output)["sweep"]] == [0.0, 0.0]


class TestStructureCmd:
    def test_report(self, runner, tmp_path):
        mat = write_matrix(tmp_path / "m.json", shift_matrix(3))
        result = runner.invoke(main, ["structure", "--matrix", mat])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["flags"]["is_unitary"] is True
        assert payload["bimarkov"] is True

    def test_preserve(self, runner, tmp_path):
        tup = write_tuple(tmp_path / "tup.json", [shift_matrix(2)])
        result = runner.invoke(main, ["preserve", "--tuple", tup, "--N", "2"])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"] is True

    def test_preserve_on_every_time_of_a_wide_tuple(self, runner, tmp_path):
        # 2^12 times, each one grid point: the unit phases multiply exactly.
        phases = [1j, -1, -1j, 1] * 3
        tup = write_tuple(tmp_path / "tup.json", [np.array([[z]], dtype=complex) for z in phases])
        result = runner.invoke(main, ["preserve", "--tuple", tup, "--N", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert payload["classes"]["unitary"] == {
            "base_holds": True, "preserved": True, "max_deviation": 0.0
        }


class TestEnvironmentOverrides:
    def test_max_entries_cap(self, runner, tmp_path):
        tup = write_tuple(tmp_path / "tup.json", [shift_matrix(2)])
        result = runner.invoke(
            main,
            ["interp", "eval", "--tuple", tup, "--N", "8", "--t", "1/8"],
            env={"DILATIONS_MAX_ENTRIES": "16"},
        )
        assert result.exit_code == 2
        assert "input error" in result.output

    def test_dense_cap_only_where_dense(self, runner, tmp_path):
        # A 2x2 shift at N=8: interp check holds 1 x 8 grid points x 2x2 = 32
        # block entries, interp eval writes a 16x16 matrix of 256 entries.
        tup = write_tuple(tmp_path / "tup.json", [shift_matrix(2)])
        env = {"DILATIONS_MAX_ENTRIES": "100"}
        check = ["interp", "check", "--tuple", tup, "--N", "8", "--max-num", "1"]
        assert runner.invoke(main, check, env=env).exit_code == 0
        dense = runner.invoke(
            main, ["interp", "eval", "--tuple", tup, "--N", "8", "--t", "1/8"], env=env
        )
        assert dense.exit_code == 2
        assert "the dense 16x16 evaluation needs 256 entries, beyond the size cap" in dense.output

    def test_tol_override_loosens_validation(self, runner, tmp_path):
        mat = (1 + 1e-6) * shift_matrix(2)
        tup = write_tuple(tmp_path / "tup.json", [mat])
        strict = runner.invoke(
            main, ["interp", "eval", "--tuple", tup, "--N", "2", "--t", "0"]
        )
        assert strict.exit_code == 2
        loose = runner.invoke(
            main,
            ["interp", "eval", "--tuple", tup, "--N", "2", "--t", "0"],
            env={"DILATIONS_TOL": "1e-3"},
        )
        assert loose.exit_code == 0


@pytest.fixture
def inputs(tmp_path):
    """Input files for one run of every command, by placeholder name."""
    pair = [np.diag([0.5, -0.5]).astype(complex), np.diag([0.25j, 1.0])]
    paths = {
        "tuple": write_tuple(tmp_path / "tup.json", [shift_matrix(2)]),
        "pair": write_tuple(tmp_path / "pair.json", pair),
        "matrix": write_matrix(tmp_path / "m.json", 0.5 * shift_matrix(2)),
        "unitary": write_matrix(tmp_path / "u.json", shift_matrix(2)),
        "unitary2": write_matrix(tmp_path / "u2.json", np.diag([1.0, -1.0])),
    }
    for name, d, alpha in [("poly", 1, [1]), ("poly2", 2, [1, 1])]:
        path = tmp_path / f"{name}.json"
        term = {"alpha": alpha, "coeff": [1.0, 0.0]}
        path.write_text(json.dumps({"d": d, "terms": [term]}))
        paths[name] = str(path)
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"matrices": [matrix_to_json(np.diag([-1.0, -2.0]))]}))
    paths["gens"] = str(gens)
    return paths


def command_name(args):
    """The command path of an argument list: the words before the first option."""
    return " ".join(itertools.takewhile(lambda a: not a.startswith("--"), args))


# (arguments, top-level keys, config keys) of one report of every command.
REPORT_SHAPES = [
    (
        ["interp", "eval", "--tuple", "{pair}", "--N", "2", "--t", "1/2,1"],
        ["config", "result"],
        ["command", "tuple", "N", "t", "tol"],
    ),
    (
        ["interp", "check", "--tuple", "{pair}", "--N", "2"],
        ["config", "deviations", "checks", "passed"],
        ["command", "tuple", "N", "max_num", "tol"],
    ),
    (["bscr", "--N", "2"], ["config", "max_deviation", "passed"], ["command", "N"]),
    (
        ["parrott", "--r1", "{unitary}", "--r2", "{unitary2}"],
        ["d", "dim", "matrices", "config"],
        ["command", "r1", "r2", "tol", "allow_contraction_r2"],
    ),
    (
        ["vn", "--tuple", "{pair}", "--poly", "{poly2}", "--grid", "8"],
        ["lhs", "grid_sup", "lipschitz_pad", "sup_upper", "exact_sup", "verdict", "config"],
        ["command", "tuple", "poly", "grid", "tol"],
    ),
    (
        ["vn-search", "--d", "1", "--dim", "2", "--trials", "2", "--seed", "3",
         "--grid", "8"],
        ["d", "dim", "trials", "seed", "M", "cases", "verdicts", "max_ratio", "violations",
         "config"],
        ["command", "d", "dim", "trials", "seed", "grid", "include_fixture", "tol"],
    ),
    (
        ["dilate", "--matrix", "{matrix}", "--m", "2", "--verify"],
        ["unitaries", "embedding", "n_max", "config", "verification"],
        ["command", "matrix", "m", "verify", "tol"],
    ),
    (
        ["approx", "--generators", "{gens}", "--eps-list", "0.5", "--steps", "4"],
        ["config", "sweep"],
        ["command", "generators", "eps_list", "tmax", "steps", "tol"],
    ),
    (
        ["structure", "--matrix", "{matrix}"],
        ["flags", "deviations", "bimarkov", "config"],
        ["command", "matrix", "tol"],
    ),
    (
        ["preserve", "--tuple", "{tuple}", "--N", "2"],
        ["N", "classes", "converse_unit_times", "passed", "config"],
        ["command", "tuple", "N", "tol"],
    ),
]


def test_report_key_shape(runner, inputs):
    """Every command's JSON report keeps its top-level and config keys, in order."""
    for args, top_keys, config_keys in REPORT_SHAPES:
        args = [a.format(**inputs) for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        payload = json.loads(result.output)
        assert list(payload) == top_keys, args
        assert list(payload["config"]) == config_keys, args
        assert payload["config"]["command"] == command_name(args)


def test_config_echoes_each_option(runner, inputs):
    """A report's config holds the value each option was given."""
    cases = [
        (["parrott", "--r1", "{unitary}", "--r2", "{unitary2}", "--allow-contraction-r2"],
         {"command": "parrott", "r1": "{unitary}", "r2": "{unitary2}", "tol": DEFAULT_TOL,
          "allow_contraction_r2": True}),
        (["vn-search", "--d", "3", "--dim", "8", "--trials", "0", "--seed", "0",
          "--grid", "16", "--include-fixture"],
         {"command": "vn-search", "d": 3, "dim": 8, "trials": 0, "seed": 0, "grid": 16,
          "include_fixture": True, "tol": DEFAULT_TOL}),
        (["dilate", "--matrix", "{matrix}", "--m", "2"],
         {"command": "dilate", "matrix": "{matrix}", "m": 2, "verify": False,
          "tol": DEFAULT_TOL}),
    ]
    for args, config in cases:
        result = runner.invoke(main, [a.format(**inputs) for a in args])
        expected = {k: v.format(**inputs) if isinstance(v, str) else v
                    for k, v in config.items()}
        assert json.loads(result.stdout)["config"] == expected, args
    args = ["structure", "--matrix", inputs["matrix"]]
    result = runner.invoke(main, args, env={"DILATIONS_TOL": "1e-3"})
    assert json.loads(result.stdout)["config"]["tol"] == 1e-3


@pytest.mark.parametrize(
    "args", [args for args, _, _ in REPORT_SHAPES], ids=lambda a: command_name(a)
)
def test_report_bytes_are_indented_json(runner, inputs, tmp_path, args):
    """stdout and --out both hold exactly json.dumps(report, indent=2) + newline."""
    args = [a.format(**inputs) for a in args]
    result = runner.invoke(main, args)
    out = tmp_path / "report.json"
    written = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == written.exit_code == 0, (args, result.output)
    expected = json.dumps(json.loads(result.stdout), indent=2) + "\n"
    assert result.stdout == expected
    assert written.stdout == ""
    assert out.read_text() == expected


def _matrix(rows, cols, pairs):
    return {"rows": rows, "cols": cols, "data": [list(p) for p in pairs]}


# Reports the writer must render exactly as json.dumps(report, indent=2).
WRITER_CASES = {
    "float extremes": {
        "config": {"command": "x", "tol": 1e-9},
        "result": _matrix(1, 3, [(-0.0, 5e-324), (1e308, 1e16), (1e-7, -1.5)]),
    },
    "1x1": {"result": _matrix(1, 1, [(0.0, 1.0)])},
    "nested like dilate": {
        "unitaries": [_matrix(1, 1, [(1.0, 0.0)]), _matrix(2, 1, [(0.5, -0.5), (0.0, 2.0)])],
        "embedding": _matrix(2, 1, [(1.0, 0.0), (0.0, 0.0)]),
        "n_max": 1,
        "config": {"nested": [[{"deeper": _matrix(1, 1, [(3.0, 4.0)])}]]},
    },
    "eight pairs": {"result": _matrix(2, 4, [(k / 7, -k * 1e-300) for k in range(8)])},
    "data without rows and cols": {"data": [[1.0, 2.0]], "cols": 1},
    "ints and bools in data": {
        "a": _matrix(1, 1, [(1, 2.0)]),
        "b": _matrix(1, 1, [(True, 0.0)]),
        "c": _matrix(1, 1, [(1.0, 2.0, 3.0)]),
        "d": _matrix(0, 0, []),
    },
    "non-finite": {"result": _matrix(1, 3, [(math.nan, math.inf), (-math.inf, 0.0), (1.0, 2.0)])},
    "report string equal to the hole": {"note": cli._HOLE, "result": _matrix(1, 1, [(1.0, 2.0)])},
}


def _pairs(rows, cols, pairs):
    """A matrix payload holding ``pairs`` as a float64 array, as the commands emit it."""
    return {"rows": rows, "cols": cols, "data": np.array(pairs, dtype=np.float64).reshape(-1, 2)}


# Reports with array payloads; each must be written exactly as json.dumps
# of the same report with every array replaced by its tolist().
ARRAY_CASES = {
    "float extremes": {
        "config": {"command": "x", "tol": 1e-9},
        "result": _matrix_payload(
            np.array([[complex(-0.0, 5e-324), complex(1e308, 1e16), complex(1e-7, -1.5)]])
        ),
    },
    "signed zero imaginary parts": {"result": _matrix_payload(np.array([[complex(1.0, -0.0)]]))},
    "1x1": {"result": _matrix_payload(np.array([[1j]]))},
    "nested like dilate": {
        "unitaries": [_matrix_payload(np.array([[1.0]])),
                      _matrix_payload(np.array([[0.5 - 0.5j], [2j]]))],
        "embedding": _matrix_payload(np.array([[1.0], [0.0]])),
        "n_max": 1,
        "config": {"nested": [[{"deeper": _matrix_payload(np.array([[3 + 4j]]))}]]},
    },
    "eight pairs": {"result": _pairs(2, 4, [(k / 7, -k * 1e-300) for k in range(8)])},
    "transposed input": {
        "result": _matrix_payload((np.arange(12.0).reshape(3, 4) * (1 - 0.5j) + 1e-300j).T)
    },
    "array in a list": {"arrays": [_pairs(1, 1, [(1.0, 2.0)]), 7]},
    "list and array payloads": {
        "tuple": {"matrices": [_matrix(1, 1, [(0.5, 0.0)])]},
        "result": _pairs(1, 1, [(0.25, 0.0)]),
    },
    "empty array": {"result": _pairs(0, 0, [])},
    "non-finite": {"result": _pairs(1, 3, [(math.nan, math.inf), (-math.inf, 0.0), (1.0, 2.0)])},
    "report string equal to the hole": {"note": cli._HOLE, "result": _pairs(1, 1, [(1.0, 2.0)])},
    # Zero pairs take the one precomputed string; runs of them cross the
    # chunk boundaries of both chunk sizes.
    "zero run across a chunk boundary": {
        "result": _pairs(
            1,
            4100,
            [(k + 1.0, -k / 3) if k < 4093 or k == 4099 else (0.0, 0.0) for k in range(4100)],
        ),
    },
    "signed zeros inside a zero run": {
        "result": _pairs(2, 4, [(0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, 0.0),
                                (0.0, -0.0), (0.0, 0.0), (-0.0, 0.0), (0.0, 0.0)]),
    },
    "all-zero matrix": {"result": _matrix_payload(np.zeros((3, 4)))},
    "1x1 zero": {"result": _matrix_payload(np.zeros((1, 1)))},
    "subnormal next to zeros": {
        "result": _pairs(1, 4, [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324), (0.0, 0.0)]),
    },
}


def _written(report):
    return "".join(cli._report_pieces(report))


ALL_CASES = {**WRITER_CASES, **{f"array {name}": r for name, r in ARRAY_CASES.items()}}


@pytest.mark.parametrize("chunk", [3, cli._CHUNK_PAIRS])
@pytest.mark.parametrize("name", list(ALL_CASES))
def test_writer_matches_json_dumps(monkeypatch, name, chunk):
    monkeypatch.setattr(cli, "_CHUNK_PAIRS", chunk)
    report = ALL_CASES[name]
    assert _written(report) == json.dumps(_listed(report), indent=2) + "\n"


def test_writer_keeps_json_non_finite_spelling():
    text = _written(WRITER_CASES["non-finite"])
    assert "NaN" in text and "Infinity" in text and "-Infinity" in text


def test_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._report_pieces({"result": {"data": 1j}})
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._report_pieces({"result": np.array([1j])})


def test_writer_list_report_is_text_lines():
    lines = trace_to_csv_rows(bscr_trace(4, 1, 2, np.ones(4)))
    assert _written(lines) == "\n".join(lines) + "\n"


def test_wrong_pair_indent_is_caught(monkeypatch):
    """Mutant check: a pair template indented one level too deep fails the byte test."""
    template = cli._pair_template
    monkeypatch.setattr(cli, "_pair_template", lambda indent: template(indent + "  "))
    for name in ("float extremes", "1x1", "nested like dilate", "eight pairs", "array in a list"):
        report = ARRAY_CASES[name]
        assert _written(report) != json.dumps(_listed(report), indent=2) + "\n", name


def test_writer_streams_matrix_payloads(tmp_path):
    """Writing a 256x256 matrix report allocates at most twice the bytes written."""
    rng = np.random.default_rng(5)
    report = {"config": {"command": "interp eval"},
              "result": _matrix_payload(rng.standard_normal((256, 256)) + 1j)}
    path = tmp_path / "report.json"
    with open(path, "w") as handle:
        tracemalloc.start()
        try:
            handle.writelines(cli._report_pieces(report))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3_000_000
    assert peak <= 2 * size, (peak, size)


def test_approx_refuses_steps_past_the_cap_before_listing_them(tmp_path):
    """``approx --steps 1000000`` on a 2 x 2 generator asks for 4 * 10^6 grid
    entries, past the default cap: it is refused before the 10^6 + 1 times
    of its axis are listed, so the call allocates next to nothing."""
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"matrices": [matrix_to_json(np.diag([-1.0, -2.0]))]}))
    args = ["approx", "--generators", str(path), "--eps-list", "0.5", "--steps", "1000000"]
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exit_info:
            main(args, standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_info.value.code == 2
    assert peak < 1 << 20, peak


def test_interp_eval_memory_stays_near_the_dense_matrix(tmp_path):
    """``interp eval`` at total_dim 512 peaks at most at twice its 4 MiB dense matrix."""
    mats = [np.diag([0.5, -0.25j]), np.diag([0.75, 0.5])]
    args = ["interp", "eval", "--tuple", write_tuple(tmp_path / "tup.json", mats),
            "--N", "16", "--t", "3/16,21/16", "--out", str(tmp_path / "out.json")]
    dense = (16**2 * 2) ** 2 * 16
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exit_info:
            main(args, standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_info.value.code == 0
    assert json.loads((tmp_path / "out.json").read_text())["result"]["rows"] == 512
    assert peak <= 2 * dense, (peak, dense)


BAD_INPUTS = [
    (["bscr", "--N", "0"], "N must be >= 1, got 0"),
    (["bscr", "--N", "-3"], "N must be >= 1, got -3"),
    (["interp", "check", "--tuple", "{tuple}", "--N", "2", "--max-num", "0"],
     "max_num must be >= 1, got 0"),
    (["approx", "--generators", "{gens}", "--eps-list", "0.5", "--steps", "0"],
     "--steps must be >= 1, got 0"),
    (["vn-search", "--d", "1", "--dim", "2", "--trials", "1", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    (["vn-search", "--d", "0", "--dim", "2", "--trials", "1", "--seed", "3"],
     "d must be >= 1, got 0"),
    (["vn-search", "--d", "2", "--dim", "-1", "--trials", "3", "--seed", "1"],
     "dim must be >= 1, got -1"),
    (["vn-search", "--d", "2", "--dim", "0", "--trials", "0", "--seed", "1"],
     "dim must be >= 1, got 0"),
    (["vn-search", "--d", "2", "--dim", "4", "--trials", "0", "--seed", "1", "--grid", "1"],
     "lattice size M must be >= 2, got 1"),
    (["vn", "--tuple", "{tuple}", "--poly", "{poly17}", "--grid", "8"],
     "total degree of (17,) exceeds the cap 16"),
    (["DILATIONS_MAX_ENTRIES=abc", "interp", "eval", "--tuple", "{tuple}", "--N", "2",
     "--t", "0"], "DILATIONS_MAX_ENTRIES is not an integer: 'abc'"),
    (["approx", "--generators", "{gens}", "--eps-list", "0"],
     "eps values must be finite and positive, got 0.0"),
    (["interp", "check", "--tuple", "{empty}", "--N", "2"],
     "need at least one operator"),
    # (40+1)^2 grid points x 2x2 = 6724 entries > 1000
    (["DILATIONS_MAX_ENTRIES=1000", "approx", "--generators", "{gens2}",
     "--eps-list", "0.5"],
     "the sweep's value grid needs 6724 entries, beyond the size cap of 1000 "
     "(set DILATIONS_MAX_ENTRIES to override)"),
    # (2*4-1)^1 sum times x 2 grid points x 2x2 = 56 block entries > 50,
    # while the 4x4 evaluations stay under the cap
    (["DILATIONS_MAX_ENTRIES=50", "interp", "check", "--tuple", "{tuple}", "--N", "2"],
     "the sum times' block stack needs 56 entries, beyond the size cap of 50"),
    # (2*1)^40 times: refused before the time list is built
    (["preserve", "--tuple", "{d40}", "--N", "1"],
     "the suite times' block stack needs 43980465111040 entries, beyond the size cap"),
    # (2*2)^1 times x 2 grid points x 2x2 = 32 block entries > 20,
    # while the 4x4 semigroup stays under the cap
    (["DILATIONS_MAX_ENTRIES=20", "preserve", "--tuple", "{tuple}", "--N", "2"],
     "the suite times' block stack needs 32 entries, beyond the size cap of 20"),
    # N^2 = 10^10 entries: refused before the (2N)^2 checks start
    (["bscr", "--N", "100000"],
     "the 100000x100000 grid motion table needs 10000000000 entries, beyond the size cap"),
    # (2 x 100001)^2 entries, refused before the allocation
    (["dilate", "--matrix", "{half}", "--m", "100000"],
     "the 200002x200002 dilation unitary needs 40000800004 entries, beyond the size cap"),
    (["structure", "--matrix", "{scalar_data}"],
     "malformed matrix JSON: object of type 'int' has no len()"),
    (["vn", "--tuple", "{tuple}", "--poly", "{poly_frac}"],
     "exponent must be an integer, got 1.5"),
    # floor(t) = 5 * 10^10 powers of a 2x2 matrix, refused before the walk
    (["interp", "eval", "--tuple", "{tuple}", "--N", "2", "--t", "100000000000/2"],
     "the walk to power 50000000001 of a 2x2 matrix needs 200000000004 entries"),
    # a 24-digit numerator, past int64
    (["interp", "eval", "--tuple", "{tuple}", "--N", "2",
     "--t", "123456789012345678901234/2"],
     "the walk to power 61728394506172839450618 of a 2x2 matrix needs"),
    # 20x20 matrices = 400 entries > 100
    (["DILATIONS_MAX_ENTRIES=100", "vn-search", "--d", "1", "--dim", "20", "--trials", "2",
     "--seed", "1", "--grid", "8"],
     "a 20x20 tuple member needs 400 entries, beyond the size cap of 100"),
    # exponents up to 3 on 6 axes may pass the degree cap 16: refused at
    # any --trials, not only once a trial draws such a term
    (["vn-search", "--d", "6", "--dim", "2", "--trials", "50", "--seed", "1", "--grid", "4"],
     "d = 6 exceeds DEGREE_CAP // 3 = 5"),
    # 10^10 lattice points: refused before any trial is drawn
    (["vn-search", "--d", "2", "--dim", "4", "--trials", "500", "--seed", "1",
     "--grid", "100000"], "lattice of M^d = 10000000000 points exceeds the size cap"),
    # a table of 101 roots > 100 entries
    (["DILATIONS_MAX_ENTRIES=100", "vn-search", "--d", "1", "--dim", "2", "--trials", "1",
     "--seed", "1", "--grid", "101"],
     "the table of M = 101 roots of unity needs 101 entries, beyond the size cap of 100"),
    # integer fields that are not integers: "x", null, 1.5 and 2.5
    (["vn", "--tuple", "{tuple_d_x}", "--poly", "{poly1}"],
     "tuple d must be an integer, got 'x'"),
    (["preserve", "--tuple", "{tuple_d_x}", "--N", "2"], "tuple d must be an integer, got 'x'"),
    (["vn", "--tuple", "{tuple_dim_null}", "--poly", "{poly1}"],
     "tuple dim must be an integer, got None"),
    (["preserve", "--tuple", "{tuple_dim_null}", "--N", "2"],
     "tuple dim must be an integer, got None"),
    (["vn", "--tuple", "{tuple}", "--poly", "{poly_d_frac}"],
     "polynomial d must be an integer, got 1.5"),
    (["structure", "--matrix", "{rows_frac}"], "rows must be an integer, got 2.5"),
    # JSON booleans and numeric strings where numbers belong
    (["vn", "--tuple", "{tuple_d_true}", "--poly", "{poly1}"],
     "tuple d must be an integer, got True"),
    (["structure", "--matrix", "{rows_true}"], "rows must be an integer, got True"),
    (["structure", "--matrix", "{data_bools}"], "every matrix entry must be a pair of numbers"),
    (["structure", "--matrix", "{data_strings}"],
     "every matrix entry must be a pair of numbers"),
    (["vn", "--tuple", "{tuple}", "--poly", "{poly_d_true}"],
     "polynomial d must be an integer, got True"),
    (["vn", "--tuple", "{tuple1}", "--poly", "{poly_alpha_true}"],
     "exponent must be an integer, got True"),
    (["vn", "--tuple", "{tuple1}", "--poly", "{poly_coeff_bools}"],
     "every coefficient must be a pair of numbers"),
    (["vn", "--tuple", "{tuple_all_bools}", "--poly", "{poly_all_bools}"],
     "rows must be an integer, got True"),
    # integers past the float range
    (["structure", "--matrix", "{data_huge}"],
     "malformed matrix entry: int too large to convert to float"),
    (["vn", "--tuple", "{tuple1}", "--poly", "{poly_coeff_huge}"],
     "malformed coefficient: int too large to convert to float"),
    # 2^20 times of 20 exponents each: refused before the rows are built
    (["preserve", "--tuple", "{d20}", "--N", "1"],
     "the suite times' block stack needs 20971520 entries, beyond the size cap"),
    (["vn", "--tuple", "{missing}", "--poly", "{poly1}"], "cannot read"),
    (["approx", "--generators", "{no_fields}", "--eps-list", "0.5"],
     "malformed generators JSON"),
    (["approx", "--generators", "{empty}", "--eps-list", "0.5"], "need at least one generator"),
    (["approx", "--generators", "{gens_two_shapes}", "--eps-list", "0.5"],
     "generator 2 has shape (1, 1)"),
    (["approx", "--generators", "{gens}", "--eps-list", ","], "--eps-list is empty"),
    # A + A* overflows: a NaN eigenvalue is not dissipative, and no
    # RuntimeWarning reaches stderr.
    (["approx", "--generators", "{gens_overflow}", "--eps-list", "0.5"],
     "generator 1 is not dissipative (largest eigenvalue of (A + A*)/2 is nan)"),
    (["vn", "--tuple", "{tuple1}", "--poly", "{poly_d0}"],
     "polynomial arity must be >= 1, got 0"),
    (["vn", "--tuple", "{tuple1}", "--poly", "{poly_negative}"], "negative exponent in (-1,)"),
    (["parrott", "--r1", "{unitary}", "--r2", "{unitary1}"],
     "factor 2 has shape (1, 1), expected (2, 2)"),
    (["parrott", "--r1", "{unitary}", "--r2", "{twice}", "--allow-contraction-r2"],
     "R2 must be a contraction"),
    # R1* R1 overflows: a NaN deviation is not unitary.
    (["parrott", "--r1", "{huge}", "--r2", "{unitary}"], "R1 is not unitary (deviation nan)"),
    (["dilate", "--matrix", "{wide}", "--m", "2"], "dilation requires a square matrix"),
    (["interp", "check", "--tuple", "{no_fields}", "--N", "2"],
     "malformed tuple JSON: 'matrices'"),
    (["interp", "check", "--tuple", "{tuple_dim3}", "--N", "2"],
     "tuple JSON declares dim=3 but matrices are 2x2"),
    (["DILATIONS_MAX_ENTRIES=0", "interp", "eval", "--tuple", "{tuple}", "--N", "2",
      "--t", "0"], "DILATIONS_MAX_ENTRIES must be positive"),
    (["DILATIONS_TOL=abc", "interp", "eval", "--tuple", "{tuple}", "--N", "2", "--t", "0"],
     "DILATIONS_TOL is not a number: 'abc'"),
    (["structure", "--matrix", "{rows0}"], "matrix dimensions must be positive"),
    # finite entries whose A*A, A A and unity residuals overflow, with no
    # RuntimeWarning on stderr
    (["structure", "--matrix", "{huge}"],
     "matrix entries too large: the deviations of is_isometry, is_unitary, is_projection, "
     "preserves_unity, adjoint_preserves_unity overflow the float range"),
    # finite generators whose commutator overflows, with no RuntimeWarning on stderr
    (["approx", "--generators", "{gens_commutator_overflow}", "--eps-list", "0.5"],
     "the commutator of generators 1 and 2 overflows the float range"),
    # N^2 = 10^24 entries: refused before the 2N times are listed
    (["bscr", "--N", "1000000000000"],
     "the 1000000000000x1000000000000 grid motion table needs 1" + "0" * 24 + " entries"),
    # an --out that cannot be written: a directory, a file in a missing one
    (["vn", "--tuple", "{tuple1}", "--poly", "{poly1}", "--out", "{directory}"],
     "cannot write"),
    (["structure", "--matrix", "{half}", "--out", "{no_parent}"], "cannot write"),
    # input files that are not UTF-8: UTF-16, starting with the bytes ff fe
    (["structure", "--matrix", "{utf16}"], "utf16.json is not valid JSON"),
    (["vn", "--tuple", "{tuple1}", "--poly", "{utf16}"], "utf16.json is not valid JSON"),
    (["approx", "--generators", "{utf16}", "--eps-list", "0.5"],
     "utf16.json is not valid JSON"),
    # t A past the float range for a finite t and A, with no RuntimeWarning on stderr
    (["approx", "--generators", "{gens_large}", "--eps-list", "0.5", "--tmax", "1e300",
      "--steps", "1"], "t*A overflows the float range, beyond the norm cap 50.0"),
    # one exponent twice: a dict of the terms would keep only the last coefficient
    (["vn", "--tuple", "{tuple1}", "--poly", "{poly_twice}"],
     "malformed polynomial JSON: exponent (1,) is listed twice"),
]
# The cases' ids are args0, args1, ... in list order.
BAD_INPUT_IDS = [f"args{i}" for i in range(len(BAD_INPUTS))]


@pytest.mark.parametrize("args, message", BAD_INPUTS, ids=BAD_INPUT_IDS)
def test_bad_input_exits_2(runner, tmp_path, args, message):
    files = {
        "gens": {"matrices": [matrix_to_json(np.diag([-1.0]))]},
        "poly17": {"d": 1, "terms": [{"alpha": [17], "coeff": [1.0, 0.0]}]},
        "empty": {"matrices": []},
        "gens2": {"matrices": [matrix_to_json(np.diag([-1.0, -2.0])),
                               matrix_to_json(np.diag([-0.5, 0.0]))]},
        "d40": {"matrices": [matrix_to_json(np.diag([0.5]))] * 40},
        "d20": {"matrices": [matrix_to_json(np.diag([0.5]))] * 20},
        "half": matrix_to_json(np.diag([0.5, 0.5])),
        "scalar_data": {"rows": 1, "cols": 1, "data": 5},
        "poly_frac": {"d": 1, "terms": [{"alpha": [1.5], "coeff": [1.0, 0.0]}]},
        "poly1": {"d": 1, "terms": [{"alpha": [1], "coeff": [1.0, 0.0]}]},
        "poly_twice": {"d": 1, "terms": [{"alpha": [1], "coeff": [1.0, 0.0]},
                                         {"alpha": [1], "coeff": [2.0, 0.0]}]},
        "poly_d_frac": {"d": 1.5, "terms": [{"alpha": [1], "coeff": [1.0, 0.0]}]},
        "tuple_d_x": {"d": "x", "matrices": [matrix_to_json(shift_matrix(2))]},
        "tuple_dim_null": {"dim": None, "matrices": [matrix_to_json(shift_matrix(2))]},
        "rows_frac": {"rows": 2.5, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                                       [1.0, 0.0]]},
        "tuple_d_true": {"d": True, "matrices": [matrix_to_json(np.diag([0.5]))]},
        "rows_true": {"rows": True, "cols": 1, "data": [[0.5, 0.0]]},
        "data_bools": {"rows": 1, "cols": 1, "data": [[True, False]]},
        "data_strings": {"rows": 1, "cols": 1, "data": [["0.5", "0"]]},
        "poly_d_true": {"d": True, "terms": [{"alpha": [1], "coeff": [1.0, 0.0]}]},
        "poly_alpha_true": {"d": 1, "terms": [{"alpha": [True], "coeff": [1.0, 0.0]}]},
        "poly_coeff_bools": {"d": 1, "terms": [{"alpha": [1], "coeff": [True, False]}]},
        # every field at once: read as numbers, vn would exit 0 with lhs 1.0
        "tuple_all_bools": {"d": True, "matrices": [{"rows": True, "cols": True,
                                                     "data": [[True, False]]}]},
        "poly_all_bools": {"d": True, "terms": [{"alpha": [True], "coeff": [True, False]}]},
        "data_huge": {"rows": 1, "cols": 1, "data": [[10**400, 0]]},
        "poly_coeff_huge": {"d": 1, "terms": [{"alpha": [1], "coeff": [10**400, 0]}]},
        "no_fields": {},
        "gens_two_shapes": {"matrices": [matrix_to_json(np.diag([-1.0, -2.0])),
                                         matrix_to_json(np.diag([-1.0]))]},
        "gens_large": {"matrices": [matrix_to_json(np.diag([-1e10]))]},
        "gens_overflow": {"matrices": [matrix_to_json(np.array([[-1.0, 1.5e308],
                                                                [1.5e308, -1.0]]))]},
        "gens_commutator_overflow": {"matrices": [
            matrix_to_json(np.array([[-1e200, 1e200], [0.0, -1e200]])),
            matrix_to_json(np.array([[-1e200, 0.0], [1e200, -1e200]]))]},
        "poly_d0": {"d": 0, "terms": [{"alpha": [], "coeff": [1.0, 0.0]}]},
        "poly_negative": {"d": 1, "terms": [{"alpha": [-1], "coeff": [1.0, 0.0]}]},
        "unitary": matrix_to_json(shift_matrix(2)),
        "unitary1": matrix_to_json(np.diag([1.0])),
        "twice": matrix_to_json(np.diag([2.0, 2.0])),
        "huge": matrix_to_json(np.diag([1e200, 1e200])),
        "wide": matrix_to_json(np.zeros((2, 3))),
        "tuple_dim3": {"dim": 3, "matrices": [matrix_to_json(shift_matrix(2))]},
        "rows0": {"rows": 0, "cols": 1, "data": []},
    }
    paths = {
        "tuple": write_tuple(tmp_path / "tup.json", [shift_matrix(2)]),
        "tuple1": write_tuple(tmp_path / "tup1.json", [np.diag([0.5])]),
        "missing": str(tmp_path / "missing.json"),
        "directory": str(tmp_path),
        "no_parent": str(tmp_path / "missing" / "report.json"),
        "utf16": str(tmp_path / "utf16.json"),
    }
    (tmp_path / "utf16.json").write_bytes(json.dumps(files["half"]).encode("utf-16"))
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    # Leading NAME=value words set the environment, as on a shell command line.
    env = dict(a.split("=", 1) for a in itertools.takewhile(lambda a: "=" in a, args))
    args = args[len(env):]
    result = runner.invoke(main, [a.format(**paths) for a in args], env=env)
    assert result.exit_code == 2
    # One line: the message, and no warning or traceback before it.
    assert result.stderr.startswith("input error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr
    assert "Traceback" not in result.output


TOL_COMMANDS = [
    ["interp", "eval", "--tuple", "{tuple}", "--N", "2", "--t", "1/2"],
    ["interp", "check", "--tuple", "{tuple}", "--N", "2"],
    ["parrott", "--r1", "{unitary}", "--r2", "{unitary2}"],
    ["vn", "--tuple", "{tuple}", "--poly", "{poly}", "--grid", "8"],
    ["vn-search", "--d", "1", "--dim", "2", "--trials", "1", "--seed", "3", "--grid", "8"],
    ["dilate", "--matrix", "{matrix}", "--m", "2"],
    ["approx", "--generators", "{gens}", "--eps-list", "0.5", "--steps", "4"],
    ["structure", "--matrix", "{matrix}"],
    ["preserve", "--tuple", "{tuple}", "--N", "2"],
]


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize(
    "args", TOL_COMMANDS, ids=lambda a: " ".join(a[:2]) if a[0] == "interp" else a[0]
)
def test_bad_tol_exits_2(runner, inputs, args, tol):
    base = [a.format(**inputs) for a in args]
    assert runner.invoke(main, base).exit_code in (0, 1), base
    result = runner.invoke(main, base + ["--tol", tol])
    assert result.exit_code == 2
    assert "input error: --tol must be a finite nonnegative number" in result.output


def test_every_command_uses_the_report_skeleton():
    """Each leaf command takes --out, and --tol unless it is bscr, and is
    covered by the report-shape and --tol tests."""
    leaves = {}

    def walk(command, path):
        if isinstance(command, click.Group):
            for name, sub in command.commands.items():
                walk(sub, [*path, name])
        else:
            leaves[" ".join(path)] = {opt for p in command.params for opt in p.opts}

    walk(main, [])
    assert all("--out" in opts for opts in leaves.values())
    with_tol = {name for name, opts in leaves.items() if "--tol" in opts}
    assert with_tol == set(leaves) - {"bscr"}
    assert set(leaves) == {command_name(args) for args, _, _ in REPORT_SHAPES}
    assert set(leaves) - {"bscr"} == {command_name(args) for args in TOL_COMMANDS}


@pytest.mark.parametrize(
    "error, code, prefix",
    [(NumericalError, 3, "numerical error:"), (InputError, 2, "input error:")],
)
@pytest.mark.parametrize("to_file", [False, True])
def test_errors_map_to_exit_codes(runner, inputs, tmp_path, monkeypatch, error, code,
                                  prefix, to_file):
    def fail(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(cli, "structure_report", fail)
    out = tmp_path / "report.json"
    args = ["structure", "--matrix", inputs["matrix"]]
    result = runner.invoke(main, args + (["--out", str(out)] if to_file else []))
    assert result.exit_code == code
    assert result.stderr == f"{prefix} forced\n"
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("sink", ["closed pipe", "full device"])
def test_unwritable_stdout_exits_2(tmp_path, sink):
    """A stdout that cannot be written, a pipe whose reader is gone or a
    full device, is an input error: exit 2, not click's exit 1, which is
    the VIOLATED code, and one stderr line, with no traceback and no
    "Exception ignored" line from the interpreter's flush at exit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = [sys.executable, "-m", "dilations.cli", "bscr", "--N", "4"]
    if sink == "closed pipe":
        reader, writer = os.pipe()
        os.close(reader)
        stdout, reason = os.fdopen(writer, "wb"), "[Errno 32] Broken pipe"
    else:
        stdout, reason = open("/dev/full", "wb"), "[Errno 28] No space left on device"
    with stdout:
        done = subprocess.run(args, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)
    assert done.returncode == 2
    assert done.stderr == f"input error: cannot write stdout: {reason}\n"


def test_unwritable_stdout_is_pointed_at_devnull(tmp_path, monkeypatch):
    """In-process: after a failed write, stdout's descriptor refers to
    os.devnull, so what stays buffered is dropped at exit without error."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def fileno(self):
            return fd

        def writelines(self, pieces):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        with pytest.raises(InputError, match=r"^cannot write stdout: \[Errno 32\] Broken pipe$"):
            cli._write_report(["{}\n"], None)
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_failing_command_keeps_an_existing_out_file(runner, inputs, tmp_path):
    out = tmp_path / "report.json"
    out.write_text("earlier report\n")
    args = ["structure", "--matrix", inputs["matrix"], "--out", str(out), "--tol", "-1"]
    assert runner.invoke(main, args).exit_code == 2
    assert out.read_text() == "earlier report\n"


def test_eigh_failure_is_a_numerical_error(runner, inputs, monkeypatch):
    """psd_sqrt refuses a failed eigendecomposition, and dilate exits 3 on it."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="eigendecomposition failed"):
        psd_sqrt(np.eye(2))
    result = runner.invoke(main, ["dilate", "--matrix", inputs["matrix"], "--m", "2"])
    assert result.exit_code == 3
    assert result.stderr == (
        "numerical error: eigendecomposition failed: Eigenvalues did not converge\n"
    )


def test_runtime_warnings_keep_their_filter(runner, inputs, monkeypatch):
    """Only UserWarnings become stderr lines: under this suite's
    error::RuntimeWarning filter a numpy-style warning still raises."""

    def warn(*args, **kwargs):
        warnings.warn("overflow encountered", RuntimeWarning)

    monkeypatch.setattr(cli, "structure_report", warn)
    result = runner.invoke(main, ["structure", "--matrix", inputs["matrix"]])
    assert isinstance(result.exception, RuntimeWarning)


def test_root_table_cap_exits_2(runner, inputs, monkeypatch):
    # A d = 1 lattice of 2048 points is within the lattice cap (128 * 1024)
    # but its root table is not.
    monkeypatch.setenv("DILATIONS_MAX_ENTRIES", "1024")
    args = ["vn", "--tuple", inputs["tuple"], "--poly", inputs["poly"]]
    assert runner.invoke(main, args + ["--grid", "1024"]).exit_code == 0
    result = runner.invoke(main, args + ["--grid", "2048"])
    assert result.exit_code == 2
    assert ("input error: the table of M = 2048 roots of unity needs 2048 entries, "
            "beyond the size cap of 1024" in result.stderr)


def test_lattice_image_cap_exits_2(runner, tmp_path):
    # At M = 4096 a full-rank d = 3 polynomial's image has 2^36 points,
    # beyond the point cap of 128 * 2^20.
    tup = write_tuple(tmp_path / "tup.json", [0.5 * np.eye(2, dtype=complex)] * 3)
    alphas = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    terms = [{"alpha": alpha, "coeff": [1.0, 0.0]} for alpha in alphas]
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"d": 3, "terms": terms}))
    result = runner.invoke(main, ["vn", "--tuple", tup, "--poly", str(poly), "--grid", "4096"])
    assert result.exit_code == 2
    message = "input error: lattice of prod M/g_i = 68719476736 points exceeds the size cap"
    assert message in result.stderr


def test_bad_tol_env_exits_2(runner, tmp_path):
    tup = write_tuple(tmp_path / "tup.json", [shift_matrix(2)])
    result = runner.invoke(
        main,
        ["interp", "eval", "--tuple", tup, "--N", "2", "--t", "0"],
        env={"DILATIONS_TOL": "nan"},
    )
    assert result.exit_code == 2
    assert "DILATIONS_TOL must be a finite nonnegative number" in result.output


def test_nan_tol_no_longer_skips_commutation_check(runner, tmp_path):
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    tup = write_tuple(tmp_path / "tup.json", [e12, e12.T])
    args = ["interp", "eval", "--tuple", tup, "--N", "2", "--t", "0,0"]
    assert "do not commute" in runner.invoke(main, args).output
    result = runner.invoke(main, args + ["--tol", "nan"])
    assert result.exit_code == 2
    assert "--tol" in result.output


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--eps-list", "inf"], "eps values must be finite and positive, got inf"),
        (["--eps-list", "0.5,nan"], "eps values must be finite and positive, got nan"),
        (["--eps-list", "0.5", "--tmax", "nan"], "--tmax must be finite and nonnegative"),
        (["--eps-list", "0.5", "--tmax", "inf"], "--tmax must be finite and nonnegative"),
        (["--eps-list", "0.5", "--tmax", "-1"], "--tmax must be finite and nonnegative"),
    ],
)
def test_approx_names_bad_eps_and_tmax(runner, tmp_path, extra, message):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"matrices": [matrix_to_json(np.diag([-1.0, -2.0]))]}))
    result = runner.invoke(main, ["approx", "--generators", str(gens), *extra])
    assert result.exit_code == 2
    assert f"input error: {message}" in result.output
    assert "non-finite" not in result.output
