import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_unitary
from dilations.cli import main
from dilations.dilation import _random_commuting_tuple
from dilations.linalg import matrix_to_json


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
        mats = _random_commuting_tuple(rng, 2, 2).mats
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
        import warnings

        rng = np.random.default_rng(72)
        r1 = write_matrix(tmp_path / "r1.json", random_unitary(rng, 2))
        r2 = write_matrix(tmp_path / "r2.json", 0.5 * np.eye(2))
        result = runner.invoke(main, ["parrott", "--r1", r1, "--r2", r2])
        assert result.exit_code == 2
        with warnings.catch_warnings():
            # scalar R2 commutes with R1; the commuting-factors warning
            # is expected here
            warnings.simplefilter("ignore")
            result = runner.invoke(
                main,
                ["parrott", "--r1", r1, "--r2", r2, "--allow-contraction-r2"],
            )
        assert result.exit_code == 0


class TestVn:
    def test_holds(self, runner, tmp_path):
        rng = np.random.default_rng(73)
        tup = write_tuple(
            tmp_path / "tup.json", _random_commuting_tuple(rng, 1, 3).mats
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


def test_report_key_shape(runner, tmp_path):
    """Every command's JSON report keeps its top-level and config keys, in order."""
    pair = [np.diag([0.5, -0.5]).astype(complex), np.diag([0.25j, 1.0])]
    tup = write_tuple(tmp_path / "tup.json", pair)
    tup1 = write_tuple(tmp_path / "tup1.json", [shift_matrix(2)])
    poly = tmp_path / "p.json"
    poly.write_text(
        json.dumps({"d": 2, "terms": [{"alpha": [1, 1], "coeff": [1.0, 0.0]}]})
    )
    rng = np.random.default_rng(74)
    r1 = write_matrix(tmp_path / "r1.json", random_unitary(rng, 2))
    r2 = write_matrix(tmp_path / "r2.json", random_unitary(rng, 2))
    mat = write_matrix(tmp_path / "s.json", 0.5 * shift_matrix(2))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"matrices": [matrix_to_json(np.diag([-1.0, -2.0]))]}))
    cases = [
        (
            ["interp", "eval", "--tuple", tup, "--N", "2", "--t", "1/2,1"],
            ["config", "result"],
            ["command", "tuple", "N", "t", "tol"],
        ),
        (
            ["interp", "check", "--tuple", tup, "--N", "2"],
            ["config", "deviations", "checks", "passed"],
            ["command", "tuple", "N", "max_num", "tol"],
        ),
        (["bscr", "--N", "2"], ["config", "max_deviation", "passed"], ["command", "N"]),
        (
            ["parrott", "--r1", r1, "--r2", r2],
            ["d", "dim", "matrices", "config"],
            ["command", "r1", "r2", "tol"],
        ),
        (
            ["vn", "--tuple", tup, "--poly", str(poly), "--grid", "8"],
            ["lhs", "grid_sup", "lipschitz_pad", "sup_upper", "verdict", "config"],
            ["command", "tuple", "poly", "grid", "tol"],
        ),
        (
            ["vn-search", "--d", "1", "--dim", "2", "--trials", "2", "--seed", "3",
             "--grid", "8"],
            ["d", "dim", "trials", "seed", "M", "cases", "max_ratio", "violations",
             "config"],
            ["command", "d", "dim", "trials", "seed", "grid", "include_fixture", "tol"],
        ),
        (
            ["dilate", "--matrix", mat, "--m", "2", "--verify"],
            ["unitaries", "embedding", "n_max", "config", "verification"],
            ["command", "matrix", "m", "verify", "tol"],
        ),
        (
            ["approx", "--generators", str(gens), "--eps-list", "0.5", "--steps", "4"],
            ["config", "sweep"],
            ["command", "generators", "eps_list", "tmax", "steps", "tol"],
        ),
        (
            ["structure", "--matrix", mat],
            ["flags", "deviations", "bimarkov", "config"],
            ["command", "matrix", "tol"],
        ),
        (
            ["preserve", "--tuple", tup1, "--N", "2"],
            ["N", "times", "classes", "converse_unit_times", "passed", "config"],
            ["command", "tuple", "N", "tol"],
        ),
    ]
    for args, top_keys, config_keys in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        payload = json.loads(result.output)
        assert list(payload) == top_keys, args
        assert list(payload["config"]) == config_keys, args


@pytest.mark.parametrize(
    "args",
    [
        ["bscr", "--N", "0"],
        ["bscr", "--N", "-3"],
        ["interp", "check", "--tuple", "{tuple}", "--N", "2", "--max-num", "0"],
        ["approx", "--generators", "{gens}", "--eps-list", "0.5", "--steps", "0"],
        ["vn-search", "--d", "1", "--dim", "2", "--trials", "1", "--seed", "-1"],
    ],
)
def test_bad_input_exits_2(runner, tmp_path, args):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"matrices": [matrix_to_json(np.diag([-1.0]))]}))
    paths = {
        "tuple": write_tuple(tmp_path / "tup.json", [shift_matrix(2)]),
        "gens": str(gens),
    }
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 2
    assert "input error:" in result.output


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
def test_bad_tol_exits_2(runner, tmp_path, args, tol):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"matrices": [matrix_to_json(np.diag([-1.0]))]}))
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"d": 1, "terms": [{"alpha": [1], "coeff": [1.0, 0.0]}]}))
    paths = {
        "tuple": write_tuple(tmp_path / "tup.json", [shift_matrix(2)]),
        "matrix": write_matrix(tmp_path / "m.json", 0.5 * shift_matrix(2)),
        "unitary": write_matrix(tmp_path / "u.json", shift_matrix(2)),
        "unitary2": write_matrix(tmp_path / "u2.json", np.diag([1.0, -1.0])),
        "poly": str(poly),
        "gens": str(gens),
    }
    base = [a.format(**paths) for a in args]
    assert runner.invoke(main, base).exit_code in (0, 1), base
    result = runner.invoke(main, base + ["--tol", tol])
    assert result.exit_code == 2
    assert "input error: --tol must be a finite nonnegative number" in result.output


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
