"""Command-line front end.

Exit codes: 0 all checks passed / inequality HOLDS; 1 a check failed or
a violation was found (report still written); 2 input or format error;
3 numerical error.

Environment overrides: DILATIONS_TOL (default comparison tolerance) and
DILATIONS_MAX_ENTRIES (matrix size cap).
"""

from __future__ import annotations

import itertools
import json
import sys

import click
import numpy as np

from . import fixtures
from .dilation import (
    MultiPolynomial,
    egervary_dilation,
    parrott_tuple,
    power_dilation_verify,
    vn_check,
    vn_search,
)
from .interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    approx_error_sweep,
    eval_discretized,
    semigroup_suite,
)
from .linalg import (
    InputError,
    NumericalError,
    default_tol,
    matrix_from_json,
    matrix_to_json,
)
from .structure import preservation_suite, structure_report
from .torus import GridTime, bscr_check, bscr_trace, trace_to_csv_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=False)
    if path is None:
        click.echo(text)
    else:
        with open(path, "w") as handle:
            handle.write(text + "\n")


def _load_tuple(path, tol):
    return ContractionTuple.from_json(_load_json(path), tol=tol)


def _run(func):
    try:
        sys.exit(func())
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)


@click.group()
def main():
    """Verification toolkit for semigroup interpolation of commuting
    contractions, dilations, and the polynomial inequality on the torus."""


@main.group()
def interp():
    """Discretised semigroup evaluation and property suites."""


@interp.command("eval")
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--N", "n_grid", required=True, type=int)
@click.option("--t", "time_text", required=True)
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def interp_eval(tuple_path, n_grid, time_text, tol, out):
    """Evaluate the grid semigroup at one grid time."""

    def run():
        eps = tol if tol is not None else default_tol()
        tup = _load_tuple(tuple_path, eps)
        t = GridTime.parse(time_text, n_grid)
        semi = DiscretizedSemigroup(tup, n_grid)
        mat = eval_discretized(semi, t)
        _write_json(
            out,
            {
                "config": {
                    "command": "interp eval",
                    "tuple": str(tuple_path),
                    "N": n_grid,
                    "t": str(t),
                    "tol": eps,
                },
                "result": matrix_to_json(mat),
            },
        )
        return EXIT_OK

    _run(run)


@interp.command("check")
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--N", "n_grid", required=True, type=int)
@click.option("--max-num", type=int, default=None, help="Numerator bound (default 2N).")
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def interp_check(tuple_path, n_grid, max_num, tol, out):
    """Full property suite: homomorphism, interpolation, contractivity,
    commutation, and the compression identity."""

    def run():
        eps = tol if tol is not None else default_tol()
        tup = _load_tuple(tuple_path, eps)
        bound = max_num if max_num is not None else 2 * n_grid
        suite = semigroup_suite(tup, n_grid, bound)
        payload = {
            "config": {
                "command": "interp check",
                "tuple": str(tuple_path),
                "N": n_grid,
                "max_num": bound,
                "tol": eps,
            },
            **suite,
        }
        _write_json(out, payload)
        return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED

    _run(run)


@main.command()
@click.option("--N", "n_grid", required=True, type=int)
@click.option("--trace", "trace_text", default=None, help="Pair s,t of grid times for a trace.")
@click.option("--out", type=click.Path(), default=None)
def bscr(n_grid, trace_text, out):
    """Exhaustive commutation-relation check on the grid; optional trace CSV."""

    def run():
        if n_grid < 1:
            raise InputError(f"N must be >= 1, got {n_grid}")
        worst = 0.0
        for s_num in range(2 * n_grid):
            for t_num in range(2 * n_grid):
                worst = max(worst, bscr_check(n_grid, s_num, t_num))
        if trace_text is not None:
            pair = GridTime.parse(trace_text, n_grid)
            if pair.d != 2:
                raise InputError("--trace expects exactly two grid times s,t")
            s_num, t_num = pair.nums
            rows = bscr_trace(
                n_grid, s_num, t_num, np.ones(n_grid, dtype=np.complex128)
            )
            lines = trace_to_csv_rows(rows)
            if out is None:
                for line in lines:
                    click.echo(line)
            else:
                with open(out, "w") as handle:
                    handle.write("\n".join(lines) + "\n")
        else:
            _write_json(
                out,
                {
                    "config": {"command": "bscr", "N": n_grid},
                    "max_deviation": worst,
                    "passed": worst == 0.0,
                },
            )
        return EXIT_OK if worst == 0.0 else EXIT_CHECK_FAILED

    _run(run)


@main.command()
@click.option("--r1", "r1_path", required=True, type=click.Path())
@click.option("--r2", "r2_path", required=True, type=click.Path())
@click.option("--tol", type=float, default=None)
@click.option("--allow-contraction-r2", is_flag=True, default=False)
@click.option("--out", type=click.Path(), default=None)
def parrott(r1_path, r2_path, tol, allow_contraction_r2, out):
    """Build the commuting triple (R1 x E21, R2 x E21, I x E21)."""

    def run():
        eps = tol if tol is not None else default_tol()
        r1 = matrix_from_json(_load_json(r1_path))
        r2 = matrix_from_json(_load_json(r2_path))
        tup = parrott_tuple(
            r1, r2, tol=eps, allow_contraction_r2=allow_contraction_r2
        )
        payload = tup.to_json()
        payload["config"] = {
            "command": "parrott",
            "r1": str(r1_path),
            "r2": str(r2_path),
            "tol": eps,
        }
        _write_json(out, payload)
        return EXIT_OK

    _run(run)


@main.command()
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--poly", "poly_path", required=True, type=click.Path())
@click.option("--grid", "grid_m", type=int, default=64)
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def vn(tuple_path, poly_path, grid_m, tol, out):
    """Check the polynomial inequality with a certified torus bound."""

    def run():
        eps = tol if tol is not None else default_tol()
        tup = _load_tuple(tuple_path, eps)
        poly = MultiPolynomial.from_json(_load_json(poly_path))
        report = vn_check(tup, poly, grid_m, tol=eps)
        payload = report.to_json()
        payload["config"] = {
            "command": "vn",
            "tuple": str(tuple_path),
            "poly": str(poly_path),
            "grid": grid_m,
            "tol": eps,
        }
        _write_json(out, payload)
        return EXIT_OK if report.verdict == "HOLDS" else EXIT_CHECK_FAILED

    _run(run)


@main.command("vn-search")
@click.option("--d", "arity", required=True, type=int)
@click.option("--dim", required=True, type=int)
@click.option("--trials", required=True, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--grid", "grid_m", type=int, default=64)
@click.option("--include-fixture", is_flag=True, default=False,
              help="Append the shipped dim-8 counterexample to the pool.")
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def vn_search_cmd(arity, dim, trials, seed, grid_m, include_fixture, tol, out):
    """Randomized violation search over commuting tuples (seeded)."""

    def run():
        eps = tol if tol is not None else default_tol()
        extra = []
        if include_fixture:
            extra.append(fixtures.load_crabb_davie())
        report = vn_search(
            arity, dim, trials, seed, grid_m, extra_cases=extra, tol=eps
        )
        report.pop("reports")
        report["config"] = {
            "command": "vn-search",
            "d": arity,
            "dim": dim,
            "trials": trials,
            "seed": seed,
            "grid": grid_m,
            "include_fixture": include_fixture,
            "tol": eps,
        }
        _write_json(out, report)
        return EXIT_CHECK_FAILED if report["violations"] else EXIT_OK

    _run(run)


@main.command()
@click.option("--matrix", "matrix_path", required=True, type=click.Path())
@click.option("--m", "steps", required=True, type=int)
@click.option("--verify", is_flag=True, default=False)
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def dilate(matrix_path, steps, verify, tol, out):
    """Unitary m-dilation of a single contraction, optionally re-verified."""

    def run():
        eps = tol if tol is not None else default_tol()
        s = matrix_from_json(_load_json(matrix_path))
        cand = egervary_dilation(s, steps, tol=eps)
        payload = cand.to_json()
        payload["config"] = {
            "command": "dilate",
            "matrix": str(matrix_path),
            "m": steps,
            "verify": verify,
            "tol": eps,
        }
        code = EXIT_OK
        if verify:
            check = power_dilation_verify(
                ContractionTuple((s,), tol=eps), cand, tol=eps
            )
            payload["verification"] = check
            code = EXIT_OK if check["passed"] else EXIT_CHECK_FAILED
        _write_json(out, payload)
        return code

    _run(run)


@main.command()
@click.option("--generators", "gen_path", required=True, type=click.Path())
@click.option("--eps-list", "eps_text", required=True)
@click.option("--tmax", type=float, default=2.0)
@click.option("--steps", type=int, default=40)
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def approx(gen_path, eps_text, tmax, steps, tol, out):
    """Blend-vs-true-semigroup error sweep on a uniform time grid."""

    def run():
        eps_tol = tol if tol is not None else default_tol()
        obj = _load_json(gen_path)
        try:
            gens = [matrix_from_json(g) for g in obj["matrices"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed generators JSON: {exc}") from exc
        try:
            eps_list = [float(x) for x in eps_text.split(",") if x.strip()]
        except ValueError as exc:
            raise InputError(f"bad --eps-list: {exc}") from exc
        if not eps_list:
            raise InputError("--eps-list is empty")
        if steps < 1:
            raise InputError(f"--steps must be >= 1, got {steps}")
        d = len(gens)
        axis = [tmax * k / steps for k in range(steps + 1)]
        grid = list(itertools.product(axis, repeat=d))
        report = approx_error_sweep(gens, eps_list, grid, tol=eps_tol)
        _write_json(
            out,
            {
                "config": {
                    "command": "approx",
                    "generators": str(gen_path),
                    "eps_list": eps_list,
                    "tmax": tmax,
                    "steps": steps,
                    "tol": eps_tol,
                },
                "sweep": report,
            },
        )
        return EXIT_OK

    _run(run)


@main.command()
@click.option("--matrix", "matrix_path", required=True, type=click.Path())
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def structure(matrix_path, tol, out):
    """Operator class report for one matrix."""

    def run():
        eps = tol if tol is not None else default_tol()
        a = matrix_from_json(_load_json(matrix_path))
        report = structure_report(a, tol=eps)
        payload = report.to_json()
        payload["bimarkov"] = report.is_bimarkov
        payload["config"] = {
            "command": "structure",
            "matrix": str(matrix_path),
            "tol": eps,
        }
        _write_json(out, payload)
        return EXIT_OK

    _run(run)


@main.command()
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--N", "n_grid", required=True, type=int)
@click.option("--tol", type=float, default=None)
@click.option("--out", type=click.Path(), default=None)
def preserve(tuple_path, n_grid, tol, out):
    """Preservation suite for the grid semigroup of a tuple."""

    def run():
        eps = tol if tol is not None else default_tol()
        tup = _load_tuple(tuple_path, eps)
        report = preservation_suite(tup, n_grid, tol=eps)
        report["config"] = {
            "command": "preserve",
            "tuple": str(tuple_path),
            "N": n_grid,
            "tol": eps,
        }
        _write_json(out, report)
        return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED

    _run(run)


if __name__ == "__main__":
    main()
