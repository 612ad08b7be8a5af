"""Command-line front end.

Every command is registered through one skeleton, ``_report_command``,
which owns what the commands share: the ``--out`` option and, for all
but ``bscr``, ``--tol``; resolving ``--tol`` by the DILATIONS_TOL rule;
building the report's ``config`` from the command's own options;
mapping input and numerical errors to their exit codes and a message on
stderr, and library warnings to ``warning:`` lines there; writing the
report to stdout or ``--out``, either of which is an input error when it
cannot be written; and exiting with the code the command returns.  A
command body only loads its inputs, calls the library, puts ``config``
in its report and returns ``(report, exit_code)``.

Reports are written byte-identically to ``json.dumps(report, indent=2)``
plus a newline, for the report with every array replaced by its
``tolist()``.  The matrix payloads of ``interp eval``, ``dilate`` and
``parrott`` hold their data as float64 arrays of (re, im) pairs until the
writer renders them: a finite array is rendered from its floats by
string joins and streamed to the output in chunks, and the rest of the
report, including payloads that are still lists, goes through
``json.dumps`` itself.

Exit codes: 0 all checks passed / inequality HOLDS; 1 a check failed or
a violation was found (report still written); 2 input or format error;
3 numerical error.

Environment overrides: DILATIONS_TOL (default comparison tolerance) and
DILATIONS_MAX_ENTRIES (the size cap on the entries one step holds).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import sys
import warnings

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
    _check_cap,
    _check_tol,
    _listed,
    _matrix_payload,
    default_tol,
    matrix_from_json,
)
from .structure import preservation_suite, structure_report
from .torus import GridTime, bscr_check, bscr_trace, trace_to_csv_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix(path):
    return matrix_from_json(_load_json(path))


def _load_tuple(path, tol):
    return ContractionTuple.from_json(_load_json(path), tol=tol)


# Matrix data pairs rendered per piece of a streamed report.
_CHUNK_PAIRS = 4096
# Stands in for a matrix's data array in the report skeleton; no report
# string holds a NUL, and the split in _report_pieces checks that anyway.
_HOLE = "\x00matrix data"


def _renderable(data) -> bool:
    """Whether ``data`` is a non-empty float64 array of finite (re, im) pairs."""
    return (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and data.ndim == 2
        and data.shape[1] == 2
        and len(data) > 0
        and bool(np.isfinite(data).all())
    )


def _pair_template(indent):
    """One [re, im] pair of a data list whose key line is indented by ``indent``."""
    inner = indent + "  "
    return f"{inner}[\n{inner}  %r,\n{inner}  %r\n{inner}]"


def _data_pieces(data, indent):
    """``json.dumps(data.tolist(), indent=2)`` for an array of finite
    float pairs, in chunks.

    ``%r`` is ``float.__repr__``, which is what ``json`` writes for a
    finite float.  Only the nonzero pairs go through it, in one ``%`` per
    chunk; a (+0.0, +0.0) pair, found by all its bits being 0 (so a -0.0
    keeps the ``%r`` route), is one string rendered once.
    """
    pair = _pair_template(indent)
    zero_pair = pair % (0.0, 0.0)
    separator = "[\n"
    for start in range(0, len(data), _CHUNK_PAIRS):
        chunk = data[start : start + _CHUNK_PAIRS]
        bits = chunk.view(np.uint64)
        nonzero = np.flatnonzero(bits[:, 0] | bits[:, 1]).tolist()
        texts = [zero_pair] * len(chunk)
        # NUL, which no pair text holds, separates the rendered nonzero pairs.
        rendered = "\0".join([pair] * len(nonzero)) % tuple(chunk[nonzero].ravel().tolist())
        for k, text in zip(nonzero, rendered.split("\0")):
            texts[k] = text
        yield separator
        yield ",\n".join(texts)
        separator = ",\n"
    yield f"\n{indent}]"


def _spliced(parts, held):
    yield parts[0]
    for before, data, after in zip(parts, held, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        yield from _data_pieces(data, line[: len(line) - len(line.lstrip(" "))])
        yield after
    yield "\n"


def _report_pieces(report):
    """The text of a report, as pieces to write in order.

    A list report is its lines.  Any other report is exactly
    ``json.dumps(listed, indent=2) + "\n"``, where ``listed`` is the report
    with every array replaced by its ``tolist()``.  Matrix payloads hold
    their data as float64 arrays of (re, im) pairs (``_matrix_payload``).
    ``json.dumps`` writes the report with each finite pair array cut out:
    its ``default`` hook, called in write order, holds the array and
    leaves ``_HOLE`` in its place, and each held array is rendered into
    its hole with the indentation of the line it sits on.  Any other array
    is written by ``json`` as its ``tolist()``, so non-finite entries keep
    the spelling ``NaN`` / ``Infinity``.  ``json.dumps`` runs before this
    returns, so a report it cannot encode fails before the output is opened.
    """
    if isinstance(report, list):
        return ["\n".join(report), "\n"]
    held = []

    def hold(obj):
        if _renderable(obj):
            held.append(obj)
            return _HOLE
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    parts = json.dumps(report, indent=2, default=hold).split(json.dumps(_HOLE))
    if len(parts) != len(held) + 1:
        return [json.dumps(_listed(report), indent=2), "\n"]
    return _spliced(parts, held)


def _write_report(pieces, out) -> None:
    """Write the pieces to ``out``, or to stdout when it is None.  An output
    that cannot be written, such as a closed pipe or a full disk, is an
    input error; stdout is then pointed at ``os.devnull``, so the
    interpreter's flush at exit drops what is still buffered, silently."""
    try:
        with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w") as handle:
            handle.writelines(pieces)
            handle.flush()
    except OSError as exc:
        if out is None:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise InputError(f"cannot write {'stdout' if out is None else out}: {exc}") from exc


def _report_command(group, name=None, tol=True):
    """Register the decorated body as command ``name`` of ``group``.

    The body receives its own options, the resolved ``tol`` unless ``tol``
    is false, and ``config``, and returns ``(report, exit_code)``.
    ``config`` is the command path under ``"command"``, then each option
    but ``--out`` in the body's parameter order, keyed by its long flag
    without dashes and with inner dashes as underscores, holding its parsed
    value (for ``tol``, the resolved one); the body may refine a resolved
    value and puts ``config`` in its report.  Each warning the body raises
    is one ``warning: <message>`` line on stderr.  A dict report is written
    as indented JSON, byte-identical to ``json.dumps(report, indent=2)``
    plus a newline, with its matrix payloads streamed in chunks (see
    ``_report_pieces``); a list report is written as text lines.  ``--out``
    is opened once the report is encoded, and stdout or an ``--out`` that
    cannot be written is an input error (``_write_report``).  ``--help``
    lists the options in the order of the body's parameters, then ``--out``.
    """

    def register(body):
        shared = [click.Option(["--out"], type=click.Path(), default=None)]
        if tol:
            shared.append(click.Option(["--tol"], type=float, default=None))
        order = [*inspect.signature(body).parameters, "out"]
        params = sorted(
            [*body.__click_params__, *shared], key=lambda p: order.index(p.name)
        )
        leaf = name or body.__name__
        path = leaf if group is main else f"{group.name} {leaf}"
        keys = {p.name: p.opts[0][2:].replace("-", "_") for p in params if p.name != "out"}

        def command(out, **options):
            try:
                if tol:
                    given = options["tol"]
                    options["tol"] = (
                        default_tol() if given is None else _check_tol(given, "--tol")
                    )
                config = {"command": path, **{key: options[name] for name, key in keys.items()}}
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", UserWarning)
                    try:
                        report, code = body(**options, config=config)
                    finally:
                        for warning in caught:
                            click.echo(f"warning: {warning.message}", err=True)
                _write_report(_report_pieces(report), out)
            except InputError as exc:
                click.echo(f"input error: {exc}", err=True)
                sys.exit(EXIT_INPUT_ERROR)
            except NumericalError as exc:
                click.echo(f"numerical error: {exc}", err=True)
                sys.exit(EXIT_NUMERICAL_ERROR)
            sys.exit(code)

        return group.command(leaf, params=params, help=body.__doc__)(command)

    return register


@click.group()
def main():
    """Verification toolkit for semigroup interpolation of commuting
    contractions, dilations, and the polynomial inequality on the torus."""


@main.group()
def interp():
    """Discretised semigroup evaluation and property suites."""


@_report_command(interp, "eval")
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--N", "n_grid", required=True, type=int)
@click.option("--t", "time_text", required=True)
def interp_eval(tuple_path, n_grid, time_text, tol, config):
    """Evaluate the grid semigroup at one grid time."""
    tup = _load_tuple(tuple_path, tol)
    t = GridTime.parse(time_text, n_grid)
    mat = eval_discretized(DiscretizedSemigroup(tup, n_grid), t)
    config["t"] = str(t)
    return {"config": config, "result": _matrix_payload(mat)}, EXIT_OK


@_report_command(interp, "check")
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--N", "n_grid", required=True, type=int)
@click.option("--max-num", type=int, default=None, help="Numerator bound (default 2N).")
def interp_check(tuple_path, n_grid, max_num, tol, config):
    """Full property suite: homomorphism, interpolation, contractivity,
    commutation, and the compression identity."""
    tup = _load_tuple(tuple_path, tol)
    bound = max_num if max_num is not None else 2 * n_grid
    config["max_num"] = bound
    suite = semigroup_suite(tup, n_grid, bound)
    code = EXIT_OK if suite["passed"] else EXIT_CHECK_FAILED
    return {"config": config, **suite}, code


@_report_command(main, tol=False)
@click.option("--N", "n_grid", required=True, type=int)
@click.option("--trace", "trace_text", default=None, help="Pair s,t of grid times for a trace.")
def bscr(n_grid, trace_text, config):
    """Exhaustive commutation-relation check on the grid; optional trace CSV."""
    if n_grid < 1:
        raise InputError(f"N must be >= 1, got {n_grid}")
    # bscr_check's cap, before the 2N times are listed
    _check_cap(n_grid * n_grid, f"the {n_grid}x{n_grid} grid motion table")
    nums = np.arange(2 * n_grid)
    worst = bscr_check(n_grid, nums[:, None], nums)
    code = EXIT_OK if worst == 0.0 else EXIT_CHECK_FAILED
    if trace_text is None:
        del config["trace"]
        return {"config": config, "max_deviation": worst, "passed": worst == 0.0}, code
    pair = GridTime.parse(trace_text, n_grid)
    if pair.d != 2:
        raise InputError("--trace expects exactly two grid times s,t")
    s_num, t_num = pair.nums
    rows = bscr_trace(n_grid, s_num, t_num, np.ones(n_grid, dtype=np.complex128))
    return trace_to_csv_rows(rows), code


@_report_command(main)
@click.option("--r1", "r1_path", required=True, type=click.Path())
@click.option("--r2", "r2_path", required=True, type=click.Path())
@click.option("--allow-contraction-r2", is_flag=True, default=False)
def parrott(r1_path, r2_path, tol, allow_contraction_r2, config):
    """Build the commuting triple (R1 x E21, R2 x E21, I x E21)."""
    r1 = _load_matrix(r1_path)
    r2 = _load_matrix(r2_path)
    tup = parrott_tuple(
        r1, r2, tol=tol, allow_contraction_r2=allow_contraction_r2
    )
    return {**tup._payload(), "config": config}, EXIT_OK


@_report_command(main)
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--poly", "poly_path", required=True, type=click.Path())
@click.option("--grid", "grid_m", type=int, default=64)
def vn(tuple_path, poly_path, grid_m, tol, config):
    """Check the polynomial inequality with a certified torus bound."""
    tup = _load_tuple(tuple_path, tol)
    poly = MultiPolynomial.from_json(_load_json(poly_path))
    report = vn_check(tup, poly, grid_m, tol=tol)
    code = EXIT_OK if report.verdict == "HOLDS" else EXIT_CHECK_FAILED
    return {**report.to_json(), "config": config}, code


@_report_command(main, "vn-search")
@click.option("--d", "arity", required=True, type=int)
@click.option("--dim", required=True, type=int)
@click.option("--trials", required=True, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--grid", "grid_m", type=int, default=64)
@click.option("--include-fixture", is_flag=True, default=False,
              help="Append the shipped dim-8 counterexample to the pool.")
def vn_search_cmd(arity, dim, trials, seed, grid_m, include_fixture, tol, config):
    """Randomized violation search over commuting tuples (seeded)."""
    extra = [fixtures.load_crabb_davie()] if include_fixture else []
    report = vn_search(arity, dim, trials, seed, grid_m, extra_cases=extra, tol=tol)
    report["config"] = config
    return report, EXIT_CHECK_FAILED if report["violations"] else EXIT_OK


@_report_command(main)
@click.option("--matrix", "matrix_path", required=True, type=click.Path())
@click.option("--m", "steps", required=True, type=int)
@click.option("--verify", is_flag=True, default=False)
def dilate(matrix_path, steps, verify, tol, config):
    """Unitary m-dilation of a single contraction, optionally verified."""
    s = _load_matrix(matrix_path)
    cand = egervary_dilation(s, steps, tol=tol)
    report = {**cand._payload(), "config": config}
    if not verify:
        return report, EXIT_OK
    check = power_dilation_verify(ContractionTuple((s,), tol=tol), cand, tol=tol)
    report["verification"] = check
    return report, EXIT_OK if check["passed"] else EXIT_CHECK_FAILED


@_report_command(main)
@click.option("--generators", "gen_path", required=True, type=click.Path())
@click.option("--eps-list", "eps_text", required=True)
@click.option("--tmax", type=float, default=2.0)
@click.option("--steps", type=int, default=40)
def approx(gen_path, eps_text, tmax, steps, tol, config):
    """Blend-vs-true-semigroup error sweep on a uniform time grid."""
    obj = _load_json(gen_path)
    try:
        gens = [matrix_from_json(g) for g in obj["matrices"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed generators JSON: {exc}") from exc
    try:
        eps_list = [float(x) for x in eps_text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad --eps-list: {exc}") from exc
    config["eps_list"] = eps_list
    if not eps_list:
        raise InputError("--eps-list is empty")
    if steps < 1:
        raise InputError(f"--steps must be >= 1, got {steps}")
    if not (math.isfinite(tmax) and tmax >= 0):
        raise InputError(f"--tmax must be finite and nonnegative, got {tmax}")
    if gens:  # the sweep's cap on its grid values, before the axis is listed
        _check_cap((steps + 1) ** len(gens) * gens[0].shape[0] ** 2, "the sweep's value grid")
    axis = [tmax * k / steps for k in range(steps + 1)]
    sweep = approx_error_sweep(gens, eps_list, [axis] * len(gens), tol=tol)
    return {"config": config, "sweep": sweep}, EXIT_OK


@_report_command(main)
@click.option("--matrix", "matrix_path", required=True, type=click.Path())
def structure(matrix_path, tol, config):
    """Operator class report for one matrix."""
    report = structure_report(_load_matrix(matrix_path), tol=tol)
    payload = report.to_json()
    payload["bimarkov"] = report.holds("bimarkov")
    payload["config"] = config
    return payload, EXIT_OK


@_report_command(main)
@click.option("--tuple", "tuple_path", required=True, type=click.Path())
@click.option("--N", "n_grid", required=True, type=int)
def preserve(tuple_path, n_grid, tol, config):
    """Preservation suite for the grid semigroup of a tuple."""
    tup = _load_tuple(tuple_path, tol)
    report = preservation_suite(tup, n_grid, tol=tol)
    report["config"] = config
    return report, EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    main()
