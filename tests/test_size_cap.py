"""The size cap at its boundary, at every site that checks it.

Each row reaches one ``_check_cap`` call first, holding there the number
of entries the row names.  With DILATIONS_MAX_ENTRIES at that number the
call is admitted; one less and it is refused, with the site's own words.
So each threshold is pinned to the entry, and a site added to the
library without a row fails ``test_every_cap_site_has_a_row``.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dilations import interpolation
from dilations.cli import main
from dilations.dilation import (
    MultiPolynomial,
    egervary_dilation,
    power_dilation_verify,
    torus_sup,
    vn_search,
)
from dilations.interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    approx_error_sweep,
    compress_discretized,
    eval_discretized,
    multilinear_compress,
    semigroup_suite,
)
from dilations.linalg import InputError, kron, matrix_from_json, matrix_to_json
from dilations.structure import preservation_suite
from dilations.torus import GridTime, bscr_check

LIBRARY = Path(interpolation.__file__).parent


def run_cli(args):
    """Run a command; a refusal, exit 2, is raised as the InputError it printed."""
    result = CliRunner().invoke(main, args)
    if result.exit_code == 2:
        raise InputError(result.stderr.removeprefix("input error: ").rstrip("\n"))
    assert result.exit_code == 0, result.output


def cap_sites(tmp_path):
    """(entries, what, call) by site: ``call`` meets that site's cap first,
    with ``entries`` entries, and passes every other cap at that number."""
    half = 0.5 * np.eye(2)
    tup = ContractionTuple((half,))
    semi = DiscretizedSemigroup(tup, 2)
    scalar = ContractionTuple((np.array([[0.5]]),))
    cand = egervary_dilation(np.array([[0.5]]), 2)
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"matrices": [matrix_to_json(-half)]}))
    walk = "the walk to power 11 of a 2x2 matrix"
    return {
        "kron": (120, "the Kronecker product of shapes (2, 3) and (4, 5)",
                 lambda: kron(np.ones((2, 3)), np.ones((4, 5)))),
        "matrix_from_json": (12, "a 3x4 matrix",
                             lambda: matrix_from_json(matrix_to_json(np.ones((3, 4))))),
        "cli bscr": (16, "the 4x4 grid motion table", lambda: run_cli(["bscr", "--N", "4"])),
        "cli approx": (16, "the sweep's value grid", lambda: run_cli(
            ["approx", "--generators", str(gens), "--eps-list", "0.5", "--steps", "3"])),
        "bscr_check": (16, "the 4x4 grid motion table", lambda: bscr_check(4, 0, 0)),
        "eval_discretized": (16, "the dense 4x4 evaluation",
                             lambda: eval_discretized(semi, GridTime(2, (1,)))),
        "compress_discretized": (8, "the compression's block stack",
                                 lambda: compress_discretized(semi, GridTime(2, (1,)))),
        "semigroup_suite": (24, "the sum times' block stack", lambda: semigroup_suite(tup, 2, 2)),
        "approx_error_sweep": (12, "the sweep's value grid", lambda: approx_error_sweep(
            [-half], [0.5], [[0.0, 0.5, 1.0]])),
        "_grid_form floor": (44, walk, lambda: interpolation._grid_form(semi, GridTime(2, (20,)))),
        "_grid_forms floor": (44, walk, lambda: interpolation._grid_forms(semi, np.array([[20]]))),
        "multilinear_compress floor": (44, walk, lambda: multilinear_compress(tup, [10.5])),
        "preservation_suite": (32, "the suite times' block stack",
                               lambda: preservation_suite(tup, 2)),
        "vn_search": (4, "a 2x2 tuple member", lambda: vn_search(1, 2, 1, 1, 2)),
        "root table": (8, "the table of M = 8 roots of unity",
                       lambda: torus_sup(MultiPolynomial(d=1, terms={(1,): 1.0}), 8)),
        "power_dilation_verify": (9, "the big side of the power walk",
                                  lambda: power_dilation_verify(scalar, cand)),
        "egervary_dilation": (9, "the 3x3 dilation unitary",
                              lambda: egervary_dilation(np.array([[0.5]]), 2)),
    }


SITES = [
    "kron", "matrix_from_json", "cli bscr", "cli approx", "bscr_check", "eval_discretized",
    "compress_discretized", "semigroup_suite", "approx_error_sweep", "_grid_form floor",
    "_grid_forms floor", "multilinear_compress floor", "preservation_suite", "vn_search",
    "root table", "power_dilation_verify", "egervary_dilation",
]


@pytest.mark.parametrize("site", SITES)
def test_cap_admits_its_entries_and_refuses_one_more(monkeypatch, tmp_path, site):
    entries, what, call = cap_sites(tmp_path)[site]
    monkeypatch.setenv("DILATIONS_MAX_ENTRIES", str(entries))
    call()
    monkeypatch.setenv("DILATIONS_MAX_ENTRIES", str(entries - 1))
    with pytest.raises(InputError) as refusal:
        call()
    assert str(refusal.value) == (
        f"{what} needs {entries} entries, beyond the size cap of {entries - 1} "
        "(set DILATIONS_MAX_ENTRIES to override)"
    )


def test_every_cap_site_has_a_row(tmp_path):
    calls = [
        node for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_cap"
    ]
    assert len(calls) == len(SITES) == len(cap_sites(tmp_path))
