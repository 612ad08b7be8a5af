"""Seeded inputs, job lists and per-job oracles for the three workloads.

Inputs are built only through the public API of ``dilations``
(``ContractionTuple``, ``MultiPolynomial``, ``matrix_to_json`` and the
fixture loader) and written as the JSON files the CLI reads.  The seed
draws matrix entries, unitaries and coefficients; the job shapes (sizes,
grids, exponent patterns, eps lists) are fixed per workload, so every
seed runs the same amount of work and only the values differ (``vn-search``
alone draws its own polynomials, of one to four terms, from its seed).

Each job carries an oracle that inspects the parsed report and the exit
code and returns a list of problems; an empty list means the job is
correct.  Oracles recompute cheap quantities independently with numpy
and never call the function whose output they judge.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dilations import ContractionTuple, MultiPolynomial, matrix_to_json
from dilations.fixtures import load_crabb_davie


@dataclass
class Job:
    kind: str  # CLI command; warm-up runs one job per kind
    label: str
    argv: list[str]  # CLI arguments, ``--out`` excluded
    out: Path
    check: Callable[[dict, int], list[str]]


# ---------------------------------------------------------------- inputs


def _ginibre(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _unitary(rng, dim):
    q, r = np.linalg.qr(_ginibre(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _into_ball(m):
    norm = np.linalg.norm(m, 2)
    return m / (norm * (1 + 1e-12)) if norm > 1 else m


def contractions_in_one(rng, d, dim):
    """Cubic polynomials in one random contraction: commuting, not normal."""
    z = _into_ball(_ginibre(rng, dim))
    pows = [np.eye(dim, dtype=complex)]
    for _ in range(3):
        pows.append(pows[-1] @ z)
    mats = []
    for _ in range(d):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mats.append(_into_ball(sum(c * p for c, p in zip(coeffs, pows))))
    return ContractionTuple(tuple(mats), tol=1e-9)


def commuting_unitaries(rng, d, dim):
    """Diagonal phases conjugated by one common unitary."""
    q = _unitary(rng, dim)
    return ContractionTuple(
        tuple(
            q @ np.diag(np.exp(2j * np.pi * rng.random(dim))) @ q.conj().T
            for _ in range(d)
        ),
        tol=1e-9,
    )


def circulant_bimarkov(rng, d, dim):
    """Convex combinations of cyclic shift powers: commuting, doubly stochastic."""
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    pows = [np.linalg.matrix_power(shift, k) for k in range(dim)]
    mats = []
    for _ in range(d):
        w = rng.random(dim)
        mats.append(sum(x * p for x, p in zip(w / w.sum(), pows)))
    return ContractionTuple(tuple(mats), tol=1e-9)


def random_poly(rng, alphas):
    """Seeded complex coefficients on a fixed exponent pattern."""
    return MultiPolynomial(
        d=len(alphas[0]),
        terms={
            a: complex(rng.standard_normal(), rng.standard_normal()) for a in alphas
        },
    )


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


# --------------------------------------------------------------- oracles


def _matrix(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _poly_of(tup, poly) -> np.ndarray:
    out = np.zeros((tup.dim, tup.dim), dtype=complex)
    for alpha, coeff in poly.terms.items():
        term = np.eye(tup.dim, dtype=complex)
        for s, a in zip(tup.mats, alpha):
            term = term @ np.linalg.matrix_power(s, a)
        out += coeff * term
    return out


def _expect_code(code, want):
    return [] if code == want else [f"exit code {code}, expected {want}"]


def vn_oracle(tup, poly, grid, fixture=False):
    lhs_ref = float(np.linalg.norm(_poly_of(tup, poly), 2))
    coeff_abs = sum(abs(c) for c in poly.terms.values())
    at_one = abs(sum(poly.terms.values()))  # z = (1, ..., 1) is on every lattice
    pad_ref = math.pi / grid * sum(
        abs(c) * sum(a) for a, c in poly.terms.items()
    )

    def check(rep, code):
        problems = []
        verdict = rep.get("verdict")
        if verdict not in ("HOLDS", "VIOLATED", "INCONCLUSIVE"):
            return [f"unknown verdict {verdict!r}"]
        problems += _expect_code(code, 0 if verdict == "HOLDS" else 1)
        if abs(rep["lhs"] - lhs_ref) > 1e-9 * max(1.0, lhs_ref):
            problems.append(f"lhs {rep['lhs']} != independent {lhs_ref}")
        if not at_one - 1e-9 <= rep["grid_sup"] <= coeff_abs + 1e-9:
            problems.append(f"grid_sup {rep['grid_sup']} outside [{at_one}, {coeff_abs}]")
        if abs(rep["lipschitz_pad"] - pad_ref) > 1e-12 * max(1.0, pad_ref):
            problems.append(f"pad {rep['lipschitz_pad']} != {pad_ref}")
        if fixture:
            if abs(rep["lhs"] - 4.0) > 1e-9 or verdict != "VIOLATED":
                problems.append(f"fixture gave lhs {rep['lhs']} verdict {verdict}")
            if not rep["lhs"] - rep["sup_upper"] > 1e-3:
                problems.append(f"fixture margin {rep['lhs'] - rep['sup_upper']}")
        elif tup.d <= 2 and verdict == "VIOLATED":
            problems.append("VIOLATED for a d<=2 tuple")
        return problems

    return check


def vn_search_oracle(trials, want_violations):
    def check(rep, code):
        problems = _expect_code(code, 1 if want_violations else 0)
        kinds = [v["kind"] for v in rep["violations"]]
        want = ["fixture"] * want_violations
        if kinds != want:
            problems.append(f"violations {kinds}, expected {want}")
        if rep["cases"] != trials + want_violations:
            problems.append(f"cases {rep['cases']}")
        return problems

    return check


def dilate_oracle(s, m):
    dim = s.shape[0]

    def check(rep, code):
        problems = _expect_code(code, 0)
        ver = rep.get("verification", {})
        if not ver.get("passed") or rep["n_max"] != m:
            problems.append(f"verification {ver}")
        v = _matrix(rep["unitaries"][0])
        r = _matrix(rep["embedding"])
        if v.shape != (dim * (m + 1),) * 2:
            return problems + [f"unitary shape {v.shape}"]
        if np.abs(v.conj().T @ v - np.eye(v.shape[0])).max() > 1e-9:
            problems.append("dilation is not unitary")
        top = r.conj().T @ np.linalg.matrix_power(v, m) @ r
        if np.abs(top - np.linalg.matrix_power(s, m)).max() > 1e-8:
            problems.append("compressed V^m differs from S^m")
        return problems

    return check


def passed_oracle(required_class=None):
    def check(rep, code):
        problems = _expect_code(code, 0)
        if rep.get("passed") is not True:
            problems.append(f"passed={rep.get('passed')}")
        if required_class is not None:
            entry = rep["classes"][required_class]
            if not (entry["base_holds"] and entry["preserved"]):
                problems.append(f"class {required_class}: {entry}")
        return problems

    return check


def eval_oracle(tup, n_grid, nums):
    """Block-permutation structure of T(t), rebuilt from integer arithmetic."""
    d, dim = tup.d, tup.dim
    pts = np.stack(
        np.meshgrid(*[np.arange(n_grid)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    nums = np.asarray(nums)
    carry = (pts + nums % n_grid) >= n_grid
    target = (pts + nums) % n_grid
    weights = n_grid ** np.arange(d - 1, -1, -1)
    src_idx, tgt_idx = pts @ weights, target @ weights
    blocks = {}
    for key in {tuple(c) for c in carry.tolist()}:
        b = np.eye(dim, dtype=complex)
        for i, c in enumerate(key):
            b = b @ np.linalg.matrix_power(tup.mats[i], nums[i] // n_grid + c)
        blocks[key] = b

    def check(rep, code):
        problems = _expect_code(code, 0)
        mat = _matrix(rep["result"])
        total = n_grid**d * dim
        if mat.shape != (total, total):
            return problems + [f"shape {mat.shape}"]
        tiles = mat.reshape(n_grid**d, dim, n_grid**d, dim)
        expected_abs = 0.0
        for s, t, c in zip(src_idx, tgt_idx, carry.tolist()):
            b = blocks[tuple(c)]
            expected_abs += np.abs(b).sum()
            if np.abs(tiles[t, :, s, :] - b).max() > 1e-12:
                problems.append(f"block at source {s} differs")
                break
        if abs(np.abs(mat).sum() - expected_abs) > 1e-9 * max(1.0, expected_abs):
            problems.append("entries outside the permutation blocks")
        return problems

    return check


def bscr_oracle(rep, code):
    problems = _expect_code(code, 0)
    if rep["max_deviation"] != 0.0:
        problems.append(f"max_deviation {rep['max_deviation']}")
    return problems


def approx_oracle(n_eps):
    def check(rep, code):
        problems = _expect_code(code, 0)
        errs = [row["sup_error"] for row in rep["sweep"]]
        if len(errs) != n_eps:
            return problems + [f"{len(errs)} sweep rows, expected {n_eps}"]
        if any(b > a + 1e-9 for a, b in zip(errs, errs[1:])):
            problems.append(f"sup_error not non-increasing: {errs}")
        if not errs[-1] < 0.1:
            problems.append(f"final sup_error {errs[-1]}")
        return problems

    return check


# ------------------------------------------------------------- workloads
#
# Each builder returns its jobs with the cheapest job of every kind
# first, so the warm-up (first job per kind) stays short.

VN_ALPHAS = {
    2: [(1, 0), (0, 2), (2, 1), (3, 3)],
    3: [(1, 1, 1), (2, 0, 1), (0, 3, 0), (1, 2, 3)],
}


def certify_jobs(rng_for, run_dir: Path) -> list[Job]:
    """vN certification: lattice evaluation in ``torus_sup`` dominates."""
    jobs = []
    # Every grid for d=2, dims alternating: lattice cost does not grow
    # with dim, so the full cross product would only repeat work.  d=2
    # lattices take milliseconds, so d=3 carries both dims at the larger
    # grids; that puts the median job on a lattice, not on a tiny job.
    for d, dim, grid in ((2, 4, 64), (2, 8, 128), (2, 4, 256),
                         (3, 4, 128), (3, 8, 128), (3, 4, 256), (3, 8, 256)):
        rng = rng_for("vn", d, dim, grid)
        tup = contractions_in_one(rng, d, dim)
        poly = random_poly(rng, VN_ALPHAS[d])
        stem = f"vn-d{d}-dim{dim}-g{grid}"
        jobs.append(
            Job(
                "vn",
                f"vn d={d} dim={dim} grid={grid}",
                [
                    "vn",
                    "--tuple", _write(run_dir / f"{stem}-tuple.json", tup.to_json()),
                    "--poly", _write(run_dir / f"{stem}-poly.json", poly.to_json()),
                    "--grid", str(grid),
                ],
                run_dir / f"{stem}-out.json",
                vn_oracle(tup, poly, grid),
            )
        )
    tup, poly = load_crabb_davie()
    jobs.append(
        Job(
            "vn",
            "vn fixture grid=256",
            [
                "vn",
                "--tuple", _write(run_dir / "fixture-tuple.json", tup.to_json()),
                "--poly", _write(run_dir / "fixture-poly.json", poly.to_json()),
                "--grid", "256",
            ],
            run_dir / "fixture-out.json",
            vn_oracle(tup, poly, 256, fixture=True),
        )
    )
    search_seed = int(rng_for("vn-search").integers(0, 2**31 - 1000))
    jobs.append(
        Job(
            "vn-search",
            "vn-search d=2 dim=4 trials=500 grid=64",
            ["vn-search", "--d", "2", "--dim", "4", "--trials", "500",
             "--seed", str(search_seed), "--grid", "64"],
            run_dir / "search-d2-out.json",
            vn_search_oracle(500, 0),
        )
    )
    jobs.append(
        Job(
            "vn-search",
            "vn-search d=3 dim=8 trials=4 grid=128 +fixture",
            ["vn-search", "--d", "3", "--dim", "8", "--trials", "4",
             "--seed", str(search_seed + 500), "--grid", "128", "--include-fixture"],
            run_dir / "search-d3-out.json",
            vn_search_oracle(4, 1),
        )
    )
    for m in (6, 24):
        rng = rng_for("dilate", m)
        s = _ginibre(rng, 4)
        s = s * (0.99 / np.linalg.norm(s, 2))
        jobs.append(
            Job(
                "dilate",
                f"dilate dim=4 m={m}",
                ["dilate", "--matrix", _write(run_dir / f"dilate-{m}.json", matrix_to_json(s)),
                 "--m", str(m), "--verify"],
                run_dir / f"dilate-{m}-out.json",
                dilate_oracle(s, m),
            )
        )
    return jobs


def semigroup_jobs(rng_for, run_dir: Path) -> list[Job]:
    """Grid semigroups: dense assembly, matmul and SVD dominate."""
    jobs = []
    # interp check, total_dim N^d*dim in [16, 128]; d=3 stops at N=2.
    for d, n_grid, dim in ((1, 8, 2), (2, 2, 4), (3, 2, 2), (1, 16, 4),
                           (2, 4, 4), (3, 2, 8), (1, 16, 8)):
        tup = contractions_in_one(rng_for("check", d, n_grid, dim), d, dim)
        stem = f"check-d{d}-N{n_grid}-dim{dim}"
        jobs.append(
            Job(
                "interp check",
                f"interp check d={d} N={n_grid} dim={dim}",
                ["interp", "check", "--tuple",
                 _write(run_dir / f"{stem}.json", tup.to_json()), "--N", str(n_grid)],
                run_dir / f"{stem}-out.json",
                passed_oracle(),
            )
        )
    # preserve, total_dim up to 256.
    for family, cls, d, n_grid, dim in (
        ("unitary", "unitary", 1, 4, 16),
        ("circulant", "bimarkov", 2, 2, 16),
        ("unitary", "unitary", 2, 2, 32),
        ("circulant", "bimarkov", 1, 2, 128),
    ):
        make = commuting_unitaries if family == "unitary" else circulant_bimarkov
        tup = make(rng_for("preserve", family, d, n_grid, dim), d, dim)
        stem = f"preserve-{family}-d{d}-N{n_grid}-dim{dim}"
        jobs.append(
            Job(
                "preserve",
                f"preserve {family} d={d} N={n_grid} dim={dim}",
                ["preserve", "--tuple",
                 _write(run_dir / f"{stem}.json", tup.to_json()), "--N", str(n_grid)],
                run_dir / f"{stem}-out.json",
                passed_oracle(cls),
            )
        )
    # interp eval writes the dense evaluation, total_dim up to 512.
    for d, n_grid, dim, nums in ((2, 4, 4, (5, 3)), (1, 64, 4, (100,)),
                                 (3, 4, 4, (1, 6, 3)), (2, 16, 2, (7, 40))):
        tup = contractions_in_one(rng_for("eval", d, n_grid, dim), d, dim)
        stem = f"eval-d{d}-N{n_grid}-dim{dim}"
        jobs.append(
            Job(
                "interp eval",
                f"interp eval d={d} N={n_grid} dim={dim}",
                ["interp", "eval", "--tuple",
                 _write(run_dir / f"{stem}.json", tup.to_json()), "--N", str(n_grid),
                 "--t", ",".join(f"{k}/{n_grid}" for k in nums)],
                run_dir / f"{stem}-out.json",
                eval_oracle(tup, n_grid, nums),
            )
        )
    jobs.append(Job("bscr", "bscr N=16", ["bscr", "--N", "16"],
                    run_dir / "bscr-out.json", bscr_oracle))
    return jobs


APPROX_SPECTRA = {
    2: [(-1.0, -3.0), (-2.0, -1.0)],  # the acceptance gate's criterion-7 spectra
    4: [(-1.0, -3.0, -0.5, -2.0), (-2.0, -1.0, -1.5, -0.25)],
}


def approx_jobs(rng_for, run_dir: Path) -> list[Job]:
    """Blend-vs-exp sweeps: thousands of tiny ``matrix_exp``/``op_norm`` calls."""
    jobs = []
    # (d, dim, steps, number of eps values halving down to 1/64).  An even
    # count makes job_s.p50 the mean of the two middle jobs, which together
    # take 40% of a pass; a single middle job is measured too briefly per
    # run to be steady on a noisy host.
    for d, dim, steps, n_eps in ((1, 4, 40, 6), (2, 4, 20, 4), (2, 2, 24, 5),
                                 (2, 2, 40, 6)):  # the last is criterion 7's
        q = _unitary(rng_for("approx", d, dim, steps), dim)
        gens = [q @ np.diag(spec) @ q.conj().T for spec in APPROX_SPECTRA[dim][:d]]
        eps = [2.0 ** -k for k in range(7 - n_eps, 7)]
        stem = f"approx-d{d}-dim{dim}-s{steps}"
        jobs.append(
            Job(
                "approx",
                f"approx d={d} dim={dim} steps={steps} eps={n_eps}",
                ["approx", "--generators",
                 _write(run_dir / f"{stem}.json",
                        {"matrices": [matrix_to_json(g) for g in gens]}),
                 "--eps-list", ",".join(repr(e) for e in eps),
                 "--tmax", "2", "--steps", str(steps)],
                run_dir / f"{stem}-out.json",
                approx_oracle(n_eps),
            )
        )
    return jobs


WORKLOADS = {
    "certify": certify_jobs,
    "semigroup": semigroup_jobs,
    "approx": approx_jobs,
}


def build(workload: str, seed: int, run_dir: Path) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``run_dir``; return its jobs.

    Each job draws from its own stream, keyed by the seed and the job's
    shape, so adding or reordering jobs leaves the other inputs unchanged.
    """

    def rng_for(*key):
        return np.random.default_rng([seed, zlib.crc32(repr(key).encode())])

    run_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](rng_for, run_dir)
