#!/usr/bin/env python3
"""Print the sha256 of every report a benchmark workload writes.

    python scripts/report_digests.py --workload semigroup --seed 1 --dir /tmp/digests
    python scripts/report_digests.py --workload certify --seed 1 --dir /tmp/digests --fields

Writes the inputs of ``perfbench/jobs.build`` for the workload and seed
into ``--dir``, runs every job through ``dilations.cli.main`` in-process
with the benchmark's environment (one BLAS thread, no DILATIONS_TOL or
DILATIONS_MAX_ENTRIES), and prints one ``<sha256>  <label>`` line per
report, in job order.  Reports echo their input paths in ``config``, so
two source trees write comparable reports only when both runs get the
same ``--dir``; comparing the printed lines then shows whether a change
keeps every report byte-identical.  With ``--fields`` it prints instead
one ``<sha256>  <label> [<field>]`` line per top-level field of each
report, the sha256 of that field's value as sorted-key JSON, so the same
comparison names the fields that moved.  With ``--calls NAME``
(repeatable, NAME a function such as ``dilation._chunk_max``) it prints
instead one ``<calls>  <label> [<NAME>]`` line per job and name: how
often the job called ``dilations.NAME``, counted through every binding of
that function in a ``dilations.*`` module, so the lines show which jobs
reach a code path.  The ``dilations`` sources are those next to this
script; ``perfbench`` is only read.

    python scripts/report_digests.py --workload certify --seed 1 --dir /tmp/digests \
        --calls dilation._lattice_max --calls dilation._chunk_max
"""

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def count_calls(names) -> dict:
    """Rebind each function ``dilations.<NAME>`` of ``names`` to a counting
    wrapper in every loaded ``dilations.*`` module that holds it; return
    the dict of counts by name, which the wrappers increment."""
    counts = dict.fromkeys(names, 0)
    modules = [
        module for key, module in list(sys.modules.items())
        if key == "dilations" or key.startswith("dilations.")
    ]
    for name in counts:
        owner, _, attr = name.rpartition(".")
        fn = getattr(importlib.import_module(f"dilations.{owner}"), attr)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, counting)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "semigroup", "approx"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--fields", action="store_true", help="one digest per top-level field")
    parser.add_argument("--calls", action="append", default=[], metavar="NAME",
                        help="count the calls of dilations.NAME per job instead (repeatable)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(PERFBENCH))
    import run

    run.prepare_environment()  # before numpy is imported

    import jobs as jobs_mod
    from dilations import cli

    jobs = jobs_mod.build(args.workload, args.seed, args.dir.resolve())
    counts = count_calls(args.calls)
    for job in jobs:
        counts.update(dict.fromkeys(counts, 0))
        try:
            cli.main(job.argv + ["--out", str(job.out)], standalone_mode=False)
        except SystemExit:
            pass  # the exit code is the verdict; the report is what is compared
        if counts:
            for name, calls in counts.items():
                print(f"{calls}  {job.label} [{name}]")
            continue
        if not args.fields:
            print(f"{digest(job.out.read_bytes())}  {job.label}")
            continue
        for field, value in json.loads(job.out.read_bytes()).items():
            print(f"{digest(json.dumps(value, sort_keys=True).encode())}  {job.label} [{field}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
