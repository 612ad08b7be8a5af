"""``scripts/report_digests.py`` prints the sha256 of each benchmark report."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"


def test_digests_name_each_report_and_repeat(tmp_path):
    def digests():
        done = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", "approx", "--seed", "1",
             "--dir", str(tmp_path)],
            capture_output=True, text=True, check=True,
        )
        return done.stdout.splitlines()

    first = digests()
    assert first and all(re.fullmatch(r"[0-9a-f]{64}  approx .+", line) for line in first)
    written = sorted(tmp_path.glob("*-out.json"))
    assert len(written) == len(first)
    assert sorted(hashlib.sha256(p.read_bytes()).hexdigest() for p in written) == sorted(
        line.split()[0] for line in first
    )
    assert digests() == first


def test_fields_digest_each_top_level_field(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "approx", "--seed", "1",
         "--dir", str(tmp_path), "--fields"],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  approx .+ \[\w+\]", line) for line in lines)
    want = []
    for path in sorted(tmp_path.glob("*-out.json")):
        for value in json.loads(path.read_text()).values():
            want.append(hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest())
    assert sorted(line.split()[0] for line in lines) == sorted(want)
    # Every report has a config field.
    reports = len(list(tmp_path.glob("*-out.json")))
    assert sum(line.endswith(" [config]") for line in lines) == reports


def test_calls_count_each_name_per_job(tmp_path):
    names = ["linalg.matrix_exp", "dilation._lattice_max"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "approx", "--seed", "1",
         "--dir", str(tmp_path), "--calls", names[0], "--calls", names[1]],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    jobs = len(list(tmp_path.glob("*-out.json")))
    assert jobs and len(lines) == 2 * jobs
    counts = {name: [] for name in names}
    for line in lines:
        match = re.fullmatch(r"(\d+)  approx .+ \[(\S+)\]", line)
        assert match, line
        counts[match[2]].append(int(match[1]))
    # Every approx job exponentiates, and none evaluates a torus lattice.
    assert len(counts[names[0]]) == jobs and all(calls > 0 for calls in counts[names[0]])
    assert counts[names[1]] == [0] * jobs
