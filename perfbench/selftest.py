"""Self-test of the benchmark at one trial per sweep cell.

    python3 perfbench/selftest.py

Checks, for every workload, that each metric named in BENCHMARK.json is
emitted with its unit (end-to-end with --trace 0, per-layer with
--trace 1), that traced and untraced rounds agree on the CSV digest,
and that a different --seed changes the digest.  Finally checks that the
benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.  Exits 1
and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(cwd: str, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _digest_line(lines) -> dict:
    line = next(ln for ln in lines if ln.startswith("digest "))
    return dict(tok.split("=", 1) for tok in line.split()[2:])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for name in workloads.NAMES:
        digests = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            code, lines = _run(ROOT, name, seed, trace)
            tag = f"{name} seed {seed} trace {trace}"
            if code != 0:
                problems.append(f"{tag}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics/units {got} != {want[trace]}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            fields = _digest_line(lines)
            if fields["rounds_agree"] != "True":
                problems.append(f"{tag}: round digests disagree")
            if trace == 0:
                digests[seed] = fields["sha256"]
        if len(set(digests.values())) != 2:
            problems.append(f"{name}: --seed does not change the CSV digest")

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = _run(bare, "line1d", 1, 0)
    if code == 0 or (lines and lines[-1].startswith("{")):
        problems.append("bare directory: ran or printed a result")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
