"""noisysft benchmark: Monte Carlo sweeps through the public CLI.

    python3 perfbench/run.py --workload {line1d,perc2d,grid2d} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; nothing needs installing.  A
workload is a list of CLI calls (workloads.py), each run with
`--threads 1` and the workload seed as `--seed`.  A round is one fresh
interpreter that makes one call through `noisysft.cli.main(argv)`.
Rounds cycle over the calls until the next cycle would end after S
seconds (at least two cycles; with `--trace 1` at least one, each call
untraced then traced).  A few bare interpreters first only import
`noisysft.cli`, to sample set-up time.

Times are rescaled to a reference host speed.  The 2-vCPU virtual
machine the benchmark was tuned on swings between speeds up to 1.5x
apart over tens of seconds, because of load outside it, so raw wall
times of the same work spread far more than a useful regression bound.  Each worker therefore times
a fixed reference kernel (worker.reference_kernel) next to what it
measures, and a time t becomes t * REF_S / kernel time.  Raw wall-clock
throughput is printed and kept in the manifest as `raw_cells_per_s`.

`--trace 0` reports the end-to-end metrics:
  cells_per_s  box cells x trials x sweep cells over one pass, divided by
               the pass's wall time (each call's median over its rounds)
  setup_s      interpreter launch until `noisysft.cli` is imported; median
  peak_rss_mb  peak resident memory of a round's process; maximum
`--trace 1` reports per-layer self time and counts (tracer.py) over one
pass, plus `trace.overhead_s`, the traced minus the untraced pass time.

A sweep cell fails when its CLI call exits nonzero, its theorem row
misses its check (workloads.py), or the exact oracle rejects a replayed
repair (oracle.py).  `failed_frac` = failed / attempted sweep cells is
printed by name; the result's `attempted` and `failed` fields carry the
same counts.  The run is also incorrect when a call's CSV sha256 differs
between rounds, between traced and untraced rounds, or the workload
digest differs from an earlier run of the same source tree and seed
(ledger in .perfbench_out/).  A manifest with the environment, digests
and raw timings is written there too.

`--tiny` cuts every call to one trial; selftest.py uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_PROBES = 3
MIN_CYCLES = 2
DEADLINE_S = 170  # a run must end within 180 s
# Reference speed: the host speed at which worker.reference_kernel takes
# 50 ms (its time on a 2-vCPU x86 virtual machine).  Every time reported
# is rescaled to it by the kernel's time measured next to the timing.
REF_S = 0.05
END_TO_END_UNITS = {"cells_per_s": "cells/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _spawn(args, mode: str, **params) -> dict:
    """Run one worker to completion (killed at the run's deadline)."""
    launched = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, repr(launched), json.dumps(params)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(args.deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker still running at the deadline") \
            from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _src_tree() -> tuple[str, int]:
    """sha256 over the files under src/ and the line count of its .py files."""
    digest = hashlib.sha256()
    lines = 0
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
            if name.endswith(".py"):
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or \
            os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return None
    return out[1]


def _ledger_check(key: str, src_sha: str, digest: str) -> bool:
    """Record the digest; False if this source tree gave another before."""
    path = os.path.join(OUT, "digests.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    seen = ledger.setdefault(src_sha, {}).setdefault(key, digest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    return seen == digest


def _rounds(args, ncalls: int) -> tuple[list[dict], list[dict]]:
    """Untraced and traced rounds, cycling over the workload's calls (each
    untraced, then traced with `--trace 1`) until the next round would end
    after the window; at least MIN_CYCLES cycles, or one when tracing."""
    plain, traced = [], []
    start = time.perf_counter()
    min_rounds = ncalls * (1 if args.trace else MIN_CYCLES)
    for i in itertools.count():
        call = i % ncalls
        for trace in ((False, True) if args.trace else (False,)):
            res = _spawn(args, "round", workload=args.workload, call=call,
                         seed=args.seed, out_dir=args.csv_dir,
                         tiny=args.tiny, trace=trace)
            (traced if trace else plain).append(res)
        elapsed = time.perf_counter() - start
        if i + 1 >= min_rounds and elapsed * (i + 2) / (i + 1) > args.seconds:
            return plain, traced


def _by_call(rounds: list[dict], ncalls: int) -> list[list[dict]]:
    return [[r for r in rounds if r["call"] == i] for i in range(ncalls)]


def _speed(res: dict) -> float:
    """Factor that rescales a time measured by a worker to reference speed."""
    return REF_S / res["ref_s"]


def _pass_wall(rounds: list[dict], ncalls: int, scaled: bool = True) -> float:
    """Wall time of one pass over the calls: each call's median, summed."""
    return sum(statistics.median(r["wall_s"] * (_speed(r) if scaled else 1)
                                 for r in per)
               for per in _by_call(rounds, ncalls))


def run(args) -> int:
    if not os.path.exists(os.path.join(ROOT, "src", "noisysft", "cli.py")):
        print("error: no noisysft sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    args.csv_dir = os.path.join(OUT, f"csv-{args.workload}-s{args.seed}")
    os.makedirs(args.csv_dir, exist_ok=True)
    calls = workloads.workload(args.workload, args.tiny)
    n = len(calls)

    probes = [_spawn(args, "setup") for _ in range(SETUP_PROBES)]
    plain, traced = _rounds(args, n)
    oracle = _spawn(args, "oracle", workload=args.workload, seed=args.seed,
                    tiny=args.tiny)["verdicts"]
    rounds = plain + traced
    setup = [r["setup_s"] * _speed(r) for r in probes + rounds]

    attempted = failed = 0
    for r in rounds:
        attempted += len(r["verdicts"])
        failed += sum(not (a and b)
                      for a, b in zip(r["verdicts"], oracle[r["call"]]))
    first = [per[0] for per in _by_call(plain, n)]
    call_digests = [r["sha256"] for r in first]
    digest = hashlib.sha256()
    for i in range(n):  # each call's CSV as the last round left it
        path = os.path.join(args.csv_dir, f"call{i}.csv")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest.update(fh.read())
    digest = digest.hexdigest()
    agree = all(r["sha256"] == call_digests[r["call"]] for r in rounds)
    src_sha, src_lines = _src_tree()
    key = f"{args.workload}:seed={args.seed}:tiny={int(args.tiny)}"
    ledger_ok = _ledger_check(key, src_sha, digest)
    correct = failed == 0 and agree and ledger_ok

    if args.trace:
        values = tracer.summarise(
            [[{k: dict(v, self_s=v["self_s"] * _speed(r))
               for k, v in r["layers"].items()} for r in per]
             for per in _by_call(traced, n)])
        values[tracer.OVERHEAD] = _pass_wall(traced, n) - _pass_wall(plain, n)
        units = {name: u for name, (_, _, u) in tracer.METRICS.items()}
        units[tracer.OVERHEAD] = "s"
    else:
        values = {
            "cells_per_s": sum(c.box_cells() for c in calls)
            / _pass_wall(plain, n),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    manifest = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds,
        "git_sha": _git_sha(), "src_sha256": src_sha, "src_lines": src_lines,
        "python": platform.python_version(), "numpy": plain[0]["numpy"],
        "scipy": plain[0]["scipy"], "nproc": len(os.sched_getaffinity(0)),
        "digest": digest, "digests_agree": agree, "ledger_agrees": ledger_ok,
        "calls": [{"argv": r["argv"], "sha256": r["sha256"]} for r in first],
        "walls_s": [[r["wall_s"] for r in per] for per in _by_call(plain, n)],
        "traced_walls_s": [[r["wall_s"] for r in per]
                           for per in _by_call(traced, n)],
        "setup_samples_s": setup,
        "raw_cells_per_s": sum(c.box_cells() for c in calls)
        / _pass_wall(plain, n, scaled=False),
        "ref_s": [r["ref_s"] for r in probes + rounds],
        "failed_frac": failed / attempted,
        "result": result,
    }
    path = os.path.join(
        OUT, f"manifest-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced / {len(traced)} traced rounds over {n} calls")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'raw_cells_per_s':40s} {manifest['raw_cells_per_s']:.6g}"
              " cells/s (not rescaled)")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} sweep cells)")
    print(f"digest {args.workload} seed={args.seed} sha256={digest} "
          f"rounds_agree={agree} ledger_agrees={ledger_ok}")
    print(f"manifest {os.path.relpath(path, ROOT)} git={manifest['git_sha']} "
          f"src_lines={src_lines} python={manifest['python']} "
          f"numpy={manifest['numpy']} scipy={manifest['scipy']} "
          f"nproc={manifest['nproc']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S
    try:
        return run(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
