"""One fresh interpreter of a benchmark run; started by run.py.

    python3 perfbench/worker.py MODE LAUNCHED PARAMS_JSON

LAUNCHED is the wall-clock time at which the parent started this
process, so `setup_s` (launch until `noisysft.cli` is imported) includes
interpreter start-up.  MODE is `setup` (import only), `round` (one timed
CLI call of a workload, optionally traced) or `oracle` (exact oracles on
replayed repairs).  `setup` and `round` also report `ref_s`, the time of
the reference kernel, taken after their own measurements.  The last line
of stdout is a JSON object.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_kernel() -> float:
    """Seconds taken by fixed work resembling the workloads' mix: dict
    lookups and list indexing in Python, a splitmix-style hash over 2^20
    uint64 cells and a 3x3 maximum filter on a 1024^2 mask.  It calls no
    noisysft code, so its time tracks only the host's speed."""
    import numpy as np
    from scipy import ndimage

    keys = [(i % 7, i % 11, i % 13) for i in range(50_000)]
    table = {k: i for i, k in enumerate(sorted(set(keys)))}
    items = list(range(200_000))
    start = time.perf_counter()
    acc = 0
    for k in keys:
        acc += table[k]
    for i in range(0, 200_000, 3):
        acc += items[(i * 7919) % 200_000]
    z = np.arange(1 << 20, dtype=np.uint64)
    for _ in range(4):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    mask = ((z & np.uint64(1023)) == 0).reshape(1024, 1024)
    ndimage.maximum_filter(mask, size=3)
    return time.perf_counter() - start


def _reference_s() -> float:
    """The kernel's time, after a warm-up run that absorbs first-call
    costs.  Workers run it after their own measurements, so its memory
    stays out of `peak_rss_mb`."""
    reference_kernel()
    return reference_kernel()


def _round(cli, workload: str, call: int, seed: int, out_dir: str,
           tiny: bool, trace: bool) -> dict:
    import hashlib
    import resource

    import numpy
    import scipy

    import tracer as tr
    import workloads as wl

    spec = wl.workload(workload, tiny)[call]
    tracer = None
    if trace:
        tracer = tr.Tracer()
        tr.install(tracer)
    out = os.path.join(out_dir, f"call{call}.csv")
    if os.path.exists(out):
        os.remove(out)
    argv = spec.argv(seed, out)
    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    data = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
    ok = wl.cell_verdicts(spec, data.decode()) if rc == 0 \
        else [False] * len(spec.cells())
    return {
        "call": call, "argv": argv, "rc": rc, "wall_s": wall, "verdicts": ok,
        "ref_s": _reference_s(), "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(data).hexdigest(),
        "layers": tracer.raw() if tracer else None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _oracle(workload: str, seed: int, tiny: bool) -> dict:
    import traceback

    import oracle
    import workloads as wl

    out = []
    for call in wl.workload(workload, tiny):
        try:
            out.append(oracle.verdicts(call, seed))
        except Exception:  # noqa: BLE001 - a crash is a failed oracle
            traceback.print_exc()
            out.append([False] * len(call.cells()))
    return {"verdicts": out}


def main() -> None:
    mode, launched, params = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from noisysft import cli
    setup_s = time.time() - launched
    kw = json.loads(params)
    if mode == "round":
        res = _round(cli, **kw)
    elif mode == "oracle":
        res = _oracle(**kw)
    else:
        res = {"ref_s": _reference_s()}
    res["setup_s"] = setup_s
    sys.stdout.write("\n" + json.dumps(res) + "\n")


if __name__ == "__main__":
    main()
