"""End-to-end acceptance runs at desk scale.

Each criterion records one PASS/FAIL line with its measured numbers and
wall time, then asserts. The conftest hook replays the lines in the
terminal summary, past the capture plug. Seeds are pinned, so a green
run stays green.
"""

import math
import time

import numpy as np

from noisysft import harness as H
from noisysft import robinson as rb
from noisysft.automaton1d import build_automaton, classify, repair_constants
from noisysft.core import ALTERNATING, GOLDEN_MEAN, Grid, NoiseMask, thicken
from noisysft.noise import derive_seed, sample_mask, parse_model
from noisysft.percolation import exclusion_bound

LINES: list[str] = []


def _report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
            f"({elapsed:.1f}s)")
    LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_classification():
    t0 = time.perf_counter()
    gm = classify(build_automaton(GOLDEN_MEAN))
    alt = classify(build_automaton(ALTERNATING))
    elapsed = time.perf_counter() - t0
    ok = (gm.kind == "irreducible_aperiodic"
          and alt.kind == "irreducible_periodic" and alt.period == 2
          and elapsed < 1.0)
    _report(1, ok, f"golden-mean {gm.kind}, alternating {alt.kind}"
                   f"(p={alt.period})", elapsed)


def test_criterion_2_repair1d_envelope():
    t0 = time.perf_counter()
    eps = (0.002, 0.005, 0.01, 0.02)
    spec = H.ExperimentSpec(kind="repair1d", sft="golden-mean",
                            epsilons=eps, box=(100_000,), trials=200,
                            seed=1202)
    rows = H.run_repair1d_sweep(spec)
    elapsed = time.perf_counter() - t0
    e_const = repair_constants(build_automaton(GOLDEN_MEAN)).E
    means = np.array([r["value"] for r in rows
                      if r["metric"] == "changed_fraction"])
    cis = np.array([r["ci95"] for r in rows
                    if r["metric"] == "changed_fraction"])
    envelope_ok = bool(np.all(means <= 3 * (2 * e_const + 1) * np.array(eps)))
    slope, intercept = np.polyfit(np.array(eps), means, 1)
    slope_ok = slope <= (2 * e_const + 1) * 1.1
    intercept_ok = abs(intercept) <= 2 * cis.max()
    ok = envelope_ok and slope_ok and intercept_ok and elapsed < 120
    _report(2, ok, f"means within 3(2E+1)eps={envelope_ok}, "
                   f"slope {slope:.3f} <= {(2 * e_const + 1) * 1.1}, "
                   f"|intercept| {abs(intercept):.2e} <= 2ci {2 * cis.max():.2e}",
            elapsed)


def test_criterion_3_instability_certificate():
    t0 = time.perf_counter()
    rows = H.run_instability_bern1d(ALTERNATING, 0.01, 100_000, 100, 3)
    elapsed = time.perf_counter() - t0
    value = {r["metric"]: r["value"] for r in rows}
    ok = (value["certificate"] == 0.495
          and value["min_density"] >= 0.495 - 0.01
          and elapsed < 60)
    _report(3, ok, f"min-over-orbit density {value['min_density']:.4f} "
                   f">= 0.485 (certificate {value['certificate']})", elapsed)


def test_criterion_4_percolation_bound():
    t0 = time.perf_counter()
    parts = []
    ok = True
    epsilons = (1e-3, 3e-3)
    for c in (1, 2):
        trials = [H._trial_perc(((c, 1024), epsilons,
                                 derive_seed(404, "perc", t)))
                  for t in range(500)]
        for i, eps in enumerate(epsilons):
            value, ci95 = H.mean_ci([tr[i]["origin_excluded"] for tr in trials],
                                    floored=True)
            bound = exclusion_bound(eps, c)
            good = value + 3 * ci95 <= bound
            ok = ok and good
            parts.append(f"c={c},eps={eps:g}: {value:.4f}+3ci"
                         f"{'<=' if good else '>'}{bound:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _report(4, ok, "; ".join(parts), elapsed)


def test_criterion_5_checkerboard_repair():
    t0 = time.perf_counter()
    eps = (0.001, 0.003, 0.01)
    spec = H.ExperimentSpec(kind="repair2d", sft="checkerboard",
                            epsilons=eps, box=(512, 512), trials=100,
                            seed=505)
    rows = H.run_repair2d_sweep(spec)
    elapsed = time.perf_counter() - t0
    means = {r["epsilon"]: r["value"] for r in rows
             if r["metric"] == "changed_fraction"}
    ok = all(means[e] <= 2 * exclusion_bound(e, 1) for e in eps)
    ok = ok and elapsed < 300
    _report(5, ok, ", ".join(f"eps={e:g}: {means[e]:.5f} <= "
                             f"{2 * exclusion_bound(e, 1):.4f}" for e in eps),
            elapsed)


def test_criterion_6_robinson_oracles():
    t0 = time.perf_counter()
    results = rb.verify_suite()
    elapsed = time.perf_counter() - t0
    bad = [name for name, good, _ in results if not good]
    ok = not bad and elapsed < 120
    _report(6, ok, f"{len(results)} structural checks"
                   + (f", failing: {bad}" if bad else " all exact"), elapsed)


def test_criterion_7_robinson_repair():
    t0 = time.perf_counter()
    spec = H.ExperimentSpec(kind="robinson_repair", epsilons=(1e-4, 1e-3),
                            box=(1024, 1024), trials=25, seed=707,
                            scales=(2, 3))
    rows = H.run_robinson_repair(spec)
    elapsed = time.perf_counter() - t0
    ok = True
    parts = []
    bounds_at_1em4 = {}
    for n_scale in (2, 3):
        for eps in (1e-4, 1e-3):
            sel = [r for r in rows if r["sft"] == f"robinson-{n_scale}"
                   and r["epsilon"] == eps]
            mean = next(r["value"] for r in sel
                        if r["metric"] == "changed_fraction")
            slack = next(r["value"] for r in sel if r["metric"] == "slack")
            bound = rb.robinson_bound(eps, n_scale) + slack
            good = mean <= bound
            ok = ok and good
            if eps == 1e-4:
                bounds_at_1em4[n_scale] = bound
            parts.append(f"N={n_scale},eps={eps:g}: {mean:.4f}"
                         f"{'<=' if good else '>'}{bound:.3f} (slack {slack:g})")
    anchor = 48.0 * (6e-4) ** (1.0 / 3.0)
    min_bound = min(bounds_at_1em4.values())
    anchor_ok = min_bound <= anchor
    ok = ok and anchor_ok and elapsed < 900
    _report(7, ok, "; ".join(parts)
            + f"; min bound {min_bound:.3f} <= 48*cbrt(6e-4)={anchor:.3f}",
            elapsed)


def hamming_density(a: Grid, b: Grid) -> float:
    """Fraction of cells where two grids on one box differ, as
    `harness._distances` takes it per reference."""
    return float(np.mean(a.data != b.data))


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    checks = {}

    # hamming density: pseudometric axioms and 1-Lipschitz point moves
    n = 400
    tri = sym = refl = lip = True
    for _ in range(1000):
        a, b, c = (Grid((0,), rng.integers(0, 3, size=n)) for _ in range(3))
        dab, dac, dbc = (hamming_density(a, b), hamming_density(a, c),
                         hamming_density(b, c))
        tri &= abs(dac - dbc) <= dab + 1e-12
        sym &= dab == hamming_density(b, a)
        refl &= hamming_density(a, a) == 0.0
        mutated = a.data.copy()
        pos = int(rng.integers(n))
        mutated[pos] = (mutated[pos] + 1) % 3
        lip &= abs(hamming_density(Grid((0,), mutated), b) - dab) <= 1 / n + 1e-12
    checks["pseudometric"] = tri and sym and refl
    checks["lipschitz"] = lip

    # thickening: monotone and a semigroup under radius addition; the
    # free-boundary crop shrinks the box by the radius on every side, so
    # comparisons run on the common interior
    mono = semi = True
    for _ in range(50):
        m = NoiseMask((0, 0), rng.random((40, 40)) < 0.05)
        t1, t2 = thicken(m, 1), thicken(m, 2)
        mono &= bool(np.all(m.data[1:-1, 1:-1] <= t1.data)) and bool(
            np.all(t1.data[1:-1, 1:-1] <= t2.data))
        semi &= bool(np.array_equal(thicken(t1, 1).data, t2.data))
    checks["thickening"] = mono and semi

    # repair locality holds on every trial of a fresh 1D sweep
    rows = H.run_repair1d_sweep(H.ExperimentSpec(
        kind="repair1d", sft="golden-mean", epsilons=(0.01,),
        box=(20_000,), trials=30, seed=88))
    checks["locality"] = all(r["value"] == 1.0 for r in rows
                             if r["metric"] == "locality")

    # byte-identical CSV across two runs
    spec = dict(kind="perc", epsilons=(0.002, 0.004), box=(128,),
                trials=20, seed=9, c=1)
    one = H.format_csv(H.run_perc_sweep(H.ExperimentSpec(**spec)))
    two = H.format_csv(H.run_perc_sweep(H.ExperimentSpec(**spec)))
    checks["determinism"] = one == two

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 180
    _report(8, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                             for k, v in checks.items()), elapsed)
