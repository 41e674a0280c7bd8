"""Seeded experiment drivers with CSV and SVG output.

Every driver derives one seed per trial from the master seed, the
experiment's labels and the trial index, never from the noise level, so
sweeps over epsilon are threshold-coupled: the same trial index sees
nested noise masks as epsilon grows.  Results are reduced in trial order, which keeps the
output byte-identical across runs and across worker counts.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from . import automaton1d as a1d
from . import robinson as rb
from .core import (
    ALTERNATING,
    GOLDEN_MEAN,
    Grid,
    NoiseMask,
    Sft,
    parse_sft,
)
from .noise import (
    bernoulli_masks,
    bernoulli_points,
    derive_seed,
    marginal_rate,
    parse_model,
    sample_mask,
)
from .percolation import exclusion_bound, origin_excluded
from .repair import (
    PeriodicSft,
    _coerce_automaton,
    local_global_constant,
    parse_periodic,
    repair_1d,
    repair_periodic,
)

SCHEMA = ("experiment", "sft", "model", "epsilon", "box", "trials",
          "seed", "metric", "value", "ci95")

CHECKERBOARD_TEXT = """
dim 2
alphabet a b
forbid (0,0)=a (0,1)=a
forbid (0,0)=b (0,1)=b
forbid (0,0)=a (1,0)=a
forbid (0,0)=b (1,0)=b
period 2
base a b b a
"""

STRIPES_TEXT = """
dim 2
alphabet a b c
forbid (0,0)=a (0,1)=b
forbid (0,0)=a (0,1)=c
forbid (0,0)=b (0,1)=a
forbid (0,0)=b (0,1)=c
forbid (0,0)=c (0,1)=a
forbid (0,0)=c (0,1)=b
forbid (0,0)=a (1,0)=a
forbid (0,0)=a (1,0)=c
forbid (0,0)=b (1,0)=a
forbid (0,0)=b (1,0)=b
forbid (0,0)=c (1,0)=b
forbid (0,0)=c (1,0)=c
period 3
base a a a b b b c c c
"""

NAMED_1D = {"golden-mean": GOLDEN_MEAN, "alternating": ALTERNATING}
NAMED_PERIODIC = {"checkerboard": CHECKERBOARD_TEXT, "stripes": STRIPES_TEXT}


def _resolve(spec: str, names: dict, what: str, parse):
    """(label, target) for a key of `names` or a file path; text, a file's
    or a name's, is read by `parse`."""
    if spec in names:
        name, target = spec, names[spec]
    elif os.path.isfile(spec):
        with open(spec, encoding="utf-8") as fh:
            target = fh.read()
        name = os.path.splitext(os.path.basename(spec))[0]
    else:
        raise ValueError(f"SFT file {spec!r} does not exist or is not a file, "
                         f"and is no {what} target name "
                         f"({', '.join(sorted(names))})")
    return name, parse(target) if isinstance(target, str) else target


def resolve_sft_1d(spec: str) -> tuple[str, Sft]:
    """A named 1D system or a description-file path."""
    return _resolve(spec, NAMED_1D, "1D", parse_sft)


def resolve_periodic(spec: str) -> tuple[str, PeriodicSft]:
    return _resolve(spec, NAMED_PERIODIC, "periodic", parse_periodic)


# ---------------------------------------------------------------------------
# experiment description


# the sweep kinds, each with the box it runs when a spec gives none
SWEEP_BOX = {"repair1d": (100_000,), "perc": (1024,), "repair2d": (512, 512),
             "robinson_repair": (1024, 1024)}


@dataclass
class ExperimentSpec:
    kind: str
    sft: str = "golden-mean"
    epsilons: tuple[float, ...] = ()
    box: tuple[int, ...] | None = None  # None: SWEEP_BOX[kind]
    trials: int = 10
    seed: int = 0
    scales: tuple[int, ...] = (2,)  # robinson only
    c: int | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.box is None:
            self.box = SWEEP_BOX.get(self.kind, ())

    def validate(self) -> None:
        if self.kind not in SWEEP_BOX:
            raise ValueError(f"kind {self.kind!r} is not sweepable; choose "
                             f"from {', '.join(sorted(SWEEP_BOX))}")
        if not self.epsilons:
            raise ValueError("need at least one epsilon")
        for e in self.epsilons:
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"epsilon {e} outside [0, 1]")
        if any(side < 1 for side in self.box):
            raise ValueError("box sides must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.c is not None and self.c < 0:
            raise ValueError(f"c must be non-negative, got {self.c}")


def check_sides(box, who: str, sides: str) -> None:
    """Refuse a box whose number of sides is not `sides`: "one side", "one
    side or two equal sides" or "one or two sides"."""
    ok = {"one side": len(box) == 1,
          "one side or two equal sides": len(box) in (1, 2)
          and len(set(box)) == 1,
          "one or two sides": len(box) in (1, 2)}[sides]
    if not ok:
        raise ValueError(f"{who} box takes {sides}, got {_box_str(box)!r}")


def _box_str(box) -> str:
    return "x".join(str(s) for s in box)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return format(v, ".10g")
    return str(v)


def format_csv(rows) -> str:
    buf = io.StringIO()  # RFC 4180: quote a field only if it holds , " or \n
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(SCHEMA)
    out.writerows([_fmt(row.get(col, "")) for col in SCHEMA] for row in rows)
    return buf.getvalue()


def mean_ci(vals, *, floored: bool = False) -> tuple[float, float]:
    """Trial mean and ci95: Wald from the sample std or, `floored` for 0/1
    trials, 1.96 sqrt(max(p(1 - p), 1/n) / n), which never drops to 0."""
    arr = np.asarray(vals, dtype=np.float64)
    mean, n = float(arr.mean()), arr.size
    if floored:
        ci = 1.96 * math.sqrt(max(mean * (1 - mean), 1.0 / n) / n)
    elif n > 1:
        ci = 1.96 * float(arr.std(ddof=1)) / math.sqrt(n)
    else:
        ci = 0.0
    return mean, ci


def _pool_map(fn, payloads, threads: int):
    payloads = list(payloads)
    if threads <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    workers = min(threads, len(payloads))
    chunk = max(1, len(payloads) // (4 * workers))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads, chunksize=chunk))


# ---------------------------------------------------------------------------
# clean-sample helpers


_TABLE_CAP = 1 << 20  # (live state, draw % period) entries the sampler holds


def sample_admissible_word(auto: a1d.WordAutomaton, length: int,
                           seed: int) -> np.ndarray:
    """A random globally admissible word from a walk on the live states.

    The walk starts at a live state and follows only edges into live
    states; every live state has one, since a bi-infinite path runs
    through it.  The start state and each step are fixed by pre-drawn
    uint32 integers: step i leaves state s by its (draw % deg(s))-th live
    edge.

    The walk runs in numpy.  With L the lcm of the live out-degrees,
    draw % deg(s) == (draw % L) % deg(s), because deg(s) divides L, so
    one (state, draw % L) table gives each step's next state and letter;
    a table over 2^20 entries is refused with a ValueError naming L.  The
    steps are cut into blocks of about sqrt(steps) (and at least as many
    steps as live states, so every array stays O(length)).

    Pass 1 steps every block from every live state at once, on the shared
    draws, and checks every 8 steps whether each block's lanes have met
    (the grand coupling of Propp and Wilson).  Once they have, at step k,
    a block's state after step k is the same from any entry, so one lane
    per block walks on from there and writes letters k onwards, and each
    block's exit is the next block's entry.  If the lanes never all meet
    (as on a periodic SFT), pass 1 runs every block to its end, and a
    short loop over the blocks chains their maps into each block's entry.
    Pass 2 walks all blocks from their entries for the first k steps and
    writes those letters.

    The word is held in the narrowest unsigned dtype of the alphabet
    (uint8 up to 256 letters), as `corrupt`, `repair.repair_1d` and the
    automaton oracle keep it.  The walk holds each state multiplied by
    the period, so a step is one add and one gather, and reads each step's
    draws as one contiguous row, draw j of every block, held as draw % L
    in the narrowest unsigned dtype of L."""
    if length < auto.word_len:
        raise ValueError("box shorter than the automaton word length")
    live = a1d.live_states(auto)
    if not live:
        raise ValueError("automaton has no admissible configurations")
    dtype = np.min_scalar_type(len(auto.sft.alphabet) - 1)
    starts = sorted(live)
    pos = {s: i for i, s in enumerate(starts)}
    opts = [[(b, pos[j]) for b, j in auto.edges[s] if j in live]
            for s in starts]
    period = math.lcm(*(len(o) for o in opts))
    if period * len(starts) > _TABLE_CAP:
        raise ValueError(f"the live out-degrees have lcm {period}: the "
                         f"sampler's {len(starts)} x {period} step table "
                         f"is over {_TABLE_CAP} entries")
    # (state, draw % period) -> letter and period * next state, flattened
    # per column
    degs = np.array([len(o) for o in opts])
    picks = ((np.cumsum(degs) - degs)[:, None]
             + np.arange(period) % degs[:, None])
    edges = np.array([e for o in opts for e in o], dtype=np.intp)
    table = edges[picks.ravel()]
    letter = table[:, 0].astype(dtype)
    nxt = table[:, 1] * period
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 1 << 32, size=length + 1, dtype=np.uint32)
    first = int(draws[0]) % len(starts)
    steps = length - auto.word_len
    if steps == 0:
        return np.asarray(auto.states[starts[first]], dtype=dtype)
    block = max(math.isqrt(steps), len(starts))
    nblocks = -(-steps // block)
    # cols[j, b] is draw j of block b; the last block is padded
    cols = np.zeros((block, nblocks), dtype=np.min_scalar_type(period - 1))
    full = (nblocks - 1) * block
    np.remainder(draws[1:full + 1].reshape(nblocks - 1, block), period,
                 out=cols.T[:-1])
    np.remainder(draws[full + 1:steps + 1], period,
                 out=cols[:steps - full, -1])
    del draws
    word = np.empty(auto.word_len + nblocks * block, dtype=dtype)
    word[:auto.word_len] = auto.states[starts[first]]
    letters = word[auto.word_len:].reshape(nblocks, block)

    def walk(cur, js):
        for j in js:
            at = cur + cols[j]
            letters[:, j] = letter[at]
            cur = nxt[at]
        return cur

    lanes = np.tile(np.arange(len(starts), dtype=np.intp) * period,
                    (nblocks, 1))
    k = block
    for j in range(block):
        lanes = nxt[lanes + cols[j, :, None]]
        if j % 8 == 7 and (lanes == lanes[:, :1]).all():
            k = j + 1
            break
    entry = np.empty(nblocks, dtype=np.intp)
    entry[0] = first * period
    if k < block:
        entry[1:] = walk(lanes[:, 0], range(k, block))[:-1]
    else:
        for b in range(nblocks - 1):
            entry[b + 1] = lanes[b, entry[b] // period]
    walk(entry, range(k))
    return word[:length]


def corrupt(data: np.ndarray, mask: np.ndarray, nsym: int,
            seed: int) -> np.ndarray:
    """Resample the obscured cells uniformly over the alphabet."""
    rng = np.random.default_rng(seed)
    noisy = data.copy()
    noisy[mask] = rng.integers(0, nsym, size=np.count_nonzero(mask))
    return noisy


# ---------------------------------------------------------------------------
# sweeps
#
# Every experiment, sweep or instability construction, runs the same Monte
# Carlo loop.  A trial takes (payload, epsilons, trial seed), draws its
# clean sample or construction once, and returns one dict per epsilon;
# `_sweep_rows` pools the trials and hands each epsilon's dicts to the
# experiment's reducer, whose {metric: (value, ci95)} become the rows.


_FLOORED = frozenset({"origin_excluded"})  # ci95 by `mean_ci`'s floored rule


def _trial_means(per_trial) -> dict:
    """{metric: (trial mean, ci95)} for every metric of the trial dicts."""
    return {m: mean_ci([r[m] for r in per_trial], floored=m in _FLOORED)
            for m in per_trial[0]}


def _sweep_rows(spec: ExperimentSpec, experiment: str, sft: str, box,
                trial, payload, reduce, key, min_side: int,
                model: str | None = None) -> list[dict]:
    """One CSV row per metric of `reduce(eps, per_trial)`, {metric: (value,
    ci95)}, for each epsilon; a value of the trial dicts that the reducer
    does not name is never written.  Trial t is seeded `derive_seed(*key,
    t)`.  The model label defaults to `bernoulli:<eps>`.  No trials, or a
    box side below `min_side`, the least the kernel takes, is refused."""
    if spec.trials < 1:
        raise ValueError("need at least one trial")
    if min(box) < min_side:
        raise ValueError(f"{experiment} needs every box side at least "
                         f"{min_side}, got {_box_str(spec.box)!r}")
    tseeds = [derive_seed(*key, t) for t in range(spec.trials)]
    results = _pool_map(trial, [(payload, spec.epsilons, s) for s in tseeds],
                        spec.threads)
    rows = []
    for i, eps in enumerate(spec.epsilons):
        base = {"experiment": experiment, "sft": sft,
                "model": model or f"bernoulli:{_fmt(eps)}", "epsilon": eps,
                "box": _box_str(box), "trials": spec.trials, "seed": spec.seed}
        rows += [dict(base, metric=m, value=v, ci95=ci) for m, (v, ci)
                 in reduce(eps, [res[i] for res in results]).items()]
    return rows


def _corrupted(clean: np.ndarray, mask: NoiseMask, nsym: int,
               tseed: int) -> Grid:
    """The clean sample with the masked cells resampled, seeded per trial."""
    noisy = corrupt(clean, mask.data, nsym, derive_seed(tseed, "corrupt"))
    return Grid((0,) * clean.ndim, noisy)


def _trial_repair1d(args):
    (sft, length), epsilons, tseed = args
    auto = a1d.build_automaton(sft)
    word = sample_admissible_word(auto, length, derive_seed(tseed, "clean"))
    return [_repair1d_cell(auto, word, mask, tseed)
            for mask in bernoulli_masks(derive_seed(tseed, "mask"), word.shape,
                                         epsilons)]


def _repair1d_cell(auto: a1d.WordAutomaton, word: np.ndarray,
                   mask: NoiseMask, tseed: int) -> dict:
    grid = _corrupted(word, mask, len(auto.sft.alphabet), tseed)
    rep = repair_1d(auto, grid, mask)
    lo, hi = rep.interior
    admissible = a1d.is_globally_admissible(auto, rep.grid.data[lo:hi])
    pos = np.flatnonzero(rep.changed)
    pos = pos[(pos >= lo) & (pos < hi)]
    local = np.all(_locality_flags(pos, np.flatnonzero(mask.data),
                                   rep.constants, lo, hi))
    return {"changed_fraction": rep.changed_fraction,
            "admissible": float(admissible), "locality": float(local)}


def _locality_flags(pos: np.ndarray, obscured: np.ndarray,
                    consts: a1d.RepairConstants, lo: int, hi: int) -> np.ndarray:
    """Per changed cell: within E of an obscured cell, or within the 2C
    end-peel margin.  All-true is the repair locality guarantee."""
    if pos.size == 0:
        return np.ones(0, dtype=bool)
    far = 1 << 40
    if obscured.size:
        j = np.searchsorted(obscured, pos)
        left = np.where(j > 0, pos - obscured[np.maximum(j - 1, 0)], far)
        right = np.where(j < obscured.size,
                         obscured[np.minimum(j, obscured.size - 1)] - pos, far)
        near_noise = np.minimum(left, right) <= consts.E
    else:
        near_noise = np.zeros(pos.size, dtype=bool)
    near_edge = (pos - lo < 2 * consts.C) | (hi - 1 - pos < 2 * consts.C)
    return near_noise | near_edge


def run_repair1d_sweep(spec: ExperimentSpec):
    """One row group per epsilon: mean changed fraction on the interior,
    admissible fraction, locality fraction, and the theorem envelope."""
    spec.validate()
    check_sides(spec.box, "a repair1d", "one side")
    name, sft = resolve_sft_1d(spec.sft)
    auto = a1d.build_automaton(sft)
    if a1d.classify(auto).kind != "irreducible_aperiodic":
        raise ValueError("repair sweep needs an irreducible aperiodic target")
    consts = a1d.repair_constants(auto)
    return _sweep_rows(spec, "repair1d", name, spec.box, _trial_repair1d,
                       (sft, spec.box[0]),
                       lambda eps, rs: {**_trial_means(rs), "bound": (
                           3.0 * (2 * consts.E + 1) * eps, 0.0)},
                       (spec.seed, "repair1d"), consts.min_length)


def _trial_perc(args):
    """One trial's exclusion flag per epsilon.  The epsilons are
    threshold-coupled: the trial hashes its box once and reads every
    epsilon's obscured points off the same hashes (`bernoulli_points`), so
    its point sets nest as epsilon grows; no mask is built unless the
    certificate fails.  eps >= 1 obscures the centre, so it is excluded
    with no index array of the box built."""
    (c, box), epsilons, tseed = args
    shape = (box, box)
    points = iter(bernoulli_points(tseed, shape,
                                   [e for e in epsilons if not e >= 1.0]))
    return [{"origin_excluded": float(e >= 1.0 or origin_excluded(
        next(points), shape, c))} for e in epsilons]


def run_perc_sweep(spec: ExperimentSpec):
    """Per epsilon: the rate at which the centre of the c-thickened box
    lies outside the giant open component, and the union bound."""
    spec.validate()
    check_sides(spec.box, "a perc", "one side or two equal sides")
    c = 1 if spec.c is None else spec.c
    box = spec.box[0]
    return _sweep_rows(spec, "perc", f"free-c{c}", (box, box), _trial_perc,
                       (c, box),
                       lambda eps, rs: {**_trial_means(rs), "exclusion_bound":
                                        (exclusion_bound(eps, c), 0.0)},
                       (derive_seed(spec.seed, "perc-sweep", c), "perc"),
                       2 * c + 1)


def _square(box) -> tuple[int, int]:
    return tuple(box) if len(box) == 2 else (box[0],) * 2


def _trial_repair2d(args):
    (p, shape, c), epsilons, tseed = args
    orbit = p.orbit()
    rng = np.random.default_rng(derive_seed(tseed, "offset"))
    offset = orbit[int(rng.integers(len(orbit)))]
    clean = p.tiling(offset, (0, 0), shape).data
    return [_repair2d_cell(p, clean, offset, c, mask, tseed)
            for mask in bernoulli_masks(derive_seed(tseed, "mask"), shape,
                                         epsilons)]


def _repair2d_cell(p: PeriodicSft, clean: np.ndarray, offset, c: int,
                   mask: NoiseMask, tseed: int) -> dict:
    grid = _corrupted(clean, mask, len(p.sft.alphabet), tseed)
    rep = repair_periodic(p, grid, mask, c=c)
    return {"changed_fraction": rep.changed_fraction,
            "offset_recovered": float(tuple(rep.offset) == tuple(offset))}


def run_repair2d_sweep(spec: ExperimentSpec):
    spec.validate()
    check_sides(spec.box, "a repair2d", "one or two sides")
    name, p = resolve_periodic(spec.sft)
    if p.sft.dim != 2:
        raise ValueError(f"repair2d needs a 2D periodic SFT, got dim {p.sft.dim}")
    c = local_global_constant(p) if spec.c is None else spec.c
    shape = _square(spec.box)
    return _sweep_rows(spec, "repair2d", name, shape, _trial_repair2d,
                       (p, shape, c),
                       lambda eps, rs: {**_trial_means(rs), "bound": (
                           2.0 * exclusion_bound(eps, c), 0.0)},
                       (spec.seed, "repair2d"), 2 * c + 1)


def _trial_robinson(args):
    (n_scale, shape), epsilons, tseed = args
    rng = np.random.default_rng(derive_seed(tseed, "translate"))
    t_in = tuple(int(v) for v in rng.integers(0, rb.TRANSLATES, size=2))
    clean = rb.reference_window((0, 0), shape, t_in)
    period = 2 ** (n_scale + 1)
    t_mod = (t_in[0] % period, t_in[1] % period)
    return [_robinson_cell(clean, n_scale, t_mod, mask, tseed)
            for mask in bernoulli_masks(derive_seed(tseed, "mask"), shape,
                                         epsilons)]


def _robinson_cell(clean: np.ndarray, n_scale: int, t_mod, mask: NoiseMask,
                   tseed: int) -> dict:
    grid = _corrupted(clean, mask, rb.NTILES, tseed)
    rep = rb.robinson_repair(grid, mask, n_scale, seed=tseed)
    return {"changed_fraction": rep.changed_fraction,
            "translate_recovered": float(rep.translate == t_mod),
            "slack": rep.slack}


def run_robinson_repair(spec: ExperimentSpec):
    spec.validate()
    check_sides(spec.box, "a robinson_repair", "one or two sides")
    if not spec.scales:
        raise ValueError("need at least one Robinson scale")
    if min(spec.scales) < 1:
        raise ValueError(f"Robinson scales must be at least 1, got "
                         f"{min(spec.scales)}")
    if max(spec.box) > rb.MAX_BOX:
        a, s = rb._REFERENCE_ANCHOR, max(spec.box)
        raise ValueError(
            f"a robinson_repair box side is at most {rb.MAX_BOX}: a trial "
            f"window needs origin - translate + {a} + shape <= "
            f"{rb._REFERENCE_SIDE} at every translate in [0, "
            f"{rb.TRANSLATES}), and translate 0 and shape {s} give {a} and "
            f"{a + s}")
    shape = _square(spec.box)
    # scale N thickens by 2^(N+1); every call takes the largest scale's
    # limit, so the first refuses a box before any scale runs
    min_side = 2 ** (max(spec.scales) + 2) + 1
    rows = []
    for n_scale in spec.scales:
        def reduce(eps, per_trial, n_scale=n_scale):
            # the largest slack, in the slot of the mean it replaces
            slack = max(r["slack"] for r in per_trial)
            return {**_trial_means(per_trial), "slack": (slack, 0.0),
                    "bound": (rb.robinson_bound(eps, n_scale) + slack, 0.0)}
        rows += _sweep_rows(spec, "robinson", f"robinson-{n_scale}", shape,
                            _trial_robinson, (n_scale, shape), reduce,
                            (spec.seed, "robinson", n_scale), min_side)
    return rows


# ---------------------------------------------------------------------------
# instability constructions


def finite_size_slack(cells: int) -> float:
    """Reported fluctuation allowance for a box of the given cell count.

    Output column only; acceptance thresholds never widen by it."""
    return 4.0 / math.sqrt(cells)


def _nearest_reference(certificate: float, box):
    """The instability reducer: `min_density`, the distance to the nearest
    reference, then the certificate, the mean obscured fraction and the
    slack.  `min_density` is the least trial mean over the references, with
    that reference's ci95.  Per-trial minima would undershoot, since
    segment shift fluctuations let single samples drift toward either
    reference."""
    def reduce(eps, per_trial):
        # references x trials in C order: numpy sums each contiguous row
        # pairwise, while a transposed view sums in another order and can
        # differ in the last bit
        per_ref = np.array([r["per_ref"] for r in per_trial]).T.copy()
        obscured = 0.0
        for r in per_trial:  # left to right; np.mean and fsum round otherwise
            obscured += r["obscured"]
        return {"min_density": mean_ci(per_ref[per_ref.mean(axis=1).argmin()]),
                "certificate": (certificate, 0.0),
                "obscured_rate": (obscured / len(per_trial), 0.0),
                "slack": (finite_size_slack(math.prod(box)), 0.0)}
    return reduce


def _distances(x: np.ndarray, mask: np.ndarray, refs) -> dict:
    """A construction trial's result: its Hamming density to each reference
    and its obscured fraction."""
    return {"per_ref": [int(np.count_nonzero(x != r)) / x.size for r in refs],
            "obscured": int(np.count_nonzero(mask)) / mask.size}


def _trial_phase1d(args):
    (p, box), _, tseed = args
    m = sample_mask(parse_model(f"grid:1,{p - 1}"), (box,), tseed).data
    idx = np.arange(box, dtype=np.int64)
    ref0 = idx % 2
    phase = int(np.flatnonzero(m)[0]) % p
    seg = (idx - phase + p) // p
    x = np.where(m, ref0, (idx + seg) % 2)
    return [_distances(x, m, [ref0, 1 - ref0])]


def run_instability_phase1d(p: int, box: int, trials: int,
                            seed: int) -> list[dict]:
    """Deterministic period-p mask over the {00,11} system.

    Each clear window of length p-1 copies one of the two alternating
    points, switching at every obscured cell; obscured cells copy the
    first point.  The minimum density over both points concentrates at
    1/2 - 1/(2p), the certificate.  Rows as `_nearest_reference` gives
    them, at epsilon 1/p.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    spec = ExperimentSpec("instability_phase1d", epsilons=(1.0 / p,),
                          box=(box,), trials=trials, seed=seed)
    return _sweep_rows(spec, "instability_phase1d", "alternating", spec.box,
                       _trial_phase1d, (p, box),
                       _nearest_reference(0.5 - 1.0 / (2.0 * p), spec.box),
                       (seed, "phase1d"), 2 * p, model=f"grid:1,{p - 1}")


def _periodic_cycle(auto: a1d.WordAutomaton) -> np.ndarray:
    """Symbols along the lex-least live cycle from the smallest live state."""
    live = a1d.live_states(auto)
    state = min(live)
    seen = {state: 0}
    letters = []
    while True:
        letter, nxt = next(e for e in auto.edges[state] if e[1] in live)
        letters.append(letter)
        if nxt in seen:
            start = seen[nxt]
            return np.asarray(letters[start:], dtype=np.int64)
        seen[nxt] = len(letters)
        state = nxt


def _trial_bern1d(args):
    (word, d, box), epsilons, tseed = args
    period = len(word)
    idx = np.arange(box, dtype=np.int64)
    mask = bernoulli_masks(derive_seed(tseed, "mask"), (box,), epsilons)[0].data
    run_id, nruns = _mask_runs(mask, d)
    rng = np.random.default_rng(derive_seed(tseed, "translate"))
    shifts = rng.integers(0, period, size=nruns + 1)
    x = word[(idx + shifts[run_id]) % period]
    x[mask] = word[idx[mask] % period]
    return [_distances(x, mask, [word[(idx + s) % period]
                                 for s in range(period)])]


def run_instability_bern1d(sft_or_auto, epsilon: float, box: int,
                           trials: int, seed: int) -> list[dict]:
    """Bernoulli noise over an irreducible periodic target.

    Three steps per trial: sample the mask; cut at every run of at least
    d consecutive obscured cells; give each cut-to-cut segment an
    independent uniform translate of the periodic point, while obscured
    cells copy the untranslated point.  Distances are taken to the whole
    translate orbit and the minimum lands at (p-1)/(pd) - ((p-1)/p) eps,
    the certificate.  Rows as `_nearest_reference` gives them.
    """
    if isinstance(sft_or_auto, str):
        sft_or_auto = resolve_sft_1d(sft_or_auto)[1]
    auto = _coerce_automaton(sft_or_auto)
    cls = a1d.classify(auto)
    if cls.kind != "irreducible_periodic":
        raise ValueError(
            f"construction needs an irreducible periodic target, got {cls.kind}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(
            f"epsilon {epsilon} outside (0, 1]: at epsilon 0 no cut is drawn, "
            f"so the configuration is one translate of the periodic point, "
            f"at distance 0 from its orbit")
    d = max(auto.sft.diameter, 1)
    word = _periodic_cycle(auto)
    period = len(word)
    spec = ExperimentSpec("instability_bern1d", epsilons=(epsilon,),
                          box=(box,), trials=trials, seed=seed)
    return _sweep_rows(spec, "instability_bern1d", _sft_label(auto.sft),
                       spec.box, _trial_bern1d, (word, d, box),
                       _nearest_reference((period - 1) / (period * d)
                                          - ((period - 1) / period) * epsilon,
                                          spec.box),
                       (seed, "bern1d"), 1)


def _sft_label(sft: Sft) -> str:
    for name, known in NAMED_1D.items():
        if known == sft:
            return name
    return f"custom-{len(sft.alphabet)}sym"


def _mask_runs(mask: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """Segment ids split at every obscured run of length >= d.

    Returns per-cell segment indices and the number of cuts."""
    padded = np.concatenate(([False], mask, [False])).astype(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    starts, stops = edges[::2], edges[1::2]
    long = stops - starts >= d
    cuts = np.zeros(mask.size + 1, dtype=np.int64)
    # a segment ends where a long run starts
    np.add.at(cuts, starts[long], 1)
    return np.cumsum(cuts)[:-1], int(long.sum())


def _trial_grid2d(args):
    (tilings, k, block), _, tseed = args
    stride = k + block
    rr, cc = np.indices(tilings.shape[1:])
    rng = np.random.default_rng(tseed)
    ph = rng.integers(0, stride, size=2)
    mask = (((rr + ph[0]) % stride) < k) | (((cc + ph[1]) % stride) < k)
    b0 = (rr + ph[0]) // stride
    b1 = (cc + ph[1]) // stride
    choice = rng.integers(0, len(tilings),
                          size=(int(b0.max()) + 1, int(b1.max()) + 1))
    x = tilings[choice[b0, b1], rr, cc]
    x[mask] = tilings[0][mask]
    return [_distances(x, mask, tilings)]


def run_instability_grid2d(p: PeriodicSft, k: int, n: int, box: int,
                           trials: int, seed: int) -> list[dict]:
    """Grid noise over a single periodic orbit in 2D.

    Slabs of width k >= diameter hide every block junction; each clear
    block of side n*period copies an independent uniform orbit element,
    and obscured cells copy the first one.  The independent choices
    disagree with any fixed configuration on at least 1/(2 (period+1)^d)
    of the cells, the certificate.  Rows as `_nearest_reference` gives
    them, at the grid model's marginal rate.
    """
    if isinstance(p, str):
        p = resolve_periodic(p)[1]
    if p.sft.dim != 2:
        raise ValueError(
            f"instability grid2d needs a 2D periodic SFT, got dim {p.sft.dim}")
    orbit = p.orbit()
    if len(orbit) < 2:
        raise ValueError("construction needs a non-constant orbit")
    if k < p.sft.diameter:
        raise ValueError(
            f"k={k} too small: junction windows need k >= {p.sft.diameter}")
    period = p.period
    block = n * period
    if block < 1:
        raise ValueError("n must be positive")
    model = f"grid:{k},{block}"
    spec = ExperimentSpec("instability_grid2d",
                          epsilons=(marginal_rate(parse_model(model), 2),),
                          box=(box, box), trials=trials, seed=seed)
    tilings = np.stack([p.tiling(o, (0, 0), spec.box).data for o in orbit])
    return _sweep_rows(spec, "instability_grid2d", f"periodic-{period}",
                       spec.box, _trial_grid2d, (tilings, k, block),
                       _nearest_reference(
                           1.0 / (2.0 * (period + 1) ** p.sft.dim), spec.box),
                       (seed, "grid2d"), 1, model=model)


# ---------------------------------------------------------------------------
# plotting


def _log_ticks(lo: float, hi: float):
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


def _is_bound(metric: str) -> bool:
    return metric == "bound" or metric.endswith("_bound")


def write_plot(path: str, rows) -> None:
    """Minimal self-contained log-log SVG titled "<metric> vs epsilon": one
    polyline per sft label for the first metric that is not a bound or
    `slack`, and the bounds (`bound` and every `*_bound` metric) dashed."""
    series: dict[str, list[tuple[float, float]]] = {}
    bounds: dict[str, list[tuple[float, float]]] = {}
    metric = next((r["metric"] for r in rows if not _is_bound(r["metric"])
                   and r["metric"] != "slack"), None)
    for row in rows:
        eps, val = float(row.get("epsilon", 0)), row.get("value")
        if not isinstance(val, (int, float)):
            continue
        if eps <= 0 or val <= 0 or math.isnan(val):
            continue
        key = str(row.get("sft", ""))
        if row["metric"] == metric:
            series.setdefault(key, []).append((eps, val))
        elif _is_bound(row["metric"]):
            bounds.setdefault(key, []).append((eps, val))
    width, height, pad = 560, 400, 56
    pts = [p for ps in series.values() for p in ps]
    pts += [p for ps in bounds.values() for p in ps]
    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}" '
           f'font-family="monospace" font-size="11">',
           f'<rect width="{width}" height="{height}" fill="#fdfcf8"/>']
    if not pts:
        svg.append(f'<text x="{width // 2}" y="{height // 2}" '
                   f'text-anchor="middle">no data</text></svg>')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(svg))
        return
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs) / 1.5, max(xs) * 1.5
    y0, y1 = min(ys) / 1.5, max(ys) * 1.5

    def px(x):
        return pad + (math.log10(x) - math.log10(x0)) / \
            (math.log10(x1) - math.log10(x0)) * (width - 2 * pad)

    def py(y):
        return height - pad - (math.log10(y) - math.log10(y0)) / \
            (math.log10(y1) - math.log10(y0)) * (height - 2 * pad)

    for tx in _log_ticks(x0, x1):
        if x0 <= tx <= x1:
            svg.append(f'<line x1="{px(tx):.1f}" y1="{pad}" x2="{px(tx):.1f}" '
                       f'y2="{height - pad}" stroke="#ddd"/>')
            svg.append(f'<text x="{px(tx):.1f}" y="{height - pad + 16}" '
                       f'text-anchor="middle">1e{int(math.log10(tx))}</text>')
    for ty in _log_ticks(y0, y1):
        if y0 <= ty <= y1:
            svg.append(f'<line x1="{pad}" y1="{py(ty):.1f}" '
                       f'x2="{width - pad}" y2="{py(ty):.1f}" stroke="#ddd"/>')
            svg.append(f'<text x="{pad - 6}" y="{py(ty):.1f}" '
                       f'text-anchor="end" dy="4">1e{int(math.log10(ty))}</text>')
    svg.append(f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
               f'height="{height - 2 * pad}" fill="none" stroke="#444"/>')
    palette = ["#3a6ea5", "#b5413a", "#2e7d32", "#8e5e13", "#6a1b9a"]
    for i, (key, ps) in enumerate(sorted(series.items())):
        col = palette[i % len(palette)]
        ps = sorted(ps)
        line = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in ps)
        svg.append(f'<polyline points="{line}" fill="none" stroke="{col}" '
                   f'stroke-width="1.6"/>')
        for x, y in ps:
            svg.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" '
                       f'fill="{col}"/>')
        svg.append(f'<text x="{width - pad - 6}" y="{pad + 14 + 13 * i}" '
                   f'text-anchor="end" fill="{col}">{key}</text>')
    for i, (key, ps) in enumerate(sorted(bounds.items())):
        col = palette[i % len(palette)]
        ps = sorted(ps)
        line = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in ps)
        svg.append(f'<polyline points="{line}" fill="none" stroke="{col}" '
                   f'stroke-width="1.2" stroke-dasharray="5,4" opacity="0.7"/>')
    svg.append(f'<text x="{width // 2}" y="{pad - 10}" '
               f'text-anchor="middle">{metric or "bound"} vs epsilon</text>')
    svg.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(svg))
