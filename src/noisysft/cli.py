"""Command-line front end.

Exit codes: 0 on success, 2 for validation problems (bad flags, malformed
files, impossible parameters), 3 for runtime failures (budget blowups,
failed verification checks, unexpected errors).
"""

from __future__ import annotations

import argparse
import sys

from . import automaton1d as a1d
from . import harness as hn
from . import robinson as rb
from .core import CapExceeded
from .noise import marginal_rate, parse_model, sample_mask


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _box(text: str) -> tuple[int, ...]:
    sides = tuple(int(tok) for tok in text.lower().split("x"))
    if not sides or any(s < 1 for s in sides):
        raise argparse.ArgumentTypeError(f"bad box {text!r}")
    return sides


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0)
    # the flags of every sweep subcommand.  Each dest that names an
    # ExperimentSpec field goes into the spec, `driver` names the harness
    # function that runs it, and a box left out is the kind's default
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--box", type=_box, help="default: the kind's own box")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--plot", default=None, help="write a log-log SVG here")
    common = argparse.ArgumentParser(add_help=False, parents=[out, sweep])
    common.add_argument("--epsilons", type=_floats, required=True)

    top = argparse.ArgumentParser(
        prog="noisysft",
        description="noisy subshift simulation: classification, repair, "
                    "percolation, instability certificates")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", parents=[out],
                       help="classify a 1D SFT and report repair constants")
    p.add_argument("--sft", required=True, help="registered name or file")

    p = sub.add_parser("sample", parents=[seeded],
                       help="sample a noise mask, optionally over a clean word")
    p.add_argument("--model", required=True, help="e.g. bernoulli:0.01")
    p.add_argument("--box", type=_box, required=True)
    p.add_argument("--sft", default=None,
                   help="1D target; adds a corrupted admissible word")

    p = sub.add_parser("perc", parents=[common],
                       help="origin exclusion probability vs the union bound")
    p.set_defaults(kind="perc", driver="run_perc_sweep")
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("repair1d", parents=[common],
                       help="changed-fraction sweep for 1D repair")
    p.set_defaults(kind="repair1d", driver="run_repair1d_sweep")
    p.add_argument("--sft", default="golden-mean")
    p.add_argument("--trials", type=int, default=50)

    p = sub.add_parser("repair2d", parents=[common],
                       help="changed-fraction sweep for 2D periodic repair")
    p.set_defaults(kind="repair2d", driver="run_repair2d_sweep")
    p.add_argument("--periodic", dest="sft", metavar="PERIODIC", required=True,
                   help="registered name (checkerboard, stripes) or file")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--c", type=int, default=None)

    p = sub.add_parser("robinson", help="hierarchical tiling tools")
    rsub = p.add_subparsers(dest="rcmd", required=True)

    g = rsub.add_parser("gen", help="write a macro-tile window")
    g.add_argument("--scale", type=int, required=True)
    g.add_argument("--orient", choices=("se", "ne", "nw", "sw"), default="se")
    g.add_argument("--out", choices=("txt", "svg"), default="txt",
                   help="output format")
    g.add_argument("--path", default=None, help="output file (default stdout)")

    g = rsub.add_parser("verify", help="structural self-checks")
    g.add_argument("--check", default=",".join(rb.VERIFY_GROUPS),
                   help="comma list from %(default)s")

    g = rsub.add_parser("repair", parents=[sweep], help="scale-N repair sweep")
    g.set_defaults(kind="robinson_repair", driver="run_robinson_repair")
    g.add_argument("--epsilon", dest="epsilons", metavar="EPSILON",
                   type=_floats, required=True)
    g.add_argument("--scale", dest="scales", metavar="SCALE", type=_ints,
                   default=(2,))
    g.add_argument("--trials", type=int, default=10)
    g.add_argument("--out", dest="format", choices=("csv",), default="csv",
                   help="output format")
    g.add_argument("--path", dest="out", metavar="PATH", default=None,
                   help="output file (default stdout)")

    p = sub.add_parser("instability", help="adversarial lower-bound constructions")
    isub = p.add_subparsers(dest="icmd", required=True)

    g = isub.add_parser("phase1d", parents=[seeded],
                        help="periodic mask over the alternating system")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--box", type=_box, default=(100_000,))
    g.add_argument("--trials", type=int, default=50)

    g = isub.add_parser("bern1d", parents=[seeded],
                        help="Bernoulli noise over an irreducible periodic target")
    g.add_argument("--sft", default="alternating")
    g.add_argument("--epsilon", type=float, required=True)
    g.add_argument("--box", type=_box, default=(100_000,))
    g.add_argument("--trials", type=int, default=50)

    g = isub.add_parser("grid2d", parents=[seeded],
                        help="grid noise over a periodic orbit")
    g.add_argument("--periodic", default="checkerboard")
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--box", type=_box, default=(256, 256))
    g.add_argument("--trials", type=int, default=20)

    return top


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args) -> int:
    """Every sweep subcommand: the spec from the namespace, the driver
    looked up by name on `harness` at call time, then CSV and plot."""
    spec = hn.ExperimentSpec(**{k: v for k, v in vars(args).items()
                                if k in hn.ExperimentSpec.__dataclass_fields__})
    rows = getattr(hn, args.driver)(spec)
    _emit(hn.format_csv(rows), args.out)
    if args.plot:
        hn.write_plot(args.plot, rows)
    return 0


def _cmd_analyze(args) -> int:
    name, sft = hn.resolve_sft_1d(args.sft)
    auto = a1d.build_automaton(sft)
    cls = a1d.classify(auto)
    lines = [f"sft: {name}",
             f"alphabet: {' '.join(sft.alphabet)}",
             f"word_len: {auto.word_len}",
             f"states: {len(auto.states)}",
             f"classification: {cls.kind}"]
    if cls.kind == "irreducible_periodic":
        lines.append(f"period: {cls.period}")
    if cls.kind == "reducible":
        lines.append(f"classes: {cls.class_count}")
    if cls.kind == "irreducible_aperiodic":
        consts = a1d.repair_constants(auto)
        lines += [f"n0: {consts.n0}", f"C: {consts.C}", f"D: {consts.D}",
                  f"E: {consts.E}",
                  f"envelope: changed_fraction <= {3 * (2 * consts.E + 1)}*eps"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    # the mask prints as rows of a 2D box; a clean word is 1D
    hn.check_sides(args.box, "a sample --sft" if args.sft else "a sample",
                   "one side" if args.sft else "one or two sides")
    # the seed keys the noise hash as a uint64, unlike the sweeps' seeds,
    # which pass through derive_seed
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"sample needs --seed in [0, 2^64), got {args.seed}")
    model = parse_model(args.model)
    mask = sample_mask(model, args.box, args.seed)
    lines = [f"# model {args.model} marginal "
             f"{marginal_rate(model, len(args.box)):.6g}"]
    if args.sft is not None:
        name, sft = hn.resolve_sft_1d(args.sft)
        auto = a1d.build_automaton(sft)
        word = hn.sample_admissible_word(auto, args.box[0], args.seed)
        noisy = hn.corrupt(word, mask.data, len(sft.alphabet), args.seed + 1)
        lines.append("".join(sft.alphabet[v] for v in noisy))
        lines.append("".join("1" if m else "0" for m in mask.data))
    else:
        arr = mask.data if mask.data.ndim > 1 else mask.data[None, :]
        lines += ["".join("1" if m else "0" for m in row) for row in arr]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_robinson(args) -> int:
    if args.rcmd == "gen":
        grid = rb.build_macro(args.scale, args.orient.upper())
        if args.out == "svg":
            text = rb.render_svg(grid)
        else:
            text = rb.write_text(grid)
        _emit(text, args.path)
        return 0
    if args.rcmd == "verify":
        groups = tuple(tok.strip() for tok in args.check.split(",") if tok.strip())
        results = rb.verify_suite(groups=groups)
        for name, ok, detail in results:
            print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        failed = sum(1 for _, ok, _ in results if not ok)
        if failed:
            print(f"{failed} check(s) failed", file=sys.stderr)
            return 3
        return 0
    raise ValueError(f"unknown robinson command {args.rcmd!r}")


def _cmd_instability(args) -> int:
    # each construction runs one side: phase1d, bern1d as given, grid2d squared
    box = args.box
    hn.check_sides(box, f"an instability {args.icmd}",
                   "one side or two equal sides" if args.icmd == "grid2d"
                   else "one side")
    if args.icmd == "phase1d":
        rows = hn.run_instability_phase1d(args.p, box[0], args.trials,
                                          args.seed)
    elif args.icmd == "bern1d":
        rows = hn.run_instability_bern1d(args.sft, args.epsilon, box[0],
                                         args.trials, args.seed)
    else:
        _, p = hn.resolve_periodic(args.periodic)
        rows = hn.run_instability_grid2d(p, args.k, args.n, box[0],
                                         args.trials, args.seed)
    cell = {r["metric"]: (r["value"], r["ci95"]) for r in rows}
    (estimate, ci95), certificate = cell["min_density"], cell["certificate"][0]
    slack = cell["slack"][0]
    print(f"estimate: {estimate:.6f} +- {ci95:.6f}")
    print(f"certificate: {certificate:.6f}")
    print(f"obscured_rate: {cell['obscured_rate'][0]:.6f}")
    print(f"slack: {slack:.6f}")
    if estimate < certificate - slack:
        print(f"finite-size gap: {certificate - estimate:.6f} "
              f"(estimate under certificate; grow the box or trials)")
    if args.out:
        _emit(hn.format_csv(rows), args.out)
    return 0


def _dispatch(args) -> int:
    if getattr(args, "driver", None):
        return _cmd_sweep(args)
    if args.cmd == "analyze":
        return _cmd_analyze(args)
    if args.cmd == "sample":
        return _cmd_sample(args)
    if args.cmd == "robinson":
        return _cmd_robinson(args)
    if args.cmd == "instability":
        return _cmd_instability(args)
    raise ValueError(f"unknown command {args.cmd!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return _dispatch(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:  # repair2d without --c on a loose rule file
        print(f"error: {exc}; give the repair radius with --c",
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
