import csv
import dataclasses
import math
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysft import cli
from noisysft import harness as H
from noisysft.automaton1d import (
    build_automaton,
    is_globally_admissible,
    live_states,
)
from noisysft.core import ALTERNATING, GOLDEN_MEAN, Sft, word_sft
from noisysft.percolation import exclusion_bound
from noisysft.repair import PeriodicSft

DRIVERS = {"repair1d": H.run_repair1d_sweep, "perc": H.run_perc_sweep,
           "repair2d": H.run_repair2d_sweep,
           "robinson_repair": H.run_robinson_repair}


class _Pooled(Exception):
    """Raised by the `_pool_map` stand-in: the driver reached its trials."""


@pytest.fixture
def reach_pool(monkeypatch):
    def stop(fn, payloads, threads):
        raise _Pooled

    monkeypatch.setattr(H, "_pool_map", stop)


class TestExperimentSpec:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            H.ExperimentSpec(kind="warp").validate()

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            H.ExperimentSpec(kind="perc", epsilons=(0.1, 1.5)).validate()

    def test_trials_positive(self, reach_pool):
        with pytest.raises(ValueError, match="need at least one trial"):
            H.run_perc_sweep(H.ExperimentSpec(kind="perc", epsilons=(0.1,),
                                              trials=0))

    @pytest.mark.parametrize("argv", [
        ["perc", "--epsilons", ""],
        ["repair1d", "--epsilons", ""],
        ["repair2d", "--periodic", "checkerboard", "--epsilons", ""],
        ["robinson", "repair", "--epsilon", ""],
    ])
    def test_empty_epsilons_exit_2_before_any_trial(self, argv, tmp_path,
                                                     capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(H, "_pool_map",
                            lambda fn, payloads, threads: ran.append(fn))
        out = tmp_path / "e.csv"
        flag = "--path" if argv[0] == "robinson" else "--out"
        assert cli.main(argv + ["--trials", "2", flag, str(out)]) == 2
        assert "need at least one epsilon" in capsys.readouterr().err
        assert not out.exists()
        assert ran == []

    @pytest.mark.parametrize("scales", [(0,), (-1,), (2, 0)])
    def test_robinson_scales_at_least_one(self, scales, reach_pool):
        with pytest.raises(ValueError, match="scales must be at least 1"):
            H.run_robinson_repair(H.ExperimentSpec(
                kind="robinson_repair", epsilons=(1e-3,), scales=scales))

    @pytest.mark.parametrize("scale", ["0", "-1", "2,0"])
    def test_robinson_scale_below_one_exit_2(self, scale, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["robinson", "repair", "--scale", scale, "--box", "64",
                         "--epsilon", "1e-3", "--trials", "1", "--out", "csv",
                         "--path", str(out)]) == 2
        assert "Robinson scales must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_robinson_window_beyond_reference_exit_2(self, tmp_path, capsys):
        # at translate 0 a 1536 window ends at 0 - 0 + 512 + 1536 = 2048 >
        # 2047, so validation refuses the box whatever the seed draws
        out = tmp_path / "r.csv"
        assert cli.main(["robinson", "repair", "--box", "1536", "--epsilon",
                         "1e-3", "--scale", "2", "--trials", "1", "--seed",
                         "284", "--out", "csv", "--path", str(out)]) == 2
        err = capsys.readouterr().err
        assert "origin - translate + 512 + shape <= 2047" in err
        assert "translate 0 and shape 1536 give 512 and 2048" in err

    def test_robinson_box_past_the_limit_exit_2(self, tmp_path, capsys):
        # seed 285 draws translates at which a 1536 window would fit
        out = tmp_path / "r.csv"
        assert cli.main(["robinson", "repair", "--box", "1536", "--epsilon",
                         "1e-3", "--scale", "2", "--trials", "1", "--seed",
                         "285", "--out", "csv", "--path", str(out)]) == 2
        assert "box side is at most 1535" in capsys.readouterr().err
        assert not out.exists()

    def test_robinson_box_limit(self, reach_pool):
        with pytest.raises(_Pooled):
            H.run_robinson_repair(H.ExperimentSpec(
                kind="robinson_repair", epsilons=(1e-3,), box=(1535,)))
        with pytest.raises(ValueError, match="at most 1535"):
            H.run_robinson_repair(H.ExperimentSpec(
                kind="robinson_repair", epsilons=(1e-3,), box=(64, 1536)))

    @pytest.mark.parametrize("argv", [
        ["perc"], ["repair2d", "--periodic", "checkerboard"]])
    def test_sweep_negative_c_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main([*argv, "--c", "-1", "--epsilons", "0.01",
                         "--box", "32", "--trials", "1", "--out",
                         str(out)]) == 2
        assert "c must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_robinson_scales_empty(self, reach_pool):
        with pytest.raises(ValueError, match="at least one Robinson scale"):
            H.run_robinson_repair(H.ExperimentSpec(
                kind="robinson_repair", epsilons=(1e-3,), scales=()))

    @pytest.mark.parametrize("argv", [
        ["robinson", "repair", "--scale", ",", "--epsilon", "1e-3",
         "--path"],
        ["robinson", "repair", "--scale", "", "--epsilon", "1e-3",
         "--path"],
    ])
    def test_robinson_scales_empty_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(argv + [str(out), "--box", "32", "--trials", "1"]) == 2
        assert "at least one Robinson scale" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_sft_file(self, reach_pool):
        with pytest.raises(ValueError, match="does not exist"):
            H.run_repair1d_sweep(H.ExperimentSpec(
                kind="repair1d", sft="/nope/missing.sft", epsilons=(0.01,)))

    def test_named_sft_ok(self, reach_pool):
        with pytest.raises(_Pooled):
            H.run_repair1d_sweep(H.ExperimentSpec(
                kind="repair1d", sft="golden-mean", epsilons=(0.01,)))

    @pytest.mark.parametrize("argv", [
        ["repair1d", "--sft", "checkerboard"],
        ["repair2d", "--periodic", "nosuch"],
        ["repair1d", "--sft", "nosuch"],
        ["repair2d", "--periodic", "golden-mean"],
    ])
    def test_unknown_target_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(argv + ["--epsilons", "0.01", "--trials", "1",
                                "--out", str(out)]) == 2
        assert "does not exist or is not a file, and is no" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["repair1d", "--sft", "{dir}", "--box", "100"],
        ["repair2d", "--periodic", "{dir}", "--box", "16"],
    ])
    def test_directory_target_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = [a.format(dir=tmp_path) for a in argv]
        assert cli.main(argv + ["--epsilons", "0.01", "--trials", "1",
                                "--out", str(out)]) == 2
        assert f"SFT file {str(tmp_path)!r} does not exist or is not a " \
            "file" in capsys.readouterr().err
        assert not out.exists()

    def test_repair2d_target_ok(self, tmp_path, reach_pool):
        path = tmp_path / "checker.txt"
        path.write_text(H.CHECKERBOARD_TEXT)
        for target in ("stripes", str(path)):
            with pytest.raises(_Pooled):
                H.run_repair2d_sweep(H.ExperimentSpec(
                    kind="repair2d", sft=target, epsilons=(0.01,)))

    @pytest.mark.parametrize("kind", sorted(H.SWEEP_BOX))
    def test_box_defaults_to_the_kinds_own(self, kind):
        assert H.ExperimentSpec(kind=kind).box == H.SWEEP_BOX[kind]
        assert H.ExperimentSpec(kind=kind, box=(64,)).box == (64,)

    @pytest.mark.parametrize("kind, box", [
        ("repair1d", (3000, 5)), ("repair1d", (40, 40)), ("repair1d", ()),
        ("perc", (64, 200)), ("perc", (8, 8, 8)), ("perc", ()),
        ("repair2d", (8, 8, 8)), ("robinson_repair", (8, 8, 8)),
        ("robinson_repair", ()),
    ])
    def test_box_the_driver_would_not_run(self, kind, box, reach_pool):
        sft = "checkerboard" if kind == "repair2d" else "golden-mean"
        with pytest.raises(ValueError, match=f"a {kind} box takes"):
            DRIVERS[kind](H.ExperimentSpec(kind=kind, sft=sft, box=box,
                                           epsilons=(0.01,)))

    @pytest.mark.parametrize("kind, box", [
        ("repair1d", (3000,)), ("perc", (64,)), ("perc", (64, 64)),
        ("repair2d", (45,)), ("repair2d", (45, 54)),
        ("robinson_repair", (64, 96)), ("robinson_repair", (17, 40)),
    ])
    def test_box_the_driver_runs(self, kind, box, reach_pool):
        sft = "checkerboard" if kind == "repair2d" else "golden-mean"
        with pytest.raises(_Pooled):
            DRIVERS[kind](H.ExperimentSpec(kind=kind, sft=sft, box=box,
                                           epsilons=(0.01,)))

    @pytest.mark.parametrize("scale, box, need", [
        ("3", "20", 33), ("9", "1535", 2049), ("2,3", "32x64", 33)])
    def test_robinson_box_below_the_scale_exit_2(self, scale, box, need,
                                                  tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["robinson", "repair", "--scale", scale, "--box", box,
                         "--epsilon", "1e-3", "--trials", "1", "--path",
                         str(out)]) == 2
        err = capsys.readouterr().err
        assert f"robinson needs every box side at least {need}, " \
            f"got '{box}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["repair1d", "--box", "3000x5", "--epsilons", "0.01"],
        ["perc", "--box", "64x200", "--epsilons", "0.01"],
        ["repair2d", "--periodic", "stripes", "--box", "9x9x9",
         "--epsilons", "0.01"],
        ["robinson", "repair", "--box", "9x9x9", "--epsilon", "0.01"],
        ["repair1d", "--box", "40x40", "--epsilons", "0.01"],
        ["perc", "--box", "8x8x8", "--epsilons", "0.01"],
    ])
    def test_box_the_driver_would_not_run_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        flag = "--path" if argv[0] == "robinson" else "--out"
        assert cli.main(argv + ["--trials", "1", flag, str(out)]) == 2
        assert "box takes" in capsys.readouterr().err
        assert not out.exists()


# a 1D SFT file that forbids a letter, as pinned in tests/test_digests.py
FORBID_ONE = """dim 1
alphabet 0 1 2 3
forbid (0)=1
forbid (0)=3 (1)=0
"""
SFT3 = str(Path(__file__).resolve().parents[1] / "perfbench" / "sft3.txt")


class TestMinSide:
    """Each sweep refuses a box side below the least its trial's kernel
    takes before any trial runs, and runs a box of exactly that side."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("argv, least", [
        (["repair1d", "--sft", "golden-mean"], 11),
        (["repair1d", "--sft", SFT3], 21),
        (["repair1d", "--sft", "FORBID_ONE"], 11),
        (["repair2d", "--periodic", "checkerboard", "--c", "0"], 1),
        (["repair2d", "--periodic", "checkerboard", "--c", "3"], 7),
        (["repair2d", "--periodic", "checkerboard"], 3),
        (["repair2d", "--periodic", "stripes"], 5),
        (["perc", "--c", "1"], 3),
        (["perc", "--c", "2"], 5),
        (["robinson", "repair", "--scale", "3"], 33),
        (["robinson", "repair", "--scale", "2,3"], 33),
    ], ids=["golden-mean", "sft3", "forbid-one", "checkerboard-c0",
            "checkerboard-c3", "checkerboard", "stripes", "perc-c1",
            "perc-c2", "robinson-3", "robinson-2,3"])
    def test_boundary(self, argv, least, threads, tmp_path, capsys,
                      monkeypatch):
        pool_map, ran = H._pool_map, []

        def spy(fn, payloads, threads):
            ran.append(threads)
            return pool_map(fn, payloads, threads)

        monkeypatch.setattr(H, "_pool_map", spy)
        forbid_one = tmp_path / "forbid_one.txt"
        forbid_one.write_text(FORBID_ONE)
        argv = [str(forbid_one) if a == "FORBID_ONE" else a for a in argv]
        robinson = argv[0] == "robinson"
        tail = ["--epsilon" if robinson else "--epsilons", "0.01,0.2",
                "--trials", "2", "--threads", threads,
                "--path" if robinson else "--out"]
        below = tmp_path / "below.csv"
        assert cli.main(argv + ["--box", str(least - 1), *tail,
                                str(below)]) == 2
        if least > 1:  # a side of 0 is no box at all
            assert f"needs every box side at least {least}, got " \
                f"'{least - 1}'" in capsys.readouterr().err
        assert not below.exists()
        assert ran == []
        at = tmp_path / "at.csv"
        assert cli.main(argv + ["--box", str(least), *tail, str(at)]) == 0
        box = list(H.SCHEMA).index("box")
        rows = at.read_text().splitlines()[1:]
        assert rows and {r.split(",")[box] for r in rows} <= \
            {str(least), f"{least}x{least}"}
        assert ran and set(ran) == {int(threads)}


class TestCsv:
    def test_schema_header(self):
        text = H.format_csv([])
        assert text == ",".join(H.SCHEMA) + "\n"

    def test_value_formatting(self):
        row = {c: "" for c in H.SCHEMA}
        row.update(metric="x", value=float("nan"), ci95=0.25,
                   epsilon=1e-3, trials=3)
        line = H.format_csv([row]).splitlines()[1]
        assert "nan" in line and "0.25" in line and "0.001" in line

    def test_write_and_reread(self, tmp_path):
        rows = [dict.fromkeys(H.SCHEMA, 1)]
        path = tmp_path / "t.csv"
        cli._emit(H.format_csv(rows), str(path))
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(H.SCHEMA)
        assert len(lines) == 2


class TestSampling:
    def test_admissible_word(self):
        auto = build_automaton(GOLDEN_MEAN)
        word = H.sample_admissible_word(auto, 5000, 7)
        assert word.shape == (5000,)
        assert is_globally_admissible(auto, tuple(int(v) for v in word))

    def test_deterministic(self):
        auto = build_automaton(GOLDEN_MEAN)
        a = H.sample_admissible_word(auto, 300, 11)
        b = H.sample_admissible_word(auto, 300, 11)
        assert np.array_equal(a, b)

    def test_too_short(self):
        auto = build_automaton(GOLDEN_MEAN)
        with pytest.raises(ValueError):
            H.sample_admissible_word(auto, 0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_walk_avoids_transient_and_dead_states(self, seed):
        # 01 is a dead end and 10 is transient: only 0^Z is admissible
        auto = build_automaton(word_sft("01", ["11", "010"]))
        word = H.sample_admissible_word(auto, 300, seed)
        assert is_globally_admissible(auto, tuple(int(v) for v in word))

    @given(st.lists(st.text("ab", min_size=2, max_size=3), min_size=1,
                    max_size=3), st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_random_sfts_sample_admissibly(self, forbidden, seed):
        auto = build_automaton(word_sft("ab", forbidden))
        if not live_states(auto):
            with pytest.raises(ValueError, match="no admissible"):
                H.sample_admissible_word(auto, 40, seed)
            return
        word = H.sample_admissible_word(auto, 40, seed)
        assert is_globally_admissible(auto, tuple(int(v) for v in word))

    def test_corrupt_touches_only_mask(self):
        data = np.zeros(100, dtype=np.int64)
        mask = np.zeros(100, dtype=bool)
        mask[10:20] = True
        noisy = H.corrupt(data, mask, 5, 3)
        assert np.array_equal(noisy[~mask], data[~mask])


def _walk_reference(auto, length, seed):
    """The sequential walk `sample_admissible_word` replaced: one Python
    step per letter, the same draws."""
    if length < auto.word_len:
        raise ValueError("box shorter than the automaton word length")
    live = live_states(auto)
    if not live:
        raise ValueError("automaton has no admissible configurations")
    edges = [[e for e in out if e[1] in live] for out in auto.edges]
    starts = sorted(live)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 1 << 32, size=length + 1)
    state = starts[int(draws[0]) % len(starts)]
    out = list(auto.states[state])
    for i in range(length - len(out)):
        opts = edges[state]
        letter, state = opts[int(draws[i + 1]) % len(opts)]
        out.append(letter)
    return np.asarray(out[:length], dtype=np.int64)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


small_sfts = st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just("abc"[:k]),
    st.lists(st.text("abc"[:k], min_size=2, max_size=4), min_size=1,
             max_size=4)))


class TestBlockedWalk:
    @given(small_sfts, st.integers(1, 40), st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_walk(self, sft, k, seed):
        auto = build_automaton(word_sft(*sft))
        wl = auto.word_len
        # the walk takes length - word_len steps in blocks of about
        # sqrt(steps): k^2 steps fill k blocks exactly (when k is at least
        # the live state count), k^2 - 1 and k^2 + 1 leave a short block
        for length in (wl - 1, wl, wl + 1, wl + k * k - 1, wl + k * k,
                       wl + k * k + 1):
            want = _outcome(_walk_reference, auto, length, seed)
            got = _outcome(H.sample_admissible_word, auto, length, seed)
            if isinstance(want, str):
                assert got == want
                continue
            assert got.dtype == np.uint8 and got.shape == (length,)
            assert np.array_equal(got, want), (sft, length, seed)

    # each block's lanes meet on golden-mean and sft3 and never meet on
    # ALTERNATING and its two-cycle twin
    @pytest.mark.parametrize("sft", [GOLDEN_MEAN, ALTERNATING,
                                     word_sft("012", ["11", "202", "0220"]),
                                     word_sft("ab", ["ab", "ba"])])
    def test_long_words_match(self, sft):
        auto = build_automaton(sft)
        for length, seed in ((100_000, 3), (4097, 8), (12_345, 9)):
            assert np.array_equal(H.sample_admissible_word(auto, length, seed),
                                  _walk_reference(auto, length, seed))

    @pytest.mark.parametrize("sft", [GOLDEN_MEAN, ALTERNATING,
                                     word_sft("012", ["11", "202", "0220"])])
    def test_blocks_shorter_than_the_meeting_check(self, sft):
        # up to 64 steps the blocks hold at most 8 steps, so the lanes are
        # never checked before a block ends
        auto = build_automaton(sft)
        for length in range(auto.word_len + 1, auto.word_len + 65):
            for seed in (0, 5):
                assert np.array_equal(
                    H.sample_admissible_word(auto, length, seed),
                    _walk_reference(auto, length, seed)), (length, seed)

    @staticmethod
    def _ladder(n):
        # letter i may be followed only by letters <= i + 1: the live
        # out-degrees are 2..n and n, with lcm(2..n) table columns
        al = "abcdefghijklmnopqrst"[:n]
        return build_automaton(word_sft(al, [a + b for i, a in enumerate(al)
                                             for b in al[i + 2:]]))

    def test_eleven_letter_ladder_matches(self):
        auto = self._ladder(11)
        for length, seed in ((1000, 1), (20_000, 2)):
            assert np.array_equal(H.sample_admissible_word(auto, length, seed),
                                  _walk_reference(auto, length, seed))

    def test_twenty_letter_ladder_refused(self):
        # a 20 x lcm(2..20) table would hold 4.7e9 entries
        with pytest.raises(ValueError, match="lcm 232792560"):
            H.sample_admissible_word(self._ladder(20), 1000, 0)


class TestTrialMemory:
    def test_traced_peak_of_a_100k_trial(self):
        # uint8 word, corrupt copy and repair; int64 words peaked at 3.5 MiB
        args = ((GOLDEN_MEAN, 100_000), (0.01,), 5)
        H._trial_repair1d(args)  # automaton caches built outside the trace
        tracemalloc.start()
        try:
            H._trial_repair1d(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20

    def test_traced_peak_of_a_100k_sample(self):
        # uint32 draws and uint8 remainders; int64 draws and intp
        # remainders held at once peaked at 1.59 MiB
        auto = build_automaton(GOLDEN_MEAN)
        H.sample_admissible_word(auto, 100_000, 5)
        tracemalloc.start()
        try:
            H.sample_admissible_word(auto, 100_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2 ** 20


class TestLocalityFlags:
    CONSTS = type("C", (), {"E": 2, "C": 1})()

    def test_far_change_flagged(self):
        flags = H._locality_flags(np.array([500]), np.array([100, 900]),
                                  self.CONSTS, 0, 1000)
        assert not flags.all()

    def test_near_noise_ok(self):
        flags = H._locality_flags(np.array([101, 899]), np.array([100, 900]),
                                  self.CONSTS, 0, 1000)
        assert flags.all()

    def test_edge_margin_ok(self):
        flags = H._locality_flags(np.array([0, 999]), np.array([], dtype=int),
                                  self.CONSTS, 0, 1000)
        assert flags.all()

    @given(st.lists(st.integers(0, 999), max_size=30),
           st.lists(st.integers(0, 999), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, pos, obscured):
        pos = np.array(sorted(set(pos)), dtype=np.int64)
        obs = np.array(sorted(set(obscured)), dtype=np.int64)
        flags = H._locality_flags(pos, obs, self.CONSTS, 0, 1000)
        for p, f in zip(pos, flags):
            near = any(abs(p - o) <= 2 for o in obs)
            edge = p < 2 or p > 997
            assert f == (near or edge)


class TestRepair1dSweep:
    def test_rows_and_monotonicity(self):
        spec = H.ExperimentSpec(kind="repair1d", sft="golden-mean",
                                epsilons=(0.002, 0.02), box=(20_000,),
                                trials=10, seed=0)
        rows = H.run_repair1d_sweep(spec)
        metrics = {(r["epsilon"], r["metric"]): r["value"] for r in rows}
        assert metrics[(0.002, "admissible")] == 1.0
        assert metrics[(0.002, "locality")] == 1.0
        assert metrics[(0.02, "admissible")] == 1.0
        # coupled trial seeds: thickened masks nest, means cannot cross
        assert metrics[(0.002, "changed_fraction")] <= \
            metrics[(0.02, "changed_fraction")]
        assert metrics[(0.02, "changed_fraction")] <= metrics[(0.02, "bound")]

    def test_periodic_target_rejected(self):
        spec = H.ExperimentSpec(kind="repair1d", sft="alternating",
                                epsilons=(0.01,), box=(1000,), trials=2)
        with pytest.raises(ValueError, match="aperiodic"):
            H.run_repair1d_sweep(spec)


class TestPercSweep:
    def test_bound_row(self):
        spec = H.ExperimentSpec(kind="perc", epsilons=(0.002,), box=(128,),
                                trials=10, seed=0, c=2)
        rows = H.run_perc_sweep(spec)
        by = {r["metric"]: r["value"] for r in rows}
        assert by["exclusion_bound"] == exclusion_bound(0.002, 2)
        assert 0.0 <= by["origin_excluded"] <= 1.0


    def test_threads_do_not_change_bytes(self, monkeypatch):
        pool_map, used = H._pool_map, []

        def spy(fn, payloads, threads):
            used.append(threads)
            return pool_map(fn, payloads, threads)

        monkeypatch.setattr(H, "_pool_map", spy)
        spec = H.ExperimentSpec(kind="perc", epsilons=(0.01, 0.05), box=(48,),
                                trials=6, seed=3, c=1)
        one = H.format_csv(H.run_perc_sweep(spec))
        two = H.format_csv(H.run_perc_sweep(dataclasses.replace(spec, threads=2)))
        assert one == two
        assert used == [1, 2]


class TestRepair2dSweep:
    def test_checkerboard_recovery(self):
        spec = H.ExperimentSpec(kind="repair2d", sft="checkerboard",
                                epsilons=(0.003,), box=(96,), trials=6, seed=1)
        rows = H.run_repair2d_sweep(spec)
        by = {r["metric"]: r["value"] for r in rows}
        assert by["offset_recovered"] == 1.0
        assert by["changed_fraction"] <= by["bound"]

    def test_stripes_named(self):
        spec = H.ExperimentSpec(kind="repair2d", sft="stripes",
                                epsilons=(0.001,), box=(81,), trials=3, seed=0)
        rows = H.run_repair2d_sweep(spec)
        assert any(r["metric"] == "changed_fraction" for r in rows)


class TestRobinsonSweep:
    def test_translate_and_slack(self):
        spec = H.ExperimentSpec(kind="robinson_repair", epsilons=(1e-4,),
                                box=(192,), trials=3, seed=0, scales=(2,))
        rows = H.run_robinson_repair(spec)
        by = {r["metric"]: r["value"] for r in rows}
        assert by["translate_recovered"] == 1.0
        assert by["changed_fraction"] <= by["bound"]
        assert rows[0]["sft"] == "robinson-2"


class TestSweepRunner:
    def test_byte_identical_reruns(self, tmp_path):
        def once(path):
            assert cli.main(["repair1d", "--sft", "golden-mean", "--epsilons",
                             "0.01", "--box", "4000", "--trials", "5",
                             "--seed", "3", "--out", path]) == 0
            with open(path, "rb") as fh:
                return fh.read()
        a = once(str(tmp_path / "a.csv"))
        b = once(str(tmp_path / "b.csv"))
        assert a == b

    def test_worker_count_invariance(self):
        base = dict(kind="repair1d", sft="golden-mean", epsilons=(0.01,),
                    box=(3000,), trials=6, seed=5)
        serial = H.format_csv(H.run_repair1d_sweep(
            H.ExperimentSpec(**base, threads=1)))
        pooled = H.format_csv(H.run_repair1d_sweep(
            H.ExperimentSpec(**base, threads=3)))
        assert serial == pooled

    def test_sweep_and_config_are_unknown(self, tmp_path, capsys):
        assert cli.main(["sweep", "--kind", "perc", "--epsilons", "0.01"]) == 2
        assert cli.main(["perc", "--epsilons", "0.01", "--config",
                         str(tmp_path / "s.cfg")]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_unsweepable_kind(self):
        with pytest.raises(ValueError, match="kind 'analyze' is not sweepable; "
                           "choose from perc, repair1d, repair2d, "
                           "robinson_repair"):
            H.run_perc_sweep(H.ExperimentSpec(kind="analyze", epsilons=(0.1,)))


def _values(rows) -> dict:
    """{metric: value} of one instability run's rows."""
    return {r["metric"]: r["value"] for r in rows}


class TestInstabilityPhase1d:
    def test_p2_quarter(self):
        v = _values(H.run_instability_phase1d(2, 50_000, 8, 0))
        assert v["certificate"] == 0.25
        assert abs(v["min_density"] - 0.25) < 0.01
        assert v["obscured_rate"] == pytest.approx(0.5)
        assert v["min_density"] >= v["certificate"] - v["slack"]

    def test_p64_certificate(self):
        v = _values(H.run_instability_phase1d(64, 64_000, 6, 1))
        assert v["certificate"] == 0.4921875
        assert v["min_density"] >= v["certificate"] - v["slack"]
        # 64 divides the box, so the mask density is exact
        assert v["obscured_rate"] == pytest.approx(1 / 64)

    def test_p_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            H.run_instability_phase1d(1, 1000, 2, 0)

    def test_rows_schema(self):
        rows = H.run_instability_phase1d(4, 4000, 3, 2)
        assert {r["metric"] for r in rows} == \
            {"min_density", "certificate", "obscured_rate", "slack"}
        assert all(set(H.SCHEMA) >= set(r) for r in rows)


class TestInstabilityBern1d:
    def test_certificate_value(self):
        v = _values(H.run_instability_bern1d(ALTERNATING, 0.01, 30_000, 20, 0))
        assert v["certificate"] == pytest.approx(0.495)
        assert v["min_density"] >= v["certificate"] - v["slack"]
        # empirical mask rate within 4 sigma of epsilon
        sigma = math.sqrt(0.01 * 0.99 / (30_000 * 20))
        assert abs(v["obscured_rate"] - 0.01) <= 4 * sigma

    def test_zero_noise_certificate(self):
        # no cut at eps 0: the configuration is one translate of the
        # periodic point, which refutes the certificate 0.5
        with pytest.raises(ValueError, match=r"epsilon 0\.0 outside \(0, 1\]"):
            H.run_instability_bern1d(ALTERNATING, 0.0, 5000, 4, 0)

    def test_wrong_classification(self):
        with pytest.raises(ValueError, match="periodic"):
            H.run_instability_bern1d(GOLDEN_MEAN, 0.01, 1000, 2, 0)

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            H.run_instability_bern1d(ALTERNATING, 1.5, 1000, 2, 0)


    def test_cycle_skips_dead_states(self):
        # state 00 has no out edges; 11 is the only live state
        auto = build_automaton(word_sft("01", ["01", "10", "000"]))
        assert H._periodic_cycle(auto).tolist() == [1]
        assert H._periodic_cycle(build_automaton(ALTERNATING)).tolist() == [1, 0]

    def test_dead_first_state(self):
        # a -> nothing; b -> c -> b, with b also stepping into the dead a
        sft = word_sft("abc", ["aa", "ab", "ac", "bb", "cc"])
        assert H._periodic_cycle(build_automaton(sft)).tolist() == [2, 1]
        # a 2-cycle with d = 1, like the alternating shift: same distances
        rows = H.run_instability_bern1d(sft, 0.01, 5000, 4, 0)
        alt = H.run_instability_bern1d(ALTERNATING, 0.01, 5000, 4, 0)
        assert [(r["metric"], r["value"], r["ci95"]) for r in rows] == \
            [(r["metric"], r["value"], r["ci95"]) for r in alt]


class TestInstabilityGrid2d:
    def test_checkerboard_certificate(self):
        p = H.resolve_periodic("checkerboard")[1]
        rows = H.run_instability_grid2d(p, 1, 1, 192, 6, 0)
        v = _values(rows)
        assert v["certificate"] == pytest.approx(1 / 18)
        assert v["min_density"] >= v["certificate"] - v["slack"]
        assert abs(v["obscured_rate"] - rows[0]["epsilon"]) < 0.02

    def test_constant_orbit_rejected(self):
        flat = Sft(dim=2, alphabet=("a",), forbidden=frozenset())
        p = PeriodicSft(sft=flat, period=2, base=np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="non-constant"):
            H.run_instability_grid2d(p, 1, 1, 64, 2, 0)

    def test_k_too_small(self):
        p = H.resolve_periodic("checkerboard")[1]
        with pytest.raises(ValueError, match="too small"):
            H.run_instability_grid2d(p, 0, 1, 64, 2, 0)


class TestMaskRuns:
    def test_cuts_at_long_runs(self):
        mask = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        seg, cuts = H._mask_runs(mask, 2)
        assert cuts == 2
        assert seg[0] == 0 and seg[3] == 1 and seg[6] == 1

    def test_short_runs_ignored(self):
        mask = np.array([0, 1, 0, 1, 0], dtype=bool)
        seg, cuts = H._mask_runs(mask, 2)
        assert cuts == 0
        assert np.array_equal(seg, np.zeros(5))

    @given(st.lists(st.booleans(), min_size=1, max_size=80),
           st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_segments_monotone(self, bits, d):
        mask = np.array(bits, dtype=bool)
        seg, cuts = H._mask_runs(mask, d)
        assert seg.shape == mask.shape
        assert np.all(np.diff(seg) >= 0)
        assert seg[-1] <= cuts


class TestNearestReference:
    def test_least_trial_mean_not_per_trial_minimum(self):
        # reference 0 reads 0.1 then 0.5 (mean 0.3), reference 1 reads 0.4
        # then 0.3 (mean 0.35); the per-trial minima would average 0.2
        per_trial = [{"per_ref": [0.1, 0.4], "obscured": 0.25},
                     {"per_ref": [0.5, 0.3], "obscured": 0.5}]
        got = H._nearest_reference(0.4, (100,))(0.1, per_trial)
        assert got == {"min_density": H.mean_ci([0.1, 0.5]),
                       "certificate": (0.4, 0.0),
                       "obscured_rate": (0.375, 0.0),
                       "slack": (0.4, 0.0)}
        assert got["min_density"][0] == pytest.approx(0.3)
        assert list(got) == ["min_density", "certificate", "obscured_rate",
                             "slack"]


class TestPlotAndConfig:
    def test_plot_with_data(self, tmp_path):
        rows = [
            {"sft": "x", "metric": "changed_fraction", "epsilon": e,
             "value": 10 * e, "ci95": 0.0} for e in (1e-3, 1e-2)
        ] + [
            {"sft": "x", "metric": "bound", "epsilon": e, "value": 15 * e,
             "ci95": 0.0} for e in (1e-3, 1e-2)
        ]
        path = tmp_path / "p.svg"
        H.write_plot(str(path), rows)
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text
        import xml.etree.ElementTree as ET
        ET.fromstring(text)

    @pytest.mark.parametrize("argv", [["perc"], ["perc", "--c", "2"]])
    def test_perc_plot_dashes_the_union_bound(self, argv, tmp_path):
        path = tmp_path / "p.svg"
        assert cli.main(argv + ["--epsilons", "0.01,0.05", "--box", "32",
                                "--trials", "2", "--out", str(tmp_path / "p.csv"),
                                "--plot", str(path)]) == 0
        dashed = [line for line in path.read_text().splitlines()
                  if line.startswith("<polyline") and "stroke-dasharray" in line]
        assert len(dashed) == 1
        assert ">origin_excluded vs epsilon</text>" in path.read_text()

    def test_plot_no_data(self, tmp_path):
        path = tmp_path / "p.svg"
        H.write_plot(str(path), [])
        assert "no data" in path.read_text()


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--sft", "golden-mean", "--seed", "1"],
        ["analyze", "--sft", "golden-mean", "--threads", "2"],
        ["analyze", "--sft", "golden-mean", "--plot", "x.svg"],
        ["sample", "--model", "bernoulli:0.5", "--box", "8", "--threads", "2"],
        ["sample", "--model", "bernoulli:0.5", "--box", "8", "--plot", "x.svg"],
        ["instability", "phase1d", "--p", "2", "--box", "400", "--trials",
         "1", "--plot", "x.svg"],
        ["instability", "bern1d", "--epsilon", "0.01", "--box", "400",
         "--threads", "2"],
        ["instability", "grid2d", "--box", "32", "--plot", "x.svg"],
    ])
    def test_unread_flags_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert not list(tmp_path.iterdir())


    def test_analyze_ok(self, capsys):
        assert cli.main(["analyze", "--sft", "golden-mean"]) == 0
        out = capsys.readouterr().out
        assert "irreducible_aperiodic" in out and "E: 2" in out

    def test_analyze_readme_sft_file(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Golden mean (no two adjacent 1s) as a file:"
                               "\n\n```\n")[1].split("```")[0]
        path = tmp_path / "golden.sft"
        path.write_text(example)
        assert cli.main(["analyze", "--sft", str(path)]) == 0
        got = capsys.readouterr().out.splitlines()
        assert cli.main(["analyze", "--sft", "golden-mean"]) == 0
        want = capsys.readouterr().out.splitlines()
        assert got[0] == "sft: golden" and got[1:] == want[1:]

    def test_analyze_periodic(self, capsys):
        assert cli.main(["analyze", "--sft", "alternating"]) == 0
        assert "period: 2" in capsys.readouterr().out

    def test_validation_exit_2(self, capsys):
        assert cli.main(["analyze", "--sft", "missing-system"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_exit_2(self):
        assert cli.main(["perc", "--no-such-flag"]) == 2

    def test_runtime_exit_3(self, monkeypatch, capsys):
        def boom(spec):
            raise RuntimeError("cosmic ray")
        monkeypatch.setattr(cli.hn, "run_perc_sweep", boom)
        code = cli.main(["perc", "--epsilons", "0.001"])
        assert code == 3
        assert "cosmic ray" in capsys.readouterr().err

    def test_sweeps_run_without_scipy(self, tmp_path):
        # scipy is blocked, so any import of it, even one deferred to the
        # code a sweep runs, fails the call
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from noisysft import cli\n"
            "calls = json.loads(sys.argv[1])\n"
            "codes = [cli.main(argv) for argv in calls]\n"
            "print(json.dumps([codes, sorted(\n"
            "    m for m, v in sys.modules.items()\n"
            "    if m.startswith('scipy') and v is not None)]))\n")
        sweep = ["--trials", "2", "--seed", "3"]
        calls = [
            ["perc", "--epsilons", "0.01,0.3", "--box", "64", "--c", "0",
             "--out", str(tmp_path / "p0.csv")] + sweep,
            ["perc", "--epsilons", "0.01,0.3", "--box", "64", "--c", "1",
             "--out", str(tmp_path / "p1.csv")] + sweep,
            ["repair2d", "--periodic", "checkerboard", "--epsilons",
             "0.01,0.05", "--box", "32", "--out", str(tmp_path / "r.csv")]
            + sweep,
            ["robinson", "repair", "--scale", "2", "--box", "17", "--epsilon",
             "1e-3", "--out", "csv", "--path", str(tmp_path / "b.csv")]
            + sweep,
        ]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src))
        codes, loaded = json.loads(out.stdout.splitlines()[-1])
        assert codes == [0, 0, 0, 0], out.stderr
        assert loaded == []
        for name in ("p0", "p1", "r", "b"):
            assert (tmp_path / f"{name}.csv").read_text().count("\n") > 1

    def test_sweeps_leave_numpy_ma_unloaded(self, tmp_path):
        # numpy.ma takes about 10 ms to import; plain np.unique and
        # np.setdiff1d load it through their masked-array check
        script = (
            "import json, sys\n"
            "from noisysft import cli\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded.append('numpy.ma' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
        sweep = ["--trials", "2", "--seed", "3"]
        calls = [
            ["repair1d", "--epsilons", "0.02", "--box", "5000",
             "--out", str(tmp_path / "l.csv")] + sweep,
            ["perc", "--epsilons", "0.01,0.3", "--box", "64", "--c", "0",
             "--out", str(tmp_path / "p0.csv")] + sweep,
            ["perc", "--epsilons", "0.01,0.3", "--box", "64", "--c", "1",
             "--out", str(tmp_path / "p1.csv")] + sweep,
            ["repair2d", "--periodic", "checkerboard", "--epsilons",
             "0.01,0.05", "--box", "64", "--out", str(tmp_path / "r.csv")]
            + sweep,
            ["robinson", "repair", "--scale", "2", "--box", "64", "--epsilon",
             "1e-2", "--out", "csv", "--path", str(tmp_path / "b.csv")]
            + sweep,
        ]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert json.loads(out.stdout.splitlines()[-1]) == [False] * 5

    def test_import_leaves_the_axis_cache_empty(self):
        # the seed-free axis terms of the noise hash are mixed on first
        # use, so the set-up time of a run holds none of them
        script = ("from noisysft import cli, noise\n"
                  "info = noise._axis_term.cache_info()\n"
                  "print(info.currsize, info.misses)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.split() == ["0", "0"]

    def test_perc_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        code = cli.main(["perc", "--epsilons", "0.002", "--box", "64",
                         "--trials", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == list(H.SCHEMA)
        assert len(lines) == 3

    def test_sample_mask(self, capsys):
        assert cli.main(["sample", "--model", "bernoulli:0.5", "--box", "8x8",
                         "--seed", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 9 and set(out[1]) <= {"0", "1"}

    @pytest.mark.parametrize("argv, err", [
        (["--box", "2x2x2"], "a sample box takes one or two sides, got "
         "'2x2x2'"),
        (["--box", "8x8", "--sft", "golden-mean"],
         "a sample --sft box takes one side, got '8x8'"),
    ])
    def test_sample_box_it_cannot_print_exit_2(self, argv, err, tmp_path,
                                               capsys):
        out = tmp_path / "s.txt"
        assert cli.main(["sample", "--model", "bernoulli:0.5", *argv,
                         "--out", str(out)]) == 2
        assert err in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed, code", [(-5, 2), (2 ** 64, 2),
                                            (2 ** 64 - 1, 0)])
    def test_sample_seed_range(self, seed, code, capsys):
        assert cli.main(["sample", "--model", "bernoulli:0.5", "--box", "8",
                         "--sft", "golden-mean", "--seed", str(seed)]) == code
        assert ("[0, 2^64)" in capsys.readouterr().err) == (code == 2)

    def test_robinson_gen_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        assert cli.main(["robinson", "gen", "--scale", "2", "--orient", "se",
                         "--path", str(path)]) == 0
        from noisysft.robinson import build_macro
        assert path.read_text().splitlines()[0] == "robinson-v1 3 3"
        body = np.loadtxt(path, dtype=np.int8, skiprows=1)
        assert np.array_equal(body, build_macro(2, 0))

    def test_robinson_gen_svg(self, capsys):
        assert cli.main(["robinson", "gen", "--scale", "1", "--out",
                         "svg"]) == 0
        assert "<svg" in capsys.readouterr().out

    def test_robinson_verify_subset(self, capsys):
        assert cli.main(["robinson", "verify", "--check", "tileset"]) == 0
        assert "[ok] tile count 56" in capsys.readouterr().out

    def test_robinson_verify_edges_runs_only_the_edge_checks(self, capsys):
        assert cli.main(["robinson", "verify", "--check", "edges"]) == 0
        names = [line.split(":")[0] for line in
                 capsys.readouterr().out.splitlines()]
        assert names == ["[ok] l3=1100100", "[ok] t3=1101100",
                         "[ok] edge word algebra to N=20",
                         "[ok] read-off words match to N=6"]

    @pytest.mark.parametrize("check", ["tilset", "", " , ", "tileset,warp"])
    def test_robinson_verify_unknown_group_exit_2(self, check, capsys):
        assert cli.main(["robinson", "verify", "--check", check]) == 2
        captured = capsys.readouterr()
        assert "tileset,edges,align,peel" in captured.err
        assert not captured.out

    def test_instability_cli(self, tmp_path, capsys):
        """The summary reads the run's own CSV rows, and the finite-size gap
        line shows only when the estimate is under the certificate by more
        than the slack: not for phase1d at p 64 (0.4892 against 0.4922 -
        0.0498), but for bern1d at box 400 (0.155 against 0.475 - 0.2)."""
        out = tmp_path / "i.csv"
        # (argv, estimate under the certificate, gap line)
        for argv, under, gap in [
                (["phase1d", "--p", "2", "--box", "4000", "--trials", "3"],
                 False, False),
                (["phase1d", "--p", "64", "--box", "6450", "--trials", "3"],
                 True, False),
                (["bern1d", "--epsilon", "0.05", "--box", "400", "--trials",
                  "1", "--seed", "0"], True, True)]:
            assert cli.main(["instability"] + argv + ["--out", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            # metric, value, ci95 from the right: a grid model label holds
            # a comma
            cell = {m: (float(v), float(ci)) for m, v, ci in
                    (line.rsplit(",", 3)[1:]
                     for line in out.read_text().splitlines()[1:])}
            (est, ci), cert = cell["min_density"], cell["certificate"][0]
            want = [f"estimate: {est:.6f} +- {ci:.6f}",
                    f"certificate: {cert:.6f}",
                    f"obscured_rate: {cell['obscured_rate'][0]:.6f}",
                    f"slack: {cell['slack'][0]:.6f}"]
            if gap:
                want.append(f"finite-size gap: {cert - est:.6f} (estimate "
                            f"under certificate; grow the box or trials)")
            assert lines == want
            assert (est < cert) == under
        assert want[:2] == ["estimate: 0.155000 +- 0.000000",
                            "certificate: 0.475000"]

    @pytest.mark.parametrize("argv", [
        ["phase1d", "--p", "4", "--box", "400x7"],
        ["bern1d", "--epsilon", "0.01", "--box", "400x400"],
        ["grid2d", "--box", "64x32"],
        ["grid2d", "--box", "64x64x64"],
    ])
    def test_instability_box_it_would_not_run_exit_2(self, argv, tmp_path,
                                                       capsys):
        out = tmp_path / "i.csv"
        assert cli.main(["instability"] + argv
                        + ["--trials", "1", "--out", str(out)]) == 2
        assert f"an instability {argv[0]} box takes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["instability", "phase1d", "--p", "2", "--box", "400"],
        ["instability", "bern1d", "--epsilon", "0.01", "--box", "400"],
        ["instability", "grid2d", "--box", "32"],
        ["repair1d", "--epsilons", "0.01", "--box", "400"],
        ["perc", "--epsilons", "0.01", "--box", "32"],
    ])
    def test_instability_needs_a_trial_exit_2(self, argv, trials, tmp_path,
                                              capsys):
        out = tmp_path / "i.csv"
        assert cli.main(argv + ["--trials", trials, "--out", str(out)]) == 2
        assert "need at least one trial" in capsys.readouterr().err
        assert not out.exists()

    def test_instability_grid2d_square_box(self, tmp_path):
        out = tmp_path / "i.csv"
        assert cli.main(["instability", "grid2d", "--box", "32x32",
                         "--trials", "1", "--out", str(out)]) == 0
        assert ",32x32," in out.read_text()

    @pytest.mark.parametrize("argv, model", [
        (["phase1d", "--p", "2", "--box", "400"], "grid:1,1"),
        # checkerboard: n = 1 block of the period-2 orbit
        (["grid2d", "--k", "1", "--n", "1", "--box", "32"], "grid:1,2"),
    ])
    def test_instability_csv_quotes_grid_model(self, argv, model, tmp_path):
        """A grid model label holds a comma, so its field is quoted and a
        CSV reader gets the schema's ten fields with the whole label."""
        out = tmp_path / "i.csv"
        assert cli.main(["instability"] + argv
                        + ["--trials", "1", "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == list(H.SCHEMA) and rows
        for row in rows:
            assert None not in row and len(row) == len(H.SCHEMA)
            assert row["model"] == model and float(row["value"]) >= 0
        assert f'"{model}"' in out.read_text()

    @pytest.mark.parametrize("argv, err", [
        (["perc", "--proxy", "largest", "--epsilons", "0.01", "--box", "32",
          "--trials", "1"], "unrecognized arguments: --proxy"),
        (["robinson", "verify", "--sampled"],
         "unrecognized arguments: --sampled"),
        (["sample", "--model", "phase:5", "--box", "8"],
         "unknown noise model 'phase'"),
        (["sample", "--model", "thick:1:bernoulli:0.1", "--box", "8"],
         "unknown noise model 'thick'"),
    ], ids=["perc-proxy", "verify-sampled", "phase", "thick"])
    def test_removed_options_exit_2(self, argv, err, capsys):
        assert cli.main(argv) == 2
        assert err in capsys.readouterr().err

    @pytest.mark.parametrize("tail, line, what", [
        ("period 0\nbase a b b a\n", 7, "period must be a positive integer"),
        ("period -1\nbase a b b a\n", 7, "period must be a positive integer"),
        ("period x\nbase a b b a\n", 7, "period must be a positive integer"),
        ("period 2\nperiod 2\nbase a b b a\n", 8, "duplicate period"),
        ("period 2\nbase a b b a\nbase b a a b\n", 9, "duplicate base"),
    ], ids=["zero", "negative", "word", "two-periods", "two-bases"])
    def test_malformed_periodic_file_exit_2(self, tail, line, what, tmp_path,
                                            capsys):
        # the checkerboard's dim, alphabet and four forbid lines: lines 1-6
        rules = H.CHECKERBOARD_TEXT.strip().split("\nperiod")[0]
        path = tmp_path / "bad.txt"
        path.write_text(rules + "\n" + tail)
        out = tmp_path / "r.csv"
        assert cli.main(["repair2d", "--periodic", str(path), "--box", "16",
                         "--epsilons", "0.01", "--trials", "1", "--out",
                         str(out)]) == 2
        assert f"error: line {line}: {what}" in capsys.readouterr().err
        assert not out.exists()

    def test_periodic_file_that_does_not_pin_its_orbit(self, tmp_path,
                                                       capsys):
        # the one rule bars two a's side by side, so the all-b pattern is
        # locally admissible on every ball and no radius pins the orbit
        path = tmp_path / "loose.txt"
        path.write_text("dim 2\nalphabet a b\nforbid (0,0)=a (0,1)=a\n"
                        "period 2\nbase a b b a\n")
        argv = ["repair2d", "--periodic", str(path), "--box", "16",
                "--epsilons", "0.01", "--trials", "1", "--out",
                str(tmp_path / "r.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the local rules do not pin the periodic "
                              "orbit within the cap")
        assert "--c" in err
        assert not (tmp_path / "r.csv").exists()
        assert cli.main(argv + ["--c", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["repair2d", "--epsilons", "0.01", "--trials", "1"],
        ["instability", "grid2d", "--trials", "1"],
    ], ids=["repair2d", "instability-grid2d"])
    def test_one_dimensional_periodic_file_exit_2(self, argv, tmp_path,
                                                  capsys):
        path = tmp_path / "alt.txt"
        path.write_text("dim 1\nalphabet 0 1\nforbid (0)=0 (1)=0\n"
                        "forbid (0)=1 (1)=1\nperiod 2\nbase 0 1\n")
        out = tmp_path / "r.csv"
        assert cli.main(argv + ["--periodic", str(path), "--box", "16",
                                "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "needs a 2D periodic SFT, got dim 1" in captured.err
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("box, c, threads", [
        ("2", "1", "1"), ("2", "1", "2"), ("4x4", "2", "1"), ("1", "1", "1")])
    def test_perc_box_too_small_to_thicken_exit_2(self, box, c, threads,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        ran = []
        monkeypatch.setattr(H, "_pool_map",
                            lambda fn, payloads, threads: ran.append(fn))
        out = tmp_path / "p.csv"
        assert cli.main(["perc", "--box", box, "--c", c, "--epsilons", "0.1",
                         "--trials", "3", "--threads", threads, "--out",
                         str(out)]) == 2
        need = 2 * int(c) + 1
        assert f"perc needs every box side at least {need}, got '{box}'" \
            in capsys.readouterr().err
        assert not out.exists()
        assert ran == []

    def test_perc_smallest_box_runs(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli.main(["perc", "--box", "3", "--c", "1", "--epsilons", "0.1",
                         "--trials", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_sweep_default_box_is_the_kinds_own(self, tmp_path):
        out = tmp_path / "s.csv"
        code = cli.main(["repair2d", "--periodic", "checkerboard",
                         "--epsilons", "0.01", "--trials", "1", "--out",
                         str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        box = list(H.SCHEMA).index("box")
        assert len(rows) > 1
        assert {r.split(",")[box] for r in rows[1:]} == {"512x512"}


# each sweep subcommand, the driver it runs and the spec it should build
CLI_SWEEPS = {
    "perc": (["perc", "--epsilons", "0.01,0.05", "--box", "48", "--c", "2",
              "--trials", "3", "--seed", "8", "--out"], "run_perc_sweep",
             dict(kind="perc", epsilons=(0.01, 0.05), box=(48,), c=2,
                  trials=3, seed=8)),
    "repair1d": (["repair1d", "--epsilons", "0.005,0.02", "--box", "3000",
                  "--trials", "2", "--seed", "3", "--out"],
                 "run_repair1d_sweep",
                 dict(kind="repair1d", sft="golden-mean",
                      epsilons=(0.005, 0.02), box=(3000,), trials=2, seed=3)),
    "repair2d": (["repair2d", "--periodic", "stripes", "--epsilons", "0.003",
                  "--box", "45x54", "--trials", "2", "--seed", "6", "--out"],
                 "run_repair2d_sweep",
                 dict(kind="repair2d", sft="stripes", epsilons=(0.003,),
                      box=(45, 54), trials=2, seed=6)),
    "robinson repair": (["robinson", "repair", "--epsilon", "1e-4,1e-3",
                         "--scale", "3,2", "--box", "113", "--trials", "2",
                         "--seed", "7", "--out", "csv", "--path"],
                        "run_robinson_repair",
                        dict(kind="robinson_repair", epsilons=(1e-4, 1e-3),
                             scales=(3, 2), box=(113,), trials=2, seed=7)),
}


@pytest.mark.parametrize("name", sorted(CLI_SWEEPS))
def test_cli_out_is_format_csv_of_driver_rows(name, tmp_path):
    argv, driver, kw = CLI_SWEEPS[name]
    out = tmp_path / "o.csv"
    assert cli.main(argv + [str(out)]) == 0
    rows = getattr(H, driver)(H.ExperimentSpec(**kw))
    assert out.read_bytes() == H.format_csv(rows).encode()
