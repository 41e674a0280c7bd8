"""Pinned CSV bytes: one tiny spec per sweep driver and per instability
construction.

The digests were recorded before the drivers were rewritten around one
trial contract; a refactor that keeps the numbers keeps them.  A change
that moves any byte of these CSVs is a change in behaviour and must say
so.
"""

import hashlib

import pytest

from noisysft import cli
from noisysft import harness as H

SFT3 = """dim 1
alphabet 0 1 2
forbid (0)=1 (1)=1
forbid (0)=2 (1)=0 (2)=2
forbid (0)=0 (1)=2 (2)=2 (3)=0
"""

# a forbidden letter, so automaton state i is not letter i; recorded after
# bare-int states stopped being read as letters
FORBID_ONE = """dim 1
alphabet 0 1 2 3
forbid (0)=1
forbid (0)=3 (1)=0
"""

SFT_FILES = {"SFT3": ("sft3.txt", SFT3),
             "FORBID_ONE": ("forbid_one.txt", FORBID_ONE)}


def _digest(rows) -> str:
    return hashlib.sha256(H.format_csv(rows).encode()).hexdigest()


SWEEPS = {
    "repair1d-golden-mean": (H.run_repair1d_sweep, dict(
        kind="repair1d", sft="golden-mean", epsilons=(0.005, 0.02),
        box=(3000,), trials=3, seed=3)),
    "repair1d-sft3": (H.run_repair1d_sweep, dict(
        kind="repair1d", sft="SFT3", epsilons=(0.005, 0.02), box=(3000,),
        trials=3, seed=4)),
    "repair1d-forbid-one": (H.run_repair1d_sweep, dict(
        kind="repair1d", sft="FORBID_ONE", epsilons=(0.005, 0.02),
        box=(3000,), trials=3, seed=11)),
    "repair2d-checkerboard": (H.run_repair2d_sweep, dict(
        kind="repair2d", sft="checkerboard", epsilons=(0.003, 0.01),
        box=(48,), trials=3, seed=5)),
    "repair2d-stripes": (H.run_repair2d_sweep, dict(
        kind="repair2d", sft="stripes", epsilons=(0.003,), box=(45, 54),
        trials=2, seed=6)),
    "robinson": (H.run_robinson_repair, dict(
        kind="robinson_repair", epsilons=(1e-4, 1e-3), box=(113,), trials=2,
        seed=7, scales=(3, 2))),
    "perc": (H.run_perc_sweep, dict(
        kind="perc", epsilons=(0.01, 0.05), box=(48,), trials=6, seed=8,
        c=1)),
    "sweep-repair1d": (H.run_repair1d_sweep, dict(
        kind="repair1d", sft="golden-mean", epsilons=(0.01, 0.03),
        box=(2000,), trials=2, seed=9)),
}

DIGESTS = {
    "repair1d-golden-mean":
        "7f61c077ccb6b18b48c7efc89d1f9bf7bc874b12f1e498a95d70ab0b4bfa4ff4",
    "repair1d-sft3":
        "7aaffd01be044d60c50280a8228d53bdcf2b9b46690edacbc18f4050da2b4229",
    "repair1d-forbid-one":
        "81b22067633efddd8d54dba697f0fcd3905333344d37a2ebb65759862fa1ddcb",
    "repair2d-checkerboard":
        "d97eb048417a686fdf7d9170532fc11ab38796802896b50b3cf5208fc56eaec9",
    "repair2d-stripes":
        "a8345b537bcf0b12b98e98e76e1e6db763df9d131ccbf203f738696cf4f9dbef",
    "robinson":
        "1e169b15121fceee8370c01ae1cc2a9a1b6e8b06f97ad16eccccce6348952308",
    "perc":
        "445f39c03cc7a7dd78c778861a61964d68b0e366f478f6cac332cbe54c4b28a8",
    "sweep-repair1d":
        "ecd63d4e3be8af6e034a3a8c0aee39282a8454019cf039bf01604ac327ae64a4",
    "instability":
        "401e02631abd8e877c0448a2a2b354485a14e7a9d23895d14462c70c60521ea9",
}


def _run(name, tmp_path, **extra) -> str:
    driver, kw = SWEEPS[name]
    if kw.get("sft") in SFT_FILES:
        fname, text = SFT_FILES[kw["sft"]]
        path = tmp_path / fname
        path.write_text(text)
        kw = dict(kw, sft=str(path))
    return _digest(driver(H.ExperimentSpec(**kw, **extra)))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_digest(name, tmp_path):
    assert _run(name, tmp_path) == DIGESTS[name]


def test_instability_digest():
    checkerboard = H.resolve_periodic("checkerboard")[1]
    rows = (H.run_instability_phase1d(4, 4000, 3, 2)
            + H.run_instability_bern1d("alternating", 0.02, 3000, 3, 5)
            + H.run_instability_grid2d(checkerboard, 1, 2, 40, 3, 6))
    assert _digest(rows) == DIGESTS["instability"]


# stdout of `noisysft robinson verify`: every check's name, flag and detail
VERIFY_DIGEST = \
    "b447f9a927445d9c52ea784b6aa1dc69d42aae6ba1de1321b041f4e4173f59a7"


def test_robinson_verify_digest(capsys):
    assert cli.main(["robinson", "verify"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST


@pytest.mark.parametrize("name", ["repair1d-sft3", "repair2d-checkerboard",
                                  "robinson", "perc"])
def test_worker_processes_keep_digest(name, tmp_path):
    """Payloads (automata, periodic systems) survive the trip to worker
    processes and the pooled rows keep their bytes."""
    assert _run(name, tmp_path, threads=2) == DIGESTS[name]
