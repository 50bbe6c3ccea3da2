"""Structure-only smoke test of the benchmark, at toy size.

Every workload runs on tens of rows (BN254 on 1 x 2) for a fraction of
a second.  Nothing here looks at a wall-clock value, so the tier-1 run
that collects this file gains no timing flake.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics  # noqa: E402 - needs the path above
from perfbench.harness import run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def toy(name: str, seed: int, trace: bool) -> dict:
    seconds = 0.3 if name == "series_mix" else 0.01
    return run_workload(name, seed, seconds, trace, toy=True, setups=1)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in SPEC["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, cls.WHY) for name, cls in WORKLOADS.items()
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(
        UNIT.fullmatch(m["unit"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]
    )
    assert all(
        len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in SPEC["workloads"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(metrics.EXACT) <= {m["name"] for m in SPEC["per_layer"]}


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def children() -> set[int]:
    """Live child processes (other suites in this process may own some)."""
    mine = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # it exited while we looked
            if int(fields[1]) == os.getpid():
                mine.add(int(entry))
    return mine


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_structure(name):
    fds, before = open_fds(), children()
    traced = toy(name, seed=3, trace=True)
    again = toy(name, seed=3, trace=True)
    other = toy(name, seed=4, trace=False)
    # Torn down: no descriptor, child process or scratch file is left.
    assert open_fds() == fds
    assert children() <= before
    assert not (ROOT / "perfbench" / ".work").exists()
    for result in (traced, again, other):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert list(other["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in other["metrics"].values())
    # Counts and byte sizes are properties of the inputs, not of the clock.
    for exact in metrics.EXACT:
        assert traced["values"].get(exact) == again["values"].get(exact), exact
    # The traced run's layer table covers the operation it breaks down.
    shares: dict[str, float] = {}
    for root, _, _, _, share in traced["layer_table"]:
        shares[root] = shares.get(root, 0.0) + share
    assert shares and all(abs(s - 1.0) < 1e-6 for s in shares.values())
    # One seed, one schedule; another seed, another.
    shared = min(len(traced["schedule"]), len(again["schedule"]))
    assert traced["schedule"][:shared] == again["schedule"][:shared]
    if name == "series_mix":
        assert shared > 5
        assert traced["schedule"][:shared] != other["schedule"][:shared]
