"""Bit-exactness guard: op seed 1 of every benchmark workload, rebuilt from
public calls, must reproduce the tallies and decoded-word SHA-256 pinned in
perfbench/pins.json, and `simulate_point` must reproduce the tallies. A
change that moves decoded words fails here in seconds instead of only in the
benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_op_seed_1(name):
    w = workloads.WORKLOADS[name]
    code = w.design()
    tallies, sha = workloads.rebuild_op(w, code, 1, workloads.Tracer(), 0)
    assert (tallies, sha) == workloads.load_pins(name)[1]
    assert workloads.run_op(w, code, 1, workers=1) == tallies
