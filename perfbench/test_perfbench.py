"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Short runs of every workload, untraced and traced, must verify every op
against the pins, and the traced rebuild must reproduce the untraced tallies.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_check_seeds_are_pinned():
    for name in workloads.WORKLOADS:
        pins = workloads.load_pins(name)
        assert set(workloads.CHECK_SEEDS) <= pins.keys()


def test_verify_flags_pin_and_rebuild_mismatches():
    w = workloads.WORKLOADS["sc_n256"]
    code = w.design()
    pins = workloads.load_pins(w.name)
    seed = workloads.DEFAULT_SEED
    frames, bit_errors, frame_errors = pins[seed][0]
    bad_pins = dict(pins)
    bad_pins[seed] = ((frames, bit_errors + 1, frame_errors), pins[seed][1])
    ops = [run.Op(seed, 0.1, pins[seed][0])]
    run.verify(w, code, bad_pins, ops, {})
    assert any("pinned" in p for p in ops[0].problems)

    ops = [run.Op(seed, 0.1, pins[seed][0])]
    wrong_hash = {seed: (pins[seed][0], "0" * 64)}
    run.verify(w, code, pins, ops, wrong_hash)
    assert ops[0].problems == ["decoded-word hash differs from the pin"]

    ops = [run.Op(seed, 0.1, pins[seed][0])]
    extra = run.verify(w, code, {}, ops, {})
    assert all("not pinned" in " ".join(op.problems) for op in ops + extra)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in (11, 12, 40, 41, 99, 1000):
        values = list(range(n))
        value, pct = run.tail(values)
        assert sum(v > value for v in values) >= 10
        assert n - math.ceil((pct + 1) * n / 100) < 10


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_untraced_run_is_verified(name):
    details, res = result_of(bench("--workload", name, "--seed", str(workloads.DEFAULT_SEED),
                                   "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0, details["problems"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert details["pinned_ops_checked"] == res["attempted"]
    assert details["fail_frac"] == 0
    assert details["context"]["base_seed"] == workloads.DEFAULT_SEED


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_traced_run_reproduces_untraced_tallies(name):
    details, res = result_of(bench("--workload", name, "--seed", "3", "--seconds", "1",
                                   "--trace", "1"))
    assert res["correct"] and res["failed"] == 0, details["problems"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert details["pinned_ops_checked"] == res["attempted"]
    spans = json.loads((ROOT / details["spans_file"]).read_text())
    assert spans["context"]["base_seed"] == 3
    ops = {s[4] for s in spans["spans"]}
    assert ops == set(range(details["traced_ops"]))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sc_n256", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
