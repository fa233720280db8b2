import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarkit as pk
from polarkit.cli import main
from polarkit.core import CRC32
from polarkit.decoder import ModeConfig
from polarkit import sim
from polarkit.sim import (
    SimPoint,
    SweepSpec,
    points_to_csv,
    simulate_point,
    simulate_sweep,
)


@pytest.fixture(scope="module")
def small_code(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "c256.json"
    code = pk.select_frozen(pk.bec_reliability(8, 0.5), 128)
    pk.save_code_file(code, path)
    return code, path


def test_simulate_point_tallies_consistent(small_code):
    code, _ = small_code
    pt = simulate_point(code, ModeConfig.mode1(), "awgn", 2.0, seed=7,
                        target_fe=30, max_frames=4000, batch_frames=64)
    assert 0 < pt.frame_errors <= pt.frames
    assert pt.bit_errors <= pt.frames * code.K
    assert pt.fer == pt.frame_errors / pt.frames
    assert pt.ber == pt.bit_errors / (pt.frames * code.K)


def test_simulate_worker_count_invariance(small_code):
    code, _ = small_code
    kw = dict(seed=3, target_fe=25, max_frames=3000, batch_frames=64)
    a = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=1, **kw)
    b = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=2, **kw)
    assert a == b


def test_simulate_seed_changes_results(small_code):
    code, _ = small_code
    kw = dict(target_fe=0, max_frames=512, batch_frames=64)
    a = simulate_point(code, ModeConfig.mode1(), "awgn", 2.0, seed=1, **kw)
    b = simulate_point(code, ModeConfig.mode1(), "awgn", 2.0, seed=2, **kw)
    assert (a.bit_errors, a.frame_errors) != (b.bit_errors, b.frame_errors)


def test_simulate_bec_channel(small_code):
    code, _ = small_code
    pt = simulate_point(code, ModeConfig.mode1(), "bec", 0.3, seed=5,
                        target_fe=20, max_frames=2000, batch_frames=64)
    assert pt.eps == 0.3 and pt.snr_db is None
    assert pt.frames > 0


def test_fer_decreases_with_snr(small_code):
    code, _ = small_code
    spec = SweepSpec("awgn", (1.0, 2.0, 3.0), max_frames=3000,
                     target_frame_errors=0, seed=11)
    pts = simulate_sweep(code, ModeConfig.mode1(), spec, batch_frames=64)
    fers = [p.fer for p in pts]
    assert fers[0] > fers[1] > fers[2]
    assert fers[2] < 0.2


def test_crc_capacity_guard():
    code = pk.select_frozen(pk.bec_reliability(6, 0.5), 20, crc_width=0)
    with pytest.raises(ValueError):
        simulate_point(code, ModeConfig.mode4(), "awgn", 2.0, crc=CRC32,
                       max_frames=64)


def test_csv_round_trip_values():
    pt = SimPoint(2.0, None, "mode4", 4, 4, None, 1000, 17, 3, 9, K=100)
    row = pt.csv_row().split(",")
    assert float(row[9]) * 1000 * 100 == 17  # ber recomputable
    assert float(row[10]) * 1000 == 3


def test_empty_point_rates_are_nan():
    pt = SimPoint(2.0, None, "mode4", 4, 4, None, 0, 0, 0, 9, K=100)
    assert math.isnan(pt.ber) and math.isnan(pt.fer)


def test_simulate_point_rejects_bad_inputs_before_any_batch(small_code, monkeypatch):
    code, _ = small_code

    def no_batch(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(sim, "_run_batch", no_batch)
    cfg = ModeConfig.mode1()
    for kw in (dict(batch_frames=-3), dict(batch_frames=0), dict(max_frames=0),
               dict(max_frames=-5), dict(workers=0), dict(workers=-3),
               dict(target_fe=-5)):
        with pytest.raises(ValueError):
            simulate_point(code, cfg, "awgn", 2.0, **kw)
    for channel, param in (("bec", 1.5), ("bec", 0.0), ("fading", 1.0)):
        with pytest.raises(ValueError):
            simulate_point(code, cfg, channel, param)
    with pytest.raises(ValueError):
        SweepSpec("bec", (0.3, 1.5))


# -- CLI ----------------------------------------------------------------------


def test_cli_construct_deterministic(tmp_path):
    out = tmp_path / "bec.json"
    rv = main(["construct", "--channel", "bec", "--n", "1024", "--k", "512",
               "--param", "0.32", "--out", str(out)])
    assert rv == 0
    code = pk.load_code_file(out)
    assert int(code.frozen_mask.sum()) == 512
    first = out.read_bytes()
    assert main(["construct", "--channel", "bec", "--n", "1024", "--k", "512",
                 "--param", "0.32", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_cli_construct_awgn_with_crc(tmp_path):
    out = tmp_path / "awgn.json"
    rv = main(["construct", "--channel", "awgn", "--n", "2048", "--k", "1433",
               "--design-snr", "2.0", "--crc-width", "32", "--out", str(out)])
    assert rv == 0
    code = pk.load_code_file(out)
    assert code.K == 1433 and code.crc_width == 32 and code.N == 2048


def test_cli_patterns_on_bec_code(tmp_path, capsys):
    out = tmp_path / "c.json"
    main(["construct", "--channel", "bec", "--n", "256", "--k", "100",
          "--param", "0.5", "--out", str(out)])
    rep = tmp_path / "patterns.json"
    assert main(["patterns", "--code", str(out), "--json", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["census"]["8"]["unknown"] == []
    assert doc["census"]["16"]["distinct"] <= 17


def test_cli_cost_row(tmp_path, capsys):
    assert main(["cost", "--method", "lcaml", "--m", "8", "--q", "4"]) == 0
    text = capsys.readouterr().out
    assert "80 multiplications" in text and "32-to-4" in text and "4 8-to-4" in text


def test_cli_verify_prop1_small(capsys):
    rv = main(["verify-prop1", "--eps-start", "0.05", "--eps-stop", "0.95",
               "--eps-step", "0.05", "--depth", "4"])
    assert rv == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["construct", "--channel", "bec", "--n", "10", "--k", "5",
                 "--param", "0.5", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["bogus"]) == 1
    assert main(["simulate", "--code", str(tmp_path / "missing.json"),
                 "--snr", "1.0"]) == 2


@pytest.mark.parametrize("extra", [
    ["--snr", "1:0:2"],
    ["--snr", "2.0", "--L", "0"],
    ["--snr", "2.0", "--batch-frames", "-3"],
    ["--snr", "2.0", "--batch-frames", "0"],
    ["--eps", "1.5"],
    ["--snr", "2.0", "--workers", "0"],
    ["--snr", "2.0", "--workers", "-3"],
    ["--snr", "2.0", "--target-fe", "-5"],
])
def test_cli_simulate_bad_inputs_exit_2(extra, tmp_path, small_code, capsys):
    _, codefile = small_code
    out = tmp_path / "bad"
    assert main(["simulate", "--code", str(codefile), "--mode", "mode1",
                 "--frames", "64", "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("mode", ["mode4", "mode2", "mode1"])
def test_cli_simulate_theta_outside_mode4_1_exits_2(mode, tmp_path, small_code, capsys):
    _, codefile = small_code
    assert main(["simulate", "--code", str(codefile), "--mode", mode, "--theta", "5",
                 "--snr", "2.0", "--frames", "64", "--out", str(tmp_path / "th")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --theta applies only to --mode mode4_1"]
    assert not (tmp_path / "th.csv").exists()


@pytest.mark.parametrize("step", ["0", "-0.05"])
def test_cli_verify_prop1_bad_step_exits_2(step):
    # in a subprocess with a timeout, so a non-advancing grid loop fails
    # the test instead of hanging it
    src = str(Path(pk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "polarkit.cli", "verify-prop1", "--eps-start", "0.1",
         "--eps-stop", "0.2", "--eps-step", step, "--depth", "2"],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2
    assert proc.stderr.strip().startswith("error: ")


def test_cli_simulate_deterministic_across_workers(tmp_path, small_code):
    _, codefile = small_code
    args = ["simulate", "--code", str(codefile), "--mode", "mode2",
            "--snr", "2.0,2.5", "--frames", "1500", "--target-fe", "20",
            "--seed", "9", "--batch-frames", "64", "--out"]
    assert main(args + [str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert main(args + [str(tmp_path / "w2"), "--workers", "2"]) == 0
    w1 = (tmp_path / "w1.csv").read_bytes()
    w2 = (tmp_path / "w2.csv").read_bytes()
    assert w1 == w2
    doc = json.loads((tmp_path / "w2.json").read_text())
    assert len(doc["results"]) == 2
    assert doc["results"][0]["mode"] == "mode2"


def test_cli_simulate_quantized_llrs(tmp_path, small_code):
    _, codefile = small_code
    rv = main(["simulate", "--code", str(codefile), "--mode", "mode1",
               "--snr", "3.0", "--frames", "512", "--target-fe", "0",
               "--quantize-bits", "5", "--quantize-step", "0.5",
               "--batch-frames", "64", "--out", str(tmp_path / "q5")])
    assert rv == 0
    row = (tmp_path / "q5.csv").read_text().strip().splitlines()[1].split(",")
    assert int(row[6]) == 512  # frames column


def test_quantize_default_step_saturation(small_code):
    code, _ = small_code
    spec = SweepSpec("awgn", (2.0,), max_frames=128, target_frame_errors=0,
                     seed=3, quantize_bits=5)
    pts = simulate_sweep(code, ModeConfig.mode1(), spec, batch_frames=64)
    assert pts[0].frames == 128


def test_cli_simulate_mode4_1_and_overrides(tmp_path, small_code):
    _, codefile = small_code
    rv = main(["simulate", "--code", str(codefile), "--mode", "mode4_1",
               "--theta", "128", "--snr", "2.0", "--frames", "256",
               "--target-fe", "0", "--batch-frames", "64",
               "--out", str(tmp_path / "m41")])
    assert rv == 0
    rows = (tmp_path / "m41.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[5] == "128"  # theta column
    rv = main(["simulate", "--code", str(codefile), "--mode", "mode4",
               "--L", "8", "--q", "2", "--snr", "2.0", "--frames", "256",
               "--target-fe", "0", "--batch-frames", "64",
               "--out", str(tmp_path / "l8")])
    assert rv == 0
    row = (tmp_path / "l8.csv").read_text().strip().splitlines()[1].split(",")
    assert row[3] == "8" and row[4] == "2"
