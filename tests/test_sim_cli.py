import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polarkit as pk
from polarkit.channel import awgn_llr, default_quantize_step, frame_rng, noise_to_llrs, quantize_llr
from polarkit.cli import _grid, main
from polarkit.core import CRC32
from polarkit.decoder import ModeConfig
from polarkit import sim
from polarkit.sim import (
    SimPoint,
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


def _cli_subprocess(*argv, address_space=2 << 30, timeout=60):
    """`python -m polarkit.cli *argv` in a subprocess under a timeout and an
    address-space limit, so a hang or a runaway allocation fails the test."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(pk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "polarkit.cli", *argv], capture_output=True,
                          text=True, timeout=timeout, env=env, preexec_fn=limit)


def test_simulate_point_tallies_consistent(small_code):
    code, _ = small_code
    pt = simulate_point(code, ModeConfig.mode1(), "awgn", 2.0, seed=7,
                        target_fe=30, max_frames=4000, batch_frames=64)
    assert 0 < pt.frame_errors <= pt.frames
    assert pt.bit_errors <= pt.frames * code.K
    assert pt.fer == pt.frame_errors / pt.frames
    assert pt.ber == pt.bit_errors / (pt.frames * code.K)


# (max_frames, target_fe, index of the last batch) under seed 3, 64-frame
# batches: stops on an odd and an even batch, and a frame cap that is not a
# multiple of the batch size without early stop
_STOP_CASES = ((3000, 25, 7), (3000, 30, 8), (1000, 0, 15))


def test_simulate_worker_count_invariance(small_code):
    code, _ = small_code
    for max_frames, target_fe, last in _STOP_CASES:
        kw = dict(seed=3, target_fe=target_fe, max_frames=max_frames, batch_frames=64)
        a = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=1, **kw)
        assert (a.frames + 63) // 64 - 1 == last
        for workers in (2, 3):
            b = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=workers, **kw)
            assert a == b, (max_frames, target_fe, workers)


class _RecordingPool(ThreadPoolExecutor):
    """Thread pool standing in for the process pool; records its sizes and
    the (start, count) of each chunk submitted to it, in order."""

    sizes = []
    submitted = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)

    def submit(self, fn, *args):
        self.submitted.append(args[-2:])
        return super().submit(fn, *args)


@pytest.fixture
def thread_pool(monkeypatch):
    """Runs simulate_point's pool on threads; yields the start frames of the
    chunks that ran, in order."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    # sim imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    started, lock, run = [], threading.Lock(), sim._run_chunk

    def counting(*args):
        with lock:
            started.append(args[-2])
        return run(*args)

    monkeypatch.setattr(sim, "_run_chunk", counting)
    return started


def _chunk_batches(monkeypatch, batches, batch_frames, L=1, N=256):
    """Sets the chunk budget to `batches` stop batches per decode call."""
    monkeypatch.setattr(sim, "_CHUNK_LLRS", batches * L * N * batch_frames)


def test_simulate_pool_sized_to_the_batches(small_code, thread_pool, monkeypatch):
    code, _ = small_code
    cfg = ModeConfig.mode1()
    _chunk_batches(monkeypatch, 1, 64)
    # one batch runs in-process, two batches need two workers of eight
    simulate_point(code, cfg, "awgn", 2.0, max_frames=64, batch_frames=64, workers=8)
    assert _RecordingPool.sizes == [] and thread_pool == [0]
    simulate_point(code, cfg, "awgn", 2.0, max_frames=128, batch_frames=64, workers=8)
    assert _RecordingPool.sizes == [2] and sorted(thread_pool[1:]) == [0, 64]


def test_simulate_pool_sized_to_the_chunks(small_code, thread_pool, monkeypatch):
    code, _ = small_code
    cfg = ModeConfig.mode1()
    _chunk_batches(monkeypatch, 2, 64)
    # without early stop every chunk is full: two batches make one chunk,
    # which runs in-process; three make two chunks
    kw = dict(target_fe=0, batch_frames=64, workers=8)
    simulate_point(code, cfg, "awgn", 2.0, max_frames=128, **kw)
    assert _RecordingPool.sizes == [] and thread_pool == [0]
    simulate_point(code, cfg, "awgn", 2.0, max_frames=192, **kw)
    assert _RecordingPool.sizes == [2] and sorted(thread_pool[1:]) == [0, 128]


def test_simulate_default_chunks(small_code, thread_pool):
    code, _ = small_code
    # four 128-frame batches of this (256,128) code per call at L=1, one at L=4
    simulate_point(code, ModeConfig.mode1(), "awgn", 2.0, target_fe=0, max_frames=1024,
                   workers=2)
    assert _RecordingPool.sizes == [2] and sorted(thread_pool) == [0, 512]
    del thread_pool[:]
    simulate_point(code, ModeConfig("mode4"), "awgn", 2.0, target_fe=0, max_frames=256)
    assert thread_pool == [0, 128]


def _recording_chunks(monkeypatch):
    """Records the (start, count) of each chunk that runs."""
    chunks, lock, run = [], threading.Lock(), sim._run_chunk

    def recording(*args):
        with lock:
            chunks.append((args[-2], args[-1]))
        return run(*args)

    monkeypatch.setattr(sim, "_run_chunk", recording)
    return chunks


def test_simulate_early_stop_chunks_follow_the_error_rate(small_code, thread_pool,
                                                          monkeypatch):
    code, _ = small_code
    cfg = ModeConfig.mode1()
    _chunk_batches(monkeypatch, 8, 64)
    kw = dict(target_fe=100, max_frames=3000, batch_frames=64)
    # every frame fails at -5 dB: the first batch predicts that one more
    # batch reaches the stop, so no frame past it is decoded
    pt = simulate_point(code, cfg, "awgn", -5.0, **kw)
    assert pt.frame_errors == pt.frames == 128 and thread_pool == [0, 64]
    del thread_pool[:]
    # no errors at 6 dB: one batch, then full chunks up to the frame cap
    pt = simulate_point(code, cfg, "awgn", 6.0, **kw)
    assert pt.frame_errors == 0 and pt.frames == 3000
    assert thread_pool == [0, 64, 576, 1088, 1600, 2112, 2624]
    # on two workers the prediction counts the batch still in flight: after
    # batch 0, 136 errors are 136 frames away, of which 64 are running. Chunks
    # are sized when submitted; the last one may be cancelled before it runs
    pt = simulate_point(code, cfg, "awgn", -5.0, workers=2, **dict(kw, target_fe=200))
    assert pt.frames == 256
    assert _RecordingPool.submitted == [(0, 64), (64, 64), (128, 128), (256, 64)]


@pytest.mark.parametrize("workers", [2, 3])
def test_simulate_speculation_bounded_by_workers(small_code, thread_pool, workers,
                                                 monkeypatch):
    code, _ = small_code
    _chunk_batches(monkeypatch, 1, 64)
    kw = dict(seed=3, target_fe=25, max_frames=3000, batch_frames=64)
    pt = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=workers, **kw)
    stop = pt.frames // 64 - 1
    assert stop == 7 and _RecordingPool.sizes == [workers]
    # every batch up to the stop, and at most workers - 1 beyond it
    assert sorted(thread_pool) == [64 * i for i in range(len(thread_pool))]
    assert stop < len(thread_pool) <= stop + workers
    assert pt == simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=1, **kw)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("batches", [2, 3])
def test_simulate_speculation_bounded_in_chunks(small_code, thread_pool, workers, batches,
                                                monkeypatch):
    code, _ = small_code
    kw = dict(seed=3, target_fe=25, max_frames=3000, batch_frames=64)
    _chunk_batches(monkeypatch, 1, 64)
    want = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, **kw)
    assert want.frames == 8 * 64  # batch 7 stops the point
    _chunk_batches(monkeypatch, batches, 64)
    chunks = _recording_chunks(monkeypatch)
    pt = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=workers, **kw)
    assert pt == want
    chunks.sort()
    # whole batches, at most `batches` of them, tiling the frames from 0 on;
    # the first `workers` chunks start before any tally and hold one batch
    assert [s for s, _ in chunks] == [sum(n for _, n in chunks[:i]) for i in range(len(chunks))]
    assert all(n % 64 == 0 and n <= 64 * batches for _, n in chunks)
    assert all(n == 64 for _, n in chunks[:workers])
    # every chunk up to the one holding batch 7, whose later batches are
    # discarded, and at most workers - 1 chunks beyond it
    stop = next(i for i, (s, n) in enumerate(chunks) if s + n > 7 * 64)
    assert stop < len(chunks) <= stop + workers


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.sampled_from([16, 48, 64]), max_frames=st.integers(1, 400),
       target_fe=st.sampled_from([0, 1, 3, 10]), workers=st.integers(1, 3),
       seed=st.integers(0, 2**32), data=st.data())
def test_simulate_tallies_independent_of_chunk_budget(small_code, thread_pool, monkeypatch,
                                                      batch, max_frames, target_fe, workers,
                                                      seed, data):
    code, _ = small_code
    # from one batch per chunk to every batch in one chunk
    batches = data.draw(st.integers(1, -(-max_frames // batch)), label="batches per chunk")
    kw = dict(seed=seed, target_fe=target_fe, max_frames=max_frames, batch_frames=batch)
    _chunk_batches(monkeypatch, 1, batch)
    want = simulate_point(code, ModeConfig.mode1(), "awgn", 2.0, **kw)
    _chunk_batches(monkeypatch, batches, batch)
    assert simulate_point(code, ModeConfig.mode1(), "awgn", 2.0, workers=workers, **kw) == want


def test_simulate_stop_ends_running_workers(small_code, monkeypatch):
    # on real worker processes, every chunk past the stopping batch sleeps for
    # 20 s: the point returns once the stop is read, with the one-worker
    # tallies, and leaves no child process behind
    code, _ = small_code
    kw = dict(seed=3, target_fe=25, max_frames=3000, batch_frames=64)
    want = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, **kw)
    run = sim._run_chunk

    def slow_past_stop(*args):
        if args[-2] >= want.frames:
            time.sleep(20)
        return run(*args)

    # the pool pickles the chunk function by name, and workers forked after
    # this patch find the slow one under that name
    slow_past_stop.__module__, slow_past_stop.__qualname__ = sim.__name__, "_run_chunk"
    monkeypatch.setattr(sim, "_run_chunk", slow_past_stop)
    start = time.perf_counter()
    pt = simulate_point(code, ModeConfig.mode1(), "awgn", 2.5, workers=2, **kw)
    assert time.perf_counter() - start < 5
    assert pt == want
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("channel,param,quant", [
    ("awgn", 2.0, None), ("bec", 0.3, None), ("awgn", 1.0, (4, 0.5))])
@pytest.mark.parametrize("with_crc", [False, True])
@pytest.mark.parametrize("start,count", [(0, 37), (1000, 1), (77, 5)])
def test_build_frames_matches_per_frame_streams(channel, param, quant, with_crc, start, count):
    crc = CRC32 if with_crc else None
    code = pk.select_frozen(pk.bec_reliability(7, 0.5), 64, crc_width=32 if with_crc else 0)
    seed = 12
    # reference: one generator per frame, payloads first, then its codeword's
    # awgn_llr, or N uniforms through the channel model
    rngs = [frame_rng(seed, start + i) for i in range(count)]
    payloads = np.stack([r.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
                         for r in rngs])
    infos = payloads if crc is None else pk.crc_append(payloads, crc)
    llrs = np.stack([awgn_llr(x, param, code.rate, r) if channel == "awgn"
                     else noise_to_llrs(r.random(code.N), x, "bec", param, code.rate)
                     for x, r in zip(pk.encode(code, infos), rngs)])
    if quant is not None:
        llrs = quantize_llr(llrs, *quant)
    got_infos, got_llrs = sim._build_frames(code, crc, channel, param, seed, start, count,
                                            quant)
    assert np.array_equal(got_infos, infos)
    assert got_llrs.dtype == llrs.dtype and got_llrs.shape == (count, code.N)
    assert got_llrs.tobytes() == llrs.tobytes()


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
    pts = simulate_sweep(code, ModeConfig.mode1(), "awgn", (1.0, 2.0, 3.0), max_frames=3000,
                         target_fe=0, seed=11, batch_frames=64)
    fers = [p.fer for p in pts]
    assert fers[0] > fers[1] > fers[2]
    assert fers[2] < 0.2


def test_crc_capacity_guard():
    code = pk.select_frozen(pk.bec_reliability(6, 0.5), 20, crc_width=0)
    with pytest.raises(ValueError):
        simulate_point(code, ModeConfig("mode4"), "awgn", 2.0, crc=CRC32,
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

    monkeypatch.setattr(sim, "_run_chunk", no_batch)
    cfg = ModeConfig.mode1()
    for kw in (dict(batch_frames=-3), dict(batch_frames=0), dict(max_frames=0),
               dict(max_frames=-5), dict(workers=0), dict(workers=-3),
               dict(target_fe=-5), dict(seed=-1), dict(seed=2**64)):
        with pytest.raises(ValueError):
            simulate_point(code, cfg, "awgn", 2.0, **kw)
    for workers in (1, 2):  # a 2**25 + 2**15-LLR stop batch
        with pytest.raises(ValueError, match="LLRs exceeds 2\\*\\*25"):
            simulate_point(code, ModeConfig.custom(L=1025), "awgn", 2.0, workers=workers)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="theta"):
            simulate_point(code, ModeConfig.mode4_1(code.N + 1), "awgn", 2.0, workers=workers)
    for quantize in ((0, 0.5), (1, 0.5), (4, 0.0), (4, -0.5), (4, math.nan), (1100, None),
                     (1025, 0.5), (4, math.inf)):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="quantizer"):
                simulate_point(code, cfg, "awgn", 2.0, quantize=quantize, workers=workers)
    for channel, param in (("bec", 1.5), ("bec", 0.0), ("fading", 1.0)):
        with pytest.raises(ValueError):
            simulate_point(code, cfg, channel, param)
    for crc, crc_width in ((CRC32, 0), (None, 8)):  # CRC and code disagree
        mismatched = pk.select_frozen(pk.bec_reliability(6, 0.5), 30, crc_width=crc_width)
        with pytest.raises(ValueError, match="crc_width"):
            simulate_point(mismatched, cfg, "awgn", 2.0, crc=crc)
    for snr in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            simulate_point(code, cfg, "awgn", snr)
    for snr in (4000.0, -3100.0, -4000.0):  # the noise variance leaves the floats
        for workers in (1, 2):
            with pytest.raises(ValueError, match="noise variance"):
                simulate_point(code, cfg, "awgn", snr, workers=workers)
    # a sweep checks every point before the first decodes
    with pytest.raises(ValueError, match="erasure"):
        simulate_sweep(code, cfg, "bec", (0.3, 1.5))
    with pytest.raises(ValueError, match="at least one"):
        simulate_sweep(code, cfg, "awgn", ())


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


def test_cli_patterns_bad_m_fails_before_any_output(small_code, capsys):
    # a later M that is not 2, 4, 8 or 16 fails before the first M's census prints
    _, codefile = small_code
    assert main(["patterns", "--code", str(codefile), "--m", "8,3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == ["error: M must be one of 2, 4, 8, 16"]
    assert captured.out == ""


def test_cli_cost_row(tmp_path, capsys):
    assert main(["cost", "--method", "lcaml", "--m", "8", "--q", "4"]) == 0
    text = capsys.readouterr().out
    assert "80 multiplications" in text and "32-to-4" in text and "4 8-to-4" in text


def test_cli_verify_prop1_small(capsys):
    rv = main(["verify-prop1", "--eps-start", "0.05", "--eps-stop", "0.95",
               "--eps-step", "0.05", "--depth", "4"])
    assert rv == 0
    assert "PASS" in capsys.readouterr().out
    # a descending grid is the same points, walked down
    assert main(["verify-prop1", "--eps-start", "0.95", "--eps-stop", "0.05",
                 "--eps-step", "-0.05", "--depth", "4"]) == 0
    assert "over 19 grid points" in capsys.readouterr().out


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["construct", "--channel", "bec", "--n", "10", "--k", "5",
                 "--param", "0.5", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["bogus"]) == 1
    assert main(["simulate", "--code", str(tmp_path / "missing.json"),
                 "--snr", "1.0"]) == 2


@pytest.mark.parametrize("argv", [
    ["construct", "--channel", "bec", "--n", "64", "--k", "32", "--param", "0.5",
     "--out", "{missing}/c.json"],
    ["construct", "--channel", "bec", "--n", "64", "--k", "32", "--param", "0.5",
     "--out", "{tmp}"],
    ["patterns", "--code", "{code}", "--json", "{missing}/p.json"],
    ["verify-prop1", "--eps-start", "0.1", "--eps-stop", "0.9", "--eps-step", "0.1",
     "--depth", "3", "--json", "{missing}/v.json"],
    ["cost", "--method", "lcaml", "--json", "{missing}/c.json"],
    ["simulate", "--code", "{code}", "--mode", "mode1", "--snr", "2.0", "--frames", "64",
     "--out", "{missing}/sim"],
])
def test_cli_unwritable_output_fails_before_any_work(argv, tmp_path, small_code, capsys,
                                                     monkeypatch):
    # an output that cannot be written (its directory is missing, or it is a
    # directory) is refused before the command works or prints
    _, codefile = small_code
    missing = tmp_path / "missing" / "dir"
    argv = [a.format(missing=missing, tmp=tmp_path, code=codefile) for a in argv]

    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(sim, "_run_chunk", no_chunk)
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")
    assert captured.out == ""
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("extra", [
    ["--snr", "1:0:2"],
    ["--snr", "1:2"],
    ["--snr", "1:2:3:4"],
    ["--snr", "a:1:2"],
    ["--snr", "1,,2"],
    ["--snr", "0:nan:1"],
    ["--snr", "0:1:inf"],
    ["--snr", "2:1:1"],
    ["--snr", "0:1:10000"],
    ["--snr", "2.0", "--L", "0"],
    ["--snr", "2.0", "--batch-frames", "-3"],
    ["--snr", "2.0", "--batch-frames", "0"],
    ["--eps", "1.5"],
    ["--snr", "2.0", "--workers", "0"],
    ["--snr", "2.0", "--workers", "-3"],
    ["--snr", "2.0", "--target-fe", "-5"],
    ["--snr", "inf"],
    ["--snr", "1,nan"],
    ["--snr", "2.0", "--quantize-bits", "0"],
    ["--snr", "2.0", "--quantize-step", "0.5"],
    ["--snr", "2.0", "--quantize-bits", "4", "--quantize-step", "0"],
    ["--snr", "2.0", "--quantize-bits", "1100"],
    ["--snr", "2.0", "--quantize-bits", "4", "--quantize-step", "inf"],
    ["--snr", "2.0", "--seed", "-1"],
    ["--snr", "2.0", "--seed", str(2**64)],
    ["--snr", "2.0", "--mode", "mode4_1", "--theta", "-5"],
    ["--snr", "2.0", "--mode", "mode4_1", "--theta", "9999"],
    ["--snr", "2.0", "--mode", "mode4_1", "--theta", "9999", "--workers", "2"],
    ["--snr", "1:0.5:0.9"],
    ["--snr", "4000"],
    ["--snr=-3100"],
    ["--snr=-4000"],
    ["--snr", "3080"],
    ["--snr", "1e400"],  # a finite decimal whose double is not finite
    ["--snr", "1e9999999"],
    ["--snr", "1/3"],
    ["--snr", "2.0", "--mode", "mode4", "--L", "100000"],  # a 3.3e9-LLR stop batch
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_simulate_bad_inputs_exit_2(extra, tmp_path, small_code, capsys):
    _, codefile = small_code
    out = tmp_path / "bad"
    assert main(["simulate", "--code", str(codefile), "--mode", "mode1",
                 "--frames", "64", "--out", str(out), *extra]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    # every bad option fails before the run header
    assert captured.out.splitlines() == []
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("grid,points", [
    ("0:0.6:1", ("0", "0.6")),
    ("3:-0.7:1", ("3", "2.3", "1.6")),
    ("0:0.1:0.3", ("0", "0.1", "0.2", "0.3")),
    ("2.5:0.1:3.0", ("2.5", "2.6", "2.7", "2.8", "2.9", "3.0")),
    ("1:0.5:2.5", ("1", "1.5", "2", "2.5")),
    ("0.1:0.1:0.7", ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7")),
    ("0.001:0.001:0.01", tuple(f"0.{k:03}" for k in range(1, 10)) + ("0.01",)),
    ("0:0.07:0.35", ("0", "0.07", "0.14", "0.21", "0.28", "0.35")),
    ("0.3:0.2:0.6", ("0.3", "0.5")),
    ("-1:0.5:0", ("-1", "-0.5", "0")),
])
def test_cli_grid_never_passes_its_stop(grid, points):
    # the points are the exact decimals, and the stop is one only where a
    # step reaches it exactly; each simulates at the double of its decimal
    got = _grid("grid", *(Fraction(v) for v in grid.split(":")))
    assert got == [Fraction(p) for p in points]
    assert [float(p) for p in got] == [float(Decimal(p)) for p in points]


def test_cli_simulate_grid_points_are_the_typed_decimals(tmp_path, small_code):
    # a float sum would run and print the third point as 0.30000000000000004
    _, codefile = small_code
    out = tmp_path / "exact"
    assert main(["simulate", "--code", str(codefile), "--mode", "mode1", "--eps", "0.1:0.1:0.3",
                 "--frames", "64", "--target-fe", "0", "--out", str(out)]) == 0
    rows = Path(f"{out}.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["0.1", "0.2", "0.3"]


@pytest.mark.parametrize("grid,message", [
    ("1:2", "grid '1:2' is not 'start:step:stop'"),
    ("2:1:1", "grid '2:1:1' has no point: its step leads away from its stop"),
    ("0:1e-12:1", "grid '0:1e-12:1' has more than 10000 points"),
    ("-1e308:1e-308:1e308", "grid '-1e308:1e-308:1e308' has more than 10000 points"),
])
def test_cli_simulate_bad_grid_fails_fast(grid, message, tmp_path, small_code):
    # a parser that builds a huge grid before checking it fails the test
    # instead of exhausting memory
    _, codefile = small_code
    proc = _cli_subprocess("simulate", "--code", str(codefile), "--mode", "mode1",
                           "--frames", "64", "--out", str(tmp_path / "g"), f"--snr={grid}")
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == [f"error: {message}"]
    assert proc.stdout == "" and not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("mode", ["mode4", "mode2", "mode1"])
def test_cli_simulate_theta_outside_mode4_1_exits_2(mode, tmp_path, small_code, capsys):
    _, codefile = small_code
    assert main(["simulate", "--code", str(codefile), "--mode", mode, "--theta", "5",
                 "--snr", "2.0", "--frames", "64", "--out", str(tmp_path / "th")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {mode} takes no theta (mode4_1 and custom do)"]
    assert not (tmp_path / "th.csv").exists()


def test_cli_simulate_mode4_1_without_theta_exits_2(tmp_path, small_code, capsys):
    _, codefile = small_code
    assert main(["simulate", "--code", str(codefile), "--mode", "mode4_1",
                 "--snr", "2.0", "--frames", "64", "--out", str(tmp_path / "th")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: mode4_1 requires a switching point theta"]
    assert not (tmp_path / "th.csv").exists()


@pytest.mark.parametrize("step", ["0", "-0.05"])
def test_cli_verify_prop1_bad_step_exits_2(step):
    # a non-advancing grid loop fails the test instead of hanging it
    proc = _cli_subprocess("verify-prop1", "--eps-start", "0.1", "--eps-stop", "0.2",
                           "--eps-step", step, "--depth", "2", timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.strip().startswith("error: ")


_EXPONENT = "is not a number with a decimal exponent within -1000..1000"


@pytest.mark.parametrize("start,stop,step,message", [
    ("0.1", "0.2", "1e-12", "eps grid '0.1:1e-12:0.2' has more than 10000 points"),
    ("0.5", "0.4", "0.01",
     "eps grid '0.5:0.01:0.4' has no point: its step leads away from its stop"),
    # Fraction(value) alone would expand 10**9999999 for minutes
    ("1e9999999", "0.2", "0.01", f"--eps-start '1e9999999' {_EXPONENT}"),
    ("0.1", "0.2", "1e-9999999", f"--eps-step '1e-9999999' {_EXPONENT}"),
    ("0.1", "1e99999999999999999999", "0.01",  # beyond even Decimal's exponents
     f"--eps-stop '1e99999999999999999999' {_EXPONENT}"),
    ("0.1", "0.2", "1/30", f"--eps-step '1/30' {_EXPONENT}"),  # not a decimal
])
def test_cli_verify_prop1_bad_grid_fails_fast(start, stop, step, message):
    # a grid built before it is counted, or a value expanded before its
    # exponent is checked, fails the test instead of exhausting memory or time
    proc = _cli_subprocess("verify-prop1", "--eps-start", start, "--eps-stop", stop,
                           "--eps-step", step, "--depth", "2")
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == [f"error: {message}"]
    assert proc.stdout == ""


def test_cli_code_file_with_huge_n_exits_2(tmp_path, small_code):
    # 1 << n of this n would exhaust memory before the mask length is compared
    _, codefile = small_code
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({**json.loads(codefile.read_text()), "n": 10**12}))
    proc = _cli_subprocess("patterns", "--code", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == ["error: frozen_mask length must equal 2**n"]
    assert proc.stdout == ""


def test_cli_construct_huge_n_fails_fast(tmp_path, capsys):
    # a 2**40-bit code is refused before its reliability recursion allocates
    # a level: one error line within a small address space and time limit
    out = tmp_path / "c.json"
    proc = _cli_subprocess("construct", "--channel", "bec", "--n", str(1 << 40), "--k", "5",
                           "--param", "0.5", "--out", str(out), address_space=256 << 20,
                           timeout=2)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: N must be at most {1 << 20} (2**20), "
                                        f"got {1 << 40}"]
    assert proc.stdout == "" and not out.exists()
    # 2**21, the first length past the bound, is refused on either channel
    assert main(["construct", "--channel", "awgn", "--n", str(1 << 21), "--k", "5",
                 "--design-snr", "1", "--out", str(out)]) == 2
    assert "N must be at most 1048576 (2**20)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "1e308"])
def test_cli_construct_bad_design_snr_exits_2(snr, tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["construct", "--channel", "awgn", "--n", "64", "--k", "32",
                 f"--design-snr={snr}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"error: design SNR {float(snr)} dB gives no finite LLR mean > 0"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("cmd", [["patterns"], ["simulate", "--snr", "2.0", "--frames", "64"]])
@pytest.mark.parametrize("edit,message", [
    ({"n": 4.5}, "field 'n' has the wrong type: 4.5"),
    ({"K": "8"}, "field 'K' has the wrong type: '8'"),
    ({"crc_width": "x"}, "field 'crc_width' has the wrong type: 'x'"),
    (None, "does not hold a JSON object"),
])
def test_cli_malformed_code_file_exits_2(cmd, edit, message, tmp_path, small_code, capsys):
    _, codefile = small_code
    doc = json.loads(codefile.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([doc] if edit is None else {**doc, **edit}))
    out = ["--out", str(tmp_path / "sim")] if cmd[0] == "simulate" else []
    assert main([cmd[0], "--code", str(bad), *cmd[1:], *out]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: code file ") and err[0].endswith(message)
    assert captured.out == ""


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_simulate_subnormal_quantizer_step(tmp_path, small_code, capsys):
    # the ratios llr / 1e-320 that overflow saturate, without a warning
    _, codefile = small_code
    assert main(["simulate", "--code", str(codefile), "--mode", "mode1", "--snr", "2.0",
                 "--frames", "128", "--target-fe", "0", "--quantize-bits", "4",
                 "--quantize-step", "1e-320", "--out", str(tmp_path / "q")]) == 0
    assert "error" not in capsys.readouterr().err
    row = (tmp_path / "q.csv").read_text().strip().splitlines()[1].split(",")
    assert int(row[6]) == 128  # frames column


def test_quantize_default_step_saturation(small_code):
    code, _ = small_code
    pts = simulate_sweep(code, ModeConfig.mode1(), "awgn", (2.0,), max_frames=128,
                         target_fe=0, seed=3, quantize=(5, None), batch_frames=64)
    assert pts[0].frames == 128
    # a step of None is the default step, through the API too
    kw = dict(seed=3, target_fe=0, max_frames=128, batch_frames=64)
    step = default_quantize_step(5, code.rate)
    assert pts[0] == simulate_point(code, ModeConfig.mode1(), "awgn", 2.0,
                                    quantize=(5, None), **kw)
    assert pts[0] == simulate_point(code, ModeConfig.mode1(), "awgn", 2.0,
                                    quantize=(5, step), **kw)


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
    assert row[2:5] == ["mode4", "8", "2"]  # an explicit L keeps the mode's name


@pytest.mark.parametrize("batch,recorded", [([], 128), (["--batch-frames", "64"], 64)])
def test_cli_simulate_json_records_the_batch_size(batch, recorded, tmp_path, small_code):
    # without --batch-frames the run uses default_batch_frames(256) = 128
    _, codefile = small_code
    assert main(["simulate", "--code", str(codefile), "--mode", "mode1", "--snr", "3.0",
                 "--frames", "128", "--target-fe", "0", *batch,
                 "--out", str(tmp_path / "b")]) == 0
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["meta"]["batch_frames"] == recorded
