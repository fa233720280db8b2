"""Per-layer figures measured from outside the program.

* Span totals and self times from a traced rebuild (see workloads.Tracer).
* Kernel probes: f_llr, aml_expand_prune and crc_check_rows timed alone on
  inputs shaped like the workload's decode. They are probes, not shares of
  the decode: the decode may call the kernels on other strides and orders.
* Exact counts computed from the code and the cost model.
"""

from __future__ import annotations

import os
import platform
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from polarkit.core import crc_check_rows
from polarkit.costs import count_ops
from polarkit.decoder import LEAF_SPAN, aml_expand_prune, f_llr
from polarkit.patterns import NodeKind, classify_node, extract_patterns
from polarkit.sim import default_batch_frames

PROBE_REPEATS = 5
# glibc sysconf names for the L2 and L3 cache sizes (absent from os.sysconf_names)
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def machine_context(base_seed: int) -> dict:
    def sysconf(name):
        try:
            value = os.sysconf(name)
        except (ValueError, OSError):
            return None
        return value if value > 0 else None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l2_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
        "base_seed": base_seed,
    }


def span_totals(spans) -> tuple[dict, dict]:
    """Total and self seconds per span name; self excludes child spans."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    durations = [end - start for _, start, end, _, _ in spans]
    own = list(durations)
    for (name, _, _, parent, _), d in zip(spans, durations):
        total[name] += d
        if parent >= 0:
            own[parent] -= d
    for (name, *_), d in zip(spans, own):
        self_time[name] += d
    return dict(total), dict(self_time)


def _median_time(fn, repeats=PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def q_eff(w) -> int:
    return w.q if w.q is not None else min(w.L, 1 << LEAF_SPAN)


def probe_f_llr_ms(w, code, rng) -> float:
    """ms per frame of f_llr over every branch level at the batch's (B, L, span).

    Level span s (N down to 16) makes N/s calls on (B, L, s/2) strided halves,
    as the tree walk does; the element count matches decoder.f_elems_per_frame.
    """
    B, N = default_batch_frames(code.N), code.N
    levels = []
    span = N
    while span > LEAF_SPAN:
        a = rng.normal(0.0, 4.0, size=(B, w.L, span))
        levels.append((N // span, a[..., 0::2], a[..., 1::2]))
        span //= 2

    def run():
        for calls, left, right in levels:
            for _ in range(calls):
                f_llr(left, right)

    return 1000.0 * _median_time(run) / B


def probe_select_ms(w, code, rng) -> float:
    """ms per frame of aml_expand_prune over every mixed leaf of the code,
    with (B, L) path metrics, leaf LLRs and the workload's q."""
    B = default_batch_frames(code.N)
    pm = rng.exponential(8.0, size=(B, w.L))
    llr = rng.normal(2.0, 3.0, size=(B, w.L, LEAF_SPAN))
    symbols, _ = extract_patterns(code, LEAF_SPAN)
    patterns = [p for p in symbols if p.kind is NodeKind.RATE_R2]
    q = q_eff(w)

    def run():
        for p in patterns:
            aml_expand_prune(pm, llr, p, q, w.L)

    return 1000.0 * _median_time(run) / B


def probe_crc_check_ms(w, code, rng) -> float:
    """ms per frame of crc_check_rows on the B*L candidate info rows; 0.0 when
    the workload has no CRC (the decode never calls it)."""
    if not w.crc:
        return 0.0
    B = default_batch_frames(code.N)
    rows = rng.integers(0, 2, size=(B * w.L, code.K), dtype=np.uint8)
    return 1000.0 * _median_time(lambda: crc_check_rows(rows, w.crc_spec)) / B


PROBES = {
    "core.crc_check_ms_per_frame": probe_crc_check_ms,
    "decoder.f_llr_ms": probe_f_llr_ms,
    "decoder.select_ms": probe_select_ms,
}


def probes(w, code, seed: int) -> dict:
    """Kernel probe timings, inputs drawn from the run's seed."""
    rng = np.random.default_rng(seed)
    return {name: probe(w, code, rng) for name, probe in PROBES.items()}


def exact_counts(w, code) -> dict:
    symbols, _ = extract_patterns(code, LEAF_SPAN)
    kinds = Counter(classify_node(p.mask) for p in symbols)
    return {
        "patterns.leaf_rate0": kinds[NodeKind.RATE0],
        "patterns.leaf_rate1": kinds[NodeKind.RATE1],
        "patterns.leaf_rep": kinds[NodeKind.REPETITION],
        "patterns.leaf_mixed": kinds[NodeKind.RATE_R2],
        "patterns.leaf_other": kinds[NodeKind.OTHER],
        "decoder.f_elems_per_frame": (code.N // 2) * (code.n - 3) * w.L,
        "costs.lcaml_mults": count_ops("lcaml", LEAF_SPAN, q_eff(w)).multiplications,
    }
