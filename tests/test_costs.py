import numpy as np
import pytest

from polarkit import decoder
from polarkit.costs import CostReport, count_ops, pattern_cost
from polarkit.patterns import CATALOGS, RATE_R2_PATTERNS, FrozenPattern


def test_published_rows_m8_q4():
    assert count_ops("rcc", 8, 4) == CostReport("rcc", 8, 4, 304, ((256, 4, 1),))
    assert count_ops("dmm", 8, 4).multiplications == 1792
    assert count_ops("dmm", 8, 4).sorts == ((256, 4, 1),)
    assert count_ops("drh", 8, 4).multiplications == 784
    r = count_ops("dnc81", 8, 4)
    assert r.multiplications == 112 and r.sorts == ((64, 4, 1), (16, 4, 2))
    r = count_ops("dnc9", 8, 4)
    assert r.multiplications == 80 and r.sorts == ((32, 4, 1), (16, 4, 2))
    r = count_ops("lcaml", 8, 4)
    assert r.multiplications == 80 and r.sorts == ((32, 4, 1), (8, 4, 4))


def test_published_rows_m16_q4():
    r = count_ops("dnc81", 16, 4)
    assert r.multiplications == 1632 and r.sorts == ((1024, 4, 1), (256, 4, 2))
    r = count_ops("dnc9", 16, 4)
    assert r.multiplications == 736 and r.sorts == ((128, 4, 1), (256, 4, 2))


def test_step0_step2_split_documented():
    r = count_ops("lcaml", 8, 4)
    assert r.step0_multiplications == 48 and r.step2_multiplications == 32
    r = count_ops("dnc81", 16, 4)
    assert r.step0_multiplications == 608 and r.step2_multiplications == 1024


def test_method_validation():
    with pytest.raises(ValueError):
        count_ops("fft", 8, 4)
    with pytest.raises(ValueError):
        count_ops("rcc", 12, 4)
    with pytest.raises(ValueError):
        count_ops("lcaml", 16, 4)
    with pytest.raises(ValueError):
        count_ops("rcc", 8, 0)


def _sort_multiset(report):
    out = {}
    for frm, to, cnt in report.sorts:
        out[(frm, to)] = out.get((frm, to), 0) + cnt
    return out


def _measured(pattern, q):
    """(Step-2 sums, sort multiset) of one list through the real expansion
    unit, read from the selects it makes: each _first_k call keeps k of the
    rows in each of its columns. The last select takes the Step-2 sums; a
    select with more rows than it keeps is a sort, one per column."""
    calls = []
    first_k = decoder._first_k

    def spy(key, k, tie=None):
        calls.append(key.shape + (k,))
        return first_k(key, k, tie)

    llrs = np.random.default_rng(0).standard_normal((1, pattern.M))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "_first_k", spy)
        decoder.aml_expand_prune(np.zeros(1), llrs, pattern, q, q)
    sorts = {}
    for rows, cols, k in calls:
        if rows > k:
            sorts[(rows, k)] = sorts.get((rows, k), 0) + cols
    return calls[-1][0], sorts


def test_instrumented_matches_formula_per_pattern():
    for s in RATE_R2_PATTERNS:
        fp = FrozenPattern.from_string(s)
        for q in (1, 2, 4):
            sums, sorts = _measured(fp, q)
            want = min(q, 1 << fp.gamma) ** 2 * (1 << fp.beta)
            assert sums == want, (s, q)
            assert sorts == _sort_multiset(pattern_cost(fp, q)), (s, q)


def test_instrumented_examples():
    assert _measured(FrozenPattern.from_string("FDDDDDDD"), 4)[0] == 32
    assert _measured(FrozenPattern.from_string("FFFDFDDD"), 4)[0] == 16
    with pytest.raises(ValueError):  # all-data leaves have dedicated handling
        _measured(FrozenPattern.from_string("DDDDDDDD"), 4)


def test_worst_case_dominates_each_pattern():
    for method, universe in (("dnc9", CATALOGS[8]), ("lcaml", RATE_R2_PATTERNS)):
        worst = count_ops(method, 8, 4)
        best_seen = 0
        for s in universe:
            per = pattern_cost(FrozenPattern.from_string(s), 4)
            assert per.step2_multiplications <= worst.step2_multiplications
            best_seen = max(best_seen, per.step2_multiplications)
        assert best_seen == worst.step2_multiplications  # equality at the arg-max
