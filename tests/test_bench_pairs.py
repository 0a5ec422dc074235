import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def pairs(before, after):
    """Pairs whose every metric reads before[i] and after[i]."""
    return [{side: dict.fromkeys(bench_pairs.METRICS, v) for side, v in (("before", b),
                                                                         ("after", a))}
            for b, a in zip(before, after)]


BEFORE = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]


@pytest.mark.parametrize("after, claim, bound", [
    # the before side's interquartile range is 0.55
    ([b - 0.8 for b in BEFORE], True, True),           # wins 10 of 10 by more than it
    ([b - 0.5 for b in BEFORE], False, True),          # wins 10 of 10 by less
    ([b - 0.8 for b in BEFORE[:8]] + [3.0, 3.1], False, True),  # wins 8 of 10
    ([b + 0.9 for b in BEFORE], False, False),         # median beyond every bound
])
def test_summary_states_the_verdict(after, claim, bound):
    got = bench_pairs.summary(pairs(BEFORE, after))
    for m in bench_pairs.METRICS:
        assert (got[m]["claim_holds"], got[m]["within_bound"]) == (claim, bound), m


def test_within_bound_reads_each_metrics_bound():
    # BENCHMARK.json bounds the times by 0.25 and peak RSS by 0.1
    got = bench_pairs.summary(pairs(BEFORE, [b * 1.05 for b in BEFORE]))
    assert {m: got[m]["within_bound"] for m in bench_pairs.METRICS} == {
        "pass_s": True, "setup_s": True, "peak_rss_mb": True}
    got = bench_pairs.summary(pairs(BEFORE, [b * 1.2 for b in BEFORE]))
    assert {m: got[m]["within_bound"] for m in bench_pairs.METRICS} == {
        "pass_s": True, "setup_s": True, "peak_rss_mb": False}
