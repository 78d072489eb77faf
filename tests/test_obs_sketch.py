"""Exact per-source accounting: values and arrival-order independence."""

import math
import random

import pytest

from repro.obs import SourceSketch
from repro.obs.sketch import TOPK


def zipf_stream(distinct: int, total: int, seed: int):
    """A seeded Zipf-ish key stream: key rank r drawn with weight 1/r."""
    rng = random.Random(seed)
    keys = [f"100.64.{rank // 256}.{rank % 256}" for rank in range(distinct)]
    weights = [1.0 / (rank + 1) for rank in range(distinct)]
    return rng.choices(keys, weights=weights, k=total)


def exact_counts(stream):
    counts = {}
    for key in stream:
        counts[key] = counts.get(key, 0) + 1
    return counts


def sketch_of(stream):
    sketch = SourceSketch()
    for key in stream:
        sketch.update(key)
    return sketch


def test_entropy_edge_cases():
    empty = SourceSketch().summary()
    assert empty == {
        "distinct": 0,
        "entropy_bits": 0.0,
        "top1_share": 0.0,
        "topk_share": 0.0,
    }

    single = sketch_of(["attacker"] * 1000).summary()
    assert single["distinct"] == 1
    assert single["entropy_bits"] == 0.0
    assert single["top1_share"] == 1.0 and single["topk_share"] == 1.0

    # 64 equally loud sources: more than TOPK, so a bounded heavy-hitter
    # table would churn here; exact counting gives log2(64) = 6 bits.
    uniform = sketch_of(
        [f"src-{index}" for index in range(64) for _ in range(100)]
    ).summary()
    assert uniform["distinct"] == 64
    assert uniform["entropy_bits"] == 6.0
    assert uniform["top1_share"] == 1 / 64
    assert uniform["topk_share"] == TOPK / 64


def test_distinct_counts_every_source():
    sketch = sketch_of(f"src-{index}" for index in range(800))
    assert sketch.summary()["distinct"] == 800
    assert sketch.total == 800


def test_heavy_hitters_match_exact_counts():
    stream = zipf_stream(distinct=500, total=25_000, seed=42)
    truth = exact_counts(stream)
    sketch = sketch_of(stream)

    expected = sorted(truth.items(), key=lambda item: (-item[1], item[0]))
    assert sketch.heavy_hitters(10) == expected[:10]
    assert sketch.heavy_hitters(len(truth) + 5) == expected
    assert sketch.total == len(stream)


def test_summary_shares_bounded_and_deterministic():
    stream = zipf_stream(distinct=300, total=10_000, seed=9)
    truth = exact_counts(stream)
    summary = sketch_of(stream).summary()

    total = len(stream)
    ranked = sorted(truth.values(), reverse=True)
    assert summary["distinct"] == len(truth)
    assert summary["top1_share"] == ranked[0] / total
    assert summary["topk_share"] == sum(ranked[:TOPK]) / total
    assert summary["entropy_bits"] == pytest.approx(
        -sum(c / total * math.log2(c / total) for c in truth.values()),
        rel=1e-12,
    )
    # Zipf over 300 keys is neither degenerate nor uniform.
    assert 0.0 < summary["top1_share"] < summary["topk_share"] < 1.0
    assert 0.0 < summary["entropy_bits"] < math.log2(300)


def test_arrival_order_does_not_change_results():
    stream = zipf_stream(distinct=200, total=5_000, seed=3)
    shuffled = list(stream)
    random.Random(17).shuffle(shuffled)
    first, second = sketch_of(stream), sketch_of(shuffled)

    assert first.summary() == second.summary()
    assert first.heavy_hitters(50) == second.heavy_hitters(50)
    # Ties break on the source address, not on which arrived first.
    assert sketch_of("xyz").heavy_hitters(3) == sketch_of("zyx").heavy_hitters(3)
