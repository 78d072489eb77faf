"""Raw simcore kernel throughput — the floor under every experiment.

Times the event loop itself, with no DNS logic on top, in the two shapes
the emulations stress: a dense schedule-then-drain burst (probing
rounds) and a retry pattern where most timers are cancelled before
firing (the DDoS retry storm). Tracking these keeps kernel regressions
visible in the perf trajectory independently of experiment-level
changes. ``scripts/check_kernel_budget.py`` re-runs these workloads
against the committed ``benchmarks/output/kernel_*.txt`` figures.
"""

import time

from conftest import emit

from repro.defense.capacity import ServiceCapacity
from repro.defense.rrl import SEND, ResponseRateLimiter
from repro.simcore.simulator import Simulator

BURST_EVENTS = 50_000
RETRY_TIMERS = 20_000
ATTACK_EVENTS = 40_000
ATTACK_CHAINS = 16


def drain_burst() -> int:
    """Schedule a flat burst of timers and drain it."""
    sim = Simulator()
    sink = []
    append = sink.append
    for index in range(BURST_EVENTS):
        sim.call_later((index % 977) * 1e-3, append, index)
    sim.run()
    return sim.events_processed


def retry_storm() -> int:
    """Resolver-style timers: most are cancelled before they fire.

    Every 'query' schedules a retry timer and an 'answer' that cancels
    it — the hot pattern under attack, where the queue fills with
    cancelled entries that the queue must skip cheaply.
    """
    sim = Simulator()
    cancelled = 0

    def answer(timer):
        nonlocal cancelled
        timer.cancel()
        cancelled += 1

    for index in range(RETRY_TIMERS):
        timer = sim.call_later(5.0 + (index % 31) * 0.1, lambda: None)
        sim.call_later((index % 31) * 0.1, answer, timer)
    sim.run()
    return cancelled


def attack_flood() -> int:
    """Attack-traffic event path: self-rescheduling attacker chains.

    Each attacker is a timer chain (the :mod:`repro.attackload` shape —
    no Host object, every query is one kernel event) and every event
    runs the defense hot path: one RRL token-bucket check plus one
    capacity admission. This is the per-packet cost a flooded
    authoritative pays, isolated from DNS message handling.
    """
    sim = Simulator()
    rrl = ResponseRateLimiter(rate=20.0, burst=40.0, slip=2, prefix_len=24)
    capacity = ServiceCapacity(rate=1000.0, queue_limit=64)
    per_chain = ATTACK_EVENTS // ATTACK_CHAINS
    served = 0

    def fire(source, remaining, interval):
        nonlocal served
        if rrl.check(source, sim.now) == SEND:
            if capacity.admit(sim.now) is not None:
                served += 1
        if remaining:
            sim.call_later(interval, fire, source, remaining - 1, interval)

    for index in range(ATTACK_CHAINS):
        sim.call_later(
            index * 1e-3,
            fire,
            f"203.0.{index}.1",
            per_chain - 1,
            0.01 + index * 1e-4,
        )
    sim.run()
    return sim.events_processed


def test_bench_kernel_burst(benchmark, output_dir):
    processed = benchmark.pedantic(drain_burst, rounds=3, iterations=1)
    assert processed == BURST_EVENTS
    seconds = benchmark.stats.stats.min
    emit(
        output_dir,
        "kernel_burst",
        f"Kernel burst throughput: {processed} events in {seconds * 1e3:.1f} ms "
        f"({processed / seconds:,.0f} events/s)",
    )


def test_bench_kernel_retry_storm(benchmark, output_dir):
    cancelled = benchmark.pedantic(retry_storm, rounds=3, iterations=1)
    assert cancelled == RETRY_TIMERS
    seconds = benchmark.stats.stats.min
    total = 2 * RETRY_TIMERS
    emit(
        output_dir,
        "kernel_retry",
        f"Kernel retry-storm throughput: {total} timers ({cancelled} cancelled) in {seconds * 1e3:.1f} ms "
        f"({total / seconds:,.0f} timers/s)",
    )


def test_bench_kernel_attack_flood(benchmark, output_dir):
    processed = benchmark.pedantic(attack_flood, rounds=3, iterations=1)
    assert processed == ATTACK_EVENTS
    seconds = benchmark.stats.stats.min
    emit(
        output_dir,
        "kernel_attack",
        f"Kernel attack-flood throughput: {processed} events ({ATTACK_CHAINS} chains, RRL + capacity per "
        f"event) in {seconds * 1e3:.1f} ms "
        f"({processed / seconds:,.0f} events/s)",
    )


def test_cancelled_events_do_not_pin_callbacks():
    """Long retry-heavy runs must not accumulate closure references."""
    sim = Simulator()
    timers = [sim.call_later(60.0, (lambda v: v), object()) for _ in range(100)]
    for timer in timers:
        timer.cancel()
    assert all(timer.callback is None for timer in timers)
    assert sim.pending() == 0
    start = time.time()
    sim.run()
    assert time.time() - start < 1.0
