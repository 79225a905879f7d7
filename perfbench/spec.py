"""What the lock-path benchmark measures, and why.

One table per concern: the workloads (shape + the sentence saying which
layer each loads or leaves idle), the end-to-end metrics with their
regression bounds, the per-layer metrics with the end-to-end metric and
workload each is expected to move. ``BENCHMARK.json`` is rendered
from these tables (``python3 perfbench/run.py --write-spec``), so the file
and the program cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12


@dataclass(frozen=True)
class Workload:
    """One generated load. ``domain`` picks the harness (threads or aio)."""

    name: str
    domain: str                 # "thread" or "aio"
    workers: int                # threads, or tasks on one event loop
    locks: int
    sites: int
    signatures: int             # synthetic signatures in the history
    history_mode: str           # "partner-miss" or "hot" (synthetic_sigs)
    hot_sites: int              # sites the signatures target (<= sites)
    hold_us: int                # sleep under the lock (releases the GIL)
    ops: int                    # pairs per worker per round (closed loop)
    why: str


WORKLOADS = [
    Workload(
        "thread-cold", "thread", workers=2, locks=64, sites=8,
        signatures=0, history_mode="partner-miss", hot_sites=0, hold_us=0,
        ops=100_000,
        why=(
            "No-history fast path: capture cache, fast_acquired, release. "
            "Loads runtime.callsite and fast_acquired; matcher, request and "
            "event build stay idle."
        ),
    ),
    Workload(
        "thread-hot", "thread", workers=2, locks=64, sites=8,
        signatures=128, history_mode="partner-miss", hot_sites=8,
        hold_us=0, ops=20_000,
        why=(
            "Paper's E1 shape: every acquire takes the exact path and runs "
            "16 refuting checks. Loads core.engine, avoidance, history and "
            "events; nothing parks."
        ),
    ),
    Workload(
        "thread-contended", "thread", workers=2, locks=4, sites=8,
        signatures=8, history_mode="hot", hot_sites=8, hold_us=20,
        ops=3_000,
        why=(
            "Hot signatures between live sites, sleep under the lock: "
            "antibodies fire and threads park. Loads parking, wakes and "
            "glock contention in runtime.interception."
        ),
    ),
    Workload(
        "aio-mixed", "aio", workers=8, locks=64, sites=8,
        signatures=48, history_mode="partner-miss", hot_sites=3, hold_us=0,
        ops=1_000,
        why=(
            "One event loop, 8 tasks, 3 of 8 sites history-hot: the only "
            "load on aio.locks and aio.adapter, on both the fast and the "
            "exact path."
        ),
    ),
]

WORKLOADS_BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0          # end-to-end only
    moves: str = ""             # per-layer only: what it should move, where


# Bounds sit at about three times the widest interquartile spread seen
# over ten seeds on a 2-vCPU VM (pairs_per_s 4.7% on thread-hot,
# pair_p99_us 7% on aio-mixed); setup_s, set up 15 times per run, keeps
# the largest bound.
END_TO_END = [
    Metric("pairs_per_s", "1/s", "higher", 0.15),
    Metric("pair_p50_us", "us", "lower", 0.1),
    Metric("pair_p99_us", "us", "lower", 0.25),
    Metric("rss_peak_mb", "MiB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
]

_FAST = "pairs_per_s and pair_p50_us on thread-cold and aio-mixed"
_EXACT = "pairs_per_s and pair_p50_us on thread-hot (not thread-cold)"
_PARK = "pair_p99_us and pairs_per_s on thread-contended"

PER_LAYER = [
    Metric("locks.self_ns", "ns", "lower",
           moves="every metric on every workload; must not regress "
                 "thread-cold or aio-mixed (one acquire pipeline)"),
    Metric("locks.share", "%", "lower", moves="as locks.self_ns"),
    Metric("runtime.callsite.calls", "count", "lower", moves=_FAST),
    Metric("runtime.callsite.self_ns", "ns", "lower", moves=_FAST),
    Metric("runtime.callsite.share", "%", "lower", moves=_FAST),
    Metric("adapter.calls", "count", "lower", moves=_FAST),
    Metric("adapter.self_ns", "ns", "lower",
           moves=_FAST + "; " + _PARK + " (glock wait lives here)"),
    Metric("adapter.share", "%", "lower", moves=_PARK),
    Metric("adapter.park_count", "count", "lower", moves=_PARK),
    Metric("core.engine.calls", "count", "lower", moves=_EXACT),
    Metric("core.engine.self_ns", "ns", "lower", moves=_EXACT),
    Metric("core.engine.share", "%", "lower", moves=_EXACT),
    Metric("core.engine.fastpath_share", "ratio", "higher", moves=_FAST),
    Metric("core.engine.footprint_kb", "KiB", "lower",
           moves="rss_peak_mb on every workload"),
    Metric("core.avoidance.calls", "count", "lower", moves=_EXACT),
    Metric("core.avoidance.share", "%", "lower", moves=_EXACT),
    Metric("core.avoidance.checks", "count", "lower", moves=_EXACT),
    Metric("core.avoidance.steps", "count", "lower", moves=_EXACT),
    Metric("core.avoidance.hit_ratio", "ratio", "higher", moves=_PARK),
    Metric("core.avoidance.caps", "count", "lower", moves=_EXACT),
    Metric("core.history.calls", "count", "lower", moves=_EXACT),
    Metric("core.history.share", "%", "lower", moves=_EXACT),
    Metric("core.events.calls", "count", "lower", moves=_EXACT),
    Metric("core.events.share", "%", "lower", moves=_EXACT),
    Metric("core.events.per_pair", "count", "lower", moves=_EXACT),
    Metric("trace.overhead_ratio", "ratio", "lower",
           moves="none: tracing cost, traced over untraced pair time"),
    Metric("trace.residual_ns", "ns", "lower",
           moves="none: rung sum minus untraced pair time, after the "
                 "calibrated wrapper cost"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document (keys fixed by the contract)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }
