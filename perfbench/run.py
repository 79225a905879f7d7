"""The lock-path benchmark: one workload per process, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload thread-hot --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload thread-hot --seed 1 --seconds 8 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` runs the workload untraced and then traced for the same rounds and
seeds, and reports the per-layer acquire budget. Every run checks the
correctness gates and appends one row to the ledger (``--ledger``). The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import sysconfig
import time
from pathlib import Path

import spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_LEDGER = BENCH_DIR / "ledger.jsonl"
SETUPS = 15                 # set-ups per run; setup_s is their median
VANILLA_ROUNDS = 3
REFERENCE_SHARE = 0.35      # share of --seconds for the traced run's reference
# Relative tolerance on |rung sum - untraced pair time|. The empty-function
# calibration removes most of the wrappers' cost but not all: on the lock
# path a wrapped call also slows the code around it, by ~0.1-0.2 us per
# call on a 2-vCPU x86 VM (CPython 3.11), so the rungs of a traced pair
# sum to 5-55% more than the untraced pair (the most on thread-cold,
# whose pair is shortest); trace.residual_ns reports by how much. Spans
# cannot miss time (the locks rung is the remainder), so the gate only
# catches a traced run that did different work — far outside this band.
RUNG_TOLERANCE = 1.0


class GateError(AssertionError):
    """A correctness gate failed; the run's numbers must not be used."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": (
            f"{platform.python_implementation()} {platform.python_version()} "
            f"{' '.join(platform.python_build())}"
        ),
        "free_threaded": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "switch_interval_s": sys.getswitchinterval(),
    }


def append_ledger(path: Path, row: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def midmean(values) -> float:
    """Interquartile mean: robust to outlier rounds like a median, but
    not stuck on one round's whole-nanosecond reading."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def stats_delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def check_instance(instance, delta: dict) -> list[str]:
    """The gates every immunized run must pass; returns what was checked."""
    workload = instance.workload
    core = instance.core
    stats = core.stats
    core.rag.check_invariants()
    busy = [p.key for p in core.positions if p.queue.size]
    gate(not busy, f"position queues left non-empty: {busy}")
    gate(
        stats.acquisitions == stats.releases == instance.pairs_done,
        f"acquisitions {stats.acquisitions}, releases {stats.releases}, "
        f"pairs {instance.pairs_done} differ",
    )
    cached = instance.cache_entries()
    gate(
        all(count == workload.sites for count in cached),
        f"position caches not filled by warm-up: {cached} of {workload.sites}",
    )
    gate(stats.deadlocks_detected == 0, "a deadlock was detected")
    checked = [
        "rag invariants",
        "queues empty",
        f"acquisitions == releases == pairs ({instance.pairs_done})",
        f"caches warm ({workload.sites} sites per worker)",
        "0 detections",
    ]
    per_site = workload.signatures // workload.hot_sites if workload.hot_sites else 0
    if workload.name == "thread-cold":
        # The exact path runs only when the try-lock loses to the other
        # worker holding the same lock.
        share = delta["fastpath_acquires"] / max(delta["acquisitions"], 1)
        gate(share >= 0.95, f"fastpath_share {share:.4f} < 0.95 after warm-up")
        gate(
            not core.events.lifecycle_observed,
            "the event bus is observed; the fast path would build events",
        )
        checked += [f"fastpath_share {share:.4f}", "lifecycle_observed False"]
    if workload.history_mode == "partner-miss" and workload.signatures:
        expected = instance.hot_pairs_done * per_site
        gate(stats.avoided_instantiations == 0, "a partner-miss check succeeded")
        gate(stats.yields == 0, "a partner-miss workload parked")
        gate(
            stats.instantiation_checks == expected,
            f"instantiation checks {stats.instantiation_checks} != "
            f"hot pairs x signatures per site = {expected}",
        )
        checked += ["0 avoided", f"checks == {expected}"]
    if workload.history_mode == "hot":
        gate(stats.yields > 0, "no thread parked on the contended workload")
        checked.append(f"parks {stats.yields}")
    return checked


def failures(result_failed: int, delta: dict) -> int:
    """Raised acquires plus safety-net bypasses (each is a starvation)."""
    return result_failed + delta.get("starvations_detected", 0)


def run_rounds(instance, seed: int, *, seconds: float = 0.0, rounds: int = 0):
    """Rounds until ``seconds`` elapse, or exactly ``rounds`` rounds."""
    results = []
    deadline = time.perf_counter() + seconds
    index = 0
    while (rounds and index < rounds) or (
        not rounds and (index == 0 or time.perf_counter() < deadline)
    ):
        results.append(instance.run_round(instance.plan(seed, index)))
        index += 1
    return results


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def end_to_end(workload, seed: int, seconds: float, out) -> dict:
    import harness

    setup_times = []
    for index in range(SETUPS):
        t0 = time.perf_counter()
        instance = harness.build(workload, f"bench-{index}")
        setup_times.append(time.perf_counter() - t0)
        if index < SETUPS - 1:
            instance.close()

    try:
        vanilla = harness.build(workload, "vanilla", vanilla=True)
        try:
            vanilla_rounds = run_rounds(vanilla, seed, rounds=VANILLA_ROUNDS)
        finally:
            vanilla.close()
        before = instance.core.stats.snapshot()
        rounds = run_rounds(instance, seed, seconds=seconds)
        delta = stats_delta(instance.core.stats.snapshot(), before)
        checked = check_instance(instance, delta)
    finally:
        instance.close()

    attempted = sum(r.pairs for r in rounds)
    failed = failures(sum(r.failed for r in rounds), delta)
    metrics = {
        "pairs_per_s": midmean(r.pairs / (r.wall_ns / 1e9) for r in rounds),
        "pair_p50_us": midmean(r.p50_ns for r in rounds) / 1e3,
        "pair_p99_us": midmean(r.p99_ns for r in rounds) / 1e3,
        "rss_peak_mb": rss_peak_mb(),
        "setup_s": statistics.median(setup_times),
    }
    v_rate = midmean(r.pairs / (r.wall_ns / 1e9) for r in vanilla_rounds)
    v_p50 = midmean(r.p50_ns for r in vanilla_rounds) / 1e3
    per_round = rounds[0].pairs
    print(f"end-to-end ({len(rounds)} rounds x {per_round} pairs, "
          f"closed loop, {workload.workers} {workload.domain} workers; "
          f"round metrics are interquartile means over rounds)", file=out)
    units = {m.name: m.unit for m in spec.END_TO_END}
    for name, value in metrics.items():
        print(f"  {name:<13} {value:>14.4f} {units[name]}", file=out)
    print(f"  {'failed_ratio':<13} {failed / attempted:>14.6f} "
          f"({failed} of {attempted} acquires)", file=out)
    print(f"  p50 and p99 are per-round percentiles, {per_round // 100} "
          f"samples beyond p99 per round; "
          f"setup_s is the median of {SETUPS} set-ups", file=out)
    print(f"vanilla reference (raw {'asyncio.Lock' if workload.domain == 'aio' else '_thread.lock'}, "
          f"same sites, not gated): {v_rate:,.0f} pairs/s, p50 {v_p50:.3f} us; "
          f"immunized/vanilla pair-rate ratio {metrics['pairs_per_s'] / v_rate:.3f}",
          file=out)
    print("gates ok: " + ", ".join(checked), file=out)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# --trace 1: per-layer budget
# ----------------------------------------------------------------------

def compared_counters(workload, stats: dict) -> list[str]:
    """Counters a traced run must reproduce exactly. Thread schedules
    decide fast-path fallbacks and parks, so only schedule-free counters
    are compared on the thread workloads; the aio loop is deterministic."""
    if workload.domain == "aio":
        return sorted(stats)
    base = ["acquisitions", "releases", "deadlocks_detected"]
    if workload.history_mode == "partner-miss" and workload.signatures:
        base += [
            "requests", "instantiation_checks", "matching_steps", "yields",
            "avoided_instantiations",
        ]
    return base


def layer_budget(rounds, cost, untraced_pair_ns: float) -> dict:
    """Merge recorded spans into per-layer self times, wrapper cost removed.

    A wrapped call inflates its own span by ``c_in`` and its caller by
    ``c_out`` (plus the async surcharge for a coroutine wrapper); the
    ``locks`` rung is the pair time not covered by a top-level span.
    """
    from tracer import SLOTS, SLOT, WIDTH

    acc = [0] * (len(SLOTS) * WIDTH)
    root = [0, 0, 0]
    parks: list = []
    kept_ns = kept = excluded = 0
    for result in rounds:
        for worker in result.recorded:
            for i, value in enumerate(worker.spans.acc):
                acc[i] += value
            for i, value in enumerate(worker.spans.root):
                root[i] += value
            parks.extend(worker.spans.parks)
            kept_ns += worker.kept_ns
            kept += worker.kept
            excluded += worker.excluded
    c_async = cost.c_out + cost.async_extra

    layers: dict[str, list] = {
        "locks": [kept_ns - root[0] - cost.c_out * root[1] - c_async * root[2], kept]
    }
    for slot in SLOTS:
        if slot == "calibration":
            continue
        base = SLOT[slot] * WIDTH
        name = "adapter" if slot == "adapter.async" else slot
        layer = layers.setdefault(name, [0.0, 0])
        layer[0] += (
            acc[base]
            - cost.c_in * acc[base + 1]
            - cost.c_out * acc[base + 2]
            - c_async * acc[base + 3]
        )
        layer[1] += acc[base + 1]
    pairs = max(kept, 1)
    rung_sum = sum(self_ns for self_ns, _ in layers.values()) / pairs
    return {
        "layers": layers,
        "pairs": pairs,
        "excluded": excluded,
        "parks": sorted(parks),
        "traced_pair_ns": kept_ns / pairs,
        "rung_sum_ns": rung_sum,
        "residual_ns": rung_sum - untraced_pair_ns,
    }


def kept_pair_ns(rounds) -> float:
    """Mean wall time of the recorded workers' kept pairs."""
    workers = [worker for result in rounds for worker in result.recorded]
    return sum(w.kept_ns for w in workers) / max(sum(w.kept for w in workers), 1)


def traced(workload, seed: int, seconds: float, out) -> dict:
    import harness
    from tracer import Tracer, calibrate

    tracer = Tracer()
    cost = calibrate(tracer)

    reference = harness.build(workload, "untraced", budget=True)
    try:
        before = reference.core.stats.snapshot()
        ref_rounds = run_rounds(reference, seed, seconds=seconds * REFERENCE_SHARE)
        ref_delta = stats_delta(reference.core.stats.snapshot(), before)
        checked = check_instance(reference, ref_delta)
        ref_positions = reference.positions()
        ref_stats = reference.core.stats.snapshot()
    finally:
        reference.close()
    untraced_ns = kept_pair_ns(ref_rounds)

    tracer.install()
    try:
        instance = harness.build(workload, "traced", tracer=tracer)
        try:
            core = instance.core
            before = core.stats.snapshot()
            published0 = core.events.published
            rounds = run_rounds(instance, seed, rounds=len(ref_rounds))
            stats = core.stats.snapshot()
            delta = stats_delta(stats, before)
            published = core.events.published - published0
            positions = instance.positions()
            footprint_kb = core.memory_footprint().bytes_total / 1024
            check_instance(instance, delta)
        finally:
            instance.close()
    finally:
        tracer.uninstall()

    gate(
        positions == ref_positions,
        f"traced run interned other positions: {sorted(positions ^ ref_positions)}",
    )
    names = compared_counters(workload, stats)
    differ = {n: (ref_stats[n], stats[n]) for n in names if ref_stats[n] != stats[n]}
    gate(not differ, f"traced counters differ from untraced: {differ}")

    budget = layer_budget(rounds, cost, untraced_ns)
    layers = budget["layers"]
    pairs = budget["pairs"]

    total_pairs = sum(r.pairs for r in rounds)
    checks = delta["instantiation_checks"]
    parks = budget["parks"]

    def per_pair(layer: str) -> float:
        return layers[layer][0] / pairs

    def per_call(layer: str) -> float:
        self_ns, calls = layers[layer]
        return self_ns / calls if calls else 0.0

    def calls(layer: str) -> float:
        return layers[layer][1] / pairs

    def share(layer: str) -> float:
        return 100.0 * per_pair(layer) / budget["rung_sum_ns"]

    metrics = {
        "locks.self_ns": per_pair("locks"),
        "locks.share": share("locks"),
        "runtime.callsite.calls": calls("runtime.callsite"),
        "runtime.callsite.self_ns": per_call("runtime.callsite"),
        "runtime.callsite.share": share("runtime.callsite"),
        "adapter.calls": calls("adapter"),
        "adapter.self_ns": per_call("adapter"),
        "adapter.share": share("adapter"),
        "adapter.park_count": len(parks),
        "core.engine.calls": calls("core.engine"),
        "core.engine.self_ns": per_call("core.engine"),
        "core.engine.share": share("core.engine"),
        "core.engine.fastpath_share": (
            delta["fastpath_acquires"] / max(delta["acquisitions"], 1)
        ),
        "core.engine.footprint_kb": footprint_kb,
        "core.avoidance.calls": calls("core.avoidance"),
        "core.avoidance.share": share("core.avoidance"),
        "core.avoidance.checks": checks / total_pairs,
        "core.avoidance.steps": delta["matching_steps"] / total_pairs,
        "core.avoidance.hit_ratio": (
            delta["avoided_instantiations"] / checks if checks else 0.0
        ),
        "core.avoidance.caps": delta["match_caps"],
        "core.history.calls": calls("core.history"),
        "core.history.share": share("core.history"),
        "core.events.calls": calls("core.events"),
        "core.events.share": share("core.events"),
        "core.events.per_pair": published / total_pairs,
        "trace.overhead_ratio": budget["traced_pair_ns"] / untraced_ns,
        "trace.residual_ns": budget["residual_ns"],
    }

    modules = {
        "locks": "aio.locks" if workload.domain == "aio" else "runtime.locks",
        "adapter": "aio.adapter" if workload.domain == "aio" else "runtime.interception",
    }
    recorded = "all tasks" if workload.domain == "aio" else "worker 0"
    print(f"per-layer acquire budget ({len(rounds)} rounds, {recorded} recorded, "
          f"{pairs} pairs kept, {budget['excluded']} that lost the CPU left out; "
          f"wrapper cost on an empty function c_in {cost.c_in:.0f} ns + c_out "
          f"{cost.c_out:.0f} ns, async +{cost.async_extra:.0f} ns):", file=out)
    print(f"  {'layer':<22} {'module':<22} {'calls/pair':>10} "
          f"{'self ns/call':>12} {'self ns/pair':>12} {'share':>7}", file=out)
    for layer, (self_ns, ncalls) in layers.items():
        per_call_ns = self_ns / ncalls if ncalls else 0.0
        print(f"  {layer:<22} {modules.get(layer, layer):<22} "
              f"{ncalls / pairs:>10.2f} {per_call_ns:>12.1f} "
              f"{self_ns / pairs:>12.1f} {share(layer):>6.1f}%", file=out)
    print(f"  rung sum {budget['rung_sum_ns']:.1f} ns/pair vs untraced pair "
          f"{untraced_ns:.1f} ns: residual {budget['residual_ns']:+.1f} ns "
          f"(tolerance {RUNG_TOLERANCE:.0%}); traced/untraced "
          f"{metrics['trace.overhead_ratio']:.2f}x", file=out)
    if parks:
        print(f"  parks {len(parks)}: p50 {harness.percentile(parks, 0.5) / 1e3:.1f} us, "
              f"p90 {harness.percentile(parks, 0.9) / 1e3:.1f} us "
              f"(before_acquire time minus its request children)", file=out)
    else:
        print("  parks 0", file=out)
    if workload.domain == "aio":
        print("  note: the aio fast path books inline inside "
              "AioDimmunixLock.acquire and calls no public adapter or engine "
              "method, so its booking lands in aio.locks by design", file=out)
    print("gates ok: " + ", ".join(checked) + "; traced run reproduced "
          f"{len(positions)} positions and counters {names if len(names) < 9 else 'all'}",
          file=out)
    gate(
        abs(budget["residual_ns"]) <= RUNG_TOLERANCE * untraced_ns,
        f"rungs sum to {budget['rung_sum_ns']:.1f} ns, untraced pair is "
        f"{untraced_ns:.1f} ns (tolerance {RUNG_TOLERANCE:.0%})",
    )
    attempted = sum(r.pairs for r in ref_rounds) + total_pairs
    failed = failures(sum(r.failed for r in ref_rounds), ref_delta) + failures(
        sum(r.failed for r in rounds), delta
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def write_spec() -> Path:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", type=Path, default=DEFAULT_LEDGER)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(f"wrote {write_spec()}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = spec.WORKLOADS_BY_NAME[args.workload]
    out = sys.stdout
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {workload.why}", file=out)
    run = traced if args.trace else end_to_end
    try:
        result = run(workload, args.seed, args.seconds, out)
        correct = True
    except AssertionError as exc:
        print(f"CORRECTNESS GATE FAILED: {exc}", file=sys.stderr)
        result = {"attempted": 1, "failed": 1, "metrics": {}}
        correct = False

    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    units = {m.name: m.unit for m in wanted}
    metrics = {
        name: {"value": result["metrics"][name], "unit": units[name]}
        for name in units
        if name in result["metrics"]
    }
    append_ledger(args.ledger, {
        "sha": git_sha(),
        "host": host_fingerprint(),
        "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in metrics.items()},
    })
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
