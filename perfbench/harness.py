"""Build one instance of a workload and drive it in closed-loop rounds.

An instance is everything ``setup_s`` pays for: runtime construction,
history generation, site compilation, lock creation, and a warm-up in
every worker that fills its position cache. Workers then run rounds: in
each round every worker performs a fixed number of acquire→release pairs
at cyclic call sites on locks drawn from a seeded RNG, timing each pair
at the call site, and waits for the next round. Threads for the
``thread`` domain; persistent tasks on one event loop for ``aio``.
"""

from __future__ import annotations

import _thread
import asyncio
import random
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.aio.runtime import AsyncioDimmunixRuntime
from repro.config import DimmunixConfig
from repro.core.history import History
from repro.errors import DeadlockDetectedError
from repro.runtime.runtime import DimmunixRuntime
from repro.workloads import microbench
from repro.workloads.synthetic_sigs import generate_history

from spec import Workload
from tracer import Tracer

# The yield_timeout safety net must never fire on these workloads; a
# bypass it grants is counted as a failed acquire, not hidden.
YIELD_TIMEOUT = 10.0
BARRIER_TIMEOUT = 120.0
AIO_SITES_FILENAME = "<perfbench-aio-sites>"
AIO_YIELD_EVERY = 64  # pairs between a task's turns on the loop
# The per-layer budget is the on-CPU cost of a pair. A pair whose thread
# lost the CPU — waiting for the interpreter lock, or for a lock held by a
# descheduled thread — is left out of the budget on both sides (its spans
# would charge that wait to whichever layer was running); it stays in
# every end-to-end metric. Waiting is the point of a workload that sleeps
# under the lock, so there only pairs that outlived a whole
# interpreter-lock switch interval are left out.
OFFCPU_NS = 2_000
SWITCH_CUTOFF_NS = int(sys.getswitchinterval() / 2 * 1e9)


def make_aio_sites(count: int):
    """``count`` distinct ``await lock.acquire()`` sites, one per line.

    The coroutine twin of :func:`repro.workloads.microbench.make_acquire_sites`
    (whose sites call ``lock.acquire()`` synchronously and so cannot drive
    an asyncio lock), with the same ``_spin(arg)`` critical section.
    Returns the site coroutine functions and the (file, line) keys of
    their acquire statements.
    """
    lines: list[str] = []
    keys: list[tuple[str, int]] = []
    for index in range(count):
        start = len(lines) + 1
        lines.append(f"async def site_{index}(lock, arg):")
        lines.append("    await lock.acquire()")
        keys.append((AIO_SITES_FILENAME, start + 1))
        lines.append("    _spin(arg)")
        lines.append("    lock.release()")
    namespace: dict = {"_spin": microbench._spin}
    exec(compile("\n".join(lines), AIO_SITES_FILENAME, "exec"), namespace)
    return [namespace[f"site_{index}"] for index in range(count)], keys


def make_history(workload: Workload, keys) -> History:
    if not workload.signatures:
        return History()
    return generate_history(
        keys[: workload.hot_sites], workload.signatures, workload.history_mode
    )


def lock_plan(seed: int, worker: int, round_index: int, locks: list, ops: int):
    """The seeded lock choices of one worker in one round."""
    rng = random.Random(f"{seed}/{worker}/{round_index}")
    return rng.choices(locks, k=ops)


def _hold(seconds: float) -> None:
    """A critical section standing in for I/O: releases the GIL."""
    time.sleep(seconds)


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an already sorted list."""
    rank = round(q * len(sorted_values))
    return sorted_values[min(len(sorted_values) - 1, max(0, rank - 1))]


@dataclass
class WorkerResult:
    lat: list
    failed: int = 0
    start_ns: int = 0           # this worker's first and last clock reads
    end_ns: int = 0
    recorded: bool = False      # budget runs: this worker's pairs count
    spans: object = None        # tracer.ThreadSpans when traced
    kept_ns: int = 0            # budget runs: wall time of pairs kept
    kept: int = 0
    excluded: int = 0


@dataclass
class RoundResult:
    """One round, reduced to what the metrics need (latencies dropped)."""

    wall_ns: int
    pairs: int
    failed: int
    p50_ns: int
    p99_ns: int
    workers: list               # WorkerResult, ``lat`` dropped

    @classmethod
    def reduce(cls, workers: list) -> "RoundResult":
        """Round wall time runs from the first worker's start to the last
        worker's end, as the workers clocked them: a controller thread
        may wait a whole switch interval for the interpreter lock."""
        wall_ns = max(w.end_ns for w in workers) - min(w.start_ns for w in workers)
        merged = sorted(v for worker in workers for v in worker.lat)
        for worker in workers:
            worker.lat = None
        return cls(
            wall_ns=wall_ns,
            pairs=len(merged),
            failed=sum(worker.failed for worker in workers),
            p50_ns=percentile(merged, 0.50),
            p99_ns=percentile(merged, 0.99),
            workers=workers,
        )

    @property
    def recorded(self) -> list:
        return [worker for worker in self.workers if worker.recorded]


def _pairs_plain(site_seq, lock_seq, arg, ops):
    clock = time.perf_counter_ns
    lat = [0] * ops
    failed = 0
    start = clock()
    for k in range(ops):
        site = site_seq[k]
        lock = lock_seq[k]
        t0 = clock()
        try:
            site(lock, arg)
        except DeadlockDetectedError:
            failed += 1
        lat[k] = clock() - t0
    return WorkerResult(lat, failed, start, clock())


def _pairs_budget(site_seq, lock_seq, arg, ops, tracer, filter_cpu):
    """The pair loop of a per-layer budget run, traced or not.

    Applies the exclusion rule above to each pair; with a ``tracer`` the
    spans of an excluded pair are rolled back so they count nowhere.
    """
    clock = time.perf_counter_ns
    cpu_clock = time.thread_time_ns
    lat = [0] * ops
    result = WorkerResult(lat, recorded=True)
    if tracer is not None:
        tracer.begin_thread()
        tls = tracer.tls
        root, acc, parks = tls.root, tls.acc, tls.parks
    result.start_ns = clock()
    for k in range(ops):
        site = site_seq[k]
        lock = lock_seq[k]
        if tracer is not None:
            snap = acc[:]
            r0, r1, r2 = root
            n_parks = len(parks)
        c0 = cpu_clock()
        t0 = clock()
        try:
            site(lock, arg)
        except DeadlockDetectedError:
            result.failed += 1
        pair_ns = clock() - t0
        cpu_ns = cpu_clock() - c0
        lat[k] = pair_ns
        if pair_ns > SWITCH_CUTOFF_NS or (
            filter_cpu and pair_ns - cpu_ns > OFFCPU_NS
        ):
            result.excluded += 1
            if tracer is not None:
                acc[:] = snap
                root[0], root[1], root[2] = r0, r1, r2
                del parks[n_parks:]
        else:
            result.kept_ns += pair_ns
            result.kept += 1
    result.end_ns = clock()
    if tracer is not None:
        result.spans = tracer.end_thread()
    return result


class Instance:
    """Shared bookkeeping of both domains."""

    workload: Workload
    runtime = None
    budget = False
    tracer: Optional[Tracer] = None
    sites: list
    keys: list
    locks: list
    _site_seqs_cache: Optional[list] = None
    _hot_per_round = 0
    pairs_done: int = 0
    hot_pairs_done: int = 0

    @property
    def core(self):
        return self.runtime.core if self.runtime is not None else None

    def _configure(self, workload, budget, tracer) -> None:
        self.workload = workload
        self.budget = budget or tracer is not None
        self.tracer = tracer

    def _site_seqs(self) -> list:
        """Cyclic sites, offset per worker so workers sit on neighbours.

        Built on the first round, not in set-up: they are the harness's
        inputs, not the program's.
        """
        if self._site_seqs_cache is None:
            n = len(self.sites)
            indices = [
                [(k + w) % n for k in range(self.workload.ops)]
                for w in range(self.workload.workers)
            ]
            self._hot_per_round = sum(
                sum(1 for i in seq if i < self.workload.hot_sites)
                for seq in indices
            )
            self._site_seqs_cache = [
                [self.sites[i] for i in seq] for seq in indices
            ]
        return self._site_seqs_cache

    def _count_round(self) -> None:
        self.pairs_done += self.workload.workers * self.workload.ops
        self.hot_pairs_done += self._hot_per_round

    def _warmed(self) -> None:
        self.pairs_done = self.workload.workers * len(self.sites)
        self.hot_pairs_done = self.workload.workers * self.workload.hot_sites

    def _runtime_and_locks(self, runtime_cls, name: str) -> None:
        self.runtime = runtime_cls(
            DimmunixConfig(yield_timeout=YIELD_TIMEOUT),
            history=make_history(self.workload, self.keys),
            name=name,
        )
        self.locks = [
            self.runtime.lock(f"benchlock-{index}")
            for index in range(self.workload.locks)
        ]

    def plan(self, seed: int, round_index: int) -> list:
        """Per worker: (site sequence, seeded lock sequence)."""
        return [
            (site_seq, lock_plan(seed, w, round_index, self.locks, self.workload.ops))
            for w, site_seq in enumerate(self._site_seqs())
        ]

    def cache_entries(self) -> list:
        return list(self._cache_entries)

    def positions(self) -> set:
        return {position.key for position in self.core.positions}


class ThreadInstance(Instance):
    """Worker threads over ``DimmunixLock`` (or raw ``_thread`` locks).

    In a budget run only worker 0 is recorded; the others keep the load
    (and the contention) on, passing straight through the wrappers, so a
    traced worker never waits on a traced partner.
    """

    def __init__(
        self,
        workload: Workload,
        name: str,
        *,
        vanilla: bool = False,
        budget: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._configure(workload, budget, tracer)
        self.sites, self.keys = microbench.make_acquire_sites(workload.sites)
        # The generated sites call ``_spin(arg)`` between acquire and
        # release; that global is the critical section. Sleeping there
        # releases the interpreter lock, like I/O under a lock would.
        if workload.hold_us:
            body, self.arg = _hold, workload.hold_us * 1e-6
        else:
            body, self.arg = microbench._spin, 0
        if tracer is not None:
            body = tracer.wrap(body, "app.critical_section")
        self.sites[0].__globals__["_spin"] = body
        if vanilla:
            self.locks = [_thread.allocate_lock() for _ in range(workload.locks)]
        else:
            self._runtime_and_locks(DimmunixRuntime, name)
        workers = workload.workers
        self._start = threading.Barrier(workers + 1, timeout=BARRIER_TIMEOUT)
        self._done = threading.Barrier(workers + 1, timeout=BARRIER_TIMEOUT)
        self._plan: Optional[list] = None
        self._results: list = [None] * workers
        self._cache_entries = [0] * workers
        self._warm_lock = threading.Lock()
        self.errors: list = []
        self._threads = [
            threading.Thread(
                target=self._worker, args=(w,), name=f"bench-{w}", daemon=True
            )
            for w in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._done.wait()  # every worker warmed up
        self._warmed()
        if self.errors:
            self.close()
            raise self.errors[0]

    def _warm_up(self, w: int) -> None:
        nlocks = len(self.locks)
        for k, site in enumerate(self.sites):
            site(self.locks[(k + w) % nlocks], self.arg)
        cache = getattr(self.runtime, "position_cache", None)
        self._cache_entries[w] = (
            cache.entry_count() if cache is not None else len(self.sites)
        )

    def _worker(self, w: int) -> None:
        try:
            # One worker at a time: warm-ups that overlapped would park
            # on each other's hot sites and make set-up time a race.
            with self._warm_lock:
                self._warm_up(w)
        except BaseException as exc:  # re-raised by the constructor
            self.errors.append(exc)
        self._done.wait()
        workload = self.workload
        while True:
            self._start.wait()
            plan = self._plan
            if plan is None:
                return
            try:
                site_seq, lock_seq = plan[w]
                if self.budget and w == 0:
                    result = _pairs_budget(
                        site_seq, lock_seq, self.arg, workload.ops,
                        self.tracer, not workload.hold_us,
                    )
                else:
                    result = _pairs_plain(
                        site_seq, lock_seq, self.arg, workload.ops
                    )
                self._results[w] = result
            except BaseException as exc:  # re-raised by run_round
                self.errors.append(exc)
            self._done.wait()

    def run_round(self, plan: list) -> RoundResult:
        self._plan = plan
        self._start.wait()
        self._done.wait()
        if self.errors:
            raise self.errors[0]
        self._count_round()
        return RoundResult.reduce(list(self._results))

    def close(self) -> None:
        self._plan = None
        try:
            self._start.wait()
        except threading.BrokenBarrierError:
            pass
        for thread in self._threads:
            thread.join(timeout=BARRIER_TIMEOUT)
        if any(thread.is_alive() for thread in self._threads):
            raise RuntimeError("a benchmark worker thread did not stop")
        if self.runtime is not None:
            self.runtime.core.detach_events()


class AioInstance(Instance):
    """Persistent tasks on one event loop over ``AioDimmunixLock``.

    One thread runs every task, so a budget run records all of them.
    """

    def __init__(
        self,
        workload: Workload,
        name: str,
        *,
        vanilla: bool = False,
        budget: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._configure(workload, budget, tracer)
        self.sites, self.keys = make_aio_sites(workload.sites)
        if tracer is not None:
            self.sites[0].__globals__["_spin"] = tracer.wrap(
                microbench._spin, "app.critical_section"
            )
        self.loop = asyncio.new_event_loop()
        if vanilla:
            self.locks = [asyncio.Lock() for _ in range(workload.locks)]
        else:
            self._runtime_and_locks(AsyncioDimmunixRuntime, name)
        self._cache_entries = [0] * workload.workers
        self._queues: list = []
        self._tasks: list = []
        self.loop.run_until_complete(self._start_tasks())
        self._warmed()

    async def _start_tasks(self) -> None:
        warmed = []
        for t in range(self.workload.workers):
            queue: asyncio.Queue = asyncio.Queue()
            ready = self.loop.create_future()
            self._queues.append(queue)
            warmed.append(ready)
            self._tasks.append(
                self.loop.create_task(
                    self._task_main(t, queue, ready), name=f"bench-{t}"
                )
            )
        await asyncio.gather(*warmed)

    async def _task_main(self, t: int, queue, ready) -> None:
        nlocks = len(self.locks)
        try:
            for k, site in enumerate(self.sites):
                await site(self.locks[(k + t) % nlocks], 0)
        except BaseException as exc:
            ready.set_exception(exc)
            raise
        cache = getattr(self.runtime, "position_cache", None)
        self._cache_entries[t] = (
            cache.entry_count() if cache is not None else len(self.sites)
        )
        ready.set_result(None)
        while True:
            item = await queue.get()
            if item is None:
                return
            (site_seq, lock_seq), done = item
            try:
                if self.budget:
                    result = await self._pairs_budget(site_seq, lock_seq)
                else:
                    result = await self._pairs_plain(site_seq, lock_seq)
            except BaseException as exc:
                done.set_exception(exc)
                raise
            done.set_result(result)

    async def _pairs_plain(self, site_seq, lock_seq):
        clock = time.perf_counter_ns
        ops = self.workload.ops
        lat = [0] * ops
        failed = 0
        start = clock()
        for k in range(ops):
            site = site_seq[k]
            lock = lock_seq[k]
            t0 = clock()
            try:
                await site(lock, 0)
            except DeadlockDetectedError:
                failed += 1
            lat[k] = clock() - t0
            if k % AIO_YIELD_EVERY == AIO_YIELD_EVERY - 1:
                await asyncio.sleep(0)
        return WorkerResult(lat, failed, start, clock())

    async def _pairs_budget(self, site_seq, lock_seq):
        """Budget-run twin of ``_pairs_plain`` (see ``_pairs_budget``).

        A traced run opens the tracer's per-thread window around each
        stretch between loop turns. A pair never suspends mid-span
        (nothing parks here, which the run checks), so spans of
        different tasks never interleave.
        """
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns
        tracer = self.tracer
        ops = self.workload.ops
        lat = [0] * ops
        result = WorkerResult(lat, recorded=True)
        spans = None
        if tracer is not None:
            tracer.begin_thread()
        result.start_ns = clock()
        for k in range(ops):
            site = site_seq[k]
            lock = lock_seq[k]
            if tracer is not None:
                acc, root = tracer.tls.acc, tracer.tls.root
                snap = acc[:]
                r0, r1, r2 = root
            c0 = cpu_clock()
            t0 = clock()
            try:
                await site(lock, 0)
            except DeadlockDetectedError:
                result.failed += 1
            pair_ns = clock() - t0
            cpu_ns = cpu_clock() - c0
            lat[k] = pair_ns
            if pair_ns - cpu_ns > OFFCPU_NS:
                result.excluded += 1
                if tracer is not None:
                    acc[:] = snap
                    root[0], root[1], root[2] = r0, r1, r2
            else:
                result.kept_ns += pair_ns
                result.kept += 1
            if k % AIO_YIELD_EVERY == AIO_YIELD_EVERY - 1 or k == ops - 1:
                if tracer is not None:
                    window = tracer.end_thread()
                    spans = window if spans is None else spans.merge(window)
                if k != ops - 1:
                    await asyncio.sleep(0)
                    if tracer is not None:
                        tracer.begin_thread()
        result.end_ns = clock()
        result.spans = spans
        return result

    def run_round(self, plan: list) -> RoundResult:
        async def dispatch():
            done = [self.loop.create_future() for _ in self._queues]
            for queue, work, fut in zip(self._queues, plan, done):
                queue.put_nowait((work, fut))
            return await asyncio.gather(*done)

        results = self.loop.run_until_complete(dispatch())
        self._count_round()
        return RoundResult.reduce(list(results))

    def close(self) -> None:
        async def stop():
            for queue in self._queues:
                queue.put_nowait(None)
            await asyncio.gather(*self._tasks)

        try:
            self.loop.run_until_complete(stop())
        finally:
            self.loop.close()
        if self.runtime is not None:
            self.runtime.close()


def build(workload: Workload, name: str, **kwargs) -> Instance:
    cls = AioInstance if workload.domain == "aio" else ThreadInstance
    return cls(workload, name, **kwargs)
