"""Span tracing from outside the program, for the per-layer acquire budget.

The traced run replaces each layer's public entry points (class
attributes, installed before any runtime or lock is constructed, so the
lock classes' pre-bound ``_lookup`` / ``_fast_book`` / ``_core_fast``
capture the wrappers) with wrappers that keep a per-thread span stack:

* a span's **self time** is its duration minus its child spans;
* the pair loop owns the root frame, so the ``locks`` rung is the pair
  time minus every top-level span;
* each wrapper's own cost is calibrated on an empty function and taken
  back out: ``c_in`` from the wrapped layer per call, ``c_out`` from its
  caller per child call.

Nothing is wrapped between an application call site and a frame walk
(lock methods, ``resolve_stack``, ``capture_stack``): an extra frame
there would shift the ``sys._getframe`` skip and collapse every site
onto the wrapper's line. ``PositionCache.lookup_or_resolve`` is safe to
wrap once: its walk starts two frames up, at the lock method, and skips
internal frames from there. The tracer never subscribes to the event
bus — a subscriber flips ``lifecycle_observed`` and changes the fast
path it is meant to measure.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import statistics
import threading
import time
from dataclasses import dataclass

from repro.aio.adapter import AioRuntimeAdapter
from repro.core.avoidance import InstantiationChecker
from repro.core.engine import DimmunixCore
from repro.core.events import EventBus
from repro.core.history import History
from repro.runtime.callsite import PositionCache
from repro.runtime.interception import RuntimeAdapter

# Span slots. ``adapter`` and ``adapter.async`` report as one layer; the
# split exists because an async wrapper costs more than a sync one.
SLOTS = (
    "runtime.callsite",
    "adapter",
    "adapter.async",
    "core.engine",
    "core.avoidance",
    "core.history",
    "core.events",
    "app.critical_section",
    "calibration",
)
SLOT = {name: index for index, name in enumerate(SLOTS)}
WIDTH = 4  # per slot: self_ns, calls, sync child calls, async child calls

# (class, attribute, slot, records parks)
TARGETS = (
    (PositionCache, "lookup_or_resolve", "runtime.callsite", False),
    (RuntimeAdapter, "before_acquire", "adapter", True),
    (RuntimeAdapter, "fast_acquired", "adapter", False),
    (RuntimeAdapter, "after_acquire", "adapter", False),
    (RuntimeAdapter, "before_release", "adapter", False),
    (AioRuntimeAdapter, "before_acquire", "adapter.async", True),
    (AioRuntimeAdapter, "fast_acquired", "adapter", False),
    (AioRuntimeAdapter, "after_acquire", "adapter", False),
    (AioRuntimeAdapter, "before_release", "adapter", False),
    (DimmunixCore, "request", "core.engine", False),
    (DimmunixCore, "acquired", "core.engine", False),
    (DimmunixCore, "fast_acquired", "core.engine", False),
    (DimmunixCore, "release", "core.engine", False),
    (InstantiationChecker, "would_instantiate", "core.avoidance", False),
    (History, "signatures_at", "core.history", False),
    (History, "starvation_signatures_at", "core.history", False),
    (History, "contains_position", "core.history", False),
    (EventBus, "publish", "core.events", False),
)

# The wrapper body, instantiated per target with the target's own
# parameter list: a call site then still sees a plain fixed-arity
# function (no ``*args`` packing), which keeps the wrapper cheap.
# ``{await_}`` is empty or ``await``; the parent frame counts async
# children in slot 2.
_WRAPPER = """
def make(_func, _tls, _clock, _base, _parks):
    {async_}def traced({params}):
        _stack = _tls.stack
        if _stack is None:
            return {await_}_func({args})
        _frame = [0, 0, 0]
        _stack.append(_frame)
        _t0 = _clock()
        try:
            return {await_}_func({args})
        finally:
            _span = _clock() - _t0
            _stack.pop()
            _parent = _stack[-1]
            _parent[0] += _span
            _parent[{child_slot}] += 1
            _acc = _tls.acc
            _acc[_base] += _span - _frame[0]
            _acc[_base + 1] += 1
            _acc[_base + 2] += _frame[1]
            _acc[_base + 3] += _frame[2]
            if _parks and _frame[1] > 1:
                # More than one request child: the call yielded and
                # retried. Park time = span minus its request work.
                _tls.parks.append(_span - _frame[0])
    return traced
"""


def _build_wrapper(func, tls, base: int, parks: bool):
    params, args, defaults = [], [], {}
    for index, param in enumerate(inspect.signature(func).parameters.values()):
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD) or (
            param.name.startswith("_")
        ):
            raise TypeError(f"cannot trace {func.__qualname__}: {param}")
        text = param.name
        if param.default is not param.empty:
            defaults[f"_default{index}"] = param.default
            text += f"=_default{index}"
        if param.kind is param.KEYWORD_ONLY:
            if "*" not in params:
                params.append("*")
            args.append(f"{param.name}={param.name}")
        else:
            args.append(param.name)
        params.append(text)
    is_async = inspect.iscoroutinefunction(func)
    source = _WRAPPER.format(
        async_="async " if is_async else "",
        await_="await " if is_async else "",
        params=", ".join(params),
        args=", ".join(args),
        child_slot=2 if is_async else 1,
    )
    namespace = dict(defaults)
    exec(compile(source, "<perfbench-tracer>", "exec"), namespace)
    traced = namespace["make"](func, tls, time.perf_counter_ns, base, parks)
    return functools.wraps(func)(traced)


class _ThreadState(threading.local):
    # A class-level default: the wrappers' hot-path probe on a thread
    # that never recorded must not raise AttributeError internally (that
    # alone costs more than the wrapped call).
    stack = None


class Tracer:
    """Per-thread span stacks and accumulators.

    A thread records only between :meth:`begin_thread` and
    :meth:`end_thread`; elsewhere (set-up, warm-up, teardown, and every
    worker but the recorded one) the wrappers pass straight through.
    """

    def __init__(self) -> None:
        self.tls = _ThreadState()
        self._installed: list[tuple[type, str, object]] = []

    # -- per-thread recording window ----------------------------------

    def begin_thread(self) -> None:
        """Open this thread's recording window."""
        tls = self.tls
        tls.root = [0, 0, 0]  # child ns, sync child calls, async child calls
        tls.stack = [tls.root]
        tls.acc = [0] * (len(SLOTS) * WIDTH)
        tls.parks = []

    def end_thread(self) -> "ThreadSpans":
        tls = self.tls
        spans = ThreadSpans(list(tls.root), list(tls.acc), list(tls.parks))
        tls.stack = None
        return spans

    # -- wrappers -----------------------------------------------------

    def wrap(self, func, slot: str, *, parks: bool = False):
        """A timing wrapper for ``func`` (a plain or coroutine function)."""
        return _build_wrapper(func, self.tls, SLOT[slot] * WIDTH, parks)

    def install(self) -> None:
        """Wrap every layer entry point (before any lock is built)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for cls, attr, slot, parks in TARGETS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, slot, parks=parks))
            self._installed.append((cls, attr, original))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._installed):
            setattr(cls, attr, original)
        self._installed.clear()


@dataclass
class ThreadSpans:
    """One thread's recording window: root frame, slot totals, parks."""

    root: list
    acc: list
    parks: list

    def merge(self, other: "ThreadSpans") -> "ThreadSpans":
        for i, value in enumerate(other.root):
            self.root[i] += value
        for i, value in enumerate(other.acc):
            self.acc[i] += value
        self.parks.extend(other.parks)
        return self


@dataclass
class WrapperCost:
    """Cost of one wrapped call, split by who it lands on (ns)."""

    c_in: float         # inflates the wrapped span's own self time
    c_out: float        # inflates the caller's self time
    async_extra: float  # what an async wrapper adds on top, to its caller


def _empty() -> None:
    return None


async def _aempty() -> None:
    return None


def calibrate(tracer: Tracer, calls: int = 100_000, repeats: int = 7) -> WrapperCost:
    """Measure the wrapper's cost on an empty function, sync and async.

    A loop calls the bare function, then the wrapped one; the difference
    is the wrapper's cost. The part inside its span (``c_in``) is the
    self time it records for the empty function minus that function's
    own cost (the bare loop minus an empty loop); the rest lands on the
    caller. Medians over ``repeats``.
    """
    clock = time.perf_counter_ns
    traced = tracer.wrap(_empty, "calibration")
    atraced = tracer.wrap(_aempty, "calibration")
    base = SLOT["calibration"] * WIDTH
    rng = range(calls)

    def sync_round():
        t0 = clock()
        for _ in rng:
            pass
        loop_ns = clock() - t0
        t0 = clock()
        for _ in rng:
            _empty()
        bare_ns = clock() - t0
        tracer.begin_thread()
        t0 = clock()
        for _ in rng:
            traced()
        wrapped_ns = clock() - t0
        self_ns = tracer.end_thread().acc[base]
        return loop_ns, bare_ns, wrapped_ns, self_ns

    async def async_round():
        t0 = clock()
        for _ in rng:
            await _aempty()
        bare_ns = clock() - t0
        tracer.begin_thread()
        t0 = clock()
        for _ in rng:
            await atraced()
        wrapped_ns = clock() - t0
        tracer.end_thread()
        return bare_ns, wrapped_ns

    sync = [sync_round() for _ in range(repeats)]
    loop = asyncio.new_event_loop()
    try:
        asyncs = [loop.run_until_complete(async_round()) for _ in range(repeats)]
    finally:
        loop.close()
    total = statistics.median((w - b) / calls for _, b, w, _ in sync)
    c_in = statistics.median((a - (b - l)) / calls for l, b, _, a in sync)
    async_total = statistics.median((w - b) / calls for b, w in asyncs)
    return WrapperCost(c_in=c_in, c_out=total - c_in, async_extra=async_total - total)
