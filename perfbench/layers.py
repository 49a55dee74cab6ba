"""Per-layer timing installed from outside the program.

``Tracer.install()`` replaces public functions and methods of ``repro``
with thin wrappers, in the defining module and in every loaded ``repro``
module that imported them by name; ``uninstall()`` puts the originals
back.  Nothing under ``src/`` is edited.

Each wrapper times one call and books *self time*: its wall time minus
the wall time of wrapped calls nested inside it on the same thread (one
stack per thread).  Generators are timed per ``next()``; coroutines per
synchronous step, so time spent suspended in ``await`` is never charged
to them and interleaved coroutines on one event loop do not nest.

An iteration started inside a call listed in ``REBOOK`` is booked under
its own name, not under the layer it borrows: ``plan_shards`` walks the
whole stream with ``enumerate_instances`` to price it, and that walk is
part of the cost of sharding, not of the search's enumeration.

Forked pool workers inherit the wrappers.  The fork hook clears the
child's inherited totals, and every finished worker range dumps that
process's cumulative totals to ``<dump_dir>/worker-<pid>.json`` so the
parent side can add them up.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Optional

# (layer name, module, qualified attribute, kind).  kind: "call" times a
# plain call, "iter" times each next() of the returned generator and
# counts yields, "async" times each synchronous step of a coroutine,
# "mark" only hands the call's wall time to its hook: the front door is
# the end-to-end operation itself, not a layer, so it books no self time
# and whatever no layer covers shows up as the residual.
LAYERS: list[tuple[str, str, str, str]] = [
    ("dtd.enumerate", "repro.dtd.generate", "enumerate_instances", "iter"),
    ("trees.values", "repro.trees.values", "enumerate_value_assignments", "iter"),
    ("ql.compile", "repro.ql.compile", "compiled_query_for", "call"),
    ("ql.bind", "repro.ql.compile", "CompiledQuery.bind", "call"),
    ("ql.evaluate", "repro.ql.compile", "BoundTree.evaluate", "call"),
    ("ql.reference_eval", "repro.ql.eval", "evaluate", "call"),
    ("dtd.validate", "repro.dtd.core", "DTD.validate", "call"),
    ("typecheck.loop", "repro.typecheck.search", "find_counterexample", "call"),
    ("typecheck.front", "repro.typecheck.api", "typecheck", "mark"),
    ("runtime.plan", "repro.runtime.shard", "plan_shards", "call"),
    ("runtime.supervise", "repro.runtime.supervisor", "ShardedSearch.run", "call"),
    ("runtime.pool.start", "repro.runtime.pool", "WorkerPool.ensure_started", "call"),
    ("runtime.pool.dispatch", "repro.runtime.pool", "WorkerPool.dispatch", "call"),
    ("runtime.pool.range", "repro.runtime.pool", "_run_range", "call"),
    ("runtime.durable.checkpoint", "repro.runtime.durable", "DurableStore.save_checkpoint", "call"),
    ("runtime.durable.document", "repro.runtime.durable", "DurableStore.save_document", "call"),
    ("service.http.read", "repro.service.http", "read_request", "async"),
    ("service.http.render", "repro.service.http", "render_response", "call"),
    ("service.admit", "repro.service.admission", "AdmissionControl.admit", "call"),
    ("service.submit", "repro.service.scheduler", "JobScheduler.submit", "call"),
    ("service.start_slice", "repro.service.scheduler", "JobScheduler.start_slice", "call"),
    ("service.slice", "repro.service.scheduler", "JobScheduler.run_slice", "call"),
    ("service.journal", "repro.service.journal", "JobJournal.flush", "call"),
    ("obs.events.publish", "repro.obs.events", "EventBus.publish", "call"),
]

# (enclosing call, iterated layer) -> the name the iteration is booked under.
REBOOK: dict[tuple[str, str], str] = {
    ("runtime.plan", "dtd.enumerate"): "runtime.plan.walk",
}


class _Slot:
    """One thread's span stack and totals.  Booking never takes a lock:
    a lock taken on every call convoys with the interpreter lock when
    several threads run wrapped code."""

    __slots__ = ("stack", "totals", "is_main")

    def __init__(self) -> None:
        # One [nested seconds, layer name] frame per open wrapped call.
        self.stack: list[list[Any]] = []
        # name -> [self seconds, calls]
        self.totals: dict[str, list[float]] = {}
        self.is_main = threading.current_thread() is threading.main_thread()


class _ThreadState(threading.local):
    def __init__(self, registry: list[_Slot], registry_lock: threading.Lock) -> None:
        self.slot = _Slot()
        with registry_lock:
            registry.append(self.slot)


class Tracer:
    """Self-time and call counts per layer, plus a few event hooks."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.dump_dir = dump_dir
        self._patches: list[tuple[Any, str, Any]] = []
        self._after_fork()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        """Start empty: a forked worker must not report its parent's
        totals (also the constructor's initial state)."""
        self._lock = threading.Lock()
        self._threads: list[_Slot] = []
        self._local = _ThreadState(self._threads, self._lock)
        self.busy_s = 0.0
        self.accepted_at: dict[str, float] = {}
        self.queue_waits: list[float] = []
        self.submits = 0
        self.cache_hits = 0
        self.front_walls: list[float] = []
        self.supervise_wall = 0.0

    # -- totals ----------------------------------------------------------------

    def _merged(self, main_only: bool) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for state in list(self._threads):
            if main_only and not state.is_main:
                continue
            for name, (secs, calls) in list(state.totals.items()):
                rec = out.setdefault(name, [0.0, 0])
                rec[0] += secs
                rec[1] += calls
        return out

    def snapshot(self) -> dict[str, Any]:
        """Totals over all threads, and over the main thread alone (the
        thread a library or CLI verdict blocks on, used for the
        residual)."""
        with self._lock:
            return {
                "totals": self._merged(main_only=False),
                "main_totals": self._merged(main_only=True),
                "busy_s": self.busy_s,
                "front_walls": list(self.front_walls),
                "supervise_wall": self.supervise_wall,
                "submits": self.submits,
                "cache_hits": self.cache_hits,
                "queue_waits": list(self.queue_waits),
            }

    # -- wrappers --------------------------------------------------------------

    def _enter(self, name: str) -> list[Any]:
        frame = [0.0, name]
        self._local.slot.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[Any], elapsed: float, calls: int = 1) -> None:
        state = self._local.slot
        stack = state.stack
        if stack and stack[-1] is frame:
            stack.pop()
        if stack:
            stack[-1][0] += elapsed
        rec = state.totals.get(name)
        if rec is None:
            state.totals[name] = [elapsed - frame[0], calls]
        else:
            rec[0] += elapsed - frame[0]
            rec[1] += calls

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._exit(name, frame, elapsed)
            if hook is not None:
                hook(tracer, args, result, elapsed)
            return result

        return wrapper

    def _wrap_mark(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            hook(tracer, args, result, perf_counter() - t0)
            return result

        return wrapper

    def _wrap_iter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            booked = name
            for frame in tracer._local.slot.stack:
                booked = REBOOK.get((frame[1], name), booked)
            return _TimedIterator(tracer, booked, fn(*args, **kwargs))

        return wrapper

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedCoroutine(tracer, name, fn(*args, **kwargs))

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for name, module_name, qualname, kind in LAYERS:
            module = importlib.import_module(module_name)
            make = {
                "call": self._wrap_call,
                "iter": self._wrap_iter,
                "async": self._wrap_async,
                "mark": self._wrap_mark,
            }[kind]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, make(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = make(name, original)
            # Rebind every module-level alias (``from x import f``) too.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> None:
        """Write this process's totals (forked pool workers call this)."""
        if self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


class _TimedIterator:
    __slots__ = ("tracer", "name", "inner")

    def __init__(self, tracer: Tracer, name: str, inner: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self.tracer
        frame = tracer._enter(self.name)
        t0 = perf_counter()
        try:
            item = next(self.inner)
        except StopIteration:
            # The exhausting call costs time but yields nothing.
            tracer._exit(self.name, frame, perf_counter() - t0, calls=0)
            raise
        except BaseException:
            tracer._exit(self.name, frame, perf_counter() - t0)
            raise
        tracer._exit(self.name, frame, perf_counter() - t0)
        return item

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


class _TimedCoroutine:
    __slots__ = ("tracer", "name", "coro")

    def __init__(self, tracer: Tracer, name: str, coro: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.coro = coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = tracer._enter(self.name)
            t0 = perf_counter()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer._exit(self.name, frame, perf_counter() - t0)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


# -- hooks: bookkeeping that needs a call's arguments or result ----------------


def _on_submit(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    status, body = result
    now = perf_counter()
    with tracer._lock:
        tracer.submits += 1
        if status == 200 and body.get("cache") == "hit":
            tracer.cache_hits += 1
        elif status == 202 and "id" in body and not body.get("deduplicated"):
            tracer.accepted_at[body["id"]] = now


def _on_start_slice(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    record = args[1]
    with tracer._lock:
        accepted = tracer.accepted_at.pop(record.id, None)
        if accepted is not None:
            tracer.queue_waits.append(perf_counter() - elapsed - accepted)


def _on_range(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    with tracer._lock:
        tracer.busy_s += elapsed
    tracer.dump()


def _on_front(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    # typecheck(handle_signals=True) calls itself once more; the outer
    # call finishes last, so front_walls[-1] is the whole call.
    with tracer._lock:
        tracer.front_walls.append(elapsed)


def _on_supervise(tracer: Tracer, args: tuple, result: Any, elapsed: float) -> None:
    with tracer._lock:
        tracer.supervise_wall += elapsed


_HOOKS: dict[str, Callable[[Tracer, tuple, Any, float], None]] = {
    "service.submit": _on_submit,
    "service.start_slice": _on_start_slice,
    "runtime.pool.range": _on_range,
    "typecheck.front": _on_front,
    "runtime.supervise": _on_supervise,
}
