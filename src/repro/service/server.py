"""The resilient typechecking job server: asyncio front, sliced engine back.

One process, three moving parts:

* the **HTTP front** (``asyncio.start_server`` + :mod:`.http`) accepts
  submissions and polls — every request handled on the event loop, so
  journal mutations are single-threaded by construction;
* the **pump** (one coroutine) feeds runnable jobs to a small thread
  pool that runs engine slices (:meth:`JobScheduler.run_slice`), and
  applies each outcome back on the loop — preempt/resume, retries, and
  the result cache all live behind it;
* the **drain path**: SIGTERM/SIGINT stops admission (503), cancels the
  running slices cooperatively, waits for their checkpoints to flush,
  folds the journal log into a snapshot, and exits **3** — the repo-wide
  "interrupted, resumable" exit code.  A second signal during the drain
  force-exits immediately (``os._exit(3)``), the operator's escape
  hatch when a slice refuses to stop.

A server killed with SIGKILL instead restarts into
:meth:`JobScheduler.recover`: the journal replays, ``running`` jobs
resume from their checkpoints, and verdicts come out identical to an
uninterrupted run (the chaos matrix in ``tests/test_service_chaos.py``
is the proof).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs import EVENT_SCHEMA, EVENT_VERSION, EventBus, Telemetry
from repro.obs.promexp import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.promexp import render_prometheus
from repro.runtime.durable import DurableStore
from repro.runtime.faults import FaultInjector
from repro.service.admission import AdmissionControl, TenantPolicy
from repro.service.http import (
    HttpError,
    Request,
    read_request,
    render_response,
    render_sse_comment,
    render_sse_event,
    render_stream_head,
)
from repro.service.journal import TERMINAL_STATES, JobJournal
from repro.service.scheduler import JobScheduler, SchedulerConfig, ServiceFaultError

__all__ = ["EXIT_DRAINED", "JobServer", "ServerConfig"]

EXIT_DRAINED = 3
"""Exit code after a graceful signal-triggered drain (matches the CLI's
"interrupted, resumable" convention)."""


@dataclass(slots=True)
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 0
    """0 = pick an ephemeral port (announced on stdout at startup)."""
    data_dir: str = "service-data"
    max_queue: int = 64
    workers: int = 2
    slice_seconds: float = 0.5
    checkpoint_every: int = 200
    max_attempts: int = 3
    read_timeout: float = 5.0
    max_body: int = 1 << 20
    max_active_jobs: int = 8
    max_compute_seconds: Optional[float] = None
    max_rss_mb: Optional[float] = None
    max_size_cap: Optional[int] = None
    search_workers: int = 0
    """Shared search-pool processes for job slices (0 = sequential
    search per slice; see ``SchedulerConfig.search_workers``)."""
    events: bool = True
    """Live event plane: the in-process EventBus plus the SSE routes
    (``GET /events``, ``GET /jobs/{id}/events``).  Off = both 503 and
    the scheduler publishes nothing."""
    events_capacity: int = 2048
    """Replay-ring size: how far back a ``Last-Event-ID`` resume reaches."""
    sse_heartbeat: float = 3.0
    """Seconds of stream silence before a ``:`` comment keep-alive."""
    sse_max_pending: int = 512
    """Per-subscriber pending-queue bound; overflow drops oldest events
    (counted and reported to that client, never buffered unboundedly)."""
    sse_evict_drops: int = 2048
    """Cumulative dropped events after which a slow consumer is evicted."""
    sse_write_timeout: float = 5.0
    """Seconds a single stream write may stall before eviction."""


class JobServer:
    """Wires journal + admission + scheduler behind the HTTP front."""

    def __init__(
        self,
        config: ServerConfig,
        faults: Optional[FaultInjector] = None,
        telemetry: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.config = config
        # /metrics always has a registry to render, even when no
        # --metrics-out file was requested.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer
        self.events: Optional[EventBus] = (
            EventBus(capacity=config.events_capacity) if config.events else None
        )
        os.makedirs(config.data_dir, exist_ok=True)
        # The journal store carries the fault injector: --inject-io-fault
        # drills (torn writes, crashes mid-rename) hit the job table, the
        # most valuable thing the server persists.
        self.journal_store = DurableStore(
            os.path.join(config.data_dir, "journal.json"),
            faults=faults,
            telemetry=self.telemetry,
        )
        self.journal = JobJournal(self.journal_store, telemetry=self.telemetry)
        self.admission = AdmissionControl(
            max_queue=config.max_queue,
            default_policy=TenantPolicy(
                max_active_jobs=config.max_active_jobs,
                max_compute_seconds=config.max_compute_seconds,
                max_rss_mb=config.max_rss_mb,
                max_size=config.max_size_cap,
            ),
            telemetry=self.telemetry,
        )
        self.scheduler = JobScheduler(
            config.data_dir,
            self.journal,
            self.admission,
            config=SchedulerConfig(
                slice_seconds=config.slice_seconds,
                checkpoint_every=config.checkpoint_every,
                max_attempts=config.max_attempts,
                workers=config.workers,
                search_workers=config.search_workers,
            ),
            telemetry=self.telemetry,
            tracer=tracer,
            faults=faults,
            events=self.events,
        )
        self.exit_code = 0
        self.started_jobs = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._wake: Optional[asyncio.Event] = None
        self._done: Optional[asyncio.Event] = None
        self._draining = False
        self._ready = False
        self._started_at = time.monotonic()
        self._pump_task: Optional[asyncio.Task] = None
        self._signals_installed: list[int] = []
        self._signalled = False  # a signal started the drain
        # Live SSE connections: their per-connection wake events (set at
        # drain so every stream notices promptly) and their handler tasks
        # (awaited at drain so teardown is clean, not abandoned).
        self._stream_wakes: set[asyncio.Event] = set()
        self._stream_tasks: set[asyncio.Task] = set()
        # Jobs whose terminal state some client has been shown (by a job
        # stream or GET /jobs/{id}): a later job stream without
        # Last-Event-ID is a reconnect and gets hello-only.
        self._outcome_shown: set[str] = set()

    # -- lifecycle -----------------------------------------------------------

    def _log(self, message: str) -> None:
        print(f"repro-serve: {message}", file=sys.stderr, flush=True)

    async def start(self) -> int:
        """Recover, bind, announce; returns the bound port."""
        recovered = self.scheduler.recover()
        for note in self.journal.events:
            self._log(note)
        self.journal.events.clear()
        if recovered:
            self._log(f"recovered {len(recovered)} preempted job(s): {', '.join(recovered)}")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-slice"
        )
        self._wake = asyncio.Event()
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        # The announcement is the smoke tests' handshake: parsed from
        # stdout to learn the ephemeral port.  Keep the format stable.
        print(
            f"repro-serve: listening on http://{self.config.host}:{port}",
            flush=True,
        )
        self._ready = True
        if self.events is not None:
            # A restarted server announces recovery (resumed jobs only —
            # jobs already terminal in the journal replay silently, which
            # is what keeps restarted streams free of duplicate terminal
            # events); a fresh one announces birth.
            if recovered:
                self.events.publish("server_recovered", resumed=list(recovered), port=port)
            else:
                self.events.publish("server_started", port=port)
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())
        return port

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._on_signal, sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                continue
            self._signals_installed.append(sig)

    def _on_signal(self, sig: int) -> None:
        if self._draining:
            # Second signal during the drain: the operator means it.
            self._log("second signal during drain; forcing exit")
            os._exit(EXIT_DRAINED)
        self._signalled = True
        self._log(f"received signal {sig}; draining (signal again to force exit)")
        # Re-arm both signals as raw force-exit handlers *before* the
        # drain starts: a second delivery must work even when the drain
        # has the event loop blocked (executor shutdown joins threads),
        # where a loop-dispatched callback would never run.
        for other in self._signals_installed:
            try:
                signal.signal(other, _force_exit)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        asyncio.get_running_loop().create_task(self.drain())

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, checkpoint running jobs,
        flush the journal, release the port, report exit code 3."""
        if self._draining:
            return
        self._draining = True
        self._ready = False
        drain_started = time.perf_counter()
        self.scheduler.drain_begin()
        # Wake every SSE stream *before* closing the listener: on recent
        # asyncio, ``Server.wait_closed`` waits for handlers, and a stream
        # parked on its heartbeat timer must notice the drain first.
        for wake in list(self._stream_wakes):
            wake.set()
        if self._wake is not None:
            self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._stream_tasks:
            await asyncio.wait(set(self._stream_tasks), timeout=2.0)
        if self._pump_task is not None:
            await self._pump_task
        try:
            # Any transition whose flush failed, then fold the log into
            # a snapshot and release the journal lock.
            self.scheduler.flush()
            self.journal.close()
        except Exception as exc:  # noqa: BLE001 - drain must reach exit
            self._log(f"final journal flush failed: {exc}")
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        try:
            # Every slice has finished or checkpointed by now; the shared
            # search pool's worker processes must not outlive the server.
            self.scheduler.close_search_pool()
        except Exception as exc:  # noqa: BLE001 - drain must reach exit
            self._log(f"search pool shutdown failed: {exc}")
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "drain", drain_started, time.perf_counter() - drain_started,
                active=len(self.journal.active()),
            )
        active = len(self.journal.active())
        self._log(f"drained; {active} active job(s) checkpointed for resume")
        self.exit_code = EXIT_DRAINED
        if self._done is not None:
            self._done.set()

    async def run(self) -> int:
        """Start, serve until drained, return the exit code."""
        await self.start()
        self.install_signal_handlers()
        try:
            assert self._done is not None
            await self._done.wait()
        finally:
            loop = asyncio.get_running_loop()
            for sig in self._signals_installed:
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
                if self._signalled:
                    # The drain is done and the process is on its way out
                    # with the drain code.  The removal above put the
                    # default action back, and interpreter teardown would
                    # do the same to a Python handler: a second signal
                    # landing there killed the process (exit -15).  There
                    # is nothing left to force, so ignore it.
                    signal.signal(sig, signal.SIG_IGN)
        return self.exit_code

    async def stop(self) -> None:
        """Programmatic shutdown for tests (no signal, same drain path)."""
        await self.drain()

    # -- the pump ------------------------------------------------------------

    async def _pump(self) -> None:
        """Feed runnable jobs to the executor; apply outcomes on the loop."""
        loop = asyncio.get_running_loop()
        running: dict[asyncio.Future, str] = {}
        assert self._wake is not None
        while True:
            while not self._draining and len(running) < self.config.workers:
                record = self.scheduler.next_runnable()
                if record is None:
                    break
                try:
                    token = self.scheduler.start_slice(record)
                except Exception as exc:  # noqa: BLE001 - journal flush failure
                    self._log(f"cannot start job {record.id}: {exc}")
                    self.scheduler.apply_outcome(
                        record.id,
                        _flush_failure_outcome(exc),
                    )
                    continue
                self.started_jobs += 1
                future = loop.run_in_executor(
                    self._executor, self.scheduler.run_slice, record.id, token
                )
                running[future] = record.id
            if not running:
                if self._draining:
                    break
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.05)
                except asyncio.TimeoutError:
                    pass
                self._wake.clear()
                continue
            done, _ = await asyncio.wait(
                set(running), return_when=asyncio.FIRST_COMPLETED, timeout=0.5
            )
            for future in done:
                job_id = running.pop(future)
                try:
                    outcome = future.result()
                except Exception as exc:  # noqa: BLE001 - executor boundary
                    outcome = _flush_failure_outcome(exc)
                try:
                    self.scheduler.apply_outcome(job_id, outcome)
                except ServiceFaultError as exc:
                    # An injected "fail" at preempt/complete/journal: the
                    # transition did not flush; the job replays from its
                    # previous durable state on the next pass.
                    self._log(f"transition fault on job {job_id}: {exc}")

    # -- HTTP ----------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        status = 500
        method = path = ""
        try:
            try:
                request = await read_request(
                    reader, max_body=self.config.max_body, timeout=self.config.read_timeout
                )
            except HttpError as exc:
                status = exc.status
                if status == 408 and self.telemetry is not None:
                    self.telemetry.count("service.slow_clients")
                writer.write(render_response(status, {"error": exc.message}))
                return
            if request is None:
                return
            method, path = request.method, request.path
            if method == "GET" and _stream_job_id(path) is not None:
                status = await self._handle_stream(request, writer)
                return
            if method == "GET" and path == "/metrics":
                status = 200
                writer.write(self._render_metrics())
                return
            try:
                status, payload, headers = self._route(request)
            except HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
                headers = (
                    {"Retry-After": f"{exc.retry_after:.0f}"} if exc.retry_after else None
                )
            except ServiceFaultError as exc:
                status, payload, headers = 500, {"error": str(exc)}, None
            writer.write(render_response(status, payload, headers))
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            if self.telemetry is not None:
                self.telemetry.count("service.requests")
            if self.tracer is not None and self.tracer.enabled and method:
                self.tracer.emit(
                    "request", started, time.perf_counter() - started,
                    method=method, path=path, status=status,
                )
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            writer.close()

    # -- live observability plane --------------------------------------------

    def _render_metrics(self) -> bytes:
        """One Prometheus scrape: the Telemetry registry plus live gauges
        computed at scrape time (job states, queue depth, utilization)."""
        stats = self.scheduler.stats()
        extra: list[tuple[str, Optional[dict[str, str]], Any, str]] = []
        for state in sorted(stats["jobs"]):
            extra.append(("service.jobs", {"state": state}, stats["jobs"][state], "gauge"))
        extra.append(("service.queue_depth", None, stats["queue_depth"], "gauge"))
        extra.append(("service.running_slices", None, stats["running_slices"], "gauge"))
        extra.append(("service.workers", None, stats["workers"], "gauge"))
        extra.append(("service.pool_utilization", None, stats["pool_utilization"], "gauge"))
        extra.append(("service.draining", None, 1 if self._draining else 0, "gauge"))
        extra.append(
            ("service.result_cache_entries", None, stats["result_cache"]["entries"], "gauge")
        )
        extra.append(
            ("service.uptime_seconds", None, round(time.monotonic() - self._started_at, 3), "gauge")
        )
        if self.events is not None:
            ev = self.events.stats()
            extra.append(("service.events_published", None, ev["published"], "counter"))
            extra.append(
                (
                    "service.events_dropped",
                    None,
                    ev["ring_dropped"] + ev["subscriber_dropped"],
                    "counter",
                )
            )
            extra.append(("service.event_subscribers", None, ev["subscribers"], "gauge"))
        body = render_prometheus(self.telemetry, extra).encode("utf-8")
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: {PROM_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        return head + body

    async def _handle_stream(self, request: Request, writer: asyncio.StreamWriter) -> int:
        """One SSE subscriber, connect to eviction/drain/terminal event.

        Protocol: a ``hello`` frame (stream metadata + resume horizon),
        then replay for ``Last-Event-ID`` resumes, then live events with
        ``id:`` set to the bus ``seq``; ``:`` comment heartbeats cover
        silence.  Slow consumers get bounded buffering + drop notices and
        are evicted when ``sse_evict_drops`` accumulates or one write
        stalls ``sse_write_timeout``.  Job-scoped streams end cleanly
        after that job's terminal event.

        A job-scoped stream without ``Last-Event-ID`` first replays that
        job's events still in the ring, so a client connecting right after
        submit sees queued → running → done exactly once even when the job
        finished first.  A terminal job gets hello-only (its state rides
        in the hello) when its events have left the ring or a client has
        already been shown its outcome."""
        if self.events is None:
            writer.write(render_response(503, {"error": "event streaming is disabled"}))
            return 503
        if self._draining:
            writer.write(render_response(503, {"error": "server is draining"}))
            return 503
        job_filter = _stream_job_id(request.path) or None
        record = None
        if job_filter is not None:
            record = self.journal.get(job_filter)
            if record is None:
                writer.write(render_response(404, {"error": f"no such job {job_filter!r}"}))
                return 404
        last_seq: Optional[int] = None
        raw = request.headers.get("last-event-id")
        if raw is None:
            raw = request.query_params().get("last_event_id")
        if raw:
            try:
                last_seq = max(0, int(raw))
            except ValueError:
                writer.write(render_response(400, {"error": f"bad Last-Event-ID {raw!r}"}))
                return 400
        if self.telemetry is not None:
            self.telemetry.count("service.sse_connections")
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()

        def _wakeup() -> None:
            # Publishers run on executor threads too; hop to the loop.
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        sub = self.events.subscribe(max_pending=self.config.sse_max_pending, wakeup=_wakeup)
        task = asyncio.current_task()
        if task is not None:
            self._stream_tasks.add(task)
        self._stream_wakes.add(wake)
        watermark = last_seq if last_seq is not None else 0
        total_drops = 0
        status = 200
        try:
            hello: dict[str, Any] = {
                "schema": EVENT_SCHEMA,
                "v": EVENT_VERSION,
                "last_seq": self.events.last_seq(),
                "job_id": job_filter,
            }
            if record is not None:
                hello["state"] = record.state
            writer.write(render_stream_head())
            writer.write(
                render_sse_event(json.dumps(hello, sort_keys=True), event="hello")
            )
            terminal_sent = False
            history: list[dict[str, Any]] = []
            if record is not None and last_seq is None and record.id not in self._outcome_shown:
                ring, _ = self.events.replay_since(0)
                history = [e for e in ring if e.get("job_id") == job_filter]
                if ring:
                    # Anything newer reaches the subscription (opened above).
                    watermark = ring[-1]["seq"]
            if record is not None and not record.active() and not history:
                # Already terminal with nothing to replay: the hello carries
                # the state; there is no live event to wait for (and
                # synthesizing one would duplicate terminal events across
                # reconnects).
                self._outcome_shown.add(record.id)
                await writer.drain()
                return 200
            if last_seq is not None:
                replayed, lost = self.events.replay_since(last_seq)
                if lost:
                    total_drops += lost
                    writer.write(_dropped_frame(lost, "ring"))
                for event in replayed:
                    if _stream_wants(event, job_filter):
                        writer.write(
                            render_sse_event(
                                json.dumps(event, sort_keys=True),
                                event=event["type"],
                                event_id=event["seq"],
                            )
                        )
                        if job_filter is not None and EventBus.is_terminal(event["type"]):
                            terminal_sent = True
                    watermark = max(watermark, event["seq"])
            for event in history:
                writer.write(
                    render_sse_event(
                        json.dumps(event, sort_keys=True),
                        event=event["type"],
                        event_id=event["seq"],
                    )
                )
                if EventBus.is_terminal(event["type"]):
                    terminal_sent = True
            while True:
                try:
                    await asyncio.wait_for(writer.drain(), timeout=self.config.sse_write_timeout)
                except asyncio.TimeoutError:
                    if self.telemetry is not None:
                        self.telemetry.count("service.sse_evicted")
                    return status
                if terminal_sent or self._draining or total_drops >= self.config.sse_evict_drops:
                    if terminal_sent:
                        self._outcome_shown.add(job_filter)
                    break
                try:
                    await asyncio.wait_for(wake.wait(), timeout=self.config.sse_heartbeat)
                except asyncio.TimeoutError:
                    writer.write(render_sse_comment(f"hb seq={self.events.last_seq()}"))
                    continue
                wake.clear()
                batch, dropped = sub.pop()
                if dropped:
                    total_drops += dropped
                    if self.telemetry is not None:
                        self.telemetry.count("service.events_dropped", dropped)
                    writer.write(_dropped_frame(dropped, "subscriber"))
                for event in batch:
                    if event["seq"] <= watermark:
                        continue  # already sent during replay
                    watermark = event["seq"]
                    if not _stream_wants(event, job_filter):
                        continue
                    writer.write(
                        render_sse_event(
                            json.dumps(event, sort_keys=True),
                            event=event["type"],
                            event_id=event["seq"],
                        )
                    )
                    if job_filter is not None and EventBus.is_terminal(event["type"]):
                        terminal_sent = True
            if self._draining:
                writer.write(render_sse_comment("server draining; stream closing"))
            elif total_drops >= self.config.sse_evict_drops:
                if self.telemetry is not None:
                    self.telemetry.count("service.sse_evicted")
                writer.write(
                    render_sse_comment(f"evicted: {total_drops} events dropped")
                )
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            return status
        except (ConnectionResetError, BrokenPipeError):
            return status
        finally:
            sub.close()
            self._stream_wakes.discard(wake)
            if task is not None:
                self._stream_tasks.discard(task)

    def _route(self, request: Request) -> tuple[int, Any, Optional[dict[str, str]]]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            pool = {
                "workers": self.config.search_workers,
                "started": self.scheduler._search_pool is not None,
                "failed": self.scheduler._search_pool_failed,
            }
            if self._draining:
                health = "draining"
            elif pool["failed"]:
                # Still alive (liveness stays 200) but degraded: pooled
                # search broke and slices fell back to sequential.
                health = "degraded"
            else:
                health = "ok"
            return 200, {"status": health, "draining": self._draining, "search_pool": pool}, None
        if path == "/readyz" and method == "GET":
            ready = self._ready and not self._draining
            body = {
                "ready": ready,
                "recovered": self._ready or self._draining,
                "draining": self._draining,
            }
            return (200 if ready else 503), body, None
        if path == "/stats" and method == "GET":
            stats = self.scheduler.stats()
            stats["uptime_seconds"] = round(time.monotonic() - self._started_at, 3)
            if self.telemetry is not None:
                stats["counters"] = dict(self.telemetry.to_dict().get("counters", {}))
            return 200, stats, None
        if path == "/jobs" and method == "POST":
            status, body = self.scheduler.submit(request.json())
            if self._wake is not None:
                self._wake.set()
            headers = None
            retry_after = body.pop("retry_after", None)
            if retry_after is not None:
                headers = {"Retry-After": f"{retry_after:.0f}"}
            return status, body, headers
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": [r.public_dict() for r in self.journal.in_order()]}, None
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if method == "GET":
                record = self.journal.get(job_id)
                if record is None:
                    raise HttpError(404, f"no such job {job_id!r}")
                body = record.public_dict()
                if body["state"] in TERMINAL_STATES:
                    self._outcome_shown.add(job_id)
                return 200, body, None
            if method == "DELETE":
                status, body = self.scheduler.cancel(job_id)
                return status, body, None
            raise HttpError(405, f"{method} not supported on {path}")
        if path in ("/jobs", "/healthz", "/readyz", "/stats", "/metrics", "/events"):
            raise HttpError(405, f"{method} not supported on {path}")
        raise HttpError(404, f"no such endpoint {path!r}")


def _stream_job_id(path: str) -> Optional[str]:
    """``""`` for the firehose (``/events``), the job id for a job-scoped
    stream (``/jobs/{id}/events``), ``None`` for any other path."""
    if path == "/events":
        return ""
    if path.startswith("/jobs/") and path.endswith("/events"):
        job_id = path[len("/jobs/") : -len("/events")]
        if job_id and "/" not in job_id:
            return job_id
    return None


def _stream_wants(event: dict[str, Any], job_filter: Optional[str]) -> bool:
    """Job-scoped streams get that job's events plus the global lifecycle
    ones (``job_id`` None: drain/recovery affect every watcher)."""
    if job_filter is None:
        return True
    return event.get("job_id") in (None, job_filter)


def _dropped_frame(count: int, where: str) -> bytes:
    """A synthesized (not bus-sequenced) drop notice for one client."""
    payload = {
        "schema": EVENT_SCHEMA,
        "v": EVENT_VERSION,
        "type": "events_dropped",
        "count": count,
        "where": where,
    }
    return render_sse_event(json.dumps(payload, sort_keys=True), event="events_dropped")


def _force_exit(signum, frame):  # pragma: no cover - exits the process
    os._exit(EXIT_DRAINED)


def _flush_failure_outcome(exc: BaseException):
    from repro.service.scheduler import SliceOutcome

    return SliceOutcome(kind="error", error=f"{type(exc).__name__}: {exc}", retryable=True)
