"""The SSE streaming layer end to end: framing, hello/replay protocol,
heartbeats, Last-Event-ID resume, slow-consumer eviction, and clean
teardown during drain — all against the real asyncio server.
"""

import asyncio
import json

from repro.obs import EventBus, Telemetry, validate_event
from repro.obs.promexp import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.promexp import parse_prometheus_text
from repro.service import JobServer, ServerConfig
from repro.service.http import (
    render_sse_comment,
    render_sse_event,
    render_stream_head,
)
from repro.service.top import parse_sse_frame

from tests.test_service import _raw_call, payload

STREAM_TIMEOUT = 30


def _server(tmp_path, **overrides):
    defaults = dict(
        data_dir=str(tmp_path / "data"),
        port=0,
        slice_seconds=0.05,
        checkpoint_every=100,
        workers=2,
    )
    defaults.update(overrides)
    return JobServer(ServerConfig(**defaults), telemetry=Telemetry())


# ---------------------------------------------------------------------------
# Framing goldens


class TestFraming:
    def test_stream_head_has_no_content_length(self):
        head = render_stream_head().decode("latin-1")
        assert head.startswith("HTTP/1.1 200 OK\r\n")
        assert "Content-Type: text/event-stream; charset=utf-8\r\n" in head
        assert "Connection: close\r\n" in head
        assert "Cache-Control: no-store\r\n" in head
        assert "content-length" not in head.lower()
        assert head.endswith("\r\n\r\n")

    def test_event_frame_golden(self):
        frame = render_sse_event('{"a": 1}', event="job_done", event_id=7)
        assert frame == b'id: 7\nevent: job_done\ndata: {"a": 1}\n\n'

    def test_multiline_data_fans_out(self):
        frame = render_sse_event("line1\nline2")
        assert frame == b"data: line1\ndata: line2\n\n"
        parsed = parse_sse_frame(frame.decode().strip("\n").split("\n"))
        assert parsed["data"] == "line1\nline2"

    def test_comment_frame_golden(self):
        assert render_sse_comment("hb seq=3") == b": hb seq=3\n\n"
        assert render_sse_comment("a\nb") == b": a b\n\n"


# ---------------------------------------------------------------------------
# Live streams against the asyncio server


class SseClient:
    """One streaming connection; reads LF-delimited SSE frames."""

    def __init__(self, reader, writer, status, headers):
        self.reader = reader
        self.writer = writer
        self.status = status
        self.headers = headers

    @classmethod
    async def open(cls, port, path="/events", headers=None):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head = f"GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        writer.write((head + "\r\n").encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), STREAM_TIMEOUT)
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        resp_headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                resp_headers[name.strip().lower()] = value.strip()
        return cls(reader, writer, status, resp_headers)

    async def read_frame(self, timeout=STREAM_TIMEOUT):
        """Next frame dict, or None at EOF (stream closed)."""
        try:
            raw = await asyncio.wait_for(self.reader.readuntil(b"\n\n"), timeout)
        except asyncio.IncompleteReadError:
            return None
        return parse_sse_frame(raw.decode("utf-8").strip("\n").split("\n"))

    async def read_until(self, wanted_type, timeout=STREAM_TIMEOUT):
        """Collect data frames until one of type ``wanted_type``."""
        seen = []
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            assert remaining > 0, f"no {wanted_type} before timeout; saw {seen}"
            frame = await self.read_frame(timeout=remaining)
            assert frame is not None, f"stream closed before {wanted_type}; saw {seen}"
            if not frame["data"]:
                continue  # heartbeat
            event = json.loads(frame["data"])
            seen.append(event)
            if event.get("type") == wanted_type:
                return seen

    async def read_json_body(self):
        """For non-stream error responses (404/400/503)."""
        raw = await self.reader.read(-1)
        return json.loads(raw)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class TestStreamEndToEnd:
    def test_watch_job_from_submit_to_done_without_polling(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            client = await SseClient.open(port)
            assert client.status == 200
            assert client.headers["content-type"].startswith("text/event-stream")
            hello = await client.read_frame()
            assert hello["event"] == "hello"
            meta = json.loads(hello["data"])
            assert meta["schema"] == "repro.obs.event"
            assert meta["job_id"] is None

            status, body, _ = await _raw_call(port, "POST", "/jobs", payload())
            assert status == 202
            job_id = body["id"]

            seen = await client.read_until("job_done")
            types = [e["type"] for e in seen if e.get("job_id") == job_id]
            assert types[0] == "job_submitted"
            assert "job_running" in types
            assert "slice_started" in types and "slice_finished" in types
            assert types[-1] == "job_done"
            assert types.index("job_submitted") < types.index("job_running")
            # Exactly one terminal event, strictly increasing seq, and
            # every frame validates against the event schema.
            assert sum(1 for t in types if t in ("job_done", "job_failed")) == 1
            seqs = [e["seq"] for e in seen if "seq" in e]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            for event in seen:
                if event["type"] != "events_dropped":
                    validate_event(event)
            done = seen[-1]
            assert done["data"]["verdict"]
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_job_scoped_stream_closes_after_terminal(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            status, body, _ = await _raw_call(port, "POST", "/jobs", payload())
            job_id = body["id"]
            client = await SseClient.open(port, f"/jobs/{job_id}/events")
            assert client.status == 200
            hello = json.loads((await client.read_frame())["data"])
            assert hello["job_id"] == job_id
            seen = await client.read_until("job_done")
            for event in seen:
                if event.get("type") != "events_dropped":
                    assert event.get("job_id") in (None, job_id)
            # The stream ends after the terminal event (EOF, not hang).
            assert await client.read_frame() is None
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_already_terminal_job_gets_hello_only(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            status, body, _ = await _raw_call(port, "POST", "/jobs", payload())
            job_id = body["id"]
            for _ in range(400):
                status, job, _ = await _raw_call(port, "GET", f"/jobs/{job_id}")
                if job["state"] in ("done", "failed"):
                    break
                await asyncio.sleep(0.02)
            assert job["state"] == "done"
            client = await SseClient.open(port, f"/jobs/{job_id}/events")
            hello = json.loads((await client.read_frame())["data"])
            assert hello["state"] == "done"
            # No synthesized terminal event — reconnects never duplicate.
            assert await client.read_frame() is None
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_job_stream_replays_history_of_a_finished_job_once(self, tmp_path):
        """A first job-scoped stream opened after the job finished (the
        race a client loses when it connects right after submit) replays
        the job's events from the ring — each once, terminal last — and
        ends; a reconnect after that outcome was shown gets hello-only."""

        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            firehose = await SseClient.open(port)
            await firehose.read_frame()  # hello
            status, body, _ = await _raw_call(port, "POST", "/jobs", payload())
            job_id = body["id"]
            live = await firehose.read_until("job_done")
            await firehose.close()
            expected = [e["seq"] for e in live if e.get("job_id") == job_id]

            client = await SseClient.open(port, f"/jobs/{job_id}/events")
            hello = json.loads((await client.read_frame())["data"])
            assert hello["state"] == "done"
            replayed = await client.read_until("job_done")
            assert [e["seq"] for e in replayed] == expected
            assert await client.read_frame() is None
            await client.close()

            again = await SseClient.open(port, f"/jobs/{job_id}/events")
            await again.read_frame()  # hello
            assert await again.read_frame() is None
            await again.close()
            await server.stop()

        asyncio.run(scenario())

    def test_heartbeats_cover_idle_streams(self, tmp_path):
        async def scenario():
            server = _server(tmp_path, sse_heartbeat=0.05)
            port = await server.start()
            client = await SseClient.open(port)
            await client.read_frame()  # hello
            beats = 0
            for _ in range(3):
                frame = await client.read_frame(timeout=5)
                if frame["data"] == "" and frame.get("comment", "").startswith("hb"):
                    beats += 1
            assert beats == 3
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_resume_with_last_event_id(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            # Subscribe before submitting so the stream observes the
            # job's whole life and the cut point is mid-stream.
            first = await SseClient.open(port)
            await first.read_frame()
            status, body, _ = await _raw_call(port, "POST", "/jobs", payload())
            job_id = body["id"]
            seen = await first.read_until("job_done")
            await first.close()
            assert len(seen) >= 3
            cut = seen[len(seen) // 2 - 1]["seq"]

            # Header resume: only events with seq > cut replay, no gap.
            resumed = await SseClient.open(port, headers={"Last-Event-ID": str(cut)})
            hello = json.loads((await resumed.read_frame())["data"])
            assert hello["last_seq"] >= seen[-1]["seq"]
            replay = await resumed.read_until("job_done")
            assert [e["seq"] for e in replay] == [
                e["seq"] for e in seen if e["seq"] > cut
            ]
            assert all(e["type"] != "events_dropped" for e in replay)
            await resumed.close()

            # Query-param resume is equivalent (curl-friendly).
            q = await SseClient.open(port, f"/events?last_event_id={cut}")
            await q.read_frame()
            replay_q = await q.read_until("job_done")
            assert [e["seq"] for e in replay_q] == [e["seq"] for e in replay]
            await q.close()
            await server.stop()

        asyncio.run(scenario())

    def test_resume_past_ring_reports_lost_events(self, tmp_path):
        async def scenario():
            server = _server(tmp_path, events_capacity=4)
            port = await server.start()
            status, body, _ = await _raw_call(port, "POST", "/jobs", payload())
            job_id = body["id"]
            for _ in range(400):
                status, job, _ = await _raw_call(port, "GET", f"/jobs/{job_id}")
                if job["state"] == "done":
                    break
                await asyncio.sleep(0.02)
            assert server.events.last_seq() > 4
            client = await SseClient.open(port, headers={"Last-Event-ID": "0"})
            await client.read_frame()
            frame = await client.read_frame()
            notice = json.loads(frame["data"])
            assert notice["type"] == "events_dropped"
            assert notice["where"] == "ring"
            assert notice["count"] == server.events.last_seq() - 4
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_bad_last_event_id_is_400(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            client = await SseClient.open(port, headers={"Last-Event-ID": "nope"})
            assert client.status == 400
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_unknown_job_stream_is_404(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            client = await SseClient.open(port, "/jobs/nope/events")
            assert client.status == 404
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_streams_disabled_is_503(self, tmp_path):
        async def scenario():
            server = _server(tmp_path, events=False)
            port = await server.start()
            assert server.events is None
            client = await SseClient.open(port)
            assert client.status == 503
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_slow_consumer_is_evicted_with_drop_accounting(self, tmp_path):
        async def scenario():
            server = _server(tmp_path, sse_max_pending=1, sse_evict_drops=2)
            port = await server.start()
            client = await SseClient.open(port)
            await client.read_frame()  # hello
            # A synchronous burst: the handler cannot pop between these
            # publishes, so all but one overflow the pending queue.
            for i in range(10):
                server.events.publish("job_progress", job_id="burst", done=i)
            saw_drop = evicted = False
            while True:
                frame = await client.read_frame(timeout=10)
                if frame is None:
                    break  # server closed the stream: eviction
                if frame["data"]:
                    event = json.loads(frame["data"])
                    if event.get("type") == "events_dropped":
                        saw_drop = True
                        assert event["where"] == "subscriber"
                        assert event["count"] == 9
                elif "evicted" in (frame.get("comment") or ""):
                    evicted = True
            assert saw_drop and evicted
            assert server.telemetry.counters["service.sse_evicted"] == 1
            assert server.telemetry.counters["service.events_dropped"] == 9
            # The bus saw the same loss.
            assert server.events.stats()["subscriber_dropped"] == 9
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_drain_tears_streams_down_cleanly(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            client = await SseClient.open(port)
            await client.read_frame()  # hello

            async def consume():
                frames = []
                while True:
                    frame = await client.read_frame(timeout=15)
                    if frame is None:
                        return frames
                    frames.append(frame)

            consumer = asyncio.create_task(consume())
            await asyncio.sleep(0.05)
            await server.stop()
            frames = await asyncio.wait_for(consumer, 15)
            # The drain wake delivered the draining notice before EOF.
            comments = [f.get("comment") or "" for f in frames]
            datas = [json.loads(f["data"]) for f in frames if f["data"]]
            assert any("draining" in c for c in comments) or any(
                d.get("type") == "server_draining" for d in datas
            )
            assert server.exit_code == 3
            await client.close()

        asyncio.run(scenario())


class TestMetricsEndpoint:
    def test_scrape_parses_as_prometheus_text(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            status, body, _ = await _raw_call(port, "POST", "/jobs", payload())
            job_id = body["id"]
            for _ in range(400):
                status, job, _ = await _raw_call(port, "GET", f"/jobs/{job_id}")
                if job["state"] == "done":
                    break
                await asyncio.sleep(0.02)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), STREAM_TIMEOUT)
            writer.close()
            head, _, text = raw.partition(b"\r\n\r\n")
            assert b"200 OK" in head.split(b"\r\n", 1)[0]
            assert PROM_CONTENT_TYPE.encode() in head
            families = parse_prometheus_text(text.decode("utf-8"))
            assert families["repro_service_completed_total"]["samples"][
                "repro_service_completed_total"
            ] == 1
            assert (
                families["repro_service_jobs"]["samples"][
                    'repro_service_jobs{state="done"}'
                ]
                == 1
            )
            assert "repro_service_events_published_total" in families
            assert "repro_service_queue_depth" in families
            await server.stop()

        asyncio.run(scenario())

    def test_readyz_flips_with_lifecycle(self, tmp_path):
        async def scenario():
            server = _server(tmp_path)
            port = await server.start()
            status, body, _ = await _raw_call(port, "GET", "/readyz")
            assert status == 200 and body["ready"] is True
            status, health, _ = await _raw_call(port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            await server.stop()

        asyncio.run(scenario())
