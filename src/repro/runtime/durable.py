"""Crash-safe durable artifact store for search checkpoints.

The checkpoint is the *only* recovery mechanism a CO-NEXPTIME-sized
bounded search has — one torn write or bit flip used to silently destroy
hours of work.  This module makes checkpoint persistence survive any
single failure:

* **atomic, fsync'd writes** — payload goes to ``path.tmp`` which is
  fsync'd, renamed over the destination with ``os.replace`` (atomic on
  POSIX), and the directory entry is fsync'd too, so a crash at *any*
  boundary leaves either the old file or the new one, never a torn mix;
* **integrity footer** — the checkpoint document rides inside a JSON
  envelope (schema ``repro.durable`` v1) carrying the CRC32 and SHA-256
  of the canonical payload bytes; silent corruption (bit rot, partial
  flush) is detected at load time instead of producing a wrong cursor.
  The payload is encoded once: the canonical bytes that are hashed are
  the bytes spliced into the (compact) envelope.  A document with a
  payload and a footer but a damaged schema tag is corrupt, not a bare
  legacy document;
* **generation rotation** — the last *K* verifiable checkpoints are kept
  (``path``, ``path.1`` .. ``path.K-1``); loading falls back to the
  newest generation that verifies, *quarantining* corrupt files with a
  ``.corrupt`` suffix (evidence, not deleted) and recording the recovery
  in telemetry;
* **retry with backoff + jitter** — transient I/O errors (EIO, ENOSPC,
  a failing fsync) are retried with exponential backoff and
  deterministic jitter before the write is declared failed; a failed
  *autosave* never kills the search (the checkpoint is a safety net, not
  a dependency);
* **injectable filesystem shim** — every primitive goes through a
  :class:`FileSystem` object, and a :class:`~repro.runtime.faults.
  FaultInjector` can deterministically fail, corrupt, or crash any
  single operation (see :class:`~repro.runtime.faults.IOFault`), which
  is what the crash-consistency matrix in ``tests/test_crash_matrix.py``
  drives;
* **inter-process advisory lock** — each write takes a non-blocking
  ``fcntl`` lock on ``path.lock`` for the duration of the rotation, so
  two processes sharing a checkpoint directory cannot interleave their
  rename sequences; a held lock raises :class:`CheckpointError` naming
  the holder's PID instead of corrupting state (off-POSIX the lock
  degrades to a no-op).  A long-lived writer can instead hold the lock
  from its first write until it closes (:meth:`DurableStore.hold_lock`);
* **bounded quarantine** — corrupt generations are renamed to unique
  ``*.corrupt`` names (evidence, never overwritten), but the store keeps
  at most ``generations`` of them per path: a persistently failing
  writer prunes its oldest evidence (logged) instead of filling the
  disk.

The store also persists arbitrary JSON *documents* (``save_document`` /
``load_document``) under the same envelope, rotation, lock, and
quarantine machinery, and keeps an append-only :class:`RecordLog` of
CRC-framed lines beside them (one write and one fsync per append,
through the same fault hooks and retry policy) — the service's job
journal (:mod:`repro.service.journal`) is a log plus a snapshot
document.

Telemetry (when a registry is attached): ``durable.writes``,
``durable.write_retries``, ``durable.recoveries``,
``durable.quarantined``, ``durable.corrupt_pruned``,
``durable.lock_conflicts``, ``durable.tmp_cleaned``,
``durable.autosave_failures`` counters and a ``checkpoint_write`` span
per persisted generation.
"""

from __future__ import annotations

import errno
import json
import os
import re
import time
import zlib
from hashlib import sha256
from random import Random
from typing import Any, Callable, Optional

try:  # POSIX only; the advisory lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro.runtime.checkpoint import (
    AnyCheckpoint,
    CheckpointError,
    CheckpointIntegrityError,
    checkpoint_from_json,
)

__all__ = [
    "CheckpointAutosave",
    "DurableStore",
    "ENVELOPE_SCHEMA",
    "ENVELOPE_VERSION",
    "FileSystem",
    "RecordLog",
    "frame_record",
    "scan_frames",
    "unwrap_envelope",
    "wrap_envelope",
]

ENVELOPE_SCHEMA = "repro.durable"
ENVELOPE_VERSION = 1

# OSError errnos treated as transient (worth a retry): media hiccups and
# a full disk that an operator may be clearing.  Everything else —
# EACCES, EISDIR, EROFS — is structural and fails fast.
_TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.ENOSPC, errno.EAGAIN, errno.EINTR})


# -- envelope -----------------------------------------------------------------


def _canonical_payload_bytes(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def wrap_envelope(payload: dict[str, Any]) -> bytes:
    """Serialize a checkpoint document into the durable envelope: the
    payload plus an integrity footer over its canonical bytes.

    The payload is encoded once, and those canonical bytes are spliced
    into the envelope as they are: the result is the compact JSON of
    the envelope with sorted keys, byte for byte."""
    body = _canonical_payload_bytes(payload)
    footer = json.dumps(
        {"crc32": zlib.crc32(body), "length": len(body), "sha256": sha256(body).hexdigest()},
        separators=(",", ":"),
    ).encode("ascii")
    return b"".join((
        b'{"integrity":', footer, b',"payload":', body,
        b',"schema":"%s","version":%d}\n' % (ENVELOPE_SCHEMA.encode("ascii"), ENVELOPE_VERSION),
    ))


def is_envelope(data: Any) -> bool:
    """Whether a parsed document is a durable envelope.  A document
    carrying both a payload and an integrity footer counts even when
    its schema tag is damaged: :func:`unwrap_envelope` then rejects it
    as corrupt instead of it passing for a bare legacy document."""
    return isinstance(data, dict) and (
        data.get("schema") == ENVELOPE_SCHEMA or ("payload" in data and "integrity" in data)
    )


def unwrap_envelope(data: dict[str, Any]) -> dict[str, Any]:
    """Verify a parsed envelope and return its payload document.

    Raises :class:`CheckpointIntegrityError` on any mismatch — wrong
    schema or version, missing footer, length/CRC32/SHA-256
    disagreement.  The CRC32 is checked first (cheap), the SHA-256 is
    authoritative.
    """
    if data.get("schema") != ENVELOPE_SCHEMA:
        raise CheckpointIntegrityError(
            f"durable envelope has schema {data.get('schema')!r}, expected "
            f"{ENVELOPE_SCHEMA!r} (corrupt envelope)"
        )
    if data.get("version") != ENVELOPE_VERSION:
        raise CheckpointIntegrityError(
            f"unsupported durable envelope version {data.get('version')!r} "
            f"(this build reads version {ENVELOPE_VERSION})"
        )
    payload = data.get("payload")
    footer = data.get("integrity")
    if not isinstance(payload, dict) or not isinstance(footer, dict):
        raise CheckpointIntegrityError("durable envelope is missing payload or integrity footer")
    body = _canonical_payload_bytes(payload)
    try:
        length = int(footer["length"])
        crc = int(footer["crc32"])
        digest = str(footer["sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointIntegrityError(f"malformed integrity footer: {exc}") from exc
    if length != len(body):
        raise CheckpointIntegrityError(
            f"integrity footer length mismatch ({length} != {len(body)})"
        )
    if crc != zlib.crc32(body):
        raise CheckpointIntegrityError("integrity footer CRC32 mismatch (corrupt checkpoint)")
    if digest != sha256(body).hexdigest():
        raise CheckpointIntegrityError("integrity footer SHA-256 mismatch (corrupt checkpoint)")
    return payload


# -- filesystem shim ----------------------------------------------------------


class FileSystem:
    """The primitives the durable store needs, as an injectable object.

    The default implementation is the real OS.  Tests substitute a
    different one (or, more commonly, leave this in place and let a
    :class:`FaultInjector` damage individual operations through the
    store's fault hooks, which sit *above* this shim).
    """

    def write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(data)

    def fsync_file(self, path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def open_append(self, path: str) -> Any:
        """An unbuffered binary handle that appends to ``path``
        (created if missing); the record log keeps it open."""
        return open(path, "ab", buffering=0)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> list[str]:
        return os.listdir(path)

    def mtime(self, path: str) -> float:
        return os.path.getmtime(path)

    def fsync_dir(self, path: str) -> None:
        """Flush the directory entry (the rename itself) to disk.  Best
        effort off-POSIX: directories that cannot be opened or fsync'd
        (Windows, some network filesystems) are skipped silently."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


# -- the store ----------------------------------------------------------------


class DurableStore:
    """Durable checkpoint persistence for one checkpoint path.

    ``path`` is the newest generation; rotated older generations live at
    ``path.1`` .. ``path.K-1``, the scratch file at ``path.tmp``, and
    quarantined corrupt files keep their name plus a ``.corrupt``
    suffix.  All methods raise :class:`CheckpointError` subclasses, never
    raw ``OSError``.
    """

    def __init__(
        self,
        path: str,
        *,
        generations: int = 2,
        fsync: bool = True,
        fs: Optional[FileSystem] = None,
        faults: Optional[Any] = None,
        retries: int = 3,
        backoff_base: float = 0.01,
        backoff_cap: float = 0.5,
        jitter_seed: Optional[int] = None,
        telemetry: Optional[Any] = None,
        tracer: Optional[Any] = None,
        sleep: Callable[[float], None] = time.sleep,
        locking: bool = True,
    ) -> None:
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        self.path = path
        self.generations = generations
        self.fsync = fsync
        self.fs = fs if fs is not None else FileSystem()
        self.faults = faults
        self.retries = retries
        self.locking = locking and fcntl is not None
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.telemetry = telemetry
        self.tracer = tracer
        self._sleep = sleep
        # Deterministic jitter: seeded from the path unless overridden,
        # so two runs of the same command back off identically.
        seed = jitter_seed if jitter_seed is not None else zlib.crc32(path.encode("utf-8"))
        self._rng = Random(seed)
        self.events: list[str] = []
        """Human-readable recovery/cleanup notes accumulated by load and
        write (the CLI prints them to stderr)."""
        self._lock_held = False
        self._held_lock: Optional[Any] = None

    # -- bookkeeping ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.count(name, n)

    def _note(self, message: str) -> None:
        self.events.append(message)

    # -- paths ---------------------------------------------------------------

    def generation_path(self, index: int) -> str:
        return self.path if index == 0 else f"{self.path}.{index}"

    @property
    def tmp_path(self) -> str:
        return f"{self.path}.tmp"

    @property
    def lock_path(self) -> str:
        return f"{self.path}.lock"

    def exists(self) -> bool:
        """Whether *any* generation is present (a crash between rotation
        and the final rename can leave only ``path.1``)."""
        return any(
            self.fs.exists(self.generation_path(i)) for i in range(self.generations)
        )

    # -- faulty primitives ---------------------------------------------------

    def _fault(self, op: str):
        if self.faults is None:
            return None
        hook = getattr(self.faults, "io_fault", None)
        return hook(op) if hook is not None else None

    def _apply_write(
        self, path: str, data: bytes, write: Optional[Callable[[str, bytes], None]] = None
    ) -> None:
        """One ``write`` primitive through the fault hook; ``write``
        defaults to replacing the file (the record log passes its
        append)."""
        from repro.runtime.faults import IO_CRASH_EXIT

        write = write if write is not None else self.fs.write_bytes
        fault = self._fault("write")
        if fault is None:
            write(path, data)
            return
        if fault.mode == "crash":
            os._exit(IO_CRASH_EXIT)
        if fault.mode in ("torn", "torn-crash"):
            write(path, data[: max(1, len(data) // 2)])
            if fault.mode == "torn-crash":
                os._exit(IO_CRASH_EXIT)
            raise OSError(errno.EIO, f"injected torn write on {path}")
        if fault.mode == "enospc":
            raise OSError(errno.ENOSPC, f"injected ENOSPC on {path}")
        if fault.mode == "eio":
            raise OSError(errno.EIO, f"injected EIO on {path}")
        if fault.mode == "bitflip":
            # Deterministic silent corruption: flip one bit at a position
            # derived from the content, write the full buffer, report
            # success.  Only the integrity footer can catch this.
            position = zlib.crc32(data) % (len(data) * 8)
            damaged = bytearray(data)
            damaged[position // 8] ^= 1 << (position % 8)
            write(path, bytes(damaged))
            return
        # "fsync" mode on a write op: not meaningful, treat as EIO.
        raise OSError(errno.EIO, f"injected {fault.mode} on {path}")

    def _apply_simple(self, op: str, action: Callable[[], None], target: str) -> None:
        from repro.runtime.faults import IO_CRASH_EXIT

        fault = self._fault(op)
        if fault is not None:
            if fault.mode in ("crash", "torn-crash"):
                os._exit(IO_CRASH_EXIT)
            if fault.mode == "enospc":
                raise OSError(errno.ENOSPC, f"injected ENOSPC on {op} {target}")
            raise OSError(errno.EIO, f"injected {fault.mode} failure on {op} {target}")
        action()

    # -- inter-process advisory lock -----------------------------------------

    def _acquire_lock(self) -> Optional[int]:
        """Take the non-blocking advisory lock guarding generation
        rotation.  Returns the lock fd (``None`` when locking is off or
        unavailable); raises :class:`CheckpointError` naming the holder's
        PID when another process holds it — interleaved rotation would
        corrupt the generation chain, so contention must fail loudly."""
        if not self.locking:
            return None
        try:
            fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            # Cannot even create the lock file (read-only dir, ENOSPC):
            # proceed unlocked — the lock is protection, not a dependency.
            self._note(f"could not create lock file {self.lock_path}: {exc}")
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            holder = "unknown"
            try:
                raw = os.read(fd, 64).strip()
                if raw:
                    holder = raw.decode("ascii", "replace")
            except OSError:
                pass
            os.close(fd)
            self._count("durable.lock_conflicts")
            raise CheckpointError(
                f"checkpoint {self.path!r} is locked by process {holder} "
                f"(advisory lock {self.lock_path}); two runs must not share "
                "a checkpoint path"
            ) from None
        try:
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        except OSError:
            pass  # best-effort: the PID in the file is diagnostics only
        return fd

    def _release_lock(self, fd: Optional[int]) -> None:
        if fd is None:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            os.close(fd)

    def hold_lock(self) -> None:
        """Take the advisory lock now and keep it until
        :meth:`release_lock`; writes in between reuse it instead of
        locking each time.  The held descriptor is a file object, so a
        store dropped without ``release_lock`` still unlocks when it is
        collected."""
        if self._lock_held:
            return
        fd = self._acquire_lock()
        self._held_lock = None if fd is None else os.fdopen(fd, "rb", buffering=0)
        self._lock_held = True

    def release_lock(self) -> None:
        """Drop a lock taken by :meth:`hold_lock` (no-op otherwise)."""
        handle, self._held_lock = self._held_lock, None
        self._lock_held = False
        if handle is None:
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            handle.close()

    # -- write ---------------------------------------------------------------

    def save_checkpoint(self, checkpoint: AnyCheckpoint) -> None:
        """Persist one checkpoint generation durably (envelope + atomic
        rename + rotation), retrying transient I/O errors."""
        self.save_document(checkpoint.to_dict())

    def save_document(self, payload: dict[str, Any]) -> int:
        """Persist one generation of a JSON document; returns the bytes
        written."""
        data = wrap_envelope(payload)
        t0 = time.perf_counter()
        lock_fd = None if self._lock_held else self._acquire_lock()
        try:
            self.retrying(lambda: self._write_once(data), f"checkpoint {self.path!r}")
        finally:
            self._release_lock(lock_fd)
        self._count("durable.writes")
        self._count("durable.bytes_written", len(data))
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.tracer.emit(
                "checkpoint_write",
                t0,
                time.perf_counter() - t0,
                bytes=len(data),
                fsync=self.fsync,
                generations=self.generations,
            )
        return len(data)

    def retrying(self, attempt: Callable[[], None], what: str) -> None:
        """Run one write ``attempt``, retrying transient I/O errors with
        exponential backoff and deterministic jitter.  Raises
        :class:`CheckpointError` naming ``what`` when an error is
        structural or the retries run out."""
        last_error: Optional[OSError] = None
        for n in range(self.retries + 1):
            if n:
                self._count("durable.write_retries")
                delay = min(self.backoff_cap, self.backoff_base * (2 ** (n - 1)))
                self._sleep(delay * (1.0 + self._rng.random()))
            try:
                attempt()
                return
            except OSError as exc:
                last_error = exc
                if exc.errno not in _TRANSIENT_ERRNOS:
                    raise CheckpointError(f"cannot write {what}: {exc}") from exc
        raise CheckpointError(
            f"cannot write {what} after {self.retries + 1} attempts: {last_error}"
        ) from last_error

    def _write_once(self, data: bytes) -> None:
        tmp = self.tmp_path
        self._apply_write(tmp, data)
        if self.fsync:
            self._apply_simple("fsync", lambda: self.fs.fsync_file(tmp), tmp)
        # Rotate oldest-first so every intermediate state still holds a
        # verifiable generation under some name; each rename is atomic.
        for i in range(self.generations - 1, 0, -1):
            older = self.generation_path(i - 1)
            if self.fs.exists(older):
                newer = self.generation_path(i)
                self._apply_simple(
                    "replace", lambda o=older, n=newer: self.fs.replace(o, n), older
                )
        self._apply_simple("replace", lambda: self.fs.replace(tmp, self.path), tmp)
        if self.fsync:
            parent = os.path.dirname(os.path.abspath(self.path)) or "."
            self._apply_simple("fsyncdir", lambda: self.fs.fsync_dir(parent), parent)

    # -- load ----------------------------------------------------------------

    def try_load(self) -> Optional[AnyCheckpoint]:
        """Like :meth:`load_checkpoint`, but ``None`` when no generation
        exists at all (a fresh run).  Still raises
        :class:`CheckpointError` when files exist and none verifies."""
        self.clean_stale_tmp()
        if not self.exists():
            return None
        return self.load_checkpoint()

    def load_checkpoint(self) -> AnyCheckpoint:
        """Load the newest verifiable generation as a checkpoint.

        Corrupt generations are quarantined (renamed to ``*.corrupt``)
        and the next one is tried; falling back past the newest existing
        file counts as a *recovery* in telemetry.  Raises
        :class:`CheckpointError` (with every path and its failure) when
        nothing verifies.
        """
        return self._load(self._verify)

    def try_load_document(self) -> Optional[dict[str, Any]]:
        """Like :meth:`load_document`, but ``None`` when no generation
        exists at all."""
        self.clean_stale_tmp()
        if not self.exists():
            return None
        return self.load_document()

    def load_document(self) -> dict[str, Any]:
        """Load the newest verifiable generation as a raw JSON document
        (the payload of the durable envelope; bare legacy documents load
        as-is).  Same rotation/quarantine/recovery semantics as
        :meth:`load_checkpoint` — this is how non-checkpoint artifacts
        (the service's job journal) share the store."""
        return self._load(self._verify_document)

    def _load(self, verify: Callable[[str, bytes], Any]) -> Any:
        self.clean_stale_tmp()
        failures: list[str] = []
        newest_seen = False
        for index in range(self.generations):
            gen = self.generation_path(index)
            try:
                raw = self.fs.read_bytes(gen)
            except FileNotFoundError:
                continue
            except OSError as exc:
                failures.append(f"{gen}: {exc}")
                newest_seen = True
                continue
            try:
                loaded = verify(gen, raw)
            except CheckpointError as exc:
                failures.append(f"{gen}: {exc}")
                self._quarantine(gen)
                newest_seen = True
                continue
            if newest_seen:
                # A newer generation existed but did not verify: this
                # load *recovered* from an older one.
                self._count("durable.recoveries")
                self._note(
                    f"recovered from generation {index} ({gen}) — newer "
                    "generation(s) were corrupt or unreadable"
                )
            return loaded
        if failures:
            raise CheckpointError(
                f"no verifiable checkpoint generation at {self.path!r}: "
                + "; ".join(failures)
            )
        raise CheckpointError(f"cannot read checkpoint {self.path!r}: no such file")

    def _decode(self, raw: bytes) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointIntegrityError(f"checkpoint is not valid UTF-8: {exc}") from exc

    def _verify(self, path: str, raw: bytes) -> AnyCheckpoint:
        return checkpoint_from_json(self._decode(raw))

    def _verify_document(self, path: str, raw: bytes) -> dict[str, Any]:
        try:
            data = json.loads(self._decode(raw))
        except json.JSONDecodeError as exc:
            raise CheckpointIntegrityError(f"document is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CheckpointIntegrityError(
                f"document must be an object, got {type(data).__name__}"
            )
        if is_envelope(data):
            return unwrap_envelope(data)
        return data

    def _quarantine(self, path: str) -> None:
        # Unique evidence name: never overwrite an earlier quarantine of
        # the same generation file.
        target = f"{path}.corrupt"
        suffix = 0
        while self.fs.exists(target):
            suffix += 1
            target = f"{path}.corrupt.{suffix}"
        try:
            self.fs.replace(path, target)
        except OSError:
            return  # quarantine is best-effort; the fall-back still works
        self._count("durable.quarantined")
        self._note(f"quarantined corrupt checkpoint {path} -> {target}")
        self._prune_corrupt()

    def _corrupt_files(self) -> list[str]:
        """Every quarantined evidence file belonging to this store's
        path, oldest first (by mtime, then name, for determinism)."""
        directory = os.path.dirname(self.path) or "."
        prefix = os.path.basename(self.path)
        try:
            names = self.fs.listdir(directory)
        except OSError:
            return []
        found = [
            os.path.join(directory, name)
            for name in names
            if name.startswith(prefix) and ".corrupt" in name
        ]

        def age_key(path: str):
            try:
                return (self.fs.mtime(path), path)
            except OSError:
                return (0.0, path)

        return sorted(found, key=age_key)

    def _prune_corrupt(self) -> None:
        """Cap quarantine evidence at the configured generation count so
        a persistently failing writer cannot fill the disk; oldest files
        go first, and every pruning is logged."""
        corrupt = self._corrupt_files()
        excess = len(corrupt) - self.generations
        for path in corrupt[:max(0, excess)]:
            try:
                self.fs.remove(path)
            except OSError as exc:
                self._note(f"could not prune quarantined file {path}: {exc}")
                continue
            self._count("durable.corrupt_pruned")
            self._note(
                f"pruned quarantined file {path} (cap: {self.generations} "
                "corrupt files per checkpoint path)"
            )

    # -- hygiene -------------------------------------------------------------

    def clean_stale_tmp(self) -> int:
        """Remove scratch files a crashed run left behind (``path.tmp``).
        Returns how many were cleaned; failures are reported, not
        raised."""
        cleaned = 0
        tmp = self.tmp_path
        if self.fs.exists(tmp):
            try:
                self._apply_simple("remove", lambda: self.fs.remove(tmp), tmp)
                cleaned += 1
                self._note(f"removed stale checkpoint scratch file {tmp}")
            except OSError as exc:
                self._note(f"could not remove stale scratch file {tmp}: {exc}")
        if cleaned:
            self._count("durable.tmp_cleaned", cleaned)
        return cleaned

    def clear(self) -> None:
        """Remove every generation and the scratch file (a decisive
        verdict spends the checkpoint).  Quarantined ``*.corrupt`` files
        are kept — they are evidence; the advisory lock file is not, so
        a cleared path leaves no debris behind."""
        for index in range(self.generations):
            gen = self.generation_path(index)
            if self.fs.exists(gen):
                try:
                    self._apply_simple("remove", lambda g=gen: self.fs.remove(g), gen)
                except OSError as exc:
                    self._note(f"could not remove spent checkpoint {gen}: {exc}")
        if self.locking and self.fs.exists(self.lock_path):
            try:
                self.fs.remove(self.lock_path)
            except OSError as exc:
                self._note(f"could not remove lock file {self.lock_path}: {exc}")
        self.clean_stale_tmp()


# -- append-only record log ---------------------------------------------------

_FRAME_HEAD = re.compile(rb"(\d{1,10}) ([0-9a-f]{8}) ")


def frame_record(body: bytes) -> bytes:
    """One log line: ``<length> <crc32 hex> <body>\\n``.  ``body`` must
    not contain a newline (compact JSON never does)."""
    return b"%d %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


def scan_frames(data: bytes) -> list[tuple[Optional[bytes], int, int]]:
    """Split log bytes into ``(body, start, end)`` triples in order.

    ``body`` is ``None`` for a damaged stretch: a line whose header,
    length or CRC32 does not check, which runs to the next newline (or
    to the end of the data).  The length in the header lets a whole
    frame survive a damaged terminator byte, and resynchronising on the
    next newline keeps one bad line from taking its successor with it.
    """
    out: list[tuple[Optional[bytes], int, int]] = []
    pos, size = 0, len(data)
    while pos < size:
        head = _FRAME_HEAD.match(data, pos)
        if head is not None:
            start = head.end()
            stop = start + int(head.group(1))
            if stop < size and zlib.crc32(data[start:stop]) == int(head.group(2), 16):
                out.append((data[start:stop], pos, stop + 1))
                pos = stop + 1
                continue
        newline = data.find(b"\n", pos)
        end = size if newline < 0 else newline + 1
        out.append((None, pos, end))
        pos = end
    return out


class RecordLog:
    """An append-only, CRC-framed record log beside a store's snapshot.

    ``path`` is the live segment; :meth:`rotate` retires it to
    ``path.1`` (replacing the older one) when the owner has folded it
    into a new snapshot.  One :meth:`append` is one write and one fsync,
    both through the store's fault hooks and retry policy.  A failed
    attempt truncates the segment back to its last good length before
    the next one, so a torn line never swallows the line after it.
    """

    def __init__(self, store: DurableStore, path: str) -> None:
        self.store = store
        self.path = path
        self.size: Optional[int] = None
        """Bytes of whole frames in the live segment (``None`` until
        read or opened)."""
        self._handle: Optional[Any] = None
        self._dirty = False

    def segment_path(self, index: int) -> str:
        return self.path if index == 0 else f"{self.path}.{index}"

    def read(self, index: int) -> bytes:
        """The raw bytes of segment ``index`` (empty when missing)."""
        try:
            return self.store.fs.read_bytes(self.segment_path(index))
        except FileNotFoundError:
            return b""
        except OSError as exc:
            raise CheckpointError(f"cannot read log {self.segment_path(index)!r}: {exc}") from exc

    def append(self, bodies: list[bytes]) -> int:
        """Append one framed line per body, durably; returns the bytes
        appended.  Raises :class:`CheckpointError` when the write cannot
        be made to stick."""
        data = b"".join(frame_record(body) for body in bodies)
        self.store.retrying(lambda: self._append_once(data), f"log {self.path!r}")
        assert self.size is not None
        self.size += len(data)
        return len(data)

    def _open(self) -> Any:
        if self._handle is None:
            handle = self.store.fs.open_append(self.path)
            if self.size is None:
                frames = scan_frames(self.read(0))
                good = [end for body, _, end in frames if body is not None]
                self.size = good[-1] if good else 0
            # Bytes past the last whole frame are a torn tail left by a
            # crash: cut them before anything lands behind them.
            self._dirty = os.fstat(handle.fileno()).st_size != self.size
            self._handle = handle
        return self._handle

    def _append_once(self, data: bytes) -> None:
        handle = self._open()
        if self._dirty:
            handle.truncate(self.size)
        self._dirty = True

        def write_all(_path: str, chunk: bytes) -> None:
            view = memoryview(chunk)
            while view:
                view = view[handle.write(view):]

        self.store._apply_write(self.path, data, write_all)
        if self.store.fsync:
            self.store._apply_simple("fsync", lambda: os.fsync(handle.fileno()), self.path)
        self._dirty = False

    def rotate(self) -> None:
        """Retire the live segment to ``path.1`` and start an empty one."""
        self.close()
        self.size = None  # rescan on the next open if the rename fails
        fs = self.store.fs
        if fs.exists(self.path):
            older = self.segment_path(1)
            try:
                self.store._apply_simple("replace", lambda: fs.replace(self.path, older), self.path)
                if self.store.fsync:
                    parent = os.path.dirname(os.path.abspath(self.path)) or "."
                    self.store._apply_simple("fsyncdir", lambda: fs.fsync_dir(parent), parent)
            except OSError as exc:
                raise CheckpointError(f"cannot rotate log {self.path!r}: {exc}") from exc
        self.size = 0

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


# -- periodic autosave --------------------------------------------------------


class CheckpointAutosave:
    """Periodic checkpoint persistence hooked into the engine/supervisor.

    The sequential engine calls :meth:`due` with its instance counter
    (every ``every_instances`` evaluated instances trigger a save); the
    supervisor uses the time-based :meth:`due_now` between event-loop
    ticks.  A failed save is counted and remembered but never interrupts
    the search — durability is a safety net, not a dependency.
    """

    __slots__ = (
        "store",
        "every_instances",
        "min_interval_s",
        "saves",
        "failures",
        "last_error",
        "_next_at",
        "_last_t",
    )

    def __init__(
        self,
        store: DurableStore,
        every_instances: int = 1000,
        min_interval_s: float = 0.5,
    ) -> None:
        if every_instances < 1:
            raise ValueError(f"every_instances must be >= 1, got {every_instances}")
        self.store = store
        self.every_instances = every_instances
        self.min_interval_s = min_interval_s
        self.saves = 0
        self.failures = 0
        self.last_error: Optional[CheckpointError] = None
        self._next_at = every_instances
        self._last_t = time.monotonic()

    def due(self, instances_done: int) -> bool:
        return instances_done >= self._next_at

    def due_now(self) -> bool:
        return time.monotonic() - self._last_t >= self.min_interval_s

    def save(self, checkpoint: AnyCheckpoint, instances_done: int = 0) -> bool:
        """Persist one autosave generation; returns whether it stuck."""
        self._next_at = max(self._next_at, instances_done) + self.every_instances
        self._last_t = time.monotonic()
        try:
            self.store.save_checkpoint(checkpoint)
        except CheckpointError as exc:
            self.failures += 1
            self.last_error = exc
            if self.store.telemetry is not None:
                self.store.telemetry.count("durable.autosave_failures")
            return False
        self.saves += 1
        return True
