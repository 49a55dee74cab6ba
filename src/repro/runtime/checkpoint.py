"""Search checkpoints: resumable cursors into the counterexample search.

The bounded search (:func:`repro.typecheck.search.find_counterexample`)
enumerates a *deterministic* sequence: label trees in increasing size
(:func:`repro.dtd.generate.enumerate_instances` is exhaustive and
duplicate-free in a fixed order), and for each label tree a fixed sequence
of semantically distinct value assignments.  A checkpoint is therefore
just a cursor into that sequence —

* ``labels_consumed`` — raw label trees already drawn from the enumerator
  (including ones skipped by sibling-order dedupe), and
* ``values_done`` — valued candidates already evaluated for the label
  tree *at* the cursor (0 when interruption fell on a tree boundary) —

plus a snapshot of the search statistics.  Resuming starts the
enumeration at the cursor — it seeks, building no earlier tree; only
sibling-order dedupe replays the earlier trees, *without evaluating
anything*, to rebuild its set of shapes already seen — then continues
exactly where the interrupted run stopped, so an interrupted-then-resumed search performs the same
evaluations — and reaches the same verdict and the same
``valued_trees_checked`` total — as an uninterrupted one.

A checkpoint is only meaningful for the exact search it was taken from,
so it carries a fingerprint of the query, both types, the budget, and the
algorithm; :func:`repro.typecheck.search.find_counterexample` refuses a
mismatched checkpoint with :class:`CheckpointMismatchError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Optional, Union

__all__ = [
    "CheckpointError",
    "CheckpointIntegrityError",
    "CheckpointMismatchError",
    "MultiShardCheckpoint",
    "SearchCheckpoint",
    "ShardCursor",
    "load_checkpoint",
    "checkpoint_from_json",
    "search_fingerprint",
]

CHECKPOINT_VERSION = 1
MULTI_CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Malformed or unreadable checkpoint document."""


class CheckpointIntegrityError(CheckpointError):
    """The checkpoint file is corrupt: its durable-envelope integrity
    footer (length/CRC32/SHA-256 over the payload bytes) does not match,
    or the bytes are not even valid UTF-8."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different search (query, types, budget
    or algorithm differ)."""


def search_fingerprint(
    query: Any,
    tau1: Any,
    output_type: Any,
    budget: Any,
    algorithm: str,
    vacuous_output_ok: bool,
) -> str:
    """Stable digest identifying one search configuration.

    Built from ``repr`` of the plain-data query/DTD objects (deterministic
    across processes: dataclasses of strings and ints) plus every budget
    field; a validator callable contributes its qualified name.
    """
    if callable(output_type) and not hasattr(output_type, "rules"):
        out_part = f"callable:{getattr(output_type, '__qualname__', repr(output_type))}"
    else:
        out_part = repr(output_type)
    parts = [
        f"v{CHECKPOINT_VERSION}",
        repr(query),
        repr(tau1),
        out_part,
        repr(budget),
        algorithm,
        str(vacuous_output_ok),
    ]
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()[:32]


@dataclass(slots=True)
class SearchCheckpoint:
    """Resumable state of one interrupted counterexample search."""

    fingerprint: str
    algorithm: str
    labels_consumed: int
    values_done: int
    stats: dict[str, Any] = field(default_factory=dict)
    reason: str = ""
    version: int = CHECKPOINT_VERSION

    # -- serde ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SearchCheckpoint":
        if not isinstance(data, dict):
            raise CheckpointError(f"checkpoint must be an object, got {type(data).__name__}")
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        try:
            return cls(
                fingerprint=str(data["fingerprint"]),
                algorithm=str(data["algorithm"]),
                labels_consumed=int(data["labels_consumed"]),
                values_done=int(data["values_done"]),
                stats=dict(data.get("stats", {})),
                reason=str(data.get("reason", "")),
                version=CHECKPOINT_VERSION,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- files ---------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write one durable generation atomically (envelope + tmp +
        rename; no fsync — use a :class:`~repro.runtime.durable.
        DurableStore` directly for the fully crash-safe path)."""
        _plain_store(path).save_checkpoint(self)

    @classmethod
    def load(cls, path: str) -> "SearchCheckpoint":
        checkpoint = load_checkpoint(path)
        if not isinstance(checkpoint, cls):
            raise CheckpointError(
                f"checkpoint {path!r} is a {type(checkpoint).__name__}, "
                f"not a {cls.__name__}"
            )
        return checkpoint


def _plain_store(path: str):
    """A minimal durable store for the convenience ``save`` methods:
    single generation, no fsync (matching the historical atomic-rename
    behavior, now with the integrity envelope)."""
    from repro.runtime.durable import DurableStore  # deferred: durable imports us

    return DurableStore(path, generations=1, fsync=False)


@dataclass(slots=True)
class ShardCursor:
    """One shard's position inside a :class:`MultiShardCheckpoint`.

    ``start_label``/``stop_label`` delimit the shard's cursor range in
    the deterministic label-tree stream; ``instance_base`` is the global
    index of the shard's first valued instance (so per-shard counters
    merge back into the sequential accounting exactly).  For a completed
    shard (``done``) only ``stats`` matters; for an incomplete one the
    ``labels_consumed``/``values_done`` cursor resumes it — a cursor at
    ``(start_label, 0)`` with empty stats means "not started".

    ``in_flight`` marks a range that was dispatched to a pool worker but
    unfinished when the checkpoint was cut (an autosave mid-run, a
    supervisor crash): its partial work was never reported, so resume
    restarts it from the recorded cursor — exactness is unaffected, the
    flag is diagnostic ("this range was mid-steal").  The field is an
    optional extension of the version-2 document: old readers built from
    explicit keys ignore it, and old documents without it load as
    ``False``.
    """

    start_label: int
    stop_label: int
    instance_base: int
    done: bool = False
    labels_consumed: int = 0
    values_done: int = 0
    stats: dict[str, Any] = field(default_factory=dict)
    in_flight: bool = False

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardCursor":
        if not isinstance(data, dict):
            raise CheckpointError(f"shard cursor must be an object, got {type(data).__name__}")
        try:
            return cls(
                start_label=int(data["start_label"]),
                stop_label=int(data["stop_label"]),
                instance_base=int(data["instance_base"]),
                done=bool(data.get("done", False)),
                labels_consumed=int(data.get("labels_consumed", 0)),
                values_done=int(data.get("values_done", 0)),
                stats=dict(data.get("stats", {})),
                in_flight=bool(data.get("in_flight", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed shard cursor: {exc}") from exc


@dataclass(slots=True)
class MultiShardCheckpoint:
    """Resumable state of an interrupted *sharded* search (version 2).

    The supervisor merges every worker's per-shard checkpoint into one
    document: completed shards carry their final statistics, incomplete
    ones a resumable cursor.  ``total_labels``/``total_instances``/
    ``capped`` snapshot the deterministic shard plan so a resumed run can
    verify it reconstructed the same partition.  The version-1 loader
    rejects these documents; use :func:`load_checkpoint` to accept both.
    """

    fingerprint: str
    algorithm: str
    total_labels: int
    total_instances: int
    capped: bool
    shards: list[ShardCursor] = field(default_factory=list)
    reason: str = ""
    elapsed_seconds: float = 0.0
    """Wall clock already spent by the interrupted run(s); a resumed run
    adds its own on top so ``SearchStats.elapsed_seconds`` stays honest.
    Optional in the document (older version-2 checkpoints load as 0)."""
    version: int = MULTI_CHECKPOINT_VERSION

    # -- serde ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["kind"] = "sharded-search"
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MultiShardCheckpoint":
        if not isinstance(data, dict):
            raise CheckpointError(f"checkpoint must be an object, got {type(data).__name__}")
        version = data.get("version")
        if version != MULTI_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported sharded checkpoint version {version!r} "
                f"(this build reads version {MULTI_CHECKPOINT_VERSION})"
            )
        try:
            shards = [ShardCursor.from_dict(s) for s in data["shards"]]
            return cls(
                fingerprint=str(data["fingerprint"]),
                algorithm=str(data["algorithm"]),
                total_labels=int(data["total_labels"]),
                total_instances=int(data["total_instances"]),
                capped=bool(data["capped"]),
                shards=shards,
                reason=str(data.get("reason", "")),
                elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
                version=MULTI_CHECKPOINT_VERSION,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed sharded checkpoint: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "MultiShardCheckpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- files ---------------------------------------------------------------

    def save(self, path: str) -> None:
        _plain_store(path).save_checkpoint(self)

    @classmethod
    def load(cls, path: str) -> "MultiShardCheckpoint":
        checkpoint = load_checkpoint(path)
        if not isinstance(checkpoint, cls):
            raise CheckpointError(
                f"checkpoint {path!r} is a {type(checkpoint).__name__}, "
                f"not a {cls.__name__}"
            )
        return checkpoint


AnyCheckpoint = Union[SearchCheckpoint, MultiShardCheckpoint]


def checkpoint_from_json(text: str) -> AnyCheckpoint:
    """Version-dispatching loader: version 1 documents revive as
    :class:`SearchCheckpoint`, version 2 as :class:`MultiShardCheckpoint`
    (backward compatible — old checkpoints keep working).  Documents
    wrapped in the durable integrity envelope (schema ``repro.durable``,
    see :mod:`repro.runtime.durable`) are verified and unwrapped first;
    bare legacy documents still load."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint must be an object, got {type(data).__name__}")
    from repro.runtime.durable import is_envelope, unwrap_envelope  # deferred: cycle

    if is_envelope(data):
        data = unwrap_envelope(data)
    version = data.get("version")
    if version == CHECKPOINT_VERSION:
        return SearchCheckpoint.from_dict(data)
    if version == MULTI_CHECKPOINT_VERSION:
        return MultiShardCheckpoint.from_dict(data)
    raise CheckpointError(
        f"unsupported checkpoint version {version!r} (this build reads "
        f"versions {CHECKPOINT_VERSION} and {MULTI_CHECKPOINT_VERSION})"
    )


def load_checkpoint(path: str) -> AnyCheckpoint:
    """Read a checkpoint file of either version (see
    :func:`checkpoint_from_json`).

    Every failure mode — the file is missing, unreadable (permission
    denied, the path is a directory), not UTF-8, not JSON, corrupt, or
    structurally invalid — surfaces as a :class:`CheckpointError` with
    the path in the message, never a raw ``OSError`` traceback.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointIntegrityError(
            f"checkpoint {path!r} is not valid UTF-8: {exc}"
        ) from exc
    try:
        return checkpoint_from_json(text)
    except CheckpointError as exc:
        if path in str(exc):
            raise
        raise type(exc)(f"checkpoint {path!r}: {exc}") from exc
