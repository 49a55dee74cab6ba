"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``validate``
    Validate a document (term syntax) against a DTD (rule-list syntax)::

        python -m repro validate --dtd rules.dtd --doc "a(b, c(d), e)"

``instances``
    Enumerate instances of a DTD up to a size::

        python -m repro instances --dtd rules.dtd --max-size 6

``bounds``
    Report the symbolic counterexample bounds for a DTD pair (using a
    trivial probe query, mainly to show the Thm 3.1 / Cor 4.1 gap)::

        python -m repro bounds --input-dtd in.dtd --output-dtd out.dtd --unordered-output

``typecheck``
    Typecheck a query (JSON, see :mod:`repro.ql.serde`) against an
    input/output DTD pair::

        python -m repro typecheck --query q.json --input-dtd in.dtd \\
            --output-dtd out.dtd --unordered-output --max-size 6

    Long runs are interruptible and resumable: ``--deadline SECONDS``
    stops the search gracefully (verdict ``interrupted``, exit code 3)
    and ``--checkpoint PATH`` persists the search cursor — rerunning the
    same command with the same ``--checkpoint`` resumes exactly where the
    previous invocation stopped::

        python -m repro typecheck ... --deadline 2 --checkpoint run.ckpt
        # ... interrupted: deadline expired; checkpoint written
        python -m repro typecheck ... --deadline 2 --checkpoint run.ckpt
        # resumes; repeats until a decisive verdict or budget exhaustion

    ``--workers N`` shards the search over N worker processes under the
    fault-tolerant supervisor (:mod:`repro.runtime.supervisor`): crashed
    or hung workers cost only their shard, and the verdict and statistics
    are identical to a sequential run.  Interrupting a parallel run
    writes a multi-shard checkpoint to the same ``--checkpoint`` file;
    both parallel and sequential reruns resume it exactly.

    Checkpoints are written through the crash-safe durable store
    (:mod:`repro.runtime.durable`): fsync'd atomic writes (``--fsync``,
    default on), an integrity footer, rotated generations
    (``--checkpoint-generations``) with automatic fall-back to the newest
    verifiable one on resume, and periodic autosave
    (``--checkpoint-interval``).  ``SIGTERM``/``SIGINT`` stop the search
    at the next instance boundary, flush a final checkpoint, and exit 3 —
    ``kill <pid>`` means "pause and persist", not "lose the run".

    Observability (none of it changes verdicts or statistics):
    ``--trace FILE`` appends nested span records (schema
    ``repro.obs.trace`` v5) as JSON lines; ``--metrics-out FILE`` writes
    the merged counter/histogram registry as one JSON document;
    ``--progress`` paints a throttled live line (instances/sec, cache hit
    rate, ETA) on stderr.

``serve``
    Run the resilient typechecking job server (:mod:`repro.service`)::

        python -m repro serve --data-dir ./service-data --port 8642

    Jobs are submitted as JSON (``POST /jobs``), run preemptively
    time-sliced, and survive kills: the job table is a crash-safe
    journal, running jobs checkpoint continuously, and restarting with
    the same ``--data-dir`` resumes every interrupted job to the exact
    verdict an uninterrupted run would report.  Admission control sheds
    load (429 + Retry-After) instead of melting down; ``SIGTERM`` drains
    gracefully (checkpoint, flush, exit 3); a second signal force-exits.

    The server is observable live: ``GET /metrics`` serves the counter
    registry in Prometheus text format, ``GET /events`` (and
    ``GET /jobs/{id}/events``) stream every job state transition and
    progress tick as Server-Sent Events, and ``GET /readyz`` /
    ``GET /healthz`` split readiness from liveness.

``top``
    Watch a running server live (SSE + /metrics, no polling of job
    state)::

        python -m repro top --url http://127.0.0.1:8642

``trace``
    Inspect a ``--trace`` file after the fact::

        python -m repro trace summarize run.trace --top 5
        python -m repro trace validate run.trace

DTD files use the paper's rule syntax (see :mod:`repro.dtd.parser`);
``--dtd``/``--input-dtd``/``--output-dtd`` accept either a file path or an
inline rule string.

Exit codes: 0 — done (no violation); 1 — ``FAILS`` (counterexample
found) or invalid document; 3 — interrupted by deadline/cancellation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.dtd import DTD, enumerate_instances, parse_dtd
from repro.runtime import (
    CheckpointError,
    FaultInjector,
    FaultPlan,
    IOFault,
    OperationInterrupted,
    RuntimeControl,
    WorkerKill,
)
from repro.trees import parse_tree, to_term, to_xml

EXIT_USAGE = 2
EXIT_INTERRUPTED = 3


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


# argparse reports bad values as "invalid <type.__name__> value".
_nonneg_float.__name__ = "non-negative number"


def _pos_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


_pos_float.__name__ = "positive number"


def _load_dtd(spec: str, unordered: bool = False, root: Optional[str] = None) -> DTD:
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = spec
    return parse_dtd(text, root=root, unordered=unordered)


def _cmd_validate(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd, unordered=args.unordered, root=args.root)
    doc = parse_tree(args.doc)
    result = dtd.validate(doc)
    if result.ok:
        print(f"VALID: {to_term(doc)}")
        return 0
    print(f"INVALID: {result.error}")
    return 1


def _cmd_instances(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd, unordered=args.unordered, root=args.root)
    control = _control_from_args(args)
    count = 0
    try:
        for tree in enumerate_instances(dtd, args.max_size, limit=args.limit, control=control):
            print(to_xml(tree) if args.xml else to_term(tree))
            count += 1
    except OperationInterrupted as stop:
        print(
            f"-- interrupted after {count} instance(s): {stop.reason}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    print(f"-- {count} instance(s) of size <= {args.max_size}", file=sys.stderr)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.ql.ast import ConstructNode, Edge, Query, Where
    from repro.typecheck.bounds import cor41_bound, thm31_bound

    tau1 = _load_dtd(args.input_dtd, unordered=args.unordered_input)
    tau2 = _load_dtd(args.output_dtd, unordered=args.unordered_output)
    probe_tag = sorted(tau1.alphabet - {tau1.root})
    if not probe_tag:
        print("input DTD has a single symbol; nothing to probe", file=sys.stderr)
        return 1
    query = Query(
        where=Where.of(tau1.root, [Edge.of(None, "X", probe_tag[0])]),
        construct=ConstructNode(tau2.root, (), (ConstructNode("item", ("X",)),)),
    )
    b31 = thm31_bound(query, tau1, tau2)
    print(f"Theorem 3.1 bound:   ~10^{len(str(b31)) - 1} nodes")
    depth = tau1.depth_bound()
    if depth is not None:
        b41 = cor41_bound(query, tau1, tau2)
        print(f"Corollary 4.1 bound: {b41} nodes (input depth <= {depth})")
    else:
        print("Corollary 4.1: not applicable (recursive input DTD)")
    return 0


def _parse_worker_kill(spec: str) -> WorkerKill:
    """``SHARD:ATTEMPT:AFTER[:MODE]`` — e.g. ``-1:0:3`` kills every
    shard's first attempt after 3 local instances (CI fault drills)."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected SHARD:ATTEMPT:AFTER[:MODE], got {spec!r}"
        )
    try:
        shard, attempt, after = (int(p) for p in parts[:3])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad worker-kill spec {spec!r}: {exc}")
    mode = parts[3] if len(parts) == 4 else "kill"
    try:
        return WorkerKill(shard, attempt, after, mode)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_service_fault(spec: str):
    """``POINT:INDEX:MODE`` — e.g. ``journal:1:crash`` kills the server
    at its second journal write; ``slice:0:fail`` makes the first job
    slice raise (retry-path drills; see tests/test_service_chaos.py)."""
    from repro.runtime import ServiceFault

    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected POINT:INDEX:MODE, got {spec!r}")
    try:
        index = int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad service fault spec {spec!r}: {exc}")
    try:
        return ServiceFault(parts[0], index, parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_io_fault(spec: str) -> IOFault:
    """``OP:INDEX:MODE`` — e.g. ``write:0:torn`` tears the very first
    checkpoint tmp-file write; ``replace:1:crash`` dies at the second
    rename (crash-consistency drills)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected OP:INDEX:MODE, got {spec!r}")
    try:
        index = int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad I/O fault spec {spec!r}: {exc}")
    try:
        return IOFault(parts[0], index, parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _control_from_args(args: argparse.Namespace) -> Optional[RuntimeControl]:
    deadline = getattr(args, "deadline", None)
    max_rss = getattr(args, "max_rss_mb", None)
    kills = getattr(args, "inject_worker_kill", None) or []
    io_faults = getattr(args, "inject_io_fault", None) or []
    service_faults = getattr(args, "inject_service_fault", None) or []
    faults = (
        FaultInjector(
            FaultPlan(
                worker_kills=frozenset(kills),
                io_faults=frozenset(io_faults),
                service_faults=frozenset(service_faults),
            )
        )
        if kills or io_faults or service_faults
        else None
    )
    if deadline is None and max_rss is None and faults is None:
        return None
    if deadline is not None:
        return RuntimeControl.with_deadline(deadline, max_rss_mb=max_rss, faults=faults)
    return RuntimeControl(max_rss_mb=max_rss, faults=faults)


def _flush_store_events(store) -> None:
    """Print (and drain) the durable store's recovery/cleanup notes —
    quarantines, generation fall-backs, stale-tmp removal — so operators
    see self-healing happen, on stderr, as it does."""
    for note in store.events:
        print(f"checkpoint: {note}", file=sys.stderr)
    store.events.clear()


def _obs_from_args(args: argparse.Namespace):
    """Build the telemetry layer the flags ask for (or ``None``: every
    instrumentation site stays on the no-op path)."""
    if not (args.trace or args.metrics_out or args.progress):
        return None
    from repro.obs import JsonlTraceSink, Observability, ProgressReporter, Telemetry, Tracer

    tracer = Tracer(JsonlTraceSink.open(args.trace)) if args.trace else None
    telemetry = Telemetry() if args.metrics_out else None
    progress = ProgressReporter() if args.progress else None
    return Observability(tracer=tracer, telemetry=telemetry, progress=progress)


def _cmd_typecheck(args: argparse.Namespace) -> int:
    from repro.ql.serde import query_from_json
    from repro.typecheck import Verdict, typecheck
    from repro.typecheck.search import SearchBudget

    tau1 = _load_dtd(args.input_dtd, unordered=args.unordered_input)
    tau2 = _load_dtd(args.output_dtd, unordered=args.unordered_output)
    if os.path.exists(args.query):
        with open(args.query, encoding="utf-8") as handle:
            query_text = handle.read()
    else:
        query_text = args.query
    query = query_from_json(query_text)
    budget = SearchBudget(max_size=args.max_size)
    if args.max_instances is not None:
        budget.max_instances = args.max_instances
    supervisor = None
    if args.shard_retries is not None or args.shards_per_worker is not None:
        from repro.runtime.supervisor import SupervisorConfig

        overrides = {}
        if args.shard_retries is not None:
            overrides["shard_retries"] = args.shard_retries
        if args.shards_per_worker is not None:
            overrides["shards_per_worker"] = args.shards_per_worker
        supervisor = SupervisorConfig(workers=args.workers, **overrides)
    obs = _obs_from_args(args)
    control = _control_from_args(args)
    store = None
    resume_from = None
    if args.checkpoint:
        from repro.runtime import CheckpointAutosave, DurableStore

        store = DurableStore(
            args.checkpoint,
            generations=args.checkpoint_generations,
            fsync=args.fsync,
            faults=control.faults if control is not None else None,
            telemetry=obs.telemetry if obs is not None else None,
            tracer=obs.tracer if obs is not None else None,
        )
        try:
            # Loads the newest *verifiable* generation: a corrupt newest
            # file is quarantined (*.corrupt) and the previous generation
            # recovers the run; stale tmp files from crashed runs are
            # cleaned; None means a fresh search.
            resume_from = store.try_load()
        except CheckpointError as exc:
            _flush_store_events(store)
            print(f"error: cannot resume from {args.checkpoint}: {exc}", file=sys.stderr)
            print("(delete the file to start the search from scratch)", file=sys.stderr)
            return EXIT_USAGE
        _flush_store_events(store)
        if resume_from is not None:
            print(f"resuming from checkpoint {args.checkpoint}", file=sys.stderr)
        if control is None:
            control = RuntimeControl()
        control.autosave = CheckpointAutosave(
            store, every_instances=args.checkpoint_interval
        )
    saved_final = False
    save_error = None
    try:
        result = typecheck(
            query,
            tau1,
            tau2,
            budget=budget,
            force_search=args.force_search,
            control=control,
            resume_from=resume_from,
            workers=args.workers,
            supervisor=supervisor,
            use_eval_cache=not args.no_eval_cache,
            obs=obs,
            handle_signals=True,
            heartbeat_timeout=args.heartbeat_timeout,
        )
        if result.verdict is Verdict.INTERRUPTED and store is not None:
            # Flush the final checkpoint while the tracer is still open
            # (the write emits a checkpoint_write span); a failed flush
            # must not mask the verdict — the run still exits 3.
            try:
                store.save_checkpoint(result.checkpoint)
                saved_final = True
            except CheckpointError as exc:
                save_error = exc
    except CheckpointError as exc:
        print(f"error: cannot resume from {args.checkpoint}: {exc}", file=sys.stderr)
        print("(delete the file to start the search from scratch)", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if store is not None:
            _flush_store_events(store)
        if obs is not None and obs.tracer.enabled:
            obs.tracer.close()
    if obs is not None and obs.progress is not None:
        obs.progress.finish(result.stats.valued_trees_checked, result.stats)
    if obs is not None and obs.telemetry is not None:
        import json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(obs.telemetry.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    print(result.summary())
    if result.verdict is Verdict.INTERRUPTED:
        if saved_final:
            print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)
        elif save_error is not None:
            print(
                f"warning: could not write checkpoint {args.checkpoint}: "
                f"{save_error}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted without --checkpoint: progress discarded "
                "(pass --checkpoint PATH to make the run resumable)",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    if store is not None:
        # Decisive verdict: the checkpoint is spent — drop every
        # generation (quarantined *.corrupt files are kept as evidence)
        # so a rerun starts fresh instead of resuming a finished search.
        store.clear()
        _flush_store_events(store)
    return 0 if result.verdict is not Verdict.FAILS else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import JobServer, ServerConfig

    obs = _obs_from_args(args)
    control = _control_from_args(args)
    telemetry = obs.telemetry if obs is not None else None
    if telemetry is None and args.metrics_out:
        from repro.obs import Telemetry

        telemetry = Telemetry()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        max_queue=args.max_queue,
        workers=args.workers,
        slice_seconds=args.slice_seconds,
        checkpoint_every=args.checkpoint_interval,
        max_attempts=args.max_attempts,
        read_timeout=args.read_timeout,
        max_active_jobs=args.max_active_jobs,
        max_compute_seconds=args.max_compute_seconds,
        max_rss_mb=args.max_rss_mb,
        max_size_cap=args.max_size_cap,
        search_workers=args.search_workers,
        events=not args.no_events,
        events_capacity=args.events_capacity,
        sse_heartbeat=args.sse_heartbeat,
    )
    server = JobServer(
        config,
        faults=control.faults if control is not None else None,
        telemetry=telemetry,
        tracer=obs.tracer if obs is not None else None,
    )
    try:
        code = asyncio.run(server.run())
    except KeyboardInterrupt:  # pragma: no cover - handler races are OS-timed
        code = EXIT_INTERRUPTED
    finally:
        if obs is not None and obs.tracer.enabled:
            obs.tracer.close()
        if telemetry is not None and args.metrics_out:
            import json

            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(telemetry.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
    return code


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.top import run_top

    return run_top(
        args.url,
        interval=args.interval,
        duration=args.duration,
        once=args.once,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_trace_file, render_summary, summarize_trace, validate_trace_records

    try:
        records = read_trace_file(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    errors = validate_trace_records(records)
    if args.action == "validate":
        if errors:
            for err in errors:
                print(f"invalid: {err}")
            return 1
        from repro.obs import TRACE_SCHEMA, TRACE_SCHEMA_VERSION

        version = records[0].get("version", TRACE_SCHEMA_VERSION)
        print(f"OK: {len(records)} record(s), schema {TRACE_SCHEMA} v{version}")
        return 0
    if errors:
        # Summarize what's there, but say the stream is damaged.
        print(f"warning: {len(errors)} validation error(s); summary may be partial", file=sys.stderr)
    print(render_summary(summarize_trace(records, top=args.top)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tools from the PODS'01 typechecking reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a document against a DTD")
    p_val.add_argument("--dtd", required=True, help="DTD file or inline rules")
    p_val.add_argument("--doc", required=True, help="document in term syntax")
    p_val.add_argument("--root", default=None, help="override the DTD root")
    p_val.add_argument("--unordered", action="store_true", help="rules are SL formulas")
    p_val.set_defaults(func=_cmd_validate)

    p_inst = sub.add_parser("instances", help="enumerate DTD instances by size")
    p_inst.add_argument("--dtd", required=True)
    p_inst.add_argument("--max-size", type=int, default=6)
    p_inst.add_argument("--limit", type=int, default=None)
    p_inst.add_argument("--root", default=None)
    p_inst.add_argument("--unordered", action="store_true")
    p_inst.add_argument("--xml", action="store_true", help="print as XML")
    p_inst.add_argument(
        "--deadline",
        type=_nonneg_float,
        default=None,
        help="stop enumerating after this many seconds (exit code 3)",
    )
    p_inst.set_defaults(func=_cmd_instances)

    p_bounds = sub.add_parser("bounds", help="report symbolic counterexample bounds")
    p_bounds.add_argument("--input-dtd", required=True)
    p_bounds.add_argument("--output-dtd", required=True)
    p_bounds.add_argument("--unordered-input", action="store_true")
    p_bounds.add_argument("--unordered-output", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_tc = sub.add_parser("typecheck", help="typecheck a JSON query against a DTD pair")
    p_tc.add_argument("--query", required=True, help="query JSON file or inline text")
    p_tc.add_argument("--input-dtd", required=True)
    p_tc.add_argument("--output-dtd", required=True)
    p_tc.add_argument("--unordered-input", action="store_true")
    p_tc.add_argument("--unordered-output", action="store_true")
    p_tc.add_argument("--max-size", type=int, default=6, help="search budget (input nodes)")
    p_tc.add_argument(
        "--max-instances",
        type=int,
        default=None,
        help="cap on valued inputs evaluated (default: SearchBudget default)",
    )
    p_tc.add_argument(
        "--force-search",
        action="store_true",
        help="run the refutation-only search outside the decidable fragments",
    )
    p_tc.add_argument(
        "--deadline",
        type=_nonneg_float,
        default=None,
        help="soft wall-clock deadline in seconds; on expiry the verdict "
        "is 'interrupted' and the exit code is 3",
    )
    p_tc.add_argument(
        "--max-rss-mb",
        type=_nonneg_float,
        default=None,
        help="memory ceiling in MiB; exceeding it interrupts the search",
    )
    p_tc.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file: written durably when interrupted (and "
        "periodically while running, see --checkpoint-interval), resumed "
        "from when any generation exists, removed on a decisive verdict",
    )
    p_tc.add_argument(
        "--checkpoint-generations",
        type=int,
        default=2,
        metavar="K",
        help="rotated checkpoint generations to keep (PATH, PATH.1, ...); "
        "loading falls back to the newest generation that passes its "
        "integrity check, quarantining corrupt files as *.corrupt "
        "(default: 2)",
    )
    p_tc.add_argument(
        "--fsync",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fsync checkpoint writes (file and directory entry) so they "
        "survive power loss; --no-fsync trades that durability for speed "
        "(writes stay atomic either way)",
    )
    p_tc.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1000,
        metavar="N",
        help="autosave the checkpoint every N evaluated instances "
        "(sequential engine; the parallel supervisor autosaves on a time "
        "interval) so a crash loses at most one window (default: 1000)",
    )
    p_tc.add_argument(
        "--inject-io-fault",
        type=_parse_io_fault,
        action="append",
        default=None,
        metavar="OP:INDEX:MODE",
        help="deterministically fault occurrence INDEX of checkpoint I/O "
        "primitive OP (write|fsync|replace|fsyncdir|remove) with MODE "
        "(torn|enospc|eio|fsync|bitflip|crash|torn-crash) — "
        "crash-consistency drills; see tests/test_crash_matrix.py",
    )
    p_tc.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard the search over this many worker processes under the "
        "fault-tolerant supervisor (verdict and statistics are identical "
        "to a sequential run); 0 or 1 = sequential",
    )
    p_tc.add_argument(
        "--shard-retries",
        type=int,
        default=None,
        help="attempts per shard before it is re-split (default: supervisor default)",
    )
    p_tc.add_argument(
        "--shards-per-worker",
        type=int,
        default=None,
        help="cursor ranges planned per worker for the pool's work-stealing "
        "(more ranges = finer load balancing and finer-grained loss on a "
        "crash, at more per-range start-up; default: supervisor default)",
    )
    p_tc.add_argument(
        "--heartbeat-timeout",
        type=_pos_float,
        default=None,
        metavar="SECONDS",
        help="seconds a running worker may stay silent before the "
        "supervisor declares it hung and retries its shard (sharded runs "
        "only; default: supervisor hang_timeout)",
    )
    p_tc.add_argument(
        "--no-eval-cache",
        action="store_true",
        help="evaluate every candidate through the uncached reference "
        "evaluator instead of the compile-once query cache (ablation / "
        "equivalence check; verdict and statistics are identical, only "
        "slower)",
    )
    p_tc.add_argument(
        "--inject-worker-kill",
        type=_parse_worker_kill,
        action="append",
        default=None,
        metavar="SHARD:ATTEMPT:AFTER[:MODE]",
        help="deterministically kill (or 'hang') the worker holding the given "
        "shard on the given attempt after AFTER local instances; SHARD=-1 "
        "matches any shard (fault drills; exit codes are unaffected)",
    )
    p_tc.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write nested span records (search/label_tree/bind/evaluate/"
        "verify_witness/checkpoint_write, plus pool/steal/shard/worker "
        "under --workers) to FILE as JSON lines (schema repro.obs.trace "
        "v5); inspect with 'repro trace summarize FILE'",
    )
    p_tc.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the merged counter/histogram registry (schema "
        "repro.obs.metrics v1) to FILE as JSON; sharded runs fold "
        "per-worker registries into exactly the sequential totals",
    )
    p_tc.add_argument(
        "--progress",
        action="store_true",
        help="paint a throttled live progress line (instances/sec, "
        "eval-cache hit rate, ETA) on stderr",
    )
    p_tc.set_defaults(func=_cmd_typecheck)

    p_srv = sub.add_parser(
        "serve",
        help="run the resilient typechecking job server (crash-safe queue, "
        "admission control, preempt/resume scheduling)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound port is announced on stdout)",
    )
    p_srv.add_argument(
        "--data-dir",
        required=True,
        help="directory for the durable job journal and per-job checkpoints; "
        "restarting with the same directory resumes every interrupted job",
    )
    p_srv.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="bound on active (queued+running+preempted) jobs; overflow is "
        "shed with 429 + Retry-After (default: 64)",
    )
    p_srv.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent job slices (executor threads; default: 2)",
    )
    p_srv.add_argument(
        "--slice-seconds",
        type=_nonneg_float,
        default=0.5,
        help="preemption time quantum per job slice (default: 0.5)",
    )
    p_srv.add_argument(
        "--search-workers",
        type=int,
        default=0,
        help="share a persistent pool of this many search worker processes "
        "across job slices (one slice borrows it at a time; others run "
        "sequentially); 0 = every slice searches sequentially (default)",
    )
    p_srv.add_argument(
        "--checkpoint-interval",
        type=int,
        default=200,
        metavar="N",
        help="autosave each running job's checkpoint every N evaluated "
        "instances — the most work SIGKILL can lose per job (default: 200)",
    )
    p_srv.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="poison cap: failing slices per job before it fails permanently "
        "(default: 3)",
    )
    p_srv.add_argument(
        "--read-timeout",
        type=_nonneg_float,
        default=5.0,
        help="seconds a client may take to deliver a request before 408 "
        "(the slow-client guard; default: 5)",
    )
    p_srv.add_argument(
        "--max-active-jobs",
        type=int,
        default=8,
        help="per-tenant cap on active jobs (default: 8)",
    )
    p_srv.add_argument(
        "--max-compute-seconds",
        type=_nonneg_float,
        default=None,
        help="per-tenant cap on engine seconds per job, enforced between "
        "slices (default: unlimited)",
    )
    p_srv.add_argument(
        "--max-rss-mb",
        type=_nonneg_float,
        default=None,
        help="memory ceiling threaded into every job slice (default: none)",
    )
    p_srv.add_argument(
        "--max-size-cap",
        type=int,
        default=None,
        help="reject submissions whose search budget max_size exceeds this "
        "(422; default: no cap)",
    )
    p_srv.add_argument(
        "--inject-io-fault",
        type=_parse_io_fault,
        action="append",
        default=None,
        metavar="OP:INDEX:MODE",
        help="deterministically fault journal I/O primitives: log "
        "appends and snapshot writes (kill-during-journal-write drills; "
        "same spec as typecheck)",
    )
    p_srv.add_argument(
        "--inject-service-fault",
        type=_parse_service_fault,
        action="append",
        default=None,
        metavar="POINT:INDEX:MODE",
        help="deterministically fault occurrence INDEX of scheduler point "
        "POINT (admit|slice|preempt|complete|journal) with MODE "
        "(crash|fail) — service chaos drills",
    )
    p_srv.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write request/job/job_slice/drain span records (schema "
        "repro.obs.trace v5, with job_id/event_seq correlation attrs "
        "joinable against the /events stream) to FILE as JSON lines",
    )
    p_srv.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the service counter registry to FILE as JSON on exit",
    )
    p_srv.add_argument(
        "--no-events",
        action="store_true",
        help="disable the in-process event bus: no /events or "
        "/jobs/{id}/events streams (503), and zero publish overhead on "
        "the scheduler hot path",
    )
    p_srv.add_argument(
        "--events-capacity",
        type=int,
        default=2048,
        metavar="N",
        help="event ring-buffer size: how far back Last-Event-ID resume "
        "can reach before the stream reports dropped events "
        "(default: 2048)",
    )
    p_srv.add_argument(
        "--sse-heartbeat",
        type=_pos_float,
        default=3.0,
        metavar="SECONDS",
        help="keep-alive comment interval on idle event streams "
        "(default: 3)",
    )
    p_srv.add_argument("--progress", action="store_true", help=argparse.SUPPRESS)
    p_srv.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live dashboard for a running job server (SSE /events + "
        "/metrics; no job-state polling)",
    )
    p_top.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="base URL of the server (default: http://127.0.0.1:8642)",
    )
    p_top.add_argument(
        "--interval",
        type=_pos_float,
        default=1.0,
        help="repaint interval in seconds (default: 1)",
    )
    p_top.add_argument(
        "--duration",
        type=_pos_float,
        default=None,
        help="exit after this many seconds (default: run until Ctrl-C "
        "or the server drains)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="paint one colorless frame after a single interval and exit "
        "(scripting; degrades to snapshots-only if the stream is down)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_trace = sub.add_parser("trace", help="inspect a --trace JSONL file")
    trace_sub = p_trace.add_subparsers(dest="action", required=True)
    p_sum = trace_sub.add_parser(
        "summarize", help="per-phase time breakdown and slowest label trees"
    )
    p_sum.add_argument("file", help="trace file written by typecheck --trace")
    p_sum.add_argument(
        "--top", type=int, default=5, help="how many slowest label trees to show"
    )
    p_sum.set_defaults(func=_cmd_trace)
    p_chk = trace_sub.add_parser("validate", help="check records against the trace schema")
    p_chk.add_argument("file", help="trace file written by typecheck --trace")
    p_chk.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
