"""The resilient typechecking job service.

The paper's decision procedures behind a network boundary: a
single-process asyncio HTTP server (stdlib only) that accepts
typechecking jobs, runs them preemptively time-sliced over the existing
engine, and survives being killed at any moment — the job table is a
crash-safe journal over :class:`~repro.runtime.durable.DurableStore`,
every running job checkpoints through the engine's autosave, and a
restarted server resumes exactly where the dead one stopped.

Layers (each its own module, coordinator-owned state throughout):

* :mod:`.journal` — durable job table (append-only log + snapshot);
  replay + quarantine on restart;
* :mod:`.admission` — bounded queue, per-tenant budgets, 429/503 load
  shedding with truthful ``Retry-After``;
* :mod:`.scheduler` — slice/preempt/resume state machine, retry with
  backoff and a poison cap, fingerprint-keyed result cache;
* :mod:`.http` — minimal HTTP/1.1 parsing/rendering with slow-client
  and oversized-body guards;
* :mod:`.server` — the asyncio front + worker pump + graceful drain
  (SIGTERM → checkpoint everything, flush, exit 3).

Entry point: ``python -m repro serve --data-dir DIR`` (see
:mod:`repro.cli`).
"""

from repro.service.admission import AdmissionControl, AdmissionDecision, TenantPolicy
from repro.service.journal import JobJournal, JobRecord, JournalEntryError
from repro.service.scheduler import (
    JobScheduler,
    SchedulerConfig,
    ServiceFaultError,
    SubmissionError,
    parse_submission,
)
from repro.service.server import EXIT_DRAINED, JobServer, ServerConfig

__all__ = [
    "AdmissionControl",
    "AdmissionDecision",
    "EXIT_DRAINED",
    "JobJournal",
    "JobRecord",
    "JobScheduler",
    "JobServer",
    "JournalEntryError",
    "SchedulerConfig",
    "ServerConfig",
    "ServiceFaultError",
    "SubmissionError",
    "TenantPolicy",
    "parse_submission",
]
