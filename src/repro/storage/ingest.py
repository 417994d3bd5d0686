"""The streaming observe path: a bounded-queue, group-commit ingestor.

Tracker hardware emits movement observations continuously; feeding them to
the engine one blocking ``observe_entry`` call at a time couples the
tracker's line rate to the full enforcement round-trip (monitor, storage
commit, audit).  :class:`MovementIngestor` decouples the two with the
classic group-commit shape:

* producers :meth:`~MovementIngestor.submit` records into a **bounded**
  queue (backpressure instead of unbounded memory when the writer falls
  behind);
* one background writer thread drains the queue and hands the records to
  the sink — :meth:`~repro.storage.movement_db.MovementDatabase.record_many`
  or :meth:`~repro.api.pep.EnforcementPoint.observe_many` — in batches,
  flushing whenever ``batch_size`` records have accumulated **or** the
  oldest queued record has waited ``max_latency`` seconds (so a trickle of
  events still lands promptly);
* :meth:`~MovementIngestor.flush` is a synchronous barrier, and closing the
  ingestor (or leaving its ``with`` block) flushes everything accepted so
  far before the thread exits;
* an optional :class:`CheckpointPolicy` piggybacks movement-database
  checkpointing on the same writer thread — every N written events and/or
  M seconds, between batches, with an archive-retention cap so compaction
  does not just move the unbounded growth into ``movements_archive``.

Failure semantics follow the sink.  ``record_many`` is all-or-nothing, and
``observe_many`` runs inside the movement database's ``bulk()`` scope —
transactional on SQLite and on the in-memory backend — so a failing
batch (e.g. a strict-mode inconsistent exit) leaves the *movement store*
exactly as if the batch were never submitted; it is recorded as a
:class:`BatchFailure` and re-raised as :class:`~repro.errors.IngestError`
by the next ``flush()``/``close()``.  One caveat: the monitor's in-process
session/alert state may retain the records an ``observe_many`` batch
processed *before* the failing one (sessions are observability state, not
storage).  Later batches keep flowing; an enforcement pipeline must not stop
observing the building because one tracker emitted garbage.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import IngestError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.movement_db import MovementRecord

__all__ = ["BatchFailure", "CheckpointPolicy", "MovementIngestor"]

#: Default flush triggers: a batch this large, or a record this old (seconds).
DEFAULT_BATCH_SIZE = 256
DEFAULT_MAX_LATENCY = 0.05
DEFAULT_QUEUE_SIZE = 8192


@dataclass(frozen=True)
class BatchFailure:
    """One batch the sink rejected: the error, the drop count, and the records.

    *records* carries the batch itself, so a caller that catches the
    :class:`~repro.errors.IngestError` a flush raises can retry the failed
    records (after fixing the cause) or route them to a dead letter — the
    remote ingest path ships them back to the submitting client for exactly
    that purpose.
    """

    error: Exception
    dropped: int
    records: Tuple["MovementRecord", ...] = ()

    def __str__(self) -> str:
        return f"batch of {self.dropped} record(s) failed: {self.error}"


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the ingest writer should checkpoint the movement database.

    Parameters
    ----------
    every_events:
        Checkpoint once this many records have been written since the last
        checkpoint.
    every_seconds:
        Checkpoint when this much time has passed since the last checkpoint
        **and** at least one record has been written since (an idle stream
        never checkpoints an unchanged database).
    retain_archived:
        Archive-retention cap: after each compacting checkpoint, prune the
        ``movements_archive`` down to at most this many records, so the
        archive stops growing without bound.  ``None`` keeps everything.
    compact:
        Whether the scheduled checkpoints compact (archive the covered log
        prefix); retention only applies to compacting checkpoints.

    At least one of *every_events* / *every_seconds* is required.  The policy
    piggybacks on the ingestor's writer thread — no extra thread, and a
    checkpoint never lands inside an open batch transaction.
    """

    every_events: Optional[int] = None
    every_seconds: Optional[float] = None
    retain_archived: Optional[int] = None
    compact: bool = True

    def __post_init__(self) -> None:
        if self.every_events is None and self.every_seconds is None:
            raise IngestError(
                "a checkpoint policy needs a trigger: every_events and/or every_seconds"
            )
        if self.every_events is not None and (
            not isinstance(self.every_events, int)
            or isinstance(self.every_events, bool)
            or self.every_events < 1
        ):
            raise IngestError(f"every_events must be a positive integer, got {self.every_events!r}")
        if self.every_seconds is not None and not self.every_seconds > 0:
            raise IngestError(f"every_seconds must be positive, got {self.every_seconds!r}")
        if self.retain_archived is not None and (
            not isinstance(self.retain_archived, int)
            or isinstance(self.retain_archived, bool)
            or self.retain_archived < 0
        ):
            raise IngestError(
                f"retain_archived must be a non-negative integer, got {self.retain_archived!r}"
            )

    def run(self, movement_db, alert_sink=None) -> object:
        """Checkpoint *movement_db* under this policy (compaction + retention).

        Retention note: pruned archive records are gone — point-in-time
        query replays and windowed entry counts whose windows reach past the
        pruned era see fewer events.  Size ``retain_archived`` to cover the
        longest entry window whose budget must stay exactly enforced.

        With an *alert_sink*, **alert retention follows archive pruning**:
        after the prune, alerts older than the store's
        ``oldest_retained_time`` are dropped too — they attest to movements
        that no longer exist anywhere in the log.
        """
        receipt = movement_db.checkpoint(compact=self.compact)
        if self.compact and self.retain_archived is not None:
            pruned = movement_db.prune_archive(self.retain_archived)
            if pruned and alert_sink is not None:
                horizon = movement_db.oldest_retained_time
                if horizon is None:
                    # The prune emptied the store entirely (retain_archived
                    # small enough to cover nothing): every movement through
                    # the archived boundary is gone, so the matching alerts
                    # must go too — without this, the most aggressive
                    # retention setting would be the one that leaks alerts.
                    boundary = movement_db.archived_through
                    horizon = boundary + 1 if boundary is not None else None
                alert_sink.prune_before(horizon)
        return receipt

    def bound(self, movement_db, alert_sink=None) -> Callable[[], object]:
        """A zero-argument checkpoint callable for :class:`MovementIngestor`.

        The single wiring point for policy-driven checkpointing — pass
        ``checkpoint_policy=policy, checkpoint=policy.bound(db)``.  The
        enforcement point passes its alert sink so scheduled prunes retire
        the matching alerts (see :meth:`run`).
        """
        return lambda: self.run(movement_db, alert_sink)


class _Flush:
    """Queue sentinel: flush what is buffered, then set the event."""

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = threading.Event()


_CLOSE = object()


class MovementIngestor:
    """Queue-fed group-commit writer over a batch sink.

    Parameters
    ----------
    sink:
        ``records -> None`` batch consumer; must be all-or-nothing
        (``record_many`` and ``observe_many`` are).  Called only from the
        writer thread, so a sink that is not thread-safe is fine as long as
        nothing else drives it concurrently.
    batch_size:
        Flush as soon as this many records are buffered.
    max_latency:
        Flush when the oldest buffered record has waited this many seconds,
        even if the batch is not full.
    queue_size:
        Bound, in **records**, of the submission queue; :meth:`submit` and
        :meth:`submit_many` block (backpressure) when the writer is this
        many records behind.  A single batch larger than the bound is
        admitted alone rather than deadlocking.
    checkpoint_policy:
        Optional :class:`CheckpointPolicy`; the writer thread runs
        *checkpoint* between batches whenever the policy comes due.
    checkpoint:
        Zero-argument callable performing the checkpoint (typically
        ``lambda: policy.run(movement_db)`` — the enforcement point wires
        this).  Required when a policy is given.  Checkpoint errors never
        stop ingest; they are surfaced via :attr:`checkpoint_errors`.
    on_commit:
        Optional ``(written, duration_seconds) -> None`` observer invoked on
        the writer thread after each successful group commit — the serving
        layer's telemetry hook.  This module stays telemetry-agnostic: the
        hook is plain data out, and its errors are swallowed (observability
        must never fail ingest).
    """

    def __init__(
        self,
        sink: Callable[[Sequence["MovementRecord"]], object],
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_latency: float = DEFAULT_MAX_LATENCY,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        checkpoint: Optional[Callable[[], object]] = None,
        on_commit: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        if batch_size < 1:
            raise IngestError(f"batch size must be positive, got {batch_size!r}")
        if max_latency <= 0:
            raise IngestError(f"max latency must be positive, got {max_latency!r}")
        if queue_size < 1:
            raise IngestError(f"queue size must be positive, got {queue_size!r}")
        if checkpoint_policy is not None and checkpoint is None:
            raise IngestError("a checkpoint policy needs a checkpoint callable to run")
        self._sink = sink
        self._on_commit = on_commit
        self._batch_size = batch_size
        self._max_latency = max_latency
        self._checkpoint_policy = checkpoint_policy
        self._checkpoint = checkpoint
        self._checkpoints = 0
        self._checkpoint_errors: List[Exception] = []
        self._events_since_checkpoint = 0
        self._last_checkpoint = time.monotonic()
        # Backpressure is accounted in records, not queue items: batches
        # travel as single items (one hand-off per submit_many), so the
        # queue itself is unbounded and this pair enforces the record bound.
        self._queue_bound = queue_size
        self._queued_records = 0
        self._capacity = threading.Condition()
        self._queue: "queue.Queue" = queue.Queue()
        self._failures: List[BatchFailure] = []
        self._failure_lock = threading.Lock()
        # Serializes the closed-check-then-enqueue of submit()/flush()
        # against close(), so nothing lands behind the _CLOSE sentinel and
        # a flush marker can never be orphaned; also makes the submitted
        # counter exact under multiple producer threads.
        self._lifecycle_lock = threading.Lock()
        self._submitted = 0
        self._written = 0
        self._closed = False
        self._writer = threading.Thread(
            target=self._run, name="movement-ingestor", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------ #
    # Producer API
    # ------------------------------------------------------------------ #
    def _reserve(self, count: int) -> None:
        """Block until *count* records fit under the queue bound.

        A batch larger than the whole bound is admitted once the queue is
        empty (never deadlocks).  Waiting here can happen while holding the
        lifecycle lock — safe for the same reason blocking on a bounded
        queue was: the writer keeps draining (and releasing capacity)
        without ever needing that lock, and the close sentinel cannot be
        enqueued while a submitter holds it.
        """
        with self._capacity:
            while self._queued_records > 0 and self._queued_records + count > self._queue_bound:
                self._capacity.wait()
            self._queued_records += count

    def _release(self, count: int) -> None:
        with self._capacity:
            self._queued_records -= count
            self._capacity.notify_all()

    def submit(self, record: "MovementRecord") -> None:
        """Queue one record for ingestion (blocks when the queue is full)."""
        with self._lifecycle_lock:
            if self._closed:
                raise IngestError("cannot submit to a closed ingestor")
            self._reserve(1)
            self._queue.put(record)
            self._submitted += 1

    def submit_many(self, records: Iterable["MovementRecord"]) -> int:
        """Queue a batch of records as one item; returns how many were accepted.

        The whole batch reaches the writer in one hand-off — at
        remote-ingest rates the per-record queue round-trip of repeated
        :meth:`submit` calls costs more than the storage write itself — but
        still counts record-by-record against the queue bound
        (backpressure).  The batch stays one flush unit: it is appended to
        the writer's buffer atomically, so a sink failure reports it whole.
        """
        batch = list(records)
        if not batch:
            return 0
        with self._lifecycle_lock:
            if self._closed:
                raise IngestError("cannot submit to a closed ingestor")
            self._reserve(len(batch))
            self._queue.put(batch)
            self._submitted += len(batch)
        return len(batch)

    def flush(self, *, raise_failures: bool = True) -> None:
        """Block until everything submitted so far has reached the sink.

        With ``raise_failures`` (the default), re-raises the batches the
        sink rejected since the last flush as one :class:`IngestError`.
        """
        marker = _Flush()
        with self._lifecycle_lock:
            if self._closed:
                raise IngestError("cannot flush a closed ingestor")
            self._queue.put(marker)
        marker.done.wait()
        if raise_failures:
            self._raise_failures()

    def close(self, *, raise_failures: bool = True) -> None:
        """Flush pending records, stop the writer thread, surface failures.

        Idempotent; the flush-on-close guarantee is what lets a tracker
        adapter simply ``with pep.ingestor() as stream: ...`` and know every
        accepted observation is durable when the block exits.
        """
        with self._lifecycle_lock:
            closing = not self._closed
            if closing:
                self._closed = True
                self._queue.put(_CLOSE)
        if closing:
            self._writer.join()
        if raise_failures:
            self._raise_failures()

    def __enter__(self) -> "MovementIngestor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Let an exception already unwinding the with-block take precedence
        # over (but not hide) batch failures.
        self.close(raise_failures=exc_type is None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def submitted(self) -> int:
        """Records accepted by :meth:`submit` so far."""
        return self._submitted

    @property
    def queue_depth(self) -> int:
        """Records currently queued, not yet handed to the sink — the
        backpressure depth a dashboard wants to watch."""
        with self._capacity:
            return self._queued_records

    @property
    def written(self) -> int:
        """Records the sink has durably accepted so far."""
        return self._written

    @property
    def dropped(self) -> int:
        """Records lost to rejected batches so far."""
        with self._failure_lock:
            return sum(failure.dropped for failure in self._failures)

    @property
    def failures(self) -> Tuple[BatchFailure, ...]:
        """The batch failures not yet surfaced by a flush/close."""
        with self._failure_lock:
            return tuple(self._failures)

    @property
    def checkpoints(self) -> int:
        """How many scheduled checkpoints the writer thread has completed."""
        return self._checkpoints

    @property
    def checkpoint_errors(self) -> Tuple[Exception, ...]:
        """Errors raised by scheduled checkpoints (ingest kept flowing)."""
        with self._failure_lock:
            return tuple(self._checkpoint_errors)

    def _raise_failures(self) -> None:
        with self._failure_lock:
            failures, self._failures = self._failures, []
        if failures:
            detail = "; ".join(str(failure) for failure in failures)
            error = IngestError(
                f"{len(failures)} ingest batch(es) were rejected and dropped: {detail}"
            )
            error.failures = failures  # type: ignore[attr-defined]
            raise error from failures[0].error

    # ------------------------------------------------------------------ #
    # Writer thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        buffer: List["MovementRecord"] = []
        deadline: Optional[float] = None
        while True:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            checkpoint_timeout = self._checkpoint_timeout()
            if checkpoint_timeout is not None:
                timeout = (
                    checkpoint_timeout if timeout is None else min(timeout, checkpoint_timeout)
                )
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                self._write(buffer)
                buffer, deadline = [], None
                self._maybe_checkpoint()
                continue
            if item is _CLOSE:
                # Drain everything that raced the close: records enqueued
                # by a submit() that passed its closed-check late are still
                # written (flush-on-close durability), and flush() markers
                # are released instead of leaving their callers waiting.
                markers: List[_Flush] = []
                while True:
                    try:
                        straggler = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if isinstance(straggler, _Flush):
                        markers.append(straggler)
                    elif isinstance(straggler, list):
                        self._release(len(straggler))
                        buffer.extend(straggler)
                    elif straggler is not _CLOSE:
                        self._release(1)
                        buffer.append(straggler)
                self._write(buffer)
                for marker in markers:
                    marker.done.set()
                self._maybe_checkpoint()
                return
            if isinstance(item, _Flush):
                self._write(buffer)
                buffer, deadline = [], None
                item.done.set()
                self._maybe_checkpoint()
                continue
            if not buffer:
                deadline = time.monotonic() + self._max_latency
            if isinstance(item, list):  # a submit_many batch, handed off whole
                self._release(len(item))
                buffer.extend(item)
            else:
                self._release(1)
                buffer.append(item)
            if len(buffer) >= self._batch_size:
                self._write(buffer)
                buffer, deadline = [], None
                self._maybe_checkpoint()

    def _write(self, batch: List["MovementRecord"]) -> None:
        if not batch:
            return
        started = time.perf_counter()
        try:
            self._sink(batch)
        except Exception as exc:  # noqa: BLE001 - surfaced via flush/close
            with self._failure_lock:
                self._failures.append(BatchFailure(exc, len(batch), tuple(batch)))
        else:
            self._written += len(batch)
            self._events_since_checkpoint += len(batch)
            if self._on_commit is not None:
                try:
                    self._on_commit(len(batch), time.perf_counter() - started)
                except Exception:  # noqa: BLE001 - observers must not fail ingest
                    pass

    # ------------------------------------------------------------------ #
    # Scheduled checkpoints (writer thread only)
    # ------------------------------------------------------------------ #
    def _checkpoint_timeout(self) -> Optional[float]:
        """Seconds until the time-based checkpoint trigger, or ``None``.

        Only meaningful when records have landed since the last checkpoint —
        an idle stream sleeps on the queue indefinitely instead of waking to
        re-checkpoint an unchanged database.
        """
        policy = self._checkpoint_policy
        if policy is None or policy.every_seconds is None or self._events_since_checkpoint == 0:
            return None
        return max(0.0, self._last_checkpoint + policy.every_seconds - time.monotonic())

    def _maybe_checkpoint(self) -> None:
        policy = self._checkpoint_policy
        if policy is None or self._events_since_checkpoint == 0:
            return
        due = (
            policy.every_events is not None
            and self._events_since_checkpoint >= policy.every_events
        ) or (
            policy.every_seconds is not None
            and time.monotonic() - self._last_checkpoint >= policy.every_seconds
        )
        if not due:
            return
        try:
            self._checkpoint()
        except Exception as exc:  # noqa: BLE001 - ingest must keep flowing
            with self._failure_lock:
                self._checkpoint_errors.append(exc)
        else:
            self._checkpoints += 1
        finally:
            # Reset either way: a failing checkpoint retries at the next
            # trigger instead of after every batch.
            self._events_since_checkpoint = 0
            self._last_checkpoint = time.monotonic()
