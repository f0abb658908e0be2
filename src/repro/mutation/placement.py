"""Where shards run: the self-healing local process pool.

:class:`CampaignScheduler` accepts shard objects (anything with a
``run()`` method: :class:`~repro.mutation.campaign.CampaignShard`,
:class:`~repro.mutation.rtl_validation.RtlValidationShard`) and
returns futures of their outcome lists.  The streaming entry points
of :mod:`repro.mutation.scheduler`, which re-exports the class, drain
those futures; the campaign service runs every job on one instance.

The determinism contract holds by construction: outcomes are merged
by mutant index
(:meth:`~repro.mutation.campaign.PreparedCampaign.build_report`), so
reports are byte-identical for any worker count and completion order,
inline or pooled.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..faults import fault_point
from ..obs import REGISTRY, TRACER
from .campaign import _run_shard

__all__ = [
    "CampaignScheduler",
    "PoisonShardError",
    "SupervisedFuture",
]


class SupervisedFuture(Future):
    """A :class:`~concurrent.futures.Future` settled by a supervisor
    (a callback chain, an isolation thread) rather than an executor,
    whose cancellation is therefore **self-acknowledging**.

    ``concurrent.futures.wait``/``as_completed`` only treat a
    cancelled future as done once an executor acknowledges the
    cancellation via ``set_running_or_notify_cancel`` (state
    ``CANCELLED_AND_NOTIFIED``).  Supervised futures have no executor:
    with a plain ``Future``, ``cancel()`` strands waiters forever even
    though ``done()`` reports ``True``.  Acknowledging inside
    ``cancel()`` keeps cancel-then-``wait()`` drain loops (campaign
    streams, suite abandon paths) from wedging."""

    def __init__(self) -> None:
        super().__init__()
        self._cancel_acknowledged = False

    def cancel(self) -> bool:
        cancelled = super().cancel()
        if cancelled:
            with self._condition:
                acknowledge = not self._cancel_acknowledged
                self._cancel_acknowledged = True
            if acknowledge:
                self.set_running_or_notify_cancel()
        return cancelled


class PoisonShardError(RuntimeError):
    """A shard broke the local process pool repeatedly and has been
    quarantined.

    Pool supervision (:meth:`CampaignScheduler.submit`) absorbs a
    :class:`~concurrent.futures.process.BrokenProcessPool` by
    rebuilding the pool and re-running the lost shard -- but a shard
    whose *own execution* kills worker processes would do so forever.
    A break fails **every** queued future of the pool, so break counts
    alone cannot tell the culprit from innocent bystanders: after
    :attr:`CampaignScheduler.pool_break_limit` breaks a shard is
    instead re-run in an *isolated* throwaway single-process pool.
    Innocents prove themselves there; a shard that breaks its private
    pool too is definitively poisonous and fails loudly, carrying a
    structured :attr:`diagnostic` (mutant indices, break count, last
    error) so the campaign's failure names the culprit rather than
    truncating the report."""

    def __init__(self, shard, breaks: int, last_error: BaseException):
        indices = list(getattr(shard, "indices", ()) or ())
        self.diagnostic = {
            "fault": "pool.poison_shard",
            "indices": indices,
            "pool_breaks": breaks,
            "last_error": repr(last_error),
        }
        super().__init__(
            f"shard {indices} broke the process pool {breaks} times, "
            f"failed an isolated re-run, and was quarantined "
            f"(last error: {last_error!r})"
        )


def _exit_worker() -> None:  # pragma: no cover - runs in a pool child
    """Injected by the ``pool.break_worker`` fault site: die the way a
    SIGKILLed / OOM-killed worker does, taking the pool down."""
    os._exit(1)


class CampaignScheduler:
    """One persistent local worker pool serving shards from many
    campaigns.

    The pool is created lazily on first submission and lives until
    :meth:`shutdown` (or context-manager exit), so a whole regression
    -- every IP x sensor type, TLM campaigns and RTL validations,
    plus ad-hoc :func:`~repro.mutation.scheduler.stream_shard_batches`
    streams -- reuses warm worker processes instead of forking a fresh
    pool per campaign.  ``workers=1`` never creates processes: shards
    run inline at submission time, which keeps the single-worker path
    deterministic and dependency-free.  With ``workers > 1`` every
    shard -- TLM or RTL, registered case study or ad-hoc design --
    is pickled to a worker process.

    Every campaign entry point takes ``scheduler=`` by duck type and
    uses three members only:

    * ``workers`` -- the pool width: preparation shards to fill it,
      and :func:`~repro.mutation.scheduler.stream_shard_batches`
      keeps at most that many shards in flight;
    * ``submit(shard)`` -- a future of ``shard.run()``'s outcome list,
      possibly already resolved (inline execution);
    * ``shutdown(wait=True)`` -- release the pool; further
      submissions raise.

    The pool is **self-healing**: a worker process dying mid-shard
    (``kill -9``, OOM, ``os._exit``) is absorbed by rebuilding the pool
    and re-running the lost shards, and a shard that keeps breaking
    pools must prove itself in an isolated probe pool or is
    quarantined with a loud, structured :class:`PoisonShardError` -- a
    campaign is never silently truncated by infrastructure failure.

    The scheduler is **thread-safe**: many threads (the campaign
    service runs one per in-flight job) may submit shards
    concurrently.  Pool creation and shutdown are lock-guarded;
    ``ProcessPoolExecutor.submit`` is thread-safe by contract; inline
    execution happens on the submitting thread.
    """

    #: Pool breaks one shard may live through before it is escalated
    #: to an isolated single-process probe run (see :meth:`_isolate`).
    #: Innocent shards in flight when *another* shard (or a
    #: ``kill -9``) breaks the pool also count a break, so reaching
    #: the limit is suspicion, not conviction: the probe acquits
    #: bystanders and quarantines only shards that break their own
    #: private pool too.
    pool_break_limit = 2

    def __init__(self, workers: int = 1, *, mp_context=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: Optional :mod:`multiprocessing` context for the pool.  The
        #: default (``None``) keeps the platform default (``fork`` on
        #: Linux -- cheapest for one-shot batch runs from a
        #: single-threaded parent).  A *threaded* parent -- the
        #: campaign service, whose job threads trigger the lazy pool
        #: creation -- must pass a fork+exec context (``forkserver``
        #: or ``spawn``): forking a multi-threaded process can
        #: deadlock the children on locks snapshotted mid-hold.
        self.mp_context = mp_context
        self._pool: "ProcessPoolExecutor | None" = None
        self._closed = False
        self._lock = threading.Lock()
        self._in_flight = 0
        self._shards_done = 0
        self._pool_rebuilds = 0
        self._isolations = 0

    def pool(self) -> ProcessPoolExecutor:
        """The lazily-created shared executor (``workers > 1`` only)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler has been shut down")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self.mp_context
                )
            return self._pool

    def _track(self, future: Future) -> Future:
        with self._lock:
            self._in_flight += 1

        def _done(_future: Future) -> None:
            with self._lock:
                self._in_flight -= 1
                self._shards_done += 1

        future.add_done_callback(_done)
        return future

    def submit(self, shard) -> Future:
        """Submit one shard; returns a future of its outcome list.
        Inline mode (``workers=1``) executes eagerly in the parent and
        returns an already-resolved future.

        Pool execution is **supervised**: a
        :class:`~concurrent.futures.process.BrokenProcessPool` (a
        worker was SIGKILLed, OOM-killed or ``os._exit``-ed mid-shard)
        never reaches the caller directly.  The broken pool is torn
        down, a fresh one is built, and the lost shard re-runs -- up
        to :attr:`pool_break_limit` breaks per shard, after which it
        must prove itself in an isolated single-process probe pool;
        only a shard that breaks its private pool too is quarantined
        with a :class:`PoisonShardError`."""
        if self._closed:
            raise RuntimeError("scheduler has been shut down")
        if self.workers <= 1:
            future: Future = SupervisedFuture()
            try:
                future.set_result(_run_shard(shard))
            except BaseException as exc:  # pragma: no cover - propagated
                future.set_exception(exc)
            with self._lock:
                self._shards_done += 1
            return future
        outer: Future = SupervisedFuture()
        self._track(outer)
        self._pool_attempt(shard, outer, breaks=0)
        return outer

    # -- pool supervision -----------------------------------------------

    @staticmethod
    def _settle(future: Future, result=None, exc=None) -> None:
        """Resolve *future* if nobody (cancellation) beat us to it."""
        try:
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)
        except Exception:  # InvalidStateError: abandoned by the drain
            pass

    def _pool_attempt(self, shard, outer: Future, breaks: int) -> None:
        """Run *shard* on the current pool, chaining recovery onto the
        inner future.  *breaks* counts the pool breaks this shard has
        already lived through."""
        if outer.cancelled():
            return
        try:
            pool = self.pool()
        except BaseException as exc:  # closed mid-retry
            self._settle(outer, exc=exc)
            return
        try:
            if fault_point("pool.break_worker") is not None:
                pool.submit(_exit_worker)
            inner = pool.submit(_run_shard, shard)
        except BrokenProcessPool as exc:
            self._recover_break(shard, outer, breaks + 1, pool, exc)
            return
        except BaseException as exc:
            self._settle(outer, exc=exc)
            return
        inner.add_done_callback(
            lambda f: self._pool_done(f, shard, outer, breaks, pool)
        )

    def _pool_done(
        self, inner: Future, shard, outer: Future, breaks: int, pool
    ) -> None:
        if outer.cancelled():
            return
        try:
            exc = inner.exception()
        except CancelledError as cancelled:
            exc = cancelled
        if exc is None:
            self._settle(outer, result=inner.result())
        elif isinstance(exc, BrokenProcessPool):
            self._recover_break(shard, outer, breaks + 1, pool, exc)
        else:
            self._settle(outer, exc=exc)

    def _recover_break(
        self, shard, outer: Future, breaks: int, pool, exc: BaseException
    ) -> None:
        """A pool break reached *shard*: rebuild the pool (once -- every
        in-flight shard of the broken pool lands here) and re-run the
        shard -- on the shared pool while under the break limit, in an
        isolated probe pool once at it (a break fails every queued
        future, so a repeat offender may still be an innocent
        bystander of somebody else's kill)."""
        self._rebuild_pool(pool)
        if breaks >= self.pool_break_limit:
            self._isolate(shard, outer, breaks, exc)
        else:
            self._pool_attempt(shard, outer, breaks)

    def _isolate(
        self, shard, outer: Future, breaks: int, last: BaseException
    ) -> None:
        """Definitive poison test: re-run *shard* alone in a throwaway
        single-process pool.  Success (or an honest shard exception)
        settles the outer future; breaking the private pool convicts
        the shard and quarantines it with a :class:`PoisonShardError`.
        Runs on its own thread -- recovery callbacks fire on pool
        threads that must not block on a child process."""
        if outer.cancelled():
            return
        with self._lock:
            self._isolations += 1
        REGISTRY.inc("repro_shard_isolations_total")
        TRACER.instant(
            "pool.isolate",
            indices=list(getattr(shard, "indices", ()) or ()),
            breaks=breaks,
        )

        def probe() -> None:
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    result = solo.submit(_run_shard, shard).result()
            except BrokenProcessPool as exc:
                self._settle(
                    outer, exc=PoisonShardError(shard, breaks, exc)
                )
            except BaseException as exc:
                self._settle(outer, exc=exc)
            else:
                self._settle(outer, result=result)

        threading.Thread(
            target=probe, name="repro-shard-isolation", daemon=True
        ).start()

    def _rebuild_pool(self, broken_pool) -> None:
        """Discard *broken_pool* so the next :meth:`pool` call creates a
        fresh one.  Idempotent per broken pool: concurrent recovery
        callbacks (one per in-flight shard) rebuild at most once."""
        with self._lock:
            if self._closed or self._pool is not broken_pool:
                return
            self._pool = None
            self._pool_rebuilds += 1
        REGISTRY.inc("repro_pool_rebuilds_total")
        TRACER.instant("pool.rebuild")
        broken_pool.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> None:
        """Close the scheduler and tear down the pool (if one was ever
        created).  Further submissions raise; ``wait=False`` returns
        without joining the worker processes."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def describe(self) -> dict:
        """A JSON-able health snapshot: the pool block of the service's
        ``/healthz``."""
        with self._lock:
            return {
                "workers": self.workers,
                "live": self._pool is not None,
                "in_flight": self._in_flight,
                "shards_done": self._shards_done,
                "pool_rebuilds": self._pool_rebuilds,
                "shard_isolations": self._isolations,
            }

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
