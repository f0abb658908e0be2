"""Deterministic fault injection: the chaos plane of the runner.

The paper's premise is hardware that *detects and recovers from* its
own timing faults via embedded monitors.  This module gives the
campaign runner the software analogue: named **injection sites**
threaded through the execution stack (local pool, result cache, job
server), driven by a seeded
:class:`FaultPlan` whose every decision derives from
``(seed, site, hit_count)`` -- never from wall-clock time or a shared
RNG -- so a chaos run is exactly reproducible from its spec string.

Sites wired today (see ``docs/chaos.md`` for the full matrix):

========================  ====================================================
site                      effect when the plan fires
========================  ====================================================
``pool.break_worker``     the local pool executes ``os._exit`` instead of the
                          shard -> a real ``BrokenProcessPool`` for the
                          supervisor to heal (pool rebuild + shard retry)
``cache.corrupt_entry``   a cache write stores truncated JSON -> quarantined
                          to ``.corrupt`` on next read, degraded to a miss
``server.crash.mid_job``  the job runner dies between shard batches --
                          ``os._exit`` when the plan allows it (daemon runs),
                          a loud :class:`FaultInjectionError` otherwise ->
                          restart re-queues and resumes warm from the cache
``job.hold``              the job runner parks at job start and at each
                          shard-batch boundary until the site is released
                          (:meth:`FaultPlan.release`), the job is cancelled
                          or the service closes (bounded by
                          :attr:`FaultPlan.hang_seconds`) -> tests attach
                          to a job's stream, or cancel it, at a fixed point
========================  ====================================================

Activation is ambient and process-local: tests install a plan with
:func:`active_plan` (a context manager), daemons via
``repro serve --fault-plan SPEC`` or the ``REPRO_FAULT_PLAN``
environment variable.  Instrumented code asks :func:`fault_point`
(a no-op ``False`` when no plan is active, i.e. always, in
production).
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FaultInjectionError",
    "FaultPlan",
    "FaultRule",
    "KNOWN_SITES",
    "active_plan",
    "fault_point",
    "get_fault_plan",
    "set_fault_plan",
]

#: Injection sites the codebase is instrumented with.  A plan may name
#: other sites (forward compatibility) -- they parse fine and simply
#: never fire.
KNOWN_SITES = (
    "pool.break_worker",
    "cache.corrupt_entry",
    "server.crash.mid_job",
    "job.hold",
)


class FaultInjectionError(RuntimeError):
    """An injected fault surfaced as a loud, structured failure.

    Carries a machine-readable :attr:`diagnostic` naming the fault so
    chaos harnesses (and the CI artifact) can distinguish "the plan
    fired and the system failed *loudly*" from a silent truncation.
    """

    def __init__(self, site: str, seed: int, hit: int, detail: str = ""):
        self.site = site
        self.seed = seed
        self.hit = hit
        self.diagnostic = {
            "fault": site,
            "seed": seed,
            "hit": hit,
            "detail": detail,
        }
        message = f"injected fault {site!r} (seed={seed}, hit={hit})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def _parse_hits(text: str) -> frozenset:
    """``"2"`` / ``"1+3"`` / ``"2-4"`` -> the 1-based hit numbers."""
    hits = set()
    for part in text.split("+"):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            hits.update(range(int(lo), int(hi) + 1))
        else:
            hits.add(int(part))
    if not hits or min(hits) < 1:
        raise ValueError(f"hit numbers must be >= 1: {text!r}")
    return frozenset(hits)


@dataclass(frozen=True)
class FaultRule:
    """When one site fires.  Three forms, combinable:

    * ``always`` -- every hit fires;
    * ``hits`` -- explicit 1-based hit numbers (``{2}``: the second
      time execution reaches the site);
    * ``rate`` -- each hit fires with this probability, decided by the
      plan's deterministic ``(seed, site, hit)`` hash, not an RNG.

    ``max_fires`` caps the total firings of the site (so a rate-based
    rule cannot starve a bounded-retry recovery path forever).
    """

    always: bool = False
    hits: frozenset = field(default_factory=frozenset)
    rate: float = 0.0
    max_fires: "int | None" = None

    @classmethod
    def parse(cls, text: str) -> "FaultRule":
        """``"always"`` | ``"p0.25"`` | ``"2"`` | ``"1+3"`` | ``"2-4"``,
        each optionally suffixed ``"xN"`` for ``max_fires=N``."""
        text = text.strip()
        max_fires = None
        if "x" in text:
            text, _, cap = text.rpartition("x")
            max_fires = int(cap)
        if text in ("always", "*"):
            return cls(always=True, max_fires=max_fires)
        if text.startswith("p"):
            rate = float(text[1:])
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate must be in [0, 1]: {rate}")
            return cls(rate=rate, max_fires=max_fires)
        return cls(hits=_parse_hits(text), max_fires=max_fires)

    def describe(self) -> str:
        if self.always:
            base = "always"
        elif self.rate:
            base = f"p{self.rate:g}"
        else:
            base = "+".join(str(h) for h in sorted(self.hits))
        if self.max_fires is not None:
            base += f"x{self.max_fires}"
        return base


class FaultPlan:
    """A seeded schedule of fault firings, reproducible from its spec.

    Every decision is a pure function of ``(seed, site, hit_count)``:
    the plan keeps one monotonically increasing hit counter per site
    (thread-safe -- sites are reached from pool callbacks, job
    threads and the asyncio loop alike) and hashes
    ``"{seed}:{site}:{hit}"`` for rate-based rules.  Two runs with the
    same plan and the same site traversal order make identical
    decisions; there is no wall-clock or OS randomness anywhere.
    """

    def __init__(
        self,
        seed: int = 0,
        rules: "dict[str, FaultRule] | None" = None,
        *,
        hang_seconds: float = 30.0,
        allow_exit: bool = False,
    ) -> None:
        self.seed = int(seed)
        self.rules = dict(rules or {})
        #: Upper bound of a ``job.hold`` park, so an in-process test
        #: harness is never wedged forever by its own injected hold.
        self.hang_seconds = float(hang_seconds)
        #: Whether ``server.crash.mid_job`` may ``os._exit`` the
        #: process.  Only the ``repro serve`` entry point (a dedicated
        #: daemon process) sets this; in-process plans raise a
        #: :class:`FaultInjectionError` instead so a test run survives.
        self.allow_exit = allow_exit
        self._lock = threading.Lock()
        self._hits: "dict[str, int]" = {}
        self._fires: "dict[str, int]" = {}
        #: Hold sites opened by :meth:`release`; parked threads wait on
        #: ``_parked`` (which shares ``_lock``).
        self._released: "set[str]" = set()
        self._parked = threading.Condition(self._lock)

    # -- the decision function ------------------------------------------

    def _fraction(self, site: str, hit: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{site}:{hit}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def should_fire(self, site: str) -> bool:
        """Record one hit of *site* and decide whether it fires."""
        rule = self.rules.get(site)
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            if rule is None:
                return False
            fire = (
                rule.always
                or hit in rule.hits
                or (rule.rate > 0.0 and self._fraction(site, hit) < rule.rate)
            )
            if fire and rule.max_fires is not None:
                if self._fires.get(site, 0) >= rule.max_fires:
                    fire = False
            if fire:
                self._fires[site] = self._fires.get(site, 0) + 1
            return fire

    def hold(self, site: str, cancelled: threading.Event) -> None:
        """Park the calling thread at a fired hold site until
        :meth:`release` opens the site, ``cancelled`` is set (its owner
        then calls :meth:`wake`), or :attr:`hang_seconds` pass."""
        with self._parked:
            self._parked.wait_for(
                lambda: site in self._released or cancelled.is_set(),
                timeout=self.hang_seconds,
            )

    def release(self, site: str) -> None:
        """Open a hold site for good: every thread parked there
        resumes, and later firings no longer park."""
        with self._parked:
            self._released.add(site)
            self._parked.notify_all()

    def wake(self) -> None:
        """Have parked threads re-check their ``cancelled`` events."""
        with self._parked:
            self._parked.notify_all()

    def error(self, site: str, detail: str = "") -> FaultInjectionError:
        """A structured error naming the firing that just happened."""
        with self._lock:
            hit = self._hits.get(site, 0)
        return FaultInjectionError(site, self.seed, hit, detail)

    # -- observability ---------------------------------------------------

    def stats(self) -> dict:
        """Per-site hit/fire counters, JSON-able (chaos diagnostics)."""
        with self._lock:
            sites = {}
            for site in sorted(set(self._hits) | set(self.rules)):
                rule = self.rules.get(site)
                sites[site] = {
                    "rule": rule.describe() if rule else None,
                    "hits": self._hits.get(site, 0),
                    "fires": self._fires.get(site, 0),
                }
        return {"seed": self.seed, "sites": sites}

    def describe(self) -> str:
        """The canonical spec string (parseable by :meth:`from_spec`)."""
        parts = [f"seed={self.seed}"]
        for site in sorted(self.rules):
            parts.append(f"{site}={self.rules[site].describe()}")
        if self.hang_seconds != 30.0:
            parts.append(f"hang={self.hang_seconds:g}")
        return ";".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.describe()!r})"

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, *, allow_exit: bool = False) -> "FaultPlan":
        """Parse ``"seed=7;pool.break_worker=1;cache.corrupt_entry=p0.25"``.

        Assignments are ``;``-separated.  ``seed=N`` seeds the decision
        hash (default 0); ``hang=SECONDS`` bounds ``job.hold`` parks;
        every other assignment is
        ``site=RULE`` with ``RULE`` as accepted by
        :meth:`FaultRule.parse`.
        """
        seed = 0
        hang_seconds = 30.0
        rules: "dict[str, FaultRule]" = {}
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(
                    f"fault plan assignment needs '=': {chunk!r}"
                )
            key, value = (s.strip() for s in chunk.split("=", 1))
            if key == "seed":
                seed = int(value)
            elif key in ("hang", "hang_seconds"):
                hang_seconds = float(value)
            else:
                rules[key] = FaultRule.parse(value)
        return cls(
            seed, rules, hang_seconds=hang_seconds, allow_exit=allow_exit
        )


# -- the ambient plan ----------------------------------------------------

_active: "FaultPlan | None" = None
_env_checked = False
_ambient_lock = threading.Lock()


def set_fault_plan(plan: "FaultPlan | None") -> "FaultPlan | None":
    """Install *plan* as this process's ambient plan; returns the
    previous one.  ``None`` disables injection (the production state)."""
    global _active, _env_checked
    with _ambient_lock:
        previous = _active
        _active = plan
        _env_checked = True  # an explicit install wins over the env
        return previous


def get_fault_plan() -> "FaultPlan | None":
    """The ambient plan, honouring ``REPRO_FAULT_PLAN`` on first use."""
    global _active, _env_checked
    with _ambient_lock:
        if not _env_checked:
            _env_checked = True
            spec = os.environ.get("REPRO_FAULT_PLAN", "").strip()
            if spec:
                _active = FaultPlan.from_spec(spec, allow_exit=True)
        return _active


def fault_point(site: str) -> "FaultPlan | None":
    """The one-line hook instrumented code calls: returns the ambient
    plan when *site* fires (truthy -- use :meth:`FaultPlan.error` on it
    for diagnostics), ``None`` otherwise.  With no plan installed this
    is a dictionary miss and a ``None`` return: safe on hot paths."""
    plan = get_fault_plan()
    if plan is not None and plan.should_fire(site):
        return plan
    return None


@contextmanager
def active_plan(plan: FaultPlan):
    """Scoped installation for tests: restores the previous plan."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)
