"""Content-addressed campaign result cache (incremental re-verification).

The paper's methodology is iterative: the same IPs are re-verified
after every sensor-insertion or netlist change, yet a mutant's verdict
is a pure function of a small set of inputs.  This module captures
that function's domain as a **content-addressed key** so re-running a
campaign (or a whole cross-IP suite) replays previously-computed
:class:`~repro.mutation.analysis.MutantOutcome`s instantly and only
executes mutants invalidated by a *real* change.

Every TLM entry is keyed by the five components the verdict actually
depends on:

1. the **structural fingerprint** of the mutant-injected generated
   model (:func:`model_fingerprint`) -- the generated source with the
   ``MUTANTS`` table masked out, so editing one mutant spec does not
   invalidate its siblings' entries;
2. the **stimuli hash** (:func:`stimuli_hash`) and the **golden-trace
   hash** (:func:`golden_trace_hash`) -- the reference the mutant is
   judged against;
3. the **mutant spec** itself (kind, target signal, HF tick, monitored
   register) -- positional index is deliberately *not* part of the key
   (reordering the table must not invalidate), and cached outcomes are
   re-indexed on replay;
4. the **sensor type**;
5. the **judgement parameters** (the recovery bit, the Counter tap
   order).

RTL-validation entries are keyed analogously via
:func:`rtl_fingerprint` (emitted VHDL + back-annotated nominal delays
+ clocking) and :func:`rtl_entry_key`.  The kernel execution mode
(``compiled`` / ``interpreted``) is deliberately **excluded** from RTL
keys: the two modes are lockstep-equivalent by construction (see
:mod:`repro.rtl.compile` and ``tests/test_compiled_kernel.py``), so a
mode switch replays instead of re-executing.

The **golden trace** itself is cached too (:func:`golden_entry_key`):
it is a pure function of (golden-model structural fingerprint, stimuli
hash, sensor type, recovery bit), so a warm
:func:`~repro.mutation.campaign.prepare_campaign` replays it and skips
the per-campaign golden simulation entirely.  Whether the trace was
replayed or simulated is surfaced as
:attr:`~repro.mutation.analysis.MutationReport.golden_cache_hit` and
by :func:`repro.reporting.mutation_summary_pairs`.

Storage is one JSON object per entry under
``<root>/objects/<key[:2]>/<key>.json`` with atomic writes
(temp-file + ``os.replace``), so concurrent campaigns sharing a cache
directory never observe torn entries.  One :class:`ResultCache`
instance may be shared by many threads (the campaign service stores
every job's verdicts in one cache): lookups hit the filesystem directly
and the hit/miss counters are guarded by a lock.

Housekeeping is explicit, never implicit: entries are immutable and
correct forever, so nothing is ever evicted behind the user's back --
:meth:`ResultCache.stats` reports the entry count, byte footprint and
per-IP breakdown (the ``repro cache stats`` CLI and the service's
``/healthz`` endpoint), and :meth:`ResultCache.prune` garbage-collects
by age and/or byte budget (``repro cache prune``).

Determinism note: replayed outcomes are field-for-field identical to
freshly-executed ones (covered by ``tests/test_cache.py``), so a
cached report equals an uncached report on every scored field.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading

from ..faults import fault_point
from ..obs import REGISTRY, metadata_wall_clock, trace_span

__all__ = [
    "CACHE_SCHEMA",
    "ResultCache",
    "decode_golden_trace",
    "decode_outcome",
    "decode_rtl_outcome",
    "encode_golden_trace",
    "encode_outcome",
    "encode_rtl_outcome",
    "golden_entry_key",
    "golden_trace_hash",
    "model_fingerprint",
    "mutant_entry_key",
    "rtl_entry_key",
    "rtl_fingerprint",
    "stimuli_hash",
]

#: Bump to orphan every existing entry (schema is part of every key).
CACHE_SCHEMA = 1


def _digest(parts) -> str:
    """SHA-256 over a ``repr``-canonicalised tuple of key components."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Key components
# ---------------------------------------------------------------------------

_MUTANT_TABLE_PREFIX = "MUTANTS ="


def model_fingerprint(gen) -> str:
    """Structural fingerprint of a generated TLM model.

    Hashes the generated source with the ``MUTANTS`` table literal
    masked out (plus the class name, data-type variant and scheduler
    kind).  The mutant table is the *only* generated line that changes
    when a mutant spec is edited, so masking it gives per-mutant
    invalidation: the edited spec misses (its spec is part of the
    entry key), its siblings still hit.  Any other source change --
    new sensor, different LUT thresholds, different tap order --
    changes the fingerprint and invalidates every entry, as it must.
    """
    lines = [
        "<MUTANTS>" if line.lstrip().startswith(_MUTANT_TABLE_PREFIX)
        else line
        for line in gen.source.splitlines()
    ]
    return _digest(
        (gen.class_name, gen.variant, gen.scheduler_kind, "\n".join(lines))
    )


def stimuli_hash(stimuli) -> str:
    """Digest of a stimulus sequence (``name -> int`` vectors per
    cycle).  Key order inside a vector is canonicalised away; vector
    *sequence* order is significant."""
    return _digest(tuple(tuple(sorted(vec.items())) for vec in stimuli))


def golden_trace_hash(golden) -> str:
    """Digest of a :class:`~repro.mutation.analysis.GoldenTrace`.

    The golden trace already folds together the golden model, the
    stimuli, the sensor type and the recovery bit, so hashing it
    captures "the reference this mutant was judged against" in one
    component.
    """
    return _digest((
        golden.functional_ports,
        tuple(tuple(sorted(outs.items())) for outs in golden.full),
    ))


def _spec_key(spec) -> tuple:
    return (spec.kind, spec.target, spec.hf_tick, spec.register)


def mutant_entry_key(
    model_fp: str,
    stim_hash: str,
    golden_hash: str,
    sensor_type: str,
    spec,
    *,
    recovery: bool,
    tap_order=(),
) -> str:
    """Entry key for one TLM mutant verdict.

    The mutant's positional index is deliberately excluded: it does
    not influence the verdict (``MUTANTS[index]`` lookups read only
    the spec tuple), and replayed outcomes are re-indexed by the
    caller.
    """
    return _digest((
        "tlm",
        CACHE_SCHEMA,
        model_fp,
        stim_hash,
        golden_hash,
        sensor_type,
        _spec_key(spec),
        bool(recovery),
        tuple(tap_order),
    ))


def golden_entry_key(
    model_fp: str,
    stim_hash: str,
    sensor_type: str,
    *,
    recovery: bool,
) -> str:
    """Entry key for one memoised golden trace.

    The golden stream is a pure function of the *golden* model's
    structural fingerprint, the stimuli and the judgement inputs that
    shape the reference run (sensor type selects the recovery poke;
    the recovery bit is driven into Razor models) -- never of any
    mutant, so one entry serves every campaign against that reference.
    """
    return _digest((
        "golden",
        CACHE_SCHEMA,
        model_fp,
        stim_hash,
        sensor_type,
        bool(recovery),
    ))


def rtl_fingerprint(augmented) -> str:
    """Structural fingerprint of an augmented RTL design.

    Combines the emitted VHDL (the full structural rendering,
    including sensor-bank instances) with everything the simulator
    back-annotates outside the VHDL text: per-endpoint nominal delays,
    the main clock period, the HF ratio and -- for Counter banks --
    the per-tap LUT thresholds and CPS bit choices.
    """
    from repro.rtl import emit_vhdl

    taps = []
    for tap in augmented.bank.taps:
        entry = [tap.register.name, tap.endpoint.name, tap.nominal_delay_ps]
        if augmented.sensor_type == "counter":
            entry += [tap.lut_threshold, tap.cps_index]
        taps.append(tuple(entry))
    return _digest((
        "rtl",
        emit_vhdl(augmented.module),
        augmented.sensor_type,
        augmented.main_period_ps,
        augmented.hf_ratio,
        tuple(sorted(taps)),
    ))


def rtl_entry_key(rtl_fp: str, stim_hash: str, cycles: int, spec) -> str:
    """Entry key for one RTL-validation mutant verdict.  The literal
    ``0`` is the Razor recovery enable the testbench holds low; it
    stays in the key so existing entries keep matching."""
    return _digest((
        "rtl",
        CACHE_SCHEMA,
        rtl_fp,
        stim_hash,
        int(cycles),
        0,
        _spec_key(spec),
    ))


# ---------------------------------------------------------------------------
# Outcome (de)serialisation
# ---------------------------------------------------------------------------

def encode_outcome(outcome) -> dict:
    """JSON payload for a :class:`MutantOutcome` (all verdict fields;
    the positional index is stored for debugging but rewritten on
    replay)."""
    return {
        "index": outcome.index,
        "kind": outcome.kind,
        "target": outcome.target,
        "register": outcome.register,
        "hf_tick": outcome.hf_tick,
        "killed": outcome.killed,
        "detected": outcome.detected,
        "error_risen": outcome.error_risen,
        "corrected": outcome.corrected,
        "meas_val": outcome.meas_val,
        "first_divergence": outcome.first_divergence,
        "timed_out": outcome.timed_out,
    }


def decode_outcome(payload: dict, index: int):
    """Rebuild a :class:`MutantOutcome` from a cache payload, re-indexed
    to the mutant's *current* position in the table."""
    from .analysis import MutantOutcome

    return MutantOutcome(
        index=index,
        kind=payload["kind"],
        target=payload["target"],
        register=payload["register"],
        hf_tick=payload["hf_tick"],
        killed=payload["killed"],
        detected=payload["detected"],
        error_risen=payload["error_risen"],
        corrected=payload["corrected"],
        meas_val=payload["meas_val"],
        first_divergence=payload["first_divergence"],
        timed_out=payload["timed_out"],
    )


def encode_golden_trace(golden, ip: "str | None" = None) -> dict:
    """JSON payload for a :class:`~repro.mutation.analysis.GoldenTrace`
    (the ``ip`` tag feeds the per-IP cache statistics only)."""
    payload = {
        "entry": "golden",
        "functional_ports": list(golden.functional_ports),
        "full": [dict(outs) for outs in golden.full],
    }
    if ip is not None:
        payload["ip"] = ip
    return payload


def decode_golden_trace(payload: dict):
    """Rebuild a :class:`~repro.mutation.analysis.GoldenTrace` from a
    cache payload.  The rebuilt trace is content-identical to the
    simulated one, so :func:`golden_trace_hash` -- a component of every
    mutant entry key -- digests to the same value either way."""
    from .analysis import GoldenTrace, _functional

    functional_ports = tuple(payload["functional_ports"])
    full = tuple(dict(outs) for outs in payload["full"])
    return GoldenTrace(
        functional_ports=functional_ports,
        full=full,
        functional=tuple(
            _functional(outs, functional_ports) for outs in full
        ),
    )


def encode_rtl_outcome(outcome) -> dict:
    """JSON payload for an :class:`RtlMutantOutcome`."""
    spec = outcome.spec
    return {
        "index": outcome.index,
        "spec": {
            "kind": spec.kind,
            "target": spec.target,
            "hf_tick": spec.hf_tick,
            "register": spec.register,
        },
        "error_risen": outcome.error_risen,
        "meas_val": outcome.meas_val,
    }


def decode_rtl_outcome(payload: dict, index: int):
    """Rebuild an :class:`RtlMutantOutcome` from a cache payload."""
    from repro.abstraction.codegen import MutantSpec

    from .rtl_validation import RtlMutantOutcome

    spec = payload["spec"]
    return RtlMutantOutcome(
        spec=MutantSpec(
            kind=spec["kind"],
            target=spec["target"],
            hf_tick=spec["hf_tick"],
            register=spec["register"],
        ),
        error_risen=payload["error_risen"],
        meas_val=payload["meas_val"],
        index=index,
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ResultCache:
    """Persistent, content-addressed store of mutant verdicts.

    Args:
        root: cache directory (created lazily on first write).

    Entries are immutable by construction (the key digests every input
    of the computation), so there is no eviction or coherence
    protocol: a key either resolves to the one correct payload or is
    absent.  Writes are atomic (temp file + ``os.replace``); a torn or
    corrupt file reads as a miss and is rewritten.

    The instance counts its own ``hits`` / ``misses`` cumulatively
    (lock-guarded -- one cache may serve many service job threads);
    per-campaign counts are reported by
    :class:`~repro.mutation.MutationReport.cache_hits` /
    ``cache_misses`` on each report.
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt_quarantined = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key + ".json")

    def _quarantine(self, path: str) -> None:
        """Move a corrupted/truncated entry aside (``<entry>.corrupt``)
        so it reads as a clean miss from now on and a later campaign
        rewrites it, while the evidence survives for forensics.  The
        ``.corrupt`` suffix keeps it invisible to every store walk
        (``__len__`` / ``stats`` / ``prune`` filter on ``.json``)."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass  # pruned or quarantined concurrently
        with self._lock:
            self.corrupt_quarantined += 1

    def get(self, key: str) -> "dict | None":
        """Payload stored under ``key``, or ``None`` (a miss).  Updates
        the hit/miss counters.  A corrupted or truncated entry (torn
        write survived by a crash, bit rot) is quarantined and counts
        as a miss -- it must never escape as a ``ValueError``
        mid-campaign."""
        with trace_span("cache.get", key=key[:12]):
            path = self._path(key)
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except OSError:
                payload = None
            except ValueError:
                payload = None
                self._quarantine(path)
        with self._lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        if payload is None:
            REGISTRY.inc("repro_cache_misses_total")
        else:
            REGISTRY.inc("repro_cache_hits_total")
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` (atomic on disk)."""
        corrupt = fault_point("cache.corrupt_entry") is not None
        path = self._path(key)
        with trace_span("cache.put", key=key[:12]):
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    text = json.dumps(payload, sort_keys=True)
                    if corrupt:
                        # A torn write: half the JSON, atomically
                        # renamed into place like the real thing.
                        text = text[: max(1, len(text) // 2)]
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def probe(self, keys, decode):
        """Look up a whole campaign's entry keys at once.

        ``decode(payload, index)`` rebuilds the outcome for position
        ``index`` (e.g. :func:`decode_outcome` /
        :func:`decode_rtl_outcome`).  Returns
        ``(cached_outcomes, miss_indices)`` -- the shared probe step
        of :func:`repro.mutation.campaign.prepare_campaign` and
        :func:`repro.mutation.rtl_validation.prepare_rtl_validation`,
        so their hit/miss semantics cannot drift apart.
        """
        cached = []
        miss_indices = []
        for index, key in enumerate(keys):
            payload = self.get(key)
            if payload is None:
                miss_indices.append(index)
            else:
                cached.append(decode(payload, index))
        return cached, miss_indices

    def __len__(self) -> int:
        """Number of stored entries (walks the store)."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return 0
        return sum(
            len([f for f in files if f.endswith(".json")])
            for _, _, files in os.walk(objects)
        )

    # -- housekeeping -----------------------------------------------------

    def _entries(self):
        """``(path, size_bytes, mtime)`` for every stored entry, oldest
        first.  Sizes and times come from ``stat`` (no payload read)."""
        rows = []
        objects = os.path.join(self.root, "objects")
        if os.path.isdir(objects):
            for dirpath, _, files in os.walk(objects):
                for name in files:
                    if not name.endswith(".json"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        st = os.stat(path)
                    except OSError:
                        continue  # pruned concurrently
                    rows.append((path, st.st_size, st.st_mtime))
        rows.sort(key=lambda r: (r[2], r[0]))
        return rows

    @staticmethod
    def _entry_ip(path: str) -> str:
        """The ``ip`` tag of one entry (``"(untagged)"`` for entries
        written before tagging existed, or by ad-hoc campaigns)."""
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {}
        return payload.get("ip") or "(untagged)"

    def stats(self) -> dict:
        """Store-wide statistics: entry count, byte footprint and the
        per-IP breakdown.  Shared by ``repro cache stats`` and the
        service's ``/healthz`` endpoint."""
        per_ip: "dict[str, dict]" = {}
        entries = 0
        total_bytes = 0
        for path, size, _ in self._entries():
            entries += 1
            total_bytes += size
            bucket = per_ip.setdefault(
                self._entry_ip(path), {"entries": 0, "bytes": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += size
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "per_ip": per_ip,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_quarantined": self.corrupt_quarantined,
        }

    @staticmethod
    def _remove(path: str, *, newer_than: "float | None" = None) -> bool:
        """Delete one entry; returns whether anything was deleted.

        ``newer_than`` is the prune scan-start guard: an entry whose
        write time is at or after it is left alone (it was written --
        or re-written by a concurrent campaign -- after the scan
        decided its fate, so the scan's age/size data for it is
        stale).  An entry that vanished since the scan (pruned by a
        concurrent process) reports ``False`` instead of raising.
        """
        try:
            if newer_than is not None and \
                    os.stat(path).st_mtime >= newer_than:
                return False  # re-written after the scan started
            os.unlink(path)
        except OSError:
            return False  # vanished mid-scan
        return True

    def prune(
        self,
        *,
        max_bytes: "int | None" = None,
        older_than_s: "float | None" = None,
    ) -> dict:
        """Garbage-collect the store.

        ``older_than_s`` removes every entry last written more than
        that many seconds ago; ``max_bytes`` then evicts the *oldest*
        remaining entries until the store fits the budget (entries are
        immutable and re-creatable, so oldest-first is safe -- a
        pruned verdict simply re-executes on its next campaign).
        Returns removed/kept entry and byte counts.

        Pruning is safe against concurrent writers and other pruners:
        entries that vanish between the scan and the delete are
        skipped (not errors), and no entry written at or after the
        scan start is ever deleted -- each candidate's write time is
        re-checked immediately before removal, so a verdict a live
        campaign just stored cannot be swept out from under it by a
        prune that scanned stale metadata.
        """
        # GC age accounting against file mtimes -- never a verdict
        # input.
        scan_start = metadata_wall_clock()
        cutoff = (
            scan_start - older_than_s if older_than_s is not None else None
        )
        removed_entries = removed_bytes = 0
        survivors = []
        for path, size, mtime in self._entries():
            if cutoff is not None and mtime < cutoff and \
                    self._remove(path, newer_than=scan_start):
                removed_entries += 1
                removed_bytes += size
            else:
                survivors.append((path, size))
        if max_bytes is not None:
            kept_bytes = sum(size for _, size in survivors)
            remaining = []
            for path, size in survivors:   # oldest first
                if kept_bytes > max_bytes and \
                        self._remove(path, newer_than=scan_start):
                    removed_entries += 1
                    removed_bytes += size
                    kept_bytes -= size
                else:
                    remaining.append((path, size))
            survivors = remaining
        return {
            "removed_entries": removed_entries,
            "removed_bytes": removed_bytes,
            "kept_entries": len(survivors),
            "kept_bytes": sum(size for _, size in survivors),
        }
