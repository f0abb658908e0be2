"""Async campaign service: job queue, streaming HTTP API and client.

The batch flow (``repro flow|mutate|bench``) runs one invocation and
exits; this package turns it into a **long-running daemon** in the
shape the ROADMAP's production north star needs: many concurrent
users submit campaign jobs over HTTP, one server process executes
them on a single shared :class:`~repro.mutation.CampaignScheduler`
worker pool, and every client streams per-shard progress live.

Four modules:

* :mod:`repro.service.jobs` -- the job model: :class:`JobSpec` (an
  IP x sensor x mutation/judgement-parameter work order),
  :class:`JobRecord` (its queued -> running -> done/aborted/failed
  lifecycle) and :class:`JobStore` (JSON persistence next to the
  :class:`~repro.mutation.ResultCache`, so a restarted server still
  serves every finished report);
* :mod:`repro.service.api` -- the wire format: report and event
  (de)serialisation shared verbatim by server and client, so a
  streamed report decodes field-for-field equal to a direct
  :func:`~repro.mutation.run_campaign`;
* :mod:`repro.service.server` -- :class:`CampaignService` (the
  asyncio bridge pumping shard completions from campaign worker
  threads onto the event loop via ``loop.call_soon_threadsafe``) and
  :class:`ServiceServer` (a stdlib-only HTTP/1.1 front end on
  :func:`asyncio.start_server`);
* :mod:`repro.service.client` -- :class:`ServiceClient`, a stdlib
  ``http.client`` consumer of the same wire format, behind the
  ``repro submit|status|watch|cancel`` CLI (idempotent GETs retry,
  event streams reconnect and deduplicate the history replay).

No dependency beyond the standard library, matching the rest of the
repository.
"""

from .api import decode_report, encode_report
from .client import ServiceClient, ServiceError
from .jobs import JOB_STATUSES, JobRecord, JobSpec, JobStore
from .server import CampaignService, ServiceServer

#: Default TCP port of ``repro serve`` (pass ``--port 0`` for an
#: ephemeral one).
DEFAULT_PORT = 8731

__all__ = [
    "DEFAULT_PORT",
    "JOB_STATUSES",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "CampaignService",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "decode_report",
    "encode_report",
]
