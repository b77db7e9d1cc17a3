"""Multi-tenant certainty serving: tenants, admission control, deferred views.

The serving layer on top of the engine (conf_pods_Wijsen13).  The paper's
trichotomy — ``CERTAINTY(q)`` is FO, PTIME-complete, or coNP-complete
depending only on the query shape — becomes an *admission policy*:

* :class:`CertaintyService` — hosts isolated :class:`Tenant` objects (each
  a private :class:`~repro.store.intern.InternTable`, database, session,
  and view manager) behind one shared worker pool;
* :class:`~repro.service.admission.AdmissionController` — classifies each
  submitted query once and routes the FO band inline (hot compiled path)
  while dispatching PTIME/coNP bands onto bounded background workers with
  per-tenant queue-depth caps;
* deferred views — tenant mutations merge into one pending changelog,
  which the next view read delivers, so a view read equals a cold
  recompute.
"""

from .admission import (
    INLINE,
    QUEUED,
    AdmissionController,
    AdmissionRejected,
    AdmissionStats,
    AdmissionTicket,
    AnswerSet,
    CancelledError,
    CircuitOpen,
)
from .service import CertaintyService
from .tenant import Tenant

__all__ = [
    "INLINE",
    "QUEUED",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionStats",
    "AdmissionTicket",
    "AnswerSet",
    "CancelledError",
    "CertaintyService",
    "CircuitOpen",
    "Tenant",
]
