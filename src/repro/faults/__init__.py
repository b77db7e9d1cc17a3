"""Deterministic fault injection for the certainty-serving stack.

See :mod:`repro.faults.plan` for the site catalogue and semantics.  The
one-line summary: seeded :class:`FaultPlan` schedules (worker kills,
dispatch stalls, pipe drops, torn WAL writes, fsync failures, checkpoint
interruptions) fire at named hook points threaded through the shard
runtime, the durability tier, and the service — and
the containment machinery they exercise must keep every served certain
answer identical to a fault-free sequential recompute.
"""

from .plan import (
    SITE_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_injector,
    clear,
    fire,
    inject,
    install,
    worker_fault_specs,
)

__all__ = [
    "SITE_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_injector",
    "clear",
    "fire",
    "inject",
    "install",
    "worker_fault_specs",
]
