"""Deterministic fault injection: seeded plans, named sites, cheap hooks.

The robustness contract of this codebase is differential: every certain
answer served under failure must equal a fault-free sequential recompute.
Exercising that contract needs failures that are **deterministic and
replayable** — a flaky chaos test is worse than none — so faults here are
scheduled, never random at fire time:

* a :class:`FaultSpec` names one failure: a *site* (a dotted string naming
  a hook point compiled into the production code), a *kind* (what the site
  should do when the fault fires), and an arrival window (*at*, *count*)
  counted in per-site invocations;
* a :class:`FaultPlan` is an immutable schedule of specs.
  :meth:`FaultPlan.random` derives one deterministically from a seed, so a
  chaos harness can sweep seeds and every failing schedule reproduces from
  its seed alone;
* a :class:`FaultInjector` holds the plan plus thread-safe per-site
  arrival counters and a ``fired`` log, installed process-wide with
  :func:`install` / :func:`inject`.

Hook points call :func:`fire` — one module-global read and an ``is None``
test when no injector is installed, so production hot paths pay nothing.
Sites and the kinds they honour:

===========================  ==========================================
``shard.worker.command``     ``kill`` (``os._exit`` before handling a
                             command), ``stall`` (sleep *delay* seconds —
                             exercises dispatch deadlines)
``shard.worker.delta``       ``kill`` *between* the intern-suffix extend
                             and the row application of a delta flush —
                             the watermark-consistency crash window
``shard.pipe``               ``drop`` (the parent closes the worker pipe
                             before sending a dispatch-time command;
                             bootstrap sends do not count as arrivals)
``wal.write``                ``torn`` (only a prefix of the frame lands,
                             then the append raises ``OSError``)
``wal.fsync``                ``error`` (``fsync`` raises ``OSError``)
``segment.fsync``            ``error`` (tmp-file fsync raises)
``segment.rename``           ``error`` (the checkpoint dies between the
                             tmp write and the atomic rename)
``service.queued``           ``error`` / ``stall`` for queued-band
                             admission work (feeds the circuit breaker)
===========================  ==========================================

Shard-worker sites run in *worker processes*: the parent ships the
matching specs at spawn time (:func:`worker_fault_specs`) and each worker
installs its own injector, so arrival counters are per process — still
deterministic, because worker command streams are.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple


class InjectedFault(OSError):
    """The error raised by ``error``/``torn`` faults.

    An ``OSError`` subclass on purpose: the production hardening paths
    (WAL re-open on fsync failure, checkpoint tmp sweeps, worker-failure
    containment) must treat an injected failure exactly like a real one,
    so injection raises through the same ``except OSError`` clauses.
    """


class FaultSpec(NamedTuple):
    """One scheduled failure at one hook site.

    ``site``/``kind`` name the hook point and its behaviour (see the
    module docstring); the fault fires on arrivals ``at .. at+count-1``
    at that site (1-based; ``count=0`` means every arrival from *at* on).
    ``delay`` parameterises ``stall`` kinds; ``shard`` restricts
    shard-runtime sites to one worker (``None`` matches all).
    """

    site: str
    kind: str
    at: int = 1
    count: int = 1
    delay: float = 0.0
    shard: Optional[int] = None

    def matches(self, arrival: int, shard: Optional[int]) -> bool:
        if self.shard is not None and self.shard != shard:
            return False
        if arrival < self.at:
            return False
        return self.count == 0 or arrival < self.at + self.count


#: The site catalogue :meth:`FaultPlan.random` draws from.
SITE_KINDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("shard.worker.command", ("kill", "stall")),
    ("shard.worker.delta", ("kill",)),
    ("shard.pipe", ("drop",)),
    ("wal.write", ("torn",)),
    ("wal.fsync", ("error",)),
    ("segment.fsync", ("error",)),
    ("segment.rename", ("error",)),
    ("service.queued", ("error",)),
)


class FaultPlan:
    """An immutable, seed-reproducible schedule of :class:`FaultSpec` s."""

    __slots__ = ("specs", "seed")

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: Optional[int] = None) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Optional[Sequence[str]] = None,
        events: int = 3,
        horizon: int = 8,
        n_shards: Optional[int] = None,
    ) -> "FaultPlan":
        """A deterministic schedule derived from *seed* alone.

        Draws *events* specs over the first *horizon* arrivals of the
        chosen *sites* (default: the full catalogue).  When *n_shards* is
        given, shard-runtime faults pin a concrete shard, so a schedule
        names exactly which worker dies and when.
        """
        rng = random.Random(seed)
        catalogue = [
            (site, kinds)
            for site, kinds in SITE_KINDS
            if sites is None or site in sites
        ]
        if not catalogue:
            raise ValueError(f"no known fault sites among {sites!r}")
        specs: List[FaultSpec] = []
        for _ in range(events):
            site, kinds = catalogue[rng.randrange(len(catalogue))]
            kind = kinds[rng.randrange(len(kinds))]
            shard = None
            if n_shards is not None and site.startswith("shard."):
                shard = rng.randrange(n_shards)
            specs.append(
                FaultSpec(
                    site=site,
                    kind=kind,
                    at=rng.randrange(1, horizon + 1),
                    count=1,
                    delay=0.05 if kind == "stall" else 0.0,
                    shard=shard,
                )
            )
        return cls(specs, seed=seed)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.specs)} specs, seed={self.seed})"


class FaultInjector:
    """Thread-safe arrival counting and firing for one :class:`FaultPlan`."""

    __slots__ = ("plan", "fired", "_arrivals", "_lock")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Every fault that actually fired: ``(site, kind, arrival)``.
        self.fired: List[Tuple[str, str, int]] = []
        self._arrivals: dict = {}
        self._lock = threading.Lock()

    def fire(self, site: str, shard: Optional[int] = None) -> Optional[FaultSpec]:
        with self._lock:
            arrival = self._arrivals.get(site, 0) + 1
            self._arrivals[site] = arrival
            for spec in self.plan.specs:
                if spec.site == site and spec.matches(arrival, shard):
                    self.fired.append((site, spec.kind, arrival))
                    return spec
        return None

    def arrivals(self, site: str) -> int:
        """How many times *site* has been reached under this injector."""
        with self._lock:
            return self._arrivals.get(site, 0)

    def __repr__(self) -> str:
        return f"FaultInjector({self.plan!r}, fired={len(self.fired)})"


_INJECTOR: Optional[FaultInjector] = None


def install(plan: FaultPlan) -> FaultInjector:
    """Install *plan* process-wide; returns its injector (replaces any prior)."""
    global _INJECTOR
    injector = FaultInjector(plan)
    _INJECTOR = injector
    return injector


def clear() -> None:
    """Remove the installed injector (hook points go back to no-ops)."""
    global _INJECTOR
    _INJECTOR = None


def active_injector() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None``."""
    return _INJECTOR


def fire(site: str, shard: Optional[int] = None) -> Optional[FaultSpec]:
    """Consult the installed injector at a hook site (``None`` = no fault).

    This is the call compiled into production code paths; with no
    injector installed it costs one global read.
    """
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.fire(site, shard)


@contextmanager
def inject(plan: FaultPlan):
    """Install *plan* for the duration of a ``with`` block.

    Restores whatever injector (usually none) was active before, so
    chaos tests can nest setup without leaking schedules into later
    tests.
    """
    global _INJECTOR
    previous = _INJECTOR
    injector = FaultInjector(plan)
    _INJECTOR = injector
    try:
        yield injector
    finally:
        _INJECTOR = previous


def worker_fault_specs(n_shards: Optional[int] = None) -> Tuple[FaultSpec, ...]:
    """The active plan's shard-worker-process specs (shipped at spawn time).

    Worker processes cannot see the parent's injector (forkserver start
    method), so the shard runtime passes these through the process
    arguments and each worker installs a local injector over them.
    """
    injector = _INJECTOR
    if injector is None:
        return ()
    return tuple(
        spec
        for spec in injector.plan.specs
        if spec.site.startswith("shard.worker")
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
