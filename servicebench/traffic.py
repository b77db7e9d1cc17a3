"""Pre-recorded, seeded traffic for the service benchmark.

Every workload is generated in full from ``--seed`` before any timing
starts: the tenants' initial facts and, per client thread, the ordered list
of operations that thread will issue.  Nothing here iterates a hash-ordered
collection while drawing from the RNG — shadow fact sets are kept as lists
with a position map — so a seed names the same workload in every process,
whatever ``PYTHONHASHSEED`` is (:func:`fingerprint` makes that checkable).

An operation is a tuple ``(tenant_index, kind, payload)``:

``"lookup"``  FO Boolean point lookup (payload: the grounded query)
``"scan"``    FO open-query ``certain_answers`` (payload: the query)
``"queued"``  PTIME / coNP Boolean read, served by the worker pool
``"view"``    ``Tenant.view_answers`` of the tenant's registered view, with
              writes pending since the tenant's previous view read
``"view_clean"`` the same read with nothing to flush (checked, not timed
              into a class: its near-zero latency would put the read median
              on the edge between two modes)
``"write"``   ``CertaintyService.apply`` (payload: ``(batch, checkpoint)``)
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.atoms import Fact, RelationSchema
from repro.query import parse_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.families import cycle_query_c, figure2_q1, figure4_query

#: Operation kinds, grouped into the three latency classes the benchmark reports.
OP_CLASS = {
    "scan": "scan",
    "lookup": "read",
    "queued": "read",
    "view": "read",
    "view_clean": None,
    "write": "write",
}

#: Client threads (one per CPU of the 2-CPU reference box); each owns a
#: disjoint set of tenants, so every tenant's operation order is fixed.
CLIENT_THREADS = 2

#: Operations pre-recorded per client thread and second of run time — far
#: above any rate the service reaches, so a run never exhausts its trace.
OPS_PER_THREAD_SECOND = 600

Op = Tuple[int, str, object]

P1, P2, P3 = (RelationSchema(f"P{i}", 2, 1) for i in (1, 2, 3))
R_REL = RelationSchema("R", 2, 1)
S_REL = RelationSchema("S", 2, 1)

PATH_SCAN = parse_query("P1(x1 | x2), P2(x2 | x3), P3(x3 | x4)", free=["x1"])
#: Co-keyed with its single free variable: block-hash sharding keeps its
#: candidates shard-local, so the sharded workload decides on the shards.
COKEYED_SCAN = parse_query("R(x | y), S(x | 'ok')", free=["x"])


def lookup_query(key: int) -> ConjunctiveQuery:
    """The FO Boolean point lookup rooted at chain ``s<key>``."""
    return parse_query(f"P1('s{key}' | x2), P2(x2 | x3), P3(x3 | x4)")


class Shadow:
    """An insertion-ordered set with O(1) add, discard and random pick."""

    __slots__ = ("items", "_pos")

    def __init__(self, items: Sequence = ()) -> None:
        self.items: List = []
        self._pos: Dict = {}
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item) -> bool:
        return item in self._pos

    def add(self, item) -> bool:
        if item in self._pos:
            return False
        self._pos[item] = len(self.items)
        self.items.append(item)
        return True

    def discard(self, item) -> bool:
        index = self._pos.pop(item, None)
        if index is None:
            return False
        last = self.items.pop()
        if index < len(self.items):
            self.items[index] = last
            self._pos[last] = index
        return True

    def pick(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


class Deck:
    """Draws from a fixed multiset, reshuffled every round.

    Proportions are exact over each round, so two seeds give the same mix
    in a different order — seed-to-seed spread then comes from the service,
    not from sampling noise in the mix.
    """

    def __init__(self, rng: random.Random, cards: Sequence) -> None:
        self.rng = rng
        self.cards = list(cards)
        self.next = len(self.cards)

    def draw(self):
        if self.next == len(self.cards):
            self.rng.shuffle(self.cards)
            self.next = 0
        self.next += 1
        return self.cards[self.next - 1]


def zipf_cum_weights(ranks: Sequence[int], skew: float) -> List[float]:
    """Cumulative Zipf weights ``1/(rank+1)^skew`` for the given 0-based ranks."""
    total, cum = 0.0, []
    for rank in ranks:
        total += 1.0 / (rank + 1) ** skew
        cum.append(total)
    return cum


class TenantSpec:
    """One tenant: its band, initial facts, and the queries it serves."""

    __slots__ = ("name", "band", "facts", "view_query", "warm")

    def __init__(self, name, band, facts, view_query=None, warm=()):
        self.name = name
        self.band = band
        self.facts: List[Fact] = facts
        self.view_query: Optional[ConjunctiveQuery] = view_query
        #: ``(kind, query)`` warm-up reads, one per query shape, run at set-up.
        self.warm: Tuple[Tuple[str, ConjunctiveQuery], ...] = tuple(warm)


class Workload:
    """A complete pre-recorded workload: tenants, per-thread traces, config."""

    __slots__ = ("name", "seed", "tenants", "threads", "service")

    def __init__(self, name, seed, tenants, threads, service) -> None:
        self.name = name
        self.seed = seed
        self.tenants: List[TenantSpec] = tenants
        #: ``threads[i]`` is client thread *i*'s ordered operation list.
        self.threads: List[List[Op]] = threads
        #: Service configuration: ``max_workers``, ``shard_workers``, ``durable``.
        self.service: Dict[str, object] = service


def _owned(thread: int, tenants: int) -> List[int]:
    """Tenant *t* belongs to client thread ``t % CLIENT_THREADS``."""
    return [t for t in range(tenants) if t % CLIENT_THREADS == thread]


# -- FO chain tenants -----------------------------------------------------------


class ChainTenant:
    """An FO tenant: conflicted witness chains for the path query plus
    co-keyed ``R``/``S`` rows, with per-chain shadows for hot-key writes.

    Chain *i* roots at ``s<i>``; in three chains of four every link block
    gets key-conflicting claims, one of them pointing at a dead node, so the
    certain rewriting reasons over multi-fact blocks and both verdicts occur.
    Fixed fractions (not coin flips) keep the shape identical across seeds.
    """

    def __init__(self, rng: random.Random, chains: int) -> None:
        self.rng = rng
        self.chains = chains
        self.per_chain: List[Shadow] = [Shadow() for _ in range(chains)]
        for i in range(chains):
            nodes = self._nodes(i)
            conflicted = i % 4 != 0
            for level, relation in enumerate((P1, P2, P3)):
                self.per_chain[i].add(relation.fact(nodes[level], nodes[level + 1]))
                if conflicted:
                    for claim in range(3):
                        self.per_chain[i].add(self._conflict(i, level, dead=claim == 0))
            for _ in range(3):  # cross-links keep the join fan-out honest
                j = rng.randrange(chains)
                level = rng.randrange(3)
                target = f"v{rng.randrange(chains)}_{level + 1}"
                self.per_chain[j].add((P1, P2, P3)[level].fact(self._nodes(j)[level], target))
            self.per_chain[i].add(R_REL.fact(f"r{i}", f"y{rng.randrange(chains)}"))
            if i % 10 in (1, 4, 7):
                self.per_chain[i].add(R_REL.fact(f"r{i}", f"y{rng.randrange(chains)}"))
            self.per_chain[i].add(S_REL.fact(f"r{i}", "ok"))
            if i % 10 in (2, 5, 8):
                self.per_chain[i].add(S_REL.fact(f"r{i}", "bad"))

    @staticmethod
    def _nodes(i: int) -> Tuple[str, str, str, str]:
        return (f"s{i}", f"v{i}_1", f"v{i}_2", f"v{i}_3")

    def _conflict(self, i: int, level: int, dead: bool) -> Fact:
        rng = self.rng
        if dead and level < 2:
            target = f"dead{rng.randrange(self.chains)}"
        else:
            target = f"v{rng.randrange(self.chains)}_{level + 1}"
        return (P1, P2, P3)[level].fact(self._nodes(i)[level], target)

    def facts(self) -> List[Fact]:
        seen: Dict[Fact, None] = {}
        for shadow in self.per_chain:
            for fact in shadow.items:
                seen.setdefault(fact, None)
        return list(seen)

    def write_ops(self, chain: int, count: int) -> List[tuple]:
        """*count* mutations on the blocks of *chain* (a Zipf-drawn hot key)."""
        rng = self.rng
        shadow = self.per_chain[chain]
        ops = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.4:
                fact = self._conflict(chain, rng.randrange(3), dead=rng.random() < 0.3)
                if shadow.add(fact):
                    ops.append(("add", fact))
            elif roll < 0.8 and len(shadow) > 4:
                fact = shadow.pick(rng)
                shadow.discard(fact)
                ops.append(("discard", fact))
            else:
                bad = S_REL.fact(f"r{chain}", "bad")
                if shadow.discard(bad):
                    ops.append(("discard", bad))
                else:
                    shadow.add(bad)
                    ops.append(("add", bad))
        return ops


#: Scans are path : co-keyed = 3 : 1, which keeps the scan median in one mode.
SCAN_CARDS = (PATH_SCAN,) * 3 + (COKEYED_SCAN,)


def _tenant_deck(rng: random.Random, owned: Sequence[int], skew: float) -> Deck:
    """Zipf popularity by global tenant rank (tenant 0 hottest), in tenths."""
    weights = [1.0 / (t + 1) ** skew for t in owned]
    return Deck(rng, [t for t, w in zip(owned, weights) for _ in range(round(10 * w / max(weights)))])


def _fo_spec(name: str, tenant: ChainTenant, lookups: bool = False, view: bool = False) -> TenantSpec:
    warm = [("scan", PATH_SCAN), ("scan", COKEYED_SCAN)]
    if lookups:
        warm.append(("lookup", lookup_query(0)))
    if view:
        warm.append(("view", PATH_SCAN))
    return TenantSpec(name, "fo", tenant.facts(), view_query=PATH_SCAN if view else None, warm=warm)


# -- fo_read_mostly / sharded_reads --------------------------------------------

FO_TENANTS = 4
FO_CHAINS = 240
#: The plan cache holds the hot lookup keys and misses the tail: ~2.3 keys
#: per slot, with a Zipf skew that leaves roughly a fifth of lookups missing.
FO_PLAN_CACHE = 100
LOOKUP_SKEW = 0.9


def fo_read_mostly(seed: int, seconds: float, shard_workers: Optional[int] = None) -> Workload:
    """60% point lookups, 30% scans, 10% writes of 1–4 ops; Zipf tenants."""
    rng = random.Random(f"fo_read_mostly:{seed}")
    tenants = [ChainTenant(random.Random(rng.random()), FO_CHAINS) for _ in range(FO_TENANTS)]
    specs = [_fo_spec(f"fo{i}", tenant, lookups=True) for i, tenant in enumerate(tenants)]
    # A private key permutation per tenant: its hot keys are random chains.
    perms = []
    for _ in tenants:
        perm = list(range(FO_CHAINS))
        rng.shuffle(perm)
        perms.append(perm)
    keys = range(FO_CHAINS)
    key_cum = zipf_cum_weights(keys, LOOKUP_SKEW)
    lookups: Dict[int, ConjunctiveQuery] = {}
    threads: List[List[Op]] = []
    for thread in range(CLIENT_THREADS):
        owned = _owned(thread, FO_TENANTS)
        tenant_deck = _tenant_deck(rng, owned, 1.1)
        # 60% lookups, 30% scans (3:1 path to co-keyed), 10% writes.
        kinds = Deck(rng, ["lookup"] * 24 + list(SCAN_CARDS) * 3 + ["write"] * 4)
        ops: List[Op] = []
        for _ in range(int(seconds * OPS_PER_THREAD_SECOND)):
            t = tenant_deck.draw()
            kind = kinds.draw()
            key = perms[t][rng.choices(keys, cum_weights=key_cum)[0]]
            if kind == "lookup":
                query = lookups.get(key)
                if query is None:
                    query = lookups[key] = lookup_query(key)
                ops.append((t, "lookup", query))
            elif kind == "write":
                batch = tenants[t].write_ops(key, rng.randint(1, 4))
                ops.append((t, "write", (tuple(batch), False)))
            else:
                ops.append((t, "scan", kind))
        threads.append(ops)
    return Workload(
        "sharded_reads" if shard_workers else "fo_read_mostly",
        seed,
        specs,
        threads,
        {
            "max_workers": 2,
            "shard_workers": shard_workers,
            "durable": False,
            "plan_cache_size": FO_PLAN_CACHE,
        },
    )


def sharded_reads(seed: int, seconds: float) -> Workload:
    """The ``fo_read_mostly`` trace on ``CertaintyService(shard_workers=2)``."""
    return fo_read_mostly(seed, seconds, shard_workers=2)


# -- durable_writes_views -------------------------------------------------------

DURABLE_CHAINS = 200
CHECKPOINT_EVERY = 25


def durable_writes_views(seed: int, seconds: float) -> Workload:
    """60% bursty hot-key writes, 25% view reads, 15% scans; durable tenants.

    Every ``CHECKPOINT_EVERY``-th commit of a tenant also checkpoints it,
    inside the same (timed) write operation.
    """
    rng = random.Random(f"durable_writes_views:{seed}")
    tenants = [ChainTenant(random.Random(rng.random()), DURABLE_CHAINS) for _ in range(FO_TENANTS)]
    specs = [_fo_spec(f"dur{i}", tenant, view=True) for i, tenant in enumerate(tenants)]
    chains = range(DURABLE_CHAINS)
    key_cum = zipf_cum_weights(chains, 1.1)
    commits = [0] * FO_TENANTS
    # Writes applied to the tenant since its view was last read (the
    # warm-up read at set-up leaves every view clean).
    pending = [False] * FO_TENANTS
    threads: List[List[Op]] = []
    for thread in range(CLIENT_THREADS):
        owned = _owned(thread, FO_TENANTS)
        tenant_deck = Deck(rng, owned)
        # 60% writes, 25% view reads, 15% scans (3:1 path to co-keyed).
        kinds = Deck(rng, ["write"] * 48 + ["view"] * 20 + list(SCAN_CARDS) * 3)
        bursts = Deck(rng, [False] * 4 + [True])
        ops: List[Op] = []
        for _ in range(int(seconds * OPS_PER_THREAD_SECOND)):
            t = tenant_deck.draw()
            kind = kinds.draw()
            if kind == "write":
                # Bursty: mostly 1–3 ops, one batch in five a 4–24-op burst.
                size = rng.randint(4, 24) if bursts.draw() else rng.randint(1, 3)
                chain = rng.choices(chains, cum_weights=key_cum)[0]
                batch = tenants[t].write_ops(chain, size)
                commits[t] += 1
                checkpoint = commits[t] % CHECKPOINT_EVERY == 0
                ops.append((t, "write", (tuple(batch), checkpoint)))
                pending[t] = pending[t] or bool(batch)
            elif kind == "view":
                ops.append((t, "view" if pending[t] else "view_clean", PATH_SCAN))
                pending[t] = False
            else:
                ops.append((t, "scan", kind))
        threads.append(ops)
    return Workload(
        "durable_writes_views",
        seed,
        specs,
        threads,
        {"max_workers": 2, "shard_workers": None, "durable": True},
    )


# -- bands_queued ---------------------------------------------------------------


class BandTenant:
    """Shared shape of the non-FO tenants: a shadow fact set plus writes."""

    query: ConjunctiveQuery

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.shadow = Shadow()

    def spec(self, name: str, band: str) -> TenantSpec:
        return TenantSpec(name, band, list(self.shadow.items), warm=[("queued", self.query)])

    def _add(self, fact: Fact, ops: List[tuple]) -> None:
        if self.shadow.add(fact):
            ops.append(("add", fact))

    def _discard(self, fact: Fact, ops: List[tuple]) -> None:
        if self.shadow.discard(fact):
            ops.append(("discard", fact))


class Theorem3Tenant(BandTenant):
    """Figure 4 query (weak terminal attack cycles): witnesses, key
    conflicts and noise over a small domain."""

    query = figure4_query()

    def __init__(self, rng: random.Random, witnesses: int, domain: int) -> None:
        super().__init__(rng)
        self.domain = [f"d{i}" for i in range(domain)]
        self.variables = sorted(self.query.variables, key=lambda v: v.name)
        ops: List[tuple] = []
        for _ in range(witnesses):
            self._witness(ops)
        for atom in self.query.atoms:
            for _ in range(witnesses // 3):
                self._add(self._random_fact(atom.relation), ops)

    def _random_fact(self, relation: RelationSchema) -> Fact:
        return relation.fact(*(self.rng.choice(self.domain) for _ in range(relation.arity)))

    def _witness(self, ops: List[tuple]) -> None:
        rng = self.rng
        valuation = {v: rng.choice(self.domain) for v in self.variables}
        for atom in self.query.atoms:
            fact = atom.relation.fact(*(valuation[t] for t in atom.terms))
            self._add(fact, ops)
            if rng.random() < 0.4:
                self._add(self._conflict(fact), ops)

    def _conflict(self, fact: Fact) -> Fact:
        relation = fact.relation
        key = [c.value for c in fact.key_terms]
        rest = [self.rng.choice(self.domain) for _ in range(relation.arity - relation.key_size)]
        return relation.fact(*(key + rest))

    def write_ops(self, count: int) -> List[tuple]:
        rng = self.rng
        ops: List[tuple] = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.1:
                self._witness(ops)
            elif roll < 0.3:
                self._add(self._conflict(self.shadow.pick(rng)), ops)
            else:
                self._discard(self.shadow.pick(rng), ops)
        return ops


class RingTenant(BandTenant):
    """``C(3)`` (Theorem 4): parallel 3-cycles plus cross-copy chords."""

    query = cycle_query_c(3)

    def __init__(self, rng: random.Random, copies: int) -> None:
        super().__init__(rng)
        self.rings = [self.query.schema()[f"R{i}"] for i in (1, 2, 3)]
        self.copies = copies
        ops: List[tuple] = []
        for copy in range(copies):
            for position in range(3):
                self._add(self._edge(position, copy, copy), ops)
        for _ in range(copies // 2):
            self._add(self._chord(), ops)

    def _edge(self, position: int, source: int, target: int) -> Fact:
        return self.rings[position].fact(f"v{position}_{source}", f"v{(position + 1) % 3}_{target}")

    def _chord(self) -> Fact:
        rng = self.rng
        return self._edge(rng.randrange(3), rng.randrange(self.copies), rng.randrange(self.copies))

    def write_ops(self, count: int) -> List[tuple]:
        rng = self.rng
        ops: List[tuple] = []
        for _ in range(count):
            if rng.random() < 0.5:
                self._add(self._chord(), ops)
            else:
                self._discard(self.shadow.pick(rng), ops)
        return ops


class GadgetTenant(BandTenant):
    """Figure 2 ``q1`` (coNP-complete) over conflict gadgets.

    Each gadget plants one witness whose only conflict is a second claim
    in its ``T`` block, so the brute-force repair search stays linear in
    the gadget count.  Writes keep that shape — they add or remove whole
    gadgets or single ``T`` claims — because one stray conflict elsewhere
    can make the search exponential.  The database is certain exactly when
    some gadget lacks its conflicting claim, so both verdicts occur.
    """

    query = figure2_q1()

    def __init__(self, rng: random.Random, gadgets: int) -> None:
        super().__init__(rng)
        schema = {atom.relation.name: atom.relation for atom in self.query.atoms}
        self.r, self.s, self.t, self.p = schema["R"], schema["S"], schema["T"], schema["P"]
        self.live = Shadow()  # gadget ids
        self.unclaimed = Shadow()  # live gadget ids without the conflicting T claim
        self.next_id = 0
        ops: List[tuple] = []
        for _ in range(gadgets):
            self._add_gadget(ops)

    def _claim(self, i: int) -> Fact:
        return self.t.fact(f"x{i:06d}", f"w{i:06d}")

    def _gadget(self, i: int) -> Tuple[Fact, ...]:
        u, x, y, z = (f"{prefix}{i:06d}" for prefix in "uxyz")
        return (
            self.r.fact(u, "a", x),
            self.s.fact(y, x, z),
            self.t.fact(x, y),
            self._claim(i),
            self.p.fact(x, z),
        )

    def _add_gadget(self, ops: List[tuple]) -> None:
        i = self.next_id
        self.next_id += 1
        for fact in self._gadget(i):
            self._add(fact, ops)
        self.live.add(i)

    def write_ops(self, count: int) -> List[tuple]:
        rng = self.rng
        ops: List[tuple] = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.25:
                self._add_gadget(ops)
            elif roll < 0.5 and len(self.live) > 1:
                i = self.live.pick(rng)
                for fact in self._gadget(i):
                    self._discard(fact, ops)
                self.live.discard(i)
                self.unclaimed.discard(i)
            elif roll < 0.75 and self.unclaimed:
                i = self.unclaimed.pick(rng)
                self.unclaimed.discard(i)
                self._add(self._claim(i), ops)
            else:
                i = self.live.pick(rng)
                if self.unclaimed.add(i):
                    self._discard(self._claim(i), ops)
        return ops


THEOREM3_WITNESSES = 50
THEOREM3_DOMAIN = 40
RING_COPIES = 128
GADGETS = 128
BANDS_FO_CHAINS = 100


def bands_queued(seed: int, seconds: float) -> Workload:
    """One tenant per band, ``max_workers=2``: 70% reads / 30% writes on the
    three solver tenants, write and path scan in turn on the FO tenant.

    Thread 0 owns the Theorem 3 and FO tenants, thread 1 the Theorem 4 and
    coNP tenants, so inline FO scans share the box with queued work.
    """
    rng = random.Random(f"bands_queued:{seed}")
    theorem3 = Theorem3Tenant(random.Random(rng.random()), THEOREM3_WITNESSES, THEOREM3_DOMAIN)
    ring = RingTenant(random.Random(rng.random()), RING_COPIES)
    fo = ChainTenant(random.Random(rng.random()), BANDS_FO_CHAINS)
    gadgets = GadgetTenant(random.Random(rng.random()), GADGETS)
    writers = [theorem3, ring, fo, gadgets]
    specs = [
        theorem3.spec("theorem3", "theorem3"),
        ring.spec("theorem4", "theorem4"),
        _fo_spec("fo", fo),
        gadgets.spec("conp", "conp"),
    ]
    fo_writes = False
    threads: List[List[Op]] = []
    for thread in range(CLIENT_THREADS):
        owned = _owned(thread, len(specs))
        tenant_deck = Deck(rng, owned)
        kinds = Deck(rng, ["read"] * 7 + ["write"] * 3)
        ops: List[Op] = []
        for _ in range(int(seconds * OPS_PER_THREAD_SECOND)):
            t = tenant_deck.draw()
            writer = writers[t]
            if writer is fo:
                # The FO tenant alternates a write and a path scan, so every
                # scan recomputes after a write.  Scans answered from the
                # candidate memo (4–11 ms by contention) and co-keyed scans
                # (~2 ms) would put the scan median between modes.
                fo_writes = not fo_writes
                if fo_writes:
                    batch = fo.write_ops(rng.randrange(BANDS_FO_CHAINS), rng.randint(1, 4))
                    ops.append((t, "write", (tuple(batch), False)))
                else:
                    ops.append((t, "scan", PATH_SCAN))
            elif kinds.draw() == "read":
                ops.append((t, "queued", writer.query))
            else:
                ops.append((t, "write", (tuple(writer.write_ops(rng.randint(1, 4))), False)))
        threads.append(ops)
    return Workload(
        "bands_queued",
        seed,
        specs,
        threads,
        {"max_workers": 2, "shard_workers": None, "durable": False},
    )


WORKLOADS = {
    "fo_read_mostly": fo_read_mostly,
    "bands_queued": bands_queued,
    "durable_writes_views": durable_writes_views,
    "sharded_reads": sharded_reads,
}


def generate(name: str, seed: int, seconds: float) -> Workload:
    """Generate workload *name* for *seed*, sized for a *seconds*-long run."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return factory(seed, seconds)


def fingerprint(workload: Workload) -> str:
    """A SHA-256 over the workload's canonical text (facts, ops, config)."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update("\x1f".join(str(p) for p in parts).encode())
        digest.update(b"\n")

    feed(workload.name, workload.seed, sorted(workload.service.items()))
    for spec in workload.tenants:
        feed("tenant", spec.name, spec.band, spec.view_query, spec.warm)
        for fact in spec.facts:
            feed(fact)
    for thread, ops in enumerate(workload.threads):
        for tenant, kind, payload in ops:
            feed(thread, tenant, kind, payload)
    return digest.hexdigest()
