"""Compilation of first-order formulas into set-at-a-time relational plans.

The naive :class:`~repro.fo.evaluate.FormulaEvaluator` enumerates the entire
active domain for every quantified variable, which makes evaluation of the
certain first-order rewritings of Theorem 1 exponential in quantifier depth.
This module restores the promise of the theorem — FO-expressible means
*evaluable by an ordinary database engine* — by compiling each subformula
once into a :class:`PlanNode` whose result is the **set of satisfying
assignment tuples over its free variables**, computed bottom-up with
relational operations:

* an atom ``R(t⃗)`` becomes a scan of the per-relation (or, when the key is
  ground or bound by the surrounding plan, per-block) id-rows of the
  columnar store behind a :class:`~repro.store.index.ColumnarFactIndex`;
* ``∃x φ`` becomes a projection of the plan of ``φ``;
* conjunction becomes a sequence of (hash-)joins on shared free variables,
  seeded by the *guarded* conjuncts (those whose satisfying set is bounded
  by positive atoms) and finished by applying the remaining conjuncts as
  selections / anti-joins;
* disjunction becomes a union;
* ``∀x⃗ φ`` and ``¬φ`` become anti-joins: the plan of the *violating*
  assignments (``∃x⃗ ¬φ`` after pushing the negation inwards) is evaluated
  and subtracted from the rows supplied by the surrounding conjunction.

Range analysis happens at compile time: :meth:`PlanNode.needs_domain` tells
whether evaluating a node would have to enumerate or consult the active
domain, and :func:`compile_formula` refuses (with
:class:`UnguardedFormulaError`) every formula whose plan would.  What it
accepts is the guarded shape emitted by :mod:`repro.fo.rewrite`, where every
quantified variable is bounded by a positive atom; there is no active-domain
fallback, so a compiled plan reads only the atoms' blocks and relations.
:class:`~repro.fo.evaluate.FormulaEvaluator` evaluates refused formulas with
its naive recursion.

Every relation row that flows through a plan is a tuple of interned term
ids; constants are encoded on the way in and decoded only for results
returned to callers.  The naive
:class:`~repro.fo.evaluate.FormulaEvaluator` (``compiled=False``) is the
executable definition these plans are tested against.

Compiled plans are memoised per formula object (formulas hash by identity),
so re-evaluating the same rewriting against many databases compiles once.
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from weakref import WeakKeyDictionary

from ..model.atoms import Atom
from ..model.database import BlockKey, UncertainDatabase
from ..model.symbols import Constant, Variable, is_constant
from ..model.valuation import Valuation
from ..store.columnar import ColumnarFactStore, scratch_store
from ..store.index import ColumnarFactIndex
from .formulas import (
    And,
    AtomFormula,
    Bottom,
    Equals,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Top,
)

#: A row of a relation: a tuple of interned term ids.
Row = Tuple

#: A key-position mask: one entry per primary-key position — a
#: :class:`Constant` the position must equal, or ``None`` (wildcard).
KeyMask = Tuple[Optional[Constant], ...]


class ReadSet:
    """An immutable over-approximation of what one plan execution read.

    A decision whose read set does not overlap a set of database mutations
    is guaranteed to re-produce the same verdict: plan execution is
    deterministic, the first index accesses are fixed by the plan structure,
    and every later probe key is derived from facts found by earlier
    accesses — so if no read block/relation changed, the entire execution
    replays identically.  This is the dependency unit of the incremental
    view subsystem (:mod:`repro.incremental`).

    ``block_ids``
        blocks probed through the per-block index (including *empty*
        probes — an insertion into a probed-but-empty block changes what
        the probe returns, so it must dirty the verdict), as dense integer
        block ids (see :meth:`repro.store.columnar.ColumnarFactStore.block_id`)
        — one small int per probe instead of a ``(name, constants)`` tuple,
        which is what keeps support indexes compact under heavy candidate
        counts.  Ids are only meaningful against the store that issued
        them; use :meth:`to_portable` before shipping a read set across
        processes;
    ``blocks``
        the same dependency as portable ``(name, key)`` block keys: what
        :meth:`to_portable` decodes ``block_ids`` into;
    ``relations``
        relations read through full scans (any mutation of the relation may
        change the result);
    ``key_masks``
        static ``(relation name, key mask)`` dependencies recorded by the
        non-FO solvers: the verdict of a grounded query can only change
        when a mutated fact's key constants match the mask of some atom of
        the query (``None`` positions are wildcards).  Soundness is the
        block granularity of Lemma 1: a mask constrains *key* positions
        only, so an entire block either matches or misses it, and blocks
        matching no atom's mask contain no fact any witness can use —
        purification removes them without changing certainty.

    Compiled plans never read the active domain (:func:`compile_formula`
    refuses formulas that would), so these fields cover every read.
    """

    __slots__ = ("blocks", "block_ids", "relations", "key_masks")

    def __init__(
        self,
        blocks: FrozenSet[BlockKey] = frozenset(),
        relations: FrozenSet[str] = frozenset(),
        block_ids: FrozenSet[int] = frozenset(),
        key_masks: FrozenSet[Tuple[str, KeyMask]] = frozenset(),
    ) -> None:
        self.blocks = blocks
        self.block_ids = block_ids
        self.relations = relations
        self.key_masks = key_masks

    def to_portable(self, store) -> "ReadSet":
        """Decode store-local block ids into portable ``(name, key)`` keys.

        Worker processes capture read sets against their own columnar
        stores, whose block-id spaces do not match the parent's; this
        rewrites ``block_ids`` through the worker *store* into object-space
        block keys before the read set is shipped back.
        """
        if not self.block_ids:
            return self
        blocks = set(self.blocks)
        for block_id in self.block_ids:
            blocks.add(store.decode_block_key(block_id))
        return ReadSet(
            blocks=frozenset(blocks),
            relations=self.relations,
            key_masks=self.key_masks,  # already object-space, hence portable
        )

    def __repr__(self) -> str:
        return (
            f"ReadSet({len(self.blocks) + len(self.block_ids)} blocks, "
            f"{len(self.key_masks)} masks, {len(self.relations)} relations)"
        )

    # ReadSets cross process boundaries (shard workers ship support back).
    def __getstate__(self):
        return (self.blocks, self.relations, self.block_ids, self.key_masks)

    def __setstate__(self, state):
        self.blocks, self.relations, self.block_ids, self.key_masks = state


class ReadSetRecorder:
    """Mutable collector the evaluator writes its index accesses into.

    Hand one to an :class:`EvalContext` (or thread it through
    ``QueryPlan.execute``) and call :meth:`freeze` afterwards to obtain the
    immutable :class:`ReadSet` of that execution.
    """

    __slots__ = ("block_ids", "relations", "key_masks")

    def __init__(self) -> None:
        self.block_ids: Set[Tuple[str, int]] = set()
        self.relations: Set[str] = set()
        self.key_masks: Set[Tuple[str, KeyMask]] = set()

    def record_block_id(self, name: str, block_id: int) -> None:
        """Record a probe by dense block id."""
        self.block_ids.add((name, block_id))

    def record_key_mask(self, name: str, mask: KeyMask) -> None:
        """Record a static key-mask dependency (non-FO solver support)."""
        self.key_masks.add((name, mask))

    def record_relation(self, name: str) -> None:
        self.relations.add(name)

    def freeze(self) -> ReadSet:
        """The immutable read set collected so far."""
        # Blocks of fully scanned relations are subsumed by the relation
        # entry; dropping them keeps support indexes small.
        block_ids = frozenset(
            block_id
            for name, block_id in self.block_ids
            if name not in self.relations
        )
        key_masks = frozenset(
            entry for entry in self.key_masks if entry[0] not in self.relations
        )
        return ReadSet(
            block_ids=block_ids,
            relations=frozenset(self.relations),
            key_masks=key_masks,
        )


class Relation:
    """A set of assignment tuples over an ordered tuple of variables.

    The *schema* lists the variables each column binds; *rows* is a set of
    equally long constant tuples.  The Boolean relations are the two
    zero-column relations: ``{()}`` (true) and ``{}`` (false).
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Tuple[Variable, ...], rows: Set[Row]) -> None:
        self.schema = schema
        self.rows = rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.schema)
        return f"Relation([{names}], {len(self.rows)} rows)"


def _ordered(variables: Iterable[Variable]) -> Tuple[Variable, ...]:
    """A deterministic column order for a set of variables."""
    return tuple(sorted(set(variables), key=lambda v: v.name))


def _unit() -> Relation:
    """The unit (true) relation: no columns, one empty row."""
    return Relation((), {()})


def _project(rel: Relation, schema: Tuple[Variable, ...]) -> Relation:
    """Project (and/or reorder) *rel* onto *schema* ⊆ ``rel.schema``."""
    if schema == rel.schema:
        return rel
    positions = [rel.schema.index(v) for v in schema]
    return Relation(schema, {tuple(row[p] for p in positions) for row in rel.rows})


def _join(left: Relation, right: Relation) -> Relation:
    """Natural (hash) join of two relations on their shared variables."""
    if not left.schema:
        return right if left.rows else Relation(right.schema, set())
    if not right.schema:
        return left if right.rows else Relation(left.schema, set())
    shared = [v for v in right.schema if v in left.schema]
    extra = [v for v in right.schema if v not in left.schema]
    out_schema = left.schema + tuple(extra)
    if not shared:
        rows = {lrow + rrow for lrow in left.rows for rrow in right.rows}
        return Relation(out_schema, rows)
    left_key = [left.schema.index(v) for v in shared]
    right_key = [right.schema.index(v) for v in shared]
    extra_pos = [right.schema.index(v) for v in extra]
    table: Dict[Row, List[Row]] = {}
    for rrow in right.rows:
        table.setdefault(tuple(rrow[p] for p in right_key), []).append(
            tuple(rrow[p] for p in extra_pos)
        )
    rows = set()
    for lrow in left.rows:
        for tail in table.get(tuple(lrow[p] for p in left_key), ()):
            rows.add(lrow + tail)
    return Relation(out_schema, rows)


def _antijoin(rel: Relation, exclude: Relation) -> Relation:
    """Rows of *rel* whose projection onto ``exclude.schema`` is absent there."""
    if not exclude.schema:
        return Relation(rel.schema, set()) if exclude.rows else rel
    positions = [rel.schema.index(v) for v in exclude.schema]
    rows = {row for row in rel.rows if tuple(row[p] for p in positions) not in exclude.rows}
    return Relation(rel.schema, rows)


def _semijoin(rel: Relation, keep: Relation) -> Relation:
    """Rows of *rel* whose projection onto ``keep.schema`` is present there."""
    if not keep.schema:
        return rel if keep.rows else Relation(rel.schema, set())
    positions = [rel.schema.index(v) for v in keep.schema]
    rows = {row for row in rel.rows if tuple(row[p] for p in positions) in keep.rows}
    return Relation(rel.schema, rows)


class UnguardedFormulaError(ValueError):
    """A formula whose compiled plan would have to read the active domain.

    :func:`compile_formula` raises it for formulas outside the guarded
    fragment (a variable that no positive atom binds, an equality between
    variables that no atom binds, a vacuous ``∃``); the naive recursion of
    :class:`~repro.fo.evaluate.FormulaEvaluator` evaluates them instead.
    """


class EvalContext:
    """Per-database state for one or more compiled-plan evaluations.

    Bundles the :class:`~repro.store.columnar.ColumnarFactStore` the atom
    scans read and two counters, ``atom_scans`` / ``block_lookups``: how
    atom leaves obtained their facts (full relation scan versus guarded
    per-block index probes).

    An optional :class:`ReadSetRecorder` captures every index access made
    through the context — per-block probes and full relation scans — so
    callers can learn which parts of the database a verdict depended on.
    Compiled plans never read the active domain, so those accesses are all
    a verdict depends on.

    Atom leaves scan id-rows from the store, plan constants are interned on
    first use, and every relation row that flows through the plan is a
    tuple of small ints.
    """

    __slots__ = ("store", "atom_scans", "block_lookups", "recorder")

    def __init__(
        self,
        store: ColumnarFactStore,
        recorder: Optional[ReadSetRecorder] = None,
    ) -> None:
        self.store = store
        self.recorder = recorder
        self.atom_scans = 0
        self.block_lookups = 0

    def encode_constant(self, constant: Constant) -> int:
        """The interned term id of *constant*.

        Interning is sound for constants absent from the database: a fresh
        id equals no stored id, exactly as a fresh constant equals no
        stored constant.
        """
        return self.store.table.intern(constant)

    @classmethod
    def for_database(
        cls, db: UncertainDatabase, index: Optional[ColumnarFactIndex] = None
    ) -> "EvalContext":
        """A context over *db*, on *index*'s store when supplied (see :func:`store_of`)."""
        return cls(store_of(index, db))


def store_of(
    index: Optional[ColumnarFactIndex], db: Optional[UncertainDatabase]
) -> ColumnarFactStore:
    """The store of *index*, or a scratch store over *db* when no index is given.

    Compiled plans run on id-rows: an index without a ``store`` (a plain
    :class:`~repro.query.evaluation.FactIndex`) raises :class:`TypeError`.
    """
    if index is None:
        if db is None:
            raise ValueError("compiled plans need a database, a fact index or an EvalContext")
        return scratch_store(db)
    store = getattr(index, "store", None)
    if store is None:
        raise TypeError(f"compiled plans run on a ColumnarFactIndex, not {type(index).__name__}")
    return store


def push_negation(formula: Formula) -> Formula:
    """The negation of *formula*, pushed through the connectives.

    Rewriting ``¬∀`` into ``∃¬`` (and dually) at compile time is what keeps
    universal quantification guarded: the violating assignments of
    ``∀w⃗ (R(x⃗, w⃗) → φ)`` are ``∃w⃗ (R(x⃗, w⃗) ∧ ¬φ)``, whose quantified
    variables are bounded by the positive atom ``R``.
    """
    if isinstance(formula, Top):
        return Bottom()
    if isinstance(formula, Bottom):
        return Top()
    if isinstance(formula, Not):
        return formula.operand
    if isinstance(formula, And):
        return Or([push_negation(o) for o in formula.operands])
    if isinstance(formula, Or):
        return And([push_negation(o) for o in formula.operands])
    if isinstance(formula, Implies):
        return And([formula.antecedent, push_negation(formula.consequent)])
    if isinstance(formula, Exists):
        return Forall(formula.variables, push_negation(formula.operand))
    if isinstance(formula, Forall):
        return Exists(formula.variables, push_negation(formula.operand))
    return Not(formula)


class PlanNode:
    """A compiled subformula.

    Every node knows its free variables and, through :meth:`needs_domain`,
    whether evaluating it would read the active domain; it is *guarded*
    when it can :meth:`produce` its satisfying set without binding any
    variable first.  Two evaluation entry points exist:

    ``produce(ctx, env)``
        the satisfying assignments over ``env.schema ∪ free``, restricted to
        rows extending *env* (sideways information passing: an enclosing
        join hands its partial result down so atom leaves can use per-block
        index lookups);
    ``filter(ctx, rel)``
        the rows of *rel* (whose schema must cover ``free``) that satisfy
        the node — the set-at-a-time selection/anti-join used for equality
        conditions, negation and universal quantification.

    Both are defined only where :meth:`needs_domain` is false: a plan has
    no active-domain fallback.
    """

    __slots__ = ("free", "schema")

    def __init__(self, free: FrozenSet[Variable]) -> None:
        self.free = free
        self.schema = _ordered(free)

    def needs_domain(self, bound: FrozenSet[Variable]) -> bool:
        """Would evaluating the node on rows that bind *bound* need the active domain?"""
        return False

    @property
    def guarded(self) -> bool:
        return not self.needs_domain(frozenset())

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        raise NotImplementedError

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        """Default filter: semi-join *rel* with the produced satisfying set."""
        env = _project(rel, self.schema)
        sat = self.produce(ctx, env)
        return _semijoin(rel, _project(sat, self.schema))


class TopNode(PlanNode):
    def __init__(self) -> None:
        super().__init__(frozenset())

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        return env if env is not None else _unit()

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        return rel


class BottomNode(PlanNode):
    def __init__(self) -> None:
        super().__init__(frozenset())

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        return Relation(env.schema if env is not None else (), set())

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        return Relation(rel.schema, set())


class AtomNode(PlanNode):
    """A scan of the columnar store, matching the atom's term pattern."""

    __slots__ = ("atom", "_const_checks", "_first_position", "_repeat_checks", "_key_terms")

    def __init__(self, atom: Atom) -> None:
        super().__init__(atom.variables)
        self.atom = atom
        self._const_checks: List[Tuple[int, Constant]] = []
        self._first_position: Dict[Variable, int] = {}
        self._repeat_checks: List[Tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if is_constant(term):
                self._const_checks.append((position, term))
            elif term in self._first_position:
                self._repeat_checks.append((position, self._first_position[term]))
            else:
                self._first_position[term] = position
        self._key_terms = atom.key_terms

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        """Scan the store's id-rows matching the atom's term pattern.

        Probes one block per incoming row when the key is ground or fully
        bound by *env*, and scans the whole relation otherwise.  Keys, rows
        and output tuples are interned term ids, and read-set probes are
        recorded as dense block ids.
        """
        store = ctx.store
        relation = self.atom.relation
        name = relation.name
        columns = store.relation_columns(name)
        # Rows of a same-name relation with a different arity can never
        # match this atom.
        arity_ok = columns is not None and columns.schema.arity == relation.arity
        intern = store.table.intern
        const_checks = [(pos, intern(c)) for pos, c in self._const_checks]
        repeat_checks = self._repeat_checks
        first_position = self._first_position
        # Guarded probe: the key is ground, or fully bound by the incoming rows.
        if env is not None and env.rows:
            env_positions = {v: p for p, v in enumerate(env.schema)}
            key_getters = []
            for term in self._key_terms:
                if is_constant(term):
                    key_getters.append((None, intern(term)))
                elif term in env_positions:
                    key_getters.append((env_positions[term], None))
                else:
                    key_getters.append(None)
            if all(g is not None for g in key_getters):
                ctx.block_lookups += 1
                recorder = ctx.recorder
                out_extra = [v for v in self.schema if v not in env_positions]
                out_schema = env.schema + tuple(out_extra)
                bound = [
                    (env_positions[v], p)
                    for v, p in first_position.items()
                    if v in env_positions
                ]
                extra_pos = [first_position[v] for v in out_extra]
                blocks = columns.blocks if arity_ok else None
                # Hoist the per-row key construction out of the hot loop;
                # single-position keys (the overwhelmingly common shape)
                # build one 1-tuple per row with no generator machinery.
                if len(key_getters) == 1:
                    position0, const0 = key_getters[0]  # type: ignore[misc]
                    if const0 is None:
                        def make_key(row, _p=position0):
                            return (row[_p],)
                    else:
                        def make_key(row, _k=(const0,)):
                            return _k
                else:
                    def make_key(row, _plan=tuple(key_getters)):
                        return tuple(
                            row[pos] if const is None else const
                            for pos, const in _plan  # type: ignore[misc]
                        )
                single_extra = extra_pos[0] if len(extra_pos) == 1 else None
                rows: Set[Row] = set()
                empty_block: Tuple = ()
                for env_row in env.rows:
                    key = make_key(env_row)
                    if recorder is not None:
                        # Empty probes are recorded too: a later insertion
                        # into this block changes what the probe returns.
                        recorder.record_block_id(name, store.block_id(name, key))
                    if blocks is None:
                        continue
                    for terms in blocks.get(key, empty_block):
                        matched = True
                        for position, cid in const_checks:
                            if terms[position] != cid:
                                matched = False
                                break
                        if matched:
                            for position, first in repeat_checks:
                                if terms[position] != terms[first]:
                                    matched = False
                                    break
                        if matched:
                            for ep, fp in bound:
                                if env_row[ep] != terms[fp]:
                                    matched = False
                                    break
                        if not matched:
                            continue
                        if single_extra is not None:
                            rows.add(env_row + (terms[single_extra],))
                        else:
                            rows.add(env_row + tuple(terms[p] for p in extra_pos))
                return Relation(out_schema, rows)
        ctx.atom_scans += 1
        candidates: Iterable = ()
        if self._key_terms and all(is_constant(t) for t in self._key_terms):
            key = tuple(intern(t) for t in self._key_terms)
            if ctx.recorder is not None:
                ctx.recorder.record_block_id(name, store.block_id(name, key))
            if arity_ok:
                candidates = columns.blocks.get(key, ())
        else:
            if ctx.recorder is not None:
                ctx.recorder.record_relation(name)
            if arity_ok:
                candidates = columns.row_index.keys()
        rows = set()
        for terms in candidates:
            matched = True
            for position, cid in const_checks:
                if terms[position] != cid:
                    matched = False
                    break
            if matched:
                for position, first in repeat_checks:
                    if terms[position] != terms[first]:
                        matched = False
                        break
            if matched:
                rows.add(tuple(terms[first_position[v]] for v in self.schema))
        rel = Relation(self.schema, rows)
        if env is not None:
            rel = _join(env, rel)
        return rel


class _FilterNode(PlanNode):
    """A node evaluated only as a filter of rows that bind its free variables."""

    __slots__ = ()

    def needs_domain(self, bound: FrozenSet[Variable]) -> bool:
        return not self.free <= bound

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        return self.filter(ctx, env if env is not None else _unit())


class EqualsNode(_FilterNode):
    """An equality ``t1 = t2``: a selection on rows that bind its variables."""

    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        super().__init__(frozenset(t for t in (left, right) if isinstance(t, Variable)))
        self.left = left
        self.right = right

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        def getter(term):
            if isinstance(term, Variable):
                position = rel.schema.index(term)
                return lambda row: row[position]
            value = ctx.encode_constant(term)  # row values may be term ids
            return lambda row: value

        get_left, get_right = getter(self.left), getter(self.right)
        rows = {row for row in rel.rows if get_left(row) == get_right(row)}
        return Relation(rel.schema, rows)


class NotNode(_FilterNode):
    """Negation of a (post-push) atom or equality: a difference against the input rows."""

    __slots__ = ("operand",)

    def __init__(self, operand: PlanNode) -> None:
        super().__init__(operand.free)
        self.operand = operand

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        sat = self.operand.filter(ctx, rel)
        return Relation(rel.schema, rel.rows - sat.rows)


class AndNode(PlanNode):
    """Conjunction: join the guarded conjuncts, apply the rest as filters."""

    __slots__ = ("producers", "filters", "covered")

    def __init__(self, children: Sequence[PlanNode]) -> None:
        super().__init__(frozenset().union(*(c.free for c in children)))
        self.producers = [c for c in children if c.guarded]
        self.filters = [c for c in children if not c.guarded]
        self.covered = frozenset().union(*(p.free for p in self.producers))

    def needs_domain(self, bound: FrozenSet[Variable]) -> bool:
        if not self.free <= bound | self.covered:
            return True
        return any(child.needs_domain(bound | self.free) for child in self.filters)

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        rel = env if env is not None else _unit()
        remaining = list(self.producers)
        while remaining:
            bound = set(rel.schema)
            # Greedy join order: prefer conjuncts sharing variables with the
            # rows built so far (turns scans into guarded block probes and
            # avoids cross products).
            best = max(remaining, key=lambda p: (len(p.free & bound), -len(p.free)))
            remaining.remove(best)
            rel = best.produce(ctx, rel)
        for child in self.filters:
            if not rel.rows:
                break
            rel = child.filter(ctx, rel)
        return rel

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        for child in self.producers + self.filters:
            if not rel.rows:
                break
            rel = child.filter(ctx, rel)
        return rel


class OrNode(PlanNode):
    """Disjunction: a union of the operand plans."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[PlanNode]) -> None:
        super().__init__(frozenset().union(*(c.free for c in children)))
        self.children = list(children)

    def needs_domain(self, bound: FrozenSet[Variable]) -> bool:
        # Each operand must bind every free variable that *bound* does not.
        return any(
            child.needs_domain(bound) or not self.free - child.free <= bound
            for child in self.children
        )

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        env_schema = env.schema if env is not None else ()
        out_schema = env_schema + tuple(v for v in self.schema if v not in env_schema)
        rows: Set[Row] = set()
        for child in self.children:
            rows |= _project(child.produce(ctx, env), out_schema).rows
        return Relation(out_schema, rows)

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        rows: Set[Row] = set()
        for child in self.children:
            rows |= child.filter(ctx, rel).rows
            if len(rows) == len(rel.rows):
                break
        return Relation(rel.schema, rows)


class ExistsNode(PlanNode):
    """Existential quantification: a projection of the operand plan."""

    __slots__ = ("qvars", "operand")

    def __init__(self, qvars: FrozenSet[Variable], operand: PlanNode) -> None:
        super().__init__(operand.free - qvars)
        self.qvars = qvars
        self.operand = operand

    def needs_domain(self, bound: FrozenSet[Variable]) -> bool:
        # A vacuous ∃x φ is φ ∧ "the active domain is not empty".
        return not self.qvars <= self.operand.free or self.operand.needs_domain(
            bound - self.qvars
        )

    def produce(self, ctx: EvalContext, env: Optional[Relation] = None) -> Relation:
        inner_env = env
        shadowed = env is not None and any(v in self.qvars for v in env.schema)
        if shadowed:
            inner_env = _project(env, tuple(v for v in env.schema if v not in self.qvars))
        env_schema = inner_env.schema if inner_env is not None else ()
        out_schema = env_schema + tuple(v for v in self.schema if v not in env_schema)
        sat = _project(self.operand.produce(ctx, inner_env), out_schema)
        if shadowed:
            return _join(env, sat)  # re-attach the shadowed outer columns
        return sat


class ForallNode(_FilterNode):
    """Universal quantification, evaluated as an anti-join with its violations.

    ``∀x⃗ φ`` holds for an assignment iff the *violation plan* —
    ``∃x⃗ ¬φ`` with the negation pushed inwards — produces no extension of
    it.  The node filters rows that bind its free variables; when ``φ`` is
    the guarded implication shape of the rewritings, the violation plan is
    guarded by the implication's antecedent atom.
    """

    __slots__ = ("violation",)

    def __init__(self, violation: PlanNode) -> None:
        super().__init__(violation.free)
        self.violation = violation

    def needs_domain(self, bound: FrozenSet[Variable]) -> bool:
        return super().needs_domain(bound) or self.violation.needs_domain(self.free)

    def filter(self, ctx: EvalContext, rel: Relation) -> Relation:
        env = _project(rel, self.schema)
        violations = self.violation.produce(ctx, env)
        return _antijoin(rel, _project(violations, self.schema))


def _compile(formula: Formula) -> PlanNode:
    if isinstance(formula, Top):
        return TopNode()
    if isinstance(formula, Bottom):
        return BottomNode()
    if isinstance(formula, AtomFormula):
        return AtomNode(formula.atom)
    if isinstance(formula, Equals):
        return EqualsNode(formula.left, formula.right)
    if isinstance(formula, Not):
        pushed = push_negation(formula.operand)
        if isinstance(pushed, Not):
            # ¬atom / ¬equality: a genuine difference node.
            return NotNode(_compile(pushed.operand))
        return _compile(pushed)
    if isinstance(formula, And):
        return AndNode([_compile(o) for o in formula.operands])
    if isinstance(formula, Or):
        return OrNode([_compile(o) for o in formula.operands])
    if isinstance(formula, Implies):
        # a → c  ≡  ¬a ∨ c, with the negation pushed for guardedness.
        return OrNode([_compile(push_negation(formula.antecedent)), _compile(formula.consequent)])
    if isinstance(formula, Exists):
        if not formula.variables:
            return _compile(formula.operand)
        return ExistsNode(frozenset(formula.variables), _compile(formula.operand))
    if isinstance(formula, Forall):
        if not formula.variables:
            return _compile(formula.operand)
        return ForallNode(_compile(Exists(formula.variables, push_negation(formula.operand))))
    raise TypeError(f"unknown formula node {formula!r}")


class CompiledFormula:
    """A formula compiled into a relational plan, evaluable against databases.

    Instances are produced by :func:`compile_formula` (which memoises per
    formula object) and are immutable: one compiled formula can be evaluated
    against many databases, or against one mutating database through a
    long-lived :class:`EvalContext` / engine session index.

    The source formula is intentionally *not* retained: the memo keys
    formulas weakly, and a strong back-reference from the cached value
    would keep every key alive forever.
    """

    __slots__ = ("root",)

    def __init__(self, root: PlanNode) -> None:
        self.root = root

    @property
    def free_variables(self) -> FrozenSet[Variable]:
        return self.root.free

    def evaluate(
        self,
        db: Optional[UncertainDatabase] = None,
        *,
        index: Optional[ColumnarFactIndex] = None,
        valuation: Optional[Valuation] = None,
        context: Optional[EvalContext] = None,
    ) -> bool:
        """``db |= formula [valuation]`` via the compiled plan.

        Either *db*, an *index*, or a prebuilt *context* must be supplied;
        free variables of the formula must be covered by *valuation*.
        """
        ctx = context if context is not None else EvalContext(store_of(index, db))
        free = self.root.free
        if free:
            valuation = valuation if valuation is not None else Valuation()
            missing = free - valuation.domain()
            if missing:
                names = ", ".join(sorted(v.name for v in missing))
                raise ValueError(f"free variables not bound by the valuation: {names}")
            schema = self.root.schema
            seed = Relation(
                schema, {tuple(ctx.encode_constant(valuation[v]) for v in schema)}
            )
            return bool(self.root.filter(ctx, seed).rows)
        return bool(self.root.produce(ctx, None).rows)

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.root.schema)
        return f"CompiledFormula(free=[{names}])"


#: Compiled-plan memo, keyed by formula identity (formulas hash by object
#: identity); weak keys keep per-grounding rewritings from accumulating once
#: the formula itself is dropped (e.g. evicted from the rewriting lru_cache).
#: Guarded by a lock: a WeakKeyDictionary is not safe under concurrent
#: mutation (GC callbacks and inserts can interleave mid-resize), and the
#: engine compiles formulas from several threads.
_PLAN_MEMO: "WeakKeyDictionary[Formula, CompiledFormula]" = WeakKeyDictionary()
_PLAN_MEMO_LOCK = threading.Lock()


def compile_formula(formula: Formula) -> CompiledFormula:
    """Compile *formula* into a relational plan (memoised per formula object).

    Raises :class:`UnguardedFormulaError` when the plan would have to read
    the active domain: a sentence is evaluated from no bound variable, an
    open formula on rows that bind all its free variables.

    Thread-safe: the memo is read and written under a lock, while the pure
    compilation itself runs outside it.  Two threads racing on the same
    uncompiled formula may both compile it, but only the first result is
    kept, so callers always share one plan per formula object.
    """
    with _PLAN_MEMO_LOCK:
        plan = _PLAN_MEMO.get(formula)
    if plan is None:
        root = _compile(formula)
        if root.needs_domain(root.free):
            raise UnguardedFormulaError(
                f"evaluating {formula!r} would read the active domain"
            )
        plan = CompiledFormula(root)
        with _PLAN_MEMO_LOCK:
            plan = _PLAN_MEMO.setdefault(formula, plan)
    return plan
