"""Model checking of first-order formulas over uncertain databases.

A database is viewed as an ordinary relational structure (the key
constraints play no role in plain satisfaction).  Quantifiers range over the
*active domain* of the database, which is the standard semantics for certain
first-order rewritings.

Two evaluation strategies are available:

* the **compiled** strategy (the default): the formula is compiled once by
  :mod:`repro.fo.compile` into a bottom-up set-at-a-time relational plan —
  atom leaves scan the id-rows of a
  :class:`~repro.store.index.ColumnarFactIndex`, quantifiers become
  projections and guarded anti-joins — so evaluation cost tracks the data
  actually matching the formula's atoms instead of
  ``|adom|^quantifier-depth``;
* the **naive** strategy (``compiled=False``): the textbook recursive
  model checker that enumerates the active domain for every quantified
  variable.  It is kept as the executable definition of the semantics and
  as the oracle the compiled plans are tested against.

Compiled plans never read the active domain, so the compiled strategy
evaluates a formula that :func:`~repro.fo.compile.compile_formula` refuses
(:class:`~repro.fo.compile.UnguardedFormulaError`), and every formula under
an explicit ``domain=``, with the naive recursion.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..model.database import UncertainDatabase
from ..model.symbols import Constant, Variable
from ..model.valuation import Valuation
from ..store.index import ColumnarFactIndex
from .compile import EvalContext, UnguardedFormulaError, compile_formula, store_of
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


class FormulaEvaluator:
    """Evaluate formulas against a fixed database (facts + active domain).

    Parameters
    ----------
    db:
        The database acting as the relational structure.
    domain:
        Quantification domain; defaults to the active domain of *db*.  An
        explicit domain is evaluated with the naive recursion.
    index:
        An externally shared columnar index over *db* (e.g. the
        incrementally maintained index of an engine session) for the
        compiled strategy.  When omitted, the first compiled evaluation
        builds a scratch store from the database's facts (``index`` stays
        ``None``).  The naive strategy reads fact membership from *db* and
        never touches an index.
    compiled:
        When ``True`` (the default) formulas are evaluated through the
        set-at-a-time plans of :mod:`repro.fo.compile`, and formulas those
        plans refuse by the naive recursion; ``False`` selects the naive
        active-domain recursion for every formula.
    """

    def __init__(
        self,
        db: UncertainDatabase,
        domain: Optional[Iterable[Constant]] = None,
        index: Optional[ColumnarFactIndex] = None,
        compiled: bool = True,
    ) -> None:
        self.db = db
        self.index = index
        self._explicit_domain = domain is not None
        # The active domain is only needed by the naive recursion, so it is
        # collected lazily — the compiled fast path must not pay an
        # O(|db| log |db|) setup scan it never reads.
        self._domain: Optional[Sequence[Constant]] = (
            sorted(set(domain), key=str) if domain is not None else None
        )
        self.compiled = compiled
        self._context: Optional[EvalContext] = None

    @property
    def domain(self) -> Sequence[Constant]:
        """The quantification domain (defaults to the active domain of the db)."""
        if self._domain is None:
            self._domain = sorted(self.db.active_domain(), key=str)
        return self._domain

    def evaluate(self, formula: Formula, valuation: Optional[Valuation] = None) -> bool:
        """``db |= formula [valuation]`` under active-domain semantics."""
        valuation = valuation if valuation is not None else Valuation()
        missing = formula.free_variables() - valuation.domain()
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ValueError(f"free variables not bound by the valuation: {names}")
        if self.compiled and not self._explicit_domain:
            try:
                plan = compile_formula(formula)
            except UnguardedFormulaError:
                pass
            else:
                return plan.evaluate(context=self._eval_context(), valuation=valuation)
        return self._eval(formula, valuation)

    def _eval_context(self) -> EvalContext:
        """The (lazily built, reused) compiled-plan context over the index."""
        if self._context is None:
            self._context = EvalContext(store_of(self.index, self.db))
        return self._context

    # -- recursive evaluation -----------------------------------------------------

    def _eval(self, formula: Formula, valuation: Valuation) -> bool:
        if isinstance(formula, Top):
            return True
        if isinstance(formula, Bottom):
            return False
        if isinstance(formula, AtomFormula):
            grounded = valuation.apply_atom(formula.atom)
            if grounded.variables:
                raise ValueError(f"atom {formula.atom} not fully bound during evaluation")
            return grounded.to_fact() in self.db
        if isinstance(formula, Equals):
            left = valuation.apply_term(formula.left)
            right = valuation.apply_term(formula.right)
            return left == right
        if isinstance(formula, Not):
            return not self._eval(formula.operand, valuation)
        if isinstance(formula, And):
            return all(self._eval(o, valuation) for o in formula.operands)
        if isinstance(formula, Or):
            return any(self._eval(o, valuation) for o in formula.operands)
        if isinstance(formula, Implies):
            if not self._eval(formula.antecedent, valuation):
                return True
            return self._eval(formula.consequent, valuation)
        if isinstance(formula, Exists):
            return self._eval_quantifier(formula.variables, formula.operand, valuation, existential=True)
        if isinstance(formula, Forall):
            return self._eval_quantifier(formula.variables, formula.operand, valuation, existential=False)
        raise TypeError(f"unknown formula node {formula!r}")

    def _eval_quantifier(
        self,
        variables: Sequence[Variable],
        operand: Formula,
        valuation: Valuation,
        existential: bool,
    ) -> bool:
        if not variables:
            return self._eval(operand, valuation)
        head, rest = variables[0], variables[1:]
        for value in self.domain:
            extended = valuation.override({head: value})
            result = self._eval_quantifier(rest, operand, extended, existential)
            if existential and result:
                return True
            if not existential and not result:
                return False
        return not existential


def evaluate_sentence(
    db: UncertainDatabase,
    formula: Formula,
    compiled: bool = True,
    index: Optional[ColumnarFactIndex] = None,
) -> bool:
    """Evaluate a sentence (no free variables) against *db*.

    *compiled* selects the set-at-a-time plan evaluator (the fast path,
    which leaves the formulas it refuses to the naive recursion); pass
    ``compiled=False`` for the naive active-domain recursion.  An
    externally maintained *index* over *db* avoids the O(|db|) rebuild.
    """
    return FormulaEvaluator(db, index=index, compiled=compiled).evaluate(formula)
