"""First-order logic: formulas, model checking, and certain FO rewritings.

The package contains the formula AST (:mod:`repro.fo.formulas`), the model
checker (:mod:`repro.fo.evaluate`), the set-at-a-time plan compiler that
backs its fast path (:mod:`repro.fo.compile`), and the certain-rewriting
generator of Theorem 1 (:mod:`repro.fo.rewrite`).
"""

from .compile import CompiledFormula, EvalContext, UnguardedFormulaError, compile_formula, push_negation
from .evaluate import FormulaEvaluator, evaluate_sentence
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
    conjunction,
    disjunction,
    formula_size,
)
from .rewrite import certain_rewriting, certain_rewriting_cached

__all__ = [
    "And",
    "AtomFormula",
    "Bottom",
    "CompiledFormula",
    "Equals",
    "EvalContext",
    "Exists",
    "Forall",
    "Formula",
    "FormulaEvaluator",
    "Implies",
    "Not",
    "Or",
    "Top",
    "UnguardedFormulaError",
    "certain_rewriting",
    "certain_rewriting_cached",
    "compile_formula",
    "conjunction",
    "disjunction",
    "evaluate_sentence",
    "formula_size",
    "push_negation",
]
