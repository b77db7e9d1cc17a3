"""CERTAINTY(q) solvers: purification, oracle, and the paper's polynomial algorithms."""

from .brute_force import (
    BruteForceResult,
    brute_force_with_certificate,
    certain_brute_force,
    certain_by_enumeration,
)
from .cycle_query import certain_ck_via_reduction, certain_cycle_query, lemma9_expand
from .exceptions import CertaintyError, IntractableQueryError, UnsupportedQueryError
from .pair_solver import certain_two_atom, certain_weak_cycle_pair, is_two_atom_query
from .peeling import peel_certain
from .purify import is_purified, purify, purify_rows, relevant_facts
from .reductions import Theorem2Reduction, theorem2_reduction
from .rewriting import certain_fo, certain_fo_rewriting, is_fo_expressible
from .solver import CertaintyOutcome, certain_answers, is_certain, solve
from .terminal_cycles import certain_terminal_cycles

__all__ = [
    "BruteForceResult",
    "CertaintyError",
    "CertaintyOutcome",
    "IntractableQueryError",
    "Theorem2Reduction",
    "UnsupportedQueryError",
    "brute_force_with_certificate",
    "certain_answers",
    "certain_brute_force",
    "certain_by_enumeration",
    "certain_ck_via_reduction",
    "certain_cycle_query",
    "certain_fo",
    "certain_fo_rewriting",
    "certain_terminal_cycles",
    "certain_two_atom",
    "certain_weak_cycle_pair",
    "is_certain",
    "is_fo_expressible",
    "is_purified",
    "is_two_atom_query",
    "lemma9_expand",
    "peel_certain",
    "purify",
    "purify_rows",
    "relevant_facts",
    "solve",
    "theorem2_reduction",
]
