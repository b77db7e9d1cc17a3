"""Attack graphs: closures, construction, cycles, and structural lemmas."""

from .closure import all_box_closures, all_plus_closures, box_closure, plus_closure
from .cycles import (
    AttackCycle,
    all_cycles_terminal,
    atoms_on_cycles,
    cycle_is_terminal,
    enumerate_cycles,
    has_strong_cycle,
    strong_cycles,
    strong_two_cycle,
    strongly_connected_components,
    weak_cycles,
)
from .graph import Attack, AttackGraph, attack_graph
from .properties import (
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma6,
    check_lemma7,
    check_plus_subset_box,
    lemma_report,
)

__all__ = [
    "Attack",
    "AttackCycle",
    "AttackGraph",
    "all_box_closures",
    "all_cycles_terminal",
    "all_plus_closures",
    "atoms_on_cycles",
    "attack_graph",
    "box_closure",
    "check_lemma2",
    "check_lemma3",
    "check_lemma4",
    "check_lemma6",
    "check_lemma7",
    "check_plus_subset_box",
    "cycle_is_terminal",
    "enumerate_cycles",
    "has_strong_cycle",
    "lemma_report",
    "plus_closure",
    "strong_cycles",
    "strong_two_cycle",
    "strongly_connected_components",
    "weak_cycles",
]
